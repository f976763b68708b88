"""Reports pinned byte for byte across commits.

Each command's ``--format structured`` stdout and ``--out`` JSON (and CSV,
where the command writes one) must equal the files under ``tests/golden``.
Regenerate them only with a change that announces a report change::

    PYTHONPATH=src python3 -c "from sqkdsim.cli import main; \\
        main([...ARGS..., '--format', 'structured', '--out', 'tests/golden/NAME.json'])"
"""
from pathlib import Path

import pytest

from sqkdsim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "run_mirror": ["run", "--attack", "random:11:4", "--loss", "0.9",
                   "--rounds", "2000"],
    "run_legacy": ["run", "--variant", "legacy", "--attack", "random:11:4",
                   "--loss", "0.9", "--rounds", "2000"],
    "run_hadamard0": ["run", "--attack", "random:11:4:0.8", "--hadamard-prob", "0",
                      "--rounds", "2000"],
    "sweep": ["sweep", "--count", "8"],
    "attack_demo": ["attack-demo"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_bytes_match_golden(name, tmp_path, capsys):
    base = tmp_path / f"{name}.json"
    main(COMMANDS[name] + ["--format", "structured", "--out", str(base)])
    expected = (GOLDEN / f"{name}.json").read_bytes()
    assert capsys.readouterr().out.encode() == expected
    assert base.read_bytes() == expected
    golden_csv = GOLDEN / f"{name}.csv"
    assert base.with_suffix(".csv").exists() == golden_csv.exists()
    if golden_csv.exists():
        assert base.with_suffix(".csv").read_bytes() == golden_csv.read_bytes()
