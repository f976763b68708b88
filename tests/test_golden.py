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
    # Above n_max 2, where loss maps take binomial weights of two or more
    # photons per slot and the basis holds more than one photon-number shell.
    "run_legacy_n4": ["run", "--variant", "legacy", "--attack", "random:3:2:1.0",
                      "--n-max", "4", "--loss", "0.8", "--rounds", "2000"],
    "run_tagging_n3": ["run", "--attack", "tagging", "--n-max", "3", "--loss", "0.6",
                       "--cross-check"],
    "sweep_n3": ["sweep", "--count", "8", "--n-max", "3", "--strength", "0.8"],
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
