"""Reports pinned byte for byte across commits.

Each command's ``--format structured`` stdout and ``--out`` JSON (and CSV,
where the command writes one) must equal the files under ``tests/golden``.
Regenerate them only with a change that announces a report change::

    PYTHONPATH=src python3 -c "from sqkdsim.cli import main; \\
        main([...ARGS..., '--format', 'structured', '--out', 'tests/golden/NAME.json'])"

with ``OPENBLAS_NUM_THREADS=1`` in the environment for the reports of
``ONE_BLAS_THREAD``.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sqkdsim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"

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
    # A long sampled run: every (operation, basis) block is drawn thousands
    # of times, so each round's row pick is pinned at scale.
    "run_mirror_n3_long": ["run", "--attack", "random:5:8:0.8", "--n-max", "3",
                           "--loss", "0.5", "--hadamard-prob", "0.3",
                           "--rounds", "50000"],
    # The return-state lemma over random attacks, manifest included.
    "lemma": ["lemma", "--random", "20", "--delta", "0.01", "--probe-dim", "5",
              "--seed", "4"],
    # Sweeps with more attacks than probe sizes, so attacks share a stack.
    "sweep_stacked": ["sweep", "--count", "40", "--seed", "9"],
    "sweep_n3_stacked": ["sweep", "--count", "24", "--n-max", "3", "--strength", "0.8",
                         "--seed", "2"],
    # Identity attacks in stacks of three, and stacks of eight that the
    # stack budget splits 7 + 1 at probe size 8.
    "sweep_identity": ["sweep", "--count", "24", "--strength", "0", "--seed", "4"],
    "sweep_wide": ["sweep", "--count", "64", "--seed", "5"],
}

# Attack unitaries of dimension 120 and more (n_max 4 with an 8-level probe)
# differ in their last bits with OpenBLAS's thread count, so these reports
# are pinned for one BLAS thread, in a fresh interpreter started with it.
ONE_BLAS_THREAD = {
    # The benchmark's sweep-n4 shape: Bob's probe-wide split at n_max 4.
    "sweep_n4": ["sweep", "--n-max", "4", "--count", "8", "--seed", "3",
                 "--max-probe-dim", "8"],
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_bytes_match_golden(name, tmp_path, capsys):
    base = tmp_path / f"{name}.json"
    main(COMMANDS[name] + ["--format", "structured", "--out", str(base)])
    assert_golden(name, capsys.readouterr().out.encode(), base)


@pytest.mark.parametrize("name", sorted(ONE_BLAS_THREAD))
def test_report_bytes_match_golden_on_one_blas_thread(name, tmp_path):
    base = tmp_path / f"{name}.json"
    env = dict(os.environ, PYTHONPATH=str(SRC), **dict.fromkeys(THREAD_VARS, "1"))
    done = subprocess.run([sys.executable, "-m", "sqkdsim", *ONE_BLAS_THREAD[name],
                           "--format", "structured", "--out", str(base)],
                          capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert_golden(name, done.stdout, base)


def assert_golden(name, stdout: bytes, base: Path) -> None:
    """Stdout and the ``--out`` files equal the golden files of ``name``."""
    expected = (GOLDEN / f"{name}.json").read_bytes()
    assert stdout == expected
    assert base.read_bytes() == expected
    golden_csv = GOLDEN / f"{name}.csv"
    assert base.with_suffix(".csv").exists() == golden_csv.exists()
    if golden_csv.exists():
        assert base.with_suffix(".csv").read_bytes() == golden_csv.read_bytes()
