"""Reports pinned byte for byte across commits.

Each command's ``--format structured`` stdout and ``--out`` JSON (and CSV,
where the command writes one) must equal the files under ``tests/golden``.
Regenerate them only with a change that announces a report change, and
name each one::

    PYTHONPATH=src python3 tests/test_golden.py NAME...

which rewrites the named goldens with the argv the tests use, the reports
of ``ONE_BLAS_THREAD`` in the same one-BLAS-thread subprocess.  The
``THREADED`` sweeps are checked in that subprocess too, against their
goldens of ``COMMANDS``, and written only as those are.
"""
import contextlib
import csv
import io
import json
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
# Every sweep of COMMANDS, pinned also in that subprocess, where helper
# threads build a sweep's chunks, against its golden of COMMANDS.
THREADED = ("sweep", "sweep_identity", "sweep_n3", "sweep_n3_stacked", "sweep_stacked",
            "sweep_wide")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_bytes_match_golden(name, tmp_path, capsys):
    base = tmp_path / f"{name}.json"
    main(COMMANDS[name] + ["--format", "structured", "--out", str(base)])
    assert_golden(name, capsys.readouterr().out.encode(), base)


def _on_one_blas_thread(name: str, out: Path) -> subprocess.CompletedProcess:
    """Report ``name`` of ``ONE_BLAS_THREAD`` or ``THREADED`` written to
    ``out`` by a fresh interpreter started with one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **dict.fromkeys(THREAD_VARS, "1"))
    argv = ONE_BLAS_THREAD[name] if name in ONE_BLAS_THREAD else COMMANDS[name]
    return subprocess.run([sys.executable, "-m", "sqkdsim", *argv,
                           "--format", "structured", "--out", str(out)],
                          capture_output=True, env=env, timeout=120)


@pytest.mark.parametrize("name", sorted([*ONE_BLAS_THREAD, *THREADED]))
def test_report_bytes_match_golden_on_one_blas_thread(name, tmp_path):
    base = tmp_path / f"{name}.json"
    done = _on_one_blas_thread(name, base)
    assert done.returncode == 0, done.stderr
    assert_golden(name, done.stdout, base)


def assert_golden(name, stdout: bytes, base: Path) -> None:
    """Stdout and the ``--out`` files equal the golden files of ``name``; a
    mismatch names each differing JSON leaf, or CSV cell, with both values."""
    expected = (GOLDEN / f"{name}.json").read_bytes()
    for source, found in (("stdout", stdout), ("--out", base.read_bytes())):
        assert found == expected, _mismatch(f"{name}.json ({source})", found, expected,
                                            _json_leaves)
    golden_csv = GOLDEN / f"{name}.csv"
    assert base.with_suffix(".csv").exists() == golden_csv.exists()
    if golden_csv.exists():
        found, expected = base.with_suffix(".csv").read_bytes(), golden_csv.read_bytes()
        assert found == expected, _mismatch(f"{name}.csv", found, expected, _csv_cells)


def _mismatch(label: str, found: bytes, expected: bytes, leaves) -> str:
    """The failure message of one report: every leaf path whose value
    differs, with both values in document order, or a note that only the
    bytes around the values differ."""
    try:
        found, expected = ({path: repr(value) for path, value in leaves(data)}
                           for data in (found, expected))
    except ValueError as exc:
        return f"{label} does not parse: {exc}"
    lines = [f"  {path}: {found.get(path, 'absent')} (golden {expected.get(path, 'absent')})"
             for path in {**found, **expected} if found.get(path) != expected.get(path)]
    if not lines:
        return f"{label}: the same values, but the bytes differ"
    return "\n".join([f"{label} differs from the golden at {len(lines)} leaves:", *lines])


def _json_leaves(data: bytes):
    """``(path, value)`` of every leaf of a JSON document, in document order."""
    def walk(path, value):
        if isinstance(value, (dict, list)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            for key, item in items:
                yield from walk(f"{path}.{key}" if isinstance(value, dict)
                                else f"{path}[{key}]", item)
        else:
            yield path, value
    return walk("$", json.loads(data))


def _csv_cells(data: bytes):
    """``(row N column NAME, cell)`` of every cell of a CSV report, then each
    row's width and the row count."""
    header, *rows = csv.reader(io.StringIO(data.decode()))
    for number, row in enumerate(rows, 1):
        yield from ((f"row {number} column {column}", cell) for column, cell in zip(header, row))
        yield f"row {number} width", len(row)
    yield "rows", len(rows)


def regenerate(names) -> None:
    """Rewrite the goldens ``names`` as the tests produce them: the ``--out``
    files, checked to equal the structured stdout."""
    for name in names:
        out = GOLDEN / f"{name}.json"
        if name in ONE_BLAS_THREAD:
            done = _on_one_blas_thread(name, out)
            if done.returncode:
                raise SystemExit(f"{name}: {done.stderr.decode()}")
            stdout = done.stdout
        else:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                main(COMMANDS[name] + ["--format", "structured", "--out", str(out)])
            stdout = buffer.getvalue().encode()
        if stdout != out.read_bytes():
            raise SystemExit(f"{name}: the structured stdout differs from the --out file")
        print(f"rewrote {name}")


if __name__ == "__main__":
    names = sys.argv[1:]
    unknown = sorted(set(names) - set(COMMANDS) - set(ONE_BLAS_THREAD))
    if not names or unknown:
        raise SystemExit(f"usage: tests/test_golden.py NAME...; unknown: {unknown}; "
                         f"names: {' '.join(sorted([*COMMANDS, *ONE_BLAS_THREAD]))}")
    regenerate(names)
