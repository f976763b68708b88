"""The benchmark's own checks must pass on correct output and fail on wrong data.

Run with ``python3 -m pytest bench``.
"""

import copy
import json

import pytest

import checks
import worker

lib = worker.import_sqkdsim()


def sweep_records(workload: str, master: int) -> tuple[list, list]:
    spec = worker.SWEEPS[workload]
    report = lib.robustness_sweep(
        master_seed=master, count=spec["count"], strength=worker.STRENGTH,
        max_probe_dim=worker.MAX_PROBE_DIM, n_max=spec["n_max"])
    records = report.to_document()["records"]
    expected = checks.load_reference()["workloads"][workload]["chunks"][master]
    return records, expected


@pytest.fixture(scope="module")
def n2_chunk():
    return sweep_records("sweep-n2", 5)


def test_reference_matches_this_program(n2_chunk):
    records, expected = n2_chunk
    assert checks.sweep_failures(records, expected) == 0


@pytest.mark.parametrize("field, delta", [(1, 1e-6), (2, -1e-6)])
def test_wrong_reference_value_fails(n2_chunk, field, delta):
    records, expected = n2_chunk
    wrong = copy.deepcopy(expected)
    wrong[3][field] += delta
    assert checks.sweep_failures(records, wrong) == 1


def test_wrong_seed_or_missing_record_fails(n2_chunk):
    records, expected = n2_chunk
    wrong = copy.deepcopy(expected)
    wrong[0][0] += 1
    assert checks.sweep_failures(records, wrong) == 1
    assert checks.sweep_failures(records[:-1], expected) == len(expected)


def test_counterexample_fails(n2_chunk):
    records, expected = n2_chunk
    flagged = copy.deepcopy(records)
    flagged[2]["counterexample"] = True
    assert checks.sweep_failures(flagged, expected) == 1


def test_binomial_bound():
    assert checks.binomial_ok(250, 1000, 0.25)
    assert checks.binomial_ok(0, 1000, 0.0)
    assert not checks.binomial_ok(400, 1000, 0.25)
    assert not checks.binomial_ok(5, 1000, 0.0)
    assert not checks.binomial_ok(0, 0, 0.5)


@pytest.fixture(scope="module")
def lossy_run(tmp_path_factory):
    op = worker.RunOp(attack_seed=11, rng_seed=12, rounds=4000)
    out = tmp_path_factory.mktemp("run") / "run.json"
    rc, _ = worker.call_cli(lib, op.argv(), out)
    assert rc == 0
    return op, json.loads(out.read_text())


def test_lossy_run_passes_against_exact(lossy_run):
    op, doc = lossy_run
    assert checks.run_ok(doc, worker.exact_error_probs(lib, op), op.rounds)


def test_lossy_run_fails_against_wrong_exact(lossy_run):
    op, doc = lossy_run
    probs = worker.exact_error_probs(lib, op)
    probs["CTRL"] += 0.1
    assert not checks.run_ok(doc, probs, op.rounds)

