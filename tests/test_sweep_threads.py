"""A sweep's chunks give the same records on any number of helper threads.

The sweep hands its chunks to ``robustness._run_chunks`` as two stages, a
build and an evaluation.  Where BLAS is pinned to one thread, helper
threads share the builds with the calling thread, which alone evaluates.
Records are made in chunk order once every chunk is done, so they must
equal, with ``==``, the records of the serial loop; a failing chunk, in
either stage, raises what the serial loop raises, and no helper outlives
the call.  No test here starts more than four threads.
"""
import faulthandler
import os
import sys
import threading
import time

import pytest

from sqkdsim import robustness
from sqkdsim.robustness import _blas_pinned, _run_chunks, robustness_sweep


@pytest.fixture(autouse=True)
def _no_hang(capfd):
    """A deadlocked runner ends the run after a minute, with every thread's
    stack on the terminal's stderr (not the captured one), rather than
    stalling it."""
    with capfd.disabled():
        stderr = os.dup(sys.stderr.fileno())
    faulthandler.dump_traceback_later(60, exit=True, file=stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
    os.close(stderr)


def _with_helpers(monkeypatch, helpers):
    """Make every sweep run its chunks with ``helpers`` helper threads."""
    monkeypatch.setattr(robustness, "_run_chunks", lambda build, evaluate, weights, _:
                        _run_chunks(build, evaluate, weights, helpers))


@pytest.mark.parametrize("budget", ["default", 1])
@pytest.mark.parametrize("n_max", [2, 3])
def test_sweep_records_do_not_depend_on_helpers(n_max, budget, monkeypatch):
    if budget != "default":
        monkeypatch.setattr(robustness, "_STACK_BUDGET", budget)
    found = []
    for helpers in (0, 1, 3):
        _with_helpers(monkeypatch, helpers)
        found.append(robustness_sweep(master_seed=5, count=20, n_max=n_max,
                                      max_probe_dim=4).records)
    assert found[0] == found[1] == found[2]


@pytest.mark.parametrize("helpers", [0, 1, 3])
def test_sweep_raises_the_first_failing_chunk_in_serial_order(helpers, monkeypatch):
    """Probe size 4's chunk is heavier, so taken first, but size 2's comes
    first in serial order: its error is the one raised."""
    _with_helpers(monkeypatch, helpers)
    evaluate = robustness._evaluate

    def failing(config, system, unitaries, probes):
        if system.probe_dim in (2, 4):
            raise ValueError(f"chunk of probe size {system.probe_dim}")
        return evaluate(config, system, unitaries, probes)

    monkeypatch.setattr(robustness, "_evaluate", failing)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="^chunk of probe size 2$"):
        robustness_sweep(count=16, max_probe_dim=8)
    assert threading.active_count() == threads


@pytest.mark.parametrize("helpers", [0, 1, 3])
@pytest.mark.parametrize("build_fails, evaluation_fails", [(4, 2), (2, 4)])
def test_the_first_failing_chunk_wins_across_stages(helpers, build_fails, evaluation_fails,
                                                    monkeypatch):
    """One chunk's build and another's evaluation fail: the error of the
    chunk first in serial order is raised, whichever stage it failed in."""
    _with_helpers(monkeypatch, helpers)
    random_attacks, evaluate = robustness._random_attacks, robustness._evaluate

    def failing_build(seeds, system, strength):
        if system.probe_dim == build_fails:
            raise ValueError(f"build of probe size {build_fails}")
        return random_attacks(seeds, system, strength)

    def failing_evaluation(config, system, unitaries, probes):
        if system.probe_dim == evaluation_fails:
            raise ValueError(f"evaluation of probe size {evaluation_fails}")
        return evaluate(config, system, unitaries, probes)

    monkeypatch.setattr(robustness, "_random_attacks", failing_build)
    monkeypatch.setattr(robustness, "_evaluate", failing_evaluation)
    first = "build" if build_fails < evaluation_fails else "evaluation"
    threads = threading.active_count()
    with pytest.raises(ValueError, match=f"^{first} of probe size 2$"):
        robustness_sweep(count=16, max_probe_dim=8)
    assert threading.active_count() == threads


@pytest.mark.parametrize("helpers", [1, 3])
def test_only_the_calling_thread_evaluates(helpers, monkeypatch):
    _with_helpers(monkeypatch, helpers)
    evaluate, threads = robustness._evaluate, set()

    def recorded(config, system, unitaries, probes):
        threads.add(threading.current_thread())
        return evaluate(config, system, unitaries, probes)

    monkeypatch.setattr(robustness, "_evaluate", recorded)
    robustness_sweep(count=16, max_probe_dim=8)
    assert threads == {threading.current_thread()}


@pytest.mark.parametrize("helpers", [0, 1, 3])
def test_no_helper_outlives_a_sweep(helpers, monkeypatch):
    _with_helpers(monkeypatch, helpers)
    threads = threading.active_count()
    robustness_sweep(count=16, max_probe_dim=8)
    assert threading.active_count() == threads


def test_no_chunk_after_a_failing_one_starts():
    """Serially, in index order (the weights fall), chunks 2.. never start."""
    started = []

    def build(i):
        started.append(i)
        if i in (1, 3):
            raise KeyError(i)
        return i

    with pytest.raises(KeyError, match="1"):
        _run_chunks(build, lambda i, built: built, [6, 5, 4, 3, 2, 1], 0)
    assert started == [0, 1]


@pytest.mark.parametrize("helpers", [1, 3])
def test_a_failing_chunk_stops_the_helpers(helpers):
    started = []

    def build(i):
        started.append(i)
        if i == 1:
            raise KeyError(i)
        time.sleep(0.05)

    threads = threading.active_count()
    with pytest.raises(KeyError, match="1"):
        _run_chunks(build, lambda i, built: built, list(range(20, 0, -1)), helpers)
    assert threading.active_count() == threads
    assert len(started) < 20


@pytest.mark.parametrize("helpers", [1, 3])
def test_a_failure_read_after_the_first_one_is_not_raised(helpers):
    """Chunk 0 fails at once; the chunks taken before that is read fail
    later, and chunk 0's error is still the one raised."""
    def build(i):
        if i:
            time.sleep(0.05)
        raise KeyError(i)

    with pytest.raises(KeyError, match="0"):
        _run_chunks(build, lambda i, built: built, [1, 2, 9], helpers)


def test_an_interrupt_stops_the_helpers():
    """The caller's interrupt propagates once its helper has stopped."""
    started = []

    def build(i):
        started.append(i)
        if threading.current_thread() is threading.main_thread():
            raise KeyboardInterrupt
        time.sleep(0.05)

    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        _run_chunks(build, lambda i, built: built, [1] * 20, 1)
    assert threading.active_count() == threads
    assert len(started) < 20


def test_an_interrupt_while_the_helpers_wait_for_room_stops_them():
    """Builds are instant, so the helper fills the backlog and waits while
    the caller evaluates; the caller's interrupt must still wake it."""
    def evaluate(i, built):
        time.sleep(0.05)
        raise KeyboardInterrupt

    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        _run_chunks(lambda i: i, evaluate, [1] * 20, 1)
    assert threading.active_count() == threads


def test_results_are_in_chunk_order():
    """Each evaluation also gets its own chunk's build."""
    assert _run_chunks(lambda i: i, lambda i, built: i * built, [1, 9, 3, 9, 2], 3) == [
        0, 1, 4, 9, 16]


def test_every_chunk_runs_once_under_contention():
    """More threads than cores, switching as often as the interpreter can:
    a lost update of the shared queue would run a chunk twice or never."""
    built, ran = [], []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            built.clear()
            ran.clear()
            results = _run_chunks(lambda i: built.append(i) or -i,
                                  lambda i, item: ran.append(i) or item,
                                  [i % 7 for i in range(300)], 3)
            assert sorted(built) == sorted(ran) == list(range(300))
            assert results == [-i for i in range(300)]
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.parametrize("helpers", [1, 3])
def test_the_backlog_of_built_chunks_is_bounded(helpers):
    """Builds are instant and evaluations slow, so the builds would all run
    ahead without the bound: the chunks built or in build and waiting never
    exceed ``_BACKLOG`` per thread, beside the one in evaluation."""
    lock, held, most = threading.Lock(), [0], [0]

    def build(i):
        with lock:
            held[0] += 1
            most[0] = max(most[0], held[0])

    def evaluate(i, built):
        time.sleep(0.002)
        with lock:
            held[0] -= 1

    _run_chunks(build, evaluate, [1] * 60, helpers)
    assert held == [0]
    assert most[0] <= robustness._BACKLOG * (helpers + 1) + 1


@pytest.mark.parametrize("environ, pinned", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "2"}, False),
    ({"OMP_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "2"}, False),
    # OpenBLAS's own variable takes precedence over OpenMP's.
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
])
def test_blas_pinned_rule(environ, pinned):
    assert _blas_pinned(environ) is pinned


@pytest.mark.parametrize("blas, count, helpers", [
    ("1", 16, 1),  # two cores, eight chunks
    ("1", 1, 0),  # one chunk
    ("1", 0, 0),  # no chunks
    ("2", 16, 0),  # BLAS may use the cores itself
])
def test_sweep_starts_helpers_only_with_blas_pinned(blas, count, helpers, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
    monkeypatch.setattr(robustness, "_cores", lambda: 2)
    asked = []

    def spy(build, evaluate, weights, n):
        asked.append(n)
        return _run_chunks(build, evaluate, weights, 0)

    monkeypatch.setattr(robustness, "_run_chunks", spy)
    robustness_sweep(count=count, max_probe_dim=8)
    assert asked == [helpers]
