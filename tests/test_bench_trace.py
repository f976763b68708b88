"""The benchmark's traced pass runs against this checkout.

``bench/worker.py trace`` calls library entry points that no command runs,
``RoundEnumerator.branches`` and the ``enumerator=`` keywords among them,
so a change to ``src/`` could break the benchmark's trace while every
other test passes.  Each declared workload's trace runs here in a fresh
interpreter at one BLAS thread, as the benchmark runs it.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_trace_runs_every_operation(workload, tmp_path):
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "worker.py"), "trace",
                           "--workload", workload, "--workdir", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert result["metrics"]["protocol.branches"] > 0
