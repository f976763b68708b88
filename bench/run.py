"""Benchmark for sqkdsim: exact attack sweeps and sampled lossy runs.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-n2 --seed 1 --seconds 20 --trace 0

``--workload`` is ``sweep-n2``, ``sweep-n4``, ``run-lossy`` or ``all``.
``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` runs the traced pass and reports the per-layer metrics.  Every
measurement runs in a fresh worker process (``bench/worker.py``) with one
BLAS thread; this script only starts the workers and summarises what they
report.  ``bench/README.md`` describes the workloads and metrics.

Standard output ends with one JSON line holding ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 whenever that line is
printed, and 2 when the benchmark cannot run at all (no ``src/sqkdsim``
beside it, or a worker crashed or ran out of time).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("sweep-n2", "sweep-n4", "run-lossy")

SETUP_RUNS = 7
TIME_LIMIT_S = 170.0  # one invocation of one workload, all workers included
# One thread: on two shared cores, two BLAS threads made every workload
# slower and noisier.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env.update({var: threads for var in THREAD_VARS})
    return env


def run_worker(mode: str, workload: str, seed: int, seconds: float,
               workdir: Path, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    cmd = [sys.executable, str(WORKER), mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--workdir", str(workdir)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before the {mode} worker")
    try:
        proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited with "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path,
               deadline: float) -> tuple[dict, dict, list]:
    setups, raw_setups = [], []
    for _ in range(SETUP_RUNS):
        res = run_worker("setup", workload, seed, seconds, workdir, deadline)
        if res["rc"] != 0:
            raise BenchError(f"set-up command of {workload} exited with {res['rc']}")
        setups.append(res["setup_s"])
        raw_setups.append(res["raw_setup_s"])
    res = run_worker("measure", workload, seed, seconds, workdir, deadline)
    q1, median, q3 = quartiles(res["rates"])
    raw = quartiles(res["raw_rates"])
    cal = quartiles(res["calibration_s"])
    notes = [
        f"items_per_s: median of {len(res['rates'])} timed operations, "
        f"quartiles {q1:.6g} .. {q3:.6g}",
        f"unscaled wall-clock items/s: median {raw[1]:.6g}, "
        f"quartiles {raw[0]:.6g} .. {raw[2]:.6g}",
        f"calibration kernel: median {cal[1] * 1e3:.4g} ms, "
        f"quartiles {cal[0] * 1e3:.4g} .. {cal[2] * 1e3:.4g} ms",
        f"setup_s: median of {len(setups)} fresh interpreters, "
        f"range {min(setups):.6g} .. {max(setups):.6g}; unscaled median "
        f"{statistics.median(raw_setups):.6g} s",
        f"env: {json.dumps(res['env'], sort_keys=True)}",
    ]
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": median,
        "peak_rss_mb": res["peak_rss_mb"],
        "passed_ops_frac": 1.0 - res["failed"] / res["attempted"],
    }
    return values, res, notes


def per_layer(workload: str, seed: int, seconds: float, workdir: Path,
              deadline: float) -> tuple[dict, dict, list]:
    res = run_worker("trace", workload, seed, seconds, workdir, deadline)
    notes = [f"env: {json.dumps(res['env'], sort_keys=True)}"]
    return res["metrics"], res, notes


def measure(workload: str, seed: int, seconds: float, trace: bool,
            spec: dict) -> dict:
    declared = spec["per_layer" if trace else "end_to_end"]
    work_root = BENCH / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        collect = per_layer if trace else end_to_end
        values, res, notes = collect(workload, seed, seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload} did not report {', '.join(missing)}")
    for note in notes:
        print(f"[{workload}] {note}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"[{workload}] {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sqkdsim benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "sqkdsim" / "__init__.py").is_file():
            raise BenchError(f"no sqkdsim sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {name: measure(name, args.seed, seconds, bool(args.trace), spec)
                   for name in names}
    except (BenchError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
