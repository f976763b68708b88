"""Run one benchmark workload inside a fresh interpreter.

``bench/run.py`` starts this script once per measurement; run that instead.
Modes:

``setup``
    Time ``import sqkdsim`` plus the workload's command at its smallest size
    (a 1-attack sweep or a 1-round run).  The interpreter is fresh, so the
    lazily filled caches start empty and their cost lands here.
``measure``
    Warm up with one operation, then call the workload's command through
    ``sqkdsim.cli.main`` in a loop for SECONDS, timing each call and checking
    each output.  Reports per-operation times and this process's peak RSS.
``trace``
    Run a fixed number of operations twice: once through ``cli.main``,
    untraced, and once as the public library calls that command is made of,
    with a span around each call.  Reports per-layer metrics.
``reference``
    Recompute the sweep reference values and write ``reference.json``.  Run
    it only when the reference pool itself changes (``python3
    bench/worker.py reference``); regenerating it to make a failing check
    pass defeats the check.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

STRENGTH = 0.3
MAX_PROBE_DIM = 8  # probe sizes cycle 1..8, as in acceptance criterion 7

# sweep-n2 and sweep-n4: one operation is one sweep command of COUNT attacks
# (whole probe-size cycles, so every chunk has the same cost mix), drawn
# from a pool of POOL recorded master seeds.
SWEEPS = {
    "sweep-n2": {"n_max": 2, "count": 16, "pool": 64, "trace_chunks": 8},
    "sweep-n4": {"n_max": 4, "count": 8, "pool": 32, "trace_chunks": 13},
}
# run-lossy: one operation is one run command.
RUN_ROUNDS = 30_000
RUN_PROBE_DIM = 4
RUN_N_MAX = 2
RUN_LOSS = 0.9
RUN_TRACE_OPS = 3

# Time calibration_s() takes on an idle machine (shared 2-core x86-64 VM,
# Python 3.11, numpy 2.4 with scipy-openblas, one thread).  It only sets the
# scale of items_per_s; any fixed value would rank commits the same way.
CAL_REF_S = 0.007

WORKLOADS = (*SWEEPS, "run-lossy")


def import_sqkdsim():
    """Import the package from this checkout's ``src``, never an installed copy."""
    if not (SRC / "sqkdsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no sqkdsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sqkdsim
    import sqkdsim.cli
    if Path(sqkdsim.__file__).resolve().parent != SRC / "sqkdsim":
        raise SystemExit(f"error: imported sqkdsim from {sqkdsim.__file__}")
    return sqkdsim


# -- operations ----------------------------------------------------------------


@dataclass(frozen=True)
class SweepOp:
    master: int
    n_max: int
    count: int
    expected: list  # [[seed, max_violation, trace_distance], ...]

    @property
    def items(self) -> int:
        return self.count

    def argv(self, count: int | None = None) -> list:
        return ["sweep", "--seed", str(self.master),
                "--count", str(self.count if count is None else count),
                "--strength", repr(STRENGTH),
                "--max-probe-dim", str(MAX_PROBE_DIM),
                "--n-max", str(self.n_max)]


@dataclass(frozen=True)
class RunOp:
    attack_seed: int
    rng_seed: int
    rounds: int

    @property
    def items(self) -> int:
        return self.rounds

    @property
    def attack_spec(self) -> str:
        return f"random:{self.attack_seed}:{RUN_PROBE_DIM}"

    def argv(self, rounds: int | None = None) -> list:
        return ["run", "--variant", "mirror",
                "--rounds", str(self.rounds if rounds is None else rounds),
                "--seed", str(self.rng_seed),
                "--attack", self.attack_spec,
                "--n-max", str(RUN_N_MAX),
                "--loss", repr(RUN_LOSS),
                "--error-threshold", "1"]  # rates never exceed 1: no abort

    def config(self, lib):
        return lib.ProtocolConfig(
            variant=lib.Variant.MIRROR, n_rounds=self.rounds,
            rng_seed=self.rng_seed, n_max=RUN_N_MAX, channel_loss=RUN_LOSS,
            ctrl_error_threshold=1.0, swap_x_error_threshold=1.0,
            swap_all_error_threshold=1.0, raw_key_error_threshold=1.0)

    def attack(self, lib):
        return lib.random_attack(self.attack_seed, probe_dim=RUN_PROBE_DIM,
                                 strength=STRENGTH, n_max=RUN_N_MAX)


def operations(workload: str, seed: int, reference: dict):
    """Endless, seed-determined stream of the workload's operations."""
    if workload in SWEEPS:
        spec = SWEEPS[workload]
        chunks = reference["workloads"][workload]["chunks"]
        k = seed * 17
        while True:
            master = k % len(chunks)
            yield SweepOp(master, spec["n_max"], spec["count"], chunks[master])
            k += 1
    rng = random.Random(f"run-lossy:{seed}")
    while True:
        yield RunOp(rng.randrange(2**31), rng.randrange(2**31), RUN_ROUNDS)


def call_cli(lib, argv: list, out: Path) -> tuple[int, float]:
    """Time one ``sqkdsim`` command; its table output is discarded."""
    out.unlink(missing_ok=True)
    argv = argv + ["--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = lib.cli.main(argv)
        elapsed = time.perf_counter() - t0
    return rc, elapsed


def check_cli_output(lib, op, rc: int, out: Path) -> int:
    """Number of the operation's items that failed (attacks, or the run)."""
    if isinstance(op, SweepOp):
        if not out.is_file():
            return op.count
        records = json.loads(out.read_text())["report"]["records"]
        return checks.sweep_failures(records, op.expected) or int(rc != 0) * op.count
    if rc != 0 or not out.is_file():
        return 1
    return int(not checks.run_ok(json.loads(out.read_text()),
                                 exact_error_probs(lib, op), op.rounds))


def exact_error_probs(lib, op: RunOp) -> dict:
    exact = lib.exact_statistics(op.config(lib), op.attack(lib))
    return {o.value: p for o, p in exact.error_probs.items()}


def units(op) -> int:
    """What ``attempted`` counts for an operation: its attacks, or one run."""
    return op.count if isinstance(op, SweepOp) else 1


# -- modes -------------------------------------------------------------------


def mode_setup(workload: str, seed: int, workdir: Path) -> dict:
    op = next(operations(workload, seed, checks.load_reference()))
    argv = op.argv(1) + ["--out", str(workdir / f"setup-{os.getpid()}.json")]
    t0 = time.perf_counter()
    lib = import_sqkdsim()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = lib.cli.main(argv)
    setup_s = time.perf_counter() - t0
    cal = (calibration_s() + calibration_s()) / 2
    return {"setup_s": setup_s * CAL_REF_S / cal, "raw_setup_s": setup_s,
            "rc": rc}


def mode_measure(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    lib = import_sqkdsim()
    out = workdir / f"measure-{os.getpid()}.json"
    ops = operations(workload, seed, checks.load_reference())
    attempted = failed = 0

    warm = next(ops)  # fills lazy caches for every probe size; untimed
    rc, _ = call_cli(lib, warm.argv(), out)
    attempted += units(warm)
    failed += check_cli_output(lib, warm, rc, out)

    times, items, cal = [], [], [calibration_s()]
    start = time.perf_counter()
    while len(times) < 3 or time.perf_counter() - start < seconds:
        op = next(ops)
        gc.collect()  # every operation starts from a collected heap
        rc, elapsed = call_cli(lib, op.argv(), out)
        cal.append(calibration_s())
        times.append(elapsed)
        items.append(op.items)
        attempted += units(op)
        failed += check_cli_output(lib, op, rc, out)
    out.unlink(missing_ok=True)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = [n / t for n, t in zip(items, times)]
    # Scale each rate to the machine speed at which the kernel takes
    # CAL_REF_S, using the kernel runs just before and after the operation.
    rates = [r * (cal[i] + cal[i + 1]) / (2 * CAL_REF_S)
             for i, r in enumerate(raw)]
    return {"rates": rates, "raw_rates": raw, "calibration_s": cal,
            "attempted": attempted,
            "failed": failed, "peak_rss_mb": peak_kib / 1024.0,
            "env": environment()}


def calibration_s() -> float:
    """Wall time of a fixed kernel that shares the workloads' instruction mix.

    Interpreter work on tuples and dicts, fresh numpy generators (as the
    sampler makes per round) and small complex matrix products (as the
    enumerator makes).  Nothing in it touches sqkdsim, so its time tracks
    how fast the shared machine is running at that moment, not the program.
    """
    import numpy as np
    m = np.full((48, 48), 1 / 48, dtype=np.complex128)
    t0 = time.perf_counter()
    table = {}
    for i in range(20_000):
        key = (i & 63, i & 7)
        table[key] = table.get(key, 0) + i
    for seed in range(150):
        np.random.default_rng(seed).random()
    a = m
    for _ in range(100):
        a = a @ m
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Tracer:
    """Span durations and counts, kept in memory until the run ends.

    A span is (layer, owner, seconds); the owner numbers the attack or run
    the call worked for, so per-attack times can be summed.
    """

    def __init__(self):
        self.spans: list[tuple[str, int, float]] = []
        self.counts: dict[str, int] = {}

    @contextlib.contextmanager
    def span(self, name: str, owner: int):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, owner, time.perf_counter() - t0))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def total(self, name: str) -> float:
        return sum(s for n, _, s in self.spans if n == name)

    def owner_total(self, owner: int, names) -> float:
        return sum(s for n, o, s in self.spans if o == owner and n in names)


# Spans that together make up what the command itself does, per workload.
# On run-lossy the benchmark's own enumerator (protocol.enumerate) repeats
# work the command does inside sample, exact, eve and conditions, so it is
# reported but left out of the account.
SWEEP_LAYERS = ("adversary.build", "adversary.lift", "protocol.enumerate",
                "robustness.conditions", "protocol.eve")
RUN_LAYERS = ("adversary.build", "adversary.lift", "protocol.sample",
              "protocol.aggregate", "protocol.exact", "protocol.eve",
              "robustness.conditions")


def lift(tracer: Tracer, attack, system, owner: int) -> None:
    """Lift both directions ahead of enumeration, if attacks still lift."""
    lifted = getattr(attack, "lifted", None)
    if lifted is None:
        return
    with tracer.span("adversary.lift", owner):
        lifted(system, backward=False)
        lifted(system, backward=True)
    tracer.count("adversary.lift_calls", 2)


def enumerate_tables(tracer: Tracer, enum, tables, owner: int) -> None:
    with tracer.span("protocol.enumerate", owner):
        n = sum(len(enum.branches(op, basis)) for op, basis in tables)
    tracer.count("protocol.branches", n)
    tracer.counts["protocol.working_dim_max"] = max(
        tracer.counts.get("protocol.working_dim_max", 0), enum.system.dim)


def trace_sweep_chunk(lib, tracer: Tracer, op: SweepOp, first_owner: int) -> int:
    """The sweep command's public calls for each attack; returns failures."""
    config = lib.ProtocolConfig(variant=lib.Variant.MIRROR, n_max=op.n_max)
    tables = ((lib.AliceOp.CTRL, lib.Basis.HADAMARD),
              (lib.AliceOp.SWAP_10, lib.Basis.COMPUTATIONAL),
              (lib.AliceOp.SWAP_01, lib.Basis.COMPUTATIONAL),
              (lib.AliceOp.SWAP_ALL, lib.Basis.COMPUTATIONAL))
    records = []
    for i, (seed, _, _) in enumerate(op.expected):
        owner = first_owner + i
        with tracer.span("adversary.build", owner):
            attack = lib.random_attack(seed, probe_dim=i % MAX_PROBE_DIM + 1,
                                       strength=STRENGTH, n_max=op.n_max)
        tracer.count("adversary.build_calls")
        with tracer.span("protocol.enumerate", owner):
            enum = lib.RoundEnumerator(config, attack)
        lift(tracer, attack, enum.system, owner)
        enumerate_tables(tracer, enum, tables, owner)
        with tracer.span("robustness.conditions", owner):
            report = lib.check_conditions(attack, config, enumerator=enum)
        with tracer.span("protocol.eve", owner):
            cond = lib.eve_conditional_states(attack, config, enumerator=enum)
        tracer.count("robustness.attacks")
        tracer.count("robustness.quiet_attacks",
                     int(report.max_violation < checks.EPS_ERROR))
        records.append({
            "seed": seed,
            "max_violation": report.max_violation,
            "trace_distance": cond.trace_distance,
            "counterexample": checks.is_counterexample(report.max_violation,
                                                       cond.trace_distance),
        })
    return checks.sweep_failures(records, op.expected)


def trace_run(lib, tracer: Tracer, op: RunOp, owner: int) -> int:
    """The run command's public calls; returns 1 if the run fails its check."""
    config = op.config(lib)
    with tracer.span("adversary.build", owner):
        attack = op.attack(lib)
    tracer.count("adversary.build_calls")
    with tracer.span("protocol.enumerate", owner):
        enum = lib.RoundEnumerator(config, attack)
    lift(tracer, attack, enum.system, owner)
    tables = [(o, b) for o in config.variant.operations for b in lib.Basis]
    enumerate_tables(tracer, enum, tables, owner)

    simulate = getattr(lib.protocol, "simulate_records", None)
    if simulate is not None:
        with tracer.span("protocol.sample", owner):
            records = simulate(config, attack)
        tracer.count("protocol.rounds", len(records))
        del records
    sample_s = tracer.owner_total(owner, ("protocol.sample",))
    t0 = time.perf_counter()
    stats = lib.run_protocol(config, attack)
    # run_protocol samples again inside; aggregation is the rest of it
    tracer.spans.append(("protocol.aggregate", owner,
                         time.perf_counter() - t0 - sample_s))
    with tracer.span("protocol.exact", owner):
        exact = lib.exact_statistics(config, attack)
    with tracer.span("protocol.eve", owner):
        lib.eve_conditional_states(attack)
    with tracer.span("robustness.conditions", owner):
        report = lib.check_conditions(attack)
    tracer.count("robustness.attacks")
    tracer.count("robustness.quiet_attacks",
                 int(report.max_violation < checks.EPS_ERROR))
    probs = {o.value: p for o, p in exact.error_probs.items()}
    doc = {"stats": stats.to_document(),
           "analysis": {"exact_error_probs": probs}}
    return int(not checks.run_ok(doc, probs, op.rounds))


def traced_pass(lib, tracer: Tracer, op, owner: int) -> tuple[int, float]:
    """One operation as traced library calls: (failures, wall seconds)."""
    t0 = time.perf_counter()
    if isinstance(op, SweepOp):
        failures = trace_sweep_chunk(lib, tracer, op, owner)
    else:
        failures = trace_run(lib, tracer, op, owner)
    return failures, time.perf_counter() - t0


def mode_trace(workload: str, seed: int, workdir: Path) -> dict:
    lib = import_sqkdsim()
    out = workdir / f"trace-{os.getpid()}.json"
    ops = operations(workload, seed, checks.load_reference())
    is_sweep = workload in SWEEPS
    n_ops = SWEEPS[workload]["trace_chunks"] if is_sweep else RUN_TRACE_OPS
    layers = SWEEP_LAYERS if is_sweep else RUN_LAYERS

    warm = next(ops)
    rc, _ = call_cli(lib, warm.argv(), out)
    attempted, failed = units(warm), check_cli_output(lib, warm, rc, out)

    tracer = Tracer()
    untraced = traced = cli_self = 0.0
    attack_ms = []
    owner = 0
    for i in range(n_ops):
        op = next(ops)
        owners = range(owner, owner + units(op))
        # Whichever pass meets an operation first runs about 10% slower on
        # sweep-n4 (fresh allocations); alternating the order cancels that.
        if i % 2:
            lib_failed, seconds = traced_pass(lib, tracer, op, owner)
        rc, elapsed = call_cli(lib, op.argv(), out)
        if not i % 2:
            lib_failed, seconds = traced_pass(lib, tracer, op, owner)
        cli_failed = check_cli_output(lib, op, rc, out)
        traced += seconds
        untraced += elapsed
        library = sum(tracer.owner_total(o, layers) for o in owners)
        cli_self += elapsed - library
        if is_sweep:
            attack_ms += [1e3 * tracer.owner_total(o, layers) for o in owners]
        owner = owners[-1] + 1
        attempted += units(op)
        failed += max(cli_failed, lib_failed)
    out.unlink(missing_ok=True)

    metrics = {
        "adversary.build_s": tracer.total("adversary.build"),
        "adversary.lift_s": tracer.total("adversary.lift"),
        "protocol.enumerate_s": tracer.total("protocol.enumerate"),
        "protocol.sample_s": tracer.total("protocol.sample"),
        "protocol.aggregate_s": tracer.total("protocol.aggregate"),
        "protocol.exact_s": tracer.total("protocol.exact"),
        "protocol.eve_s": tracer.total("protocol.eve"),
        "robustness.conditions_s": tracer.total("robustness.conditions"),
        "robustness.attack_ms_p50": statistics.median(attack_ms) if attack_ms else 0.0,
        "robustness.attack_ms_p90": (statistics.quantiles(attack_ms, n=10)[8]
                                     if len(attack_ms) >= 2 else 0.0),
        "cli.self_s": cli_self,
        "trace.untraced_s": untraced,
        "trace.traced_s": traced,
        "trace.overhead_s": traced - untraced,
    }
    for name in ("adversary.build_calls", "adversary.lift_calls",
                 "protocol.branches", "protocol.working_dim_max",
                 "protocol.rounds", "robustness.attacks",
                 "robustness.quiet_attacks"):
        metrics[name] = tracer.counts.get(name, 0)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "env": environment()}


def mode_reference() -> dict:
    lib = import_sqkdsim()
    doc = {"strength": STRENGTH, "max_probe_dim": MAX_PROBE_DIM,
           "eps_error": checks.EPS_ERROR, "eps_info": checks.EPS_INFO,
           "workloads": {}}
    for name, spec in SWEEPS.items():
        chunks = []
        for master in range(spec["pool"]):
            report = lib.robustness_sweep(
                master_seed=master, count=spec["count"], strength=STRENGTH,
                max_probe_dim=MAX_PROBE_DIM, n_max=spec["n_max"],
                eps_error=checks.EPS_ERROR, eps_info=checks.EPS_INFO)
            chunks.append([[r.seed, r.max_violation, r.trace_distance]
                           for r in report.records])
        doc["workloads"][name] = {"n_max": spec["n_max"],
                                  "count": spec["count"], "chunks": chunks}
    # One chunk per line keeps the file readable and its diffs small.
    lines = []
    for name, entry in doc["workloads"].items():
        body = ",\n".join("    " + json.dumps(c) for c in entry["chunks"])
        lines.append(f'  "{name}": {{"n_max": {entry["n_max"]}, '
                     f'"count": {entry["count"]}, "chunks": [\n{body}\n  ]}}')
    head = {k: v for k, v in doc.items() if k != "workloads"}
    text = (json.dumps(head)[:-1] + ', "workloads": {\n'
            + ",\n".join(lines) + "\n}}\n")
    if json.loads(text) != json.loads(json.dumps(doc)):
        raise RuntimeError("reference writer lost data")
    checks.REFERENCE_PATH.write_text(text)
    return {"written": str(checks.REFERENCE_PATH),
            "attacks": sum(len(c) for w in doc["workloads"].values()
                           for c in w["chunks"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace", "reference"))
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "reference":
        result = mode_reference()
    elif args.workload is None or args.workdir is None:
        parser.error(f"{args.mode} needs --workload and --workdir")
    elif args.mode == "setup":
        result = mode_setup(args.workload, args.seed, args.workdir)
    elif args.mode == "measure":
        result = mode_measure(args.workload, args.seed, args.seconds, args.workdir)
    else:
        result = mode_trace(args.workload, args.seed, args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
