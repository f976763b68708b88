"""Command-line front end.

Four subcommands: ``run`` samples a protocol run and reports statistics plus
the exact analyses for the chosen attack, ``sweep`` searches random attacks
for undetected leakage, ``lemma`` checks the single-photon-return lemma on
fixture or random inputs, and ``attack-demo`` contrasts the tagging attack
against the legacy and mirror variants.

Output is deterministic: no timestamps, sorted keys, floats via repr.  Runs
with identical manifests produce byte-identical files at one BLAS thread
count, not across counts: ``sweep --n-max 4 --count 8 --seed 3
--max-probe-dim 8`` differs between ``OPENBLAS_NUM_THREADS=1`` and ``2``.
With one BLAS thread a sweep builds its chunks' unitaries on every core
and evaluates them on the calling thread, and its bytes stay those of the
serial loop.

Exit codes: 0 success, 1 usage or input error (bad spec, malformed fixture,
an ``--out`` whose CSV table would overwrite its report), 2 argument parsing
error (argparse's own exit), 3 protocol run aborted by an error threshold,
4 a checked claim failed (counterexample found, lemma violated).

:func:`main` may be called repeatedly in one process (tests, benchmark loops,
library use); it builds its argument parser once, on the first call.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from functools import lru_cache
from math import isfinite
from pathlib import Path

import numpy as np

from .adversary import (Attack, _from_pairs, _json_field, _unique_keys,
                        identity_attack, load_attack, measure_resend_attack,
                        random_attack, tagging_attack)
from .fock import ContractViolation
from .protocol import (ProtocolConfig, RoundEnumerator, Variant,
                       eve_conditional_states, exact_statistics,
                       legacy_identification, run_protocol)
from .robustness import (LemmaInput, check_conditions, measurement_cross_check,
                         random_lemma_input, robustness_sweep, verify_lemma1)

__all__ = ["main", "build_attack"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_ABORTED = 3
EXIT_CLAIM_FAILED = 4

ATTACK_CHOICES = ("identity", "tagging", "measure-resend-computational",
                  "measure-resend-hadamard", "random:SEED[:PROBE[:STRENGTH]]",
                  "or a JSON fixture path")


def build_attack(spec: str, tag_dim: int | None, n_max: int) -> Attack:
    """Resolve an attack spec string; tag_dim None lets the attack decide."""
    if tag_dim is not None and tag_dim < 1:
        raise ValueError("--tag-dim must be at least 1")
    if spec == "identity":
        return identity_attack(tag_dim=tag_dim or 1, n_max=n_max)
    if spec == "tagging":
        if tag_dim not in (None, 2):
            raise ValueError("the tagging attack requires two tag levels")
        return tagging_attack(n_max=n_max)
    if spec in ("measure-resend-computational", "measure-resend-hadamard"):
        basis = spec.rsplit("-", 1)[1]
        return measure_resend_attack(basis, tag_dim=tag_dim or 1, n_max=n_max)
    if spec.startswith("random:"):
        parts = spec.split(":")[1:]
        if not 1 <= len(parts) <= 3:
            raise ValueError(f"malformed random attack spec {spec!r}")
        if tag_dim not in (None, 1):
            raise ValueError("random attacks are defined for a single tag level")
        values = []
        for part, name, kind in zip(parts, ("SEED", "PROBE", "STRENGTH"), (int, int, float)):
            try:
                values.append(kind(part))
            except ValueError:
                raise ValueError(f"malformed random attack spec {spec!r}: {name} {part!r} "
                                 f"is not {'an integer' if kind is int else 'a number'}") from None
        seed, probe_dim, strength = values + [4, 0.3][len(values) - 1:]
        return random_attack(seed, probe_dim=probe_dim, strength=strength, n_max=n_max)
    path = Path(spec)
    if path.suffix == ".json" or path.exists():
        attack = load_attack(path)
        if tag_dim is not None and attack.system.tag_dim != tag_dim:
            raise ValueError(
                f"fixture {spec} uses tag_dim={attack.system.tag_dim}, "
                f"but --tag-dim {tag_dim} was requested")
        if attack.system.n_max != n_max:
            raise ValueError(
                f"fixture {spec} uses n_max={attack.system.n_max}, "
                f"but --n-max {n_max} was requested")
        return attack
    raise ValueError(f"unknown attack {spec!r}; choices: {', '.join(ATTACK_CHOICES)}")


# -- output plumbing -----------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _report(args, doc: dict, tables: list, csv_rows: list | None = None) -> None:
    """Write ``doc`` as JSON to ``--out`` BASE and ``csv_rows``, if given, to
    BASE with its suffix replaced by ``.csv``; then print the JSON or the
    tables."""
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out is not None:
        base = Path(args.out)
        base.parent.mkdir(parents=True, exist_ok=True)
        base.write_text(text)
        if csv_rows is not None:
            with open(base.with_suffix(".csv"), "w", newline="") as fh:
                csv.writer(fh).writerows(csv_rows)
    if args.format == "structured":
        sys.stdout.write(text)
        return
    for title, rows in tables:
        print(title)
        width = max((len(k) for k, _ in rows), default=0)
        for key, value in rows:
            print(f"  {key:<{width}}  {_fmt(value)}")


# -- subcommands ---------------------------------------------------------------


def cmd_run(args) -> int:
    if args.cross_check and args.variant != Variant.MIRROR.value:
        raise ValueError("--cross-check checks Alice's mirror swaps: it needs --variant mirror")
    attack = build_attack(args.attack, args.tag_dim, args.n_max)
    config = ProtocolConfig(
        variant=Variant(args.variant),
        n_rounds=args.rounds,
        rng_seed=args.seed,
        tag_dim=attack.system.tag_dim,
        n_max=args.n_max,
        channel_loss=args.loss,
        bob_hadamard_prob=args.hadamard_prob,
        test_fraction=args.test_fraction,
        **{f"{rate}_error_threshold": args.error_threshold
           for rate in ("ctrl", "swap_x", "swap_all", "raw_key")},
    )
    enum = RoundEnumerator(config, attack)
    stats = run_protocol(config, attack, enum)

    analysis: dict = {}
    if config.variant is Variant.MIRROR:
        report = check_conditions(attack, config, enumerator=enum)
        conditions = asdict(report)
        if args.cross_check:  # Alice's swaps, checked on the lossless forward pass
            conditions["cross_check_deviation"] = measurement_cross_check(attack)
        conditionals = eve_conditional_states(attack, config, enum)
        analysis["conditions"] = dict(conditions, max_violation=report.max_violation)
        analysis["eavesdropper"] = {
            "p_shared": conditionals.p_shared,
            "trace_distance": conditionals.trace_distance,
        }
    else:
        ident = legacy_identification(attack, config, enum)
        analysis["identification"] = {
            "trace_distance": ident.trace_distance,
            "accuracy": ident.accuracy,
        }
    exact = exact_statistics(config, attack, enum)
    analysis["exact_error_probs"] = {op.value: p
                                     for op, p in exact.error_probs.items()}

    doc = {
        "manifest": {
            "command": "run",
            "attack_spec": args.attack,
            "attack": {
                "name": attack.name,
                "tag_dim": attack.system.tag_dim,
                "n_max": attack.system.n_max,
                "probe_dim": attack.system.probe_dim,
                "photon_preserving": attack.photon_preserving,
            },
            "config": config.to_document(),
        },
        "stats": stats.to_document(),
        "analysis": analysis,
    }
    csv_rows = [["operation", "outcome", "count"]] + [
        [op, label, n] for op, per_op in sorted(stats.counts.items())
        for label, n in sorted(per_op.items())]
    tables = [("run", [
        ("variant", config.variant.value),
        ("attack", attack.name),
        ("rounds", stats.n_rounds),
        ("ctrl error rate", stats.ctrl_error_rate),
        ("swap-x error rate", stats.swap_x_error_rate),
        ("swap-all error rate", stats.swap_all_error_rate),
        ("raw key error rate", stats.raw_key_error_rate),
        ("shared bits", stats.shared_bit_rounds),
        ("shared bit fraction", stats.shared_bit_fraction),
        ("raw key length", len(stats.raw_key_alice)),
        ("aborted", stats.aborted),
    ])]
    # Every analysis but the exact error probabilities is a table of its own.
    tables += [("detection conditions" if name == "conditions" else name,
                list(rows.items())) for name, rows in analysis.items()
               if name != "exact_error_probs"]
    _report(args, doc, tables, csv_rows)
    for reason in stats.abort_reasons:
        print(f"abort: {reason}", file=sys.stderr)
    return EXIT_ABORTED if stats.aborted else EXIT_OK


def _options(args) -> dict:
    return {k: v for k, v in vars(args).items()
            if k not in ("command", "func", "writes_csv", "out", "format")}


def cmd_sweep(args) -> int:
    options = _options(args)
    report = robustness_sweep(**options)
    doc = {
        "manifest": {"command": args.command, **options},
        "report": report.to_document(),
    }
    worst = max(report.records, key=lambda r: r.max_violation, default=None)
    _report(args, doc, [("sweep", [
        ("attacks", len(report.records)),
        ("counterexamples", report.n_counterexamples),
        ("worst quiet trace distance", report.worst_quiet_distance),
        ("largest violation", worst.max_violation if worst else None),
    ])], report.to_csv_rows())
    return EXIT_CLAIM_FAILED if report.n_counterexamples else EXIT_OK


def _probe_vectors(side: dict) -> dict:
    """Probe vectors by photon number, from keys written as plain decimals."""
    vectors = {int(m): _from_pairs(v, 1) for m, v in side.items()}
    if list(map(str, vectors)) != list(side):  # "01", "1_0", " 1" or a repeat
        raise ValueError(f"photon numbers must be plain decimals, got {list(side)}")
    return vectors


def _load_lemma_fixture(path: str) -> tuple[LemmaInput, bool]:
    try:
        doc = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
        f, g = _probe_vectors(doc.get("f", {})), _probe_vectors(doc.get("g", {}))
        h = _from_pairs(doc["h"], 1)
        n_max = _json_field(doc, "n_max", int, 2)
        claims_zero = _json_field(doc, "claims_p_minus_zero", bool, False)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"malformed lemma fixture {path}: f and g must map photon number "
            f"to a probe vector of [re, im] pairs, h is required ({exc})"
        ) from exc
    return LemmaInput(f=f, g=g, h=h, n_max=n_max), claims_zero


def cmd_lemma(args) -> int:
    tols = (args.delta, args.zero_tol, args.conclusion_tol)
    if (not all(isfinite(t) and t >= 0 for t in tols)
            or args.conclusion_tol < 2 * args.zero_tol):
        raise ValueError("--delta, --zero-tol and --conclusion-tol must be finite and "
                         "non-negative, and --conclusion-tol at least twice --zero-tol")
    if args.fixture is None and args.random is None:
        args.random = 100  # the default, set here so the manifest records it
    results = []
    failures = 0
    if args.fixture:
        spec_input, claims_zero = _load_lemma_fixture(args.fixture)
        verdict = verify_lemma1(spec_input, zero_tol=args.zero_tol,
                                conclusion_tol=args.conclusion_tol)
        claim_ok = (not claims_zero) or verdict.p_minus <= args.zero_tol
        failures += (not verdict.implication_holds) + (not claim_ok)
        results.append(dict(asdict(verdict), source=args.fixture,
                            claim_consistent=claim_ok))
    else:
        if args.random < 0 or args.seed < 0 or args.probe_dim < 1:
            raise ValueError("--random and --seed must be at least 0 and --probe-dim at least 1")
        rng = np.random.default_rng(args.seed)
        for i in range(args.random):
            spec_input = random_lemma_input(rng, probe_dim=args.probe_dim,
                                            delta=args.delta)
            verdict = verify_lemma1(spec_input, zero_tol=args.zero_tol,
                                    conclusion_tol=args.conclusion_tol)
            failures += not verdict.implication_holds
            results.append(dict(asdict(verdict), source=f"random[{i}]"))
    doc = {
        "manifest": {"command": args.command, **_options(args)},
        "results": results,
        "failures": failures,
    }
    _report(args, doc, [("lemma", [
        ("inputs checked", len(results)),
        ("implication failures", failures),
        ("max p_minus", max((r["p_minus"] for r in results), default=None)),
    ])])
    return EXIT_CLAIM_FAILED if failures else EXIT_OK


def cmd_attack_demo(args) -> int:
    attack = tagging_attack(n_max=args.n_max)
    mirror, legacy = (RoundEnumerator(ProtocolConfig(v, tag_dim=2, n_max=args.n_max), attack)
                      for v in (Variant.MIRROR, Variant.LEGACY))
    ident = legacy_identification(attack, legacy.config, legacy)
    legacy_stats = exact_statistics(legacy.config, attack, legacy)
    report = check_conditions(attack, mirror.config, enumerator=mirror)
    conditionals = eve_conditional_states(attack, mirror.config, mirror)
    doc = {
        "manifest": {"command": args.command, **_options(args)},
        "legacy": {
            "identification_accuracy": ident.accuracy,
            "trace_distance": ident.trace_distance,
            "error_probs": {op.value: p
                            for op, p in legacy_stats.error_probs.items()},
        },
        "mirror": {
            "max_violation": report.max_violation,
            "conditions": report.to_document(),
            "p_shared": conditionals.p_shared,
            "trace_distance": conditionals.trace_distance,
        },
    }
    _report(args, doc, [
        ("tagging vs legacy", [
            ("identification accuracy", ident.accuracy),
            ("max error probability",
             max(legacy_stats.error_probs.values(), default=0.0)),
        ]),
        ("tagging vs mirror", [
            ("max condition violation", report.max_violation),
            ("probe trace distance", conditionals.trace_distance),
        ]),
    ])
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="BASE",
                        help="write a JSON report to BASE; run and sweep also "
                             "write a CSV table to BASE with its suffix replaced "
                             "by .csv, so they refuse a BASE ending in .csv")
    parser.add_argument("--format", choices=("table", "structured"),
                        default="table", help="stdout format")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqkdsim",
        description="exact simulator for the mirror-based semiquantum "
                    "key distribution protocol")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="sample a protocol run")
    p_run.add_argument("--variant", choices=("mirror", "legacy"),
                       default="mirror")
    p_run.add_argument("--rounds", type=int, default=1000)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--attack", default="identity",
                       help=f"one of: {', '.join(ATTACK_CHOICES)}")
    p_run.add_argument("--tag-dim", type=int, default=None,
                       help="channel tag levels (default: attack's choice)")
    p_run.add_argument("--n-max", type=int, default=2,
                       help="photon budget: most photons the transmitted pair "
                            "holds in total, over both modes and all tags")
    p_run.add_argument("--loss", type=float, default=1.0, metavar="SURVIVAL",
                       help="photon survival probability per channel pass")
    p_run.add_argument("--hadamard-prob", type=float, default=0.5)
    p_run.add_argument("--test-fraction", type=float, default=0.1)
    p_run.add_argument("--error-threshold", type=float, default=0.05,
                       help="abort threshold applied to all error rates")
    p_run.add_argument("--cross-check", action="store_true",
                       help="also re-derive Alice's swap measurement branches by "
                            "projection on the lossless channel (mirror variant only)")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run, writes_csv=True)

    p_sweep = sub.add_parser("sweep", help="search random attacks for "
                                           "undetected leakage")
    p_sweep.add_argument("--seed", dest="master_seed", metavar="SEED", type=int,
                         default=0)
    p_sweep.add_argument("--count", type=int, default=100)
    p_sweep.add_argument("--strength", type=float, default=0.3)
    p_sweep.add_argument("--max-probe-dim", type=int, default=8)
    p_sweep.add_argument("--n-max", type=int, default=2)
    p_sweep.add_argument("--eps-error", type=float, default=1e-9)
    p_sweep.add_argument("--eps-info", type=float, default=1e-6)
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep, writes_csv=True)

    p_lemma = sub.add_parser("lemma", help="verify the single-photon-return "
                                           "lemma on given or random inputs")
    # No default of 100 for --random: argparse would let `--random 100` join --fixture.
    inputs = p_lemma.add_mutually_exclusive_group()
    inputs.add_argument("--fixture", help="JSON input file")
    inputs.add_argument("--random", type=int, metavar="COUNT", help="default 100")
    p_lemma.add_argument("--delta", type=float, default=0.0,
                         help="perturbation distance for random inputs")
    p_lemma.add_argument("--probe-dim", type=int, default=3)
    p_lemma.add_argument("--seed", type=int, default=0)
    p_lemma.add_argument("--zero-tol", type=float, default=1e-9)
    p_lemma.add_argument("--conclusion-tol", type=float, default=2e-9)
    _add_common(p_lemma)
    p_lemma.set_defaults(func=cmd_lemma)

    p_demo = sub.add_parser("attack-demo",
                            help="show the tagging attack breaking the legacy "
                                 "variant and failing against the mirror")
    p_demo.add_argument("--n-max", type=int, default=2)
    _add_common(p_demo)
    p_demo.set_defaults(func=cmd_attack_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if vars(args).get("writes_csv") and args.out and Path(args.out).suffix == ".csv":
            raise ValueError(f"--out {args.out}: the CSV table would overwrite "
                             "the JSON report; give BASE another suffix")
        return args.func(args)
    except (ValueError, ContractViolation, OSError, MemoryError) as exc:
        # Python's own MemoryError carries no text.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
