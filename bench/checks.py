"""Correctness checks the benchmark applies to every operation it times.

Sweeps are checked against reference values recorded in ``reference.json``
(see ``make_reference.py``).  Those values are exact functions of the attack
seeds, so a change that only makes the program faster keeps them.  Protocol
runs are sampled, so each sampled error rate is checked against the exact
error probability within a binomial bound instead of byte for byte.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Reference values are exact; this only absorbs a change of summation order.
SWEEP_ATOL = 1e-9
# Default sweep thresholds of the command line, which decide "counterexample".
EPS_ERROR = 1e-9
EPS_INFO = 1e-6
# Standard deviations a sampled rate may sit from its exact probability.  At
# 6 sigma a correct program fails one check in about 10^9.
BINOMIAL_Z = 6.0


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(Path(path).read_text())


def _close(value, expected) -> bool:
    if value is None or expected is None:
        return value is None and expected is None
    return abs(value - expected) <= SWEEP_ATOL


def is_counterexample(max_violation: float, trace_distance) -> bool:
    return (max_violation < EPS_ERROR and trace_distance is not None
            and trace_distance > EPS_INFO)


def sweep_failures(records: list, expected: list) -> int:
    """Number of sweep records that fail their check.

    ``records`` are dicts with the sweep report's ``seed``,
    ``max_violation``, ``trace_distance`` and ``counterexample`` keys;
    ``expected`` holds one ``[seed, max_violation, trace_distance]`` entry
    per record.  A record fails if it is a counterexample or if it differs
    from its reference.  A missing or extra record fails the whole chunk.
    """
    if len(records) != len(expected):
        return max(len(records), len(expected))
    failed = 0
    for rec, (seed, max_violation, trace_distance) in zip(records, expected):
        ok = (rec["seed"] == seed
              and not rec["counterexample"]
              and _close(rec["max_violation"], max_violation)
              and _close(rec["trace_distance"], trace_distance))
        failed += not ok
    return failed


def binomial_ok(events: int, trials: int, p: float) -> bool:
    """Whether ``events`` out of ``trials`` is consistent with probability p."""
    if trials <= 0:
        return False
    sigma = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return abs(events / trials - p) <= BINOMIAL_Z * sigma + 1.0 / trials


def run_ok(doc: dict, exact_error_probs: dict, rounds: int) -> bool:
    """Check one ``sqkdsim run`` report against exact error probabilities.

    ``exact_error_probs`` maps each operation name (``"CTRL"``,
    ``"SWAP-10"``, ...) to its exact per-round error probability.  The run
    must not abort, must account for every round, must play every
    operation, and each operation's sampled error rate must sit within the
    binomial bound of its exact probability.  The report's own exact
    probabilities must agree with the given ones.
    """
    stats = doc["stats"]
    counts = stats["counts"]
    if stats["aborted"] or stats["n_rounds"] != rounds:
        return False
    if sum(sum(per_op.values()) for per_op in counts.values()) != rounds:
        return False
    if set(counts) != set(exact_error_probs):
        return False
    reported = doc["analysis"]["exact_error_probs"]
    for op, p in exact_error_probs.items():
        if abs(reported.get(op, math.inf) - p) > SWEEP_ATOL:
            return False
        per_op = counts[op]
        if not binomial_ok(per_op.get("Error", 0), sum(per_op.values()), p):
            return False
    return True
