"""Round-by-round execution of the mirror protocol and its legacy ancestor.

Bob launches one photon in the plus state each round and later measures the
returning light in a random basis.  Alice either reflects (CTRL) or, in the
mirror variant, swaps modes into her storage pair and measures it; in the
legacy variant her second option is SIFT (measure computationally, resend a
fresh photon).  Rounds whose measurement basis cannot be compared are
discarded during sifting.

Every round is first expanded into its exact branch distribution: channel
loss, Eve's two passes, Alice's detection, and Bob's detection all happen by
dense linear algebra, so branch probabilities are exact.  Sampling a run
then just draws rounds from that distribution, and the same branch lists
feed the exact analyses (error probabilities, Eve's conditional states).
A sampled run is one vectorized pass: row i of a counter-based Philox
stream keyed by the seed picks round i's operation, basis and branch, the
round is stored as an index into the run's flat branch table, and the
aggregates are counts over those indices.

Rounds of both variants run on the attack's own space, the transmitted pair
plus Eve's probe.  Alice's storage is empty whenever Eve acts (before Alice
acts, and after her destructive measurement), so a mirror SWAP followed by
her storage measurement is a threshold measurement of the swapped rails.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import comb, sqrt
from typing import Optional

import numpy as np

from .adversary import Attack
from .alice import swapped_slots
from .fock import (ContractViolation, DensityOperator, FockVector, ModeSystem,
                   _occupations, apply_creation, apply_truncating_unitary,
                   plus_state, trace_distance)
from .measurement import (AliceOp, Basis, ClickPattern, Interpretation,
                          interpret_ctrl, interpret_legacy_sift,
                          interpret_swap_all, interpret_swap_x, measure_pair,
                          measure_slots, shared_bit, sum_of, threshold_measure)

__all__ = [
    "Variant",
    "ProtocolConfig",
    "RoundBranch",
    "RoundEnumerator",
    "RunStats",
    "run_protocol",
    "simulate_records",
    "exact_statistics",
    "ExactStatistics",
    "EveConditionals",
    "eve_conditional_states",
    "SiftCtrlIdentification",
    "legacy_identification",
]

_PRUNE = 1e-24  # branch weights below this are numerical dust, not outcomes
_PAIR = 0  # the transmitted pair, the only pair of an attack's space
_PROB_ATOL = 1e-9


class Variant(enum.Enum):
    MIRROR = "mirror"
    LEGACY = "legacy"

    @property
    def operations(self) -> tuple[AliceOp, ...]:
        if self is Variant.MIRROR:
            return (AliceOp.CTRL, AliceOp.SWAP_10, AliceOp.SWAP_01, AliceOp.SWAP_ALL)
        return (AliceOp.CTRL, AliceOp.SIFT)


@dataclass
class ProtocolConfig:
    """Run parameters.

    ``channel_loss`` is the probability that a transmitted photon survives
    one channel pass (so 1.0 is a lossless channel and smaller values are
    lossier).  ``alice_op_probs`` defaults to the uniform distribution over
    the variant's operations.  Error thresholds are compared against the
    category rates after the run; exceeding any of them aborts.
    """

    variant: Variant = Variant.MIRROR
    n_rounds: int = 1000
    rng_seed: int = 0
    tag_dim: int = 1
    n_max: int = 2
    channel_loss: float = 1.0
    bob_hadamard_prob: float = 0.5
    alice_op_probs: Optional[dict] = None
    test_fraction: float = 0.1
    ctrl_error_threshold: float = 0.05
    swap_x_error_threshold: float = 0.05
    swap_all_error_threshold: float = 0.05
    raw_key_error_threshold: float = 0.05

    def __post_init__(self) -> None:
        if isinstance(self.variant, str):
            self.variant = Variant(self.variant)
        ops = self.variant.operations
        if self.alice_op_probs is None:
            self.alice_op_probs = {op: 1.0 / len(ops) for op in ops}
        else:
            probs = {}
            for op, p in self.alice_op_probs.items():
                op = AliceOp(op) if not isinstance(op, AliceOp) else op
                if op not in ops:
                    raise ValueError(f"{op} is not played in variant {self.variant.value}")
                if p < 0:
                    raise ValueError("operation probabilities must be non-negative")
                probs[op] = float(p)
            total = sum(probs.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"operation probabilities sum to {total}, not 1")
            self.alice_op_probs = probs
        if self.n_rounds < 0:
            raise ValueError("n_rounds must be non-negative")
        for name in ("channel_loss", "bob_hadamard_prob", "test_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.tag_dim < 1 or self.n_max < 1:
            raise ValueError("tag_dim and n_max must be at least 1")

    def to_document(self) -> dict:
        return {
            "variant": self.variant.value,
            "n_rounds": self.n_rounds,
            "rng_seed": self.rng_seed,
            "tag_dim": self.tag_dim,
            "n_max": self.n_max,
            "channel_loss": self.channel_loss,
            "bob_hadamard_prob": self.bob_hadamard_prob,
            "alice_op_probs": {op.value: p for op, p in self.alice_op_probs.items()},
            "test_fraction": self.test_fraction,
            "ctrl_error_threshold": self.ctrl_error_threshold,
            "swap_x_error_threshold": self.swap_x_error_threshold,
            "swap_all_error_threshold": self.swap_all_error_threshold,
            "raw_key_error_threshold": self.raw_key_error_threshold,
        }


@dataclass(frozen=True, eq=False)
class RoundBranch:
    """One exact outcome of a round, given Alice's operation and Bob's basis."""

    probability: float
    alice_pattern: Optional[ClickPattern]
    bob_pattern: ClickPattern
    interpretation: Optional[Interpretation]  # None when sifting discards
    discarded: bool
    alice_bit: Optional[int]
    bob_bit: Optional[int]
    eve_probe: np.ndarray  # normalized probe state after the round


class RoundEnumerator:
    """Exact branch distributions of a round, cached per (operation, basis).

    ``system`` is the attack's one-pair-plus-probe space for both variants.
    """

    def __init__(self, config: ProtocolConfig, attack: Attack):
        asys = attack.system
        if asys.tag_dim != config.tag_dim or asys.n_max != config.n_max:
            raise ValueError(
                f"attack space {asys} does not match config "
                f"(tag_dim={config.tag_dim}, n_max={config.n_max})")
        self.config = config
        self.attack = attack
        self.system = asys
        amps = np.zeros(self.system.dim, dtype=np.complex128)
        for p, c in enumerate(attack.initial_probe):
            if abs(c) > 0:
                amps += c * plus_state(self.system, _PAIR, 0, p).amplitudes
        self.initial = FockVector(self.system, amps)
        self._cache: dict[tuple[AliceOp, Basis], tuple[RoundBranch, ...]] = {}

    # -- channel loss ----------------------------------------------------

    def _loss_branches(self, state: FockVector) -> list[FockVector]:
        """Kraus branches of per-photon loss on the transmitted pair.

        Each branch fixes how many photons vanished from each slot; the
        environment keeps that record, so branches do not interfere.
        """
        q = self.config.channel_loss
        if q >= 1.0:
            return [state]
        out: list[FockVector] = []
        for src, dst, amp in _loss_maps(self.system, q):
            amps = np.zeros(self.system.dim, dtype=np.complex128)
            amps[dst] = state.amplitudes[src] * amp
            vec = FockVector(self.system, amps, state.leaked)
            if vec.norm2 > _PRUNE:
                out.append(vec)
        return out

    # -- alice stage -------------------------------------------------------

    def _alice_stage(self, state: FockVector,
                     op: AliceOp) -> list[tuple[Optional[ClickPattern], FockVector]]:
        if op is AliceOp.CTRL:
            return [(None, state)]
        if self.config.variant is Variant.MIRROR:
            rails = swapped_slots(self.system, op, _PAIR)
            return [(b.pattern, b.residual) for b in measure_slots(state, rails)]
        if op is AliceOp.SIFT:
            stage = []
            for b in measure_pair(state, _PAIR):
                res = b.residual
                # Resend one fresh photon per clicked mode, tag reset to 0.
                if b.pattern.mode0_click:
                    res = apply_creation(res, self.system.slot(_PAIR, 0, 0))
                if b.pattern.mode1_click:
                    res = apply_creation(res, self.system.slot(_PAIR, 1, 0))
                stage.append((b.pattern, res))
            return stage
        raise ValueError(f"operation {op} not defined for {self.config.variant}")

    # -- sifting and interpretation ---------------------------------------

    def _classify(self, op: AliceOp, basis: Basis,
                  a_pat: Optional[ClickPattern], b_pat: ClickPattern):
        interp, a_bit, b_bit = None, None, None
        if op is AliceOp.CTRL:
            if basis is Basis.COMPUTATIONAL:
                return None, True, None, None
            interp = interpret_ctrl(b_pat)
        elif op in (AliceOp.SWAP_10, AliceOp.SWAP_01):
            if basis is Basis.HADAMARD:
                return None, True, None, None
            interp = interpret_swap_x(sum_of(a_pat), sum_of(b_pat))
            if interp is Interpretation.SHARED_BIT:
                a_bit, b_bit = shared_bit(op, b_pat)
        elif op is AliceOp.SWAP_ALL:
            if basis is Basis.HADAMARD:
                return None, True, None, None
            interp = interpret_swap_all(a_pat, b_pat)
        elif op is AliceOp.SIFT:
            if basis is Basis.HADAMARD:
                return None, True, None, None
            interp = interpret_legacy_sift(a_pat, b_pat)
            if interp is Interpretation.SHARED_BIT:
                a_bit = 1 if a_pat is ClickPattern.P10 else 0
                b_bit = 1 if b_pat is ClickPattern.P10 else 0
        else:
            raise ValueError(f"unhandled operation {op}")
        return interp, False, a_bit, b_bit

    def _extract_probe(self, residual: FockVector, prob: float) -> np.ndarray:
        pl = self.system.probe_levels
        probe = residual.amplitudes[:pl].copy()  # vacuum occupation ranks first
        mass = float(np.vdot(probe, probe).real)
        if abs(mass - prob) > _PROB_ATOL * max(prob, 1.0):
            raise ContractViolation("post-measurement state not confined to vacuum")
        probe /= sqrt(mass)
        probe.setflags(write=False)
        return probe

    def branches(self, op: AliceOp, basis: Basis) -> tuple[RoundBranch, ...]:
        key = (op, basis)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        out: list[RoundBranch] = []
        for s1 in self._loss_branches(self.initial):
            s2 = apply_truncating_unitary(s1, self.attack.u_forward)
            for a_pat, s4 in self._alice_stage(s2, op):
                s5 = apply_truncating_unitary(s4, self.attack.v_backward)
                for s6 in self._loss_branches(s5):
                    for bb in threshold_measure(s6, _PAIR, basis):
                        prob = bb.probability
                        if prob <= _PRUNE:
                            continue
                        eve = self._extract_probe(bb.residual, prob)
                        interp, disc, a_bit, b_bit = self._classify(
                            op, basis, a_pat, bb.pattern)
                        out.append(RoundBranch(prob, a_pat, bb.pattern, interp,
                                               disc, a_bit, b_bit, eve))
        total = sum(b.probability for b in out)
        if abs(total - 1.0) > _PROB_ATOL:
            raise ContractViolation(
                f"round branches for ({op.value}, {basis.value}) sum to {total!r}")
        result = tuple(out)
        self._cache[key] = result
        return result


@lru_cache(maxsize=None)
def _loss_maps(system: ModeSystem, survival: float):
    """Per-photon loss on the transmitted pair as index maps.

    One ``(src, dst, amplitude)`` triple per lost-photon vector (photons
    lost from each slot of the pair): basis state ``src`` keeps
    ``amplitude``, the square root of the binomial weight of that loss,
    and lands on ``dst``, the same state with those photons gone.  The map
    is injective, so one fancy-index assignment applies it.
    """
    slots = system.pair_slots(_PAIR)
    q = survival
    probes = np.arange(system.probe_levels)
    maps = []
    for lost in _occupations(len(slots), system.n_max):
        src, dst, amp = [], [], []
        for rank, occ in enumerate(system.occupations()):
            counts = [occ[s] for s in slots]
            if any(l > n for n, l in zip(counts, lost)):
                continue
            coeff = 1.0
            for n, l in zip(counts, lost):
                coeff *= comb(n, l) * q ** (n - l) * (1.0 - q) ** l
            if coeff == 0.0:
                continue
            survived = list(occ)
            for s, l in zip(slots, lost):
                survived[s] -= l
            src.append(rank)
            dst.append(system.occupation_index(survived))
            amp.append(sqrt(coeff))
        if src:
            maps.append(((np.asarray(src)[:, None] * len(probes) + probes).ravel(),
                         (np.asarray(dst)[:, None] * len(probes) + probes).ravel(),
                         np.repeat(amp, len(probes))))
    return tuple(maps)


def _run_tables(config: ProtocolConfig, enum: RoundEnumerator):
    """The tables a run draws from, in flat-index order.

    One ``(operation index, Hadamard basis?, branches)`` per operation of
    the variant and each basis Bob picks with nonzero probability.
    """
    p_had = config.bob_hadamard_prob
    return [(k, basis is Basis.HADAMARD, enum.branches(op, basis))
            for k, op in enumerate(config.variant.operations)
            for basis, w in ((Basis.HADAMARD, p_had),
                             (Basis.COMPUTATIONAL, 1.0 - p_had))
            if w > 0.0]


def simulate_records(config: ProtocolConfig, attack: Attack,
                     enumerator: Optional[RoundEnumerator] = None) -> np.ndarray:
    """Flat branch index of every round of a run, deterministic in the seed.

    Round i reads row i of ``Generator(Philox(key=rng_seed)).random((n_rounds,
    3))``: Alice's operation, Bob's basis and the branch within that table.
    A counter-based stream puts every row at a fixed position, so the first
    n rounds of a longer run are exactly the rounds of a run of n.  Indices
    count through the tables of :func:`_run_tables` back to back.
    """
    enum = enumerator if enumerator is not None else RoundEnumerator(config, attack)
    draws = np.random.Generator(np.random.Philox(key=config.rng_seed)).random(
        (config.n_rounds, 3))
    ops = config.variant.operations
    op_cum = np.cumsum([config.alice_op_probs.get(op, 0.0) for op in ops])
    op_index = np.minimum(np.searchsorted(op_cum, draws[:, 0], side="right"),
                          len(ops) - 1)
    hadamard = draws[:, 1] < config.bob_hadamard_prob
    flat = np.empty(config.n_rounds, dtype=np.intp)
    start = 0
    for k, had, table in _run_tables(config, enum):
        rows = (op_index == k) & (hadamard == had)
        cum = np.cumsum([br.probability for br in table])
        pick = np.searchsorted(cum, draws[rows, 2] * cum[-1], side="right")
        flat[rows] = start + np.minimum(pick, len(table) - 1)
        start += len(table)
    return flat


@dataclass
class RunStats:
    """Aggregates of one protocol run.

    Error rates are per round of the operation (discarded rounds stay in the
    denominator), which makes the sampled rates estimate the same per-round
    detection probabilities the exact analyses report.  A rate whose
    denominator is zero is reported as None and never triggers an abort.
    In the legacy variant SIFT rounds fill the swap_x slot and no swap_all
    category exists.
    """

    n_rounds: int
    counts: dict
    ctrl_error_rate: Optional[float]
    swap_x_error_rate: Optional[float]
    swap_all_error_rate: Optional[float]
    raw_key_error_rate: Optional[float]
    sifted_key_rounds: int
    shared_bit_rounds: int
    shared_bit_fraction: Optional[float]
    test_sample_size: int
    raw_key_alice: str
    raw_key_bob: str
    aborted: bool
    abort_reasons: tuple[str, ...]

    def to_document(self) -> dict:
        return {
            "n_rounds": self.n_rounds,
            "counts": {op: dict(sorted(v.items())) for op, v in sorted(self.counts.items())},
            "ctrl_error_rate": self.ctrl_error_rate,
            "swap_x_error_rate": self.swap_x_error_rate,
            "swap_all_error_rate": self.swap_all_error_rate,
            "raw_key_error_rate": self.raw_key_error_rate,
            "sifted_key_rounds": self.sifted_key_rounds,
            "shared_bit_rounds": self.shared_bit_rounds,
            "shared_bit_fraction": self.shared_bit_fraction,
            "test_sample_size": self.test_sample_size,
            "raw_key_alice": self.raw_key_alice,
            "raw_key_bob": self.raw_key_bob,
            "aborted": self.aborted,
            "abort_reasons": list(self.abort_reasons),
        }


def _error_rate(counts: dict, ops) -> Optional[float]:
    per_op = [counts.get(op.value, {}) for op in ops]
    total = sum(sum(c.values()) for c in per_op)
    errors = sum(c.get(Interpretation.ERROR.value, 0) for c in per_op)
    return errors / total if total else None


def run_protocol(config: ProtocolConfig, attack: Attack,
                 enumerator: Optional[RoundEnumerator] = None) -> RunStats:
    """Sample a full run: rounds, sifting, error estimation, abort decision."""
    enum = enumerator if enumerator is not None else RoundEnumerator(config, attack)
    ops = config.variant.operations
    table = [(ops[k], br) for k, _, branches in _run_tables(config, enum)
             for br in branches]
    rounds = simulate_records(config, attack, enum)
    counts: dict[str, dict[str, int]] = {}
    sifted_key_rounds = 0
    key_ops = ((AliceOp.SWAP_10, AliceOp.SWAP_01)
               if config.variant is Variant.MIRROR else (AliceOp.SIFT,))
    for (op, br), n in zip(table, np.bincount(rounds, minlength=len(table)).tolist()):
        if n:
            label = "Discarded" if br.discarded else br.interpretation.value
            per_op = counts.setdefault(op.value, {})
            per_op[label] = per_op.get(label, 0) + n
            if op in key_ops and not br.discarded:
                sifted_key_rounds += n

    ctrl_rate = _error_rate(counts, (AliceOp.CTRL,))
    swap_x_rate = _error_rate(counts, key_ops)
    swap_all_rate = (_error_rate(counts, (AliceOp.SWAP_ALL,))
                     if config.variant is Variant.MIRROR else None)

    # Shared bits in round order.
    is_shared = np.array([br.interpretation is Interpretation.SHARED_BIT
                          for _, br in table])
    bits = np.array([(br.alice_bit or 0, br.bob_bit or 0) for _, br in table],
                    dtype=np.uint8)
    alice_bits, bob_bits = bits[rounds[is_shared[rounds]]].T

    # Step 6: reveal a random subset of the shared bits to estimate the
    # raw-key error rate; revealed positions are dropped from the keys.
    test_rng = np.random.Generator(np.random.Philox(key=config.rng_seed).jumped())
    n_shared = len(alice_bits)
    n_test = int(round(config.test_fraction * n_shared))
    kept = np.ones(n_shared, dtype=bool)
    if n_test:
        kept[test_rng.choice(n_shared, size=n_test, replace=False)] = False
    mismatches = int(np.count_nonzero(alice_bits[~kept] != bob_bits[~kept]))
    raw_key_rate = mismatches / n_test if n_test else None
    alice_key, bob_key = ((party[kept] + ord("0")).tobytes().decode("ascii")
                          for party in (alice_bits, bob_bits))

    reasons = []
    for name, rate, threshold in (
            ("ctrl", ctrl_rate, config.ctrl_error_threshold),
            ("swap_x", swap_x_rate, config.swap_x_error_threshold),
            ("swap_all", swap_all_rate, config.swap_all_error_threshold),
            ("raw_key", raw_key_rate, config.raw_key_error_threshold)):
        if rate is not None and rate > threshold:
            reasons.append(f"{name} error rate {rate:.6f} exceeds {threshold}")

    return RunStats(
        n_rounds=config.n_rounds,
        counts=counts,
        ctrl_error_rate=ctrl_rate,
        swap_x_error_rate=swap_x_rate,
        swap_all_error_rate=swap_all_rate,
        raw_key_error_rate=raw_key_rate,
        sifted_key_rounds=sifted_key_rounds,
        shared_bit_rounds=n_shared,
        shared_bit_fraction=(n_shared / sifted_key_rounds
                             if sifted_key_rounds else None),
        test_sample_size=n_test,
        raw_key_alice=alice_key,
        raw_key_bob=bob_key,
        aborted=bool(reasons),
        abort_reasons=tuple(reasons),
    )


# -- exact analyses -----------------------------------------------------------


@dataclass(frozen=True)
class ExactStatistics:
    """Per-operation outcome probabilities from the exact branch lists.

    Probabilities are per round of the given operation and include Bob's
    basis draw, so "Discarded" carries the weight of basis mismatch.
    ``shared_mismatch`` is the probability that a SharedBit round carries
    disagreeing bits, conditioned on SharedBit (None if those never occur).
    """

    outcome_probs: dict
    error_probs: dict
    shared_mismatch: Optional[float]


def exact_statistics(config: ProtocolConfig, attack: Attack,
                     enumerator: Optional[RoundEnumerator] = None) -> ExactStatistics:
    enum = enumerator if enumerator is not None else RoundEnumerator(config, attack)
    p_had = config.bob_hadamard_prob
    outcome: dict[AliceOp, dict[str, float]] = {}
    errors: dict[AliceOp, float] = {}
    p_shared = 0.0
    p_mismatch = 0.0
    for op in config.variant.operations:
        dist: dict[str, float] = {}
        for basis, w in ((Basis.HADAMARD, p_had), (Basis.COMPUTATIONAL, 1.0 - p_had)):
            if w == 0.0:
                continue
            for br in enum.branches(op, basis):
                label = "Discarded" if br.discarded else br.interpretation.value
                dist[label] = dist.get(label, 0.0) + w * br.probability
                if br.interpretation is Interpretation.SHARED_BIT:
                    weight = w * br.probability * config.alice_op_probs.get(op, 0.0)
                    p_shared += weight
                    if br.alice_bit != br.bob_bit:
                        p_mismatch += weight
        outcome[op] = dist
        errors[op] = dist.get(Interpretation.ERROR.value, 0.0)
    return ExactStatistics(outcome, errors,
                           p_mismatch / p_shared if p_shared > 0 else None)


_PROBE_MASS_TOL = 1e-15


@dataclass(frozen=True)
class EveConditionals:
    """Eve's exact probe states on SharedBit rounds, keyed by Bob's key bit.

    ``p_shared`` is the SharedBit probability conditioned on Alice playing a
    single-mode swap and Bob measuring computationally.  ``trace_distance``
    is None when one of the two bit values never occurs.
    """

    p_shared: float
    p_bit: dict
    states: dict
    trace_distance: Optional[float]


def eve_conditional_states(attack: Attack,
                           config: Optional[ProtocolConfig] = None,
                           enumerator: Optional[RoundEnumerator] = None) -> EveConditionals:
    if config is None:
        config = ProtocolConfig(variant=Variant.MIRROR, tag_dim=attack.system.tag_dim,
                                n_max=attack.system.n_max)
    if config.variant is not Variant.MIRROR:
        raise ValueError("conditional key-bit states are a mirror-variant analysis")
    enum = enumerator if enumerator is not None else RoundEnumerator(config, attack)
    pl = enum.system.probe_levels
    w10 = config.alice_op_probs.get(AliceOp.SWAP_10, 0.0)
    w01 = config.alice_op_probs.get(AliceOp.SWAP_01, 0.0)
    total = w10 + w01
    weights = {AliceOp.SWAP_10: 0.5, AliceOp.SWAP_01: 0.5} if total == 0 else \
        {AliceOp.SWAP_10: w10 / total, AliceOp.SWAP_01: w01 / total}
    rho = {0: np.zeros((pl, pl), dtype=np.complex128),
           1: np.zeros((pl, pl), dtype=np.complex128)}
    for op, w in weights.items():
        for br in enum.branches(op, Basis.COMPUTATIONAL):
            if br.interpretation is Interpretation.SHARED_BIT:
                rho[br.bob_bit] += (w * br.probability
                                    * np.outer(br.eve_probe, br.eve_probe.conj()))
    p_bit = {b: float(np.trace(m).real) for b, m in rho.items()}
    p_shared = p_bit[0] + p_bit[1]
    probe_space = ModeSystem(num_pairs=0, tag_dim=1, n_max=0,
                             probe_dim=attack.system.probe_dim)
    states = {}
    for b in (0, 1):
        if p_bit[b] > _PROBE_MASS_TOL:
            op_density = DensityOperator(probe_space, rho[b] / p_bit[b])
            op_density.validate(atol=1e-10)
            states[b] = op_density
    dist = (trace_distance(states[0], states[1])
            if 0 in states and 1 in states else None)
    return EveConditionals(p_shared, p_bit, states, dist)


@dataclass(frozen=True)
class SiftCtrlIdentification:
    """How well Eve's probe distinguishes SIFT from CTRL on the legacy protocol."""

    rho_ctrl: DensityOperator
    rho_sift: DensityOperator
    trace_distance: float
    accuracy: float  # best single-shot guess with equal priors


def legacy_identification(attack: Attack,
                          config: Optional[ProtocolConfig] = None,
                          enumerator: Optional[RoundEnumerator] = None) -> SiftCtrlIdentification:
    if config is None:
        config = ProtocolConfig(variant=Variant.LEGACY, tag_dim=attack.system.tag_dim,
                                n_max=attack.system.n_max)
    if config.variant is not Variant.LEGACY:
        raise ValueError("SIFT/CTRL identification is a legacy-variant analysis")
    enum = enumerator if enumerator is not None else RoundEnumerator(config, attack)
    pl = enum.system.probe_levels
    p_had = config.bob_hadamard_prob
    probe_space = ModeSystem(num_pairs=0, tag_dim=1, n_max=0,
                             probe_dim=attack.system.probe_dim)
    rho = {}
    for op in (AliceOp.CTRL, AliceOp.SIFT):
        mat = np.zeros((pl, pl), dtype=np.complex128)
        for basis, w in ((Basis.HADAMARD, p_had), (Basis.COMPUTATIONAL, 1.0 - p_had)):
            if w == 0.0:
                continue
            for br in enum.branches(op, basis):
                mat += w * br.probability * np.outer(br.eve_probe, br.eve_probe.conj())
        density = DensityOperator(probe_space, mat)
        density.validate(atol=1e-10)
        rho[op] = density
    dist = trace_distance(rho[AliceOp.CTRL], rho[AliceOp.SIFT])
    return SiftCtrlIdentification(rho[AliceOp.CTRL], rho[AliceOp.SIFT],
                                  dist, 0.5 * (1.0 + dist))
