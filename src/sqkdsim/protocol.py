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

Rounds of both variants run on the attack's own space, the transmitted pair
plus Eve's probe.  Alice's storage is empty whenever Eve acts (before Alice
acts, and after her destructive measurement), so a mirror SWAP followed by
her storage measurement is a threshold measurement of the swapped rails.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb, sqrt
from typing import Optional

import numpy as np

from .adversary import Attack
from .alice import swapped_slots
from .fock import (ContractViolation, DensityOperator, FockVector, ModeSystem,
                   apply_creation, apply_truncating_unitary, plus_state,
                   trace_distance)
from .measurement import (AliceOp, Basis, ClickPattern, Interpretation,
                          interpret_ctrl, interpret_legacy_sift,
                          interpret_swap_all, interpret_swap_x, measure_pair,
                          measure_slots, shared_bit, sum_of, threshold_measure)

__all__ = [
    "Variant",
    "ProtocolConfig",
    "RoundBranch",
    "RoundEnumerator",
    "RoundRecord",
    "RoundSimulator",
    "RunStats",
    "run_round",
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
        system = self.system
        slots = system.pair_slots(_PAIR)
        nz = np.flatnonzero(np.abs(state.amplitudes) > 0)
        out: list[FockVector] = []
        from .fock import _occupations  # loss vectors reuse the occupation lister
        for lost in _occupations(len(slots), system.n_max):
            amps = np.zeros(system.dim, dtype=np.complex128)
            hit = False
            for i in nz:
                occ, probe = system.basis_state(int(i))
                coeff = 1.0
                ok = True
                for k, s in enumerate(slots):
                    n, l = occ[s], lost[k]
                    if l > n:
                        ok = False
                        break
                    coeff *= comb(n, l) * q ** (n - l) * (1.0 - q) ** l
                if not ok or coeff == 0.0:
                    continue
                survived = list(occ)
                for k, s in enumerate(slots):
                    survived[s] = occ[s] - lost[k]
                amps[system.basis_index(survived, probe)] += \
                    state.amplitudes[i] * sqrt(coeff)
                hit = True
            if hit:
                vec = FockVector(system, amps, state.leaked)
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


@dataclass(frozen=True)
class RoundRecord:
    """What one simulated round looked like from the parties' side.

    ``branch_ref`` points back into the enumerator's branch list (operation
    value, basis value, branch index); it is simulation-side bookkeeping and
    never visible to the protocol participants.
    """

    index: int
    alice_op: AliceOp
    bob_basis: Basis
    alice_pattern: Optional[ClickPattern]
    bob_pattern: ClickPattern
    interpretation: Optional[Interpretation]
    discarded: bool
    alice_bit: Optional[int]
    bob_bit: Optional[int]
    branch_ref: tuple[str, str, int]


class RoundSimulator:
    """Samples rounds from the exact branch distributions."""

    def __init__(self, config: ProtocolConfig, attack: Attack):
        self.config = config
        self.enumerator = RoundEnumerator(config, attack)
        self.ops = config.variant.operations
        self._op_cum = np.cumsum([config.alice_op_probs.get(op, 0.0)
                                  for op in self.ops])
        self._branch_cum: dict[tuple[AliceOp, Basis], np.ndarray] = {}

    def _branches_with_cum(self, op: AliceOp, basis: Basis):
        branches = self.enumerator.branches(op, basis)
        key = (op, basis)
        cum = self._branch_cum.get(key)
        if cum is None:
            cum = np.cumsum([b.probability for b in branches])
            self._branch_cum[key] = cum
        return branches, cum

    def run_round(self, rng: np.random.Generator, index: int = 0) -> RoundRecord:
        op = self.ops[min(int(np.searchsorted(self._op_cum, rng.random(),
                                              side="right")),
                          len(self.ops) - 1)]
        basis = (Basis.HADAMARD if rng.random() < self.config.bob_hadamard_prob
                 else Basis.COMPUTATIONAL)
        branches, cum = self._branches_with_cum(op, basis)
        k = min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")),
                len(branches) - 1)
        br = branches[k]
        return RoundRecord(index, op, basis, br.alice_pattern, br.bob_pattern,
                           br.interpretation, br.discarded, br.alice_bit,
                           br.bob_bit, (op.value, basis.value, k))


def run_round(config: ProtocolConfig, attack: Attack,
              rng: np.random.Generator) -> RoundRecord:
    """Single-round convenience; loops should reuse a :class:`RoundSimulator`."""
    return RoundSimulator(config, attack).run_round(rng)


def simulate_records(config: ProtocolConfig, attack: Attack) -> list[RoundRecord]:
    """All round records of a run, deterministic in ``config.rng_seed``.

    Each round draws from its own child RNG stream, so the record list does
    not depend on evaluation order.
    """
    sim = RoundSimulator(config, attack)
    root = np.random.SeedSequence(config.rng_seed)
    rounds_ss, _ = root.spawn(2)
    return [sim.run_round(np.random.default_rng(child), i)
            for i, child in enumerate(rounds_ss.spawn(config.n_rounds))]


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


def _rate(errors: int, total: int) -> Optional[float]:
    return errors / total if total else None


def run_protocol(config: ProtocolConfig, attack: Attack) -> RunStats:
    """Sample a full run: rounds, sifting, error estimation, abort decision."""
    records = simulate_records(config, attack)
    counts: dict[str, dict[str, int]] = {}
    op_totals: dict[AliceOp, int] = {}
    op_errors: dict[AliceOp, int] = {}
    shared: list[tuple[int, int]] = []
    sifted_key_rounds = 0
    key_ops = ((AliceOp.SWAP_10, AliceOp.SWAP_01)
               if config.variant is Variant.MIRROR else (AliceOp.SIFT,))
    for rec in records:
        label = "Discarded" if rec.discarded else rec.interpretation.value
        per_op = counts.setdefault(rec.alice_op.value, {})
        per_op[label] = per_op.get(label, 0) + 1
        op_totals[rec.alice_op] = op_totals.get(rec.alice_op, 0) + 1
        if rec.interpretation is Interpretation.ERROR:
            op_errors[rec.alice_op] = op_errors.get(rec.alice_op, 0) + 1
        if rec.alice_op in key_ops and not rec.discarded:
            sifted_key_rounds += 1
        if rec.interpretation is Interpretation.SHARED_BIT:
            shared.append((rec.alice_bit, rec.bob_bit))

    ctrl_rate = _rate(op_errors.get(AliceOp.CTRL, 0),
                      op_totals.get(AliceOp.CTRL, 0))
    swap_x_rate = _rate(sum(op_errors.get(op, 0) for op in key_ops),
                        sum(op_totals.get(op, 0) for op in key_ops))
    if config.variant is Variant.MIRROR:
        swap_all_rate = _rate(op_errors.get(AliceOp.SWAP_ALL, 0),
                              op_totals.get(AliceOp.SWAP_ALL, 0))
    else:
        swap_all_rate = None

    # Step 6: reveal a random subset of the shared bits to estimate the
    # raw-key error rate; revealed positions are dropped from the keys.
    root = np.random.SeedSequence(config.rng_seed)
    _, test_ss = root.spawn(2)
    test_rng = np.random.default_rng(test_ss)
    n_shared = len(shared)
    n_test = int(round(config.test_fraction * n_shared))
    revealed = (sorted(int(i) for i in
                       test_rng.choice(n_shared, size=n_test, replace=False))
                if n_test else [])
    revealed_set = set(revealed)
    mismatches = sum(1 for i in revealed if shared[i][0] != shared[i][1])
    raw_key_rate = mismatches / n_test if n_test else None
    alice_key = "".join(str(a) for i, (a, _) in enumerate(shared)
                        if i not in revealed_set)
    bob_key = "".join(str(b) for i, (_, b) in enumerate(shared)
                      if i not in revealed_set)

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


def exact_statistics(config: ProtocolConfig, attack: Attack) -> ExactStatistics:
    enum = RoundEnumerator(config, attack)
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
                          config: Optional[ProtocolConfig] = None) -> SiftCtrlIdentification:
    if config is None:
        config = ProtocolConfig(variant=Variant.LEGACY, tag_dim=attack.system.tag_dim,
                                n_max=attack.system.n_max)
    if config.variant is not Variant.LEGACY:
        raise ValueError("SIFT/CTRL identification is a legacy-variant analysis")
    enum = RoundEnumerator(config, attack)
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
