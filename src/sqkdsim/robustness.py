"""Detection guarantees of the mirror protocol, checked exactly.

The protocol's security rests on a handful of observable events that an
undisturbed channel never produces: a minus click on a reflected round, a
photon appearing on both sides of a single-mode swap, and so on.  This
module evaluates the probability of each such event for a given attack by
summing exact branch weights, verifies the single-photon-return lemma that
underlies them, and sweeps randomized attacks to confirm that quiet attacks
learn nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from .adversary import Attack, _check_probes, _check_unitary, _random_attacks, attack_space
from .alice import ALICE_PAIR, apply_alice_op, swapped_slots
from .fock import FockVector, ModeSystem, apply_truncating_unitary, hadamard_change
from .measurement import PRUNE, AliceOp, Basis, ClickPattern, _branch_tables
from .protocol import (BranchTable, ProtocolConfig, RoundEnumerator, Variant, _Layout,
                       _PrunedApart, _branch_stack, _document, _enumerator, _eve_conditionals,
                       _measure_plan, _scatter, _weigh)

__all__ = [
    "ConditionReport",
    "check_conditions",
    "measurement_cross_check",
    "LemmaInput",
    "LemmaVerdict",
    "lemma_state",
    "verify_lemma1",
    "random_lemma_input",
    "SweepRecord",
    "SweepReport",
    "robustness_sweep",
]


@dataclass(frozen=True)
class ConditionReport:
    """Probabilities of the forbidden events, one field per condition.

    Every field is a per-round probability conditioned on the operation
    named in it, at the config's channel loss.  Fields describing Bob's
    detection include his chance of choosing the basis in which the event
    is visible: ``bob_hadamard_prob`` for ``ctrl_minus``, its complement
    for the computational-basis events (1/2 each by default);
    ``swap_all_alice_double`` concerns only Alice's detectors, which fire
    before Bob picks a basis, so it carries no such factor.
    """

    ctrl_minus: float
    swap_x_both_held: float
    swap_x_double: float
    swap_10_wrong_mode: float
    swap_01_wrong_mode: float
    swap_all_alice_double: float
    swap_all_bob_click: float

    @property
    def max_violation(self) -> float:
        return max(getattr(self, f.name) for f in fields(self))

    def to_document(self) -> dict:
        return dict(_document(self), max_violation=self.max_violation)


def check_conditions(attack: Attack, config: Optional[ProtocolConfig] = None,
                     enumerator: Optional[RoundEnumerator] = None) -> ConditionReport:
    """The seven detection conditions on a mirror config (default if None),
    by the core a sweep runs on a stack of attacks.  A given enumerator
    must hold that config and ``attack``."""
    enum = _enumerator(attack, config, enumerator, Variant.MIRROR)
    return ConditionReport(*_conditions(enum.config, *enum._pass)[0].tolist())


def _conditions(config: ProtocolConfig, layout: _Layout, stack: BranchTable) -> np.ndarray:
    """:func:`check_conditions` of each attack of a stacked table, as one
    (attack, condition) array: each condition is one masked row sum per
    stack, over masks found once per layout (:func:`_condition_terms`)."""
    p_had, p_comp = config.bob_hadamard_prob, 1.0 - config.bob_hadamard_prob
    # Each sum reads the masked rows of every attack at once: ``compress``
    # makes a C-ordered (attack, row) stack, whose rows sum as their 1-D
    # .sum() does.
    p = stack.probability
    sums = np.array([np.add.reduce(p[:, block].compress(mask, axis=1), axis=1)
                     for block, mask in layout.memo(_condition_terms)])
    # Bob's basis probability per term: CTRL's Hadamard, the swaps' six
    # computational, none for Alice's SWAP-ALL double, then Bob's.
    sums *= np.array([p_had] + [p_comp] * 6 + [1.0, p_comp])[:, None]
    sums[1:3] = np.maximum(np.maximum(0.0, sums[1:3]), sums[4:6])
    return sums[[0, 1, 2, 3, 6, 7, 8]].T


def _condition_terms(layout: _Layout) -> tuple:
    """(block, row mask) of each of the nine sums of :func:`_conditions`."""
    blocks = layout.blocks
    ctrl = blocks[AliceOp.CTRL, Basis.HADAMARD]
    # Bob's 10 and 11 set the mode-1 (minus) bit.
    terms = [(ctrl, layout.bob_pattern[ctrl] >= ClickPattern.P10.code)]
    # The swapped-out mode is the only one Bob may legitimately click in;
    # its opposite showing up alone means the photon dodged Alice's swap.
    none, double = ClickPattern.P00.code, ClickPattern.P11.code
    for op, forbidden in ((AliceOp.SWAP_10, ClickPattern.P10),
                          (AliceOp.SWAP_01, ClickPattern.P01)):
        block = blocks[op, Basis.COMPUTATIONAL]
        a, b = layout.alice_pattern[block], layout.bob_pattern[block]
        terms += [(block, (a != none) & (b != none)), (block, (a == double) | (b == double)),
                  (block, (a == none) & (b == forbidden.code))]
    swap_all = blocks[AliceOp.SWAP_ALL, Basis.COMPUTATIONAL]
    terms += [(swap_all, layout.alice_pattern[swap_all] == double),
              (swap_all, layout.bob_pattern[swap_all] != none)]
    return tuple(terms)


def measurement_cross_check(attack: Attack) -> float:
    """Check Alice's one-pair rail measurement against the two-pair spec.

    Rounds measure the swapped rails of the transmitted pair directly; the
    checked route splits the attack's lossless forward-pass state with the
    rounds' own plan for each SWAP.  The spec route places that state next
    to an empty storage pair, applies the SWAP permutation, and decomposes
    the result with explicit index masks, one per storage-pair occupation.
    Each projection must match a branch of the split: same click pattern,
    same probability, and the same residual once placed next to the
    emptied storage.  Returns the largest absolute disagreement found (0.0
    means both routes agree to machine precision, infinity that their
    branch sets differ).  The state depends on the attack alone.
    """
    forward = apply_truncating_unitary(_enumerator(attack, None, None).initial,
                                       attack.u_forward)
    pair = forward.system
    system = ModeSystem(2, pair.tag_dim, pair.n_max, pair.probe_dim)
    # The attack pair's basis state i, next to the empty storage pair, is
    # joint basis state embed[i]: the storage factor is exactly 1.
    pair_occs, pair_probes = pair.basis_table
    embed = system.index_of(np.concatenate([np.zeros_like(pair_occs), pair_occs], axis=1),
                            pair_probes)
    amps = np.zeros(system.dim, dtype=np.complex128)
    amps[embed] = forward.amplitudes
    joint = FockVector(system, amps)
    alice_slots = list(system.pair_slots(ALICE_PAIR))
    occs, probes = system.basis_table
    worst = 0.0
    for op in (AliceOp.SWAP_10, AliceOp.SWAP_01, AliceOp.SWAP_ALL):
        swapped = apply_alice_op(joint, op)
        # One projection per occupation of Alice's pair, that pair emptied:
        # each (occupation, emptied index) receives one amplitude.
        nz = np.flatnonzero(np.abs(swapped.amplitudes) > 0)
        cleared = occs[nz]
        a_occs, group = np.unique(cleared[:, alice_slots], axis=0, return_inverse=True)
        cleared[:, alice_slots] = 0
        vecs = np.zeros((len(a_occs), system.dim), dtype=np.complex128)
        vecs[group.ravel(), system.index_of(cleared, probes[nz])] += swapped.amplitudes[nz]
        groups = dict(zip(map(tuple, a_occs.tolist()), vecs))
        # The round's split, map k per rail occupation k; the joint storage
        # pair 0 has the attack pair's slot numbers, so rail counts embed.
        rails = swapped_slots(pair, op, 0)
        keys = [key for key, *_ in _branch_tables(pair, rails)]
        # One input row, so each live (row, map) index is its map k.
        plan, _, codes = _measure_plan(pair, (op,))
        moved, weight, live = _weigh(forward.amplitudes[None, None], plan)
        which = np.flatnonzero(live)
        embedded = np.zeros((len(which), system.dim), dtype=np.complex128)
        embedded[:, embed] = _scatter(moved, plan, which)[0]
        branches = {}
        for row, prob, k in zip(embedded, weight[0, 0, which], which):
            counts = dict(zip(rails, keys[k]))
            a_occ = tuple(counts.get(s, 0) for s in alice_slots)
            branches[a_occ] = (codes[k], prob, row)
        if set(branches) != {occ for occ, v in groups.items()
                             if float(np.vdot(v, v).real) > PRUNE}:
            return float("inf")
        for a_occ, (code, prob, row) in branches.items():
            mode1 = sum(a_occ[s] for s in system.mode_slots(ALICE_PAIR, 1))
            if code != ClickPattern.from_clicks(mode1 > 0, sum(a_occ) > mode1).code:
                return float("inf")
            vec = groups[a_occ]
            worst = max(worst, abs(prob - float(np.vdot(vec, vec).real)))
            worst = max(worst, float(np.abs(row - vec).max()))
    return worst


# -- single-photon-return lemma ------------------------------------------------


@dataclass(frozen=True)
class LemmaInput:
    """A candidate returning state: photons bunched in one mode, plus vacuum.

    ``f[m]`` is the (unnormalized) probe vector attached to m photons in
    mode 1, ``g[m]`` to m photons in mode 0, and ``h`` to the vacuum.  All
    vectors share one probe dimension; missing entries mean zero.
    """

    f: dict
    g: dict
    h: np.ndarray
    n_max: int = 2

    @property
    def probe_dim(self) -> int:
        return len(self.h)


@dataclass(frozen=True)
class LemmaVerdict:
    """Outcome of checking the lemma's premise and conclusion on one input.

    ``p_minus`` is the probability of a minus-mode click if the state were
    measured in the Hadamard basis.  ``conclusion_holds`` says the state is
    (up to tolerance) a plus-state photon with a factored probe, plus a
    vacuum component.  ``implication_holds`` is the lemma itself: either the
    premise fails (p_minus above ``zero_tol``) or the conclusion holds.
    """

    p_minus: float
    deviation: float
    conclusion_holds: bool
    implication_holds: bool


def lemma_state(spec_input: LemmaInput) -> FockVector:
    system = ModeSystem(num_pairs=1, tag_dim=1, n_max=spec_input.n_max,
                        probe_dim=spec_input.probe_dim)
    amps = np.zeros(system.dim, dtype=np.complex128)
    pd = spec_input.probe_dim

    def deposit(occ, vec):
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape != (pd,):
            raise ValueError("probe vectors must share one dimension")
        amps[system.index_of(occ, np.arange(pd))] += vec

    for mode, side in ((1, spec_input.f), (0, spec_input.g)):
        for m, vec in side.items():
            if not 1 <= m <= spec_input.n_max:
                raise ValueError(f"photon number {m} out of range")
            occ = [0, 0]
            occ[system.slot(0, mode, 0)] = m
            deposit(occ, vec)
    deposit([0, 0], spec_input.h)
    return FockVector(system, amps)


def verify_lemma1(spec_input: LemmaInput, zero_tol: float = 1e-9,
                  conclusion_tol: float = 2e-9) -> LemmaVerdict:
    """Check that a quiet returning state must be plus-shaped.

    The claim: if the minus detector can never fire, the single-photon
    probe vectors agree and no multi-photon component exists.  The minus
    weight lower-bounds the deviation mass by a factor 1/2, so callers
    should keep ``conclusion_tol >= 2 * zero_tol``.
    """
    state = lemma_state(spec_input)
    norm2 = state.norm2
    if not np.isfinite(norm2):
        raise ValueError(f"lemma input's squared norm {norm2} is not finite")
    if not state.amplitudes.any():
        raise ValueError("lemma input is the zero vector")
    if norm2 < np.finfo(float).tiny:  # a subnormal norm loses digits in every ratio
        raise ValueError(f"lemma input's squared norm {norm2} is below the normal float range")
    rotated = hadamard_change(state, 0)
    system = state.system
    minus = system.basis_table[0][:, system.slot(0, 1, 0)] > 0  # after the change
    amps = rotated.amplitudes[minus]
    # hypot rounds as scalar abs() does; cumsum adds in index order, np.sum pairwise
    weights = np.hypot(amps.real, amps.imag) ** 2
    p_minus = float(np.cumsum(np.append(0.0, weights))[-1] / norm2)

    pd = spec_input.probe_dim
    f1 = np.asarray(spec_input.f.get(1, np.zeros(pd)), dtype=np.complex128)
    g1 = np.asarray(spec_input.g.get(1, np.zeros(pd)), dtype=np.complex128)
    deviation = float(np.vdot(f1 - g1, f1 - g1).real)
    for m in range(2, spec_input.n_max + 1):
        for side in (spec_input.f, spec_input.g):
            vec = side.get(m)
            if vec is not None:
                vec = np.asarray(vec, dtype=np.complex128)
                deviation += float(np.vdot(vec, vec).real)
    deviation /= norm2

    conclusion = deviation <= conclusion_tol
    implication = (p_minus > zero_tol) or conclusion
    return LemmaVerdict(p_minus, deviation, conclusion, implication)


def random_lemma_input(rng: np.random.Generator, probe_dim: int = 3,
                       n_max: int = 2, delta: float = 0.0) -> LemmaInput:
    """A random input satisfying the premise, optionally perturbed.

    With ``delta == 0`` the two single-photon probe vectors are identical
    and the minus mode is dark.  A positive ``delta`` displaces one of them
    by that distance, making the minus weight delta**2 / (2 * norm2).
    """

    def cvec(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    f1 = cvec(probe_dim)
    g1 = f1.copy()
    if delta > 0.0:
        bump = cvec(probe_dim)
        g1 = g1 + delta * bump / np.linalg.norm(bump)
    return LemmaInput(f={1: f1}, g={1: g1}, h=cvec(probe_dim), n_max=n_max)


# -- randomized sweep ----------------------------------------------------------


@dataclass(frozen=True)
class SweepRecord:
    index: int
    seed: int
    probe_dim: int
    max_violation: float
    p_shared: float
    trace_distance: Optional[float]
    counterexample: bool


@dataclass(frozen=True)
class SweepReport:
    """Results of probing random attacks for undetected information gain.

    A counterexample is an attack that stays below ``eps_error`` on every
    detection condition yet leaves Eve's conditional probe states more than
    ``eps_info`` apart in trace distance.  The protocol's claim is that no
    such attack exists.
    """

    master_seed: int
    strength: float
    eps_error: float
    eps_info: float
    records: tuple

    @property
    def n_counterexamples(self) -> int:
        return sum(1 for r in self.records if r.counterexample)

    @property
    def worst_quiet_distance(self) -> float:
        quiet = [r.trace_distance or 0.0 for r in self.records
                 if r.max_violation < self.eps_error]
        return max(quiet, default=0.0)

    def to_document(self) -> dict:
        return dict(_document(self), n_attacks=len(self.records),
                    n_counterexamples=self.n_counterexamples,
                    worst_quiet_distance=self.worst_quiet_distance)

    CSV_HEADER = tuple(f.name for f in fields(SweepRecord))

    def to_csv_rows(self) -> list:
        """One row per record, fields in :data:`CSV_HEADER` order; None is an
        empty cell and a flag is 0 or 1."""
        return [list(self.CSV_HEADER)] + [
            ["" if v is None else int(v) if isinstance(v, bool) else v
             for v in (getattr(r, name) for name in self.CSV_HEADER)] for r in self.records]


_STACK_BUDGET = 1 << 14  # attacks per stack times dim**2: 256 KiB per stacked unitary


class _Evaluation(NamedTuple):
    """What :func:`_evaluate` finds for a stack of attacks, one row each."""
    conditions: np.ndarray  # (attack, 7), in ConditionReport field order
    p_bit: np.ndarray  # (attack, bit)
    rho: np.ndarray  # (attack, bit, level, level); an absent bit's state is unused
    trace_distance: np.ndarray  # (attack,); NaN where a bit never occurs


def _evaluate(config: ProtocolConfig, system: ModeSystem, unitaries: np.ndarray,
              probes: np.ndarray) -> _Evaluation:
    """The record of an (attack, U/V, d, d) stack on ``system``: both cores
    on one stacked table, or one attack at a time, joined, if they prune apart."""
    try:
        layout, stack = _branch_stack(config, system, unitaries[:, 0], unitaries[:, 1], probes)
    except _PrunedApart:
        return _Evaluation(*map(np.concatenate, zip(*(
            _evaluate(config, system, u[None], p[None]) for u, p in zip(unitaries, probes)))))
    return _Evaluation(_conditions(config, layout, stack),
                       *_eve_conditionals(config, layout, stack))


def robustness_sweep(master_seed: int = 0, count: int = 100,
                     strength: float = 0.3, max_probe_dim: int = 8,
                     n_max: int = 2, eps_error: float = 1e-9,
                     eps_info: float = 1e-6) -> SweepReport:
    """Try ``count`` random unitary attacks and look for counterexamples.

    Probe dimensions cycle through 1..max_probe_dim so the sweep covers
    trivial and roomy probes alike.  Seeds derive from ``master_seed``
    alone, making reports reproducible.  The attacks of one probe size go
    in chunks of bounded size from seeds to records as one stack of raw
    matrices: :func:`~sqkdsim.adversary.random_attack`'s builder makes
    the chunk's unitaries, :class:`~sqkdsim.adversary.Attack`'s checks run
    on the whole stack, and one table build, one condition core and one
    Eve core evaluate it as one record of arrays, with no ``Attack`` or report
    object per seed.  Every step is per slice or per row, so each record has
    the bits of its attack evaluated alone and no record depends on stacking.
    """
    if max_probe_dim < 1:
        raise ValueError("max_probe_dim must be at least 1")
    if count < 0:
        raise ValueError("count must be non-negative")
    if not 0.0 <= strength <= 1.0:  # NaN fails too
        raise ValueError("strength must lie in [0, 1]")
    if not all(np.isfinite(eps) and eps >= 0 for eps in (eps_error, eps_info)):
        raise ValueError("eps_error and eps_info must be finite and non-negative")
    seeds = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint32)
    config = ProtocolConfig(variant=Variant.MIRROR, n_max=n_max)
    records = [None] * count
    for probe_dim in range(1, min(count, max_probe_dim) + 1):
        system = attack_space(n_max=n_max, probe_dim=probe_dim)
        group = range(probe_dim - 1, count, max_probe_dim)
        size = max(1, _STACK_BUDGET // system.dim ** 2)
        for start in range(0, len(group), size):
            chunk = group[start:start + size]
            unitaries, probes = _random_attacks(seeds[chunk].tolist(), system, strength)
            _check_unitary(unitaries)  # Attack's checks, as no Attack is built
            _check_probes(system, probes)
            found = _evaluate(config, system, unitaries, probes)
            worst, dist = found.conditions.max(axis=1), found.trace_distance
            flagged = (worst < eps_error) & (dist > eps_info)  # NaN is never informative
            for i, w, p, d, flag in zip(chunk, worst.tolist(), found.p_bit.sum(axis=1).tolist(),
                                        dist.tolist(), flagged.tolist()):
                records[i] = SweepRecord(i, int(seeds[i]), probe_dim, w, p,
                                         None if np.isnan(d) else d, flag)
            del unitaries
    return SweepReport(master_seed, strength, eps_error, eps_info,
                       tuple(records))
