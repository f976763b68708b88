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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adversary import Attack, random_attack
from .alice import ALICE_PAIR, apply_alice_op, swapped_slots
from .fock import (FockVector, ModeSystem, apply_truncating_unitary,
                   hadamard_change, tensor, vacuum)
from .measurement import AliceOp, Basis, ClickPattern, measure_slots, sum_of
from .protocol import ProtocolConfig, RoundEnumerator, Variant, \
    eve_conditional_states

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
    named in it.  Fields describing Bob's detection include his 1/2 chance
    of choosing the basis in which the event is visible;
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
    cross_check_deviation: Optional[float] = None

    @property
    def max_violation(self) -> float:
        return max(self.ctrl_minus, self.swap_x_both_held, self.swap_x_double,
                   self.swap_10_wrong_mode, self.swap_01_wrong_mode,
                   self.swap_all_alice_double, self.swap_all_bob_click)

    def to_document(self) -> dict:
        doc = {
            "ctrl_minus": self.ctrl_minus,
            "swap_x_both_held": self.swap_x_both_held,
            "swap_x_double": self.swap_x_double,
            "swap_10_wrong_mode": self.swap_10_wrong_mode,
            "swap_01_wrong_mode": self.swap_01_wrong_mode,
            "swap_all_alice_double": self.swap_all_alice_double,
            "swap_all_bob_click": self.swap_all_bob_click,
            "max_violation": self.max_violation,
        }
        if self.cross_check_deviation is not None:
            doc["cross_check_deviation"] = self.cross_check_deviation
        return doc


def check_conditions(attack: Attack, config: Optional[ProtocolConfig] = None,
                     cross_check: bool = False,
                     enumerator: Optional[RoundEnumerator] = None) -> ConditionReport:
    """Evaluate the seven detection conditions for a mirror-variant attack."""
    if config is None:
        config = ProtocolConfig(variant=Variant.MIRROR,
                                tag_dim=attack.system.tag_dim,
                                n_max=attack.system.n_max)
    if config.variant is not Variant.MIRROR:
        raise ValueError("detection conditions are defined for the mirror variant")
    enum = enumerator if enumerator is not None else RoundEnumerator(config, attack)
    half = 0.5  # Bob's basis draw

    ctrl_minus = half * sum(
        br.probability for br in enum.branches(AliceOp.CTRL, Basis.HADAMARD)
        if br.bob_pattern.mode1_click)

    both_held = 0.0
    double = 0.0
    wrong_mode = {AliceOp.SWAP_10: 0.0, AliceOp.SWAP_01: 0.0}
    # The swapped-out mode is the only one Bob may legitimately click in;
    # its opposite showing up alone means the photon dodged Alice's swap.
    forbidden_pattern = {AliceOp.SWAP_10: ClickPattern.P10,
                         AliceOp.SWAP_01: ClickPattern.P01}
    for op in (AliceOp.SWAP_10, AliceOp.SWAP_01):
        p_both = p_double = p_wrong = 0.0
        for br in enum.branches(op, Basis.COMPUTATIONAL):
            a, b = sum_of(br.alice_pattern), sum_of(br.bob_pattern)
            if a >= 1 and b >= 1:
                p_both += br.probability
            if a == 2 or b == 2:
                p_double += br.probability
            if a == 0 and br.bob_pattern is forbidden_pattern[op]:
                p_wrong += br.probability
        both_held = max(both_held, half * p_both)
        double = max(double, half * p_double)
        wrong_mode[op] = half * p_wrong

    alice_double = 0.0
    bob_click = 0.0
    for br in enum.branches(AliceOp.SWAP_ALL, Basis.COMPUTATIONAL):
        if br.alice_pattern is ClickPattern.P11:
            alice_double += br.probability
        if sum_of(br.bob_pattern) >= 1:
            bob_click += br.probability

    deviation = measurement_cross_check(attack, config, enum) if cross_check else None
    return ConditionReport(
        ctrl_minus=ctrl_minus,
        swap_x_both_held=both_held,
        swap_x_double=double,
        swap_10_wrong_mode=wrong_mode[AliceOp.SWAP_10],
        swap_01_wrong_mode=wrong_mode[AliceOp.SWAP_01],
        swap_all_alice_double=alice_double,
        swap_all_bob_click=half * bob_click,
        cross_check_deviation=deviation,
    )


def measurement_cross_check(attack: Attack,
                            config: Optional[ProtocolConfig] = None,
                            enumerator: Optional[RoundEnumerator] = None) -> float:
    """Check Alice's one-pair rail measurement against the two-pair spec.

    Rounds measure the swapped rails of the transmitted pair directly.  The
    spec route places the forward-pass state next to an empty storage pair,
    applies the SWAP permutation, and decomposes the result with explicit
    index masks, one per storage-pair occupation.  Each projection must
    match a rail-measurement branch: same click pattern, same probability,
    and the same residual once placed next to the emptied storage.  Returns
    the largest absolute disagreement found (0.0 means both routes agree to
    machine precision, infinity that their branch sets differ).
    """
    if config is None:
        config = ProtocolConfig(variant=Variant.MIRROR,
                                tag_dim=attack.system.tag_dim,
                                n_max=attack.system.n_max)
    if config.channel_loss < 1.0:
        raise ValueError("cross check assumes a lossless channel")
    enum = enumerator if enumerator is not None else RoundEnumerator(config, attack)
    forward = apply_truncating_unitary(enum.initial, attack.u_forward)
    storage = vacuum(ModeSystem(1, forward.system.tag_dim, forward.system.n_max))
    joint = tensor(storage, forward)
    system = joint.system
    alice_slots = system.pair_slots(ALICE_PAIR)
    worst = 0.0
    for op in (AliceOp.SWAP_10, AliceOp.SWAP_01, AliceOp.SWAP_ALL):
        swapped = apply_alice_op(joint, op)
        groups: dict[tuple[int, ...], np.ndarray] = {}
        for i in np.flatnonzero(np.abs(swapped.amplitudes) > 0):
            occ, probe = system.basis_state(int(i))
            a_occ = tuple(occ[s] for s in alice_slots)
            cleared = list(occ)
            for s in alice_slots:
                cleared[s] = 0
            vec = groups.setdefault(a_occ, np.zeros(system.dim, dtype=np.complex128))
            vec[system.basis_index(cleared, probe)] += swapped.amplitudes[i]
        # Storage pair 0 of the joint space uses the slot numbers of the
        # transmitted pair 0 of the attack space, so rail counts embed as is.
        rails = swapped_slots(forward.system, op, 0)
        branches = {}
        for b in measure_slots(forward, rails):
            counts = dict(zip(rails, b.occupation))
            branches[tuple(counts.get(s, 0) for s in alice_slots)] = b
        if set(branches) != {occ for occ, v in groups.items()
                             if float(np.vdot(v, v).real) > 1e-24}:
            return float("inf")
        for a_occ, b in branches.items():
            mode1 = sum(a_occ[s] for s in system.mode_slots(ALICE_PAIR, 1))
            if b.pattern is not ClickPattern.from_clicks(mode1 > 0, sum(a_occ) > mode1):
                return float("inf")
            vec = groups[a_occ]
            embedded = tensor(storage, b.residual).amplitudes
            worst = max(worst, abs(b.probability - float(np.vdot(vec, vec).real)))
            worst = max(worst, float(np.abs(embedded - vec).max()))
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
        base = system.basis_index(occ)
        amps[base:base + pd] += vec

    slot0, slot1 = system.slot(0, 0, 0), system.slot(0, 1, 0)
    for m, vec in spec_input.f.items():
        if not 1 <= m <= spec_input.n_max:
            raise ValueError(f"photon number {m} out of range")
        occ = [0, 0]
        occ[slot1] = m
        deposit(occ, vec)
    for m, vec in spec_input.g.items():
        if not 1 <= m <= spec_input.n_max:
            raise ValueError(f"photon number {m} out of range")
        occ = [0, 0]
        occ[slot0] = m
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
    if norm2 < 1e-30:
        raise ValueError("lemma input is the zero vector")
    rotated = hadamard_change(state, 0)
    system = state.system
    slot1 = system.slot(0, 1, 0)  # minus mode after the basis change
    p_minus = 0.0
    for i in np.flatnonzero(np.abs(rotated.amplitudes) > 0):
        occ, _ = system.basis_state(int(i))
        if occ[slot1] > 0:
            p_minus += abs(rotated.amplitudes[i]) ** 2
    p_minus /= norm2

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
        return {
            "master_seed": self.master_seed,
            "strength": self.strength,
            "eps_error": self.eps_error,
            "eps_info": self.eps_info,
            "n_attacks": len(self.records),
            "n_counterexamples": self.n_counterexamples,
            "worst_quiet_distance": self.worst_quiet_distance,
            "records": [{
                "index": r.index,
                "seed": r.seed,
                "probe_dim": r.probe_dim,
                "max_violation": r.max_violation,
                "p_shared": r.p_shared,
                "trace_distance": r.trace_distance,
                "counterexample": r.counterexample,
            } for r in self.records],
        }

    CSV_HEADER = ("index", "seed", "probe_dim", "max_violation", "p_shared",
                  "trace_distance", "counterexample")

    def to_csv_rows(self) -> list:
        rows = [list(self.CSV_HEADER)]
        for r in self.records:
            rows.append([r.index, r.seed, r.probe_dim, repr(r.max_violation),
                         repr(r.p_shared),
                         "" if r.trace_distance is None else repr(r.trace_distance),
                         int(r.counterexample)])
        return rows


def robustness_sweep(master_seed: int = 0, count: int = 100,
                     strength: float = 0.3, max_probe_dim: int = 8,
                     n_max: int = 2, eps_error: float = 1e-9,
                     eps_info: float = 1e-6) -> SweepReport:
    """Try ``count`` random unitary attacks and look for counterexamples.

    Probe dimensions cycle through 1..max_probe_dim so the sweep covers
    trivial and roomy probes alike.  Seeds derive from ``master_seed``
    alone, making reports reproducible.
    """
    seeds = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint32)
    config = ProtocolConfig(variant=Variant.MIRROR, n_max=n_max)
    records = []
    for i in range(count):
        probe_dim = (i % max_probe_dim) + 1
        seed = int(seeds[i])
        attack = random_attack(seed, probe_dim=probe_dim, strength=strength,
                               n_max=n_max)
        enum = RoundEnumerator(config, attack)
        report = check_conditions(attack, config, enumerator=enum)
        conditionals = eve_conditional_states(attack, config, enumerator=enum)
        dist = conditionals.trace_distance
        quiet = report.max_violation < eps_error
        informative = dist is not None and dist > eps_info
        records.append(SweepRecord(
            index=i,
            seed=seed,
            probe_dim=probe_dim,
            max_violation=report.max_violation,
            p_shared=conditionals.p_shared,
            trace_distance=dist,
            counterexample=quiet and informative,
        ))
    return SweepReport(master_seed, strength, eps_error, eps_info,
                       tuple(records))
