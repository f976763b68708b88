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

import os
import queue
import threading
from collections import deque
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .adversary import Attack, _check_probes, _check_unitary, _random_attacks, attack_space
from .alice import ALICE_PAIR, apply_alice_op, swapped_slots
from .fock import FockVector, ModeSystem, _evolve, _integer, _real, hadamard_change
from .measurement import PRUNE, AliceOp, ClickPattern
from .protocol import (ProtocolConfig, RoundEnumerator, Variant, _PrunedApart, _branch_stack,
                       _cells, _document, _enumerator, _eve_conditionals, _launch,
                       _loss_maps, _measure_plan, _split)

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
    return ConditionReport(*_conditions(enum.config, enum._pass.weights)[0].tolist())


@lru_cache(maxsize=None)
def _condition_cells() -> tuple:
    """The cells of the nine sums of :func:`_conditions`, from fixed (sum,
    cell) masks over the mirror variant's cell record: one index array whose
    runs, each in code order, are the sums, and the bounds of the runs."""
    record, ops = _cells(Variant.MIRROR), Variant.MIRROR.operations
    a, b = record.alice_pattern, record.bob_pattern  # a is -1 where Alice measured nothing
    none, double = ClickPattern.P00.code, ClickPattern.P11.code
    comp = {op: (record.op == k) & ~record.hadamard for k, op in enumerate(ops)}
    # Bob's 10 and 11 set the mode-1 (minus) bit.
    masks = [(record.op == ops.index(AliceOp.CTRL)) & record.hadamard
             & (b >= ClickPattern.P10.code)]
    # The swapped-out mode is the only one Bob may legitimately click in;
    # its opposite showing up alone means the photon dodged Alice's swap.
    for op, forbidden in ((AliceOp.SWAP_10, ClickPattern.P10),
                          (AliceOp.SWAP_01, ClickPattern.P01)):
        masks += [comp[op] & (a > none) & (b != none),
                  comp[op] & ((a == double) | (b == double)),
                  comp[op] & (a == none) & (b == forbidden.code)]
    swap_all = comp[AliceOp.SWAP_ALL]
    sums, cells = np.nonzero(masks + [swap_all & (a == double), swap_all & (b != none)])
    return cells, sums.searchsorted(np.arange(10)).tolist()


def _conditions(config: ProtocolConfig, weights: np.ndarray) -> np.ndarray:
    """:func:`check_conditions` of each attack of an (attack, cell) weight
    array, as one (attack, condition) array: each condition is one masked
    cell sum per stack, over the fixed runs of :func:`_condition_cells`."""
    p_had, p_comp = config.bob_hadamard_prob, 1.0 - config.bob_hadamard_prob
    # Each run of a C-ordered (attack, cell) gather sums as its 1-D .sum().
    cells, bounds = _condition_cells()
    found = weights.take(cells, axis=1)
    sums = np.array([np.add.reduce(found[:, a:b], axis=1) for a, b in zip(bounds, bounds[1:])])
    # Bob's basis probability per term: CTRL's Hadamard, the swaps' six
    # computational, none for Alice's SWAP-ALL double, then Bob's.
    sums *= np.array([p_had] + [p_comp] * 6 + [1.0, p_comp])[:, None]
    sums[1:3] = np.maximum(np.maximum(0.0, sums[1:3]), sums[4:6])
    return sums[[0, 1, 2, 3, 6, 7, 8]].T


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
    pair = attack.system
    plus, levels = _launch(pair)  # Bob's launch, then Eve's forward unitary
    forward, _ = _evolve((plus * attack.initial_probe[levels])[None, None], np.zeros((1, 1)),
                         attack.u_forward[None])
    system = ModeSystem(2, pair.tag_dim, pair.n_max, pair.probe_dim)
    # The attack pair's basis state i, next to the empty storage pair, is
    # joint basis state embed[i]: the storage factor is exactly 1.
    pair_occs, pair_probes = pair.basis_table
    embed = system.index_of(np.concatenate([np.zeros_like(pair_occs), pair_occs], axis=1),
                            pair_probes)
    amps = np.zeros(system.dim, dtype=np.complex128)
    amps[embed] = forward[0, 0]
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
        keys = sorted(_loss_maps(pair, rails, 0.0))
        plan, _, codes = _measure_plan(pair, (op,))
        rows, weight, which = _split(forward, plan)
        embedded = np.zeros((len(which), system.dim), dtype=np.complex128)
        embedded[:, embed] = rows[0]
        branches = {}
        for row, prob, k in zip(embedded, weight[0], which):
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
                       delta: float = 0.0) -> LemmaInput:
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
    return LemmaInput(f={1: f1}, g={1: g1}, h=cvec(probe_dim))


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
_BACKLOG = 2  # chunks per thread built, or in build, and waiting for evaluation


class _Evaluation(NamedTuple):
    """What :func:`_evaluate` finds for a stack of attacks, one row each."""
    conditions: np.ndarray  # (attack, 7), in ConditionReport field order
    p_bit: np.ndarray  # (attack, bit)
    rho: np.ndarray  # (attack, bit, level, level); an absent bit's state is unused
    trace_distance: np.ndarray  # (attack,); NaN where a bit never occurs


def _evaluate(config: ProtocolConfig, system: ModeSystem, unitaries: np.ndarray,
              probes: np.ndarray) -> _Evaluation:
    """The record of an (attack, U/V, d, d) stack on ``system``: both cores
    on one branch pass, or one attack at a time, joined, if they prune apart."""
    try:
        found = _branch_stack(config, system, unitaries[:, 0], unitaries[:, 1], probes)
    except _PrunedApart:
        return _Evaluation(*map(np.concatenate, zip(*(
            _evaluate(config, system, u[None], p[None]) for u, p in zip(unitaries, probes)))))
    return _Evaluation(_conditions(config, found.weights), *_eve_conditionals(config, found))


def _blas_pinned(environ: Mapping[str, str]) -> bool:
    """Whether ``environ`` pins OpenBLAS to one thread: its own variable is
    "1", or, where that is unset, ``OMP_NUM_THREADS`` is."""
    return environ.get("OPENBLAS_NUM_THREADS", environ.get("OMP_NUM_THREADS")) == "1"


def _cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity
        return os.cpu_count() or 1


def _run_chunks(build: Callable[[int], object], evaluate: Callable[[int, object], object],
                weights: Sequence[int], helpers: int) -> list:
    """``[evaluate(i, build(i)) for i in range(len(weights))]``, the builds
    shared by the calling thread and ``helpers`` threads, every evaluation
    made by the caller.

    A build spends its time in a few large calls that release the GIL, an
    evaluation in many small calls that hold it, so two evaluations never
    run at once.  Each helper builds the heaviest unbuilt chunk; the caller
    evaluates built chunks in the order their builds report, and when none
    is waiting builds the lightest unbuilt chunk, mostly Python overhead,
    itself.  No build starts while ``_BACKLOG`` chunks per thread are built
    or in build and not yet evaluated, so memory grows with the threads, not
    with the chunks.  With no helpers this is the serial loop.

    Once the caller reads that chunk i failed, in either stage, no chunk at
    or after it in index order starts either stage; the error of the first
    failing index is raised once every helper has stopped, so a caller sees
    what the serial loop would raise.  An interrupt of the caller stops the
    helpers before their next build."""
    if not helpers:
        return [evaluate(i, build(i)) for i in range(len(weights))]
    unbuilt = deque(sorted(range(len(weights)), key=weights.__getitem__))  # lightest first
    lock, reports = threading.Lock(), queue.SimpleQueue()  # each build reports (i, item, error)
    room = threading.Semaphore(_BACKLOG * (helpers + 1))  # held by each chunk built or in build
    results, error = [None] * len(weights), None
    stop = awaited = len(weights)  # no chunk at or after stop starts; reports still to read

    def take(pop):
        with lock:
            return pop() if unbuilt else None

    def make(i, catch):
        try:
            reports.put((i, build(i), None))
        except catch as exc:
            reports.put((i, None, exc))

    def helper():
        while room.acquire() and (i := take(unbuilt.pop)) is not None:
            make(i, BaseException)  # nothing escapes a helper: the caller raises it

    started = []
    try:
        for _ in range(helpers):
            thread = threading.Thread(target=helper, daemon=True)
            thread.start()
            started.append(thread)
        while awaited:
            if reports.empty() and room.acquire(blocking=False):
                if (i := take(unbuilt.popleft)) is None:
                    room.release()
                else:
                    make(i, Exception)
            i, item, exc = reports.get()
            room.release()
            awaited -= 1
            if i >= stop:
                continue
            if exc is None:
                try:
                    results[i] = evaluate(i, item)
                    continue
                except Exception as failure:
                    exc = failure
            with lock:
                stop, error = i, exc
                kept = [j for j in unbuilt if j < stop]
                awaited -= len(unbuilt) - len(kept)
                unbuilt.clear()
                unbuilt.extend(kept)
    finally:
        with lock:
            unbuilt.clear()
        room.release(helpers)  # wake the helpers waiting for room
        for thread in started:
            thread.join()
    if error is not None:
        raise error
    return results


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
    on the whole stack, and one branch pass, one condition core and one
    Eve core evaluate it as one record of arrays, with no ``Attack`` or report
    object per seed.  Every step is per slice or per row, so each record has
    the bits of its attack evaluated alone and no record depends on stacking.
    Chunks share nothing, so where BLAS is pinned to one thread
    (``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, is "1") one thread
    per spare core builds their unitaries beside the caller, which
    evaluates every chunk (:func:`_run_chunks`); records are made in chunk
    order once all are done, so none depends on the threads either, and a
    chunk failing in either stage raises what the serial loop raises.
    """
    master_seed, count, max_probe_dim = (_integer(name, value) for name, value in (
        ("master_seed", master_seed), ("count", count), ("max_probe_dim", max_probe_dim)))
    strength, eps_error, eps_info = (_real(name, value) for name, value in (
        ("strength", strength), ("eps_error", eps_error), ("eps_info", eps_info)))
    if max_probe_dim < 1:
        raise ValueError("max_probe_dim must be at least 1")
    for name, value in (("master_seed", master_seed), ("count", count)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    if not 0.0 <= strength <= 1.0:  # NaN fails too
        raise ValueError("strength must lie in [0, 1]")
    if not all(np.isfinite(eps) and eps >= 0 for eps in (eps_error, eps_info)):
        raise ValueError("eps_error and eps_info must be finite and non-negative")
    seeds = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint32)
    config = ProtocolConfig(variant=Variant.MIRROR, n_max=n_max)
    chunks = []  # (space, attack indices), in serial order
    for probe_dim in range(1, min(count, max_probe_dim) + 1):
        system = attack_space(n_max=n_max, probe_dim=probe_dim)
        group = range(probe_dim - 1, count, max_probe_dim)
        size = max(1, _STACK_BUDGET // system.dim ** 2)
        chunks += [(system, group[start:start + size])
                   for start in range(0, len(group), size)]

    def build(k: int) -> tuple[np.ndarray, np.ndarray]:
        system, chunk = chunks[k]
        unitaries, probes = _random_attacks(seeds[chunk].tolist(), system, strength)
        _check_unitary(unitaries)  # Attack's checks, as no Attack is built
        _check_probes(system, probes)
        return unitaries, probes

    helpers = max(min(_cores(), len(chunks)) - 1, 0) if _blas_pinned(os.environ) else 0
    evaluated = _run_chunks(build, lambda k, built: _evaluate(config, chunks[k][0], *built),
                            [s.dim ** 3 * len(c) for s, c in chunks], helpers)
    records = [None] * count
    for (system, chunk), found in zip(chunks, evaluated):
        worst, dist = found.conditions.max(axis=1), found.trace_distance
        flagged = (worst < eps_error) & (dist > eps_info)  # NaN is never informative
        for i, w, p, d, flag in zip(chunk, worst.tolist(), found.p_bit.sum(axis=1).tolist(),
                                    dist.tolist(), flagged.tolist()):
            records[i] = SweepRecord(i, int(seeds[i]), system.probe_dim, w, p,
                                     None if np.isnan(d) else d, flag)
    return SweepReport(master_seed, strength, eps_error, eps_info,
                       tuple(records))
