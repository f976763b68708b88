"""Round-by-round execution of the mirror protocol and its legacy ancestor.

Bob launches one photon in the plus state each round and later measures the
returning light in a random basis.  Alice either reflects (CTRL) or, in the
mirror variant, swaps modes into her storage pair and measures it; in the
legacy variant her second option is SIFT (measure computationally, resend a
fresh photon).  Rounds whose measurement basis cannot be compared are
discarded during sifting.

Every round is first expanded into its exact branch distribution: channel
loss, Eve's two passes, Alice's detection, and Bob's detection all happen by
dense linear algebra, so branch probabilities are exact.  One pass builds
the whole variant: a 2-D stack of sub-normalized states, one row per branch
so far, goes through each stage at once (loss and measurements as cached
index maps that split every row, Eve's unitaries and Bob's Hadamard as one
matrix product each), with every operation of Alice and both of Bob's bases
side by side.  The result is one flat :class:`BranchTable` of NumPy
columns.  Its ``table_id`` column numbers the (operation, basis) blocks of
rows; within a block, rows keep the order of the nested loop loss, Alice's
outcome, loss, Bob's outcome.
A sampled run is one vectorized pass: row i of a counter-based Philox
stream keyed by the seed picks round i's operation, basis and branch, the
round is stored as a row index into that table, and the aggregates are
counts over those indices.  The exact analyses (error probabilities, Eve's
conditional states) read the same columns as masks, counts and matrix
products.

Rounds of both variants run on the attack's own space, the transmitted pair
plus Eve's probe.  Alice's storage is empty whenever Eve acts (before Alice
acts, and after her destructive measurement), so a mirror SWAP followed by
her storage measurement is a threshold measurement of the swapped rails.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property, lru_cache
from math import comb, isfinite, sqrt
from typing import Optional

import numpy as np

from .adversary import Attack
from .alice import swapped_slots
from .fock import (ContractViolation, DensityOperator, FockVector, ModeSystem,
                   _occupations, creation_operator, hadamard_matrix, trace_distance)
from .measurement import (PRUNE, AliceOp, Basis, ClickPattern, Interpretation,
                          _branch_tables, interpret_ctrl, interpret_legacy_sift,
                          interpret_swap_all, interpret_swap_x, shared_bit)

__all__ = [
    "Variant",
    "ProtocolConfig",
    "BranchTable",
    "PATTERNS",
    "INTERPRETATIONS",
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
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name.endswith("_error_threshold") and not (isfinite(v) and v >= 0):
                raise ValueError(f"{f.name} must be finite and non-negative, got {v}")

    def to_document(self) -> dict:
        return _document(self)


def _document(value):
    """JSON-ready form of a report: a dataclass maps its field names to
    their values, an enum becomes its value, containers convert elementwise."""
    if is_dataclass(value):
        return {f.name: _document(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {_document(k): _document(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_document(v) for v in value]
    return value


def _default_config(attack: Attack, variant: Variant) -> ProtocolConfig:
    """Default run parameters on the attack's tag levels and photon cap."""
    return ProtocolConfig(variant=variant, tag_dim=attack.system.tag_dim,
                          n_max=attack.system.n_max)


PATTERNS = tuple(ClickPattern)  # PATTERNS[p.code] is p
INTERPRETATIONS = tuple(Interpretation)
_CLICKS = np.array([0] + [p.n_clicks for p in PATTERNS])  # by pattern code + 1
_LABELS = ("Discarded",) + tuple(i.value for i in INTERPRETATIONS)
_SHARED = INTERPRETATIONS.index(Interpretation.SHARED_BIT)
_N_CELLS = (len(PATTERNS) + 1) * len(PATTERNS)  # (Alice code + 1, Bob code)


@dataclass(frozen=True, eq=False)
class BranchTable:
    """Exact outcomes of a round, one row each.

    Every field is a read-only column.  ``table_id`` numbers the
    (operation, basis) of a row in :func:`_table_keys` order: with n
    operations in the variant, id k < n is operation k in the computational
    basis and id n + k the same operation in the Hadamard basis.  An
    enumerator's :attr:`~RoundEnumerator.table` holds every row of the
    variant sorted by ``table_id``; :meth:`~RoundEnumerator.branches` is one
    block of it.  ``alice_pattern`` and ``bob_pattern`` hold
    :attr:`ClickPattern.code` values, indices into
    :data:`PATTERNS` (the mode-1 click is bit 1, the mode-0 click bit 0);
    ``alice_pattern`` is -1 where Alice measured nothing (CTRL).
    ``interpretation`` indexes :data:`INTERPRETATIONS` and is -1 exactly
    where sifting discards.  Bits are -1 unless the row is a SharedBit.
    Row i of ``eve_probe`` is Eve's normalized probe state after branch i;
    ``leaked`` is the weight the photon cap dropped along its path (each
    branch of a split inherits it whole).
    """

    probability: np.ndarray
    alice_pattern: np.ndarray
    bob_pattern: np.ndarray
    interpretation: np.ndarray
    discarded: np.ndarray
    alice_bit: np.ndarray
    bob_bit: np.ndarray
    eve_probe: np.ndarray
    leaked: np.ndarray
    table_id: np.ndarray

    def __len__(self) -> int:
        return len(self.probability)

    @property
    def alice_clicks(self) -> np.ndarray:
        """Detectors Alice fired per row (the announced sum; 0 for CTRL)."""
        return _CLICKS[self.alice_pattern + 1]

    @property
    def bob_clicks(self) -> np.ndarray:
        return _CLICKS[self.bob_pattern + 1]

    @property
    def labels(self) -> np.ndarray:
        """Per-row outcome codes into ``_LABELS``: 0 for Discarded."""
        return self.interpretation + 1


def _norm2(rows: np.ndarray) -> np.ndarray:
    flat = rows.view(np.float64)  # (re, im) pairs
    return np.einsum("ij,ij->i", flat, flat)


def _evolve(rows: np.ndarray, leaked: np.ndarray, matrix: np.ndarray):
    """Apply a matrix unitary up to truncation to every row; lost norm is
    recorded per row as in :func:`~sqkdsim.fock.apply_truncating_unitary`."""
    out = rows @ matrix.T
    return out, leaked + np.maximum(_norm2(rows) - _norm2(out), 0.0)


def _split_plan(dim: int, maps, keep=()) -> tuple:
    """Index maps ``(src, dst, amp)`` merged for :func:`_split`.

    Map k reads columns ``src`` of a row (a nonempty segment of the merged
    ``src`` starting at ``starts[k]``) and writes columns ``k * dim + dst``
    of one wide row.  ``amp`` is None for maps that only move amplitudes.
    Maps listed in ``keep`` are never pruned.
    """
    starts = np.cumsum([0] + [len(m[0]) for m in maps[:-1]])
    return (len(maps), np.concatenate([m[0] for m in maps]),
            np.concatenate([k * dim + m[1] for k, m in enumerate(maps)]),
            None if maps[0][2] is None else np.concatenate([m[2] for m in maps]),
            starts, np.isin(np.arange(len(maps)), keep))


def _split(rows: np.ndarray, plan: tuple):
    """Push every row through every map of a split plan.

    Output rows are ordered by (input row, map), the order of a nested loop
    over rows and then maps; rows of weight at most ``PRUNE`` are dust and
    dropped.  Returns the rows, their weights, and the input row and map
    each came from.
    """
    n_maps, src, dst, amp, starts, keep_map = plan
    n, dim = rows.shape
    moved = rows.take(src, axis=1)
    if amp is not None:
        moved *= amp
    flat = moved.view(np.float64)  # (re, im) pairs
    weight = np.add.reduceat(flat * flat, 2 * starts, axis=1)  # (row, map)
    keep = np.flatnonzero((weight > PRUNE) | keep_map)
    out = np.zeros((n, n_maps * dim), dtype=np.complex128)
    out[:, dst] = moved
    parent, which = np.divmod(keep, n_maps)
    return out.reshape(n * n_maps, dim)[keep], weight.ravel()[keep], parent, which


@lru_cache(maxsize=None)
def _measure_plan(system: ModeSystem, ops: tuple[AliceOp, ...]) -> tuple:
    """One split plan for the measurements of several operations.

    CTRL passes the state on untouched (and unpruned); a mirror SWAP
    measures the rails it swaps out; SIFT, and Bob (``None``), measure the
    whole pair.  A measurement has one map per exact occupation of the
    measured slots, which it empties.  Returns the plan and, per map, the
    index of its operation in ``ops`` and its pattern code (-1 for CTRL).
    """
    maps, op_index, codes = [], [], []
    for k, op in enumerate(ops):
        if op is AliceOp.CTRL:
            every = np.arange(system.dim)
            groups = [(None, None, every, every)]
        else:
            slots = (swapped_slots(system, op, _PAIR)
                     if op in (AliceOp.SWAP_10, AliceOp.SWAP_01, AliceOp.SWAP_ALL)
                     else system.pair_slots(_PAIR))
            groups = _branch_tables(system, slots)
        for _, pattern, sel, dst in groups:
            maps.append((sel, dst, None))
            op_index.append(k)
            codes.append(-1 if pattern is None else pattern.code)
    ctrl = [m for m, code in enumerate(codes) if code < 0]
    return (_split_plan(system.dim, maps, keep=ctrl), np.array(op_index),
            np.array(codes))


def _classify(op: AliceOp, basis: Basis, a_pat: Optional[ClickPattern],
              b_pat: ClickPattern):
    """Sifting and interpretation of one (Alice pattern, Bob pattern) cell:
    (interpretation, discarded, Alice's bit, Bob's bit)."""
    interp, a_bit, b_bit = None, None, None
    if op is AliceOp.CTRL:
        if basis is Basis.COMPUTATIONAL:
            return None, True, None, None
        interp = interpret_ctrl(b_pat)
    elif op in (AliceOp.SWAP_10, AliceOp.SWAP_01):
        if basis is Basis.HADAMARD:
            return None, True, None, None
        interp = interpret_swap_x(a_pat.n_clicks, b_pat.n_clicks)
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


@lru_cache(maxsize=None)
def _table_keys(variant: Variant) -> tuple[tuple[AliceOp, Basis], ...]:
    """The (operation, basis) of each ``table_id`` of a variant."""
    return tuple((op, basis) for basis in Basis for op in variant.operations)


@lru_cache(maxsize=256)
def _cell_lookup(variant: Variant, cells: tuple[int, ...]) -> np.ndarray:
    """:func:`_classify` of the given cells of a variant's stack.

    Cell ``table * _N_CELLS + (alice code + 1) * 4 + bob code``; its row
    holds the interpretation index, discard flag and bits, with -1 standing
    for None.  Cached per set of cells that occur, which random attacks
    mostly share.
    """
    keys = _table_keys(variant)
    lookup = np.zeros((len(keys) * _N_CELLS, 4), dtype=np.int8)
    for cell in cells:
        table, local = divmod(cell, _N_CELLS)
        a_index, b_index = divmod(local, len(PATTERNS))
        interp, disc, a_bit, b_bit = _classify(
            *keys[table], PATTERNS[a_index - 1] if a_index else None,
            PATTERNS[b_index])
        lookup[cell] = (-1 if interp is None else INTERPRETATIONS.index(interp), disc,
                        -1 if a_bit is None else a_bit, -1 if b_bit is None else b_bit)
    return lookup


class RoundEnumerator:
    """Exact branch distribution of a round for every (operation, basis).

    ``system`` is the attack's one-pair-plus-probe space for both variants.
    The first use of :attr:`table` builds every branch of every operation
    of the variant in both of Bob's bases in one pass over a stack of
    sub-normalized states, one row per branch so far: each stage maps or
    splits every row at once, and the rows of one (operation, basis) stay
    contiguous.
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
        # Bob's plus photon (tag 0) next to Eve's initial probe state.
        occs, probes = asys.basis_table
        one_photon = occs.sum(axis=1) == 1
        plus = one_photon & (occs[:, asys.slot(_PAIR, 0)] + occs[:, asys.slot(_PAIR, 1)] == 1)
        self.initial = FockVector(asys, np.where(plus, 1 / sqrt(2.0), 0.0)
                                  * attack.initial_probe[probes])

    def _loss(self, rows: np.ndarray):
        """Kraus branches of per-photon loss on the transmitted pair.

        Each branch fixes how many photons vanished from each slot; the
        environment keeps that record, so branches do not interfere.
        Returns the rows and the input row each came from.
        """
        q = self.config.channel_loss
        if q >= 1.0:
            return rows, np.arange(len(rows))
        rows, _, parent, _ = _split(rows, _split_plan(self.system.dim,
                                                      _loss_maps(self.system, q)))
        return rows, parent

    @cached_property
    def table(self) -> BranchTable:
        """Every branch of the variant, rows sorted by ``table_id``."""
        system, variant = self.system, self.config.variant
        ops = variant.operations
        # Forward pass: loss, then Eve's forward unitary.
        rows, _ = self._loss(self.initial.amplitudes[None, :])
        rows, leaked = _evolve(rows, np.zeros(len(rows)), self.attack.u_forward)

        # Alice, every operation at once; rows are then sorted by operation
        # (stably, so each operation keeps its nested-loop order).
        plan, map_op, map_code = _measure_plan(system, ops)
        rows, _, parent, which = _split(rows, plan)
        order = np.argsort(map_op[which], kind="stable")
        rows, parent, which = rows[order], parent[order], which[order]
        op_index, a_code, leaked = map_op[which], map_code[which], leaked[parent]
        if variant is Variant.LEGACY:
            # SIFT resends one fresh photon per clicked mode, tag reset to 0.
            # Nothing meets the photon cap: the measured pair is empty, and a
            # double click needs room for two photons.
            for mode in (0, 1):
                clicked = (a_code >= 0) & ((a_code >> mode) & 1 == 1)  # bit m: mode m
                rows[clicked] = rows[clicked] @ creation_operator(
                    system, system.slot(_PAIR, mode, 0)).T

        # Backward pass, then Bob in each basis: the stack is doubled, the
        # computational copy first, so rows group by (basis, operation).
        rows, leaked = _evolve(rows, leaked, self.attack.v_backward)
        rows, parent = self._loss(rows)
        rows = np.concatenate([rows, rows @ hadamard_matrix(system, _PAIR).T])
        parent = np.concatenate([parent, parent + len(op_index)])
        table_id = np.concatenate([op_index, op_index + len(ops)])[parent]
        leaked = np.concatenate([leaked, leaked])[parent]
        a_code = np.concatenate([a_code, a_code])[parent]
        plan, _, map_code = _measure_plan(system, (None,))
        rows, prob, parent, which = _split(rows, plan)
        table_id, leaked, a_code = table_id[parent], leaked[parent], a_code[parent]
        b_code = map_code[which]

        keys = _table_keys(variant)
        totals = np.bincount(table_id, weights=prob, minlength=len(keys))
        for t in np.flatnonzero(np.abs(totals - 1.0) > _PROB_ATOL).tolist():
            op, basis = keys[t]
            raise ContractViolation(
                f"round branches for ({op.value}, {basis.value}) sum to {totals[t]!r}")
        probe = rows.compress(system.basis_table[0].sum(axis=1) == 0, axis=1)  # vacuum
        mass = _norm2(probe)
        if np.any(np.abs(mass - prob) > _PROB_ATOL * np.maximum(prob, 1.0)):
            raise ContractViolation("post-measurement state not confined to vacuum")

        # Interpretation, discard flag and bits per (table, Alice pattern,
        # Bob pattern) cell.
        cells = table_id * _N_CELLS + (a_code + 1) * len(PATTERNS) + b_code
        present = tuple(np.flatnonzero(np.bincount(cells)).tolist())
        interp, disc, a_bit, b_bit = _cell_lookup(variant, present)[cells].T
        columns = (prob, a_code, b_code, interp, disc.astype(bool), a_bit, b_bit,
                   probe / np.sqrt(mass)[:, None], leaked, table_id)
        for column in columns:
            column.setflags(write=False)
        return BranchTable(*columns)

    def branches(self, op: AliceOp, basis: Basis) -> BranchTable:
        """The rows of :attr:`table` for one (operation, basis)."""
        keys = _table_keys(self.config.variant)
        if (op, basis) not in keys:
            raise ValueError(f"operation {op} not defined for {self.config.variant}")
        t = keys.index((op, basis))
        rows = slice(*self.table.table_id.searchsorted((t, t + 1)))
        return BranchTable(*(column[rows] for column in vars(self.table).values()))


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
    occs, probes = system.basis_table
    # factor[n, l]: weight of losing l of n photons, as Python floats so the
    # products below round exactly as a scalar loop would.
    factor = np.array([[comb(n, l) * q ** (n - l) * (1.0 - q) ** l if l <= n else 0.0
                        for l in range(system.n_max + 1)]
                       for n in range(system.n_max + 1)])
    maps = []
    for lost in _occupations(len(slots), system.n_max):
        coeff = np.ones(system.dim)
        for s, l in zip(slots, lost):
            coeff = coeff * factor[occs[:, s], l]
        src = np.flatnonzero(coeff != 0.0)
        if len(src):
            survived = occs[src]
            survived[:, slots] -= lost
            maps.append((src, system.index_of(survived, probes[src]), np.sqrt(coeff[src])))
    return tuple(maps)


def simulate_records(config: ProtocolConfig, attack: Attack,
                     enumerator: Optional[RoundEnumerator] = None) -> np.ndarray:
    """Row of the enumerator's :attr:`~RoundEnumerator.table` drawn for
    every round of a run, deterministic in the seed.

    Round i reads row i of ``Generator(Philox(key=rng_seed)).random((n_rounds,
    3))``: Alice's operation, Bob's basis and the branch within the block of
    that (operation, basis).  A counter-based stream puts every row at a
    fixed position, so the first n rounds of a longer run are exactly the
    rounds of a run of n.  An exact search finds the branch, equal to
    per-block ``np.searchsorted(side="right")`` (:func:`_search_blocks`).
    """
    enum = enumerator if enumerator is not None else RoundEnumerator(config, attack)
    draws = np.random.Generator(np.random.Philox(key=config.rng_seed)).random(
        (config.n_rounds, 3))
    ops = config.variant.operations
    table_id = (draws[:, 1] < config.bob_hadamard_prob) * len(ops)
    for weight in np.cumsum([config.alice_op_probs.get(op, 0.0) for op in ops])[:-1]:
        table_id += draws[:, 0] >= weight
    u_branch = draws[:, 2].copy()
    del draws
    return _search_blocks(enum.table.probability, enum.table.table_id, table_id, u_branch)


def _search_blocks(probability: np.ndarray, table_id: np.ndarray,
                   block: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row ``start + min(searchsorted(cum, u * cum[-1], side="right"), size - 1)``
    of each draw's block of rows (sharing a sorted ``table_id``; ``cum`` is its
    ``np.cumsum``), by one branchless binary search over all blocks' cumsums
    padded with their totals to a power-of-two width; exact whenever the
    probabilities are finite and non-negative.  ``u`` is overwritten by the keys."""
    bounds = table_id.searchsorted(np.arange(table_id[-1] + 2))
    sizes = np.diff(bounds)[:, None]
    col = np.arange(1 << int(sizes.max()).bit_length())  # width > every size
    cum = np.zeros((len(sizes), len(col)))
    cum[table_id, np.arange(len(table_id)) - bounds[table_id]] = probability
    cum = np.cumsum(cum, axis=1)  # the same sums as each block's own cumsum
    u *= cum[:, -1].take(block)
    flat, pos, step = cum.ravel(), block * len(col), len(col) // 2
    while step:  # take, compare, add; no step reads past column width - 2
        pos += (flat[step - 1:].take(pos, mode="clip") <= u) * step
        step //= 2
    return (bounds[:-1, None] + np.minimum(col, sizes - 1)).ravel().take(pos)


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
        return _document(self)


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
    table = enum.table
    rounds = simulate_records(config, attack, enum)
    # Rounds per row, per (operation, outcome label), then per operation.
    row_cell = table.table_id % len(ops) * len(_LABELS) + table.labels
    per_cell = np.bincount(row_cell, weights=np.bincount(rounds, minlength=len(table)),
                           minlength=len(ops) * len(_LABELS)).astype(np.intp)
    counts: dict[str, dict[str, int]] = {}
    for cell in np.flatnonzero(per_cell).tolist():
        k, label = divmod(cell, len(_LABELS))
        counts.setdefault(ops[k].value, {})[_LABELS[label]] = int(per_cell[cell])
    key_ops = ((AliceOp.SWAP_10, AliceOp.SWAP_01)
               if config.variant is Variant.MIRROR else (AliceOp.SIFT,))
    sifted_key_rounds = sum(n for op in key_ops
                            for label, n in counts.get(op.value, {}).items()
                            if label != _LABELS[0])

    ctrl_rate = _error_rate(counts, (AliceOp.CTRL,))
    swap_x_rate = _error_rate(counts, key_ops)
    swap_all_rate = (_error_rate(counts, (AliceOp.SWAP_ALL,))
                     if config.variant is Variant.MIRROR else None)

    # Shared bits in round order.
    shared = rounds[table.interpretation[rounds] == _SHARED]
    alice_bits = table.alice_bit[shared].astype(np.uint8)
    bob_bits = table.bob_bit[shared].astype(np.uint8)

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
    ops = config.variant.operations
    table = enum.table
    hadamard, op_index = np.divmod(table.table_id, len(ops))
    p_had = config.bob_hadamard_prob
    basis_weight = np.where(hadamard, p_had, 1.0 - p_had)
    mass = basis_weight * table.probability
    # Outcomes per (operation, label); a basis Bob never picks adds none,
    # not even at zero weight.
    live = basis_weight > 0.0
    cells = (op_index * len(_LABELS) + table.labels)[live]
    n_cells = len(ops) * len(_LABELS)
    per_cell = np.bincount(cells, weights=mass[live], minlength=n_cells)
    outcome: dict[AliceOp, dict[str, float]] = {op: {} for op in ops}
    for cell in np.flatnonzero(np.bincount(cells, minlength=n_cells)).tolist():
        k, label = divmod(cell, len(_LABELS))
        outcome[ops[k]][_LABELS[label]] = float(per_cell[cell])
    errors = {op: dist.get(Interpretation.ERROR.value, 0.0)
              for op, dist in outcome.items()}
    weight = mass * np.array([config.alice_op_probs.get(op, 0.0) for op in ops])[op_index]
    shared = table.interpretation == _SHARED
    p_shared = float(weight[shared].sum())
    p_mismatch = float(weight[shared & (table.alice_bit != table.bob_bit)].sum())
    return ExactStatistics(outcome, errors,
                           p_mismatch / p_shared if p_shared > 0 else None)


_PROBE_MASS_TOL = 1e-15


def _probe_mixture(table: BranchTable, w: float, rows=slice(None)) -> np.ndarray:
    """``w`` times the sum of p psi psi^dagger over the selected rows of a
    table, as one product: (w p psi)^T conj(psi)."""
    probe = table.eve_probe[rows]
    return ((w * table.probability[rows])[:, None] * probe).T @ probe.conj()


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
        config = _default_config(attack, Variant.MIRROR)
    if config.variant is not Variant.MIRROR:
        raise ValueError("conditional key-bit states are a mirror-variant analysis")
    enum = enumerator if enumerator is not None else RoundEnumerator(config, attack)
    pl = enum.system.probe_levels
    w10 = config.alice_op_probs.get(AliceOp.SWAP_10, 0.0)
    w01 = config.alice_op_probs.get(AliceOp.SWAP_01, 0.0)
    total = w10 + w01
    weights = {AliceOp.SWAP_10: 0.5, AliceOp.SWAP_01: 0.5} if total == 0 else \
        {AliceOp.SWAP_10: w10 / total, AliceOp.SWAP_01: w01 / total}
    rho = {b: np.zeros((pl, pl), dtype=np.complex128) for b in (0, 1)}
    for op, w in weights.items():
        table = enum.branches(op, Basis.COMPUTATIONAL)
        shared = table.interpretation == _SHARED
        for b in (0, 1):
            rho[b] += _probe_mixture(table, w, shared & (table.bob_bit == b))
    p_bit = {b: float(np.trace(m).real) for b, m in rho.items()}
    p_shared = p_bit[0] + p_bit[1]
    probe_space = ModeSystem(num_pairs=0, n_max=0, probe_dim=attack.system.probe_dim)
    states = {}
    for b in (0, 1):
        if p_bit[b] > _PROBE_MASS_TOL:
            op_density = DensityOperator(probe_space, rho[b] / p_bit[b])
            op_density.validate()
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
        config = _default_config(attack, Variant.LEGACY)
    if config.variant is not Variant.LEGACY:
        raise ValueError("SIFT/CTRL identification is a legacy-variant analysis")
    enum = enumerator if enumerator is not None else RoundEnumerator(config, attack)
    pl = enum.system.probe_levels
    p_had = config.bob_hadamard_prob
    probe_space = ModeSystem(num_pairs=0, n_max=0, probe_dim=attack.system.probe_dim)
    rho = {}
    for op in (AliceOp.CTRL, AliceOp.SIFT):
        mat = np.zeros((pl, pl), dtype=np.complex128)
        for basis, w in ((Basis.HADAMARD, p_had), (Basis.COMPUTATIONAL, 1.0 - p_had)):
            if w == 0.0:
                continue
            mat += _probe_mixture(enum.branches(op, basis), w)
        density = DensityOperator(probe_space, mat)
        density.validate()
        rho[op] = density
    dist = trace_distance(rho[AliceOp.CTRL], rho[AliceOp.SIFT])
    return SiftCtrlIdentification(rho[AliceOp.CTRL], rho[AliceOp.SIFT],
                                  dist, 0.5 * (1.0 + dist))
