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
side by side.  Bob's measurement empties the pair, so his split writes only
Eve's probe columns, the vacuum ⊗ probe states.  The result is one flat
:class:`BranchTable` of NumPy columns.  Its ``table_id`` column numbers the
(operation, basis) blocks of rows; within a block, rows keep the order of
the nested loop loss, Alice's outcome, loss, Bob's outcome.  What the pass
does not compute from the attack's matrices (Bob's kept rows sorted into
blocks, the structural columns, block ranges and the analyses' masks) is
compiled into one layout per space, variant, survival and set of live rows,
and cached.
A sampled run is one vectorized pass: row i of a counter-based Philox
stream keyed by the seed picks round i's operation, basis and branch, the
round is stored as a row index into that table, and the aggregates are
counts over those indices.  The exact analyses read block slices of the
same columns as masks, counts and matrix products.  Every analysis reads
its config and attack from one enumerator: one passed in must hold the
config and attack it is passed with.

Rounds of both variants run on the attack's own space, the transmitted pair
plus Eve's probe.  Alice's storage is empty whenever Eve acts (before Alice
acts, and after her destructive measurement), so a mirror SWAP followed by
her storage measurement is a threshold measurement of the swapped rails.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property, lru_cache
from math import comb, isfinite, isnan, sqrt
from typing import Optional

import numpy as np

from .adversary import Attack
from .alice import swapped_slots
from .fock import (ContractViolation, DensityOperator, FockVector, ModeSystem,
                   _check_densities, _occupations, creation_operator,
                   hadamard_matrix)
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
            # Both checks read "not defect <= tol", so NaN and inf fail too.
            probs = {}
            for op, p in self.alice_op_probs.items():
                op = AliceOp(op) if not isinstance(op, AliceOp) else op
                if op not in ops:
                    raise ValueError(f"{op} is not played in variant {self.variant.value}")
                if not -p <= 0.0:
                    raise ValueError(
                        f"operation probabilities must be non-negative, got {p}")
                probs[op] = float(p)
            total = sum(probs.values())
            if not abs(total - 1.0) <= 1e-9:
                raise ValueError(f"operation probabilities sum to {total}, not 1")
            self.alice_op_probs = probs
        if self.n_rounds < 0:
            raise ValueError("n_rounds must be non-negative")
        if not 0 <= self.rng_seed < 2**128:  # a Philox key
            raise ValueError(f"rng_seed must lie in [0, 2**128), got {self.rng_seed}")
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


PATTERNS = tuple(ClickPattern)  # PATTERNS[p.code] is p
INTERPRETATIONS = tuple(Interpretation)
_LABELS = ("Discarded",) + tuple(i.value for i in INTERPRETATIONS)
_SHARED = INTERPRETATIONS.index(Interpretation.SHARED_BIT)
_ERROR = _LABELS.index(Interpretation.ERROR.value)
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
    branch of a split inherits it whole).  A validated attack is unitary on
    the truncated space and SIFT's resend always has room, so its column
    holds only rounding; no report prints it yet.  ``shared`` marks the
    SharedBit rows; the layout computes it once with the other structural
    columns.
    """

    probability: np.ndarray
    alice_pattern: np.ndarray
    bob_pattern: np.ndarray
    interpretation: np.ndarray
    alice_bit: np.ndarray
    bob_bit: np.ndarray
    eve_probe: np.ndarray
    leaked: np.ndarray
    table_id: np.ndarray
    shared: np.ndarray

    def __len__(self) -> int:
        return len(self.probability)

    @property
    def labels(self) -> np.ndarray:
        """Per-row outcome codes into ``_LABELS``: 0 for Discarded."""
        return self.interpretation + 1


def _norm2(rows: np.ndarray) -> np.ndarray:
    flat = rows.view(np.float64)  # (re, im) pairs
    return np.einsum("...j,...j->...", flat, flat)


def _evolve(rows: np.ndarray, leaked: np.ndarray, matrices: np.ndarray):
    """Apply each attack's matrix unitary up to truncation to its rows, one
    product per slice of the stack; lost norm is recorded per row as in
    :func:`~sqkdsim.fock.apply_truncating_unitary`."""
    out = rows @ matrices.transpose(0, 2, 1)
    return out, leaked + np.maximum(_norm2(rows) - _norm2(out), 0.0)


def _merged_plan(width: int, maps, keep=()) -> tuple:
    """Index maps ``(src, dst, amp)`` merged into one split, which
    :func:`_weigh` and :func:`_scatter` push a stack of rows through.

    Map k reads columns ``src`` of a row (a nonempty segment of the merged
    ``src`` starting at ``starts[k]``) and writes columns ``k * width + dst``
    of one wide row, so each output row has ``width`` columns, the plan's
    last element.  ``amp`` is None for maps that only move amplitudes.
    Maps listed in ``keep`` are never pruned.
    """
    starts = np.cumsum([0] + [len(m[0]) for m in maps[:-1]])
    return (len(maps), np.concatenate([m[0] for m in maps]),
            np.concatenate([k * width + m[1] for k, m in enumerate(maps)]),
            None if maps[0][2] is None else np.concatenate([m[2] for m in maps]),
            starts, np.isin(np.arange(len(maps)), keep), width)


class _PrunedApart(Exception):
    """The attacks of a stack prune different rows."""


def _weigh(rows: np.ndarray, plan: tuple):
    """The moved columns of every row of an (attack, row, column) stack under
    every map of a split plan, each (row, map)'s weight per attack, and the
    live (row, map) mask: weights at most ``PRUNE`` are dust and dropped, the
    same for every attack (else :class:`_PrunedApart`)."""
    _, src, _, amp, starts, keep_map, _ = plan
    moved = rows.take(src, axis=2)
    if amp is not None:
        moved *= amp
    flat = moved.view(np.float64)  # (re, im) pairs
    weight = np.add.reduceat(flat * flat, 2 * starts, axis=2)  # (attack, row, map)
    live = (weight > PRUNE) | keep_map
    if len(rows) > 1 and (live != live[0]).any():
        raise _PrunedApart
    return moved, weight, live[0]


def _scatter(moved: np.ndarray, plan: tuple, keep: np.ndarray) -> np.ndarray:
    """The output rows ``keep`` (flat (row, map) indices) of a split: map k
    writes columns ``k * width + dst`` of one wide row, cut into rows of
    ``width``, so rows are ordered as a nested loop over rows, then maps."""
    n_maps, _, dst, _, _, _, width = plan
    k, n = moved.shape[:2]
    out = np.zeros((k, n, n_maps * width), dtype=np.complex128)
    out[..., dst] = moved
    return out.reshape(k, n * n_maps, width).take(keep, axis=1)


@lru_cache(maxsize=None)
def _measure_plan(system: ModeSystem, ops: tuple[AliceOp, ...]) -> tuple:
    """One split plan for the measurements of several operations.

    CTRL passes the state on untouched (and unpruned); a mirror SWAP
    measures the rails it swaps out; SIFT, and Bob (``None``), measure the
    whole pair.  A measurement has one map per exact occupation of the
    measured slots, which it empties.  Bob's plan writes only Eve's probe
    columns: it empties the attack's one pair, so every map lands on the
    vacuum ⊗ probe indices ``0 … probe_levels - 1``.  Returns the plan and,
    per map, the index of its operation in ``ops`` and its pattern code (-1
    for CTRL).
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
    width = system.probe_levels if ops == (None,) else system.dim
    return (_merged_plan(width, maps, keep=ctrl), np.array(op_index),
            np.array(codes))


def _classify(op: AliceOp, basis: Basis, a_pat: Optional[ClickPattern],
              b_pat: ClickPattern):
    """Sifting and interpretation of one (Alice pattern, Bob pattern) cell:
    (interpretation, Alice's bit, Bob's bit), all None where sifting
    discards.  Sifting keeps Bob's Hadamard basis for CTRL and his
    computational basis for every other operation."""
    if (basis is Basis.HADAMARD) is not (op is AliceOp.CTRL):
        return None, None, None
    if op is AliceOp.CTRL:
        return interpret_ctrl(b_pat), None, None
    if op is AliceOp.SWAP_ALL:
        return interpret_swap_all(a_pat, b_pat), None, None
    if op is AliceOp.SIFT:
        interp = interpret_legacy_sift(a_pat, b_pat)
        bits = int(a_pat is ClickPattern.P10), int(b_pat is ClickPattern.P10)
    else:  # a single-mode swap
        interp = interpret_swap_x(a_pat.n_clicks, b_pat.n_clicks)
        bits = shared_bit(op, b_pat) if interp is Interpretation.SHARED_BIT else None
    return (interp, *bits) if interp is Interpretation.SHARED_BIT else (interp, None, None)


@lru_cache(maxsize=None)
def _table_keys(variant: Variant) -> tuple[tuple[AliceOp, Basis], ...]:
    """The (operation, basis) of each ``table_id`` of a variant."""
    return tuple((op, basis) for basis in Basis for op in variant.operations)


def _cell_lookup(variant: Variant, cells: np.ndarray) -> np.ndarray:
    """:func:`_classify` of the given cells of a variant's stack.

    Cell ``table * _N_CELLS + (alice code + 1) * 4 + bob code``; its row
    holds the interpretation index and bits, with -1 standing for None.
    Runs once per compiled :class:`_Layout`, on the cells that occur in it.
    """
    keys = _table_keys(variant)
    lookup = np.zeros((len(keys) * _N_CELLS, 3), dtype=np.int8)
    for cell in cells.tolist():
        table, local = divmod(cell, _N_CELLS)
        a_index, b_index = divmod(local, len(PATTERNS))
        interp, a_bit, b_bit = _classify(
            *keys[table], PATTERNS[a_index - 1] if a_index else None,
            PATTERNS[b_index])
        lookup[cell] = (-1 if interp is None else INTERPRETATIONS.index(interp),
                        -1 if a_bit is None else a_bit, -1 if b_bit is None else b_bit)
    return lookup


class RoundEnumerator:
    """Exact branch distribution of a round for every (operation, basis).

    ``system`` is the attack's one-pair-plus-probe space for both variants.
    The first use of :attr:`table` builds every branch of every operation
    of the variant in both of Bob's bases in one pass over a stack of
    sub-normalized states, one row per branch so far: each stage maps or
    splits every row at once.  That pass is :func:`_branch_stack` of a
    one-attack stack, the code a sweep runs on many attacks of one space
    at once, and its cached :class:`_Layout` holds every index the table
    and the analyses read: the gather that makes the rows of one
    (operation, basis) contiguous, the structural columns, the row range
    of each block (:attr:`blocks`) and the analyses' masks.
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

    @cached_property
    def initial(self) -> FockVector:
        """Bob's plus photon next to Eve's initial probe state."""
        plus, probes = _launch(self.system)
        return FockVector(self.system, plus * self.attack.initial_probe[probes])

    @cached_property
    def _pass(self) -> tuple:
        """The layout and one-attack stacked table of :func:`_branch_stack`."""
        attack = self.attack
        return _branch_stack(self.config, self.system, attack.u_forward[None],
                             attack.v_backward[None], attack.initial_probe[None])

    @cached_property
    def table(self) -> BranchTable:
        """Every branch of the variant, rows sorted by ``table_id``."""
        layout, stack = self._pass
        return layout.table(*(getattr(stack, name)[0] for name in _PER_ATTACK))

    @property
    def blocks(self) -> dict:
        """The row range (a slice of :attr:`table`) of each (operation, basis)."""
        return self._pass[0].blocks

    def branches(self, op: AliceOp, basis: Basis) -> BranchTable:
        """The rows of :attr:`table` for one (operation, basis) as a table of
        column views.  The analyses slice only the columns they read."""
        if (op, basis) not in _table_keys(self.config.variant):
            raise ValueError(f"operation {op} not defined for {self.config.variant}")
        rows = self.blocks[op, basis]
        return BranchTable(*(getattr(self.table, name)[rows] for name in _COLUMNS))


_COLUMNS = tuple(f.name for f in fields(BranchTable))
_PER_ATTACK = ("probability", "eve_probe", "leaked")  # the other columns are shared

_LAYOUT_BOUND = 64  # cached layouts; a sweep of 8 probe sizes keeps 8
_layouts: dict = {}


def _cached(key: tuple, build):
    """The layout cached under ``key``, built on a miss; beyond
    ``_LAYOUT_BOUND`` layouts the least recently used one is dropped."""
    layout = _layouts.pop(key, None)
    if layout is None:
        layout = build()
        while len(_layouts) >= _LAYOUT_BOUND:
            del _layouts[next(iter(_layouts))]
    _layouts[key] = layout
    return layout


class _Layout:
    """Everything of a branch pass that does not depend on the matrices,
    compiled once per (space, variant, survival, live mask of each split).

    Holds Bob's kept rows (``keep``) and each final row's index into the
    leaked column after Eve's backward pass (``leaked_parent``), both
    composed with a stable sort of the pass's rows by ``table_id``; the
    read-only columns of :class:`BranchTable` other than ``_PER_ATTACK``,
    shared by every table of the layout; and the row range of each block.
    :meth:`memo` keeps what an analysis derives from these, such as its
    masks.  Holds Alice's and Bob's ``_measure_plan`` results, whose ids
    key it.  Compiling checks Bob's plan: a destination outside its map's
    own block would land in another branch's row.
    """

    def __init__(self, system: ModeSystem, variant: Variant, alice: tuple,
                 alice_live: np.ndarray, lossy: Optional[np.ndarray], measured: tuple,
                 live: np.ndarray):
        self.system, self.alice, self.measured = system, alice, measured
        plan, _, map_code = measured
        _, src, dst, _, starts, _, width = plan
        if (dst // width != starts.searchsorted(np.arange(len(src)), "right") - 1).any():
            raise ContractViolation("post-measurement state not confined to vacuum")
        alice_plan, map_op, alice_code = alice
        which = np.flatnonzero(alice_live) % alice_plan[0]  # the map of each of Alice's rows
        parent = (np.arange(len(which)) if lossy is None
                  else np.flatnonzero(lossy) // lossy.shape[1])
        # The stack is doubled for Bob's bases, the computational copy first.
        keep = np.flatnonzero(live)
        basis, row = np.divmod(keep // plan[0], len(parent))
        table_id = map_op[which[parent[row]]] + len(variant.operations) * basis
        # A stable sort groups rows by (basis, operation); each block keeps
        # the nested-loop order.
        order = np.argsort(table_id, kind="stable")
        self.keep, self.table_id = keep[order], table_id[order]
        self.leaked_parent = parent[row[order]]  # Alice's row of each row
        self.alice_pattern = alice_code[which[self.leaked_parent]]
        self.bob_pattern = map_code[self.keep % plan[0]]
        # Interpretation and bits per (table, Alice pattern, Bob pattern) cell.
        cells = (self.table_id * _N_CELLS + (self.alice_pattern + 1) * len(PATTERNS)
                 + self.bob_pattern)
        present = np.flatnonzero(np.bincount(cells))
        self.interpretation, self.alice_bit, self.bob_bit = _cell_lookup(variant, present)[cells].T
        self.shared = self.interpretation == _SHARED
        for name in set(_COLUMNS) - set(_PER_ATTACK):
            getattr(self, name).setflags(write=False)
        keys = _table_keys(variant)
        bounds = self.table_id.searchsorted(np.arange(len(keys) + 1)).tolist()
        self.blocks = {key: slice(*bounds[t:t + 2]) for t, key in enumerate(keys)}
        self._memo = {}

    def table(self, probability: np.ndarray, eve_probe: np.ndarray,
              leaked: np.ndarray) -> BranchTable:
        """A table of this layout from its ``_PER_ATTACK`` columns."""
        return BranchTable(probability, self.alice_pattern, self.bob_pattern,
                           self.interpretation, self.alice_bit, self.bob_bit, eve_probe,
                           leaked, self.table_id, self.shared)

    def memo(self, build):
        """``build(self)``, computed once per layout."""
        value = self._memo.get(build)
        if value is None:
            value = self._memo[build] = build(self)
        return value


def _branch_stack(config: ProtocolConfig, system: ModeSystem, u_forward: np.ndarray,
                  v_backward: np.ndarray, probes: np.ndarray) -> tuple:
    """Every branch of the variant for a stack of attacks on ``system``, given
    as (attack, d, d) unitaries and (attack, level) initial probes: the
    pass's :class:`_Layout` and a table whose rows are sorted by
    ``table_id`` and whose ``_PER_ATTACK`` columns have a leading attack
    axis.  A call runs only the numeric kernels: the launch rows, each
    split's weights and live mask (the masks select the one cached layout)
    and its gather, Eve's products per slice and Bob's Hadamard, so an
    attack's columns have the bits of its own one-attack stack; every
    numeric check runs for every attack, raising for the first that
    fails.  A sweep passes a chunk's raw matrices, and
    :class:`RoundEnumerator` one-slice views of its attack's."""
    variant, survival = config.variant, config.channel_loss
    plus, levels = _launch(system)
    rows = (plus * probes.take(levels, axis=1))[:, None]
    # Forward pass: loss, then Eve's forward unitary.  This loss mask only
    # fixes how many rows reach Alice, which the shape of her mask records.
    if survival < 1.0:
        plan = _loss_plan(system, survival)
        moved, _, live = _weigh(rows, plan)
        rows = _scatter(moved, plan, np.flatnonzero(live))
    rows, leaked = _evolve(rows, np.zeros(rows.shape[:2]), u_forward)

    # Alice, every operation at once.
    alice = _measure_plan(system, variant.operations)
    moved, _, alice_live = _weigh(rows, alice[0])
    kept = np.flatnonzero(alice_live)
    rows = _scatter(moved, alice[0], kept)
    parent, which = np.divmod(kept, alice[0][0])
    leaked = leaked.take(parent, axis=1)
    if variant is Variant.LEGACY:
        # SIFT resends one fresh photon per clicked mode, tag reset to 0.
        # Nothing meets the photon cap: the measured pair is empty, and a
        # double click needs room for two photons.
        code = alice[2][which]
        for mode in (0, 1):  # bit m: mode m
            clicked = (code >= 0) & ((code >> mode) & 1 == 1)
            rows[:, clicked] = rows[:, clicked] @ creation_operator(
                system, system.slot(_PAIR, mode, 0)).T

    # Backward pass, then Bob in each basis, the computational copy first.
    rows, leaked = _evolve(rows, leaked, v_backward)
    lossy = None
    if survival < 1.0:
        plan = _loss_plan(system, survival)
        moved, _, lossy = _weigh(rows, plan)
        rows = _scatter(moved, plan, np.flatnonzero(lossy))
    rows = np.concatenate([rows, rows @ hadamard_matrix(system, _PAIR).T], axis=1)
    # Bob empties the pair, so his split writes only Eve's probe columns:
    # map k fills block k of a row.  Compiling the layout checks the plan
    # before any scatter through it, and each row's mass (two sources on
    # one column would lose some) is checked after it.
    measured = _measure_plan(system, (None,))
    moved, weight, live = _weigh(rows, measured[0])
    layout = _cached((id(alice), alice_live.tobytes(), survival,
                      None if lossy is None else lossy.tobytes(), id(measured), live.tobytes()),
                     lambda: _Layout(system, variant, alice, alice_live, lossy, measured, live))
    probe = _scatter(moved, measured[0], layout.keep)
    prob = weight.reshape(len(rows), -1).take(layout.keep, axis=1)
    leaked = leaked.take(layout.leaked_parent, axis=1)

    # Each block's sum per attack, in row order as a 1-D bincount adds.
    keys = _table_keys(variant)
    cells = np.arange(len(prob))[:, None] * len(keys) + layout.table_id
    totals = np.bincount(cells.ravel(), weights=prob.ravel(), minlength=len(prob) * len(keys))
    for t in np.flatnonzero(np.abs(totals - 1.0) > _PROB_ATOL)[:1].tolist():
        op, basis = keys[t % len(keys)]
        raise ContractViolation(
            f"round branches for ({op.value}, {basis.value}) sum to {totals[t]!r}")
    mass = _norm2(probe)
    if (np.abs(mass - prob) > _PROB_ATOL * np.maximum(prob, 1.0)).any():
        raise ContractViolation("post-measurement state not confined to vacuum")
    columns = prob, probe / np.sqrt(mass)[..., None], leaked
    for column in columns:
        column.setflags(write=False)
    return layout, layout.table(*columns)


@lru_cache(maxsize=None)
def _launch(system: ModeSystem) -> tuple[np.ndarray, np.ndarray]:
    """Bob's plus photon (tag 0) per basis index, and the index's probe level."""
    occs, probes = system.basis_table
    on_tag0 = occs[:, system.slot(_PAIR, 0)] + occs[:, system.slot(_PAIR, 1)] == 1
    amplitude = np.where((occs.sum(axis=1) == 1) & on_tag0, 1 / sqrt(2.0), 0.0)
    amplitude.setflags(write=False)  # shared by every enumerator on the space
    return amplitude, probes


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


@lru_cache(maxsize=None)
def _loss_plan(system: ModeSystem, survival: float) -> tuple:
    """:func:`_loss_maps` merged into one split plan."""
    return _merged_plan(system.dim, _loss_maps(system, survival))


def _enumerator(attack: Attack, config: Optional[ProtocolConfig],
                enumerator: Optional[RoundEnumerator],
                variant: Optional[Variant] = None) -> RoundEnumerator:
    """The enumerator an analysis reads: ``enumerator``, which must hold an
    equal config and the same attack (that object, or equal matrices and
    probe on its space), else a new one.  Config None is the default of
    ``variant`` (mirror if None); a named ``variant`` rejects the other."""
    if config is None:
        config = ProtocolConfig(variant=variant or Variant.MIRROR,
                                tag_dim=attack.system.tag_dim, n_max=attack.system.n_max)
    if variant not in (None, config.variant):
        raise ValueError(f"this analysis is defined for the {variant.value} variant")
    if enumerator is None:
        return RoundEnumerator(config, attack)
    held = enumerator.attack
    if enumerator.config != config or held is not attack and not (
            held.system == attack.system and all(
                np.array_equal(getattr(held, name), getattr(attack, name))
                for name in ("u_forward", "v_backward", "initial_probe"))):
        raise ValueError("the enumerator was built for another config or attack")
    return enumerator


def simulate_records(config: ProtocolConfig, attack: Attack,
                     enumerator: Optional[RoundEnumerator] = None) -> np.ndarray:
    """Row of the enumerator's :attr:`~RoundEnumerator.table` drawn for
    every round of a run, deterministic in the seed.  A given enumerator
    must hold ``config`` and ``attack``.

    Round i reads row i of ``Generator(Philox(key=rng_seed)).random((n_rounds,
    3))``: Alice's operation, Bob's basis and the branch within the block of
    that (operation, basis).  A counter-based stream puts every row at a
    fixed position, so the first n rounds of a longer run are exactly the
    rounds of a run of n.  An exact search finds the branch, equal to
    per-block ``np.searchsorted(side="right")`` (:func:`_search_blocks`).
    """
    enum = _enumerator(attack, config, enumerator)
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

    Counts and error rates read one (operation, label) tally of the rounds
    (:func:`_outcome_sums`).  A rate is per round of the operation (discarded
    rounds stay in the denominator), so the sampled rates estimate the
    per-round detection probabilities the exact analyses report.  A rate
    whose denominator is zero is None and never triggers an abort.  In the
    legacy variant SIFT rounds fill the swap_x slot; no swap_all exists.
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


def _outcome_sums(ops, table: BranchTable, weights: np.ndarray) -> np.ndarray:
    """``weights`` summed per (operation, label) of the rows, each cell in row
    order: an (operation, label) array whose label 0 is Discarded."""
    cells = table.table_id % len(ops) * len(_LABELS) + table.labels
    return np.bincount(cells, weights, len(ops) * len(_LABELS)).reshape(len(ops), -1)


def run_protocol(config: ProtocolConfig, attack: Attack,
                 enumerator: Optional[RoundEnumerator] = None) -> RunStats:
    """Sample a full run: rounds, sifting, error estimation, abort decision.
    A given enumerator must hold ``config`` and ``attack``."""
    enum = _enumerator(attack, config, enumerator)
    ops = config.variant.operations
    table = enum.table
    rounds = simulate_records(config, enum.attack, enum)
    per_cell = _outcome_sums(ops, table, np.bincount(rounds, minlength=len(table))).astype(int)
    counts = {op.value: {_LABELS[label]: n for label, n in enumerate(row) if n}
              for op, row in zip(ops, per_cell.tolist()) if any(row)}
    key_ops = ((AliceOp.SWAP_10, AliceOp.SWAP_01)
               if config.variant is Variant.MIRROR else (AliceOp.SIFT,))
    sifted_key_rounds = int(per_cell[[op in key_ops for op in ops], 1:].sum())

    def error_rate(named) -> Optional[float]:  # None without such rounds
        rows = per_cell[[op in named for op in ops]]
        return int(rows[:, _ERROR].sum()) / int(rows.sum()) if rows.any() else None

    ctrl_rate = error_rate((AliceOp.CTRL,))
    swap_x_rate = error_rate(key_ops)
    swap_all_rate = error_rate((AliceOp.SWAP_ALL,))

    # Shared bits in round order.
    shared = rounds[table.shared[rounds]]
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
    """Exact outcome probabilities per operation of the config's variant: a
    run's tally (:func:`_outcome_sums`) of basis-weighted branch mass.  A
    given enumerator must hold ``config`` and ``attack``."""
    enum = _enumerator(attack, config, enumerator)
    ops = config.variant.operations
    table = enum.table
    hadamard, op_index = np.divmod(table.table_id, len(ops))
    p_had = config.bob_hadamard_prob
    basis_weight = np.where(hadamard, p_had, 1.0 - p_had)
    mass = basis_weight * table.probability
    # Outcomes per (operation, label); a basis Bob never picks adds none,
    # not even at zero weight.
    per_cell = _outcome_sums(ops, table, mass)
    shown = _outcome_sums(ops, table, basis_weight > 0.0) > 0
    outcome = {op: {_LABELS[label]: float(per_cell[k, label])
                    for label in np.flatnonzero(shown[k]).tolist()}
               for k, op in enumerate(ops)}
    errors = dict(zip(ops, per_cell[:, _ERROR].tolist()))
    weight = mass * np.array([config.alice_op_probs.get(op, 0.0) for op in ops])[op_index]
    p_shared = float(weight[table.shared].sum())
    p_mismatch = float(weight[table.shared & (table.alice_bit != table.bob_bit)].sum())
    return ExactStatistics(outcome, errors,
                           p_mismatch / p_shared if p_shared > 0 else None)


_PROBE_MASS_TOL = 1e-15


def _probe_mixture(stack: BranchTable, w: float, rows: slice, mask=None) -> np.ndarray:
    """``w`` times the sum of p psi psi^dagger over the ``mask``ed rows (all
    if None) of one block of a stacked table, per attack: one product per
    slice, (w p psi)^T conj(psi)."""
    p, probe = stack.probability[:, rows], stack.eve_probe[:, rows]
    if mask is not None:
        p, probe = p.compress(mask, axis=1), probe.compress(mask, axis=1)
    return ((w * p)[..., None] * probe).transpose(0, 2, 1) @ probe.conj()


@dataclass(frozen=True)
class EveConditionals:
    """Eve's exact probe states on SharedBit rounds, keyed by Bob's key bit.

    ``p_shared`` is the SharedBit probability conditioned on Alice playing a
    single-mode swap (SWAP-10 and SWAP-01 weighted as in the config, or
    equally if it plays neither) and Bob measuring computationally.
    ``trace_distance`` is None when one of the two bit values never occurs.
    """

    p_shared: float
    p_bit: dict
    states: dict
    trace_distance: Optional[float]


def eve_conditional_states(attack: Attack,
                           config: Optional[ProtocolConfig] = None,
                           enumerator: Optional[RoundEnumerator] = None) -> EveConditionals:
    """Eve's probe states per key bit on a mirror config (default if None),
    mixing SWAP-10 and SWAP-01 rounds by their config weights, or equally if
    it plays neither, by the core a sweep runs on a stack of attacks.  A
    given enumerator must hold that config and ``attack``."""
    enum = _enumerator(attack, config, enumerator, Variant.MIRROR)
    p_bit, rho, dist = (column[0] for column in _eve_conditionals(enum.config, *enum._pass))
    probe_space = ModeSystem(num_pairs=0, n_max=0, probe_dim=attack.system.probe_dim)
    return EveConditionals(float(p_bit.sum()), dict(enumerate(p_bit.tolist())),
                           {b: DensityOperator(probe_space, rho[b]) for b in (0, 1)
                            if p_bit[b] > _PROBE_MASS_TOL}, None if isnan(dist) else float(dist))


def _eve_rows(layout: _Layout) -> tuple:
    """(operation, bit, block, row mask) of each of Eve's four mixtures: the
    SharedBit rows of a single-mode swap, computational basis, by Bob's bit."""
    found = []
    for op in (AliceOp.SWAP_10, AliceOp.SWAP_01):
        rows = layout.blocks[op, Basis.COMPUTATIONAL]
        shared, bob_bit = layout.shared[rows], layout.bob_bit[rows]
        found += [(op, b, rows, shared & (bob_bit == b)) for b in (0, 1)]
    return tuple(found)


def _eve_conditionals(config: ProtocolConfig, layout: _Layout, stack: BranchTable) -> tuple:
    """(p_bit, rho, trace_distance) of a stacked table, arrays with a leading
    attack axis, from stacked probe mixtures over the layout's row masks
    (found once per layout): every state is normalised in one call, and one
    :func:`~sqkdsim.fock._check_densities` call checks them all and takes
    every trace distance, NaN if a bit is absent, from one ``eigvalsh``."""
    w = {op: config.alice_op_probs.get(op, 0.0) for op in (AliceOp.SWAP_10, AliceOp.SWAP_01)}
    total = sum(w.values())  # 0: Alice plays neither swap, so mix them equally
    pl = layout.system.probe_levels
    rho = np.zeros((len(stack.probability), 2, pl, pl), dtype=np.complex128)  # (attack, bit)
    for op, b, rows, mask in layout.memo(_eve_rows):
        rho[:, b] += _probe_mixture(stack, w[op] / total if total else 0.5, rows, mask)
    p_bit = np.trace(rho, axis1=-2, axis2=-1).real
    present = p_bit > _PROBE_MASS_TOL
    rho /= np.where(present, p_bit, 1.0)[..., None, None]  # an absent state stays unused
    both = present.all(axis=1)
    dist = np.full(len(rho), np.nan)
    dist[both] = _check_densities(rho[present], rho[both, 0] - rho[both, 1])
    return p_bit, rho, dist


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
    """Eve's SIFT/CTRL distinction on a legacy config (default if None), both
    states checked, and their distance taken, by one ``_check_densities`` call.
    A given enumerator must hold that config and ``attack``."""
    enum = _enumerator(attack, config, enumerator, Variant.LEGACY)
    layout, stack = enum._pass
    pl = enum.system.probe_levels
    p_had = enum.config.bob_hadamard_prob
    probe_space = ModeSystem(num_pairs=0, n_max=0, probe_dim=attack.system.probe_dim)
    rho = np.zeros((2, pl, pl), dtype=np.complex128)  # CTRL, SIFT
    for k, op in enumerate((AliceOp.CTRL, AliceOp.SIFT)):
        for basis, w in ((Basis.HADAMARD, p_had), (Basis.COMPUTATIONAL, 1.0 - p_had)):
            rho[k] += _probe_mixture(stack, w, layout.blocks[op, basis])[0]
    dist = float(_check_densities(rho, rho[:1] - rho[1:])[0])
    return SiftCtrlIdentification(DensityOperator(probe_space, rho[0]),
                                  DensityOperator(probe_space, rho[1]), dist, 0.5 * (1.0 + dist))
