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
side by side.  Bob's measurement empties the pair, so the moved columns of
his split are Eve's probe states.  A cell is what the parties observe of a
round (operation, basis, Alice's pattern, Bob's pattern), and sifting,
interpretation and shared bits are functions of it, read from the variant's
one cell record.  The pass keeps nothing between calls: each row carries
its cell code through the splits, the pass sorts the rows stably
into (operation, basis) blocks (within a block, rows keep the order of the
nested loop loss, Alice's outcome, loss, Bob's outcome) and sums each
cell's rows into one weight, which the conditions, the tallies and the
sampler read (round i of a run draws its operation, basis and cell from row
i of a counter-based Philox stream keyed by the seed); Eve's probe states
weigh each row by its cell.  :meth:`RoundEnumerator.branches` is the one
row view: one block of an attack's pass as a :class:`BranchTable`,
gathered from the pass and the record when read, with no cached table.
Every analysis reads its config and attack from one enumerator, which must
hold the config and attack it is passed with.

Rounds of both variants run on the attack's own space, the transmitted pair
plus Eve's probe.  Alice's storage is empty whenever Eve acts (before Alice
acts, and after her destructive measurement), so a mirror SWAP followed by
her storage measurement is a threshold measurement of the swapped rails.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property, lru_cache
from math import comb, isfinite, isnan, sqrt
from types import MappingProxyType
from typing import NamedTuple, Optional

import numpy as np

from .adversary import Attack
from .alice import swapped_slots
from .fock import (ContractViolation, ModeSystem, _check_densities, _evolve, _integer,
                   _norm2, _occupations, _real, hadamard_matrix)
from .measurement import (PRUNE, AliceOp, Basis, ClickPattern, Interpretation,
                          interpret_ctrl, interpret_legacy_sift, interpret_swap_all,
                          interpret_swap_x, shared_bit)

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


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters.

    ``channel_loss`` is the probability that a transmitted photon survives
    one channel pass (so 1.0 is a lossless channel and smaller values are
    lossier).  ``alice_op_probs`` defaults to the uniform distribution over
    the variant's operations.  Error thresholds are compared against the
    category rates after the run; exceeding any of them aborts.  A config
    is frozen, its ``alice_op_probs`` a read-only mapping, so an enumerator
    always holds the config it was built from.
    """

    variant: Variant = Variant.MIRROR
    n_rounds: int = 1000
    rng_seed: int = 0
    tag_dim: int = 1
    n_max: int = 2
    channel_loss: float = 1.0
    bob_hadamard_prob: float = 0.5
    alice_op_probs: Optional[Mapping] = None
    test_fraction: float = 0.1
    ctrl_error_threshold: float = 0.05
    swap_x_error_threshold: float = 0.05
    swap_all_error_threshold: float = 0.05
    raw_key_error_threshold: float = 0.05

    def __post_init__(self) -> None:
        def put(name, value):  # the one write of each validated field
            object.__setattr__(self, name, value)

        if not isinstance(self.variant, Variant):
            put("variant", Variant(self.variant))
        ops = self.variant.operations
        if self.alice_op_probs is None:
            probs = {op: 1.0 / len(ops) for op in ops}
        elif not isinstance(self.alice_op_probs, Mapping):
            raise ValueError(f"alice_op_probs must be a mapping, got {self.alice_op_probs!r}")
        else:
            # Both checks read "not defect <= tol", so NaN and inf fail too.
            probs = {}
            for op, p in self.alice_op_probs.items():
                op = AliceOp(op) if not isinstance(op, AliceOp) else op
                if op in probs:
                    raise ValueError(f"operation {op.value} is given twice")
                if op not in ops:
                    raise ValueError(f"{op} is not played in variant {self.variant.value}")
                probs[op] = p = _real("alice_op_probs", p)
                if not -p <= 0.0:
                    raise ValueError(
                        f"operation probabilities must be non-negative, got {p}")
            total = sum(probs.values())
            if not abs(total - 1.0) <= 1e-9:
                raise ValueError(f"operation probabilities sum to {total}, not 1")
        put("alice_op_probs", MappingProxyType(probs))
        for name in ("n_rounds", "rng_seed", "tag_dim", "n_max"):
            put(name, _integer(name, getattr(self, name)))
        if self.n_rounds < 0:
            raise ValueError("n_rounds must be non-negative")
        if not 0 <= self.rng_seed < 2**128:  # a Philox key
            raise ValueError(f"rng_seed must lie in [0, 2**128), got {self.rng_seed}")
        for name in ("channel_loss", "bob_hadamard_prob", "test_fraction"):
            v = _real(name, getattr(self, name))
            put(name, v)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.tag_dim < 1 or self.n_max < 1:
            raise ValueError("tag_dim and n_max must be at least 1")
        for f in fields(self):
            if f.name.endswith("_error_threshold"):
                v = _real(f.name, getattr(self, f.name))
                put(f.name, v)
                if not (isfinite(v) and v >= 0):
                    raise ValueError(f"{f.name} must be finite and non-negative, got {v}")

    def __reduce__(self):  # a read-only mapping does not pickle: rebuild from a dict
        values = (getattr(self, f.name) for f in fields(self))
        return ProtocolConfig, tuple(dict(v) if isinstance(v, Mapping) else v for v in values)

    def to_document(self) -> dict:
        return _document(self)


def _document(value):
    """JSON-ready form of a report: a dataclass maps its field names to
    their values, an enum becomes its value, containers convert elementwise."""
    if is_dataclass(value):
        return {f.name: _document(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Mapping):
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
    basis and id n + k the same operation in the Hadamard basis.
    :meth:`~RoundEnumerator.branches`, the one row view, gathers one such
    block from the pass.  ``alice_pattern`` and ``bob_pattern`` hold
    :attr:`ClickPattern.code` values, indices into
    :data:`PATTERNS` (the mode-1 click is bit 1, the mode-0 click bit 0);
    ``alice_pattern`` is -1 where Alice measured nothing (CTRL).
    ``interpretation`` indexes :data:`INTERPRETATIONS` and is -1 exactly
    where sifting discards.  Bits are -1 unless the row is a SharedBit.
    These three are read from the variant's cell record; this row view is
    for tests and inspection, as the analyses read cells.  Row i of
    ``eve_probe`` is Eve's normalized probe state after branch i;
    ``leaked`` is the weight the photon cap dropped along its path (each
    branch of a split inherits it whole).  A validated attack is unitary on
    the truncated space and SIFT's resend always has room, so its column
    holds only rounding; no report prints it yet.
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

    def __len__(self) -> int:
        return len(self.probability)


def _merged_plan(width: int, maps) -> tuple:
    """Index maps ``(src, dst, amp)`` merged into one split, which
    :func:`_split` pushes a stack of rows through.

    Map k reads columns ``src`` of a row (a nonempty segment of the merged
    ``src`` starting at ``starts[k]``) and writes columns ``k * width + dst``
    of one wide row, ``width`` the row width of the space.  ``dst`` is None
    for maps whose moved columns are their output rows, and ``amp`` for
    maps that only move amplitudes.
    """
    starts = np.cumsum([0] + [len(m[0]) for m in maps[:-1]])
    return (len(maps), np.concatenate([m[0] for m in maps]),
            None if maps[0][1] is None else np.concatenate(
                [k * width + m[1] for k, m in enumerate(maps)]),
            None if maps[0][2] is None else np.concatenate([m[2] for m in maps]),
            starts)


class _PrunedApart(Exception):
    """The attacks of a stack prune different rows."""


def _split(rows: np.ndarray, plan: tuple, *labels: np.ndarray) -> tuple:
    """Every row of an (attack, row, column) stack under every map of a
    split plan.  A (row, map) whose weight is at most ``PRUNE`` is dust and
    dropped, the same for every attack (else :class:`_PrunedApart`).

    Returns the live (row, map)s, as a nested loop over rows, then maps:
    their output rows and weights with a leading attack axis, each one's
    map, and each of ``labels`` (one entry per input row along its last
    axis) read at its row.  Map k writes columns ``k * width + dst`` of one
    wide row cut into rows as wide as the input's; without destinations,
    the output rows are the maps' moved columns, which must be equally many.
    """
    n_maps, src, dst, amp, starts = plan
    moved = rows.take(src, axis=2)
    if amp is not None:
        moved *= amp
    flat = moved.view(moved.real.dtype)  # (re, im) pairs
    weight = np.add.reduceat(flat * flat, 2 * starts, axis=2)  # (attack, row, map)
    live = weight > PRUNE
    if len(rows) > 1 and (live != live[0]).any():
        raise _PrunedApart
    k, n = moved.shape[:2]
    if dst is not None:
        out = np.zeros((k, n, n_maps * rows.shape[2]), dtype=moved.dtype)
        out[..., dst] = moved
        moved = out
    keep = np.flatnonzero(live[0])
    parent, maps = np.divmod(keep, n_maps)
    return (moved.reshape(k, n * n_maps, -1).take(keep, axis=1),
            weight.reshape(k, -1).take(keep, axis=1), maps,
            *(label.take(parent, axis=-1) for label in labels))


@lru_cache(maxsize=None)
def _measure_plan(system: ModeSystem, ops: tuple[AliceOp, ...]) -> tuple:
    """One split plan for the measurements of several operations.

    A threshold detector loses every photon of the slots it measures, so a
    measurement's maps are :func:`_loss_maps` at survival 0, amplitudes
    dropped (each is 1), in the tuple order of their keys: one map per
    exact occupation of the measured slots, which it empties, its click
    pattern read from that occupation.  CTRL measures no slot, so its one
    map passes the state on; a mirror SWAP measures the rails it swaps
    out; SIFT, and Bob (``None``), measure the whole pair.  SIFT's maps
    land on the light it resends there, one tag-0 photon per clicked mode.
    Bob's maps have no destinations: he empties the attack's one pair, and
    each of his maps reads one occupation's ``probe_dim`` consecutive
    indices in probe order, so its moved columns are Eve's probe state.
    Returns the plan and, per map, the index of its operation in ``ops``
    and its pattern code (-1 for CTRL).
    """
    maps, op_index, codes = [], [], []
    for k, op in enumerate(ops):
        slots = (() if op is AliceOp.CTRL else system.pair_slots(_PAIR)
                 if op in (None, AliceOp.SIFT) else swapped_slots(system, op, _PAIR))
        for key, (src, dst, _) in sorted(_loss_maps(system, slots, 0.0).items()):
            mode1 = sum(n for n, s in zip(key, slots) if s // system.tag_dim % 2)
            code = ClickPattern.from_clicks(mode1 > 0, sum(key) > mode1).code
            if op is AliceOp.SIFT:  # the emptied pair has room: the photons were there
                resent = system.basis_table[0][dst]  # a copy; code bit m: mode m clicked
                resent[:, [system.slot(_PAIR, m) for m in (0, 1) if code >> m & 1]] += 1
                dst = system.index_of(resent, system.basis_table[1][dst])
            maps.append((src, None if op is None else dst, None))
            op_index.append(k)
            codes.append(-1 if op is AliceOp.CTRL else code)
    return _merged_plan(system.dim, maps), np.array(op_index), np.array(codes)


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


class _CellRecord(NamedTuple):
    """Every cell code of a variant, ``table_id * _N_CELLS + (Alice's code +
    1) * 4 + Bob's code``, one entry per code in each read-only column.
    Columns named as in :class:`BranchTable` hold a row's value there.  The
    labels are :func:`_classify`'s, -1 standing for None and for a cell
    whose Alice pattern does not fit its operation (a pattern on CTRL, none
    on a measurement); ``marked`` cells are the ones it rejects."""
    table_id: np.ndarray  # the (operation, basis) of _table_keys
    op: np.ndarray  # index into the variant's operations
    hadamard: np.ndarray  # Bob measured in the Hadamard basis
    alice_pattern: np.ndarray  # a code, -1 where Alice measured nothing
    bob_pattern: np.ndarray
    interpretation: np.ndarray  # int8 index into INTERPRETATIONS
    alice_bit: np.ndarray  # int8
    bob_bit: np.ndarray  # int8
    marked: np.ndarray

    def basis_weight(self, p_had: float) -> np.ndarray:
        """Bob's probability of each cell's basis, Hadamard with ``p_had``."""
        return np.where(self.hadamard, p_had, 1.0 - p_had)


@lru_cache(maxsize=None)
def _cells(variant: Variant) -> _CellRecord:
    """The cell record of a variant, built once per process."""
    keys, n_ops = _table_keys(variant), len(variant.operations)
    table, local = np.divmod(np.arange(len(keys) * _N_CELLS), _N_CELLS)
    alice, bob = np.divmod(local - len(PATTERNS), len(PATTERNS))
    labels = np.full((3, len(table)), -1, dtype=np.int8)
    marked = np.zeros(len(table), dtype=bool)
    fits = (alice < 0) == (table % n_ops == variant.operations.index(AliceOp.CTRL))
    for cell in np.flatnonzero(fits).tolist():
        try:
            interp, *bits = _classify(*keys[table[cell]], (None, *PATTERNS)[alice[cell] + 1],
                                      PATTERNS[bob[cell]])
        except ContractViolation:  # Alice's click sum 2 on a single-mode swap
            marked[cell] = True
        else:
            labels[:, cell] = [-1 if interp is None else INTERPRETATIONS.index(interp),
                               *(-1 if bit is None else bit for bit in bits)]
    record = _CellRecord(table, table % n_ops, table >= n_ops, alice, bob, *labels, marked)
    for column in record:
        column.setflags(write=False)
    return record


class _Pass(NamedTuple):
    """What :func:`_branch_stack` finds for a stack of attacks: its rows
    sorted stably by ``table_id``, and the columns named as in
    :class:`BranchTable` with a leading attack axis."""
    cells: _CellRecord  # the variant's one record
    cell: np.ndarray  # each row's cell code; none marked
    probability: np.ndarray
    eve_probe: np.ndarray
    leaked: np.ndarray
    weights: np.ndarray  # (attack, cell) over every code of the record, 0 where absent


class RoundEnumerator:
    """Exact branch distribution of a round for every (operation, basis).

    ``system`` is the attack's one-pair-plus-probe space for both variants.
    The first read of a result runs the enumerator's one pass: every branch
    of every operation of the variant in both of Bob's bases, built over a
    stack of sub-normalized states, one row per branch so far, where each
    stage maps or splits every row at once.  That pass is
    :func:`_branch_stack` of a one-attack stack, the code a sweep runs on
    many attacks of one space at once; it keeps each row's cell and the
    cells' weights, which the analyses read.  :meth:`branches` is the one
    row view, one block gathered from the pass and the variant's cell
    record (:func:`_cells`) when read; no table of every row is kept.
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
    def _pass(self) -> _Pass:
        """:func:`_branch_stack` of this one attack."""
        attack = self.attack
        return _branch_stack(self.config, self.system, attack.u_forward[None],
                             attack.v_backward[None], attack.initial_probe[None])

    def branches(self, op: AliceOp, basis: Basis) -> BranchTable:
        """One (operation, basis) block of the pass's rows, gathered when
        read: the pass's columns of this attack at the block's rows, and
        each row's cell's entries in the record for the others."""
        keys = _table_keys(self.config.variant)
        if (op, basis) not in keys:
            raise ValueError(f"operation {op} not defined for {self.config.variant}")
        found, t = self._pass, keys.index((op, basis))
        rows = slice(*found.cells.table_id[found.cell].searchsorted([t, t + 1]).tolist())
        columns = [getattr(found, f.name)[0, rows] if f.name in found._fields
                   else getattr(found.cells, f.name)[found.cell[rows]]
                   for f in fields(BranchTable)]
        for column in columns:
            column.setflags(write=False)
        return BranchTable(*columns)


def _branch_stack(config: ProtocolConfig, system: ModeSystem, u_forward: np.ndarray,
                  v_backward: np.ndarray, probes: np.ndarray) -> _Pass:
    """Every branch of the variant for a stack of attacks on ``system``, given
    as (attack, d, d) unitaries and (attack, level) initial probes, as a
    :class:`_Pass` of read-only arrays.  Both variants run the same steps:
    SIFT's resend is one of Alice's maps.  Each call does all of its work,
    keeping nothing between calls: the launch rows, each split's weights,
    live mask and gather, Eve's products per slice and Bob's Hadamard, and
    the index work (each row's labels read at its parent, the sort into
    blocks, the marked-cell check), so an attack's columns have the bits of
    its own one-attack stack; every numeric check runs for every attack,
    raising for the first that fails.  A sweep passes a chunk's raw
    matrices, and :class:`RoundEnumerator` one-slice views; every column
    takes its float type from them (float64 constants widen exactly)."""
    variant, survival = config.variant, config.channel_loss
    plus, levels = _launch(system)
    rows = (plus * probes.take(levels, axis=1))[:, None]
    # Forward pass: loss, then Eve's forward unitary.
    if survival < 1.0:
        rows, *_ = _split(rows, _loss_plan(system, survival))
    rows, leaked = _evolve(rows, np.zeros(rows.shape[:2], rows.real.dtype), u_forward)

    # Alice, every operation at once; SIFT's resend is part of her split.
    # Each row carries its leaked weight and its cell code so far.
    alice_plan, map_op, alice_code = _measure_plan(system, variant.operations)
    rows, _, alice_map, leaked = _split(rows, alice_plan, leaked)
    code = map_op[alice_map] * _N_CELLS + (alice_code[alice_map] + 1) * len(PATTERNS)

    # Backward pass, then Bob in each basis, the computational copy first.
    rows, leaked = _evolve(rows, leaked, v_backward)
    if survival < 1.0:
        rows, _, _, leaked, code = _split(rows, _loss_plan(system, survival), leaked, code)
    rows = np.concatenate([rows, rows @ hadamard_matrix(system, _PAIR).T], axis=1)
    leaked = np.concatenate([leaked, leaked], axis=1)
    code = np.concatenate([code, code + len(variant.operations) * _N_CELLS])
    # Bob empties the pair, so each output row of his split is a probe state.
    bob_plan, _, bob_code = _measure_plan(system, (None,))
    probe, prob, bob_map, leaked, code = _split(rows, bob_plan, leaked, code)
    cell = code + bob_code[bob_map]
    # A stable sort groups rows by (basis, operation); each block keeps the
    # nested-loop order.
    record = _cells(variant)
    order = np.argsort(record.table_id[cell], kind="stable")
    cell = cell[order]
    if record.marked[cell].any():
        raise ContractViolation("alice sum 2 on a single-mode swap round")
    probe, prob, leaked = (column.take(order, axis=1) for column in (probe, prob, leaked))

    # Each cell's weight per attack, its rows added one by one in row order
    # (np.add.at); each block's sum per attack adds its cells.
    keys, n_cells = _table_keys(variant), len(record.table_id)
    weights = np.zeros((len(prob), n_cells), prob.dtype)
    np.add.at(weights, (np.arange(len(prob))[:, None], cell), prob)
    totals = np.add.reduce(weights.reshape(-1, _N_CELLS), axis=1)
    for t in np.flatnonzero(np.abs(totals - 1.0) > _PROB_ATOL)[:1].tolist():
        op, basis = keys[t % len(keys)]
        raise ContractViolation(
            f"round branches for ({op.value}, {basis.value}) sum to {float(totals[t])!r}")
    mass = _norm2(probe)
    found = _Pass(record, cell, prob, probe / np.sqrt(mass)[..., None], leaked, weights)
    for column in found[1:]:
        column.setflags(write=False)
    return found


@lru_cache(maxsize=None)
def _launch(system: ModeSystem) -> tuple[np.ndarray, np.ndarray]:
    """Bob's plus photon (tag 0) per basis index, and the index's probe level."""
    occs, probes = system.basis_table
    on_tag0 = occs[:, system.slot(_PAIR, 0)] + occs[:, system.slot(_PAIR, 1)] == 1
    amplitude = np.where((occs.sum(axis=1) == 1) & on_tag0, 1 / sqrt(2.0), 0.0)
    amplitude.setflags(write=False)  # shared by every enumerator on the space
    return amplitude, probes


def _loss_maps(system: ModeSystem, slots: tuple[int, ...], survival: float) -> dict:
    """Per-photon loss on ``slots`` as index maps.

    One ``(src, dst, amplitude)`` triple per lost-photon vector (photons
    lost from each slot), keyed by that vector in :func:`_occupations`
    order: basis state ``src`` keeps ``amplitude``, the square root of the
    binomial weight of that loss, and lands on ``dst``, the same state with
    those photons gone.  The map is injective, so one fancy-index
    assignment applies it.  At survival 0 a map's key is the occupation of
    ``slots`` it reads, and every amplitude is 1.
    """
    q = survival
    occs, probes = system.basis_table
    # factor[n, l]: weight of losing l of n photons, as Python floats so the
    # products below round exactly as a scalar loop would.
    factor = np.array([[comb(n, l) * q ** (n - l) * (1.0 - q) ** l if l <= n else 0.0
                        for l in range(system.n_max + 1)]
                       for n in range(system.n_max + 1)])
    maps = {}
    for lost in _occupations(len(slots), system.n_max):
        coeff = np.ones(system.dim)
        for s, l in zip(slots, lost):
            coeff = coeff * factor[occs[:, s], l]
        src = np.flatnonzero(coeff != 0.0)
        if len(src):
            survived = occs[src]
            survived[:, slots] -= np.array(lost, np.intp)  # intp even for no slots
            maps[lost] = (src, system.index_of(survived, probes[src]), np.sqrt(coeff[src]))
    return maps


@lru_cache(maxsize=128)  # bounded: a loss scan visits many survivals
def _loss_plan(system: ModeSystem, survival: float) -> tuple:
    """:func:`_loss_maps` of the transmitted pair merged into one split plan."""
    return _merged_plan(system.dim, [*_loss_maps(system, system.pair_slots(_PAIR),
                                                survival).values()])


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
    """Cell drawn for every round of a run, deterministic in the seed.  A
    given enumerator must hold ``config`` and ``attack``.

    A cell's code is ``table_id * 20 + (alice_pattern + 1) * 4 + bob_pattern``
    in the codes of :class:`BranchTable` (Alice's pattern is -1 where she
    measured nothing), whose parts :func:`_cells` records.  Round i reads
    row i of ``Generator(Philox(key=rng_seed)).random((n_rounds, 3))``:
    Alice's operation, Bob's basis and the cell within that (operation,
    basis), drawn from the cells that occur by their weights in code order.
    A counter-based stream puts every row at a fixed position, so the first
    n rounds of a longer run are exactly the rounds of a run of n.  An exact
    search finds the cell, equal to per-block ``np.searchsorted(side="right")``
    (:func:`_search_blocks`).
    """
    enum = _enumerator(attack, config, enumerator)
    found = enum._pass
    draws = np.random.Generator(np.random.Philox(key=config.rng_seed)).random(
        (config.n_rounds, 3))
    ops = config.variant.operations
    table_id = (draws[:, 1] < config.bob_hadamard_prob) * len(ops)
    for weight in np.cumsum([config.alice_op_probs.get(op, 0.0) for op in ops])[:-1]:
        table_id += draws[:, 0] >= weight
    u_cell = draws[:, 2].copy()
    del draws
    present = np.flatnonzero(found.weights[0])  # every row weighs more than PRUNE
    blocks = found.cells.table_id[present]
    return present[_search_blocks(found.weights[0, present], blocks, table_id, u_cell)]


def _search_blocks(probability: np.ndarray, table_id: np.ndarray,
                   block: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Entry ``start + min(searchsorted(cum, u * cum[-1], side="right"), size - 1)``
    of each draw's block of entries (sharing a sorted ``table_id``; ``cum`` is its
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

    Counts and error rates read one (operation, label) tally of the
    rounds' cells (:func:`_outcome_sums`), whose SharedBit cells also give
    the raw keys.  A rate is per round of the operation (discarded rounds
    stay in the denominator), so the sampled rates estimate the per-round
    detection probabilities the exact analyses report.  A rate whose
    denominator is zero is None and never triggers an abort.  In the legacy
    variant SIFT rounds fill the swap_x slot; no swap_all exists.
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


def _outcome_sums(ops, cells: _CellRecord, weights: np.ndarray) -> np.ndarray:
    """``weights``, one per code of a variant's cell record, added per
    (operation, label) in code order and their dtype: an (operation, label)
    array whose label 0 is Discarded (where absent and marked cells land)."""
    sums = np.zeros((len(ops), len(_LABELS)), weights.dtype)
    np.add.at(sums, (cells.op, cells.interpretation + 1), weights)
    return sums


def run_protocol(config: ProtocolConfig, attack: Attack,
                 enumerator: Optional[RoundEnumerator] = None) -> RunStats:
    """Sample a full run: rounds, sifting, error estimation, abort decision.
    A given enumerator must hold ``config`` and ``attack``."""
    enum = _enumerator(attack, config, enumerator)
    ops = config.variant.operations
    record = enum._pass.cells
    cells = simulate_records(config, enum.attack, enum)
    rounds = np.bincount(cells, minlength=len(record.table_id))
    tally = _outcome_sums(ops, record, rounds)
    counts = {op.value: {_LABELS[label]: n for label, n in enumerate(row) if n}
              for op, row in zip(ops, tally.tolist()) if any(row)}
    key_ops = ((AliceOp.SWAP_10, AliceOp.SWAP_01)
               if config.variant is Variant.MIRROR else (AliceOp.SIFT,))
    sifted_key_rounds = int(tally[[op in key_ops for op in ops], 1:].sum())

    def error_rate(named) -> Optional[float]:  # None without such rounds
        rows = tally[[op in named for op in ops]]
        return int(rows[:, _ERROR].sum()) / int(rows.sum()) if rows.any() else None

    ctrl_rate = error_rate((AliceOp.CTRL,))
    swap_x_rate = error_rate(key_ops)
    swap_all_rate = error_rate((AliceOp.SWAP_ALL,))

    # Shared bits in round order.
    shared = cells[record.interpretation[cells] == _SHARED]
    alice_bits = record.alice_bit[shared].astype(np.uint8)
    bob_bits = record.bob_bit[shared].astype(np.uint8)

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
    run's tally (:func:`_outcome_sums`) of basis-weighted cell weights.  A
    given enumerator must hold ``config`` and ``attack``."""
    enum = _enumerator(attack, config, enumerator)
    ops = config.variant.operations
    cells, weights = enum._pass.cells, enum._pass.weights
    basis_weight = cells.basis_weight(config.bob_hadamard_prob)
    mass = basis_weight * weights[0]
    # Outcomes per (operation, label); a basis Bob never picks adds none,
    # not even at zero weight.
    tally = _outcome_sums(ops, cells, mass)
    shown = _outcome_sums(ops, cells, (basis_weight > 0.0) & (weights[0] > 0.0)) > 0
    outcome = {op: {_LABELS[label]: float(tally[k, label])
                    for label in np.flatnonzero(shown[k]).tolist()}
               for k, op in enumerate(ops)}
    errors = dict(zip(ops, tally[:, _ERROR].tolist()))
    weight = mass * np.array([config.alice_op_probs.get(op, 0.0) for op in ops])[cells.op]
    shared = cells.interpretation == _SHARED
    p_shared = float(weight[shared].sum())
    p_mismatch = float(weight[shared & (cells.alice_bit != cells.bob_bit)].sum())
    return ExactStatistics(outcome, errors,
                           p_mismatch / p_shared if p_shared > 0 else None)


_PROBE_MASS_TOL = 1e-15


def _probe_states(found: _Pass, mix: np.ndarray) -> tuple:
    """(p, rho, trace_distance) of two probe states per attack of a pass,
    with a leading attack axis.  State k adds w p psi psi^dagger of
    every row whose cell has a nonzero weight w in row k of ``mix``, a
    (state, cell) matrix.  Each state is normalised by its trace p, and one
    :func:`~sqkdsim.fock._check_densities` call checks them all and takes
    each distance, NaN if a state is absent, from one ``eigvalsh``; ``rho``
    is returned read-only."""
    pl = found.eve_probe.shape[-1]
    rho = np.zeros((len(found.probability), 2, pl, pl), found.eve_probe.dtype)  # (attack, state)
    for k, w in enumerate(mix.take(found.cell, axis=1)):
        rows = w.nonzero()[0]
        p, probe = found.probability.take(rows, axis=1), found.eve_probe.take(rows, axis=1)
        rho[:, k] += ((w.take(rows) * p)[..., None] * probe).transpose(0, 2, 1) @ probe.conj()
    p = np.trace(rho, axis1=-2, axis2=-1).real
    present = p > _PROBE_MASS_TOL
    rho /= np.where(present, p, 1.0)[..., None, None]  # an absent state stays unused
    both = present.all(axis=1)
    dist = np.full(len(rho), np.nan)
    dist[both] = _check_densities(rho[present], rho[both, 0] - rho[both, 1])
    rho.setflags(write=False)
    return p, rho, dist


@dataclass(frozen=True)
class EveConditionals:
    """Eve's exact probe states on SharedBit rounds, keyed by Bob's key bit.

    ``p_shared`` is the SharedBit probability conditioned on Alice playing a
    single-mode swap (SWAP-10 and SWAP-01 weighted as in the config, or
    equally if it plays neither) and Bob measuring computationally.
    ``states`` maps each bit that occurs to her read-only (level, level)
    density matrix; ``trace_distance`` is None when one of them never occurs.
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
    p_bit, rho, dist = (column[0] for column in _eve_conditionals(enum.config, enum._pass))
    return EveConditionals(float(p_bit.sum()), dict(enumerate(p_bit.tolist())),
                           {b: rho[b] for b in (0, 1) if p_bit[b] > _PROBE_MASS_TOL},
                           None if isnan(dist) else float(dist))


def _eve_conditionals(config: ProtocolConfig, found: _Pass) -> tuple:
    """(p_bit, rho, trace_distance) of a pass: :func:`_probe_states`
    of the SharedBit cells of a single-mode swap in Bob's computational
    basis, weighted by the swap's config weight and split by Bob's bit."""
    w = {op: config.alice_op_probs.get(op, 0.0) for op in (AliceOp.SWAP_10, AliceOp.SWAP_01)}
    total = sum(w.values())  # 0: Alice plays neither swap, so mix them equally
    per_op = [w.get(op, 0.0) / total if total else 0.5 * (op in w)
              for op in config.variant.operations]
    # Only a single-mode swap in Bob's computational basis has SharedBit cells.
    cells = found.cells
    shared = np.array(per_op)[cells.op] * (cells.interpretation == _SHARED)
    return _probe_states(found, shared * (cells.bob_bit == np.arange(2)[:, None]))


@dataclass(frozen=True)
class SiftCtrlIdentification:
    """How well Eve's probe distinguishes SIFT from CTRL on the legacy protocol."""

    rho_ctrl: np.ndarray  # read-only, (level, level)
    rho_sift: np.ndarray
    trace_distance: float
    accuracy: float  # best single-shot guess with equal priors


def legacy_identification(attack: Attack,
                          config: Optional[ProtocolConfig] = None,
                          enumerator: Optional[RoundEnumerator] = None) -> SiftCtrlIdentification:
    """Eve's SIFT/CTRL distinction on a legacy config (default if None): her
    probe states after CTRL and after SIFT, mixing Bob's bases by their
    weights, from the core of her mirror states (:func:`_probe_states`).
    A given enumerator must hold that config and ``attack``."""
    enum = _enumerator(attack, config, enumerator, Variant.LEGACY)
    # CTRL's cells feed state 0 and SIFT's state 1, each by its basis weight.
    cells = enum._pass.cells
    mix = (cells.op == np.arange(2)[:, None]) * cells.basis_weight(enum.config.bob_hadamard_prob)
    _, rho, dist = (column[0] for column in _probe_states(enum._pass, mix))
    return SiftCtrlIdentification(*rho, float(dist), 0.5 * (1.0 + float(dist)))
