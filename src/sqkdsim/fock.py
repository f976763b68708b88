"""Truncated multimode Fock spaces with dense, exact linear algebra.

Photons live in two-mode ("dual-rail") pairs, one pair per party that can
hold light.  Every photon additionally carries a tag: an internal label such
as a frequency bin that threshold detectors ignore but that distinguishes
photons perfectly in principle.  An optional finite-dimensional probe factor
models an eavesdropper's private memory.  Amplitudes are stored densely over
all occupation configurations with at most ``n_max`` photons in total, so
every operation reduces to ordinary complex matrix algebra and probabilities
come out exact up to rounding in the inputs' float type.

Basis layout: occupations are ordered by (photon count, tuple), so the
vacuum comes first, and each occupation is followed by every probe level,
so probe levels run fastest.  :attr:`ModeSystem.basis_table` holds the
occupation row and probe level of every basis index, and
:meth:`ModeSystem.index_of` maps occupation rows and probe levels back to
basis indices; other modules use the layout only through these two.

Conventions used throughout the package:

* ``slot(pair, mode, tag)`` flattens to ``(pair * 2 + mode) * tag_dim + tag``
  where ``mode`` is the photonic qubit value (0 or 1) the mode encodes.
* A pair's occupation is written ``|m1, m0>`` with the count of the mode-1
  slot first, matching the usual ket notation for dual-rail states.
* The dual-rail Hadamard transform stores the minus-mode count in the mode-1
  slot and the plus-mode count in the mode-0 slot.
* Truncation never fails silently: one function, ``_evolve``, applies each
  matrix that may push weight past ``n_max`` and records the norm each row
  loses, in :attr:`FockVector.leaked` or a branch pass's ``leaked`` column.
  A validated attack is unitary on the truncated space and SIFT's resend
  always has room, so that column holds only rounding (about 1e-15) on the
  protocol's paths; weight reaches the cap only through a matrix that is
  not unitary there.  No report prints the column yet.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from math import comb, factorial, sqrt
from numbers import Integral, Real

import numpy as np

__all__ = [
    "ContractViolation",
    "ModeSystem",
    "FockVector",
    "DensityOperator",
    "creation_operator",
    "apply_truncating_unitary",
    "pair_mode_transform",
    "hadamard_matrix",
    "hadamard_change",
    "trace_distance",
]

class ContractViolation(RuntimeError):
    """An internal simulator invariant failed; indicates a bug, not bad data."""


def _integer(name: str, value) -> int:
    """``value`` as an int; a float or bool, which numpy would truncate or
    take as 0 or 1, is a ``ValueError`` that names the parameter."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` as a float; a bool, which a report would record as true or
    false, or anything but a real number is a ``ValueError`` that names the
    parameter."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ModeSystem:
    """Shape of a truncated Fock space.

    ``num_pairs`` two-mode pairs share a global photon budget ``n_max``.
    Every mode is replicated ``tag_dim`` times, once per tag value.
    ``probe_dim == 0`` means the system carries no probe factor; any positive
    value adjoins a probe of that dimension.  ``num_pairs == 0`` is allowed
    and describes a bare probe space.
    """

    num_pairs: int
    tag_dim: int = 1
    n_max: int = 2
    probe_dim: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _integer(f.name, getattr(self, f.name)))
        if self.num_pairs < 0 or self.tag_dim < 1 or self.n_max < 0 or self.probe_dim < 0:
            raise ValueError(f"invalid mode system {self}")

    # -- geometry ---------------------------------------------------------

    @property
    def n_slots(self) -> int:
        return self.num_pairs * 2 * self.tag_dim

    @property
    def probe_levels(self) -> int:
        """Dimension of the probe factor (1 when no probe is present)."""
        return self.probe_dim if self.probe_dim else 1

    @property
    def dim(self) -> int:
        """``len(self.occupations()) * probe_levels``, counted without listing them."""
        return comb(self.n_slots + self.n_max, self.n_max) * self.probe_levels

    def slot(self, pair: int, mode: int, tag: int = 0) -> int:
        if not (0 <= pair < self.num_pairs):
            raise ValueError(f"pair {pair} out of range for {self.num_pairs} pairs")
        if mode not in (0, 1):
            raise ValueError(f"mode must be 0 or 1, got {mode}")
        if not (0 <= tag < self.tag_dim):
            raise ValueError(f"tag {tag} out of range for tag_dim {self.tag_dim}")
        return (pair * 2 + mode) * self.tag_dim + tag

    def mode_slots(self, pair: int, mode: int) -> tuple[int, ...]:
        return tuple(self.slot(pair, mode, t) for t in range(self.tag_dim))

    def pair_slots(self, pair: int) -> tuple[int, ...]:
        return self.mode_slots(pair, 0) + self.mode_slots(pair, 1)

    # -- basis ------------------------------------------------------------

    def occupations(self) -> tuple[tuple[int, ...], ...]:
        """All occupation tuples with total count <= n_max, vacuum first."""
        return _occupations(self.n_slots, self.n_max)

    @property
    def basis_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(occupations, probes)``: row i of ``occupations`` and
        entry i of ``probes`` are the occupation and probe level of index i."""
        return _basis_table(self)[:2]

    def index_of(self, occupations, probes=0) -> np.ndarray:
        """Basis indices of occupation rows (last axis one count per slot)
        at probe levels ``probes``, broadcast against the leading axes."""
        occs = np.asarray(occupations, dtype=np.intp)
        probes = np.asarray(probes, dtype=np.intp)
        if occs.shape[-1:] != (self.n_slots,):
            raise ValueError(f"occupations need {self.n_slots} counts, got {occs.shape}")
        total = occs.sum(axis=-1)
        if ((occs < 0).any() or (total > self.n_max).any() or (occs != occupations).any()
                or (probes < 0).any() or (probes >= self.probe_levels).any()):
            raise ValueError(f"state outside the truncated basis of {self}")
        rank = _basis_table(self)[2].searchsorted(_rank_key(occs, total, self.n_max))
        return rank * self.probe_levels + probes


@lru_cache(maxsize=None)
def _occupations(n_slots: int, n_max: int) -> tuple[tuple[int, ...], ...]:
    if n_slots == 0:
        return ((),)
    occs = [(c,) + rest for c in range(n_max + 1)
            for rest in _occupations(n_slots - 1, n_max - c)]
    return tuple(sorted(occs, key=lambda o: (sum(o), o)))


def _rank_key(occs: np.ndarray, total: np.ndarray, n_max: int) -> np.ndarray:
    """Integers increasing with (photon count, tuple): the counts read as
    base-(n_max + 1) digits, behind the photon count as the leading digit;
    Python ints wherever int64 could overflow, so every key is exact."""
    base, width = n_max + 1, occs.shape[-1] + 1
    dtype = np.int64 if base ** width <= 2 ** 63 else object
    digits = base ** np.arange(width - 1, -1, -1).astype(dtype)
    return np.concatenate([total[..., None], occs], axis=-1).astype(dtype) @ digits


@lru_cache(maxsize=None)
def _basis_table(system: ModeSystem):
    """Occupation rows and probe levels of the basis, and the rank keys."""
    occs = np.array(system.occupations(), dtype=np.intp)
    keys = _rank_key(occs, occs.sum(axis=1), system.n_max)
    table = (np.repeat(occs, system.probe_levels, axis=0),
             np.tile(np.arange(system.probe_levels), len(occs)), keys)
    for column in table:
        column.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class FockVector:
    """State vector over a :class:`ModeSystem` basis.

    Vectors are immutable.  ``leaked`` accumulates the probability weight
    dropped by truncation in the operations that produced this vector; it is
    0.0 on any state built and evolved entirely within the photon budget.
    """

    system: ModeSystem
    amplitudes: np.ndarray
    leaked: float = 0.0

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=np.complex128)
        if arr.shape != (self.system.dim,):
            raise ValueError(f"expected {self.system.dim} amplitudes, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def norm2(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


# -- ladder operators -------------------------------------------------------


@lru_cache(maxsize=None)
def creation_operator(system: ModeSystem, slot: int) -> np.ndarray:
    """Dense matrix of a-dagger on ``slot``; weight above n_max is dropped:
    a basis state below the photon cap, with n photons in ``slot``, goes to
    its raised state with amplitude sqrt(n + 1)."""
    if not (0 <= slot < system.n_slots):
        raise ValueError(f"slot {slot} out of range")
    occs, probes = system.basis_table
    below = occs.sum(axis=1) < system.n_max
    raised = occs[below]
    raised[:, slot] += 1
    dst = system.index_of(raised, probes[below])
    mat = np.zeros((system.dim, system.dim), dtype=np.complex128)
    mat[dst, np.flatnonzero(below)] = np.sqrt(occs[below, slot] + 1.0)
    mat.setflags(write=False)
    return mat


def _norm2(rows: np.ndarray) -> np.ndarray:
    flat = rows.view(rows.real.dtype)  # (re, im) pairs
    return np.einsum("...j,...j->...", flat, flat)


def _evolve(rows: np.ndarray, leaked: np.ndarray, matrices: np.ndarray):
    """Apply each matrix of an (attack, d, d) stack, unitary up to truncation,
    to its slice of an (attack, row, d) stack, one product per slice; the
    norm each row loses is added to its entry of ``leaked``."""
    out = rows @ matrices.transpose(0, 2, 1)
    return out, leaked + np.maximum(_norm2(rows) - _norm2(out), 0.0)


def apply_truncating_unitary(state: FockVector, matrix: np.ndarray) -> FockVector:
    """Apply a matrix unitary up to truncation, lost norm recorded: one row's :func:`_evolve`."""
    out, leaked = _evolve(state.amplitudes[None, None], np.full((1, 1), state.leaked),
                          np.asarray(matrix)[None])
    return FockVector(state.system, out[0, 0], float(leaked[0, 0]))


# -- linear mode transforms -------------------------------------------------


def pair_mode_transform(system: ModeSystem, pair: int, u: np.ndarray) -> np.ndarray:
    """Second-quantized matrix of a 2x2 mode mixing applied to ``pair``.

    ``u[out_mode, in_mode]`` is the amplitude for a photon entering the
    pair's ``in_mode`` to be re-created in ``out_mode``.  The same mixing is
    applied within every tag sector, so tags are never superposed.  For any
    unitary ``u`` the result is unitary: mixing conserves photon number, so
    truncation never bites.
    """
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise ValueError("mode transform needs a 2x2 matrix")
    occs, probes = system.basis_table
    slots = system.pair_slots(pair)  # (mode, tag) order
    # Column i starts as state i with the pair emptied, then gains the
    # pair's photons one transformed creation operator at a time, by
    # matrix-vector products: a matrix product would round differently.
    emptied = occs.copy()
    emptied[:, slots] = 0
    cols = np.zeros((system.dim, system.dim, 1), dtype=np.complex128)
    cols[np.arange(system.dim), system.index_of(emptied, probes)] = 1.0
    for t, slot in enumerate(slots):
        mode, tag = divmod(t, system.tag_dim)
        raise_mode = (u[0, mode] * creation_operator(system, system.slot(pair, 0, tag))
                      + u[1, mode] * creation_operator(system, system.slot(pair, 1, tag)))
        for count in range(1, system.n_max + 1):
            sel = occs[:, slot] >= count
            cols[sel] = raise_mode @ cols[sel]
    factorials = np.array([factorial(m) for m in range(system.n_max + 1)], dtype=float)
    out = np.ascontiguousarray(cols[:, :, 0].T) / np.sqrt(
        factorials[occs[:, slots]].prod(axis=1))
    out.setflags(write=False)
    return out


_HADAMARD_2X2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / sqrt(2.0)


@lru_cache(maxsize=None)
def hadamard_matrix(system: ModeSystem, pair: int) -> np.ndarray:
    """Dual-rail Hadamard basis change on ``pair``.

    Re-expresses amplitudes in the plus/minus mode basis: after the
    transform the pair's mode-1 slot counts minus-mode photons and the
    mode-0 slot counts plus-mode photons.  The matrix is its own inverse.
    """
    return pair_mode_transform(system, pair, _HADAMARD_2X2)


def hadamard_change(state: FockVector, pair: int) -> FockVector:
    return apply_truncating_unitary(state, hadamard_matrix(state.system, pair))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Dense density matrix over a :class:`ModeSystem` basis."""

    system: ModeSystem
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.shape != (self.system.dim, self.system.dim):
            raise ValueError(f"expected a {self.system.dim}-dim square matrix")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def validate(self) -> None:
        """Check Hermiticity, positivity, and unit trace to 1e-10."""
        _check_densities(self.matrix[None])


def _check_densities(mats: np.ndarray, differences: np.ndarray | None = None) -> np.ndarray:
    """:meth:`DensityOperator.validate` on a stack of matrices, one stacked
    call per check, raising for the first failing matrix of the stack.

    Given a stack of Hermitian ``differences`` (a - b), returns half the
    trace norm of each, the trace distance of each pair, from the same
    ``eigvalsh`` call as the positivity check.
    """
    atol = 1e-10
    adjoint = np.conjugate(mats).swapaxes(-1, -2)
    # np.allclose(matrix, adjoint, atol=atol) per matrix, spelled out (it is slow)
    close = np.abs(mats - adjoint) <= atol + 1e-5 * np.abs(adjoint)
    if not close.all():
        raise ValueError("density matrix is not Hermitian")
    stack = mats if differences is None else np.concatenate([mats, differences])
    values = np.linalg.eigvalsh(stack.astype(np.complex128, copy=False))  # linalg's widest
    lowest = values[:len(mats), 0]  # ascending
    failed = lowest < -atol
    if failed.any():
        raise ValueError(f"density matrix has negative eigenvalue {lowest[failed][0]:.3e}")
    traces = np.trace(mats, axis1=-2, axis2=-1).real
    failed = np.abs(traces - 1.0) > atol
    if failed.any():
        raise ValueError(f"density matrix trace {traces[failed][0]} != 1")
    return _half_trace_norms(values[len(mats):])


def trace_distance(a: DensityOperator | np.ndarray, b: DensityOperator | np.ndarray) -> float:
    """Half the trace norm of (a - b); 0 = identical, 1 = perfectly distinguishable."""
    am = a.matrix if isinstance(a, DensityOperator) else np.asarray(a)
    bm = b.matrix if isinstance(b, DensityOperator) else np.asarray(b)
    if am.shape != bm.shape:
        raise ValueError("trace distance needs operators of equal dimension")
    return float(_half_trace_norms(np.linalg.eigvalsh(am - bm)))


def _half_trace_norms(eigenvalues: np.ndarray) -> np.ndarray:
    """Half the trace norm of each Hermitian matrix, from its eigenvalues."""
    return 0.5 * np.abs(eigenvalues).sum(axis=-1)
