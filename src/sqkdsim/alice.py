"""Alice's side of the mirror protocol: reflect, or swap modes into storage.

Alice never touches a quantum measurement basis.  Her device either reflects
the incoming light unchanged (CTRL) or exchanges the contents of one or both
transmitted modes with her local, initially empty pair (SWAP-10 swaps the
mode-1 rail, SWAP-01 the mode-0 rail, SWAP-ALL both), after which she
threshold-measures whatever she captured.

This module is the two-pair specification.  On joint systems pair 0 is
Alice's storage and pair 1 the transmitted pair; tags ride along with their
photons, so every swap is an exact permutation of the truncated basis.
Rounds skip the storage pair and threshold-measure the swapped rails
(:func:`swapped_slots`) of the transmitted pair directly; the permutations
serve as the oracle of :func:`sqkdsim.robustness.measurement_cross_check`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fock import ContractViolation, FockVector, ModeSystem
from .measurement import AliceOp, MeasurementBranch, measure_pair

__all__ = [
    "ALICE_PAIR",
    "TRANSMIT_PAIR",
    "AliceOp",
    "swapped_slots",
    "swap_index_map",
    "swap_matrix",
    "apply_alice_op",
    "apply_ctrl",
    "apply_swap_10",
    "apply_swap_01",
    "apply_swap_all",
    "alice_measure",
]

ALICE_PAIR = 0
TRANSMIT_PAIR = 1

_SWAPPED_MODES = {
    AliceOp.CTRL: (),
    AliceOp.SWAP_10: (1,),
    AliceOp.SWAP_01: (0,),
    AliceOp.SWAP_ALL: (0, 1),
}


def swapped_slots(system: ModeSystem, op: AliceOp, pair: int) -> tuple[int, ...]:
    """Slots of ``pair`` on the rails ``op`` swaps, every tag, mode 0 first."""
    if op not in _SWAPPED_MODES:
        raise ValueError(f"{op} is not a mirror-protocol operation")
    return sum((system.mode_slots(pair, mode) for mode in _SWAPPED_MODES[op]), ())


@lru_cache(maxsize=None)
def swap_index_map(system: ModeSystem, op: AliceOp) -> np.ndarray:
    """Basis permutation of ``op``: entry i holds the image index of state i."""
    if system.num_pairs < 2:
        raise ValueError("mirror operations need Alice's pair and the transmitted pair")
    exchanges = list(zip(swapped_slots(system, op, ALICE_PAIR),
                         swapped_slots(system, op, TRANSMIT_PAIR)))
    image = np.empty(system.dim, dtype=np.intp)
    for i in range(system.dim):
        occ, probe = system.basis_state(i)
        moved = list(occ)
        for a, b in exchanges:
            moved[a], moved[b] = moved[b], moved[a]
        image[i] = system.basis_index(moved, probe)
    image.setflags(write=False)
    return image


@lru_cache(maxsize=None)
def swap_matrix(system: ModeSystem, op: AliceOp) -> np.ndarray:
    mat = np.zeros((system.dim, system.dim), dtype=np.complex128)
    mat[swap_index_map(system, op), np.arange(system.dim)] = 1.0
    mat.setflags(write=False)
    return mat


def _require_empty_storage(state: FockVector, atol: float = 1e-9) -> None:
    system = state.system
    stray = 0.0
    for i in np.flatnonzero(np.abs(state.amplitudes) > 1e-15):
        occ, _ = system.basis_state(int(i))
        if any(occ[s] for s in system.pair_slots(ALICE_PAIR)):
            stray += abs(state.amplitudes[i]) ** 2
    if stray > atol:
        raise ContractViolation(
            f"Alice's storage pair holds weight {stray:.3e} before her operation")


def apply_alice_op(state: FockVector, op: AliceOp) -> FockVector:
    """Act with CTRL or a SWAP on a state whose storage pair is empty."""
    _require_empty_storage(state)
    if op is AliceOp.CTRL:
        return state
    image = swap_index_map(state.system, op)
    out = np.empty_like(state.amplitudes)
    out[image] = state.amplitudes
    return FockVector(state.system, out, state.leaked)


def apply_ctrl(state: FockVector) -> FockVector:
    return apply_alice_op(state, AliceOp.CTRL)


def apply_swap_10(state: FockVector) -> FockVector:
    return apply_alice_op(state, AliceOp.SWAP_10)


def apply_swap_01(state: FockVector) -> FockVector:
    return apply_alice_op(state, AliceOp.SWAP_01)


def apply_swap_all(state: FockVector) -> FockVector:
    return apply_alice_op(state, AliceOp.SWAP_ALL)


def alice_measure(state: FockVector) -> list[MeasurementBranch]:
    """Threshold-measure Alice's storage pair (computational basis, destructive).

    Returns sub-normalized branches, one per exact captured configuration;
    residuals have her pair reset to vacuum and leave the transmitted pair
    and any probe untouched.
    """
    if state.system.num_pairs < 2:
        raise ValueError("no storage pair present")
    return measure_pair(state, ALICE_PAIR)
