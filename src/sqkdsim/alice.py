"""Alice's side of the mirror protocol: reflect, or swap modes into storage.

Alice never touches a quantum measurement basis.  Her device either reflects
the incoming light unchanged (CTRL) or exchanges the contents of one or both
transmitted modes with her local, initially empty pair (SWAP-10 swaps the
mode-1 rail, SWAP-01 the mode-0 rail, SWAP-ALL both), after which she
threshold-measures whatever she captured.

Rounds never build her storage pair: they threshold-measure the rails each
operation swaps out (:func:`swapped_slots`) of the transmitted pair.  The
rest is the two-pair specification of the swaps, the oracle of
:func:`sqkdsim.robustness.measurement_cross_check`: on joint systems pair 0
is Alice's storage and pair 1 the transmitted pair, and tags ride along
with their photons, so every swap is an exact permutation of the basis.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fock import ContractViolation, FockVector, ModeSystem
from .measurement import AliceOp

__all__ = [
    "ALICE_PAIR",
    "TRANSMIT_PAIR",
    "AliceOp",
    "swapped_slots",
    "swap_index_map",
    "swap_matrix",
    "apply_alice_op",
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
    alice = swapped_slots(system, op, ALICE_PAIR)
    sent = swapped_slots(system, op, TRANSMIT_PAIR)
    occs, probes = system.basis_table
    moved = occs.copy()
    moved[:, alice + sent] = occs[:, sent + alice]
    image = system.index_of(moved, probes)
    image.setflags(write=False)
    return image


@lru_cache(maxsize=None)
def swap_matrix(system: ModeSystem, op: AliceOp) -> np.ndarray:
    mat = np.zeros((system.dim, system.dim), dtype=np.complex128)
    mat[swap_index_map(system, op), np.arange(system.dim)] = 1.0
    mat.setflags(write=False)
    return mat


def _require_empty_storage(state: FockVector) -> None:
    system = state.system
    stored = system.basis_table[0][:, system.pair_slots(ALICE_PAIR)].any(axis=1)
    stray = float(np.vdot(state.amplitudes[stored], state.amplitudes[stored]).real)
    if stray > 1e-9:
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
