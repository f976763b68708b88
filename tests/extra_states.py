"""States and ladder steps built only for tests.

Import as ``from extra_states import plus_state``; pytest puts this
directory on ``sys.path`` for the test modules beside it.
"""
from math import sqrt
from typing import Sequence

import numpy as np

from sqkdsim.fock import FockVector, ModeSystem, creation_operator


def basis_vector(system: ModeSystem, occ: Sequence[int], probe: int = 0) -> FockVector:
    amps = np.zeros(system.dim, dtype=np.complex128)
    amps[system.basis_index(occ, probe)] = 1.0
    return FockVector(system, amps)


def vacuum(system: ModeSystem, probe: int = 0) -> FockVector:
    return basis_vector(system, (0,) * system.n_slots, probe)


def normalized(state: FockVector) -> FockVector:
    """``state`` scaled to unit norm, its leaked weight kept."""
    norm = sqrt(state.norm2)
    if norm < 1e-15:
        raise ValueError("cannot normalize a (numerically) zero vector")
    return FockVector(state.system, state.amplitudes / norm, state.leaked)


def basis_state(system: ModeSystem, index: int) -> tuple[tuple[int, ...], int]:
    """The occupation tuple and probe level of basis index ``index``."""
    occs, probes = system.basis_table
    return tuple(occs[index].tolist()), int(probes[index])


def single_photon(system: ModeSystem, pair: int, mode: int, tag: int = 0,
                  probe: int = 0) -> FockVector:
    occ = [0] * system.n_slots
    occ[system.slot(pair, mode, tag)] = 1
    return basis_vector(system, occ, probe)


def plus_state(system: ModeSystem, pair: int, tag: int = 0, probe: int = 0) -> FockVector:
    """One photon in the plus mode of ``pair``: (|0,1> + |1,0>)/sqrt(2)."""
    v0 = single_photon(system, pair, 0, tag, probe)
    v1 = single_photon(system, pair, 1, tag, probe)
    return FockVector(system, (v0.amplitudes + v1.amplitudes) / sqrt(2.0))


def apply_creation(state: FockVector, slot: int) -> FockVector:
    """Add one photon in ``slot``, recording the weight lost at the cap: a
    basis state at the photon cap with n photons in ``slot`` loses n + 1
    times its weight."""
    system = state.system
    amps = state.amplitudes
    out = creation_operator(system, slot) @ amps
    occs = system.basis_table[0]
    cap = np.where(occs.sum(axis=1) < system.n_max, 0.0, occs[:, slot] + 1.0)
    lost = float(cap @ (amps.real ** 2 + amps.imag ** 2))
    return FockVector(system, out, state.leaked + lost)
