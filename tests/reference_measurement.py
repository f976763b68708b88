"""The per-state reference threshold measurement, used only by tests.

Import as ``from reference_measurement import measure_pair``; pytest puts
this directory on ``sys.path`` for the test modules beside it.  Rounds
measure with stacked index maps (``sqkdsim.protocol._loss_maps`` at
survival 0); these functions group the basis by their own masks and apply
them to one :class:`~sqkdsim.fock.FockVector` at a time, sharing no map
code with the rounds.
"""
from dataclasses import dataclass

import numpy as np

from sqkdsim.fock import FockVector
from sqkdsim.measurement import PRUNE, ClickPattern


@dataclass(frozen=True, eq=False)
class MeasurementBranch:
    """One exact-occupation outcome of a threshold measurement.

    ``residual`` is sub-normalized (its squared norm equals ``probability``)
    and has the measured slots reset to vacuum: the detector keeps the
    photons.  Several branches may share a click pattern.
    """

    pattern: ClickPattern
    occupation: tuple[int, ...]
    probability: float
    residual: FockVector


def measure_slots(state: FockVector, slots: tuple[int, ...]) -> list[MeasurementBranch]:
    """Destructive threshold measurement of the modes in ``slots``.

    One branch per exact occupation of ``slots`` (counts in slot order,
    branches in tuple order of those counts) with weight above
    :data:`~sqkdsim.measurement.PRUNE`.  Each slot clicks as the mode it
    belongs to, so a pair's mode-1 rail alone yields "00" or "10".  Branch
    probabilities sum to the squared norm of ``state``, so feeding a
    sub-normalized state through keeps joint probabilities exact.
    """
    system = state.system
    amps = state.amplitudes
    slots = list(slots)
    occs, probes = system.basis_table
    emptied = occs.copy()
    emptied[:, slots] = 0
    cleared = system.index_of(emptied, probes)
    keys, group = np.unique(occs[:, slots], axis=0, return_inverse=True)
    branches = []
    for k, key in enumerate(map(tuple, keys.tolist())):
        sel = np.flatnonzero(group.ravel() == k)
        weight = float(np.vdot(amps[sel], amps[sel]).real)
        if weight <= PRUNE:
            continue
        res = np.zeros(system.dim, dtype=np.complex128)
        res[cleared[sel]] = amps[sel]
        # slot(pair, mode, tag) is (pair * 2 + mode) * tag_dim + tag
        mode1 = sum(n for n, s in zip(key, slots) if s // system.tag_dim % 2)
        pattern = ClickPattern.from_clicks(mode1 > 0, sum(key) > mode1)
        branches.append(MeasurementBranch(pattern, key, weight,
                                          FockVector(system, res, state.leaked)))
    return branches


def measure_pair(state: FockVector, pair: int) -> list[MeasurementBranch]:
    """:func:`measure_slots` on every slot of ``pair`` (computational basis)."""
    return measure_slots(state, state.system.pair_slots(pair))
