"""Alice's mirror operations as exact basis permutations."""
import numpy as np
import pytest

from sqkdsim.alice import (ALICE_PAIR, TRANSMIT_PAIR, apply_alice_op,
                           swap_index_map, swap_matrix)
from sqkdsim.fock import ContractViolation, FockVector, ModeSystem
from sqkdsim.measurement import AliceOp, ClickPattern

from extra_states import (amplitude, basis_index, basis_state, plus_state,
                          single_photon, vacuum)
from reference_measurement import measure_pair

ATOL = 1e-12

SWAPPED_MODES = {
    AliceOp.CTRL: (),
    AliceOp.SWAP_10: (1,),
    AliceOp.SWAP_01: (0,),
    AliceOp.SWAP_ALL: (0, 1),
}


def _expected_image(ms, occ, op):
    """Exchange storage and transmitted slot contents in the given modes."""
    out = list(occ)
    for mode in SWAPPED_MODES[op]:
        for tag in range(ms.tag_dim):
            a = ms.slot(ALICE_PAIR, mode, tag)
            b = ms.slot(TRANSMIT_PAIR, mode, tag)
            out[a], out[b] = out[b], out[a]
    return tuple(out)


@pytest.mark.parametrize("op", list(SWAPPED_MODES))
@pytest.mark.parametrize("tag_dim", [1, 2])
def test_swap_permutation_exhaustive(op, tag_dim):
    """Every basis state maps to the hand-computed slot exchange."""
    ms = ModeSystem(num_pairs=2, tag_dim=tag_dim, n_max=2, probe_dim=2)
    image = swap_index_map(ms, op)
    seen = set()
    for index in range(ms.dim):
        occ, probe = basis_state(ms, index)
        target = basis_index(ms, _expected_image(ms, occ, op), probe)
        assert image[index] == target
        seen.add(image[index])
    assert len(seen) == ms.dim, "permutation must be a bijection"


@pytest.mark.parametrize("op", list(SWAPPED_MODES))
def test_swap_matrix_is_unitary_involution(op):
    ms = ModeSystem(num_pairs=2, tag_dim=1, n_max=2)
    mat = swap_matrix(ms, op)
    assert np.max(np.abs(mat @ mat.conj().T - np.eye(ms.dim))) < ATOL
    assert np.max(np.abs(mat @ mat - np.eye(ms.dim))) < ATOL


def test_swap_all_is_composition_of_single_swaps():
    ms = ModeSystem(num_pairs=2, tag_dim=2, n_max=2)
    s10 = swap_matrix(ms, AliceOp.SWAP_10)
    s01 = swap_matrix(ms, AliceOp.SWAP_01)
    s_all = swap_matrix(ms, AliceOp.SWAP_ALL)
    assert np.max(np.abs(s10 @ s01 - s_all)) < ATOL
    assert np.max(np.abs(s01 @ s10 - s_all)) < ATOL


def test_ctrl_leaves_state_untouched():
    ms = ModeSystem(num_pairs=2, tag_dim=1, n_max=2)
    state = plus_state(ms, TRANSMIT_PAIR)
    out = apply_alice_op(state, AliceOp.CTRL)
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_swap_10_moves_only_mode_1():
    ms = ModeSystem(num_pairs=2, tag_dim=1, n_max=2)
    state = plus_state(ms, TRANSMIT_PAIR)
    out = apply_alice_op(state, AliceOp.SWAP_10)
    # mode-1 component moved into storage, mode-0 component stayed
    assert amplitude(out, (0, 1, 0, 0)) == pytest.approx(1 / np.sqrt(2))
    assert amplitude(out, (0, 0, 1, 0)) == pytest.approx(1 / np.sqrt(2))


def test_swap_01_moves_only_mode_0():
    ms = ModeSystem(num_pairs=2, tag_dim=1, n_max=2)
    state = plus_state(ms, TRANSMIT_PAIR)
    out = apply_alice_op(state, AliceOp.SWAP_01)
    assert amplitude(out, (1, 0, 0, 0)) == pytest.approx(1 / np.sqrt(2))
    assert amplitude(out, (0, 0, 0, 1)) == pytest.approx(1 / np.sqrt(2))


def test_swap_all_takes_everything():
    ms = ModeSystem(num_pairs=2, tag_dim=1, n_max=2)
    out = apply_alice_op(plus_state(ms, TRANSMIT_PAIR), AliceOp.SWAP_ALL)
    assert amplitude(out, (1, 0, 0, 0)) == pytest.approx(1 / np.sqrt(2))
    assert amplitude(out, (0, 1, 0, 0)) == pytest.approx(1 / np.sqrt(2))
    dist = {b.pattern: b.probability for b in measure_pair(out, ALICE_PAIR)}
    assert dist[ClickPattern.P01] == pytest.approx(0.5)
    assert dist[ClickPattern.P10] == pytest.approx(0.5)


def test_swaps_preserve_norm_on_random_states():
    ms = ModeSystem(num_pairs=2, tag_dim=2, n_max=2, probe_dim=2)
    rng = np.random.default_rng(7)
    vac_slots = ms.pair_slots(ALICE_PAIR)
    for _ in range(100):
        amps = rng.standard_normal(ms.dim) + 1j * rng.standard_normal(ms.dim)
        # confine support to states with empty storage
        for i in range(ms.dim):
            occ, _ = basis_state(ms, i)
            if any(occ[s] for s in vac_slots):
                amps[i] = 0.0
        state = FockVector(ms, amps)
        for op in SWAPPED_MODES:
            out = apply_alice_op(state, op)
            assert out.norm2 == pytest.approx(state.norm2, rel=1e-12)


def test_occupied_storage_is_rejected():
    ms = ModeSystem(num_pairs=2, tag_dim=1, n_max=2)
    bad = single_photon(ms, ALICE_PAIR, mode=0)
    for op in (AliceOp.SWAP_10, AliceOp.SWAP_01, AliceOp.SWAP_ALL):
        with pytest.raises(ContractViolation):
            apply_alice_op(bad, op)


def test_storage_tolerance_allows_numerical_dust():
    ms = ModeSystem(num_pairs=2, tag_dim=1, n_max=2)
    amps = np.array(plus_state(ms, TRANSMIT_PAIR).amplitudes)
    amps[basis_index(ms, (1, 0, 0, 0))] = 1e-8  # mass 1e-16, below threshold
    out = apply_alice_op(FockVector(ms, amps), AliceOp.SWAP_10)
    assert out is not None


def test_alice_measure_reads_storage_pair():
    ms = ModeSystem(num_pairs=2, tag_dim=1, n_max=2)
    state = apply_alice_op(plus_state(ms, TRANSMIT_PAIR), AliceOp.SWAP_ALL)
    branches = measure_pair(state, ALICE_PAIR)
    assert sum(b.probability for b in branches) == pytest.approx(1.0)
    for b in branches:
        # storage cleared after the measurement
        nz = np.flatnonzero(np.abs(b.residual.amplitudes) > 0)
        for i in nz:
            occ, _ = basis_state(ms, int(i))
            assert all(occ[s] == 0 for s in ms.pair_slots(ALICE_PAIR))


def test_swap_needs_two_pairs():
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=2)
    with pytest.raises(ValueError):
        swap_index_map(ms, AliceOp.SWAP_10)
    with pytest.raises(ValueError):
        apply_alice_op(vacuum(ms), AliceOp.SWAP_10)
