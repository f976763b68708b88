"""Threshold detection branches and the outcome interpretation tables."""
import numpy as np
import pytest

from sqkdsim.fock import ContractViolation, FockVector, ModeSystem, hadamard_change
from sqkdsim.measurement import (AliceOp, ClickPattern, Interpretation,
                                 interpret_ctrl, interpret_legacy_sift,
                                 interpret_swap_all, interpret_swap_x, shared_bit)

from extra_states import (amplitude, basis_index, basis_state, basis_vector,
                          plus_state, single_photon)
from reference_measurement import measure_pair

SEED = 424242

PATTERNS = (ClickPattern.P00, ClickPattern.P01, ClickPattern.P10,
            ClickPattern.P11)


def pattern_distribution(branches):
    """Probability per click pattern, summed over occupation branches."""
    out = {}
    for b in branches:
        out[b.pattern] = out.get(b.pattern, 0.0) + b.probability
    return out


def test_click_pattern_geometry():
    assert ClickPattern.from_clicks(False, False) is ClickPattern.P00
    assert ClickPattern.from_clicks(False, True) is ClickPattern.P01
    assert ClickPattern.from_clicks(True, False) is ClickPattern.P10
    assert ClickPattern.from_clicks(True, True) is ClickPattern.P11
    assert ClickPattern.P01.mode0_click and not ClickPattern.P01.mode1_click
    assert ClickPattern.P10.mode1_click and not ClickPattern.P10.mode0_click
    assert [p.n_clicks for p in PATTERNS] == [0, 1, 1, 2]


def test_measure_plus_state_branches():
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=2)
    branches = measure_pair(plus_state(ms, 0), 0)
    dist = pattern_distribution(branches)
    assert dist[ClickPattern.P01] == pytest.approx(0.5)
    assert dist[ClickPattern.P10] == pytest.approx(0.5)
    for b in branches:
        # residual is sub-normalized and the measured pair is emptied
        assert b.residual.norm2 == pytest.approx(b.probability)
        occ, _ = basis_state(ms, int(np.flatnonzero(b.residual.amplitudes)[0]))
        assert occ == (0, 0)


def test_branches_resolve_occupation_not_just_pattern():
    """Same click pattern, different photon numbers: separate branches."""
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=2)
    amps = np.zeros(ms.dim, dtype=complex)
    amps[basis_index(ms, (1, 0))] = 1 / np.sqrt(2)
    amps[basis_index(ms, (2, 0))] = 1 / np.sqrt(2)
    branches = measure_pair(FockVector(ms, amps), 0)
    assert len(branches) == 2
    assert {b.occupation for b in branches} == {(1, 0), (2, 0)}
    assert all(b.pattern is ClickPattern.P01 for b in branches)
    assert pattern_distribution(branches)[ClickPattern.P01] == pytest.approx(1.0)


def test_threshold_detector_ignores_tags():
    ms = ModeSystem(num_pairs=1, tag_dim=2, n_max=2)
    state = single_photon(ms, 0, mode=0, tag=1)
    dist = pattern_distribution(measure_pair(state, 0))
    assert dist[ClickPattern.P01] == pytest.approx(1.0)


def test_hadamard_basis_measurement_of_plus():
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=2)
    dist = pattern_distribution(
        measure_pair(hadamard_change(plus_state(ms, 0), 0), 0))
    assert dist[ClickPattern.P01] == pytest.approx(1.0)
    # a computational basis state splits evenly in the rotated basis
    dist = pattern_distribution(
        measure_pair(hadamard_change(basis_vector(ms, (1, 0)), 0), 0))
    assert dist[ClickPattern.P01] == pytest.approx(0.5)
    assert dist[ClickPattern.P10] == pytest.approx(0.5)


def test_branch_probabilities_sum_to_norm():
    ms = ModeSystem(num_pairs=2, tag_dim=1, n_max=2, probe_dim=3)
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        amps = rng.standard_normal(ms.dim) + 1j * rng.standard_normal(ms.dim)
        state = FockVector(ms, amps)
        for pair in (0, 1):
            for measured in (state, hadamard_change(state, pair)):
                branches = measure_pair(measured, pair)
                total = sum(b.probability for b in branches)
                assert total == pytest.approx(state.norm2, rel=1e-12)


def test_measurement_keeps_other_pair_amplitudes():
    ms = ModeSystem(num_pairs=2, tag_dim=1, n_max=2)
    amps = np.zeros(ms.dim, dtype=complex)
    amps[basis_index(ms, (0, 1, 1, 0))] = 1.0
    branches = measure_pair(FockVector(ms, amps), 1)
    assert len(branches) == 1
    b = branches[0]
    assert b.pattern is ClickPattern.P01
    assert amplitude(b.residual, (0, 1, 0, 0)) == pytest.approx(1.0)


# Interpretation tables, written out row by row.

CTRL_TABLE = {
    ClickPattern.P00: Interpretation.LOSS,
    ClickPattern.P01: Interpretation.LEGAL,
    ClickPattern.P10: Interpretation.ERROR,
    ClickPattern.P11: Interpretation.ERROR,
}


@pytest.mark.parametrize("pattern", PATTERNS)
def test_ctrl_table(pattern):
    assert interpret_ctrl(pattern) is CTRL_TABLE[pattern]


SWAP_X_TABLE = {
    (0, 0): Interpretation.LOSS,
    (0, 1): Interpretation.SHARED_BIT,
    (0, 2): Interpretation.ERROR,
    (1, 0): Interpretation.NO_SHARED_BIT,
    (1, 1): Interpretation.ERROR,
    (1, 2): Interpretation.ERROR,
}


@pytest.mark.parametrize("sums,expected", sorted(SWAP_X_TABLE.items()))
def test_swap_x_table(sums, expected):
    assert interpret_swap_x(*sums) is expected


@pytest.mark.parametrize("bob_sum", [0, 1, 2])
def test_swap_x_double_click_at_alice_is_a_fault(bob_sum):
    """Alice's second storage mode stays vacuum; a double click there is a bug."""
    with pytest.raises(ContractViolation):
        interpret_swap_x(2, bob_sum)


def _swap_all_expected(alice, bob):
    if bob is not ClickPattern.P00:
        return Interpretation.ERROR
    if alice is ClickPattern.P00:
        return Interpretation.LOSS
    if alice is ClickPattern.P11:
        return Interpretation.ERROR
    return Interpretation.LEGAL


@pytest.mark.parametrize("alice", PATTERNS)
@pytest.mark.parametrize("bob", PATTERNS)
def test_swap_all_table(alice, bob):
    assert interpret_swap_all(alice, bob) is _swap_all_expected(alice, bob)


def _legacy_expected(alice, bob):
    if ClickPattern.P11 in (alice, bob):
        return Interpretation.ERROR
    if ClickPattern.P00 in (alice, bob):
        return Interpretation.LOSS
    return Interpretation.SHARED_BIT


@pytest.mark.parametrize("alice", PATTERNS)
@pytest.mark.parametrize("bob", PATTERNS)
def test_legacy_sift_table(alice, bob):
    assert interpret_legacy_sift(alice, bob) is _legacy_expected(alice, bob)


def test_shared_bit_assignment():
    assert shared_bit(AliceOp.SWAP_10, ClickPattern.P01) == (0, 0)
    assert shared_bit(AliceOp.SWAP_01, ClickPattern.P10) == (1, 1)
    # a photon surviving in the swapped-out mode carries mismatched bits
    assert shared_bit(AliceOp.SWAP_10, ClickPattern.P10) == (0, 1)
    assert shared_bit(AliceOp.SWAP_01, ClickPattern.P01) == (1, 0)
