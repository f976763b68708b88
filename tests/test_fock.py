"""Truncated Fock space: layout, ladders, basis changes, density tools."""
import numpy as np
import pytest

from sqkdsim.fock import (ContractViolation, DensityOperator, FockVector,
                          ModeSystem, annihilation_operator,
                          apply_truncating_unitary, basis_vector,
                          creation_operator, hadamard_change, hadamard_matrix,
                          outer, partial_trace, plus_state, single_photon,
                          tensor, trace_distance, vacuum)

SEED = 20240811


def test_slot_layout():
    ms = ModeSystem(num_pairs=2, tag_dim=3, n_max=2)
    assert ms.n_slots == 12
    # mode-0 slots of a pair come right before its mode-1 slots
    assert ms.pair_slots(0) == (0, 1, 2, 3, 4, 5)
    assert ms.slot(0, 0, 2) == 2
    assert ms.slot(0, 1, 0) == 3
    assert ms.slot(1, 0, 0) == 6
    with pytest.raises(ValueError):
        ms.slot(2, 0, 0)
    with pytest.raises(ValueError):
        ms.slot(0, 1, 3)


def test_occupation_ordering_and_dim():
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=2)
    occs = ms.occupations()
    assert occs[0] == (0, 0)
    totals = [sum(o) for o in occs]
    assert totals == sorted(totals), "occupations are grouped by photon count"
    assert len(occs) == 6  # 1 vacuum + 2 singles + 3 doubles
    assert ms.dim == 6
    with_probe = ModeSystem(num_pairs=1, tag_dim=1, n_max=2, probe_dim=5)
    assert with_probe.dim == 30


def test_basis_index_round_trip():
    ms = ModeSystem(num_pairs=2, tag_dim=2, n_max=2, probe_dim=3)
    for index in range(ms.dim):
        occ, probe = ms.basis_state(index)
        assert ms.basis_index(occ, probe) == index


def test_ladder_operators_are_adjoint():
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=3)
    a_up = creation_operator(ms, 0)
    a_dn = annihilation_operator(ms, 0)
    assert np.allclose(a_dn, a_up.conj().T)
    # a† a counts photons below the cutoff
    number = a_up @ a_dn
    for i in range(ms.dim):
        occ, _ = ms.basis_state(i)
        assert number[i, i] == pytest.approx(occ[0])


def test_creation_matrix_elements():
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=3)
    a_up = creation_operator(ms, 1)
    src = ms.basis_index((0, 1))
    dst = ms.basis_index((0, 2))
    assert a_up[dst, src] == pytest.approx(np.sqrt(2))


def test_single_photon_and_plus_state():
    ms = ModeSystem(num_pairs=1, tag_dim=2, n_max=2)
    one = single_photon(ms, 0, mode=1, tag=1)
    assert one.norm2 == pytest.approx(1.0)
    assert one.amplitude((0, 0, 0, 1)) == pytest.approx(1.0)
    plus = plus_state(ms, 0, tag=0)
    assert plus.amplitude((1, 0, 0, 0)) == pytest.approx(1 / np.sqrt(2))
    assert plus.amplitude((0, 0, 1, 0)) == pytest.approx(1 / np.sqrt(2))


def test_hadamard_matrix_is_unitary_and_involutive():
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=2)
    had = hadamard_matrix(ms, 0)
    assert np.allclose(had @ had.conj().T, np.eye(ms.dim), atol=1e-12)
    assert np.allclose(had @ had, np.eye(ms.dim), atol=1e-12)


# Hand-computed two-photon expansions in the rotated basis.  Occupation
# tuples are slot-ordered (mode 0 first).  The rotated mode operators are
# D0 = (a0 + a1)/sqrt(2) and D1 = (a0 - a1)/sqrt(2), so e.g.
# |0,2> = a1^2/sqrt(2)|vac> maps to D1^2/sqrt(2)|vac>.
TWO_PHOTON_EXPANSIONS = [
    ((0, 2), {(2, 0): 0.5, (1, 1): -1 / np.sqrt(2), (0, 2): 0.5}),
    ((2, 0), {(2, 0): 0.5, (1, 1): 1 / np.sqrt(2), (0, 2): 0.5}),
    ((1, 1), {(2, 0): 1 / np.sqrt(2), (0, 2): -1 / np.sqrt(2)}),
]


@pytest.mark.parametrize("occ,expected", TWO_PHOTON_EXPANSIONS)
def test_hadamard_two_photon_expansion(occ, expected):
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=2)
    rotated = hadamard_change(basis_vector(ms, occ), 0)
    for out_occ in ms.occupations():
        want = expected.get(out_occ, 0.0)
        assert rotated.amplitude(out_occ) == pytest.approx(want, abs=1e-10)


def test_hadamard_single_photon_expansion():
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=2)
    rotated = hadamard_change(basis_vector(ms, (1, 0)), 0)
    assert rotated.amplitude((1, 0)) == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    assert rotated.amplitude((0, 1)) == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    rotated = hadamard_change(basis_vector(ms, (0, 1)), 0)
    assert rotated.amplitude((1, 0)) == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    assert rotated.amplitude((0, 1)) == pytest.approx(-1 / np.sqrt(2), abs=1e-10)


def test_plus_state_rotates_to_single_plus_photon():
    """The launched state is the +1 eigenmode: it lands entirely in mode 0."""
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=2)
    rotated = hadamard_change(plus_state(ms, 0), 0)
    assert rotated.amplitude((1, 0)) == pytest.approx(1.0, abs=1e-12)


def test_hadamard_norm_and_involution_random():
    """Basis change preserves norm and squares to identity on random states."""
    ms = ModeSystem(num_pairs=2, tag_dim=1, n_max=2, probe_dim=2)
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        amps = rng.standard_normal(ms.dim) + 1j * rng.standard_normal(ms.dim)
        state = FockVector(ms, amps).normalized()
        rotated = hadamard_change(state, 1)
        assert rotated.norm2 == pytest.approx(1.0, abs=1e-12)
        back = hadamard_change(rotated, 1)
        assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-12)


def test_truncating_unitary_tracks_leak():
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=2)
    # a beam splitter on a two-photon state keeps everything below cutoff
    state = basis_vector(ms, (1, 1))
    rotated = hadamard_change(state, 0)
    assert rotated.leaked == pytest.approx(0.0, abs=1e-12)


def test_truncating_unitary_records_dropped_weight():
    """A unitary cut off at the top photon sector sheds tracked mass."""
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=2, probe_dim=3)
    rng = np.random.default_rng(SEED)
    a = rng.standard_normal((ms.dim, ms.dim)) + 1j * rng.standard_normal((ms.dim, ms.dim))
    unitary = np.linalg.qr(a)[0]
    top = [i for i in range(ms.dim) if sum(ms.basis_state(i)[0]) == ms.n_max]
    cut = unitary.copy()
    cut[top, :] = 0.0
    for _ in range(20):
        amps = rng.standard_normal(ms.dim) + 1j * rng.standard_normal(ms.dim)
        state = FockVector(ms, amps).normalized()
        out = apply_truncating_unitary(state, cut)
        assert out.leaked > 1e-3
        assert out.norm2 + out.leaked == pytest.approx(1.0, abs=1e-12)
        # earlier losses carry over
        again = apply_truncating_unitary(out, cut)
        assert again.norm2 + again.leaked == pytest.approx(1.0, abs=1e-12)


def test_tensor_product_layout():
    a_sys = ModeSystem(num_pairs=1, tag_dim=1, n_max=2)
    b_sys = ModeSystem(num_pairs=1, tag_dim=1, n_max=2, probe_dim=2)
    joint = tensor(basis_vector(a_sys, (0, 1)),
                   single_photon(b_sys, 0, mode=0, probe=1))
    assert joint.system.num_pairs == 2
    assert joint.system.probe_dim == 2
    assert joint.amplitude((0, 1, 1, 0), probe=1) == pytest.approx(1.0)


def test_tensor_drops_over_budget_mass():
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=1)
    one = single_photon(ms, 0, mode=0)
    joint = tensor(one, one)
    # total occupancy 2 exceeds the shared cutoff of 1
    assert joint.norm2 == pytest.approx(0.0, abs=1e-12)
    assert joint.leaked == pytest.approx(1.0)


def test_density_operator_validation():
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=1)
    rho = outer(plus_state(ms, 0))
    rho.validate(atol=1e-10)
    bad = DensityOperator(ms, np.diag([1.0, -0.2, 0.2]))
    with pytest.raises(ValueError):
        bad.validate()


def test_partial_trace_reduces_bell_like_state():
    ms = ModeSystem(num_pairs=2, tag_dim=1, n_max=2)
    # photon in pair 0 mode 1 entangled with photon in pair 1 mode position
    amps = np.zeros(ms.dim, dtype=complex)
    amps[ms.basis_index((0, 1, 0, 1))] = 1 / np.sqrt(2)
    amps[ms.basis_index((1, 0, 1, 0))] = 1 / np.sqrt(2)
    rho = outer(FockVector(ms, amps))
    reduced = partial_trace(rho, keep_pairs=(0,))
    reduced.validate(atol=1e-10)
    sub = reduced.system
    i01 = sub.basis_index((0, 1))
    i10 = sub.basis_index((1, 0))
    assert reduced.matrix[i01, i01] == pytest.approx(0.5)
    assert reduced.matrix[i10, i10] == pytest.approx(0.5)
    assert reduced.matrix[i01, i10] == pytest.approx(0.0, abs=1e-12)


def test_partial_trace_keeps_probe_correlations():
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=1, probe_dim=2)
    amps = np.zeros(ms.dim, dtype=complex)
    amps[ms.basis_index((0, 1), probe=0)] = 1 / np.sqrt(2)
    amps[ms.basis_index((1, 0), probe=1)] = 1 / np.sqrt(2)
    rho = outer(FockVector(ms, amps))
    probe_only = partial_trace(rho, keep_pairs=(), keep_probe=True)
    assert probe_only.system.dim == 2
    assert np.allclose(probe_only.matrix, np.eye(2) / 2, atol=1e-12)


def test_trace_distance_extremes():
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=1)
    rho = outer(single_photon(ms, 0, mode=0))
    sigma = outer(single_photon(ms, 0, mode=1))
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(rho, sigma) == pytest.approx(1.0)


def test_vacuum_and_normalize_guard():
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=2)
    vac = vacuum(ms)
    assert vac.norm2 == pytest.approx(1.0)
    zero = FockVector(ms, np.zeros(ms.dim))
    with pytest.raises(ValueError):
        zero.normalized()


def test_contract_violation_is_runtime_error():
    assert issubclass(ContractViolation, RuntimeError)
