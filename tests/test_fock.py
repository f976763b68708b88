"""Truncated Fock space: layout, ladders, basis changes, density tools."""
import itertools

import numpy as np
import pytest

from sqkdsim import fock
from sqkdsim.adversary import attack_space, identity_attack, random_attack
from sqkdsim.fock import (ContractViolation, FockVector, ModeSystem,
                          apply_truncating_unitary, creation_operator,
                          hadamard_change, hadamard_matrix, pair_mode_transform,
                          trace_distance)

from extra_states import (amplitude, apply_creation, basis_index, basis_state,
                          basis_vector, normalized, plus_state, single_photon)

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


@pytest.mark.parametrize("field", ["num_pairs", "tag_dim", "n_max", "probe_dim"])
@pytest.mark.parametrize("value", [True, 2.0], ids=["bool", "integral-float"])
def test_mode_system_takes_sizes_only_as_integers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ModeSystem(**{"num_pairs": 1, field: value})


def test_a_float_cutoff_is_an_error_whatever_spaces_exist():
    """The occupation cache treats 2 and 2.0 as one key, so a float cutoff
    once got a space only when an integer one had been built before it."""
    fock._occupations.cache_clear()
    with pytest.raises(ValueError, match="n_max must be an integer"):
        identity_attack(n_max=2.0)
    assert identity_attack(n_max=2).system == attack_space(n_max=2)
    with pytest.raises(ValueError, match="n_max must be an integer"):
        identity_attack(n_max=2.0)
    with pytest.raises(ValueError, match="tag_dim must be an integer"):
        attack_space(tag_dim=True, probe_dim=True)
    with pytest.raises(ValueError, match="seed must be an integer"):
        random_attack(True)


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
        occ, probe = basis_state(ms, index)
        assert basis_index(ms, occ, probe) == index


@pytest.mark.parametrize("num_pairs", [1, 2])
@pytest.mark.parametrize("tag_dim", [1, 2])
@pytest.mark.parametrize("probe_dim", [3])
def test_basis_table_and_lookup_match_definition(num_pairs, tag_dim, probe_dim):
    n_slots = num_pairs * 2 * tag_dim
    for n_max in range(4 if n_slots <= 4 else 3):
        ms = ModeSystem(num_pairs, tag_dim, n_max, probe_dim)
        # The layout restated: occupations with at most n_max photons sorted
        # by (photon count, tuple), each followed by every probe level.
        occs = sorted((o for o in itertools.product(range(n_max + 1), repeat=n_slots)
                       if sum(o) <= n_max), key=lambda o: (sum(o), o))
        expected = [(o, p) for o in occs for p in range(probe_dim)]
        table, probes = ms.basis_table
        assert table.shape == (ms.dim, n_slots) and probes.shape == (ms.dim,)
        assert list(zip(map(tuple, table.tolist()), probes.tolist())) == expected
        assert ms.index_of(table, probes).tolist() == list(range(ms.dim))
        assert not table.flags.writeable and not probes.flags.writeable


@pytest.mark.parametrize("num_pairs, tag_dim", [(2, 10), (1, 20), (1, 40)])
def test_lookup_is_exact_on_many_slots(num_pairs, tag_dim):
    # 3 ** 41 and more: base-3 rank keys no longer fit in 64 bits.
    ms = ModeSystem(num_pairs, tag_dim, n_max=2, probe_dim=2)
    table, probes = ms.basis_table
    assert ms.index_of(table, probes).tolist() == list(range(ms.dim))


@pytest.mark.parametrize("occ, probe", [
    ((-1, 1), 0),        # negative count
    ((0.5, 1), 0),       # fractional count
    ((2, 1), 0),         # over the photon budget
    ((0, 1, 0, 0), 0),   # row of the wrong length
    ((0,), 0),
    ((0, 1), 3),         # probe level out of range
    ((0, 1), -1),
    ([(0, 1), (3, 0)], 0),  # one bad row in a batch
])
def test_lookup_rejects_states_outside_the_basis(occ, probe):
    with pytest.raises(ValueError):
        ModeSystem(num_pairs=1, n_max=2, probe_dim=3).index_of(occ, probe)


def test_ladder_operators_are_adjoint():
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=3)
    a_up = creation_operator(ms, 0)
    a_dn = a_up.conj().T
    # a† a counts photons below the cutoff
    number = a_up @ a_dn
    for i in range(ms.dim):
        occ, _ = basis_state(ms, i)
        assert number[i, i] == pytest.approx(occ[0])


def test_creation_matrix_elements():
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=3)
    a_up = creation_operator(ms, 1)
    src = basis_index(ms, (0, 1))
    dst = basis_index(ms, (0, 2))
    assert a_up[dst, src] == pytest.approx(np.sqrt(2))


def _loop_creation(system, slot, amps):
    """a-dagger on ``slot`` basis state by basis state: matrix, output, lost."""
    mat = np.zeros((system.dim, system.dim), dtype=np.complex128)
    lost = 0.0
    for i in range(system.dim):
        occ, probe = basis_state(system, i)
        if sum(occ) + 1 > system.n_max:
            lost += (occ[slot] + 1) * abs(amps[i]) ** 2
            continue
        raised = list(occ)
        raised[slot] += 1
        mat[basis_index(system, raised, probe), i] = np.sqrt(occ[slot] + 1)
    return mat, mat @ amps, lost


@pytest.mark.parametrize("n_max", [2, 3])
def test_creation_matches_loop_reference_at_the_cap(n_max):
    ms = ModeSystem(num_pairs=1, tag_dim=2, n_max=n_max, probe_dim=3)
    rng = np.random.default_rng(SEED + n_max)
    amps = rng.standard_normal(ms.dim) + 1j * rng.standard_normal(ms.dim)
    for slot in range(ms.n_slots):
        mat, out, lost = _loop_creation(ms, slot, amps)
        assert np.array_equal(creation_operator(ms, slot), mat)
        created = apply_creation(FockVector(ms, amps, leaked=0.25), slot)
        assert np.allclose(created.amplitudes, out, atol=1e-12)
        assert lost > 0.0  # the state has weight at the cap
        assert created.leaked == pytest.approx(0.25 + lost, rel=1e-12)
        total = np.vdot(amps, amps).real
        number = sum(basis_state(ms, i)[0][slot] * abs(amps[i]) ** 2
                     for i in range(ms.dim))
        # |a-dagger psi|^2 = <n + 1>, split between kept and lost weight
        assert created.norm2 + lost == pytest.approx(total + number, rel=1e-12)


def test_single_photon_and_plus_state():
    ms = ModeSystem(num_pairs=1, tag_dim=2, n_max=2)
    one = single_photon(ms, 0, mode=1, tag=1)
    assert one.norm2 == pytest.approx(1.0)
    assert amplitude(one, (0, 0, 0, 1)) == pytest.approx(1.0)
    plus = plus_state(ms, 0, tag=0)
    assert amplitude(plus, (1, 0, 0, 0)) == pytest.approx(1 / np.sqrt(2))
    assert amplitude(plus, (0, 0, 1, 0)) == pytest.approx(1 / np.sqrt(2))


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
        assert amplitude(rotated, out_occ) == pytest.approx(want, abs=1e-10)


def test_hadamard_single_photon_expansion():
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=2)
    rotated = hadamard_change(basis_vector(ms, (1, 0)), 0)
    assert amplitude(rotated, (1, 0)) == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    assert amplitude(rotated, (0, 1)) == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    rotated = hadamard_change(basis_vector(ms, (0, 1)), 0)
    assert amplitude(rotated, (1, 0)) == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    assert amplitude(rotated, (0, 1)) == pytest.approx(-1 / np.sqrt(2), abs=1e-10)


def test_plus_state_rotates_to_single_plus_photon():
    """The launched state is the +1 eigenmode: it lands entirely in mode 0."""
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=2)
    rotated = hadamard_change(plus_state(ms, 0), 0)
    assert amplitude(rotated, (1, 0)) == pytest.approx(1.0, abs=1e-12)


def test_hadamard_norm_and_involution_random():
    """Basis change preserves norm and squares to identity on random states."""
    ms = ModeSystem(num_pairs=2, tag_dim=1, n_max=2, probe_dim=2)
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        amps = rng.standard_normal(ms.dim) + 1j * rng.standard_normal(ms.dim)
        state = normalized(FockVector(ms, amps))
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
    top = [i for i in range(ms.dim) if sum(basis_state(ms, i)[0]) == ms.n_max]
    cut = unitary.copy()
    cut[top, :] = 0.0
    for _ in range(20):
        amps = rng.standard_normal(ms.dim) + 1j * rng.standard_normal(ms.dim)
        state = normalized(FockVector(ms, amps))
        out = apply_truncating_unitary(state, cut)
        assert out.leaked > 1e-3
        assert out.norm2 + out.leaked == pytest.approx(1.0, abs=1e-12)
        # earlier losses carry over
        again = apply_truncating_unitary(out, cut)
        assert again.norm2 + again.leaked == pytest.approx(1.0, abs=1e-12)


def test_density_operator_validation():
    """The density check, on one state of a Fock space: a pure state passes
    and a unit-trace matrix with a negative eigenvalue does not."""
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=1)
    plus = plus_state(ms, 0).amplitudes
    fock._check_densities(np.outer(plus, plus.conj())[None])
    with pytest.raises(ValueError, match="negative eigenvalue"):
        fock._check_densities(np.diag([1.0, -0.2, 0.2])[None])


def test_trace_distance_extremes():
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=1)
    zero = single_photon(ms, 0, mode=0).amplitudes
    one = single_photon(ms, 0, mode=1).amplitudes
    rho, sigma = np.outer(zero, zero.conj()), np.outer(one, one.conj())
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(rho, sigma) == pytest.approx(1.0)


def test_constructors_reject_wrong_shapes_and_sizes():
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=2)
    for length in (ms.dim - 1, ms.dim + 1):
        with pytest.raises(ValueError, match=f"expected {ms.dim} amplitudes"):
            FockVector(ms, np.zeros(length))
    for kwargs in ({"num_pairs": -1}, {"num_pairs": 0, "n_max": 0, "probe_dim": 4},
                   {"num_pairs": 1, "tag_dim": 0}, {"num_pairs": 1, "probe_dim": 0}):
        with pytest.raises(ValueError, match="invalid mode system"):
            ModeSystem(**kwargs)


def test_contract_violation_is_runtime_error():
    assert issubclass(ContractViolation, RuntimeError)


@pytest.mark.parametrize("call, message", [
    (lambda: ModeSystem(1).slot(0, 2), "mode must be 0 or 1"),
    (lambda: creation_operator(ModeSystem(1), 2), "slot 2 out of range"),
    (lambda: pair_mode_transform(ModeSystem(1), 0, np.eye(3)), "needs a 2x2 matrix"),
    (lambda: trace_distance(np.eye(2), np.eye(3)), "operators of equal dimension"),
], ids=["slot-mode", "creation-slot", "transform-shape", "distance-shapes"])
def test_fock_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
