"""Two-pass channel attacks: containers, builders, the named attacks."""
import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest

from sqkdsim.adversary import (Attack, PROBE_IDLE, PROBE_SAW_CTRL,
                               PROBE_SAW_SIFT, attack_from_document,
                               attack_space,
                               attack_to_document, basis_permutation,
                               identity_attack, load_attack,
                               measure_resend_attack, random_attack, save_attack,
                               tag_swap_unitary, tagging_attack)
from sqkdsim import fock
from sqkdsim.fock import FockVector, ModeSystem, apply_truncating_unitary, pair_mode_transform

from extra_attacks import number_sector_phases, probe_rotation_attack, probe_unitary
from extra_states import (amplitude, basis_index, basis_state, normalized,
                          plus_state, vacuum)

SEED = 99


def _random_state(ms, rng):
    amps = rng.standard_normal(ms.dim) + 1j * rng.standard_normal(ms.dim)
    return normalized(FockVector(ms, amps))


def test_attack_space_shape():
    ms = attack_space(tag_dim=2, n_max=2, probe_dim=3)
    assert ms.num_pairs == 1
    assert ms.dim == len(ms.occupations()) * 3


def test_attack_rejects_non_unitary():
    ms = attack_space()
    mat = np.eye(ms.dim)
    mat[0, 0] = 2.0
    probe = np.array([1.0])
    with pytest.raises(ValueError):
        Attack("bad", ms, mat, np.eye(ms.dim), probe)


def test_attack_rejects_unnormalized_probe():
    ms = attack_space(probe_dim=2)
    with pytest.raises(ValueError):
        Attack("bad", ms, np.eye(ms.dim), np.eye(ms.dim),
               np.array([1.0, 1.0]))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_attack_rejects_non_finite_unitary(bad):
    ms = attack_space(1, 2, 2)
    u = np.eye(ms.dim, dtype=complex)
    u[0, 0] = bad
    with pytest.raises(ValueError, match="u_forward is not unitary"):
        Attack("x", ms, u, np.eye(ms.dim), [1, 0])
    with pytest.raises(ValueError, match="v_backward is not unitary"):
        Attack("x", ms, np.eye(ms.dim), u, [1, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_attack_rejects_non_finite_probe(bad):
    ms = attack_space(1, 2, 2)
    with pytest.raises(ValueError, match="unit vector"):
        Attack("x", ms, np.eye(ms.dim), np.eye(ms.dim), [bad, 0])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_photon_preserving_check_rejects_non_finite(bad):
    """A non-finite entry fails the photon-number check, which runs first,
    wherever it sits: between or within photon-number sectors."""
    ms = attack_space(1, 2, 2)
    for entry in ((0, 0), (0, ms.dim - 1)):
        u = np.eye(ms.dim, dtype=complex)
        u[entry] = bad
        with pytest.raises(ValueError, match="declared photon-preserving"):
            Attack("x", ms, u, np.eye(ms.dim), [1, 0], photon_preserving=True)


def test_photon_preserving_flag_is_checked():
    ms = attack_space(n_max=2)
    # a beam-splitter-like mixer moves photons between modes but keeps the count
    mixer = pair_mode_transform(ms, 0, np.array([[0, 1], [1, 0]], dtype=complex))
    Attack("swap-modes", ms, mixer, np.eye(ms.dim), np.array([1.0]),
           photon_preserving=True)
    # an operator feeding the vacuum from a photon state is not count-preserving
    rot = np.eye(ms.dim, dtype=complex)
    i0, i1 = basis_index(ms, (0, 0)), basis_index(ms, (0, 1))
    rot[np.ix_([i0, i1], [i0, i1])] = np.array([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        Attack("bad", ms, rot, np.eye(ms.dim), np.array([1.0]),
               photon_preserving=True)


def test_builders_produce_unitaries():
    ms = attack_space(tag_dim=2, n_max=2, probe_dim=3)
    rng = np.random.default_rng(SEED)
    mats = [
        tag_swap_unitary(ms),
        number_sector_phases(ms, [0.0, 0.3, 1.1]),
        probe_unitary(ms, np.linalg.qr(rng.standard_normal((3, 3))
                                       + 1j * rng.standard_normal((3, 3)))[0]),
        pair_mode_transform(ms, 0, np.array([[1, 1], [1, -1]]) / np.sqrt(2)),
    ]
    for mat in mats:
        assert np.max(np.abs(mat @ mat.conj().T - np.eye(ms.dim))) < 1e-10


def test_basis_permutation_requires_bijection():
    ms = attack_space(probe_dim=2)
    occs, probes = ms.basis_table
    assert np.array_equal(basis_permutation(ms, occs, probes), np.eye(ms.dim))
    with pytest.raises(ValueError, match="bijection"):
        basis_permutation(ms, occs, np.zeros_like(probes))  # every level to 0
    with pytest.raises(ValueError, match="bijection"):
        basis_permutation(ms, occs[1:], probes[1:])  # a basis state left out


def test_tag_swap_exchanges_tags_0_and_1_and_leaves_tag_2():
    ms = ModeSystem(num_pairs=1, tag_dim=3, n_max=3, probe_dim=2)
    swap = tag_swap_unitary(ms)
    for index in range(ms.dim):
        occ, probe = basis_state(ms, index)
        image = list(occ)
        for mode in (0, 1):
            a, b = ms.slot(0, mode, 0), ms.slot(0, mode, 1)
            image[a], image[b] = occ[b], occ[a]
        expected = np.zeros(ms.dim)
        expected[basis_index(ms, image, probe)] = 1.0
        assert np.array_equal(swap[:, index], expected), occ
    with pytest.raises(ValueError):
        tag_swap_unitary(ModeSystem(num_pairs=1, tag_dim=1, n_max=2))


def test_unitarity_when_storage_is_empty():
    """Alice's storage is empty whenever Eve acts, so both passes run on the
    attack's own space and cannot overflow the cutoff."""
    attack = random_attack(5, probe_dim=3, strength=0.7)
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        state = _random_state(attack.system, rng)
        fwd = apply_truncating_unitary(state, attack.u_forward)
        assert fwd.norm2 == pytest.approx(1.0, abs=1e-10)
        assert fwd.leaked == pytest.approx(0.0, abs=1e-10)
        bwd = apply_truncating_unitary(state, attack.v_backward)
        assert bwd.norm2 == pytest.approx(1.0, abs=1e-10)


def test_photon_preserving_attack_never_leaks():
    attack = probe_rotation_attack(8, probe_dim=2)
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        state = _random_state(attack.system, rng)
        fwd = apply_truncating_unitary(state, attack.u_forward)
        assert fwd.norm2 == pytest.approx(1.0, abs=1e-10)
        assert fwd.leaked == pytest.approx(0.0, abs=1e-12)


def test_random_attack_zero_strength_is_identity():
    attack = random_attack(11, probe_dim=3, strength=0.0)
    assert np.allclose(attack.u_forward, np.eye(attack.system.dim), atol=1e-14)
    assert np.allclose(attack.v_backward, np.eye(attack.system.dim), atol=1e-14)


def test_random_attack_is_seeded():
    a = random_attack(21, probe_dim=2, strength=0.4)
    b = random_attack(21, probe_dim=2, strength=0.4)
    c = random_attack(22, probe_dim=2, strength=0.4)
    assert np.array_equal(a.u_forward, b.u_forward)
    assert not np.allclose(a.u_forward, c.u_forward)


def test_random_attack_rejects_bad_strength():
    with pytest.raises(ValueError):
        random_attack(0, strength=1.5)


@pytest.mark.parametrize("value, message", [
    (True, "strength must be a real number, got True"),
    ("0.5", "strength must be a real number, got '0.5'"),
    (1.5, r"strength must lie in \[0, 1\]"),  # the range message stays
])
def test_random_attack_takes_strength_only_as_a_real_number(value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        random_attack(1, strength=value)


def test_random_attack_rejects_a_negative_seed():
    """Named here, not by numpy's seeding deep inside the builder."""
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        random_attack(-1)


def test_attack_is_frozen_and_round_trips():
    """No field can be reassigned, so no enumerator can hold a stale attack;
    a copy or a pickled attack is the same attack, validated and read-only."""
    attack = random_attack(3, probe_dim=2, strength=0.5)
    for field in dataclasses.fields(attack):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(attack, field.name, getattr(attack, field.name))
    for copied in (copy.deepcopy(attack), pickle.loads(pickle.dumps(attack))):
        assert copied is not attack
        for field in dataclasses.fields(attack):
            value = getattr(copied, field.name)
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, getattr(attack, field.name))
                assert not value.flags.writeable
            else:
                assert value == getattr(attack, field.name)


@pytest.mark.parametrize("probe_dim", [0, -1])
def test_builders_reject_empty_probe(probe_dim):
    with pytest.raises(ValueError, match="probe_dim"):
        random_attack(0, probe_dim=probe_dim)
    with pytest.raises(ValueError, match="probe_dim"):
        probe_rotation_attack(0, probe_dim=probe_dim)


@pytest.mark.parametrize("strength", [1e-8, 1e-3, 0.3, 1.0])
@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_random_attack_matches_expm_oracle(n_max, strength):
    """The eigendecomposition route equals scipy's expm on the same draw."""
    from scipy.linalg import expm

    for probe_dim in range(1, 9):
        seed = 1000 * n_max + probe_dim
        attack = random_attack(seed, probe_dim=probe_dim, strength=strength,
                               n_max=n_max)
        d = attack.system.dim
        rng = np.random.default_rng(seed)
        for mat in (attack.u_forward, attack.v_backward):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = (a + a.conj().T) / 2.0
            assert np.abs(mat - expm(1j * strength * h)).max() <= 1e-12
            assert np.abs(mat.conj().T @ mat - np.eye(d)).max() <= 1e-13


def _sequential_random_unitaries(seed, probe_dim, strength, n_max):
    """random_attack's documented recipe, one generator at a time: U's two
    normal blocks, then V's, one ``eigh`` and one product per generator."""
    d = attack_space(tag_dim=1, n_max=n_max, probe_dim=probe_dim).dim
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if strength == 0.0:
            out.append(np.eye(d))
            continue
        w, vecs = np.linalg.eigh((a + a.conj().T) / 2.0)
        out.append((vecs * np.exp(1j * strength * w)) @ vecs.conj().T)
    return out


@pytest.mark.parametrize("strength", [0.0, 1e-3, 0.3, 1.0])
@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_random_attack_equals_sequential_recipe_bit_for_bit(n_max, strength):
    """The stacked eigh and product give exactly the per-generator bits."""
    for probe_dim in range(1, 9):
        seed = 7919 * n_max + probe_dim
        attack = random_attack(seed, probe_dim=probe_dim, strength=strength,
                               n_max=n_max)
        u, v = _sequential_random_unitaries(seed, probe_dim, strength, n_max)
        assert np.array_equal(attack.u_forward, u)
        assert np.array_equal(attack.v_backward, v)


def test_tagging_attack_marks_and_cleans():
    attack = tagging_attack()
    ms = attack.system
    assert ms.tag_dim == 2 and ms.probe_dim == 3
    # forward pass: tag 0 photon becomes tag 1, probe untouched
    state = plus_state(ms, 0, tag=0, probe=PROBE_IDLE)
    fwd = FockVector(ms, attack.u_forward @ state.amplitudes)
    assert amplitude(fwd, (0, 1, 0, 0), probe=PROBE_IDLE) == \
        pytest.approx(1 / np.sqrt(2))
    assert amplitude(fwd, (0, 0, 0, 1), probe=PROBE_IDLE) == \
        pytest.approx(1 / np.sqrt(2))
    # backward pass on a reflected tagged photon: tag restored, CTRL recorded
    back = FockVector(ms, attack.v_backward @ fwd.amplitudes)
    assert amplitude(back, (1, 0, 0, 0), probe=PROBE_SAW_CTRL) == \
        pytest.approx(1 / np.sqrt(2))
    assert amplitude(back, (0, 0, 1, 0), probe=PROBE_SAW_CTRL) == \
        pytest.approx(1 / np.sqrt(2))
    probes = {basis_state(ms, int(i))[1]
              for i in np.flatnonzero(np.abs(back.amplitudes) > 1e-12)}
    assert probes == {PROBE_SAW_CTRL}
    # backward pass on an untagged photon: SIFT recorded
    fresh = plus_state(ms, 0, tag=0, probe=PROBE_IDLE)
    marked = FockVector(ms, attack.v_backward @ fresh.amplitudes)
    nz = [basis_state(ms, int(i))[1]
          for i in np.flatnonzero(np.abs(marked.amplitudes) > 1e-12)]
    assert nz and all(p == PROBE_SAW_SIFT for p in nz)


def test_tagging_attack_backward_fixes_vacuum():
    attack = tagging_attack()
    ms = attack.system
    vac = vacuum(ms)
    out = attack.v_backward @ vac.amplitudes
    assert np.allclose(out, vac.amplitudes, atol=1e-15)


def test_measure_resend_records_click_class():
    attack = measure_resend_attack("computational")
    ms = attack.system
    state = plus_state(ms, 0, probe=PROBE_IDLE)
    fwd = FockVector(ms, attack.u_forward @ state.amplitudes)
    # photon in mode 0 pairs with record 1, mode 1 with record 2
    assert amplitude(fwd, (1, 0), probe=1) == pytest.approx(1 / np.sqrt(2))
    assert amplitude(fwd, (0, 1), probe=2) == pytest.approx(1 / np.sqrt(2))
    assert np.allclose(attack.v_backward, np.eye(ms.dim))


def test_measure_resend_records_click_class_by_mode_over_tags():
    """With two tags the pointer reads which modes hold photons, whatever
    their tags: 1 mode 0 only, 2 mode 1 only, 3 both.  An idle pointer
    takes the class, a pointer at the class goes idle, any other is kept."""
    attack = measure_resend_attack("computational", tag_dim=2, n_max=3)
    ms = attack.system
    for index in range(ms.dim):
        occ, probe = basis_state(ms, index)
        mode0, mode1 = (sum(occ[s] for s in ms.mode_slots(0, mode)) for mode in (0, 1))
        record = (mode0 > 0) + 2 * (mode1 > 0)
        image = (record if probe == PROBE_IDLE else
                 PROBE_IDLE if probe == record else probe)
        expected = np.zeros(ms.dim)
        expected[basis_index(ms, occ, image)] = 1.0
        assert np.array_equal(attack.u_forward[:, index], expected), (occ, probe)
    # Slots run (mode 0: tag 0, tag 1; mode 1: tag 0, tag 1).
    for occ, record in (((0, 2, 0, 0), 1), ((0, 0, 1, 1), 2), ((0, 1, 1, 0), 3)):
        assert attack.u_forward[basis_index(ms, occ, record),
                                basis_index(ms, occ, PROBE_IDLE)] == 1.0


def test_measure_resend_hadamard_passes_plus_silently():
    """The launched state is an eigenstate of the rotated measurement."""
    attack = measure_resend_attack("hadamard")
    ms = attack.system
    state = plus_state(ms, 0, probe=PROBE_IDLE)
    fwd = FockVector(ms, attack.u_forward @ state.amplitudes)
    overlap = np.vdot(plus_state(ms, 0, probe=1).amplitudes, fwd.amplitudes)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)


def test_probe_rotation_attack_is_photon_preserving():
    attack = probe_rotation_attack(3, probe_dim=3)
    assert attack.photon_preserving


def test_fixture_round_trip(tmp_path):
    attack = random_attack(17, probe_dim=2, strength=0.5)
    path = tmp_path / "attack.json"
    save_attack(attack, path)
    loaded = load_attack(path)
    assert loaded.system == attack.system
    assert np.allclose(loaded.u_forward, attack.u_forward, atol=1e-15)
    assert np.allclose(loaded.v_backward, attack.v_backward, atol=1e-15)
    assert np.allclose(loaded.initial_probe, attack.initial_probe)
    assert loaded.photon_preserving == attack.photon_preserving


def test_fixture_document_is_validated():
    attack = identity_attack()
    doc = attack_to_document(attack)
    doc["u_forward"][0][0] = [5.0, 0.0]
    with pytest.raises(ValueError):
        attack_from_document(doc)


@pytest.mark.parametrize("field, value", [("tag_dim", "1"), ("n_max", 2.7),
                                          ("probe_dim", True),
                                          ("photon_preserving", "no")])
def test_fixture_takes_sizes_and_flags_only_as_json_types(field, value):
    """Sizes must be JSON integers (no booleans), flags JSON booleans;
    nothing is coerced."""
    doc = dict(attack_to_document(identity_attack()), **{field: value})
    with pytest.raises(ValueError, match=f"malformed attack document.*{field}"):
        attack_from_document(doc)


def test_fixture_rejects_wrong_kind():
    with pytest.raises(ValueError):
        attack_from_document({"kind": "something-else"})


@pytest.mark.parametrize("call, message", [
    (lambda: Attack("bad", attack_space(), np.eye(5), np.eye(6), [1.0]),
     "u_forward must be 6x6"),
    (lambda: Attack("bad", attack_space(), np.eye(6), np.eye(6), [1.0, 0.0]),
     "initial_probe has the wrong dimension"),
    (lambda: Attack("bad", ModeSystem(2, probe_dim=1), np.eye(15), np.eye(15), [1.0]),
     "a single transmitted pair"),
    (lambda: measure_resend_attack("diagonal"), "unknown basis 'diagonal'"),
    (lambda: Attack("bad", ModeSystem(num_pairs=1, n_max=2), np.eye(6), np.eye(6),
                    np.zeros(0)), "need a probe factor"),
], ids=["matrix-shape", "probe-size", "two-pairs", "resend-basis", "no-probe"])
def test_adversary_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("declared, message", [
    ({}, "u_forward must be 1929501x1929501"),
    ({"photon_preserving": True}, "u_forward must be 1929501x1929501"),
    ({"basis_order": [{"occupation": [0] * 80, "probe": 0}]}, "declared basis order"),
], ids=["plain", "photon-preserving", "basis-order"])
def test_a_small_fixture_of_a_vast_space_fails_before_its_basis_is_listed(
        declared, message, tmp_path, monkeypatch):
    """tag_dim 40 and n_max 4 make 1,929,501 occupations of 80 slots, too
    many to list at once.  A fixture with 1x1 matrices on that space fails
    on their shapes, or on its basis order's length, without listing the
    basis (here listing it raises, so that is checked, not run)."""
    def unlisted(n_slots, n_max):
        raise AssertionError(f"listed the occupations of {n_slots} slots")

    monkeypatch.setattr(fock, "_occupations", unlisted)
    doc = {"kind": "sqkdsim-attack", "tag_dim": 40, "n_max": 4, "probe_dim": 1,
           "initial_probe": [[1.0, 0.0]], "u_forward": [[[1.0, 0.0]]],
           "v_backward": [[[1.0, 0.0]]], **declared}
    path = tmp_path / "vast.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_attack(path)

