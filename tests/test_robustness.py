"""Detection conditions, the return-state lemma, and the attack sweep."""
import numpy as np
import pytest

from sqkdsim.adversary import (identity_attack, measure_resend_attack, random_attack,
                               tagging_attack)
from sqkdsim.measurement import AliceOp
from sqkdsim.protocol import (ProtocolConfig, Variant, eve_conditional_states,
                              exact_statistics)
from sqkdsim.robustness import (LemmaInput, check_conditions, lemma_state,
                                measurement_cross_check, random_lemma_input,
                                robustness_sweep, verify_lemma1)
import sqkdsim.robustness as robustness

from extra_attacks import blocked_attack, probe_rotation_attack
from extra_states import amplitude

SEED = 31337


def test_identity_attack_triggers_nothing():
    report = check_conditions(identity_attack())
    assert report.max_violation == 0.0
    doc = report.to_document()
    assert doc["max_violation"] == 0.0
    assert "cross_check_deviation" not in doc


def test_measure_resend_trips_only_the_reflection_condition():
    report = check_conditions(measure_resend_attack("computational"))
    assert report.ctrl_minus == pytest.approx(0.25, abs=1e-12)
    assert report.swap_x_both_held == 0.0
    assert report.swap_x_double == 0.0
    assert report.swap_10_wrong_mode == 0.0
    assert report.swap_01_wrong_mode == 0.0
    assert report.swap_all_alice_double == 0.0
    assert report.swap_all_bob_click == 0.0


def test_conditions_honour_bob_basis_weight():
    """At Hadamard weight 0.9 the CTRL condition is the exact CTRL error."""
    attack = measure_resend_attack("computational")
    cfg = ProtocolConfig(bob_hadamard_prob=0.9)
    report = check_conditions(attack, cfg)
    ctrl_error = exact_statistics(cfg, attack).error_probs[AliceOp.CTRL]
    assert report.ctrl_minus == pytest.approx(0.45, abs=1e-12)
    assert report.ctrl_minus == pytest.approx(ctrl_error, abs=1e-12)
    # Computational-basis conditions carry the complementary weight 0.1.
    noisy = random_attack(4, probe_dim=3, strength=0.5)
    even = check_conditions(noisy)
    skewed = check_conditions(noisy, ProtocolConfig(bob_hadamard_prob=0.9))
    assert skewed.swap_all_bob_click == \
        pytest.approx(0.2 * even.swap_all_bob_click, abs=1e-14)
    assert skewed.swap_x_double == pytest.approx(0.2 * even.swap_x_double,
                                                 abs=1e-14)
    assert skewed.swap_all_alice_double == \
        pytest.approx(even.swap_all_alice_double, abs=1e-14)


def test_tagging_attack_is_invisible_to_the_mirror():
    report = check_conditions(tagging_attack())
    assert report.max_violation == 0.0


def test_generic_random_attacks_get_caught():
    """Unitary disturbance at moderate strength shows up in the conditions."""
    caught = 0
    for seed in range(8):
        attack = random_attack(seed, probe_dim=3, strength=0.5)
        if check_conditions(attack).max_violation > 1e-6:
            caught += 1
    assert caught == 8


def test_probe_rotation_family_stays_quiet():
    for seed in (1, 2, 3):
        attack = probe_rotation_attack(seed, probe_dim=4)
        assert check_conditions(attack).max_violation < 1e-10


@pytest.mark.parametrize("t", [1.0, 1e-3, 1e-9])
def test_blocked_measure_resend_is_quiet_but_fully_informative(t):
    """Blocking all but a fraction t of the returning light scales every
    condition and the SharedBit rate by t, yet Eve's states on the SharedBit
    rounds that remain stay perfectly distinguishable: at small t the
    conditions sit under any fixed threshold while the trace distance does
    not, a loophole of the conditional distance."""
    config = ProtocolConfig(n_max=1)
    attack = blocked_attack(measure_resend_attack("computational", n_max=1), t)
    report = check_conditions(attack, config)
    conditionals = eve_conditional_states(attack, config)
    assert report.max_violation == pytest.approx(t / 4, rel=1e-12)
    assert conditionals.p_shared == pytest.approx(t / 2, rel=1e-12)
    assert conditionals.trace_distance >= 1 - 1e-12
    if t == 1e-9:
        assert report.max_violation < 1e-9 and conditionals.trace_distance > 1e-6


def test_cross_check_agrees_with_measurement_branches():
    randoms = [random_attack(100 + k, probe_dim=k % 8 + 1, strength=0.8,
                             n_max=2 + k // 8 % 2) for k in range(50)]
    for attack in (identity_attack(), tagging_attack(), tagging_attack(n_max=3),
                   random_attack(9, probe_dim=2, strength=0.8), *randoms):
        assert measurement_cross_check(attack) < 1e-12, attack.name


def _swapped_destinations(plan, codes):
    n_maps, src, dst, *rest = plan
    dst = dst.copy()
    dst[[0, 1]] = dst[[1, 0]]
    return (n_maps, src, dst, *rest), codes


def _swapped_codes(plan, codes):
    codes = codes.copy()
    codes[[0, 1]] = codes[[1, 0]]
    return plan, codes


def _last_map_dropped(plan, codes):
    n_maps, src, dst, amp, starts = plan
    return (n_maps - 1, src[:starts[-1]], dst[:starts[-1]], amp, starts[:-1]), codes


def test_cross_check_reads_the_rounds_measurement_plan(monkeypatch):
    """A corrupted SWAP-10 split plan of the rounds fails the cross check.
    Two swapped destinations misplace a residual; two swapped click codes,
    or a dropped map, make the check infinite."""
    plans = robustness._measure_plan
    attack = random_attack(9, probe_dim=2, strength=0.8)
    assert measurement_cross_check(attack) < 1e-12
    for corrupt in (_swapped_destinations, _swapped_codes, _last_map_dropped):
        def corrupted(system, ops, corrupt=corrupt):
            plan, map_op, codes = plans(system, ops)
            if ops == (AliceOp.SWAP_10,):
                plan, codes = corrupt(plan, codes)
            return plan, map_op, codes

        monkeypatch.setattr(robustness, "_measure_plan", corrupted)
        gap = measurement_cross_check(attack)
        if corrupt is _swapped_destinations:
            assert 1e-12 < gap < float("inf")
        else:
            assert gap == float("inf"), corrupt.__name__


def test_conditions_require_mirror_variant():
    with pytest.raises(ValueError):
        check_conditions(identity_attack(),
                         ProtocolConfig(variant=Variant.LEGACY))


# -- lemma ---------------------------------------------------------------------


def _unit(vec):
    return np.asarray(vec, dtype=complex) / np.linalg.norm(vec)


def test_lemma_state_layout():
    probe = np.array([1.0, 0.0], dtype=complex)
    state = lemma_state(LemmaInput(f={1: probe}, g={}, h=np.zeros(2)))
    ms = state.system
    assert amplitude(state, (0, 1), probe=0) == pytest.approx(1.0)
    assert ms.probe_dim == 2


def test_lemma_opposite_probes_always_click_minus():
    probe = np.array([1.0, 0.0, 0.0], dtype=complex)
    verdict = verify_lemma1(LemmaInput(f={1: probe}, g={1: -probe},
                                       h=np.zeros(3)))
    assert verdict.p_minus == pytest.approx(1.0, abs=1e-12)
    assert not verdict.conclusion_holds
    assert verdict.implication_holds  # premise fails, so the claim is vacuous


def test_lemma_two_photon_component_clicks_minus():
    probe = np.array([0.0, 1.0, 0.0], dtype=complex)
    verdict = verify_lemma1(LemmaInput(f={2: probe}, g={}, h=np.zeros(3)))
    assert verdict.p_minus == pytest.approx(0.75, abs=1e-12)
    assert not verdict.conclusion_holds


def test_lemma_matched_probes_are_quiet_and_conclusive():
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        verdict = verify_lemma1(random_lemma_input(rng, probe_dim=4))
        assert verdict.p_minus < 1e-12
        assert verdict.conclusion_holds
        assert verdict.implication_holds


def test_lemma_perturbation_scaling():
    """The minus weight grows as delta squared over twice the total mass."""
    rng = np.random.default_rng(SEED)
    for delta in (1e-3, 1e-2, 1e-1):
        for _ in range(20):
            spec_input = random_lemma_input(rng, probe_dim=3, delta=delta)
            verdict = verify_lemma1(spec_input)
            norm2 = lemma_state(spec_input).norm2
            predicted = delta ** 2 / (2.0 * norm2)
            assert predicted / 2 <= verdict.p_minus <= predicted * 2


def test_lemma_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_lemma1(LemmaInput(f={}, g={}, h=np.zeros(2)))
    with pytest.raises(ValueError):
        lemma_state(LemmaInput(f={5: np.ones(2)}, g={}, h=np.zeros(2)))
    with pytest.raises(ValueError):
        lemma_state(LemmaInput(f={1: np.ones(3)}, g={}, h=np.zeros(2)))


def _opposed_pair(scale):
    """One photon in each mode with probes 90 degrees apart: p_minus 1/2."""
    return LemmaInput(f={1: np.array([scale])}, g={1: np.array([1j * scale])},
                      h=np.zeros(1))


def test_lemma_rejects_an_overflowing_norm():
    """At scale 1e200 the squared norm overflows; the lemma is not judged."""
    verdict = verify_lemma1(_opposed_pair(1.0))
    assert verdict.p_minus == pytest.approx(0.5, abs=1e-12)
    assert verdict.implication_holds
    with pytest.raises(ValueError, match="squared norm inf is not finite"):
        verify_lemma1(_opposed_pair(1e200))


@pytest.mark.parametrize("scale", [1e-16, 1e-100, 1e-153])
def test_lemma_verdict_does_not_depend_on_scale(scale):
    """The lemma is scale-invariant, so a tiny input that is not zero gets
    the verdict of scale 1, as long as its squared norm is a normal float."""
    verdict = verify_lemma1(_opposed_pair(scale))
    assert abs(verdict.p_minus - 0.5) <= 2 * np.spacing(0.5)
    assert verdict.deviation == pytest.approx(1.0, rel=1e-15)
    assert verdict.implication_holds and not verdict.conclusion_holds


def test_lemma_rejects_a_subnormal_norm_but_names_it():
    """Below the normal range the ratios lose digits: an input error that
    names the squared norm.  Only an all-zero input is the zero vector."""
    with pytest.raises(ValueError, match="squared norm 2e-310"):
        verify_lemma1(_opposed_pair(1e-155))
    with pytest.raises(ValueError, match="squared norm 0.0"):  # squares underflow
        verify_lemma1(_opposed_pair(1e-200))
    with pytest.raises(ValueError, match="zero vector"):
        verify_lemma1(_opposed_pair(0.0))


def test_lemma_vacuum_component_is_harmless():
    probe = _unit([1.0, 2.0j, -0.5])
    verdict = verify_lemma1(LemmaInput(f={1: probe}, g={1: probe},
                                       h=np.array([3.0, 0, 1j])))
    assert verdict.p_minus < 1e-14
    assert verdict.conclusion_holds


# -- sweep ---------------------------------------------------------------------


def test_sweep_finds_no_counterexamples():
    report = robustness_sweep(master_seed=2, count=16)
    assert report.n_counterexamples == 0
    assert len(report.records) == 16
    assert {r.probe_dim for r in report.records} == set(range(1, 9))
    assert report.worst_quiet_distance < 1e-6


def test_sweep_is_reproducible():
    a = robustness_sweep(master_seed=7, count=6)
    b = robustness_sweep(master_seed=7, count=6)
    assert a.to_document() == b.to_document()


def test_sweep_csv_rows_shape():
    report = robustness_sweep(master_seed=1, count=4)
    rows = report.to_csv_rows()
    assert rows[0] == list(report.CSV_HEADER)
    assert len(rows) == 5
    for row in rows[1:]:
        assert len(row) == len(report.CSV_HEADER)


def test_sweep_records_violations_for_disturbing_attacks():
    report = robustness_sweep(master_seed=3, count=8, strength=0.5)
    assert max(r.max_violation for r in report.records) > 1e-6


@pytest.mark.parametrize("field, value, message", [
    ("count", 2.5, "count must be an integer"),
    ("max_probe_dim", 2.5, "max_probe_dim must be an integer"),
    ("master_seed", 1.5, "master_seed must be an integer"),
    ("master_seed", True, "master_seed must be an integer"),
    ("master_seed", -1, "master_seed must be non-negative"),
    ("count", -1, "count must be non-negative"),
])
def test_sweep_takes_seeds_and_sizes_only_as_integers(field, value, message):
    """The rule ``ProtocolConfig`` applies to its seed: a float would reach
    numpy as a ``TypeError`` from inside it, a bool as seed 0 or 1."""
    with pytest.raises(ValueError, match=message):
        robustness_sweep(**{"count": 2, field: value})


@pytest.mark.parametrize("field", ["strength", "eps_error", "eps_info"])
@pytest.mark.parametrize("value", [True, "0.5"], ids=["bool", "string"])
def test_sweep_takes_strength_and_tolerances_only_as_real_numbers(field, value):
    """A bool strength would run at strength 1 and be reported as true."""
    with pytest.raises(ValueError, match=f"{field} must be a real number"):
        robustness_sweep(**{"count": 1, field: value})


def test_sweep_stores_numpy_integers_as_int():
    report = robustness_sweep(master_seed=np.uint32(3), count=np.int64(2),
                              max_probe_dim=np.int8(2))
    assert report == robustness_sweep(master_seed=3, count=2, max_probe_dim=2)
    assert type(report.master_seed) is int
