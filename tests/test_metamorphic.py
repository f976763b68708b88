"""Metamorphic relations: the engine run on two attacks that differ by a known
symmetry, compared end to end, from launch to report.

No second implementation is involved, so these checks share no code with
the engine beyond the attacks they feed it.  Complex conjugation of U, V
and the initial probe must leave every report value equal bit for bit, the
sampled run included.  Exchanging the pair's two modes swaps the two
wrong-mode conditions and leaves every other condition and Eve's
information unchanged, up to rounding.  So does a unitary W on Eve's probe,
applied after V (the probe gauge) or after U and undone by V (the forward
gauge).  Bob's Hadamard weight p scales each condition that involves his
basis choice by p or 1 - p, exactly, and moves nothing else.
"""
import numpy as np
import pytest

from sqkdsim.adversary import random_attack, tagging_attack
from sqkdsim.protocol import (ProtocolConfig, RoundEnumerator, Variant,
                              eve_conditional_states, exact_statistics,
                              legacy_identification, run_protocol)
from sqkdsim.robustness import check_conditions

from extra_attacks import (conjugated, haar_unitary, mode_exchange, mode_exchanged,
                           probe_gauged)

SEEDS = range(6)
PROBE_DIMS = (1, 2, 3, 4)
SURVIVALS = (1.0, 0.7)
EXCHANGE_ATOL = 1e-14


def _observables(attack, config) -> dict:
    """Every exact and sampled report value of one run of ``attack``."""
    enum = RoundEnumerator(config, attack)
    found = {
        "exact_error_probs": exact_statistics(config, attack, enum).error_probs,
        "stats": run_protocol(config, attack, enum),
    }
    if config.variant is Variant.MIRROR:
        eve = eve_conditional_states(attack, config, enum)
        found.update(conditions=check_conditions(attack, config, enum),
                     p_shared=eve.p_shared, trace_distance=eve.trace_distance)
    else:
        found["legacy_trace_distance"] = legacy_identification(
            attack, config, enum).trace_distance
    return found


@pytest.mark.parametrize("survival", SURVIVALS)
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("n_max", (1, 2, 3))
def test_conjugating_the_attack_changes_no_report_value(n_max, variant, survival):
    mismatches = []
    for seed in SEEDS:
        config = ProtocolConfig(variant, n_rounds=3000, rng_seed=seed, n_max=n_max,
                                channel_loss=survival)
        for probe_dim in PROBE_DIMS:
            attack = random_attack(seed, probe_dim=probe_dim, n_max=n_max)
            found = _observables(attack, config)
            mirrored = _observables(conjugated(attack), config)
            mismatches += [(seed, probe_dim, key) for key in found
                           if found[key] != mirrored[key]]
    assert mismatches == []


def test_mode_exchange_is_a_self_inverse_swap_of_the_modes():
    attack = tagging_attack(n_max=2)
    x = mode_exchange(attack.system)
    assert np.array_equal(x @ x, np.eye(attack.system.dim))
    occs, _ = attack.system.basis_table
    moved = x.T @ occs  # the occupation row each basis index is sent to
    tag_dim = attack.system.tag_dim
    assert np.array_equal(moved[:, :tag_dim], occs[:, tag_dim:])
    assert np.array_equal(moved[:, tag_dim:], occs[:, :tag_dim])


def _exchange_cases():
    for n_max in (1, 2, 3):
        yield tagging_attack(n_max=n_max)
        for seed in SEEDS:
            for probe_dim in PROBE_DIMS:
                yield random_attack(seed, probe_dim=probe_dim, n_max=n_max)


@pytest.mark.parametrize("survival", SURVIVALS)
def test_exchanging_the_modes_swaps_only_the_wrong_mode_conditions(survival):
    worst = 0.0
    for attack in _exchange_cases():
        mirror, legacy = (ProtocolConfig(v, tag_dim=attack.system.tag_dim,
                                         n_max=attack.system.n_max, channel_loss=survival)
                          for v in Variant)
        found, exchanged = (
            (check_conditions(a, mirror), eve_conditional_states(a, mirror),
             legacy_identification(a, legacy)) for a in (attack, mode_exchanged(attack)))
        conditions, image = found[0], exchanged[0]
        expected = dict(vars(conditions), swap_10_wrong_mode=conditions.swap_01_wrong_mode,
                        swap_01_wrong_mode=conditions.swap_10_wrong_mode)
        pairs = [(expected[name], value) for name, value in vars(image).items()]
        pairs += [(found[1].p_shared, exchanged[1].p_shared),
                  (found[1].trace_distance, exchanged[1].trace_distance),
                  (found[2].trace_distance, exchanged[2].trace_distance)]
        worst = max([worst] + [abs(a - b) for a, b in pairs])
    assert worst <= EXCHANGE_ATOL


def _exact_values(attack, config) -> dict:
    """Every exact report value of ``attack``, by name."""
    enum = RoundEnumerator(config, attack)
    values = {f"error_prob {op.value}": p for op, p in
              exact_statistics(config, attack, enum).error_probs.items()}
    if config.variant is Variant.MIRROR:
        eve = eve_conditional_states(attack, config, enum)
        values.update(vars(check_conditions(attack, config, enum)), p_shared=eve.p_shared,
                      trace_distance=eve.trace_distance)
    else:
        values["legacy_trace_distance"] = legacy_identification(
            attack, config, enum).trace_distance
    return values


@pytest.mark.parametrize("forward", [False, True], ids=["probe", "forward"])
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_a_unitary_on_the_probe_changes_no_exact_value(variant, forward):
    worst = 0.0
    for n_max in (1, 2, 3):
        for survival in SURVIVALS:
            config = ProtocolConfig(variant, n_max=n_max, channel_loss=survival)
            for seed in SEEDS:
                for probe_dim in PROBE_DIMS:
                    attack = random_attack(seed, probe_dim=probe_dim, n_max=n_max)
                    w = haar_unitary(np.random.default_rng([seed, probe_dim, n_max]), probe_dim)
                    found = _exact_values(attack, config)
                    gauged = _exact_values(probe_gauged(attack, w, forward), config)
                    assert gauged.keys() == found.keys()
                    worst = max([worst] + [abs(gauged[k] - v) for k, v in found.items()])
    assert worst <= EXCHANGE_ATOL


def _basis_weight_cases():
    for n_max in (1, 2, 3):
        yield tagging_attack(n_max=n_max)
        for seed in (0, 1):
            for probe_dim in (1, 2, 4):
                yield random_attack(seed, probe_dim=probe_dim, n_max=n_max)


@pytest.mark.parametrize("survival", SURVIVALS)
def test_bob_hadamard_weight_scales_only_the_conditions_it_enters(survival):
    """Scaling from p = 1/2 is by a power of two times p or 1 - p, so the
    values match bit for bit."""
    mismatches = []
    for attack in _basis_weight_cases():
        def values(p):
            return _exact_values(attack, ProtocolConfig(
                Variant.MIRROR, tag_dim=attack.system.tag_dim, n_max=attack.system.n_max,
                channel_loss=survival, bob_hadamard_prob=p))

        half = values(0.5)
        for p in (0.3, 0.9, 0.01):
            factor = dict.fromkeys(("swap_x_both_held", "swap_x_double", "swap_10_wrong_mode",
                                    "swap_01_wrong_mode", "swap_all_bob_click"), 2 * (1 - p))
            factor["ctrl_minus"] = 2 * p
            found = values(p)
            mismatches += [(attack.name, p, name) for name in (
                *factor, "swap_all_alice_double", "p_shared", "trace_distance")
                if found[name] != half[name] * factor.get(name, 1)]
    assert mismatches == []
