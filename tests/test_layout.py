"""A branch pass reads its index work from a cached layout.

The layout of a (space, variant, survival, live-row masks) holds every
structural column, block range and analysis mask, so it is compiled once
and shared.  Whatever the cache holds, every table column, condition,
probability and state must equal, with ``==``, what a cold cache gives.
"""
import copy

import numpy as np
import pytest

import test_branch_table as branch_table
import test_stack as stack
from sqkdsim import protocol, robustness
from sqkdsim.adversary import Attack, identity_attack, random_attack
from sqkdsim.measurement import Interpretation
from sqkdsim.protocol import (BranchTable, ProtocolConfig, RoundEnumerator, Variant,
                              eve_conditional_states, legacy_identification)
from sqkdsim.robustness import ConditionReport, check_conditions

COLUMNS = list(BranchTable.__dataclass_fields__)
SHARED = [name for name in COLUMNS if name not in protocol._PER_ATTACK]
CONDITIONS = list(ConditionReport.__dataclass_fields__)


def _results(config, attack):
    """Every column and analysis value of one attack, from a new enumerator."""
    enum = RoundEnumerator(config, attack)
    found = {name: getattr(enum.table, name) for name in COLUMNS}
    if config.variant is Variant.MIRROR:
        report = check_conditions(attack, config, enumerator=enum)
        found.update((name, getattr(report, name)) for name in CONDITIONS)
        eve = eve_conditional_states(attack, config, enumerator=enum)
        found.update(p_shared=eve.p_shared, p_bit=eve.p_bit,
                     trace_distance=eve.trace_distance,
                     states={b: rho.matrix for b, rho in eve.states.items()})
    else:
        ident = legacy_identification(attack, config, enumerator=enum)
        found.update(rho_ctrl=ident.rho_ctrl.matrix, rho_sift=ident.rho_sift.matrix,
                     trace_distance=ident.trace_distance)
    return found, enum._pass[0]


def _assert_equal(got, expected, where):
    assert got.keys() == expected.keys()
    for name, value in expected.items():
        if name == "states":
            assert got[name].keys() == value.keys(), where
            for b, rho in value.items():
                assert np.array_equal(got[name][b], rho), (name, b, where)
        elif isinstance(value, np.ndarray):
            assert got[name].shape == value.shape, (name, where)
            assert (got[name] == value).all(), (name, where)
        else:
            assert got[name] == value, (name, where)


def _cold(config, attack, monkeypatch):
    monkeypatch.setattr(protocol, "_layouts", {})
    return _results(config, attack)


@pytest.mark.parametrize("survival", [1.0, 0.8])
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_warm_cache_equals_cold_cache(n_max, variant, survival, monkeypatch):
    config = ProtocolConfig(variant=variant, n_max=n_max, channel_loss=survival)
    for strength in (0.0, 1e-3, 0.3, 1.0):
        for probe_dim in range(1, 9):
            first, second = (random_attack(50 * probe_dim + k, probe_dim=probe_dim,
                                           strength=strength, n_max=n_max) for k in (1, 2))
            cold, _ = _cold(config, second, monkeypatch)
            monkeypatch.setattr(protocol, "_layouts", {})
            _, compiled = _results(config, first)  # compiles the space's layout
            warm, layout = _results(config, second)
            where = (strength, probe_dim)
            assert layout is compiled, where  # one structure per space
            _assert_equal(warm, cold, where)


def test_stacked_evaluation_on_a_warm_cache_equals_a_cold_one(monkeypatch):
    config = ProtocolConfig(n_max=3, channel_loss=0.8, bob_hadamard_prob=0.9)
    for probe_dim in (1, 4, 8):
        attacks = [random_attack(7 * probe_dim + k, probe_dim=probe_dim, n_max=3)
                   for k in range(3)]
        raw = (attacks[0].system, np.array([(a.u_forward, a.v_backward) for a in attacks]),
               np.array([a.initial_probe for a in attacks]))
        monkeypatch.setattr(protocol, "_layouts", {})
        cold = robustness._evaluate(config, *raw)
        warm = robustness._evaluate(config, *raw)
        for column, column0 in zip(warm, cold):
            assert np.array_equal(column, column0, equal_nan=True)
        for k, attack in enumerate(attacks):
            stack.assert_row_equal(warm, k, attack, config)


def test_identity_and_random_attack_get_separate_layouts(monkeypatch):
    """On one space the identity attack prunes rows a random attack keeps,
    so each has its own layout and its own cold result."""
    config = ProtocolConfig(channel_loss=0.8)
    attacks = [identity_attack(probe_dim=3), random_attack(7, probe_dim=3)]
    cold = [_cold(config, attack, monkeypatch)[0] for attack in attacks]
    monkeypatch.setattr(protocol, "_layouts", {})
    warm = [_results(config, attack) for attack in attacks]
    assert warm[0][1] is not warm[1][1]
    assert len(warm[0][0]["probability"]) < len(warm[1][0]["probability"])
    for (got, _), expected, attack in zip(warm, cold, attacks):
        _assert_equal(got, expected, attack.name)
        _assert_equal(_results(config, attack)[0], expected, attack.name)


@pytest.mark.parametrize("survival", [1.0, 0.8])
def test_attacks_differing_only_after_alice_get_separate_layouts(survival, monkeypatch):
    """Alice prunes the same rows for both; an identity backward pass keeps
    her emptied rails empty, which the second loss and Bob then prune."""
    config = ProtocolConfig(channel_loss=survival)
    forward = random_attack(7, probe_dim=3)
    attacks = [Attack(name, forward.system, forward.u_forward, v, forward.initial_probe)
               for name, v in (("identity back", np.eye(forward.system.dim)),
                               ("random back", random_attack(8, probe_dim=3).v_backward))]
    cold = [_cold(config, attack, monkeypatch)[0] for attack in attacks]
    monkeypatch.setattr(protocol, "_layouts", {})
    warm = [_results(config, attack) for attack in attacks]
    assert warm[0][1] is not warm[1][1]
    for (got, _), expected, attack in zip(warm, cold, attacks):
        _assert_equal(got, expected, attack.name)


def test_shared_columns_are_read_only_and_shared():
    config = ProtocolConfig(channel_loss=0.9)
    one, two = (RoundEnumerator(config, random_attack(seed, probe_dim=2)) for seed in (1, 2))
    assert one._pass[0] is two._pass[0]
    assert {"alice_clicks", "bob_clicks", "shared"} <= set(SHARED)
    for name in SHARED:
        column = getattr(one.table, name)
        assert column is getattr(two.table, name), name
        assert not column.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    for name in protocol._PER_ATTACK:
        assert not getattr(one.table, name).flags.writeable, name


@pytest.mark.parametrize("variant", list(Variant))
def test_block_views_carry_the_derived_columns(variant):
    enum = RoundEnumerator(ProtocolConfig(variant=variant, channel_loss=0.9),
                           random_attack(3, probe_dim=2))
    table = enum.table
    clicks = [0] + [p.n_clicks for p in protocol.PATTERNS]  # by pattern code + 1
    assert table.alice_clicks.tolist() == [clicks[c + 1] for c in table.alice_pattern]
    assert table.bob_clicks.tolist() == [clicks[c + 1] for c in table.bob_pattern]
    shared = protocol.INTERPRETATIONS.index(Interpretation.SHARED_BIT)
    assert table.shared.tolist() == [i == shared for i in table.interpretation]
    assert table.shared.any()
    for (op, basis), rows in enum.blocks.items():
        block = enum.branches(op, basis)
        for name in COLUMNS:
            assert np.array_equal(getattr(block, name), getattr(table, name)[rows]), name


def test_cache_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(protocol, "_layouts", {})
    compiled = []
    for survival in (1.0, 0.9):
        for tag_dim in (1, 2):
            for n_max in (1, 2, 3):
                for probe_dim in range(1, 9):
                    config = ProtocolConfig(tag_dim=tag_dim, n_max=n_max,
                                            channel_loss=survival)
                    enum = RoundEnumerator(config, identity_attack(tag_dim, n_max, probe_dim))
                    compiled.append(enum._pass[0])
                    # one layout per compiled pass
                    assert len(protocol._layouts) == min(len(compiled), protocol._LAYOUT_BOUND)
    assert len(compiled) > protocol._LAYOUT_BOUND
    kept = list(protocol._layouts.values())
    assert compiled[-1] in kept and compiled[0] not in kept  # the oldest went first


def test_each_plan_object_gets_its_own_layout(monkeypatch):
    """The layout key holds the plans it was compiled from: an equal copy
    of Bob's plan is compiled, and checked, afresh."""
    config, attack = ProtocolConfig(), random_attack(4, probe_dim=2)
    expected, compiled = _results(config, attack)
    plans = protocol._measure_plan
    bob = copy.deepcopy(plans(attack.system, (None,)))
    monkeypatch.setattr(protocol, "_measure_plan",
                        lambda system, ops: bob if ops == (None,) else plans(system, ops))
    got, layout = _results(config, attack)
    assert layout is not compiled and layout.measured is bob
    _assert_equal(got, expected, "copied plan")


@pytest.mark.parametrize("first", ["vacuum", "interpretation"])
def test_plan_guards_fire_after_the_space_was_compiled(first, monkeypatch):
    """A patched plan is a new plan object, so it gets its own layout, and
    its guard fires even after the real plan compiled the same space."""
    for attack in (random_attack(4, probe_dim=2), identity_attack()):
        RoundEnumerator(ProtocolConfig(), attack).table
    guards = [branch_table.test_vacuum_confinement_check_fires,
              branch_table.test_interpretation_guard_still_fires]
    if first == "interpretation":
        guards.reverse()
    for guard in guards:
        guard(monkeypatch)
        monkeypatch.undo()
