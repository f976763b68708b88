"""A stack of attacks has the bits of its attacks taken one at a time.

A sweep evaluates the attacks of one probe size as one stack: one table
build with a leading attack axis, one condition core and one Eve core.
Every column, condition, probability and state must equal, with ``==``,
what the single-attack entry points give for each attack alone.
"""
import math

import numpy as np
import pytest

from sqkdsim import protocol, robustness
from sqkdsim.adversary import identity_attack, random_attack
from sqkdsim.cli import main
from sqkdsim.fock import ContractViolation
from sqkdsim.protocol import (BranchTable, ProtocolConfig, RoundEnumerator,
                              eve_conditional_states)
from sqkdsim.robustness import ConditionReport, check_conditions, robustness_sweep

CONDITIONS = [f for f in ConditionReport.__dataclass_fields__ if f != "cross_check_deviation"]
COLUMNS = list(BranchTable.__dataclass_fields__)


def _config(n_max, lossy):
    if lossy:
        return ProtocolConfig(n_max=n_max, channel_loss=0.8, bob_hadamard_prob=0.9)
    return ProtocolConfig(n_max=n_max)


def _assert_pair_equal(got, attack, config):
    """One stacked (ConditionReport, EveConditionals) equals the attack alone."""
    report, conditionals = got
    alone = check_conditions(attack, config)
    eve = eve_conditional_states(attack, config)
    assert [getattr(report, f) for f in CONDITIONS] == [getattr(alone, f) for f in CONDITIONS]
    assert conditionals.p_shared == eve.p_shared
    assert conditionals.p_bit == eve.p_bit
    assert conditionals.states.keys() == eve.states.keys()
    for b, state in eve.states.items():
        assert np.array_equal(conditionals.states[b].matrix, state.matrix)
    assert conditionals.trace_distance == eve.trace_distance


@pytest.mark.parametrize("lossy", [False, True])
@pytest.mark.parametrize("strength", [0.0, 1e-3, 0.3, 1.0])
@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_stack_equals_one_attack_at_a_time(n_max, strength, lossy):
    config = _config(n_max, lossy)
    for probe_dim in range(1, 9):
        attacks = [random_attack(1000 * probe_dim + k, probe_dim=probe_dim,
                                 strength=strength, n_max=n_max) for k in range(3)]
        stack = protocol._branch_stack(config, attacks)  # one pruned row set
        for k, attack in enumerate(attacks):
            alone = RoundEnumerator(config, attack).table
            for name in COLUMNS:
                column = getattr(stack, name)
                mine = column[k] if name in protocol._PER_ATTACK else column
                assert mine.shape == getattr(alone, name).shape, name
                assert (mine == getattr(alone, name)).all(), (name, probe_dim, k)
        for got, attack in zip(robustness._evaluate(config, attacks), attacks):
            _assert_pair_equal(got, attack, config)


def test_stack_that_prunes_apart_runs_one_attack_at_a_time():
    """The identity attack keeps Alice's swapped-out rails empty where a
    random attack does not, so the two prune different rows."""
    config = ProtocolConfig()
    attacks = [random_attack(7, probe_dim=3), identity_attack(probe_dim=3)]
    assert attacks[0].system == attacks[1].system
    with pytest.raises(protocol._PrunedApart):
        protocol._branch_stack(config, attacks)
    evaluated = robustness._evaluate(config, attacks)
    assert len(evaluated) == 2
    for got, attack in zip(evaluated, attacks):
        _assert_pair_equal(got, attack, config)


def test_probability_sum_check_fires_for_a_later_attack_of_a_stack():
    """Each attack of a stack gets the one-attack check and its message."""
    good, bad = random_attack(4, probe_dim=2), random_attack(5, probe_dim=2)
    bad.u_forward = 0.9 * bad.u_forward  # after validation
    with pytest.raises(ContractViolation, match="sum to") as alone:
        RoundEnumerator(ProtocolConfig(), bad).table
    with pytest.raises(ContractViolation, match="sum to") as stacked:
        protocol._branch_stack(ProtocolConfig(), [good, bad])
    assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize("n_max", [2, 3])
def test_sweep_records_do_not_depend_on_stacking(n_max, monkeypatch):
    stacked = robustness_sweep(master_seed=5, count=20, n_max=n_max, max_probe_dim=4)
    monkeypatch.setattr(robustness, "_STACK_BUDGET", 1)  # one attack per stack
    assert robustness_sweep(master_seed=5, count=20, n_max=n_max,
                            max_probe_dim=4).records == stacked.records


@pytest.mark.parametrize("strength", [2.0, math.nan, -0.1])
def test_sweep_checks_strength_without_attacks(strength):
    with pytest.raises(ValueError, match=r"strength must lie in \[0, 1\]"):
        robustness_sweep(count=0, strength=strength)


@pytest.mark.parametrize("strength", ["2", "nan"])
def test_sweep_command_rejects_strength_out_of_range(strength, tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--count", "0", "--strength", strength, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: strength must lie in [0, 1]")
    assert not out.exists()
