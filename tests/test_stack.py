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
from sqkdsim.adversary import (Attack, _check_unitary, _random_attacks, attack_space,
                               identity_attack, random_attack)
from sqkdsim.cli import main
from sqkdsim.fock import ContractViolation, DensityOperator, ModeSystem, _check_densities
from sqkdsim.protocol import (BranchTable, ProtocolConfig, RoundEnumerator,
                              eve_conditional_states)
from sqkdsim.robustness import ConditionReport, check_conditions, robustness_sweep

CONDITIONS = [f for f in ConditionReport.__dataclass_fields__ if f != "cross_check_deviation"]
COLUMNS = list(BranchTable.__dataclass_fields__)


def _config(n_max, lossy):
    if lossy:
        return ProtocolConfig(n_max=n_max, channel_loss=0.8, bob_hadamard_prob=0.9)
    return ProtocolConfig(n_max=n_max)


def _raw(attacks):
    """Attacks on one space as the raw stacks a sweep evaluates: the space,
    (attack, U/V, d, d) unitaries and (attack, level) initial probes."""
    return (attacks[0].system, np.array([(a.u_forward, a.v_backward) for a in attacks]),
            np.array([a.initial_probe for a in attacks]))


def _branch_stack(config, attacks):
    system, unitaries, probes = _raw(attacks)
    return protocol._branch_stack(config, system, unitaries[:, 0], unitaries[:, 1], probes)


def _evaluate(config, attacks):
    return robustness._evaluate(config, *_raw(attacks))


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
        stack = _branch_stack(config, attacks)  # one pruned row set
        for k, attack in enumerate(attacks):
            alone = RoundEnumerator(config, attack).table
            for name in COLUMNS:
                column = getattr(stack, name)
                mine = column[k] if name in protocol._PER_ATTACK else column
                assert mine.shape == getattr(alone, name).shape, name
                assert (mine == getattr(alone, name)).all(), (name, probe_dim, k)
        for got, attack in zip(_evaluate(config, attacks), attacks):
            _assert_pair_equal(got, attack, config)


def test_stack_that_prunes_apart_runs_one_attack_at_a_time():
    """The identity attack keeps Alice's swapped-out rails empty where a
    random attack does not, so the two prune different rows."""
    config = ProtocolConfig()
    attacks = [random_attack(7, probe_dim=3), identity_attack(probe_dim=3)]
    assert attacks[0].system == attacks[1].system
    with pytest.raises(protocol._PrunedApart):
        _branch_stack(config, attacks)
    evaluated = _evaluate(config, attacks)
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
        _branch_stack(ProtocolConfig(), [good, bad])
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


@pytest.mark.parametrize("strength", [0.0, 1e-3, 0.3, 1.0])
@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_unitary_builder_slices_equal_random_attack(n_max, strength):
    """Each seed of a chunk gets exactly the unitaries of its own attack."""
    for probe_dim in range(1, 9):
        seeds = [31 * probe_dim + k for k in range(8)]
        alone = [random_attack(seed, probe_dim=probe_dim, strength=strength, n_max=n_max)
                 for seed in seeds]
        system = alone[0].system
        for k in range(1, 9):
            stack, probes = _random_attacks(seeds[:k], system, strength)
            assert stack.shape == (k, 2, system.dim, system.dim)
            for (u, v), probe, attack in zip(stack, probes, alone):
                assert np.array_equal(u, attack.u_forward), (probe_dim, k)
                assert np.array_equal(v, attack.v_backward), (probe_dim, k)
                assert np.array_equal(probe, attack.initial_probe)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", ["scaled", "nan"])
@pytest.mark.parametrize("where", [(0, 1), (1, 0)])  # V of attack 0, U of attack 1
def test_unitarity_check_of_a_stack_raises_the_attack_message(where, bad):
    system = attack_space(n_max=2, probe_dim=3)
    stack = _random_attacks([5, 6, 7], system, 0.3)[0].copy()
    if bad == "nan":
        stack[where][2, 1] = np.nan
    else:
        stack[where] *= 1.01
    with pytest.raises(ValueError, match="is not unitary") as stacked:
        _check_unitary(stack)
    with pytest.raises(ValueError, match="is not unitary") as alone:
        Attack("x", system, *stack[where[0]], [1, 0, 0])
    assert str(stacked.value) == str(alone.value)


def _density(rng, n):
    """A random full-rank density matrix of dimension ``n``."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("defect", ["adjoint", "negative", "trace"])
def test_density_check_of_a_stack_raises_the_validate_message(defect):
    rng = np.random.default_rng(3)
    good, bad = _density(rng, 4), _density(rng, 4)
    if defect == "adjoint":
        bad[0, 1] += 1e-3
    elif defect == "negative":
        bad = bad + np.diag([-0.05, 0.05, 0.0, 0.0])  # still Hermitian with trace 1
        assert np.linalg.eigvalsh(bad).min() < -1e-10
    else:
        bad = 1.001 * bad
    space = ModeSystem(num_pairs=0, n_max=0, probe_dim=4)
    DensityOperator(space, good).validate()
    with pytest.raises(ValueError, match="density matrix") as alone:
        DensityOperator(space, bad).validate()
    with pytest.raises(ValueError, match="density matrix") as stacked:
        _check_densities(np.array([good, bad, good]))
    assert str(stacked.value) == str(alone.value)
