"""A stack of attacks has the bits of its attacks taken one at a time.

A sweep evaluates the attacks of one probe size as one stack: one branch
pass with a leading attack axis, one condition core and one Eve core.
Every column, cell weight, condition, probability and state must equal,
with ``==``, what the single-attack entry points give for each attack
alone.
"""
import math

import numpy as np
import pytest

from sqkdsim import protocol, robustness
from sqkdsim.adversary import (Attack, _check_unitary, _random_attacks, attack_space,
                               identity_attack, random_attack)
from sqkdsim.cli import main
from sqkdsim.fock import ContractViolation, _check_densities
from sqkdsim.measurement import AliceOp
from sqkdsim.protocol import (ProtocolConfig, RoundEnumerator, eve_conditional_states,
                              legacy_identification)
from sqkdsim.robustness import ConditionReport, check_conditions, robustness_sweep

CONDITIONS = list(ConditionReport.__dataclass_fields__)


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
    """The branch pass of a list of attacks on one space."""
    system, unitaries, probes = _raw(attacks)
    return protocol._branch_stack(config, system, unitaries[:, 0], unitaries[:, 1], probes)


def _evaluate(config, attacks):
    return robustness._evaluate(config, *_raw(attacks))


def assert_row_equal(found, k, attack, config):
    """Row ``k`` of a stacked evaluation record equals the attack alone:
    every condition, the bit probabilities, each present state, and the
    trace distance, NaN where the attack alone has None."""
    alone = check_conditions(attack, config)
    eve = eve_conditional_states(attack, config)
    assert found.conditions[k].tolist() == [getattr(alone, f) for f in CONDITIONS]
    assert found.p_bit[k].tolist() == [eve.p_bit[0], eve.p_bit[1]]
    assert found.p_bit[k].sum() == eve.p_shared
    present = found.p_bit[k] > protocol._PROBE_MASS_TOL
    assert set(np.flatnonzero(present).tolist()) == eve.states.keys()
    for b, state in eve.states.items():
        assert np.array_equal(found.rho[k, b], state)
    dist = found.trace_distance[k].item()
    assert (None if math.isnan(dist) else dist) == eve.trace_distance
    assert math.isnan(dist) == (not present.all())


@pytest.mark.parametrize("lossy", [False, True])
@pytest.mark.parametrize("strength", [0.0, 1e-3, 0.3, 1.0])
@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_stack_equals_one_attack_at_a_time(n_max, strength, lossy):
    config = _config(n_max, lossy)
    for probe_dim in range(1, 9):
        attacks = [random_attack(1000 * probe_dim + k, probe_dim=probe_dim,
                                 strength=strength, n_max=n_max) for k in range(3)]
        stacked = _branch_stack(config, attacks)  # one pruned row set
        for k, attack in enumerate(attacks):
            alone = RoundEnumerator(config, attack)._pass
            assert stacked.cells is alone.cells  # so equal cells give equal labels
            for name in protocol._Pass._fields[1:]:
                mine, theirs = getattr(stacked, name), getattr(alone, name)
                if name != "cell":
                    mine, theirs = mine[k], theirs[0]
                assert mine.shape == theirs.shape, name
                assert (mine == theirs).all(), (name, probe_dim, k)
        found = _evaluate(config, attacks)
        for k, attack in enumerate(attacks):
            assert_row_equal(found, k, attack, config)


def test_stack_that_prunes_apart_runs_one_attack_at_a_time():
    """The identity attack keeps Alice's swapped-out rails empty where a
    random attack does not, so the two prune different rows."""
    config = ProtocolConfig()
    attacks = [random_attack(7, probe_dim=3), identity_attack(probe_dim=3)]
    assert attacks[0].system == attacks[1].system
    with pytest.raises(protocol._PrunedApart):
        _branch_stack(config, attacks)
    found = _evaluate(config, attacks)
    assert [len(column) for column in found] == [2] * 4
    for k, attack in enumerate(attacks):
        assert_row_equal(found, k, attack, config)


@pytest.mark.parametrize("config, bits", [
    (ProtocolConfig(alice_op_probs={AliceOp.SWAP_10: 1.0}), {0}),  # Bob's bit is always 0
    (ProtocolConfig(channel_loss=0.0), set()),  # no photon comes back
], ids=["swap-10-only", "no-survival"])
def test_an_absent_bit_has_no_state_and_no_distance(config, bits):
    attack = identity_attack(probe_dim=2)
    eve = eve_conditional_states(attack, config)
    assert eve.states.keys() == bits
    assert eve.trace_distance is None
    assert (eve.p_shared == 0.0) == (not bits)
    found = _evaluate(config, [attack, attack])
    assert np.isnan(found.trace_distance).all()
    assert found.p_bit.tolist() == [[eve.p_bit[0], eve.p_bit[1]]] * 2
    for k in range(2):
        assert_row_equal(found, k, attack, config)


def test_sweep_builds_no_report_objects(monkeypatch):
    """The sweep reads the stacked record: it builds no condition report
    and no Eve report."""
    expected = robustness_sweep(master_seed=5, count=16, max_probe_dim=8)

    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep built a report object")

    monkeypatch.setattr(protocol, "EveConditionals", forbidden)
    monkeypatch.setattr(robustness, "ConditionReport", forbidden)
    with pytest.raises(AssertionError, match="report object"):
        eve_conditional_states(identity_attack())  # the patches do bite
    assert robustness_sweep(master_seed=5, count=16, max_probe_dim=8).records == \
        expected.records


def test_probability_sum_check_fires_for_a_later_attack_of_a_stack():
    """Each attack of a stack gets the one-attack check and its message."""
    good, bad = random_attack(4, probe_dim=2), random_attack(5, probe_dim=2)
    object.__setattr__(bad, "u_forward", 0.9 * bad.u_forward)  # after validation
    with pytest.raises(ContractViolation, match="sum to") as alone:
        RoundEnumerator(ProtocolConfig(), bad)._pass
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
def test_density_check_of_a_stack_raises_the_one_matrix_message(defect):
    """A good matrix passes the check alone, a defective one fails it, and
    a stack fails with the message of its first defective matrix alone."""
    rng = np.random.default_rng(3)
    good, bad = _density(rng, 4), _density(rng, 4)
    if defect == "adjoint":
        bad[0, 1] += 1e-3
    elif defect == "negative":
        bad = bad + np.diag([-0.05, 0.05, 0.0, 0.0])  # still Hermitian with trace 1
        assert np.linalg.eigvalsh(bad).min() < -1e-10
    else:
        bad = 1.001 * bad
    _check_densities(good[None])
    with pytest.raises(ValueError, match="density matrix") as alone:
        _check_densities(bad[None])
    with pytest.raises(ValueError, match="density matrix") as stacked:
        _check_densities(np.array([good, bad, good]))
    assert str(stacked.value) == str(alone.value)


def _corrupt(mats, k, defect):
    """A copy of a stack of 4-level density matrices with matrix ``k``
    made non-Hermitian, negative or of trace 1.001."""
    mats = mats.copy()
    if defect == "adjoint":
        mats[k, 0, 1] += 1e-3
    elif defect == "negative":
        mats[k] += np.diag([-1.0, 1.0, 0.0, 0.0])  # still Hermitian with trace 1
        assert np.linalg.eigvalsh(mats[k]).min() < -1e-10
    else:
        mats[k] *= 1.001
    return mats


@pytest.mark.parametrize("defect", ["adjoint", "negative", "trace"])
def test_eve_state_check_of_a_sweep_stack_raises_the_one_matrix_message(defect, monkeypatch):
    """A defective state of the second attack, met where the sweep's Eve
    core checks every state and takes every trace distance in one call."""
    check = protocol._check_densities
    seen = []

    def corrupted(mats, differences=None):
        # rows: (attack 0, bit 0), (attack 0, bit 1), (attack 1, bit 0), ...
        mats = _corrupt(mats, 2, defect)
        seen.append(mats[2])
        return check(mats, differences)

    monkeypatch.setattr(protocol, "_check_densities", corrupted)
    message = {"adjoint": "not Hermitian", "negative": "negative eigenvalue",
               "trace": "trace"}[defect]
    with pytest.raises(ValueError, match=message) as stacked:
        _evaluate(ProtocolConfig(), [random_attack(20 + k, probe_dim=4) for k in range(3)])
    with pytest.raises(ValueError, match="density matrix") as alone:
        _check_densities(seen[0][None])
    assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize("which", [0, 1])  # CTRL, SIFT
@pytest.mark.parametrize("defect", ["adjoint", "negative", "trace"])
def test_legacy_state_check_raises_the_one_matrix_message(defect, which, monkeypatch):
    """A defective CTRL or SIFT state, met where legacy identification
    checks both states and takes their distance in one call."""
    check = protocol._check_densities
    seen = []

    def corrupted(mats, differences=None):
        mats = _corrupt(mats, which, defect)
        seen.append(mats[which])
        return check(mats, differences)

    monkeypatch.setattr(protocol, "_check_densities", corrupted)
    with pytest.raises(ValueError, match="density matrix") as stacked:
        legacy_identification(random_attack(7, probe_dim=4))
    with pytest.raises(ValueError, match="density matrix") as alone:
        _check_densities(seen[0][None])
    assert len(seen) == 1
    assert str(stacked.value) == str(alone.value)
