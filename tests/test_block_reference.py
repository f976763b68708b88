"""The exact analyses against an independent per-block reference.

The analyses read each (operation, basis) block of an enumerator's table
through its row range.  The reference here picks the same rows with a
``table.table_id == t`` mask instead, derives click counts and the SharedBit
mask on its own, and repeats each formula on those rows.  Every value must
agree exactly, not approximately.  The configs include a skewed operation
distribution, which the command line cannot set.
"""
import numpy as np
import pytest

from sqkdsim.adversary import random_attack
from sqkdsim.fock import trace_distance
from sqkdsim.measurement import AliceOp, Basis, ClickPattern, Interpretation
from sqkdsim.protocol import (INTERPRETATIONS, ProtocolConfig, RoundEnumerator,
                              Variant, eve_conditional_states, legacy_identification)
from sqkdsim.robustness import check_conditions

SHARED = INTERPRETATIONS.index(Interpretation.SHARED_BIT)
SKEWED = {
    Variant.MIRROR: {AliceOp.CTRL: 0.1, AliceOp.SWAP_10: 0.2,
                     AliceOp.SWAP_01: 0.6, AliceOp.SWAP_ALL: 0.1},
    Variant.LEGACY: {AliceOp.CTRL: 0.3, AliceOp.SIFT: 0.7},
}
CONFIGS = [(n_max, loss, p_had) for n_max in (2, 3, 4)
           for loss in (1.0, 0.8) for p_had in (0.5, 0.9)]


def _config(variant, n_max, loss, p_had):
    return ProtocolConfig(variant=variant, n_max=n_max, channel_loss=loss,
                          bob_hadamard_prob=p_had, alice_op_probs=SKEWED[variant])


def _block(enum, op, basis):
    """The columns of one (operation, basis) block, picked by a mask."""
    ops = enum.config.variant.operations
    t = ops.index(op) + (len(ops) if basis is Basis.HADAMARD else 0)
    rows = enum.table.table_id == t
    assert rows.any()
    return {name: getattr(enum.table, name)[rows]
            for name in ("probability", "alice_pattern", "bob_pattern",
                         "interpretation", "bob_bit", "eve_probe")}


def _assert_branches_are_the_blocks(enum):
    for op in enum.config.variant.operations:
        for basis in Basis:
            table, block = enum.branches(op, basis), _block(enum, op, basis)
            for name, column in block.items():
                assert np.array_equal(getattr(table, name), column)


def _clicks(codes):
    """Detectors fired per pattern code (bit 1: mode 1, bit 0: mode 0); -1 is none."""
    return np.where(codes < 0, 0, (codes & 1) + ((codes >> 1) & 1))


def _mixture(w, probability, probe):
    return ((w * probability)[:, None] * probe).T @ probe.conj()


def _reference_conditions(enum):
    p_had = enum.config.bob_hadamard_prob
    p_comp = 1.0 - p_had
    ctrl = _block(enum, AliceOp.CTRL, Basis.HADAMARD)
    ctrl_minus = p_had * float(
        ctrl["probability"][ctrl["bob_pattern"] >= ClickPattern.P10.code].sum())
    both_held = double = 0.0
    wrong = []
    for op, forbidden in ((AliceOp.SWAP_10, ClickPattern.P10),
                          (AliceOp.SWAP_01, ClickPattern.P01)):
        block = _block(enum, op, Basis.COMPUTATIONAL)
        p = block["probability"]
        a, b = _clicks(block["alice_pattern"]), _clicks(block["bob_pattern"])
        both_held = max(both_held, float(p_comp * p[(a >= 1) & (b >= 1)].sum()))
        double = max(double, float(p_comp * p[(a == 2) | (b == 2)].sum()))
        wrong.append(float(p_comp * p[(a == 0)
                                      & (block["bob_pattern"] == forbidden.code)].sum()))
    swap_all = _block(enum, AliceOp.SWAP_ALL, Basis.COMPUTATIONAL)
    p = swap_all["probability"]
    alice_double = float(p[swap_all["alice_pattern"] == ClickPattern.P11.code].sum())
    bob_click = p_comp * float(p[_clicks(swap_all["bob_pattern"]) >= 1].sum())
    return (ctrl_minus, both_held, double, *wrong, alice_double, bob_click)


def _reference_eve(enum):
    probs = enum.config.alice_op_probs
    w10, w01 = probs[AliceOp.SWAP_10], probs[AliceOp.SWAP_01]
    pl = enum.system.probe_levels
    rho = [np.zeros((pl, pl), dtype=np.complex128) for _ in (0, 1)]
    for op, w in ((AliceOp.SWAP_10, w10 / (w10 + w01)),
                  (AliceOp.SWAP_01, w01 / (w10 + w01))):
        block = _block(enum, op, Basis.COMPUTATIONAL)
        for bit in (0, 1):
            rows = (block["interpretation"] == SHARED) & (block["bob_bit"] == bit)
            rho[bit] += _mixture(w, block["probability"][rows], block["eve_probe"][rows])
    p_bit = [float(np.trace(m).real) for m in rho]
    return p_bit, [m / p for m, p in zip(rho, p_bit)]


@pytest.mark.parametrize("n_max,loss,p_had", CONFIGS)
def test_mirror_analyses_equal_the_block_reference(n_max, loss, p_had):
    config = _config(Variant.MIRROR, n_max, loss, p_had)
    for probe_dim in (2, 5):
        attack = random_attack(100 * n_max + probe_dim, probe_dim=probe_dim,
                               strength=0.3, n_max=n_max)
        enum = RoundEnumerator(config, attack)
        _assert_branches_are_the_blocks(enum)
        report = check_conditions(attack, config, enumerator=enum)
        assert (report.ctrl_minus, report.swap_x_both_held, report.swap_x_double,
                report.swap_10_wrong_mode, report.swap_01_wrong_mode,
                report.swap_all_alice_double,
                report.swap_all_bob_click) == _reference_conditions(enum)

        conditionals = eve_conditional_states(attack, config, enumerator=enum)
        p_bit, states = _reference_eve(enum)
        assert conditionals.p_bit == {0: p_bit[0], 1: p_bit[1]}
        assert conditionals.p_shared == p_bit[0] + p_bit[1]
        for bit in (0, 1):
            assert np.array_equal(conditionals.states[bit].matrix, states[bit])
        assert conditionals.trace_distance == trace_distance(*states)


@pytest.mark.parametrize("n_max,loss,p_had", CONFIGS)
def test_legacy_identification_equals_the_block_reference(n_max, loss, p_had):
    config = _config(Variant.LEGACY, n_max, loss, p_had)
    attack = random_attack(200 + n_max, probe_dim=3, strength=0.3, n_max=n_max)
    enum = RoundEnumerator(config, attack)
    _assert_branches_are_the_blocks(enum)
    ident = legacy_identification(attack, config, enumerator=enum)
    pl = enum.system.probe_levels
    reference = []
    for op, density in ((AliceOp.CTRL, ident.rho_ctrl), (AliceOp.SIFT, ident.rho_sift)):
        mat = np.zeros((pl, pl), dtype=np.complex128)
        for basis, w in ((Basis.HADAMARD, p_had), (Basis.COMPUTATIONAL, 1.0 - p_had)):
            block = _block(enum, op, basis)
            mat += _mixture(w, block["probability"], block["eve_probe"])
        mat /= float(np.trace(mat).real)  # normalised as Eve's mirror states are
        assert np.array_equal(density.matrix, mat)
        reference.append(mat)
    assert ident.trace_distance == trace_distance(*reference)
    assert ident.accuracy == 0.5 * (1.0 + ident.trace_distance)
