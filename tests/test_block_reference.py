"""The exact analyses against an independent per-block reference.

The analyses read each cell's weight, the sum of its rows, and Eve's states
weigh each row by its cell.  The reference here picks each (operation,
basis) block's rows of the branch pass with a ``table_id == t`` mask over
the record read at each row's cell, adds each cell's rows one at a time,
derives click counts and the SharedBit mask on its own, and repeats each
formula in the order the library adds.  Every value must agree exactly,
not approximately.  Per-row formulas that sum each block's rows directly
are a second reference, within 1e-14.  The configs include a skewed
operation distribution, which the command line cannot set.
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
ROW_ORDER_TOL = 1e-14  # the per-row formulas add in another order
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
    """The columns of one (operation, basis) block of the pass, picked by a
    mask: the pass's own columns, and the record read at each row's cell."""
    ops = enum.config.variant.operations
    t = ops.index(op) + (len(ops) if basis is Basis.HADAMARD else 0)
    found = enum._pass
    rows = found.cells.table_id[found.cell] == t
    assert rows.any()
    cell = found.cell[rows]
    return {"probability": found.probability[0, rows], "eve_probe": found.eve_probe[0, rows],
            **{name: getattr(found.cells, name)[cell]
               for name in ("alice_pattern", "bob_pattern", "interpretation", "bob_bit")}}


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


def _cell_weights(block):
    """A block's 20 cells, code (Alice's code + 1) * 4 + Bob's code: each
    one's rows added one at a time in row order, 0.0 where none occurs."""
    weights = [0.0] * 20
    for p, a, b in zip(block["probability"].tolist(), block["alice_pattern"].tolist(),
                       block["bob_pattern"].tolist()):
        weights[(a + 1) * 4 + b] += p
    return np.array(weights)


_CELL_ALICE, _CELL_BOB = np.divmod(np.arange(20), 4)
_CELL_ALICE -= 1  # Alice's pattern code, -1 where she measured nothing


def _cell_conditions(enum):
    """The seven conditions summed over each block's cells in code order."""
    p_had = enum.config.bob_hadamard_prob
    p_comp = 1.0 - p_had
    a, b = _clicks(_CELL_ALICE), _clicks(_CELL_BOB)
    ctrl = _cell_weights(_block(enum, AliceOp.CTRL, Basis.HADAMARD))
    ctrl_minus = p_had * float(ctrl[_CELL_BOB >= ClickPattern.P10.code].sum())
    both_held = double = 0.0
    wrong = []
    for op, forbidden in ((AliceOp.SWAP_10, ClickPattern.P10),
                          (AliceOp.SWAP_01, ClickPattern.P01)):
        w = _cell_weights(_block(enum, op, Basis.COMPUTATIONAL))
        both_held = max(both_held, float(p_comp * w[(a >= 1) & (b >= 1)].sum()))
        double = max(double, float(p_comp * w[(a == 2) | (b == 2)].sum()))
        wrong.append(float(p_comp * w[(_CELL_ALICE == ClickPattern.P00.code)
                                      & (_CELL_BOB == forbidden.code)].sum()))
    w = _cell_weights(_block(enum, AliceOp.SWAP_ALL, Basis.COMPUTATIONAL))
    alice_double = float(w[_CELL_ALICE == ClickPattern.P11.code].sum())
    bob_click = p_comp * float(w[b >= 1].sum())
    return (ctrl_minus, both_held, double, *wrong, alice_double, bob_click)


def _cell_eve(enum):
    """Eve's states as one product over every row of both swaps' SharedBit
    cells, each row weighted by its swap, in table order."""
    probs = enum.config.alice_op_probs
    w10, w01 = probs[AliceOp.SWAP_10], probs[AliceOp.SWAP_01]
    rho = []
    for bit in (0, 1):
        weighted, probes = [], []
        for op, w in ((AliceOp.SWAP_10, w10 / (w10 + w01)),
                      (AliceOp.SWAP_01, w01 / (w10 + w01))):
            block = _block(enum, op, Basis.COMPUTATIONAL)
            rows = (block["interpretation"] == SHARED) & (block["bob_bit"] == bit)
            weighted.append(w * block["probability"][rows])
            probes.append(block["eve_probe"][rows])
        rho.append(_mixture(1.0, np.concatenate(weighted), np.concatenate(probes)))
    p_bit = [float(np.trace(m).real) for m in rho]
    return p_bit, [m / p for m, p in zip(rho, p_bit)]


def _row_order_conditions(enum):
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


def _row_order_eve(enum):
    probs = enum.config.alice_op_probs
    w10, w01 = probs[AliceOp.SWAP_10], probs[AliceOp.SWAP_01]
    pl = enum.system.probe_dim
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
        found = (report.ctrl_minus, report.swap_x_both_held, report.swap_x_double,
                 report.swap_10_wrong_mode, report.swap_01_wrong_mode,
                 report.swap_all_alice_double, report.swap_all_bob_click)
        assert found == _cell_conditions(enum)
        assert np.abs(np.subtract(found, _row_order_conditions(enum))).max() <= ROW_ORDER_TOL

        conditionals = eve_conditional_states(attack, config, enumerator=enum)
        p_bit, states = _cell_eve(enum)
        assert conditionals.p_bit == {0: p_bit[0], 1: p_bit[1]}
        assert conditionals.p_shared == p_bit[0] + p_bit[1]
        for bit in (0, 1):
            assert np.array_equal(conditionals.states[bit], states[bit])
        assert conditionals.trace_distance == trace_distance(*states)
        row_p_bit, row_states = _row_order_eve(enum)
        assert np.abs(np.subtract(p_bit, row_p_bit)).max() <= ROW_ORDER_TOL
        for bit in (0, 1):
            assert np.abs(states[bit] - row_states[bit]).max() <= ROW_ORDER_TOL


@pytest.mark.parametrize("n_max,loss,p_had", CONFIGS)
def test_legacy_identification_equals_the_block_reference(n_max, loss, p_had):
    config = _config(Variant.LEGACY, n_max, loss, p_had)
    attack = random_attack(200 + n_max, probe_dim=3, strength=0.3, n_max=n_max)
    enum = RoundEnumerator(config, attack)
    _assert_branches_are_the_blocks(enum)
    ident = legacy_identification(attack, config, enumerator=enum)
    pl = enum.system.probe_dim
    reference = []
    for op, density in ((AliceOp.CTRL, ident.rho_ctrl), (AliceOp.SIFT, ident.rho_sift)):
        # One product over both bases' rows, in table order (computational first).
        weighted, probes = [], []
        for basis, w in ((Basis.COMPUTATIONAL, 1.0 - p_had), (Basis.HADAMARD, p_had)):
            block = _block(enum, op, basis)
            weighted.append(w * block["probability"])
            probes.append(block["eve_probe"])
        mat = _mixture(1.0, np.concatenate(weighted), np.concatenate(probes))
        mat /= float(np.trace(mat).real)  # normalised as Eve's mirror states are
        assert np.array_equal(density, mat)
        reference.append(mat)

        # Second reference: one product per block, added per basis.
        row_order = np.zeros((pl, pl), dtype=np.complex128)
        for basis, w in ((Basis.HADAMARD, p_had), (Basis.COMPUTATIONAL, 1.0 - p_had)):
            block = _block(enum, op, basis)
            row_order += _mixture(w, block["probability"], block["eve_probe"])
        row_order /= float(np.trace(row_order).real)
        assert np.abs(mat - row_order).max() <= ROW_ORDER_TOL
    assert ident.trace_distance == trace_distance(*reference)
    assert ident.accuracy == 0.5 * (1.0 + ident.trace_distance)
