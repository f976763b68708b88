"""A branch pass keeps nothing between calls.

``_branch_stack`` does its index work on every call: each row's cell from
Alice's and Bob's plans and the live masks, the stable sort into (operation,
basis) blocks and the marked-cell check, all read against the variant's one
cell record.  The pass's cell weights, which the analyses and the sampler
read, must equal a per-row loop; ``RoundEnumerator.branches`` reads one
block's probabilities from the pass, and no analysis calls it.
"""
import numpy as np
import pytest

from sqkdsim import protocol
from sqkdsim.adversary import Attack, identity_attack, random_attack
from sqkdsim.measurement import AliceOp, Basis
from sqkdsim.protocol import (ProtocolConfig, RoundEnumerator, Variant, eve_conditional_states,
                              exact_statistics, legacy_identification, run_protocol)
from sqkdsim.robustness import ConditionReport, check_conditions, robustness_sweep

CONDITIONS = list(ConditionReport.__dataclass_fields__)


def _results(config, attack):
    """Every column of the pass and analysis value of one attack, from a new
    enumerator."""
    enum = RoundEnumerator(config, attack)
    found = {name: getattr(enum._pass, name) for name in protocol._Pass._fields[1:]}
    if config.variant is Variant.MIRROR:
        report = check_conditions(attack, config, enumerator=enum)
        found.update((name, getattr(report, name)) for name in CONDITIONS)
        eve = eve_conditional_states(attack, config, enumerator=enum)
        found.update(p_shared=eve.p_shared, p_bit=eve.p_bit,
                     trace_distance=eve.trace_distance, states=eve.states)
    else:
        ident = legacy_identification(attack, config, enumerator=enum)
        found.update(rho_ctrl=ident.rho_ctrl, rho_sift=ident.rho_sift,
                     trace_distance=ident.trace_distance)
    return found, enum._pass


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


def _assert_passes_apart(config, attacks):
    """Each attack, taken after the other, gives with ``==`` what it gives
    alone, from a pass of its own; returns the two passes' row counts."""
    alone = [_results(config, attack)[0] for attack in attacks]
    after = [_results(config, attack) for attack in attacks]
    assert after[0][1] is not after[1][1]
    assert after[0][1].cells is after[1][1].cells  # the variant's one record
    for (got, _), expected, attack in zip(after, alone, attacks):
        _assert_equal(got, expected, attack.name)
    for (got, _), expected, attack in zip(reversed(after), reversed(alone), reversed(attacks)):
        _assert_equal(_results(config, attack)[0], expected, attack.name)
    return [len(got["cell"]) for got, _ in after]


def test_table_columns_are_read_only():
    enum = RoundEnumerator(ProtocolConfig(channel_loss=0.9), random_attack(1, probe_dim=2))
    for key in protocol._table_keys(Variant.MIRROR):
        block = enum.branches(*key)
        assert not block.flags.writeable, key
        with pytest.raises(ValueError, match="read-only"):
            block[0] = 0
    for name in protocol._Pass._fields[1:]:  # the record's own columns are checked apart
        assert not getattr(enum._pass, name).flags.writeable, name


@pytest.mark.parametrize("variant", list(Variant))
def test_blocks_are_the_pass_rows(variant):
    """Each (operation, basis) block is the pass's probabilities at the
    rows whose cells the record puts in it, in row order."""
    enum = RoundEnumerator(ProtocolConfig(variant=variant, channel_loss=0.9),
                           random_attack(3, probe_dim=2))
    found = enum._pass
    table_id = found.cells.table_id[found.cell]
    blocks = [enum.branches(*key) for key in protocol._table_keys(variant)]
    assert sum(map(len, blocks)) == len(found.cell)  # the blocks hold every row
    for t, block in enumerate(blocks):
        expected = found.probability[0, table_id == t]
        assert block.ndim == 1 and block.dtype == expected.dtype, t
        assert block.shape == expected.shape and (block == expected).all(), t


def test_analyses_build_no_row_view(monkeypatch):
    """Runs, exact statistics, conditions, Eve's states, legacy
    identification and sweeps read the pass, never ``branches``."""
    attack = random_attack(5, probe_dim=2)
    mirror, legacy = (ProtocolConfig(variant=v, n_rounds=200, channel_loss=0.9)
                      for v in Variant)
    expected = [run_protocol(mirror, attack), exact_statistics(mirror, attack),
                check_conditions(attack, mirror), eve_conditional_states(attack, mirror).p_bit,
                legacy_identification(attack, legacy).trace_distance,
                robustness_sweep(master_seed=2, count=8).records]

    def forbidden(*args, **kwargs):
        raise AssertionError("a row view was built")

    monkeypatch.setattr(RoundEnumerator, "branches", forbidden)
    with pytest.raises(AssertionError, match="row view"):
        RoundEnumerator(mirror, attack).branches(AliceOp.CTRL, Basis.HADAMARD)  # it bites
    assert [run_protocol(mirror, attack), exact_statistics(mirror, attack),
            check_conditions(attack, mirror), eve_conditional_states(attack, mirror).p_bit,
            legacy_identification(attack, legacy).trace_distance,
            robustness_sweep(master_seed=2, count=8).records] == expected


def test_identity_and_random_attack_get_separate_layouts():
    """On one space the identity attack prunes rows a random attack keeps,
    so each has a pass of its own and gives what it gives alone."""
    attacks = [identity_attack(probe_dim=3), random_attack(7, probe_dim=3)]
    for variant in Variant:
        rows = _assert_passes_apart(ProtocolConfig(variant=variant, channel_loss=0.8), attacks)
        assert rows[0] < rows[1], variant


@pytest.mark.parametrize("survival", [1.0, 0.8])
def test_attacks_differing_only_after_alice_get_separate_layouts(survival):
    """Alice prunes the same rows for both; an identity backward pass keeps
    her emptied rails empty, which the second loss and Bob then prune."""
    forward = random_attack(7, probe_dim=3)
    attacks = [Attack(name, forward.system, forward.u_forward, v, forward.initial_probe)
               for name, v in (("identity back", np.eye(forward.system.dim)),
                               ("random back", random_attack(8, probe_dim=3).v_backward))]
    for variant in Variant:
        config = ProtocolConfig(variant=variant, channel_loss=survival)
        rows = _assert_passes_apart(config, attacks)
        assert rows[0] < rows[1], variant


# Cells that occur: the mirror variant's four operations and the legacy
# variant's two, at n_max 1 (one photon at most, so no double click) and above.
PRESENT_CELLS = {Variant.MIRROR: {1: 48, 2: 72}, Variant.LEGACY: {1: 24, 2: 40}}


@pytest.mark.parametrize("survival", [1.0, 0.9])
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_cell_weights_equal_a_per_row_loop(n_max, variant, survival):
    """Each cell's weight is its rows' probabilities added one at a time in
    row order, grouped by (table_id, Alice's pattern, Bob's pattern) and
    coded table_id * 20 + (Alice's code + 1) * 4 + Bob's code; every cell
    that occurs has a positive weight, and every other weighs 0."""
    config = ProtocolConfig(variant=variant, n_max=n_max, channel_loss=survival)
    for probe_dim in (1, 4, 8):
        attack = random_attack(10 * n_max + probe_dim, probe_dim=probe_dim, n_max=n_max)
        enum = RoundEnumerator(config, attack)
        found = enum._pass
        record, cell = found.cells, found.cell
        sums = {}
        for row in zip(record.table_id[cell].tolist(), record.alice_pattern[cell].tolist(),
                       record.bob_pattern[cell].tolist(), found.probability[0].tolist()):
            key = row[:3]
            sums[key] = sums.get(key, 0.0) + row[3]
        expected = np.zeros(2 * len(variant.operations) * 20)
        for (t, a, b), p in sums.items():
            expected[t * 20 + (a + 1) * 4 + b] = p
        where = (probe_dim, len(cell))
        assert found.weights.shape == (1, len(expected)), where
        assert (found.weights[0] == expected).all(), where
        assert len(sums) == PRESENT_CELLS[variant][min(n_max, 2)], where
        assert min(sums.values()) > 0.0, where
        # The sampler takes the cells that occur from the nonzero weights.
        assert np.unique(cell).tolist() == np.flatnonzero(expected).tolist(), where


@pytest.mark.parametrize("variant", list(Variant))
def test_every_layout_of_a_variant_holds_its_one_cell_record(variant):
    """No pass builds labels of its own: each holds the variant's record,
    which is built once per process."""
    record = protocol._cells(variant)
    assert protocol._cells(variant) is record
    for n_max in (1, 2, 3, 4):
        for survival in (1.0, 0.9):
            config = ProtocolConfig(variant=variant, n_max=n_max, channel_loss=survival)
            for attack in (identity_attack(n_max=n_max),
                           random_attack(n_max, probe_dim=2, n_max=n_max)):
                found = RoundEnumerator(config, attack)._pass
                assert found.cells is record, (n_max, survival, attack.name)
