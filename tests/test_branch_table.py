"""The stacked-array branch pass against a per-branch reference loop.

``reference_branches`` walks one round branch by branch with
:class:`FockVector` states and the per-state reference measurement
(``reference_measurement``): channel loss, Eve's forward pass, Alice's
stage, Eve's backward pass, loss again, and Bob's threshold measurement,
in nested loops.  The enumerator must give the same rows in the same
order.
"""
import numpy as np
import pytest

from sqkdsim.adversary import (Attack, identity_attack, measure_resend_attack, random_attack,
                               tagging_attack)
from sqkdsim.alice import swapped_slots
from sqkdsim.fock import (ContractViolation, FockVector, ModeSystem,
                          apply_truncating_unitary, hadamard_matrix)
from sqkdsim.measurement import AliceOp, Basis, ClickPattern, Interpretation
from sqkdsim.protocol import (INTERPRETATIONS, ProtocolConfig,
                              RoundEnumerator, Variant, _loss_maps)
import sqkdsim.protocol as protocol

from extra_attacks import probe_rotation_attack
from extra_states import apply_creation
from pass_blocks import pass_block
from reference_measurement import measure_pair, measure_slots

PRUNE = 1e-24
PAIR = 0


def threshold_measure(state: FockVector, pair: int,
                      basis: Basis = Basis.COMPUTATIONAL) -> list:
    """Measure ``pair`` with threshold detectors in the given basis.

    For the Hadamard basis the pair is rotated first, so patterns read as
    (minus, plus) clicks.  The residuals have the measured pair emptied and
    are valid continuation states for the unmeasured factors.
    """
    if basis is Basis.HADAMARD:
        state = FockVector(state.system,
                           hadamard_matrix(state.system, pair) @ state.amplitudes,
                           state.leaked)
    return measure_pair(state, pair)


def _loss(state: FockVector, q: float) -> list:
    if q >= 1.0:
        return [state]
    out = []
    for src, dst, amp in _loss_maps(state.system, state.system.pair_slots(0), q).values():
        amps = np.zeros(state.system.dim, dtype=np.complex128)
        amps[dst] = state.amplitudes[src] * amp
        vec = FockVector(state.system, amps, state.leaked)
        if vec.norm2 > PRUNE:
            out.append(vec)
    return out


def _alice(state: FockVector, op: AliceOp, variant: Variant) -> list:
    system = state.system
    if op is AliceOp.CTRL:
        return [(None, state)]
    if variant is Variant.MIRROR:
        rails = swapped_slots(system, op, PAIR)
        return [(b.pattern, b.residual) for b in measure_slots(state, rails)]
    stage = []
    for b in measure_pair(state, PAIR):
        res = b.residual
        if b.pattern.mode0_click:
            res = apply_creation(res, system.slot(PAIR, 0, 0))
        if b.pattern.mode1_click:
            res = apply_creation(res, system.slot(PAIR, 1, 0))
        stage.append((b.pattern, res))
    return stage


def reference_branches(enum: RoundEnumerator, op: AliceOp, basis: Basis) -> list:
    """(probability, alice pattern, bob pattern, residual) per branch."""
    q = enum.config.channel_loss
    plus, levels = protocol._launch(enum.system)
    launch = FockVector(enum.system, plus * enum.attack.initial_probe[levels])
    out = []
    for s1 in _loss(launch, q):
        s2 = apply_truncating_unitary(s1, enum.attack.u_forward)
        for a_pat, s4 in _alice(s2, op, enum.config.variant):
            s5 = apply_truncating_unitary(s4, enum.attack.v_backward)
            for s6 in _loss(s5, q):
                for bb in threshold_measure(s6, PAIR, basis):
                    if bb.probability > PRUNE:
                        out.append((bb.probability, a_pat, bb.pattern, bb.residual))
    return out


def reference_label(op: AliceOp, basis: Basis, a_pat, b_pat):
    """(interpretation, alice bit, bob bit) by the protocol's sifting rules."""
    sifted_basis = Basis.HADAMARD if op is AliceOp.CTRL else Basis.COMPUTATIONAL
    if basis is not sifted_basis:
        return None, None, None
    if op is AliceOp.CTRL:
        return {ClickPattern.P00: Interpretation.LOSS,
                ClickPattern.P01: Interpretation.LEGAL}.get(
                    b_pat, Interpretation.ERROR), None, None
    if op is AliceOp.SWAP_ALL:
        if b_pat is not ClickPattern.P00 or a_pat is ClickPattern.P11:
            return Interpretation.ERROR, None, None
        return (Interpretation.LOSS if a_pat is ClickPattern.P00
                else Interpretation.LEGAL), None, None
    if op is AliceOp.SIFT:
        if ClickPattern.P11 in (a_pat, b_pat):
            return Interpretation.ERROR, None, None
        if ClickPattern.P00 in (a_pat, b_pat):
            return Interpretation.LOSS, None, None
        return (Interpretation.SHARED_BIT, int(a_pat is ClickPattern.P10),
                int(b_pat is ClickPattern.P10))
    a, b = a_pat.n_clicks, b_pat.n_clicks
    if (a, b) == (0, 0):
        return Interpretation.LOSS, None, None
    if b == 2 or (a, b) == (1, 1):
        return Interpretation.ERROR, None, None
    if a == 1:
        return Interpretation.NO_SHARED_BIT, None, None
    return (Interpretation.SHARED_BIT, int(op is AliceOp.SWAP_01),
            int(b_pat is ClickPattern.P10))


def _attacks(n_max: int) -> list:
    named = [identity_attack(n_max=n_max), tagging_attack(n_max=n_max),
             measure_resend_attack("computational", n_max=n_max),
             measure_resend_attack("hadamard", n_max=n_max),
             probe_rotation_attack(6, probe_dim=3, n_max=n_max)]
    return named + [random_attack(seed, probe_dim=seed % 8 + 1, strength=0.8,
                                  n_max=n_max) for seed in range(30)]


def _worst_gap_to_reference(attacks: list, n_max: int, survival: float) -> float:
    """Every attack's rows in both variants against the reference loop:
    patterns and labels must be equal, and the largest difference of a
    probability, probe amplitude or leaked weight is returned."""
    worst = 0.0
    for attack in attacks:
        for variant in Variant:
            cfg = ProtocolConfig(variant=variant, tag_dim=attack.system.tag_dim,
                                 n_max=n_max, channel_loss=survival)
            enum = RoundEnumerator(cfg, attack)
            pl = attack.system.probe_dim
            for op in variant.operations:
                for basis in Basis:
                    table = pass_block(enum, op, basis)
                    ref = reference_branches(enum, op, basis)
                    where = (attack.name, variant, op, basis)
                    assert len(table["probability"]) == len(ref), where
                    probs, a_pats, b_pats, residuals = zip(*ref)
                    labels = [reference_label(op, basis, a, b)
                              for a, b in zip(a_pats, b_pats)]
                    expected = {
                        "alice_pattern": [-1 if a is None else a.code for a in a_pats],
                        "bob_pattern": [b.code for b in b_pats],
                        "interpretation": [-1 if i is None else INTERPRETATIONS.index(i)
                                           for i, _, _ in labels],
                        "alice_bit": [-1 if a is None else a for _, a, _ in labels],
                        "bob_bit": [-1 if b is None else b for _, _, b in labels],
                    }
                    for name, column in expected.items():
                        assert table[name].tolist() == column, (where, name)
                    probes = np.array([r.amplitudes[:pl] for r in residuals])
                    worst = max(worst,
                                np.abs(table["probability"] - probs).max(),
                                np.abs(table["eve_probe"]
                                       - probes / np.sqrt(probs)[:, None]).max(),
                                np.abs(table["leaked"]
                                       - [r.leaked for r in residuals]).max())
    return worst


@pytest.mark.parametrize("n_max", [2, 3])
@pytest.mark.parametrize("survival", [1.0, 0.9])
def test_tables_match_reference_loop(n_max, survival):
    assert _worst_gap_to_reference(_attacks(n_max), n_max, survival) < 1e-12


@pytest.mark.parametrize("survival", [1.0, 0.8])
def test_attacks_that_prune_apart_match_reference_loop(survival):
    """Two pairs of attacks on one space whose passes keep different rows.
    The identity keeps Alice's swapped-out rails empty where a random attack
    does not; an identity backward pass keeps her emptied rails empty, which
    the second loss and Bob then prune, where a random one does not."""
    forward = random_attack(7, probe_dim=3)
    pairs = [(identity_attack(probe_dim=3), forward),
             tuple(Attack(name, forward.system, forward.u_forward, v, forward.initial_probe)
                   for name, v in (("identity back", np.eye(forward.system.dim)),
                                   ("random back", random_attack(8, probe_dim=3).v_backward)))]
    for pair in pairs:
        for variant in Variant:
            config = ProtocolConfig(variant=variant, channel_loss=survival)
            rows = [len(RoundEnumerator(config, attack)._pass.cell) for attack in pair]
            assert rows[0] < rows[1], (pair[0].name, variant)
        assert _worst_gap_to_reference(pair, 2, survival) < 1e-12


def test_leaked_weight_matches_reference():
    """Weight a slightly lossy forward pass drops is recorded on every row."""
    attack = random_attack(5, probe_dim=3, strength=0.8)
    object.__setattr__(attack, "u_forward", (1.0 - 1e-11) * attack.u_forward)  # after validation
    for variant in Variant:
        enum = RoundEnumerator(ProtocolConfig(variant=variant, channel_loss=0.9),
                               attack)
        for op in variant.operations:
            for basis in Basis:
                leaked = [r.leaked for *_, r in reference_branches(enum, op, basis)]
                assert min(leaked) > 1e-13
                assert np.allclose(pass_block(enum, op, basis)["leaked"], leaked,
                                   rtol=0, atol=1e-14)


def test_probability_sum_check_fires():
    attack = random_attack(4, probe_dim=2)
    object.__setattr__(attack, "u_forward", 0.9 * attack.u_forward)  # after validation
    enum = RoundEnumerator(ProtocolConfig(), attack)
    with pytest.raises(ContractViolation, match="sum to"):
        enum.branches(AliceOp.CTRL, Basis.HADAMARD)


def test_bobs_plan_writes_each_map_into_its_own_probe_block():
    """Bob empties the pair, so his split's moved columns, reshaped to
    (row·map, probe level), are Eve's probe states: his plan has no
    destinations, and map k reads the ``probe_dim`` consecutive indices
    of one occupation in probe order, each occupation once."""
    for tag_dim in (1, 2):
        for n_max in (2, 3, 4):
            for probe_dim in (1, 8):
                system = ModeSystem(1, tag_dim, n_max, probe_dim)
                plan, _, _ = protocol._measure_plan(system, (None,))
                n_maps, src, dst, amp, starts = plan
                assert dst is None and amp is None
                pl = system.probe_dim
                assert np.array_equal(starts, np.arange(n_maps) * pl)
                blocks = src.reshape(n_maps, pl)
                levels = np.broadcast_to(np.arange(pl), blocks.shape)
                occs, probes = system.basis_table
                assert np.array_equal(blocks - blocks[:, :1], levels)
                assert np.array_equal(probes[blocks], levels)
                assert (occs[blocks] == occs[blocks[:, :1]]).all()
                assert np.array_equal(np.sort(src), np.arange(system.dim))


def test_classify_matches_reference_on_every_cell():
    """Sifting and interpretation of every cell, reachable by an attack or
    not: each variant, (operation, basis), Alice pattern (None for CTRL) and
    Bob pattern.  Alice's click sum 2 on a single-mode swap, a cell no
    physical round reaches, is a contract violation where it is sifted in."""
    single_mode = (AliceOp.SWAP_10, AliceOp.SWAP_01)
    for variant in Variant:
        for op in variant.operations:
            for basis in Basis:
                for a_pat in [None] if op is AliceOp.CTRL else list(ClickPattern):
                    for b_pat in ClickPattern:
                        cell = (op, basis, a_pat, b_pat)
                        if (op in single_mode and basis is Basis.COMPUTATIONAL
                                and a_pat.n_clicks == 2):
                            with pytest.raises(ContractViolation, match="alice sum 2"):
                                protocol._classify(*cell)
                        else:
                            assert (protocol._classify(*cell)
                                    == reference_label(*cell)), (variant, cell)


def test_interpretation_guard_still_fires(monkeypatch):
    """Alice's click sum 2 on a single-mode swap is a contract violation."""
    plans = protocol._measure_plan

    def double_clicks(system, ops):
        plan, map_op, map_code = plans(system, ops)
        if AliceOp.SWAP_10 in ops:
            swap_10 = map_op == ops.index(AliceOp.SWAP_10)
            map_code = np.where(swap_10 & (map_code > 0), ClickPattern.P11.code,
                                map_code)
        return plan, map_op, map_code

    monkeypatch.setattr(protocol, "_measure_plan", double_clicks)
    enum = RoundEnumerator(ProtocolConfig(), identity_attack())
    with pytest.raises(ContractViolation, match="alice sum 2"):
        enum.branches(AliceOp.SWAP_10, Basis.COMPUTATIONAL)


@pytest.mark.parametrize("variant", list(Variant))
def test_cell_record_labels_every_cell_code(variant):
    """Code ``table_id * 20 + (Alice's code + 1) * 4 + Bob's code`` of the
    variant's record: its columns are the code's parts, its labels are the
    reference's wherever Alice's pattern fits the operation (and -1
    elsewhere), and it marks exactly the sifted-in single-mode swaps where
    Alice's click sum is 2."""
    record = protocol._cells(variant)
    keys = [(op, basis) for basis in Basis for op in variant.operations]
    assert len(record.table_id) == 20 * len(keys)
    for column in record:
        assert column.flags.c_contiguous and not column.flags.writeable
    for name in ("interpretation", "alice_bit", "bob_bit"):
        assert getattr(record, name).dtype == np.int8
    patterns = list(ClickPattern)
    for code in range(len(record.table_id)):
        table, a_code, b_code = code // 20, code % 20 // 4 - 1, code % 4
        op, basis = keys[table]
        where = (variant, code)
        assert (record.table_id[code], record.op[code], record.hadamard[code],
                record.alice_pattern[code], record.bob_pattern[code]) == (
                    table, variant.operations.index(op), basis is Basis.HADAMARD,
                    a_code, b_code), where
        got = (record.interpretation[code], record.alice_bit[code], record.bob_bit[code])
        a_pat = None if a_code < 0 else patterns[a_code]
        sum_two = (op in (AliceOp.SWAP_10, AliceOp.SWAP_01) and basis is Basis.COMPUTATIONAL
                   and a_pat is ClickPattern.P11)
        assert record.marked[code] == sum_two, where
        if (a_pat is None) is not (op is AliceOp.CTRL) or sum_two:
            assert got == (-1, -1, -1), where
            continue
        interp, a_bit, b_bit = reference_label(op, basis, a_pat, patterns[b_code])
        assert got == (-1 if interp is None else INTERPRETATIONS.index(interp),
                       -1 if a_bit is None else a_bit, -1 if b_bit is None else b_bit), where
