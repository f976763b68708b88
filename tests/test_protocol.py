"""Round enumeration, sampling, sifting, and the exact analyses."""
import copy
import functools
import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sqkdsim.adversary import (identity_attack, measure_resend_attack, random_attack,
                               tagging_attack)
from sqkdsim.fock import ModeSystem
from sqkdsim.measurement import AliceOp, Basis, ClickPattern, Interpretation
from sqkdsim import protocol
from sqkdsim.protocol import (INTERPRETATIONS, ProtocolConfig, RoundEnumerator,
                              Variant, _GUIDE, _loss_maps, _search,
                              eve_conditional_states,
                              exact_statistics, legacy_identification,
                              run_protocol, simulate_records)
from sqkdsim.robustness import check_conditions

from extra_attacks import probe_rotation_attack
from extra_states import basis_index, basis_state
from pass_blocks import pass_block

MIRROR_OPS = (AliceOp.CTRL, AliceOp.SWAP_10, AliceOp.SWAP_01, AliceOp.SWAP_ALL)
BASES = (Basis.COMPUTATIONAL, Basis.HADAMARD)


def test_config_validation():
    cfg = ProtocolConfig(variant="legacy")
    assert cfg.variant is Variant.LEGACY
    assert sum(cfg.alice_op_probs.values()) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(channel_loss=1.5)
    with pytest.raises(ValueError):
        ProtocolConfig(alice_op_probs={AliceOp.CTRL: 0.7})
    with pytest.raises(ValueError):
        ProtocolConfig(variant=Variant.LEGACY,
                       alice_op_probs={AliceOp.SWAP_10: 1.0})
    for variant in (None, 1, b"mirror"):  # each a ValueError, not an AttributeError
        with pytest.raises(ValueError, match="is not a valid Variant"):
            ProtocolConfig(variant=variant)
    with pytest.raises(ValueError, match="alice_op_probs must be a mapping"):
        ProtocolConfig(alice_op_probs=[("CTRL", 1.0)])


@pytest.mark.parametrize("weight", [math.nan, math.inf])
def test_config_rejects_non_finite_op_weights(weight):
    with pytest.raises(ValueError):
        ProtocolConfig(n_rounds=1000, alice_op_probs={"CTRL": weight, "SWAP-10": 1.0})


def test_config_rejects_an_operation_named_twice():
    """An operation given as an AliceOp and as its string would keep only
    the last weight, so these weights, summing to 1.5, would pass."""
    with pytest.raises(ValueError, match="operation CTRL is given twice"):
        ProtocolConfig(alice_op_probs={AliceOp.CTRL: 0.5, "CTRL": 0.5, "SWAP-10": 0.5})


@pytest.mark.parametrize("seed", [-1, 2**128], ids=["negative", "2**128"])
def test_config_rejects_a_seed_that_is_no_philox_key(seed):
    """The run's stream is keyed by the seed, so the config checks its range
    itself rather than leaving it to the first sampled run."""
    with pytest.raises(ValueError, match="rng_seed"):
        ProtocolConfig(rng_seed=seed)


@pytest.mark.parametrize("field", ["n_rounds", "rng_seed", "tag_dim", "n_max"])
@pytest.mark.parametrize("value", [True, 1.5, 2.0], ids=["bool", "fraction", "integral-float"])
def test_config_takes_sizes_and_seeds_only_as_integers(field, value):
    """A float or bool seed would draw the stream of its integer part and
    record the float in the report; a bool size would read as 1."""
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ProtocolConfig(**{field: value})


REAL_FIELDS = ["channel_loss", "bob_hadamard_prob", "test_fraction", "ctrl_error_threshold",
               "swap_x_error_threshold", "swap_all_error_threshold", "raw_key_error_threshold"]


@pytest.mark.parametrize("field", REAL_FIELDS + ["alice_op_probs"])
@pytest.mark.parametrize("value", [True, "0.5"], ids=["bool", "string"])
def test_config_takes_rates_only_as_real_numbers(field, value):
    """A bool would run as 0 or 1 and be reported as true or false; a string
    would fail inside a comparison with a ``TypeError``."""
    if field == "alice_op_probs":
        value = {"CTRL": value, "SWAP-10": 0.5}
    with pytest.raises(ValueError, match=f"{field} must be a real number"):
        ProtocolConfig(**{field: value})


def test_config_stores_rates_as_float():
    cfg = ProtocolConfig(channel_loss=1, ctrl_error_threshold=np.float32(0.5),
                         alice_op_probs={"CTRL": 1, "SWAP-10": 0})
    assert all(type(getattr(cfg, field)) is float for field in REAL_FIELDS)
    assert all(type(p) is float for p in cfg.alice_op_probs.values())
    assert cfg.to_document()["channel_loss"] == 1.0


def test_config_is_frozen():
    """An enumerator holds its config, so a config cannot change under it."""
    cfg = ProtocolConfig(channel_loss=0.9)
    with pytest.raises(AttributeError):
        cfg.channel_loss = 0.5
    with pytest.raises(TypeError):
        cfg.alice_op_probs[AliceOp.CTRL] = 1.0
    assert cfg == ProtocolConfig(channel_loss=0.9)
    assert cfg.to_document()["alice_op_probs"] == {op.value: 0.25 for op in MIRROR_OPS}
    for twin in (copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert twin == cfg and twin is not cfg
        with pytest.raises(TypeError):
            twin.alice_op_probs[AliceOp.CTRL] = 1.0


def test_config_is_hashable():
    """Equal configs hash equal, their operation weights given in any order,
    so a config can key a dict or an ``lru_cache``; a pickled copy too."""
    weights = {"CTRL": 0.1, "SWAP-10": 0.2, "SWAP-01": 0.3, "SWAP-ALL": 0.4}
    cfg = ProtocolConfig(channel_loss=0.9, alice_op_probs=weights)
    reordered = ProtocolConfig(channel_loss=0.9,
                               alice_op_probs=dict(reversed(weights.items())))
    assert list(cfg.alice_op_probs) != list(reordered.alice_op_probs)
    assert reordered == cfg and hash(reordered) == hash(cfg)
    assert hash(pickle.loads(pickle.dumps(cfg))) == hash(cfg)
    assert hash(ProtocolConfig()) == hash(ProtocolConfig())
    assert {cfg: 1, ProtocolConfig(): 2}[reordered] == 1

    @functools.lru_cache(maxsize=None)
    def rounds(config):
        return config.n_rounds

    assert rounds(cfg) == rounds(reordered) == 1000
    assert rounds.cache_info().hits == 1


def test_config_stores_numpy_integers_as_int():
    cfg = ProtocolConfig(n_rounds=np.int64(20), rng_seed=np.uint32(3), tag_dim=np.int8(1),
                         n_max=np.intp(2))
    assert all(type(getattr(cfg, field)) is int
               for field in ("n_rounds", "rng_seed", "tag_dim", "n_max"))
    assert cfg == ProtocolConfig(n_rounds=20, rng_seed=3)
    assert run_protocol(cfg, identity_attack()).counts == run_protocol(
        ProtocolConfig(n_rounds=20, rng_seed=3), identity_attack()).counts


@pytest.mark.parametrize("call, message", [
    (lambda: ProtocolConfig(n_rounds=-1), "n_rounds must be non-negative"),
    (lambda: ProtocolConfig(tag_dim=0), "tag_dim and n_max must be at least 1"),
    (lambda: ProtocolConfig(n_max=0), "tag_dim and n_max must be at least 1"),
    (lambda: RoundEnumerator(ProtocolConfig(), identity_attack()).branches(
        AliceOp.SIFT, Basis.COMPUTATIONAL), "not defined for"),
], ids=["negative-rounds", "tag-dim-0", "n-max-0", "op-outside-variant"])
def test_protocol_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_config_accepts_the_largest_philox_key():
    cfg = ProtocolConfig(n_rounds=20, rng_seed=2**128 - 1)
    assert run_protocol(cfg, identity_attack()).n_rounds == 20


def test_config_accepts_string_op_keys():
    cfg = ProtocolConfig(alice_op_probs={"CTRL": 0.4, "SWAP-10": 0.3,
                                         "SWAP-01": 0.3})
    assert cfg.alice_op_probs[AliceOp.CTRL] == pytest.approx(0.4)


@pytest.mark.parametrize("attack_name,attack", [
    ("identity", identity_attack()),
    ("tagging", tagging_attack()),
    ("measure-resend", measure_resend_attack("computational")),
    ("random", random_attack(3, probe_dim=3, strength=0.6)),
])
def test_branch_probabilities_conserved(attack_name, attack):
    cfg = ProtocolConfig(tag_dim=attack.system.tag_dim)
    enum = RoundEnumerator(cfg, attack)
    for op in MIRROR_OPS:
        for basis in BASES:
            total = enum.branches(op, basis).sum()
            assert total == pytest.approx(1.0, abs=1e-9), (attack_name, op, basis)


def test_branch_probabilities_conserved_with_loss():
    cfg = ProtocolConfig(channel_loss=0.7)
    enum = RoundEnumerator(cfg, identity_attack())
    for op in MIRROR_OPS:
        for basis in BASES:
            total = enum.branches(op, basis).sum()
            assert total == pytest.approx(1.0, abs=1e-9)


def test_identity_ctrl_branches():
    enum = RoundEnumerator(ProtocolConfig(), identity_attack())
    table = pass_block(enum, AliceOp.CTRL, Basis.HADAMARD)
    assert len(table["probability"]) == 1
    assert table["probability"][0] == pytest.approx(1.0)
    assert table["bob_pattern"][0] == ClickPattern.P01.code
    assert INTERPRETATIONS[table["interpretation"][0]] is Interpretation.LEGAL
    # computational CTRL rounds are discarded at sifting
    comp = pass_block(enum, AliceOp.CTRL, Basis.COMPUTATIONAL)
    assert (comp["interpretation"] == -1).all()


def test_identity_swap_10_branches():
    enum = RoundEnumerator(ProtocolConfig(), identity_attack())
    table = pass_block(enum, AliceOp.SWAP_10, Basis.COMPUTATIONAL)
    by_interp = {INTERPRETATIONS[c]: i
                 for i, c in enumerate(table["interpretation"].tolist())}
    shared = by_interp[Interpretation.SHARED_BIT]
    assert table["probability"][shared] == pytest.approx(0.5)
    assert table["alice_pattern"][shared] == ClickPattern.P00.code
    assert table["bob_pattern"][shared] == ClickPattern.P01.code
    assert (table["alice_bit"][shared], table["bob_bit"][shared]) == (0, 0)
    kept = by_interp[Interpretation.NO_SHARED_BIT]
    assert table["probability"][kept] == pytest.approx(0.5)
    assert table["alice_pattern"][kept] == ClickPattern.P10.code
    assert table["bob_pattern"][kept] == ClickPattern.P00.code


def test_identity_swap_all_branches():
    enum = RoundEnumerator(ProtocolConfig(), identity_attack())
    table = pass_block(enum, AliceOp.SWAP_ALL, Basis.COMPUTATIONAL)
    assert set(table["interpretation"].tolist()) == \
        {INTERPRETATIONS.index(Interpretation.LEGAL)}
    assert table["probability"].sum() == pytest.approx(1.0)
    assert set(table["alice_pattern"].tolist()) == \
        {ClickPattern.P01.code, ClickPattern.P10.code}


def test_loss_probability_closed_form():
    """One photon crossing the channel twice survives with probability q**2."""
    for q in (1.0, 0.8, 0.5):
        cfg = ProtocolConfig(channel_loss=q)
        enum = RoundEnumerator(cfg, identity_attack())
        table = pass_block(enum, AliceOp.CTRL, Basis.HADAMARD)
        p_loss = table["probability"][
            table["interpretation"] == INTERPRETATIONS.index(Interpretation.LOSS)].sum()
        assert p_loss == pytest.approx(1.0 - q * q, abs=1e-12)


@pytest.mark.parametrize("q", [0.9, 0.5])
def test_loss_maps_are_binomial_kraus_branches(q):
    system = ModeSystem(1, tag_dim=2, n_max=3, probe_dim=3)
    slots = system.pair_slots(0)
    rng = np.random.default_rng(8)
    state = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    maps = _loss_maps(system, slots, q).values()
    weights = []
    for src, dst, amp in maps:
        out = np.zeros(system.dim, dtype=np.complex128)
        out[dst] = state[src] * amp
        weights.append(np.vdot(out, out).real)
        losts = set()
        for i, j, a in zip(src, dst, amp):
            (occ, probe), (kept, kept_probe) = basis_state(system, i), basis_state(system, j)
            lost = tuple(occ[s] - kept[s] for s in slots)
            losts.add(lost)
            assert probe == kept_probe and min(lost) >= 0
            assert a ** 2 == pytest.approx(np.prod(
                [math.comb(occ[s], l) * q ** kept[s] * (1 - q) ** l
                 for s, l in zip(slots, lost)]), rel=1e-14)
        assert len(losts) == 1  # one map per lost-photon vector
    assert sum(weights) == pytest.approx(np.vdot(state, state).real, rel=1e-12)

    # One photon spread over the pair's slots: kept with q, lost with 1 - q.
    single = np.zeros(system.dim, dtype=np.complex128)
    for s in slots:
        occ = [0] * len(slots)
        occ[s] = 1
        base = basis_index(system, occ)
        single[base:base + 3] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    single /= np.linalg.norm(single)
    kept = lost = 0.0
    for src, dst, amp in maps:
        out = np.zeros(system.dim, dtype=np.complex128)
        out[dst] = single[src] * amp
        if np.array_equal(src, dst):
            kept += np.vdot(out, out).real
        else:
            lost += np.vdot(out, out).real
    assert kept == pytest.approx(q, abs=1e-14)
    assert lost == pytest.approx(1 - q, abs=1e-14)


def test_a_loss_scan_keeps_a_bounded_number_of_plans():
    """A scan over survival keeps no more loss plans than the cache's bound,
    and a survival met again after its plan was dropped gives the same bits."""
    plans = protocol._loss_plan
    bound = plans.cache_parameters()["maxsize"]
    attack = random_attack(5, probe_dim=2, n_max=1)

    def conditions(survival):
        return check_conditions(attack, ProtocolConfig(n_max=1, channel_loss=survival))

    plans.cache_clear()
    first = conditions(0.5)
    for k in range(1, bound + 1):
        conditions(0.5 + k / 1024)
    assert plans.cache_info().currsize == bound
    misses = plans.cache_info().misses
    assert conditions(0.5) == first
    assert plans.cache_info().misses == misses + 1  # rebuilt, not kept


def test_eve_probe_vectors_are_normalized():
    enum = RoundEnumerator(ProtocolConfig(), measure_resend_attack("computational"))
    for op in MIRROR_OPS:
        for basis in BASES:
            probe = pass_block(enum, op, basis)["eve_probe"]
            assert np.abs(np.sum(np.abs(probe) ** 2, axis=1) - 1.0).max() < 1e-9


def test_simulation_is_reproducible():
    cfg = ProtocolConfig(n_rounds=300, rng_seed=17)
    attack = identity_attack()
    first = simulate_records(cfg, attack)
    assert len(first) == 300
    assert np.array_equal(first, simulate_records(cfg, attack))
    assert run_protocol(cfg, attack).to_document() == \
        run_protocol(cfg, attack).to_document()


def test_simulation_prefix_is_the_shorter_run():
    """Round i depends only on the seed and i, not on the run length."""
    attack = random_attack(11, probe_dim=4)
    long = simulate_records(ProtocolConfig(n_rounds=1000, rng_seed=7,
                                           channel_loss=0.9), attack)
    short = simulate_records(ProtocolConfig(n_rounds=500, rng_seed=7,
                                            channel_loss=0.9), attack)
    assert np.array_equal(short, long[:500])


def test_different_seeds_differ():
    attack = identity_attack()
    a = run_protocol(ProtocolConfig(n_rounds=200, rng_seed=1), attack)
    b = run_protocol(ProtocolConfig(n_rounds=200, rng_seed=2), attack)
    assert a.to_document() != b.to_document()


def test_sampled_frequencies_match_exact_branches():
    """Observed outcome rates sit within 5 sigma of the exact probabilities:
    the identity on a lossless mirror channel, and a random attack at
    survival 0.8 on both variants.  The check shares no index arithmetic
    with the sampler, which draws cells."""
    cases = [(ProtocolConfig(n_rounds=100_000, rng_seed=5), identity_attack())]
    cases += [(ProtocolConfig(variant=variant, n_rounds=100_000, rng_seed=5, channel_loss=0.8),
               random_attack(9, probe_dim=3, strength=0.5)) for variant in Variant]
    for cfg, attack in cases:
        stats = run_protocol(cfg, attack)
        exact = exact_statistics(cfg, attack)
        for op in cfg.variant.operations:
            per_op = stats.counts.get(op.value, {})
            n_op = sum(per_op.values())
            assert n_op > 0
            assert set(per_op) <= set(exact.outcome_probs[op]), op
            for label, p in exact.outcome_probs[op].items():
                observed = per_op.get(label, 0) / n_op
                sigma = np.sqrt(p * (1.0 - p) / n_op)
                assert abs(observed - p) <= 5.0 * sigma + 1e-12, (cfg.variant, op, label)


def test_run_protocol_identity_bookkeeping():
    cfg = ProtocolConfig(n_rounds=2000, rng_seed=9, test_fraction=0.25)
    stats = run_protocol(cfg, identity_attack())
    assert stats.ctrl_error_rate == 0.0
    assert stats.swap_x_error_rate == 0.0
    assert stats.swap_all_error_rate == 0.0
    assert stats.raw_key_error_rate == 0.0
    assert not stats.aborted
    assert stats.raw_key_alice == stats.raw_key_bob
    assert len(stats.raw_key_alice) == \
        stats.shared_bit_rounds - stats.test_sample_size
    assert stats.test_sample_size == round(0.25 * stats.shared_bit_rounds)


def test_run_protocol_aborts_on_measure_resend():
    cfg = ProtocolConfig(n_rounds=2000, rng_seed=12)
    stats = run_protocol(cfg, measure_resend_attack("computational"))
    assert stats.aborted
    assert any("ctrl" in reason for reason in stats.abort_reasons)
    assert stats.ctrl_error_rate == pytest.approx(0.25, abs=0.05)


@pytest.mark.xfail(strict=True, reason="error rates count lost rounds, so loss hides "
                                       "a complete attack (ROADMAP item 1)")
def test_run_protocol_aborts_on_measure_resend_through_loss():
    """About half of the detected CTRL rounds are errors and Eve's probe
    tells the key bits apart, yet the per-round rate stays below 0.05."""
    cfg = ProtocolConfig(n_max=1, channel_loss=0.3, n_rounds=100_000)
    stats = run_protocol(cfg, measure_resend_attack("computational", n_max=1))
    assert stats.aborted


def test_loss_only_adds_loss_outcomes():
    cfg = ProtocolConfig(n_rounds=1500, rng_seed=4, channel_loss=0.8)
    stats = run_protocol(cfg, identity_attack())
    assert stats.ctrl_error_rate == 0.0
    assert stats.swap_x_error_rate == 0.0
    assert stats.raw_key_error_rate in (0.0, None)
    assert stats.raw_key_alice == stats.raw_key_bob
    losses = sum(per_op.get("Loss", 0) for per_op in stats.counts.values())
    assert losses > 0


def test_exact_statistics_identity():
    cfg = ProtocolConfig()
    exact = exact_statistics(cfg, identity_attack())
    ctrl = exact.outcome_probs[AliceOp.CTRL]
    assert ctrl["Discarded"] == pytest.approx(0.5)
    assert ctrl["Legal"] == pytest.approx(0.5)
    swap = exact.outcome_probs[AliceOp.SWAP_10]
    assert swap["Discarded"] == pytest.approx(0.5)
    assert swap["SharedBit"] == pytest.approx(0.25)
    assert swap["NoSharedBit"] == pytest.approx(0.25)
    assert all(p == pytest.approx(0.0, abs=1e-15)
               for p in exact.error_probs.values())
    assert exact.shared_mismatch == pytest.approx(0.0, abs=1e-15)


def test_exact_statistics_measure_resend_error_rates():
    cfg = ProtocolConfig()
    exact = exact_statistics(cfg, measure_resend_attack("computational"))
    assert exact.error_probs[AliceOp.CTRL] == pytest.approx(0.25, abs=1e-12)
    assert exact.error_probs[AliceOp.SWAP_10] == pytest.approx(0.0, abs=1e-12)


def test_forward_hadamard_resend_is_invisible_and_useless():
    """Measuring the forward leg in its own eigenbasis leaves no trace."""
    attack = measure_resend_attack("hadamard")
    exact = exact_statistics(ProtocolConfig(), attack)
    assert all(p == pytest.approx(0.0, abs=1e-12)
               for p in exact.error_probs.values())
    cond = eve_conditional_states(attack)
    assert cond.trace_distance == pytest.approx(0.0, abs=1e-12)


def test_eve_conditionals_identity():
    cond = eve_conditional_states(identity_attack())
    assert cond.p_shared == pytest.approx(0.5, abs=1e-12)
    assert cond.p_bit[0] == pytest.approx(cond.p_bit[1], abs=1e-12)
    assert cond.trace_distance == pytest.approx(0.0, abs=1e-12)


def test_eve_conditionals_measure_resend():
    cond = eve_conditional_states(measure_resend_attack("computational"))
    assert cond.trace_distance == pytest.approx(1.0, abs=1e-12)
    # bit 0 leaves the record-1 pointer, bit 1 the record-2 pointer
    assert cond.states[0][1, 1] == pytest.approx(1.0, abs=1e-12)
    assert cond.states[1][2, 2] == pytest.approx(1.0, abs=1e-12)


def test_quiet_probe_rotation_learns_nothing():
    attack = probe_rotation_attack(6, probe_dim=3)
    cond = eve_conditional_states(attack)
    assert cond.p_shared == pytest.approx(0.5, abs=1e-10)
    assert cond.trace_distance == pytest.approx(0.0, abs=1e-10)


def test_eve_conditionals_fall_back_to_equal_swap_weights():
    """A config that plays neither single-mode swap mixes SWAP-10 and
    SWAP-01 equally, which is what the default config's equal weights do."""
    attack = random_attack(17, probe_dim=3)
    no_swaps = ProtocolConfig(alice_op_probs={AliceOp.CTRL: 0.5, AliceOp.SWAP_ALL: 0.5})
    fallback = eve_conditional_states(attack, no_swaps)
    default = eve_conditional_states(attack, ProtocolConfig())
    assert fallback.p_shared == default.p_shared
    assert fallback.p_bit == default.p_bit
    assert fallback.trace_distance == default.trace_distance
    assert fallback.states.keys() == default.states.keys() == {0, 1}
    for b in (0, 1):
        assert np.array_equal(fallback.states[b], default.states[b])
        assert not fallback.states[b].flags.writeable


def test_legacy_identity_run_shares_bits():
    cfg = ProtocolConfig(variant=Variant.LEGACY, n_rounds=2000, rng_seed=3)
    stats = run_protocol(cfg, identity_attack())
    assert stats.swap_all_error_rate is None
    assert stats.swap_x_error_rate == 0.0
    assert stats.shared_bit_rounds > 0
    assert stats.raw_key_alice == stats.raw_key_bob


def test_legacy_identification_extremes():
    ident = legacy_identification(identity_attack())
    assert ident.accuracy == pytest.approx(0.5, abs=1e-12)
    tagged = legacy_identification(tagging_attack())
    assert tagged.accuracy == pytest.approx(1.0, abs=1e-12)


def test_tagging_identifies_sift_exactly():
    """Both legacy states are normalised by their traces, as Eve's mirror
    states are, so the tagging attack's perfect distinction reads exactly 1."""
    tagged = legacy_identification(tagging_attack())
    assert (tagged.trace_distance, tagged.accuracy) == (1.0, 1.0)
    for state in (tagged.rho_ctrl, tagged.rho_sift):
        assert abs(np.trace(state).real - 1.0) <= 1e-15
        assert not state.flags.writeable


def test_variant_mismatch_is_rejected():
    with pytest.raises(ValueError):
        eve_conditional_states(identity_attack(),
                               ProtocolConfig(variant=Variant.LEGACY))
    with pytest.raises(ValueError):
        legacy_identification(identity_attack(), ProtocolConfig())


def test_enumerator_must_hold_the_given_config_and_attack():
    """An analysis given an enumerator of another config or attack raises
    instead of reporting that enumerator's numbers under its own inputs."""
    attack = random_attack(3, probe_dim=2)
    cfg, legacy_cfg = ProtocolConfig(), ProtocolConfig(variant=Variant.LEGACY)
    mirror, legacy = RoundEnumerator(cfg, attack), RoundEnumerator(legacy_cfg, attack)
    lossy = RoundEnumerator(ProtocolConfig(channel_loss=0.5), attack)
    skewed = {AliceOp.CTRL: 0.4, AliceOp.SWAP_10: 0.3, AliceOp.SWAP_01: 0.2,
              AliceOp.SWAP_ALL: 0.1}
    with pytest.raises(ValueError):
        exact_statistics(legacy_cfg, attack, mirror)
    with pytest.raises(ValueError):
        check_conditions(attack, ProtocolConfig(), enumerator=lossy)
    with pytest.raises(ValueError):
        eve_conditional_states(attack, ProtocolConfig(alice_op_probs=skewed), mirror)
    with pytest.raises(ValueError):
        run_protocol(ProtocolConfig(rng_seed=1), attack, mirror)

    # Another attack on the same space: other unitaries, or only another
    # initial probe state.
    others = (random_attack(4, probe_dim=2),
              replace(attack, initial_probe=attack.initial_probe[::-1]))
    for other in others:
        for analysis in (lambda: simulate_records(cfg, other, mirror),
                         lambda: run_protocol(cfg, other, mirror),
                         lambda: exact_statistics(cfg, other, mirror),
                         lambda: eve_conditional_states(other, cfg, mirror),
                         lambda: check_conditions(other, cfg, enumerator=mirror),
                         lambda: legacy_identification(other, legacy_cfg, legacy)):
            with pytest.raises(ValueError):
                analysis()

    # An equal attack built twice is the same attack.
    twin = random_attack(3, probe_dim=2)
    assert twin is not attack
    assert exact_statistics(cfg, twin, mirror) == exact_statistics(cfg, attack)
    assert (check_conditions(twin, cfg, enumerator=mirror)
            == check_conditions(attack, cfg))


def test_attack_config_shape_mismatch_is_rejected():
    with pytest.raises(ValueError):
        RoundEnumerator(ProtocolConfig(tag_dim=2), identity_attack(tag_dim=1))


def _cell_code(found, row):
    """Row ``row``'s cell in a pass, from its entries in the record:
    table_id * 20 + (Alice's code + 1) * 4 + Bob's code."""
    record, cell = found.cells, found.cell[row]
    return (int(record.table_id[cell]) * 20 + (int(record.alice_pattern[cell]) + 1) * 4
            + int(record.bob_pattern[cell]))


def _cell_weights(found):
    """Each occurring cell's weight in a pass, its rows added one at a time
    in row order, in code order."""
    weights = {}
    for row, p in enumerate(found.probability[0].tolist()):
        code = _cell_code(found, row)
        weights[code] = weights.get(code, 0.0) + p
    return dict(sorted(weights.items()))


def _per_round_reference(cfg, enum):
    """Cells a scalar loop over the run's uniforms picks, and the weight of
    each picked cell.

    An occurring cell's per-round probability is Bob's probability of its
    basis times its weight times Alice's probability of its operation; a
    cell whose probability is 0 is never drawn and left out.  For each
    uniform the loop picks, with ``np.searchsorted`` over the cumulative
    probabilities in code order, clamped to the last cell.
    """
    ops, weights = cfg.variant.operations, _cell_weights(enum._pass)
    codes, per_round = [], []
    for code, w in weights.items():
        hadamard, k = divmod(code // 20, len(ops))
        basis = cfg.bob_hadamard_prob if hadamard else 1.0 - cfg.bob_hadamard_prob
        p = basis * w * cfg.alice_op_probs[ops[k]]
        if p > 0.0:
            codes.append(code)
            per_round.append(p)
    cum = np.cumsum(per_round)
    expected, picked = [], []
    for u in np.random.Generator(np.random.Philox(key=cfg.rng_seed)).random(cfg.n_rounds):
        j = min(int(np.searchsorted(cum, u * cum[-1], side="right")), len(codes) - 1)
        expected.append(codes[j])
        picked.append(weights[codes[j]])
    return expected, picked


def test_sampler_matches_per_round_reference():
    """The vectorized draw equals a scalar loop over the same uniforms."""
    cfg = ProtocolConfig(n_rounds=2000, rng_seed=6, channel_loss=0.8,
                         bob_hadamard_prob=0.8,
                         alice_op_probs={"CTRL": 0.1, "SWAP-10": 0.5,
                                         "SWAP-01": 0.0, "SWAP-ALL": 0.4})
    attack = random_attack(3, probe_dim=2, strength=0.7)
    enum = RoundEnumerator(cfg, attack)
    expected, picked = _per_round_reference(cfg, enum)
    cells = simulate_records(cfg, attack, enum)
    assert np.array_equal(cells, expected)
    assert enum._pass.weights[0, cells].tolist() == picked


@pytest.mark.parametrize("variant, n_max, probe_dim, loss, hadamard, op_probs", [
    ("legacy", 2, 2, 0.5, 0.5, None),
    ("legacy", 4, 1, 0.5, 1.0, {"CTRL": 0.3, "SIFT": 0.7}),
    ("legacy", 3, 8, 0.9, 0.0, None),
    ("mirror", 3, 1, 0.5, 0.0, None),
    ("mirror", 4, 8, 0.5, 1.0, None),
    ("mirror", 3, 8, 1.0, 0.3, {"CTRL": 0.0, "SWAP-10": 0.2,
                                "SWAP-01": 0.3, "SWAP-ALL": 0.5}),
])
def test_sampler_matches_per_round_reference_across_configs(
        variant, n_max, probe_dim, loss, hadamard, op_probs):
    """The same oracle on both variants, cutoffs above 2, heavy loss, one
    basis only, and the smallest and largest probes."""
    cfg = ProtocolConfig(variant=variant, n_max=n_max, n_rounds=1500,
                         rng_seed=n_max + probe_dim, channel_loss=loss,
                         bob_hadamard_prob=hadamard, alice_op_probs=op_probs)
    attack = random_attack(probe_dim, probe_dim=probe_dim, strength=0.9, n_max=n_max)
    enum = RoundEnumerator(cfg, attack)
    expected, _ = _per_round_reference(cfg, enum)
    assert np.array_equal(simulate_records(cfg, attack, enum), expected)


@pytest.mark.parametrize("sizes", [
    (1,), (1, 8, 7, 8), (16, 15, 1, 2), (15, 7, 3, 1), (4, 32, 31, 5)])
def test_search_blocks_matches_searchsorted(sizes):
    """The guided search equals ``searchsorted(side="right")`` clamped to
    the last entry, on keys that sit exactly on cumulative values, at 0.0
    and at the total, over zero-probability plateaus (leading and
    trailing), and with 1, 2^k and 2^k - 1 cumulative values in one guide
    bucket: each group of ``sizes`` is one weight of at least a bucket's
    width followed by weights far below it."""
    rng = np.random.default_rng(len(sizes) + sum(sizes))
    probability = [0.0, 0.0]  # a leading plateau: two values in the first bucket
    for t, size in enumerate(sizes):
        # Sixteenths and multiples of 2^-40 keep every cumsum, ratio and key
        # exact; odd groups have arbitrary weights.  Zeros make plateaus.
        if t % 2 == 0:
            head, tail = rng.integers(1, 3) / 16.0, rng.integers(0, 3, size - 1) * 2.0**-40
        else:
            head, tail = 0.1 + rng.random(), rng.random(size - 1) * 1e-9
        tail[rng.random(size - 1) < 0.4] = 0.0
        probability += [head, *tail]
    probability = np.array(probability)
    cum = np.cumsum(probability)
    buckets = (cum * (_GUIDE / cum[-1])).astype(np.intp)
    assert np.bincount(buckets).max() == max(2, *sizes)  # the groups share buckets
    ratios = cum / cum[-1]
    u = np.clip([0.0, 1.0, 0.5, np.nextafter(1.0, 0.0), *rng.random(64), *ratios,
                 *np.nextafter(ratios, 0.0), *np.nextafter(ratios, 1.0)], 0.0, 1.0)
    expected = np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), len(cum) - 1)
    assert np.array_equal(_search(probability, u.copy()), expected)
    on_values = np.isin(u * cum[-1], cum).sum()
    assert on_values > 2 * len(sizes)  # keys really do sit on cumulative values


def test_sampler_peak_memory_per_round():
    """At its peak the sampler holds the uniforms, the search positions and
    one gathered value per round, not a row of three uniforms."""
    cfg = ProtocolConfig(n_rounds=200_000, rng_seed=3, channel_loss=0.9)
    attack = random_attack(11, probe_dim=4)
    enum = RoundEnumerator(cfg, attack)
    enum._pass  # the branch pass, built untraced
    tracemalloc.start()
    try:
        cells = simulate_records(cfg, attack, enum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cells) == cfg.n_rounds
    assert peak / cfg.n_rounds < 28.0, peak / cfg.n_rounds


def test_simulator_draws_every_operation():
    cfg = ProtocolConfig(n_rounds=400, rng_seed=2)
    enum = RoundEnumerator(cfg, identity_attack())
    cells = simulate_records(cfg, identity_attack(), enum)
    seen = {MIRROR_OPS[code // 20 % len(MIRROR_OPS)] for code in cells.tolist()}
    assert seen == set(MIRROR_OPS)


# -- the (operation, label) tally, pinned by per-row and per-round loops ------

_TALLY_OP_PROBS = {
    "mirror": (None, {"CTRL": 0.5, "SWAP-10": 0.0, "SWAP-01": 0.5, "SWAP-ALL": 0.0},
               {"CTRL": 0.4, "SWAP-10": 0.3, "SWAP-01": 0.2, "SWAP-ALL": 0.1}),
    "legacy": (None, {"CTRL": 1.0, "SIFT": 0.0}, {"CTRL": 0.3, "SIFT": 0.7}),
}


def _tally_configs(variant, n_max):
    """Every Hadamard weight, survival and operation weighting of the grid."""
    for hadamard in (0.0, 0.3, 1.0):
        for survival in (1.0, 0.7):
            for op_probs in _TALLY_OP_PROBS[variant]:
                yield ProtocolConfig(variant=variant, n_max=n_max, n_rounds=300,
                                     rng_seed=n_max, channel_loss=survival,
                                     bob_hadamard_prob=hadamard, alice_op_probs=op_probs)


def _label(found, row):
    code = int(found.cells.interpretation[found.cell[row]])
    return "Discarded" if code < 0 else INTERPRETATIONS[code].value


def _in_tally_order(sums, ops):
    """Per-operation dicts keyed as the library keys them: operations in
    variant order, labels Discarded first, then ``INTERPRETATIONS`` order."""
    order = ["Discarded"] + [i.value for i in INTERPRETATIONS]
    return {op: {label: sums[op][label] for label in order if label in sums[op]}
            for op in ops}


def _items(nested):
    return [(key, list(value.items())) for key, value in nested.items()]


@pytest.mark.parametrize("variant", ["mirror", "legacy"])
@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_exact_statistics_match_a_per_row_loop(variant, n_max):
    """Each cell's weight is its rows added one at a time in table order;
    each outcome probability adds the basis-weighted cell weights in code
    order, and a basis Bob never picks shows no label.  Equal bit for bit,
    key order included; the shared-bit mismatch sums its cells' values as
    one array.  A second reference adds the basis-weighted rows one at a
    time in table order and agrees within 1e-14."""
    attack = random_attack(n_max, probe_dim=2, strength=0.8, n_max=n_max)
    for cfg in _tally_configs(variant, n_max):
        found = RoundEnumerator(cfg, attack)._pass
        record, ops = found.cells, cfg.variant.operations
        row_of = {_cell_code(found, row): row for row in range(len(found.cell))}
        sums, row_sums = {op: {} for op in ops}, {op: {} for op in ops}
        shared, mismatched = [], []
        for code, w in _cell_weights(found).items():
            hadamard, k = divmod(code // 20, len(ops))
            weight = cfg.bob_hadamard_prob if hadamard else 1.0 - cfg.bob_hadamard_prob
            row = row_of[code]
            if weight > 0.0:
                cell = sums[ops[k]]
                label = _label(found, row)
                cell[label] = cell.get(label, 0.0) + weight * w
            entry = found.cell[row]  # the row's cell's entry in the record
            if record.interpretation[entry] == INTERPRETATIONS.index(Interpretation.SHARED_BIT):
                shared.append(weight * w * cfg.alice_op_probs.get(ops[k], 0.0))
                if record.alice_bit[entry] != record.bob_bit[entry]:
                    mismatched.append(shared[-1])
        for row, p in enumerate(found.probability[0].tolist()):
            hadamard, k = divmod(int(record.table_id[found.cell[row]]), len(ops))
            weight = cfg.bob_hadamard_prob if hadamard else 1.0 - cfg.bob_hadamard_prob
            if weight > 0.0:
                cell = row_sums[ops[k]]
                label = _label(found, row)
                cell[label] = cell.get(label, 0.0) + weight * p
        outcome = _in_tally_order(sums, ops)
        exact = exact_statistics(cfg, attack)
        assert _items(exact.outcome_probs) == _items(outcome)
        errors = {op: dist.get(Interpretation.ERROR.value, 0.0) for op, dist in outcome.items()}
        assert list(exact.error_probs.items()) == list(errors.items())
        p_shared, p_mismatch = float(np.sum(shared)), float(np.sum(mismatched))
        assert exact.shared_mismatch == (p_mismatch / p_shared if p_shared > 0 else None)
        row_outcome = _in_tally_order(row_sums, ops)
        assert [(op, list(dist)) for op, dist in row_outcome.items()] == [
            (op, list(dist)) for op, dist in outcome.items()]
        for op, dist in row_outcome.items():
            for label, p in dist.items():
                assert abs(outcome[op][label] - p) <= 1e-14, (op, label)


@pytest.mark.parametrize("variant", ["mirror", "legacy"])
@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_run_tally_matches_a_per_round_recount(variant, n_max):
    """Counts, sifted key rounds and the three category rates equal a recount
    of the sampled cells one round at a time, key order included."""
    attack = random_attack(n_max, probe_dim=2, strength=0.8, n_max=n_max)
    for cfg in _tally_configs(variant, n_max):
        enum = RoundEnumerator(cfg, attack)
        found, ops = enum._pass, cfg.variant.operations
        labels = {_cell_code(found, row): _label(found, row) for row in range(len(found.cell))}
        per_op = {op: {} for op in ops}
        for code in simulate_records(cfg, attack, enum).tolist():
            cell = per_op[ops[code // 20 % len(ops)]]
            label = labels[code]
            cell[label] = cell.get(label, 0) + 1
        counts = {op.value: dist for op, dist in _in_tally_order(per_op, ops).items() if dist}

        def rate(named):
            dists = [per_op[op] for op in named if op in per_op]
            total = sum(n for dist in dists for n in dist.values())
            errors = sum(dist.get(Interpretation.ERROR.value, 0) for dist in dists)
            return errors / total if total else None

        key_ops = ((AliceOp.SWAP_10, AliceOp.SWAP_01) if variant == "mirror"
                   else (AliceOp.SIFT,))
        stats = run_protocol(cfg, attack, enum)
        assert _items(stats.counts) == _items(counts)
        assert stats.sifted_key_rounds == sum(
            n for op in key_ops for label, n in per_op[op].items() if label != "Discarded")
        assert (stats.ctrl_error_rate, stats.swap_x_error_rate, stats.swap_all_error_rate) == (
            rate((AliceOp.CTRL,)), rate(key_ops), rate((AliceOp.SWAP_ALL,)))


def _cutoff_values(attack, variant, survival) -> dict:
    """Every exact analysis of one attack on one config, flattened to
    (name, value) pairs: outcome probabilities, and the conditions and Eve's
    states (mirror) or legacy identification (legacy)."""
    config = ProtocolConfig(variant=variant, tag_dim=attack.system.tag_dim,
                            n_max=attack.system.n_max, channel_loss=survival)
    enum = RoundEnumerator(config, attack)
    exact = exact_statistics(config, attack, enum)
    found = {("outcome", op.value, label): p
             for op, probs in exact.outcome_probs.items() for label, p in probs.items()}
    if variant is Variant.MIRROR:
        report = check_conditions(attack, config, enumerator=enum)
        found.update((("condition", name), value)
                     for name, value in report.to_document().items())
        eve = eve_conditional_states(attack, config, enum)
        found.update({("eve", "p_shared"): eve.p_shared,
                      ("eve", "trace_distance"): eve.trace_distance})
    else:
        ident = legacy_identification(attack, config, enum)
        found.update({("legacy", "trace_distance"): ident.trace_distance,
                      ("legacy", "accuracy"): ident.accuracy})
    return found


@pytest.mark.parametrize("survival", [1.0, 0.7])
@pytest.mark.parametrize("variant", list(Variant))
def test_photon_preserving_attacks_converge_in_the_cutoff(variant, survival):
    """Bob sends one photon and these attacks never add one, so raising the
    cutoff from n_max to n_max + 1 changes no exact number beyond rounding."""
    builders = [lambda n: identity_attack(n_max=n), lambda n: tagging_attack(n_max=n),
                lambda n: measure_resend_attack("computational", n_max=n),
                lambda n: measure_resend_attack("hadamard", n_max=n)]
    for build in builders:
        for n_max in (1, 2, 3):
            low, high = (_cutoff_values(build(n), variant, survival) for n in (n_max, n_max + 1))
            where = (build(1).name, n_max)
            assert low.keys() == high.keys(), where
            for key, value in low.items():
                if value is None:
                    assert high[key] is None, (where, key)
                else:
                    assert abs(high[key] - value) <= 1e-12, (where, key)
