"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and then asserts, so the suite both reports and enforces.  The
tolerances here are the contract; the unit-test files probe more corners.
"""
import contextlib
import io
import json
import time

import numpy as np

from sqkdsim.adversary import identity_attack, measure_resend_attack, \
    tagging_attack
from sqkdsim.alice import ALICE_PAIR, TRANSMIT_PAIR, swap_matrix
from sqkdsim.cli import main as cli_main
from sqkdsim.fock import FockVector, ModeSystem, hadamard_change
from sqkdsim.measurement import (AliceOp, ClickPattern, Interpretation,
                                 interpret_ctrl, interpret_legacy_sift,
                                 interpret_swap_all, interpret_swap_x)
from sqkdsim.fock import ContractViolation
from sqkdsim.protocol import (ProtocolConfig, Variant, eve_conditional_states,
                              exact_statistics, legacy_identification,
                              run_protocol)
from sqkdsim.robustness import (check_conditions, lemma_state,
                                random_lemma_input, robustness_sweep,
                                verify_lemma1)

from extra_states import basis_state, basis_vector, normalized

PATTERNS = (ClickPattern.P00, ClickPattern.P01, ClickPattern.P10,
            ClickPattern.P11)


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail and not ok else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")
    return ok


def test_criterion_1_identity_run():
    """10,000 undisturbed rounds: no errors, equal keys, balanced sharing."""
    start = time.perf_counter()
    stats = run_protocol(ProtocolConfig(n_rounds=10_000, rng_seed=2024),
                         identity_attack())
    elapsed = time.perf_counter() - start
    checks = {
        "ctrl rate 0": stats.ctrl_error_rate == 0.0,
        "swap-x rate 0": stats.swap_x_error_rate == 0.0,
        "swap-all rate 0": stats.swap_all_error_rate == 0.0,
        "raw key rate 0": stats.raw_key_error_rate == 0.0,
        "keys equal": stats.raw_key_alice == stats.raw_key_bob,
        "shared fraction": abs(stats.shared_bit_fraction - 0.5) <= 0.02,
        "under 10s": elapsed < 10.0,
    }
    ok = all(checks.values())
    detail = ", ".join(k for k, v in checks.items() if not v) or f"{elapsed:.2f}s"
    assert _verdict(1, "identity run", ok, detail)


def test_criterion_2_interpretation_tables():
    """Outcome tables reproduced row by row; the impossible row hard-faults."""
    ctrl_expected = [Interpretation.LOSS, Interpretation.LEGAL,
                     Interpretation.ERROR, Interpretation.ERROR]
    ok = all(interpret_ctrl(p) is want
             for p, want in zip(PATTERNS, ctrl_expected))

    swap_x_expected = {
        (0, 0): Interpretation.LOSS,
        (0, 1): Interpretation.SHARED_BIT,
        (0, 2): Interpretation.ERROR,
        (1, 0): Interpretation.NO_SHARED_BIT,
        (1, 1): Interpretation.ERROR,
        (1, 2): Interpretation.ERROR,
    }
    ok &= all(interpret_swap_x(a, b) is want
              for (a, b), want in swap_x_expected.items())
    for bob_sum in (0, 1, 2):
        try:
            interpret_swap_x(2, bob_sum)
            ok = False
        except ContractViolation:
            pass

    for alice in PATTERNS:
        for bob in PATTERNS:
            if bob is not ClickPattern.P00:
                want = Interpretation.ERROR
            elif alice is ClickPattern.P00:
                want = Interpretation.LOSS
            elif alice is ClickPattern.P11:
                want = Interpretation.ERROR
            else:
                want = Interpretation.LEGAL
            ok &= interpret_swap_all(alice, bob) is want

    for alice in PATTERNS:
        for bob in PATTERNS:
            if ClickPattern.P11 in (alice, bob):
                want = Interpretation.ERROR
            elif ClickPattern.P00 in (alice, bob):
                want = Interpretation.LOSS
            else:
                want = Interpretation.SHARED_BIT
            ok &= interpret_legacy_sift(alice, bob) is want

    assert _verdict(2, "interpretation tables", ok)


def test_criterion_3_swap_operators():
    """Exhaustive basis action of the four operations at the n=2 cutoff."""
    ok = True
    worst = 0.0
    for tag_dim, probe_dim in ((1, 2), (2, 1)):
        ms = ModeSystem(num_pairs=2, tag_dim=tag_dim, n_max=2,
                        probe_dim=probe_dim)
        mats = {op: swap_matrix(ms, op) for op in
                (AliceOp.CTRL, AliceOp.SWAP_10, AliceOp.SWAP_01,
                 AliceOp.SWAP_ALL)}
        swapped_modes = {AliceOp.CTRL: (), AliceOp.SWAP_10: (1,),
                         AliceOp.SWAP_01: (0,), AliceOp.SWAP_ALL: (0, 1)}
        for op, mat in mats.items():
            for index in range(ms.dim):
                occ, probe = basis_state(ms, index)
                out = list(occ)
                for mode in swapped_modes[op]:
                    for tag in range(tag_dim):
                        a = ms.slot(ALICE_PAIR, mode, tag)
                        b = ms.slot(TRANSMIT_PAIR, mode, tag)
                        out[a], out[b] = out[b], out[a]
                expected = np.zeros(ms.dim)
                expected[ms.basis_index(out, probe)] = 1.0
                worst = max(worst, float(np.abs(mat[:, index] - expected).max()))
        composed = mats[AliceOp.SWAP_10] @ mats[AliceOp.SWAP_01]
        worst = max(worst, float(np.abs(composed - mats[AliceOp.SWAP_ALL]).max()))
        composed = mats[AliceOp.SWAP_01] @ mats[AliceOp.SWAP_10]
        worst = max(worst, float(np.abs(composed - mats[AliceOp.SWAP_ALL]).max()))
    ok = worst <= 1e-12
    assert _verdict(3, "swap operators", ok, f"worst deviation {worst:.2e}")


def test_criterion_4_basis_change():
    """Frozen one- and two-photon expansions; unitarity on random states."""
    ms = ModeSystem(num_pairs=1, tag_dim=1, n_max=2)
    inv = 1 / np.sqrt(2)
    expected = {
        (1, 0): {(1, 0): inv, (0, 1): inv},
        (0, 1): {(1, 0): inv, (0, 1): -inv},
        (2, 0): {(2, 0): 0.5, (1, 1): inv, (0, 2): 0.5},
        (0, 2): {(2, 0): 0.5, (1, 1): -inv, (0, 2): 0.5},
        (1, 1): {(2, 0): inv, (0, 2): -inv},
    }
    worst = 0.0
    for occ, table in expected.items():
        rotated = hadamard_change(basis_vector(ms, occ), 0)
        for out_occ in ms.occupations():
            want = table.get(out_occ, 0.0)
            worst = max(worst, abs(rotated.amplitude(out_occ) - want))
    ok = worst <= 1e-10

    big = ModeSystem(num_pairs=2, tag_dim=1, n_max=2, probe_dim=2)
    rng = np.random.default_rng(4)
    unit_worst = 0.0
    for _ in range(1000):
        amps = rng.standard_normal(big.dim) + 1j * rng.standard_normal(big.dim)
        state = normalized(FockVector(big, amps))
        rotated = hadamard_change(state, 1)
        unit_worst = max(unit_worst, abs(rotated.norm2 - 1.0))
        back = hadamard_change(rotated, 1)
        unit_worst = max(unit_worst,
                         float(np.abs(back.amplitudes - state.amplitudes).max()))
    ok &= unit_worst <= 1e-12
    assert _verdict(4, "basis change", ok,
                    f"expansion {worst:.2e}, unitarity {unit_worst:.2e}")


def test_criterion_5_return_state_lemma():
    """Quiet inputs must be plus-shaped; perturbations scale as delta**2."""
    rng = np.random.default_rng(5)
    ok = True
    worst_p = 0.0
    for _ in range(1000):
        verdict = verify_lemma1(random_lemma_input(rng, probe_dim=4))
        worst_p = max(worst_p, verdict.p_minus)
        ok &= verdict.p_minus < 1e-12 and verdict.conclusion_holds

    scaling_ok = True
    for delta in (1e-3, 1e-2, 1e-1):
        for _ in range(25):
            spec_input = random_lemma_input(rng, probe_dim=4, delta=delta)
            verdict = verify_lemma1(spec_input)
            predicted = delta ** 2 / (2.0 * lemma_state(spec_input).norm2)
            scaling_ok &= predicted / 2 <= verdict.p_minus <= predicted * 2
    ok &= scaling_ok
    assert _verdict(5, "return-state lemma", ok,
                    f"max p_minus {worst_p:.2e}, scaling {scaling_ok}")


def test_criterion_6_tagging_attack():
    """Tagging breaks the legacy variant silently, the mirror defeats it."""
    attack = tagging_attack()
    ident = legacy_identification(attack)
    legacy_errors = exact_statistics(
        ProtocolConfig(variant=Variant.LEGACY, tag_dim=2), attack).error_probs
    report = check_conditions(attack)
    conditionals = eve_conditional_states(attack)
    checks = {
        "legacy accuracy 1": abs(ident.accuracy - 1.0) <= 1e-12,
        "legacy silent": all(p == 0.0 for p in legacy_errors.values()),
        "mirror blind": conditionals.trace_distance is not None
                        and conditionals.trace_distance < 1e-12,
        "mirror quiet": report.max_violation == 0.0,
    }
    ok = all(checks.values())
    detail = ", ".join(k for k, v in checks.items() if not v)
    assert _verdict(6, "tagging attack", ok, detail)


def test_criterion_7_attack_sweep():
    """500 random two-pass attacks: quiet implies uninformative."""
    start = time.perf_counter()
    report = robustness_sweep(master_seed=2024, count=500, strength=0.3,
                              max_probe_dim=8, n_max=2)
    elapsed = time.perf_counter() - start
    mr = check_conditions(measure_resend_attack("computational"))
    checks = {
        "no counterexamples": report.n_counterexamples == 0,
        "under 60s": elapsed < 60.0,
        "resend condition 1/4": abs(mr.ctrl_minus - 0.25) <= 1e-12,
    }
    ok = all(checks.values())
    detail = ", ".join(k for k, v in checks.items() if not v) or f"{elapsed:.1f}s"
    assert _verdict(7, "attack sweep", ok, detail)


def test_criterion_8_deterministic_outputs(tmp_path):
    """Identical manifests produce byte-identical report files."""
    args = ["run", "--rounds", "250", "--seed", "11",
            "--attack", "measure-resend-computational"]
    first, second = tmp_path / "r1.json", tmp_path / "r2.json"
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code1 = cli_main(args + ["--out", str(first)])
        code2 = cli_main(args + ["--out", str(second)])
    run_ok = (code1 == code2 and first.read_bytes() == second.read_bytes()
              and first.with_suffix(".csv").read_bytes()
              == second.with_suffix(".csv").read_bytes())

    sweep_a = json.dumps(robustness_sweep(master_seed=8, count=8).to_document(),
                         sort_keys=True)
    sweep_b = json.dumps(robustness_sweep(master_seed=8, count=8).to_document(),
                         sort_keys=True)
    checks = {
        "run files identical": run_ok,
        "sweep docs identical": sweep_a == sweep_b,
        "valid json": json.loads(first.read_text())["manifest"]["config"]
                      ["rng_seed"] == 11,
    }
    ok = all(checks.values())
    detail = ", ".join(k for k, v in checks.items() if not v)
    assert _verdict(8, "deterministic outputs", ok, detail)
