"""Command-line behavior: exit codes, determinism, file outputs."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sqkdsim import cli
from sqkdsim.adversary import (attack_space, attack_to_document, identity_attack,
                               load_attack, random_attack, save_attack)
from sqkdsim.cli import EXIT_USAGE, build_attack, build_parser, main
from sqkdsim.protocol import _launch
from sqkdsim.robustness import measurement_cross_check

from extra_attacks import probe_rotation_attack


def test_run_identity_succeeds(capsys):
    assert main(["run", "--rounds", "50", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "ctrl error rate" in out


def test_run_measure_resend_aborts(capsys):
    code = main(["run", "--rounds", "400", "--seed", "1",
                 "--attack", "measure-resend-computational"])
    assert code == 3
    assert "abort" in capsys.readouterr().err


def test_run_structured_output_is_json(capsys):
    assert main(["run", "--rounds", "20", "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["manifest"]["config"]["n_rounds"] == 20
    assert "stats" in doc and "analysis" in doc


def test_run_without_survival_reports_no_trace_distance(capsys):
    """No photon survives, so no key bit occurs and Eve has no states."""
    assert main(["run", "--rounds", "20", "--loss", "0", "--format", "structured"]) == 0
    eve = json.loads(capsys.readouterr().out)["analysis"]["eavesdropper"]
    assert eve == {"p_shared": 0.0, "trace_distance": None}


def test_identical_manifests_give_identical_bytes(tmp_path):
    """Same inputs, same bytes; a different seed changes them."""
    args = ["run", "--rounds", "120", "--seed", "42", "--attack", "identity"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    third = tmp_path / "c.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert main(["run", "--rounds", "120", "--seed", "43",
                 "--out", str(third)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() != third.read_bytes()
    assert first.with_suffix(".csv").read_bytes() == \
        second.with_suffix(".csv").read_bytes()


def test_run_conditions_and_cross_check_under_loss(capsys):
    """Conditions use the run's loss; the cross check runs lossless."""
    assert main(["run", "--rounds", "200", "--loss", "0.5", "--cross-check",
                 "--attack", "measure-resend-computational",
                 "--error-threshold", "1", "--format", "structured"]) == 0
    analysis = json.loads(capsys.readouterr().out)["analysis"]
    assert analysis["conditions"]["cross_check_deviation"] < 1e-12
    assert analysis["conditions"]["ctrl_minus"] == pytest.approx(0.0625,
                                                                 abs=1e-12)
    assert analysis["exact_error_probs"]["CTRL"] == pytest.approx(0.0625,
                                                                  abs=1e-12)


def test_run_cross_check_is_the_lossless_check_listed_before_max_violation(capsys):
    """A lossy run reports measurement_cross_check of its attack, in the
    conditions table right before max_violation."""
    args = ["run", "--rounds", "50", "--loss", "0.6", "--cross-check",
            "--attack", "random:9:2:0.8", "--error-threshold", "1"]
    assert main(args + ["--format", "structured"]) == 0
    conditions = json.loads(capsys.readouterr().out)["analysis"]["conditions"]
    attack = random_attack(9, probe_dim=2, strength=0.8)
    assert conditions["cross_check_deviation"] == measurement_cross_check(attack)
    assert main(args) == 0
    table = capsys.readouterr().out.split("detection conditions\n")[1]
    rows = [line.split()[0] for line in table.splitlines()]
    assert rows[rows.index("max_violation") - 1] == "cross_check_deviation"


def test_run_with_fixture_attack(tmp_path, capsys):
    path = tmp_path / "probe.json"
    save_attack(probe_rotation_attack(2, probe_dim=2), path)
    assert main(["run", "--rounds", "30", "--attack", str(path)]) == 0
    capsys.readouterr()


def test_run_with_noisy_fixture_aborts(tmp_path, capsys):
    path = tmp_path / "noisy.json"
    save_attack(random_attack(2, probe_dim=2, strength=0.2), path)
    assert main(["run", "--rounds", "400", "--attack", str(path)]) == 3
    capsys.readouterr()


def _unchecked_fixture(tmp_path, u_forward, v_backward, probe_dim):
    """An n_max 2 attack document with the given matrices, written without
    building (and so without validating) an attack."""
    doc = dict(attack_to_document(identity_attack(probe_dim=probe_dim)), photon_preserving=False)
    for key, mat in (("u_forward", u_forward), ("v_backward", v_backward)):
        doc[key] = np.stack([mat.real, mat.imag], axis=-1).tolist()
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("variant", ["mirror", "legacy"])
def test_run_takes_an_attack_within_the_unitarity_bound(variant, tmp_path, capsys):
    """(1 + 4.9e-11) I has defect 9.8e-11: validation accepts it, so every
    analysis of both variants must run on it; the legacy states are
    normalised by their traces (1 + 2e-10) before they are checked."""
    scaled = (1 + 4.9e-11) * np.eye(attack_space(probe_dim=2).dim)
    path = _unchecked_fixture(tmp_path, scaled, scaled, 2)
    assert main(["run", "--variant", variant, "--rounds", "100", "--attack", str(path)]) == 0
    capsys.readouterr()


def test_run_rejects_on_load_an_attack_that_breaks_the_branch_total(tmp_path, capsys):
    """U takes Bob's launch state to the uniform vector, which V scales by
    1 + 48 * 0.99e-10 in squared norm, past the branch pass's 1e-9 check on
    each block's total, though no entry of V^dagger V - I exceeds 1e-10."""
    identity = identity_attack(probe_dim=8)
    d = identity.system.dim  # 48
    plus, levels = _launch(identity.system)
    launch = plus * identity.initial_probe[levels]
    v = launch - d ** -0.5
    householder = np.eye(d) - 2 * np.outer(v, v.conj()) / np.vdot(v, v).real
    all_ones = np.eye(d) + ((1 + 0.99e-10 * d) ** 0.5 - 1) / d
    assert np.abs(all_ones.T @ all_ones - np.eye(d)).max() <= 1e-10
    path = _unchecked_fixture(tmp_path, householder, all_ones, 8)
    with pytest.raises(ValueError, match=r"v_backward is not unitary \(defect 4.752e-09\)"):
        load_attack(path)
    assert main(["run", "--rounds", "10", "--attack", str(path)]) == 1
    assert "v_backward is not unitary" in capsys.readouterr().err


@pytest.mark.parametrize("spec, tag_dim, n_max, message", [
    ("random:1:2:0.3:4", None, 2, "malformed random attack spec"),
    ("random:", None, 2, "malformed random attack spec 'random:': SEED '' is not an integer"),
    ("random:5:4.0", None, 2, r"spec 'random:5:4\.0': PROBE '4\.0' is not an integer"),
    ("random:5:4:abc", None, 2, "spec 'random:5:4:abc': STRENGTH 'abc' is not a number"),
    ("random:1", 2, 2, "single tag level"),
    ("FIXTURE", 2, 2, "uses tag_dim=1, but --tag-dim 2"),
    ("FIXTURE", None, 3, "uses n_max=2, but --n-max 3"),
], ids=["random-spec", "random-seed", "random-probe", "random-strength", "random-tags",
        "fixture-tags", "fixture-n-max"])
def test_build_attack_input_checks(spec, tag_dim, n_max, message, tmp_path):
    if spec == "FIXTURE":
        spec = str(tmp_path / "identity.json")
        save_attack(identity_attack(), spec)
    with pytest.raises(ValueError, match=message):
        build_attack(spec, tag_dim, n_max)


def test_run_rejects_a_seed_that_is_no_philox_key(capsys):
    assert main(["run", "--rounds", "10", "--seed", "-1"]) == 1
    assert "rng_seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (["sweep", "--count", "2", "--seed", "-1"], "master_seed"),
    (["lemma", "--random", "2", "--seed", "-1"], "--seed"),
], ids=["sweep", "lemma"])
def test_a_negative_seed_is_an_error_that_names_the_option(argv, name, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err
    assert "Traceback" not in err


def test_a_negative_random_attack_seed_is_an_error_that_names_it(capsys):
    assert main(["run", "--rounds", "10", "--attack", "random:-1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: seed must be non-negative, got -1\n"


def test_unknown_attack_fails_cleanly(capsys):
    assert main(["run", "--attack", "nonsense"]) == 1
    assert "unknown attack" in capsys.readouterr().err


@pytest.mark.parametrize("failure, message", [
    (MemoryError("Unable to allocate 2.18 TiB for an array"),
     "Unable to allocate 2.18 TiB for an array"),  # numpy's
    (MemoryError(), "MemoryError"),  # Python's own has no text
], ids=["numpy", "bare"])
def test_an_allocation_failure_is_an_error_not_a_traceback(failure, message, monkeypatch,
                                                           capsys):
    """``run --rounds 100000000000`` asks numpy for terabytes.  The failure
    is raised here rather than allocated: an overcommitting kernel may grant
    the array and then kill the process."""
    def too_large(*args, **kwargs):
        raise failure

    monkeypatch.setattr(cli, "run_protocol", too_large)
    assert main(["run", "--rounds", "100000000000"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_tag_dim_conflict_fails(capsys):
    assert main(["run", "--attack", "tagging", "--tag-dim", "1"]) == 1
    assert "tag" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


def test_repeated_calls_share_one_parser_and_no_options(tmp_path, capsys):
    """``main`` builds its parser once; a call's options, or a usage error,
    never reach a later call."""
    args = ["run", "--attack", "random:11:4", "--rounds", "500", "--seed", "7",
            "--error-threshold", "1", "--format", "structured", "--out"]

    def report(name):
        assert main(args + [str(tmp_path / name)]) == 0
        return capsys.readouterr().out, (tmp_path / name).read_bytes()

    first = report("first.json")
    assert main(["run", "--loss", "0.5", "--hadamard-prob", "0.3",
                 "--out", str(tmp_path / "lossy.json")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["run", "--loss", "lossless"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()
    assert report("again.json") == first
    assert build_parser() is build_parser()


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--count", "6", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["n_counterexamples"] == 0
    lines = out.with_suffix(".csv").read_text().strip().splitlines()
    assert lines[0].startswith("index,seed,probe_dim")
    assert len(lines) == 7
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["run", "--rounds", "20"], ["sweep", "--count", "2"]],
                         ids=["run", "sweep"])
def test_a_table_that_would_overwrite_its_report_is_refused(argv, tmp_path, capsys,
                                                           monkeypatch):
    """The CSV table goes to BASE with its suffix replaced, so a BASE ending
    in ``.csv`` would lose its JSON report: refused before any work, and
    nothing written."""
    def never(*args, **kwargs):
        raise AssertionError("the command ran before its --out was checked")

    monkeypatch.setattr(cli, "run_protocol", never)
    monkeypatch.setattr(cli, "robustness_sweep", never)
    assert main(argv + ["--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--out" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["lemma", "--random", "2"], ["attack-demo"]],
                         ids=["lemma", "attack-demo"])
def test_a_command_without_a_table_writes_its_report_to_a_csv_base(argv, tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(argv + ["--out", str(out), "--format", "structured"]) == 0
    assert out.read_text() == capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]


def test_lemma_random_inputs(capsys):
    assert main(["lemma", "--random", "25", "--seed", "3"]) == 0
    capsys.readouterr()


def test_lemma_perturbed_random_inputs_report_cleanly(capsys):
    """A perturbed input fails the premise; its verdicts still serialize."""
    assert main(["lemma", "--random", "5", "--delta", "0.01",
                 "--format", "structured"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert all(r["implication_holds"] and r["p_minus"] > 1e-9 for r in results)


def test_lemma_fixture_consistent(tmp_path, capsys):
    fixture = {
        "n_max": 2,
        "f": {"1": [[1.0, 0.0], [0.0, 0.5]]},
        "g": {"1": [[1.0, 0.0], [0.0, 0.5]]},
        "h": [[0.2, 0.0], [0.0, 0.0]],
        "claims_p_minus_zero": True,
    }
    path = tmp_path / "lemma.json"
    path.write_text(json.dumps(fixture))
    assert main(["lemma", "--fixture", str(path)]) == 0
    capsys.readouterr()


def test_lemma_fixture_false_claim_flagged(tmp_path, capsys):
    fixture = {
        "n_max": 2,
        "f": {"1": [[1.0, 0.0], [0.0, 0.0]]},
        "g": {"1": [[-1.0, 0.0], [0.0, 0.0]]},
        "h": [[0.0, 0.0], [0.0, 0.0]],
        "claims_p_minus_zero": True,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(fixture))
    assert main(["lemma", "--fixture", str(path)]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("count", ["5", "100"])
def test_lemma_takes_a_fixture_or_random_inputs_not_both(count, tmp_path, capsys):
    """Both would check the fixture alone and record the count in the
    manifest.  100, the count a bare ``lemma`` checks, clashes too, and
    that bare run records it."""
    path = tmp_path / "lemma.json"
    path.write_text(json.dumps({"h": [[1.0, 0.0]]}))
    with pytest.raises(SystemExit) as exc:
        main(["lemma", "--fixture", str(path), "--random", count])
    assert exc.value.code == EXIT_USAGE
    assert "not allowed with argument --fixture" in capsys.readouterr().err
    assert main(["lemma", "--format", "structured"]) == 0
    manifest = json.loads(capsys.readouterr().out)["manifest"]
    assert (manifest["fixture"], manifest["random"]) == (None, 100)


@pytest.mark.parametrize("argv", [["--fixture", "overflow.json"],
                                  ["--random", "2", "--delta", "1e200"]],
                         ids=["fixture", "random"])
def test_lemma_overflowing_norm_is_clean_error(argv, tmp_path, monkeypatch, capsys):
    """A squared norm beyond float range is an input error, not a lemma failure."""
    fixture = {"f": {"1": [[1e200, 0]]}, "g": {"1": [[0, 1e200]]}, "h": [[0, 0]]}
    (tmp_path / "overflow.json").write_text(json.dumps(fixture))
    monkeypatch.chdir(tmp_path)
    assert main(["lemma", *argv]) == 1
    out, err = capsys.readouterr()
    assert "squared norm" in err and "not finite" in err
    assert "implication failures" not in out


def test_lemma_fixture_malformed_shape_is_clean_error(tmp_path, capsys):
    # f given as a list instead of a photon-number mapping
    fixture = {"f": [[[1.0, 0.0]]], "g": {}, "h": [[0.0, 0.0]]}
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(fixture))
    assert main(["lemma", "--fixture", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "malformed lemma fixture" in err


@pytest.mark.parametrize("field, value", [("n_max", 2.7), ("n_max", True),
                                          ("claims_p_minus_zero", "no")])
def test_lemma_fixture_takes_no_coerced_fields(field, value, tmp_path, capsys):
    """n_max must be a JSON integer and the claim a JSON boolean."""
    fixture = {"n_max": 2, "f": {"1": [[1.0, 0.0]]}, "g": {"1": [[1.0, 0.0]]},
               "h": [[0.0, 0.0]], field: value}
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps(fixture))
    assert main(["lemma", "--fixture", str(path)]) == 1
    err = capsys.readouterr().err
    assert "malformed lemma fixture" in err and field in err


@pytest.mark.parametrize("f", ['{"1": [[1.0, 0.0]], "01": [[0.0, 1.0]]}',
                               '{"1_0": [[1.0, 0.0]]}'], ids=["01", "1_0"])
def test_lemma_fixture_takes_photon_numbers_only_as_plain_decimals(f, tmp_path, capsys):
    """Key "01" would overwrite key "1", and "1_0" would read as photon number 10."""
    path = tmp_path / "keys.json"
    path.write_text(f'{{"n_max": 2, "f": {f}, "g": {{}}, "h": [[1.0, 0.0]]}}')
    assert main(["lemma", "--fixture", str(path)]) == 1
    assert "malformed lemma fixture" in capsys.readouterr().err


def test_lemma_fixture_rejects_a_repeated_key(tmp_path, capsys):
    path = tmp_path / "repeated.json"
    path.write_text('{"n_max": 2, "f": {}, "g": {}, "h": [[1.0, 0.0]], "n_max": 3}')
    assert main(["lemma", "--fixture", str(path)]) == 1
    assert "malformed lemma fixture" in capsys.readouterr().err


def test_attack_fixture_rejects_a_repeated_key(tmp_path, capsys):
    text = json.dumps(attack_to_document(identity_attack(n_max=2)))
    path = tmp_path / "repeated.json"
    path.write_text(text.replace('"n_max": 2', '"n_max": 3, "n_max": 2', 1))
    assert main(["run", "--rounds", "10", "--attack", str(path)]) == 1
    assert "malformed attack document" in capsys.readouterr().err


def test_attack_demo(capsys):
    assert main(["attack-demo"]) == 0
    out = capsys.readouterr().out
    assert "identification accuracy" in out
    assert "tagging vs mirror" in out


def test_cross_check_needs_the_mirror_variant(capsys):
    """The cross check covers Alice's mirror swaps; a legacy run has none."""
    assert main(["run", "--variant", "legacy", "--rounds", "10",
                 "--cross-check"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--variant mirror" in err


def test_legacy_run(capsys):
    assert main(["run", "--variant", "legacy", "--rounds", "60",
                 "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "identification" in doc["analysis"]
    assert doc["stats"]["swap_all_error_rate"] is None


def test_module_entry_point_runs_from_a_checkout():
    """``python -m sqkdsim`` works with only ``src`` on the path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "sqkdsim", "sweep", "--count", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "attacks" in done.stdout and "counterexamples" in done.stdout


@pytest.mark.parametrize("args", [
    ["sweep", "--count", "2", "--max-probe-dim", "0"],
    ["sweep", "--count", "2", "--max-probe-dim", "-1"],
    ["sweep", "--count", "-1"],
    ["run", "--rounds", "10", "--attack", "random:1:0"],
    ["lemma", "--random", "-3"],
    ["lemma", "--random", "2", "--probe-dim", "-1"],
    ["run", "--rounds", "10", "--tag-dim", "0"],
    ["run", "--rounds", "10", "--attack", "measure-resend-computational",
     "--error-threshold", "nan"],
    ["run", "--rounds", "10", "--error-threshold", "-0.1"],
    ["run", "--rounds", "10", "--error-threshold", "inf"],
    ["sweep", "--count", "2", "--eps-error", "nan"],
    ["sweep", "--count", "2", "--eps-info", "-1"],
    ["lemma", "--random", "3", "--delta", "nan"],
    ["lemma", "--random", "3", "--delta", "-1"],
    ["lemma", "--random", "3", "--zero-tol", "-1", "--delta", "0.5"],
    ["lemma", "--random", "3", "--conclusion-tol", "nan"],
    ["lemma", "--random", "3", "--conclusion-tol", "-1"],
    ["lemma", "--random", "3", "--zero-tol", "1e-3", "--delta", "0.01"],
])
def test_bad_probe_sizes_and_counts_fail_cleanly(args, capsys):
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def _malformed_attack_documents():
    missing = attack_to_document(identity_attack())
    del missing["u_forward"]
    flat_probe = dict(attack_to_document(identity_attack()), initial_probe=[1, 0])
    null_pair = dict(attack_to_document(identity_attack()), initial_probe=[[None, 0]])
    string_pair = dict(attack_to_document(identity_attack()), initial_probe=[["1", "0"]])
    ragged = attack_to_document(identity_attack())
    ragged["u_forward"][0][0] = [1.0, 0.0, 0.0]
    reordered = attack_to_document(identity_attack())
    reordered["basis_order"].reverse()
    return {"missing": missing, "flat_probe": flat_probe, "list": [missing],
            "null_pair": null_pair, "string_pair": string_pair, "ragged": ragged,
            "reordered": reordered}


@pytest.mark.parametrize("name", ["missing", "flat_probe", "list", "null_pair",
                                  "string_pair", "ragged", "reordered"])
def test_malformed_attack_fixture_fails_cleanly(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_malformed_attack_documents()[name]))
    assert main(["run", "--rounds", "10", "--attack", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "malformed attack document" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["lemma", "--fixture"], "malformed lemma fixture"),
    (["run", "--rounds", "10", "--attack"], "malformed attack document"),
], ids=["lemma", "run"])
def test_truncated_json_file_fails_cleanly(argv, message, tmp_path, capsys):
    """A file cut off mid-document is no JSON; its loader names the file."""
    path = tmp_path / "truncated.json"
    path.write_text(json.dumps(attack_to_document(identity_attack()))[:50])
    assert main(argv + [str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and str(path) in err
    assert "Traceback" not in err


def test_commands_do_not_import_scipy(tmp_path):
    """numpy is the only run-time dependency: no command imports scipy."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import sys, sqkdsim, sqkdsim.cli\n"
        "assert sqkdsim.cli.main(['sweep', '--count', '1']) == 0\n"
        "assert sqkdsim.cli.main(['run', '--rounds', '1', '--loss', '0.9']) == 0\n"
        "assert sqkdsim.cli.main(['run', '--rounds', '1', '--variant', 'legacy']) == 0\n"
        "assert sqkdsim.cli.main(['run', '--rounds', '1', '--cross-check']) == 0\n"
        "assert sqkdsim.cli.main(['lemma', '--random', '1']) == 0\n"
        "assert sqkdsim.cli.main(['attack-demo']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
