"""Command-line behaviour: parsing, exit codes, determinism."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from dynfdr import cli


def run_cli(args):
    """Run the CLI, normalizing argparse's SystemExit into a return code."""
    try:
        return cli.main(args)
    except SystemExit as exc:
        return int(exc.code)


@pytest.fixture()
def four_pvalues(tmp_path):
    path = tmp_path / "pvals.txt"
    path.write_text("0.01\n0.02\n0.5\n0.9\n")
    return path


def test_analyze_bh_matches_step_up(four_pvalues, capsys):
    code = run_cli(["analyze", str(four_pvalues), "--procedure", "bh", "--alpha", "0.05"])
    out = capsys.readouterr().out
    assert code == 0
    assert "n_rejected: 2" in out
    assert "rejected_indices: 0 1" in out
    assert "threshold: 0.02" in out


def test_analyze_rb20_nothing_in_region(tmp_path, capsys):
    path = tmp_path / "pvals.txt"
    path.write_text("0.3\n0.5\n0.7\n0.9\n")
    code = run_cli(["analyze", str(path), "--procedure", "rb20"])
    out = capsys.readouterr().out
    assert code == 0
    assert "n_rejected: 0" in out


def test_analyze_names_bad_line(tmp_path, capsys):
    path = tmp_path / "pvals.txt"
    path.write_text("0.01\n1.5\n0.9\n")
    code = run_cli(["analyze", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 2" in err


def test_analyze_unparseable_line_cited(tmp_path, capsys):
    path = tmp_path / "pvals.txt"
    path.write_text("0.01\nnot-a-number\n")
    code = run_cli(["analyze", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 2" in err


def test_analyze_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("")
    code = run_cli(["analyze", str(path)])
    assert code == 1
    assert "no p-values" in capsys.readouterr().err


def test_analyze_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "pvals.txt"
    path.write_bytes(b"0.5\n\xff0.3\n")
    code = run_cli(["analyze", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


def test_analyze_threshold_keeps_the_sign_of_a_zero(tmp_path, capsys):
    # bh cuts at the tenth zero in input order, a -0; a value sort alone may put a 0 there
    path = tmp_path / "pvals.txt"
    path.write_text("0\n-0\n" * 5 + "0.9\n" * 10)
    assert run_cli(["analyze", str(path), "--procedure", "bh"]) == 0
    out = capsys.readouterr().out
    assert "threshold: -0\n" in out
    assert "rejected_indices: 0 1 2 3 4 5 6 7 8 9\n" in out


def test_analyze_bad_spec_is_usage_error(four_pvalues, capsys):
    code = run_cli(["analyze", str(four_pvalues), "--procedure", "bogus"])
    err = capsys.readouterr().err
    assert code == 2
    assert "valid specs" in err


def test_analyze_header_and_labels(tmp_path, capsys):
    path = tmp_path / "pvals.txt"
    path.write_text("pvalue truth\n0.001 0\n0.02 1\n0.5 1\n0.9 1\n")
    code = run_cli(["analyze", str(path), "--procedure", "orc"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pi0_star: 0.75" in out


def test_analyze_orc_without_pi0(four_pvalues, capsys):
    code = run_cli(["analyze", str(four_pvalues), "--procedure", "orc"])
    assert code == 1
    assert "pi0" in capsys.readouterr().err
    assert run_cli(["analyze", str(four_pvalues), "--procedure", "orc", "--pi0", "0.8"]) == 0


def test_analyze_reports_the_pi0_each_baseline_used(tmp_path, capsys):
    path = tmp_path / "pvals.txt"
    path.write_text("0.001 0\n0.02 1\n0.5 1\n0.9 1\n")
    assert run_cli(["analyze", str(path), "--procedure", "bh"]) == 0
    out = capsys.readouterr().out
    assert "lambda: nan\npi0_star: 1\nm0_hat: 4\n" in out
    assert run_cli(["analyze", str(path), "--procedure", "orc"]) == 0
    assert "pi0_star: 0.75\nm0_hat: 3\n" in capsys.readouterr().out
    assert run_cli(["analyze", str(path), "--procedure", "orc", "--pi0", "0.5"]) == 0
    assert "pi0_star: 0.5\nm0_hat: 2\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--alpha", "0"], "--alpha"),
        (["--alpha", "1.5"], "--alpha"),
        (["--kappa", "1.5"], "--kappa"),
        (["--procedure", "orc", "--pi0", "0"], "--pi0"),
        (["--alpha", "x"], "--alpha"),
    ],
)
def test_analyze_bad_level_is_usage_error_naming_the_flag(four_pvalues, capsys, flags, named):
    code = run_cli(["analyze", str(four_pvalues), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert f"argument {named}: " in err
    assert "procedure spec" not in err


@pytest.mark.parametrize(
    "pvalues, spec, reason",
    [("0.4\n", "lsl", "at least 2 p-values"), ("0.1\n0.2\n0.3\n", "kq:5", "k=5 outside 1..3")],
)
def test_analyze_too_few_pvalues_for_rule(tmp_path, capsys, pvalues, spec, reason):
    path = tmp_path / "pvals.txt"
    path.write_text(pvalues)
    code = run_cli(["analyze", str(path), "--procedure", spec])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err


def test_analyze_inconsistent_labels(tmp_path, capsys):
    path = tmp_path / "pvals.txt"
    path.write_text("0.01 1\n0.5\n")
    code = run_cli(["analyze", str(path)])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


def test_analyze_writes_out_file(four_pvalues, tmp_path):
    out = tmp_path / "report.txt"
    code = run_cli(["analyze", str(four_pvalues), "--procedure", "bh", "--out", str(out)])
    assert code == 0
    assert "n_rejected: 2" in out.read_text()


@pytest.mark.parametrize(
    "command",
    [
        ["analyze", "{pvalues}", "--procedure", "bh"],
        ["verify", "lemma2"],
        ["simulate", "{config}", "--procedures", "bh"],
    ],
    ids=["analyze", "verify", "simulate"],
)
def test_unwritable_out_is_one_line_error(four_pvalues, sim_config, tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.txt"
    args = [a.format(pvalues=four_pvalues, config=sim_config) for a in command]
    code = run_cli([*args, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"
    assert captured.out == ""  # the path is checked before any work is done or reported


@pytest.fixture()
def sim_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {"m": 80, "pi0": 0.8, "mu": [1.0, 2.0], "alpha": 0.05, "J": 25, "seed": 42}
        )
    )
    return path


def test_simulate_schema(sim_config, tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    code = run_cli(["simulate", str(sim_config), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    # header + scenarios(2) x procedures(6) x metrics(5)
    assert len(lines) == 1 + 2 * 6 * 5
    assert "wrote" in capsys.readouterr().out


def test_simulate_is_byte_deterministic(sim_config, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["simulate", str(sim_config), "--out", str(out1)]) == 0
    assert run_cli(["simulate", str(sim_config), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_rejects_zero_replications(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"m": 80, "pi0": 0.8, "mu": 1.0, "J": 0, "seed": 1}))
    code = run_cli(["simulate", str(path)])
    assert code == 2
    assert "n_reps" in capsys.readouterr().err


def test_simulate_m_one_is_rejected_config(tmp_path, capsys):
    # the default procedures include lsl, which needs two p-values
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"m": 1, "pi0": 0.8, "mu": 1.0, "J": 5, "seed": 1}))
    code = run_cli(["simulate", str(path), "--out", str(tmp_path / "m.csv")])
    assert code == 2
    assert "config rejected: lowest-slope selection needs at least 2 p-values" in capsys.readouterr().err


@pytest.mark.parametrize("mu, shown", [("NaN", "nan"), ("[1.0, Infinity]", "inf")])
def test_simulate_rejects_a_non_finite_mu(tmp_path, capsys, mu, shown):
    # Python's json reads the NaN and Infinity literals as floats
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"m": 10, "pi0": 0.5, "mu": {mu}, "J": 2, "seed": 1}}')
    code = run_cli(["simulate", str(path), "--out", str(tmp_path / "m.csv")])
    assert code == 2
    assert f"config rejected: mu={shown} is not a finite number >= 0" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


def test_simulate_rejects_empty_mu_list(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"m": 10, "pi0": 0.8, "mu": [], "J": 5, "seed": 1}))
    assert run_cli(["simulate", str(path)]) == 2
    assert "'mu'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("J", 2.7), ("m", 80.0), ("seed", True), ("J", "25"), ("m", None),
        ("block_size", 2.7), ("block_size", True), ("rho", "0.5"),
        ("pi0", True), ("mu", "1"), ("mu", [1.0, "2"]), ("mu", [False]), ("alpha", "0.05"), ("kappa", True),
    ],
)
def test_simulate_integer_fields_must_be_json_integers(tmp_path, capsys, field, value):
    # m, J, seed and block_size are JSON integers; pi0, mu, alpha, kappa and rho JSON numbers
    config = {"m": 80, "pi0": 0.8, "mu": 1.0, "J": 25, "seed": 42}
    config["dependence"] = {"type": "block_ar", "block_size": 10, "rho": 0.5}
    (config["dependence"] if field in ("block_size", "rho") else config)[field] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = run_cli(["simulate", str(path), "--out", str(tmp_path / "m.csv")])
    assert code == 2
    message = f"config field {field!r} has bad value {value!r}"
    assert capsys.readouterr().err.splitlines()[-1] == f"dynfdr: error: {message}"
    assert not (tmp_path / "m.csv").exists()


def test_simulate_checks_out_before_the_study(sim_config, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        pytest.fail("the study ran before --out was found unwritable")

    monkeypatch.setattr(cli, "run_experiment", fail)
    out = tmp_path / "missing" / "m.csv"
    assert run_cli(["simulate", str(sim_config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"


def test_simulate_leaves_no_out_file_when_the_study_fails(tmp_path, capsys):
    # m = 1 passes the config checks, then lsl fails inside the study
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"m": 1, "pi0": 0.8, "mu": 1.0, "J": 5, "seed": 1}))
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("earlier results\n")
    for out in (new, old):
        assert run_cli(["simulate", str(path), "--out", str(out)]) == 2
        assert "config rejected" in capsys.readouterr().err
    assert not new.exists()
    assert old.read_text() == "earlier results\n"


def test_simulate_names_missing_field(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"pi0": 0.8, "mu": 1.0, "J": 5, "seed": 1}))
    code = run_cli(["simulate", str(path)])
    assert code == 2
    assert "'m'" in capsys.readouterr().err


def test_simulate_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    code = run_cli(["simulate", str(path)])
    assert code == 2
    assert "JSON" in capsys.readouterr().err


def test_simulate_block_dependence_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "m": 100,
                "pi0": 0.8,
                "mu": 1.0,
                "J": 10,
                "seed": 3,
                "dependence": {"type": "block_ar", "block_size": 50, "rho": -0.9},
            }
        )
    )
    out = tmp_path / "metrics.csv"
    assert run_cli(["simulate", str(path), "--out", str(out)]) == 0
    assert "ar50rho-0.9" in out.read_text()


def test_verify_lemma2_suite(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = run_cli(["verify", "lemma2", "--out", str(out)])
    assert code == 0
    assert "checks, 0 failed" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 1 + 60 * 19


@pytest.mark.parametrize(
    "args, message",
    [
        (["fdr-control", "--reps", "0"], "argument --reps: reps=0 must be >= 2"),
        (["fdr-control", "--reps", "1"], "argument --reps: reps=1 must be >= 2"),
        (["conservative", "--seed", "-5"], "argument --seed: seed=-5 must be >= 0"),
        (["supermartingale", "--seed", "-1"], "argument --seed: seed=-1 must be >= 0"),
        (["conservative", "--seed", "x"], "argument --seed: seed='x' is not an integer"),
        (["fdr-control", "--reps", "2.5"], "argument --reps: reps='2.5' is not an integer"),
    ],
)
def test_verify_bad_reps_or_seed_is_usage_error_naming_the_flag(capsys, args, message):
    code = run_cli(["verify", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"dynfdr verify: error: {message}"
    assert "Traceback" not in captured.err


def test_verify_unknown_suite(capsys):
    code = run_cli(["verify", "nonsense"])
    assert code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_import_cli_does_not_load_scipy():
    # scipy is only needed to generate simulated p-values
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, dynfdr.cli; assert 'scipy' not in sys.modules, 'scipy was imported'"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
