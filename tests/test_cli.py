"""Command-line behaviour: parsing, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynfdr import DEFAULT_PROCEDURES, cli, parse_rule_spec
from dynfdr.selection import SPEC_HELP
from dynfdr.simulate import BlockAR, ScenarioConfig, emit_figure_data, run_experiment


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


# a grid is a comma list: start:step:stop is refused for its form, before any of its values is read
@pytest.mark.parametrize("spec", ["rb:0.05:0.05:0.95", "rbq:0.1:0.1:inf", "rb:0.1:1e-320:0.9"])
def test_analyze_grid_spec_out_of_range_is_usage_error(four_pvalues, capsys, spec):
    code = run_cli(["analyze", str(four_pvalues), "--procedure", spec])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("dynfdr analyze: error: ") == 1
    reason = "expected a comma list such as 0.25,0.5,0.75"
    assert err.splitlines()[-1] == f"dynfdr analyze: error: invalid procedure spec {spec!r}: bad grid; {reason}"
    # the comma list the message suggests runs
    assert run_cli(["analyze", str(four_pvalues), "--procedure", spec.split(":")[0] + ":0.25,0.5,0.75"]) == 0


@pytest.mark.parametrize(
    "spec, reason",
    [
        ("rb:0.5,0.2", "candidate grid must be strictly ascending, got 0.5 then 0.2 at entries 1 and 2"),
        ("rb:0.5,0.5", "candidate grid must be strictly ascending, got 0.5 then 0.5 at entries 1 and 2"),
        ("rbq:0.5,0.2", "quantile levels must be strictly ascending, got 0.5 then 0.2 at entries 1 and 2"),
    ],
)
def test_analyze_grid_that_does_not_ascend_is_usage_error(four_pvalues, capsys, spec, reason):
    code = run_cli(["analyze", str(four_pvalues), "--procedure", spec])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("error:") == 1
    assert len(err) < 1000  # the usage line and one error line
    assert err.splitlines()[-1] == f"dynfdr analyze: error: invalid procedure spec {spec!r}: {reason}"


# every kind of bad spec, with the reason parse_rule_spec gives after naming the spec once (kappa = alpha = 0.05)
BAD_SPECS = [
    ("bogus", f"unknown procedure; valid specs: {SPEC_HELP}"),
    ("fixed:a", "bad lambda"),
    ("fixed:2", "fixed lambda=2.0 outside [kappa=0.05, 1)"),
    ("rb:abc", "bad grid: could not convert string to float: 'abc'"),
    ("rb:0.05:0.05:0.95", "bad grid; expected a comma list such as 0.25,0.5,0.75"),
    ("rb:0.5,0.2", "candidate grid must be strictly ascending, got 0.5 then 0.2 at entries 1 and 2"),
    ("rbq:0.5,0.2", "quantile levels must be strictly ascending, got 0.5 then 0.2 at entries 1 and 2"),
    ("kq:x", "bad quantile index"),
    ("kq:0", "k=0 must be >= 1"),
]


@pytest.mark.parametrize("spec, reason", BAD_SPECS)
def test_a_bad_spec_is_named_once_by_the_library_and_both_commands(four_pvalues, tmp_path, capsys, spec, reason):
    message = f"invalid procedure spec {spec!r}: {reason}"
    with pytest.raises(ValueError) as raised:
        parse_rule_spec(spec, 0.05)
    assert str(raised.value) == message
    assert message.count(spec) == 1

    assert run_cli(["analyze", str(four_pvalues), "--procedure", spec]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"dynfdr analyze: error: {message}"
    assert err.count(spec) == 1  # the usage line above it does not name the spec either

    config, out = tmp_path / "cfg.json", tmp_path / "m.csv"
    config.write_text(json.dumps({"m": 20, "pi0": 0.8, "mu": 1.0, "J": 2, "seed": 1, "procedures": ["bh", spec]}))
    assert run_cli(["simulate", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"dynfdr simulate: error: config rejected: {message}"
    assert not out.exists()


def test_analyze_header_and_labels(tmp_path, capsys):
    # the header is skipped; a truth label column is no p-value file, and orc takes its pi0 from --pi0 alone
    path = tmp_path / "pvals.txt"
    path.write_text("pvalue truth\n0.001 0\n0.02 1\n0.5 1\n0.9 1\n")
    code = run_cli(["analyze", str(path), "--procedure", "orc", "--pi0", "0.75"])
    assert code == 1
    assert capsys.readouterr().err == "error: line 2: expected one p-value per line, got 2 fields\n"
    path.write_text("pvalue\n0.001\n0.02\n0.5\n0.9\n")
    assert run_cli(["analyze", str(path), "--procedure", "orc", "--pi0", "0.75"]) == 0
    assert "m: 4\n" in capsys.readouterr().out


def test_analyze_orc_without_pi0(four_pvalues, tmp_path, capsys):
    # a usage error, found before the file is read
    for path in (four_pvalues, tmp_path / "missing.txt"):
        code = run_cli(["analyze", str(path), "--procedure", "orc"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("error:") == 1
        assert err.splitlines()[-1] == "dynfdr analyze: error: --procedure orc needs --pi0, the true null proportion"
    assert run_cli(["analyze", str(four_pvalues), "--procedure", "orc", "--pi0", "0.8"]) == 0


@pytest.mark.parametrize("procedure", [[], ["--procedure", "rb20"], ["--procedure", "bh"], ["--procedure", " lsl"]])
def test_analyze_pi0_without_orc_is_usage_error(four_pvalues, capsys, procedure):
    # every rule but orc ignored --pi0, and the run exited 0
    spec = procedure[1] if procedure else "rb20"
    code = run_cli(["analyze", str(four_pvalues), *procedure, "--pi0", "0.3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("dynfdr analyze: error: ") == 1
    assert err.splitlines()[-1] == f"dynfdr analyze: error: --pi0 applies only to --procedure orc, not {spec!r}"


def test_analyze_reports_the_pi0_each_baseline_used(four_pvalues, capsys):
    assert run_cli(["analyze", str(four_pvalues), "--procedure", "bh"]) == 0
    out = capsys.readouterr().out
    assert "lambda: nan\npi0_star: 1\nm0_hat: 4\n" in out
    for pi0, m0 in (("0.75", "3"), ("0.5", "2")):
        assert run_cli(["analyze", str(four_pvalues), "--procedure", "orc", "--pi0", pi0]) == 0
        assert f"pi0_star: {pi0}\nm0_hat: {m0}\n" in capsys.readouterr().out


def test_analyze_prints_alpha_and_kappa_to_twelve_digits(four_pvalues, capsys):
    # :g printed alpha: 0.05 for an --alpha of 0.0500000001
    args = ["analyze", str(four_pvalues), "--alpha", "0.0500000001", "--kappa", "0.123456789012345"]
    assert run_cli(args) == 0
    assert "alpha: 0.0500000001\nkappa: 0.123456789012\n" in capsys.readouterr().out
    assert run_cli(["analyze", str(four_pvalues)]) == 0
    assert "alpha: 0.05\nkappa: 0.05\n" in capsys.readouterr().out


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


@pytest.mark.parametrize("pvalues, spec, reason", [("0.1\n0.2\n0.3\n", "kq:5", "k=5 outside 1..3")])
def test_analyze_too_few_pvalues_for_rule(tmp_path, capsys, pvalues, spec, reason):
    path = tmp_path / "pvals.txt"
    path.write_text(pvalues)
    code = run_cli(["analyze", str(path), "--procedure", spec])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err


def test_analyze_lsl_on_one_pvalue_falls_back(tmp_path, capsys):
    path = tmp_path / "pvals.txt"
    path.write_text("0.4\n")
    assert run_cli(["analyze", str(path), "--procedure", "lsl"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "flags: fallback-largest-order-statistic\n" in captured.out
    assert "n_rejected: 0\n" in captured.out


def test_analyze_inconsistent_labels(tmp_path, capsys):
    # a second field is refused on the first line that has one, labelled or not
    path = tmp_path / "pvals.txt"
    for text, error in (
        ("0.01 1\n0.5\n", "line 1: expected one p-value per line, got 2 fields"),
        ("0.01\n0.5 1 0\n", "line 2: expected one p-value per line, got 3 fields"),
        ("0.01\n1.5 1\n", "line 2: expected one p-value per line, got 2 fields"),
        ("0.01\n0.5,1\n", "line 2: cannot parse p-value from '0.5,1'"),  # a comma separates no fields
    ):
        path.write_text(text)
        assert run_cli(["analyze", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"


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
        ["simulate", "{config}"],
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


def test_simulate_m_one_writes_the_library_csv(tmp_path, capsys):
    # every default procedure, lsl included, runs on one p-value
    cfg = {"m": 1, "pi0": 0.8, "mu": 1.0, "J": 5, "seed": 1}
    path, out = tmp_path / "cfg.json", tmp_path / "m.csv"
    path.write_text(json.dumps(cfg))
    assert run_cli(["simulate", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == _expected_csv(cfg, tmp_path / "expected.csv")


@pytest.mark.parametrize("mu, shown", [("NaN", "nan"), ("[1.0, Infinity]", "inf")])
def test_simulate_rejects_a_non_finite_mu(tmp_path, capsys, mu, shown):
    # Python's json reads the NaN and Infinity literals as floats
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"m": 10, "pi0": 0.5, "mu": {mu}, "J": 2, "seed": 1}}')
    code = run_cli(["simulate", str(path), "--out", str(tmp_path / "m.csv")])
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"dynfdr simulate: error: config rejected: mu={shown} outside [0, inf)"
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
    # ScenarioConfig and BlockAR check the values, so the message names J as n_reps
    name = "n_reps" if field == "J" else field
    bad = value[-1] if isinstance(value, list) else value  # the list's one bad entry is its last
    kind = "an integer" if field in ("J", "m", "seed", "block_size") else "a number"
    message = f"config rejected: {name}={bad!r} is not {kind}"
    assert capsys.readouterr().err.splitlines()[-1] == f"dynfdr simulate: error: {message}"
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"dependence": 5}, "dependence=5 is not an object with a 'type'"),
        ({"dependence": {"rho": 0.5}}, "dependence={'rho': 0.5} is not an object with a 'type'"),
        ({"dependence": {"type": "garch"}}, "dependence type 'garch' is not 'block_ar'"),
        ({"dependence": {"type": "block_ar", "rho": 0.5}}, "missing field 'dependence.block_size'"),
        ({"dependence": {"type": "block_ar", "block_size": 10}}, "missing field 'dependence.rho'"),
        ({"dependence": {"type": "block_ar", "block_size": 10, "rho": 1.0}}, "rho=1.0 outside (-1, 1)"),
        ({"dependence": {"type": "block_ar", "block_size": 0, "rho": 0.5}}, "block_size=0 must be >= 1"),
        ({"kappa": None}, "kappa=None is not a number"),  # null is no number, though ScenarioConfig(kappa=None) means alpha
        ({"dependance": {"type": "block_ar", "block_size": 10, "rho": 0.5}}, "unknown field 'dependance'"),
        ({"dependence": {"type": "block_ar", "block_size": 10, "rho": 0.5, "size": 3}}, "unknown field 'dependence.size'"),
        ({"dependence": {"type": "indep"}}, "dependence type 'indep' is not 'block_ar'"),
        ({"dependence": {"type": "ar", "block_size": 10, "rho": 0.5}}, "dependence type 'ar' is not 'block_ar'"),
        ({"dependence": {"type": "independent", "block_size": -4, "rho": "x"}}, "dependence type 'independent' is not 'block_ar'"),
        # independent noise is spelt one way: leave dependence out, or null
        ({"dependence": {"type": "independent"}}, "dependence type 'independent' is not 'block_ar'"),
        ({"dependence": {"type": ["block_ar"], "block_size": 10, "rho": 0.5}}, "dependence type ['block_ar'] is not 'block_ar'"),
    ],
    ids=[
        "not-object", "no-type", "unknown-type", "no-block-size", "no-rho", "rho-1", "block-size-0", "kappa-null",
        "misspelt-key", "unknown-dependence-key", "alias-indep", "alias-ar", "independent-with-fields", "independent",
        "type-not-a-string",
    ],
)
def test_simulate_rejects_a_bad_dependence_or_kappa(tmp_path, capsys, change, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"m": 20, "pi0": 0.8, "mu": 1.0, "J": 2, "seed": 1, **change}))
    code = run_cli(["simulate", str(path), "--out", str(tmp_path / "m.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage: dynfdr simulate ") and err.count("error:") == 1
    assert err.splitlines()[-1] == f"dynfdr simulate: error: config rejected: {message}"
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("procedures", [[1], "bh", [], ["bh", None]], ids=["int", "str", "empty", "mixed"])
def test_simulate_procedures_must_be_a_list_of_specs(tmp_path, capsys, procedures):
    # a str would otherwise run one spec per character, an int end in a traceback, [] run only orc
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"m": 20, "pi0": 0.8, "mu": 1.0, "J": 2, "seed": 1, "procedures": procedures}))
    code = run_cli(["simulate", str(path), "--out", str(tmp_path / "m.csv")])
    assert code == 2
    message = f"config field 'procedures' must be a nonempty list of procedure specs, got {procedures!r}"
    assert capsys.readouterr().err.splitlines()[-1] == f"dynfdr simulate: error: {message}"
    assert not (tmp_path / "m.csv").exists()


def test_simulate_takes_its_procedures_from_the_config_alone(sim_config, tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["simulate", "--help"])
    assert "--procedures" not in capsys.readouterr().out
    assert run_cli(["simulate", str(sim_config), "--procedures", "bh", "--out", str(tmp_path / "m.csv")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "dynfdr: error: unrecognized arguments: --procedures bh"
    # specs that strip to nothing leave no procedure to run
    sim_config.write_text(json.dumps({"m": 20, "pi0": 0.8, "mu": 1.0, "J": 2, "seed": 1, "procedures": [" ", ""]}))
    assert run_cli(["simulate", str(sim_config), "--out", str(tmp_path / "m.csv")]) == 2
    message = "config field 'procedures' must be a nonempty list of procedure specs, got []"
    assert capsys.readouterr().err.splitlines()[-1] == f"dynfdr simulate: error: {message}"
    assert not (tmp_path / "m.csv").exists()


def test_simulate_rejects_a_config_without_true_nulls(tmp_path, capsys):
    # m0 = round(0.04 * 10) = 0: the oracle, which simulate always runs, has no null proportion to use
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"m": 10, "pi0": 0.04, "mu": 1.0, "J": 2, "seed": 1, "procedures": ["bh"]}))
    assert run_cli(["simulate", str(path), "--out", str(tmp_path / "m.csv")]) == 2
    message = "config rejected: m=10, pi0=0.04 give m0 = round(pi0 * m) = 0 true nulls"
    assert capsys.readouterr().err.splitlines()[-1] == f"dynfdr simulate: error: {message}"


def test_simulate_reports_running_out_of_memory_as_one_error_line(tmp_path, capsys):
    # 8 PB per row of noise: beyond any user address space, so numpy refuses it at once
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"m": 10**15, "pi0": 0.8, "mu": 1.0, "J": 1, "seed": 1, "procedures": ["bh"]}))
    assert run_cli(["simulate", str(path), "--out", str(tmp_path / "m.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert not (tmp_path / "m.csv").exists()


def test_simulate_checks_out_before_the_study(sim_config, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        pytest.fail("the study ran before --out was found unwritable")

    monkeypatch.setattr(cli, "run_experiment", fail)
    out = tmp_path / "missing" / "m.csv"
    assert run_cli(["simulate", str(sim_config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"


def test_simulate_leaves_no_out_file_when_the_study_fails(tmp_path, capsys):
    # m = 3 passes the config checks, then kq:5 fails inside the study
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"m": 3, "pi0": 0.8, "mu": 1.0, "J": 5, "seed": 1, "procedures": ["kq:5"]}))
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("earlier results\n")
    for out in (new, old):
        assert run_cli(["simulate", str(path), "--out", str(out)]) == 2
        assert "config rejected: quantile index k=5 outside 1..3" in capsys.readouterr().err
    assert not new.exists()
    assert old.read_text() == "earlier results\n"


def test_simulate_names_missing_field(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"pi0": 0.8, "mu": 1.0, "J": 5, "seed": 1}))
    code = run_cli(["simulate", str(path)])
    assert code == 2
    assert "'m'" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["m", "pi0", "mu", "J", "seed"])
def test_simulate_missing_field_is_one_error_line(tmp_path, capsys, name):
    config = {"m": 20, "pi0": 0.8, "mu": 1.0, "J": 2, "seed": 1}
    del config[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run_cli(["simulate", str(path), "--out", str(tmp_path / "m.csv")]) == 2
    message = f"config rejected: missing field {name!r}"
    assert capsys.readouterr().err.splitlines()[-1] == f"dynfdr simulate: error: {message}"


def test_simulate_strips_config_specs_as_it_strips_the_flag(tmp_path, capsys):
    # "orc " is the oracle simulate always runs, and " rb20" the rb20 before it: one block each
    outs = []
    for procedures in (["orc ", "rb20", " rb20"], ["orc", "rb20"]):
        path, out = tmp_path / "cfg.json", tmp_path / f"m{len(outs)}.csv"
        path.write_text(json.dumps({"m": 50, "pi0": 0.8, "mu": 1.0, "J": 5, "seed": 3, "procedures": procedures}))
        assert run_cli(["simulate", str(path), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 1 + 2 * 5


def test_simulate_runs_the_readme_config(tmp_path, capsys):
    # the documented example holds only keys simulate accepts; J shrunk so it runs in a test
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    config = json.loads(block)
    config["J"] = 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run_cli(["simulate", str(path), "--out", str(tmp_path / "m.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_simulate_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    code = run_cli(["simulate", str(path)])
    assert code == 2
    assert "JSON" in capsys.readouterr().err


def test_simulate_config_that_is_no_json_object_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[1]")
    code = run_cli(["simulate", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("error:") == 1
    assert err.splitlines()[-1] == "dynfdr simulate: error: config must be a JSON object"


def test_simulate_unreadable_config_is_one_error_line(tmp_path, capsys):
    code = run_cli(["simulate", str(tmp_path), "--out", str(tmp_path / "m.csv")])  # a directory
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot read {tmp_path}: ") and err.count("\n") == 1
    assert not (tmp_path / "m.csv").exists()


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


MISSING = object()  # leaves the key out of the config
# field: (valid values, invalid ones: missing, null, wrong type, out of range); m0 = round(pi0 m) >= 1 at every valid m
CONFIG_FIELDS = {
    "m": ([2, 20, 50], [MISSING, None, "20", 2.0, True, 0, -3]),
    "pi0": ([0.5, 0.8, 1], [MISSING, None, "0.8", True, 0.0, 1.5, -0.1]),
    "mu": ([0, 1.0, [1.0, 2.5]], [MISSING, None, "1", True, {}, -1.0, [], [1.0, "2"]]),
    "J": ([1, 2, 3], [MISSING, None, "2", 2.0, 0]),
    "seed": ([0, 7], [MISSING, None, "1", 1.5, True, -1]),
    "alpha": ([MISSING, 0.1], [None, "0.05", True, 0, 1.0]),
    "kappa": ([MISSING, 0.2], [None, "0.05", 0.0, 1]),
    "signal_placement": ([MISSING, "head", "random"], [None, 1, "middle"]),
    "procedures": ([MISSING, ["bh"], ["lsl", "rb20q", "kq:median"]], [None, "bh", [1], [], ["zz"]]),
    "dependence": ([MISSING, None], [5, "block_ar", [], {"type": "independent"}, {"type": "independent", "block_size": 10}]),
}
DEPENDENCE_FIELDS = {
    "type": (["block_ar"], [MISSING, None, 5, "garch", "blockar"]),
    "block_size": ([1, 10, 60], [MISSING, None, "10", 2.5, True, 0]),
    "rho": ([-0.9, 0, 0.5], [MISSING, None, "0.5", True, 1.0, -1]),
}
EXTRA_KEYS = ["dependance", "procedure", "J "]


def _fill(draw, fields, bad):
    """A config object: each field a valid value, except ``bad``, which gets an invalid one."""
    values = {name: draw(st.sampled_from(invalid if name == bad else valid)) for name, (valid, invalid) in fields.items()}
    return {name: value for name, value in values.items() if value is not MISSING}


@st.composite
def simulate_configs(draw):
    """A simulate config and whether it is valid: at most one field, nested ones included, or one extra key is bad."""
    bad = st.sampled_from(["extra", "dependence.extra", *CONFIG_FIELDS, *DEPENDENCE_FIELDS])
    where = draw(bad) if draw(st.booleans()) else "none"
    cfg = _fill(draw, CONFIG_FIELDS, where)
    if where in DEPENDENCE_FIELDS or where == "dependence.extra" or (where != "dependence" and draw(st.booleans())):
        cfg["dependence"] = _fill(draw, DEPENDENCE_FIELDS, where)
    if where.endswith("extra"):
        target = cfg["dependence"] if where == "dependence.extra" else cfg
        target[draw(st.sampled_from(EXTRA_KEYS))] = 1
    return cfg, where == "none"


def _expected_csv(cfg, path):
    """The CSV the library writes for a valid config, built without the CLI."""
    dep = cfg.get("dependence")
    block = BlockAR(dep["block_size"], dep["rho"]) if dep else None
    rows = []
    for i, mu in enumerate(cfg["mu"] if isinstance(cfg["mu"], list) else [cfg["mu"]]):
        scenario = ScenarioConfig(
            m=cfg["m"], pi0=cfg["pi0"], mu=mu, n_reps=cfg["J"], seed=cfg["seed"] + i, alpha=cfg.get("alpha", 0.05),
            kappa=cfg.get("kappa"), dependence=block, signal_placement=cfg.get("signal_placement", "head"),
        )
        rows.extend(run_experiment(scenario, cfg.get("procedures", DEFAULT_PROCEDURES)))
    emit_figure_data(rows, path)
    return Path(path).read_bytes()


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(simulate_configs())
@example(({"m": 20, "pi0": 0.8, "mu": 1.0, "J": 2, "seed": 1, "procedures": ["rb:0.1:0.1:0.9"]}, False))
@example(({"m": 50, "pi0": 0.8, "mu": [1.0, 2.0, 4.0], "J": 3, "seed": 20260808, "dependence": None}, True))
def test_simulate_config_error_contract(case):
    # every config ends in the CSV the library writes, or in one error line and no file; never a traceback
    cfg, valid = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "m.csv"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli(["simulate", str(path), "--out", str(out)])
        err = err.getvalue()
        assert code == (0 if valid else 2), err
        if valid:
            assert err == "" and out.read_bytes() == _expected_csv(cfg, Path(tmp) / "expected.csv")
        else:
            assert err.startswith("usage: dynfdr simulate ") and err.count("error:") == 1 and "Traceback" not in err
            assert not out.exists()


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
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("dynfdr verify: error: argument suite: invalid choice: 'nonsense'"), last
    # the choices list the suites in report order, then all
    assert re.search(r"lemma2\W+supermartingale\W+fdr-control\W+conservative\W+all\W*\)$", last), last


# field: (valid values, invalid ones); a --reps above 3 is never drawn, as a valid 10**15 would run for ever
VERIFY_FIELDS = {
    "suite": (["lemma2", "fdr-control", "conservative"], ["nonsense"]),
    "--seed": (["0", str(10**30)], ["-1", "1e3", "", "x"]),
    "--reps": (["2", "3"], ["0", "1", "-1", "2.0", "x"]),
}


@st.composite
def verify_argvs(draw):
    """A verify argv and whether it is a usage error: any subset of the fields is bad, and --out is any of four kinds."""
    bad = draw(st.sets(st.sampled_from(list(VERIFY_FIELDS))))
    values = {name: draw(st.sampled_from(invalid if name in bad else valid)) for name, (valid, invalid) in VERIFY_FIELDS.items()}
    argv = ["verify", values.pop("suite"), *(arg for item in values.items() for arg in item)]
    return argv, bool(bad), draw(st.sampled_from([None, "fresh", "directory", "missing"]))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(verify_argvs())
def test_verify_error_contract(case):
    # every argv ends in a report, exit 1 only on a FAIL line, or in one error line and no file; never a traceback
    argv, usage_error, out_kind = case
    with tempfile.TemporaryDirectory() as tmp:
        out = {None: None, "fresh": Path(tmp) / "r.csv", "directory": Path(tmp), "missing": Path(tmp) / "no" / "r.csv"}[out_kind]
        argv = argv + ([] if out is None else ["--out", str(out)])
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_cli(argv)
        stdout, stderr = stdout.getvalue(), stderr.getvalue()
        assert code in (0, 1, 2) and "Traceback" not in stderr, (argv, stderr)
        assert (code == 2) == usage_error, (argv, stderr)
        if code == 2:
            assert stdout == "" and stderr.startswith("usage: dynfdr verify ") and stderr.count("error:") == 1
            assert stderr.splitlines()[-1].startswith("dynfdr verify: error: "), stderr
            assert out is None or not out.is_file()
        elif out_kind in ("directory", "missing"):
            assert code == 1 and stdout == "" and stderr.startswith(f"error: cannot write {out}: ") and stderr.count("\n") == 1
        else:
            lines = stdout.splitlines()
            if out is not None:
                assert lines.pop() == f"wrote {out}"
            n_checks, n_failed = map(int, re.fullmatch(r"(\d+) checks, (\d+) failed", lines[-1]).groups())
            assert stderr == "" and code == (1 if n_failed else 0)
            assert sum(line.startswith("FAIL ") for line in lines) == n_failed
            assert out is None or len(out.read_text().splitlines()) == 1 + n_checks


@pytest.mark.parametrize(
    "argv, code", [(["verify", "lemma2"], 0), (["verify", "nonsense"], 2), (["analyze", "missing.txt"], 1)]
)
def test_console_entry_exits_with_the_code_of_main(tmp_path, monkeypatch, capsys, argv, code):
    # the installed dynfdr script calls console_entry, which reads sys.argv
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["dynfdr", *argv])
    with pytest.raises(SystemExit) as raised:
        cli.console_entry()
    assert raised.value.code == code
    err = capsys.readouterr().err
    assert err.count("error:") == (code != 0)
    if code == 1:
        assert err.startswith("error: cannot read missing.txt: ") and err.count("\n") == 1


def test_import_cli_does_not_load_scipy():
    # dynfdr needs only numpy at run time, the simulated p-values included
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys, dynfdr.cli\n"
        "assert 'scipy' not in sys.modules, 'import dynfdr.cli loaded scipy'\n"
        "from dynfdr.simulate import BlockAR, ScenarioConfig, generate_statistics, run_experiment\n"
        "cfg = ScenarioConfig(m=200, pi0=0.8, mu=2.0, n_reps=3, seed=1, dependence=BlockAR(50, -0.9))\n"
        "generate_statistics(cfg, 0)\n"
        "run_experiment(cfg)\n"
        "assert 'scipy' not in sys.modules, 'the Monte Carlo path loaded scipy'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
