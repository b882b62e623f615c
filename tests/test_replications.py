"""The one replication loop against the written-out oracle loop in conftest."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from conftest import replication_records, row
from dynfdr.simulate import BlockAR, ScenarioConfig, emit_figure_data, replications, run_experiment
from dynfdr.verify import conservative_estimation_check, fdr_control_check

SPECS = ("bh", "orc", "fixed:0.5", "rb20", "lsl", "rb20q")
CONFIGS = {
    "independent": ScenarioConfig(m=120, pi0=0.75, mu=2.0, n_reps=25, seed=401),
    "block-ar": ScenarioConfig(
        m=120, pi0=0.75, mu=2.0, n_reps=25, seed=402, dependence=BlockAR(40, -0.9)
    ),
    # m0 = round(3.5) = 4 labels drawn at random places: orc runs at 4/7, the labels' share
    "random-m7": ScenarioConfig(m=7, pi0=0.5, mu=2.0, n_reps=25, seed=406, signal_placement="random"),
}


def close(x):
    return pytest.approx(x, rel=1e-12, abs=1e-15, nan_ok=True)


def mean_se(x):
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(len(x)))


@pytest.mark.parametrize("name", CONFIGS)
def test_kernel_records_equal_oracle_loop_bit_for_bit(name):
    cfg = CONFIGS[name]
    expected, _ = replication_records(cfg, SPECS)
    n = 0
    for j, (proc, rec) in enumerate(replications(cfg, SPECS)):
        assert proc.m == cfg.m and rec.shape == (4, len(SPECS))
        for i, s in enumerate(SPECS):
            np.testing.assert_array_equal(rec[:, i], expected[s][j])
        n += 1
    assert n == cfg.n_reps


@pytest.mark.parametrize("name", CONFIGS)
def test_aggregates_equal_oracle_derived_numbers(name):
    cfg = CONFIGS[name]
    rules = ("fixed:0.5", "rb20", "lsl")
    records, _ = replication_records(cfg, (*rules, "bh", "orc"))
    fdp = {s: r[:, 0] for s, r in records.items()}
    power = {s: r[:, 1] for s, r in records.items()}

    table = run_experiment(cfg, (*rules, "bh"))
    for s in (*rules, "bh"):
        got = row(table, s)
        assert (got.realized_fdr, got.fdr_se) == close(mean_se(fdp[s]))
        corrected, corrected_se = mean_se(fdp[s] - fdp["orc"])
        assert (got.corrected_fdr, got.corrected_fdr_se) == close((corrected + cfg.alpha, corrected_se))
        assert got.relative_power == close(power[s].mean() / power["orc"].mean())
        m0_hat = records[s][:, 3] * cfg.m
        assert (got.mse_m0, got.mse_m0_se) == close(mean_se((m0_hat - cfg.m0) ** 2))
        if s != "bh":
            assert (got.mean_lambda, got.mean_lambda_se) == close(mean_se(records[s][:, 2]))


def test_suite_checks_equal_oracle_derived_numbers():
    # the fdr-control and conservative suites at their own scenario (m = 1000, pi0 = 0.8, mu = 2 and 1), few reps
    seed, reps = 405, 50
    rules = ("fixed:0.5", "rb20", "lsl", "rb20q")  # the simulation study's dynamic procedures, in its order
    cfg = ScenarioConfig(m=1000, pi0=0.8, mu=2.0, n_reps=reps, seed=seed)
    records, v_kappa = replication_records(cfg, (*rules, "bh", "orc"))
    fdp = {s: r[:, 0] for s, r in records.items()}
    checks = fdr_control_check(seed, reps)
    assert [r.check for r in checks] == [
        *(f"{kind}[{s}]" for s in rules for kind in ("fdr-control", "fdr-bound")),
        "fdr-calibration[bh]",
        "fdr-calibration[orc]",
    ]
    checks = {r.check: r for r in checks}
    for s in rules:
        mean, se = mean_se(fdp[s])
        got = checks[f"fdr-control[{s}]"]
        assert (got.statistic, got.tolerance) == close((mean, 3 * se))
        bound_rhs = (cfg.alpha / cfg.kappa) * v_kappa / (cfg.m * records[s][:, 3])
        mean, se = mean_se(fdp[s] - bound_rhs)
        got = checks[f"fdr-bound[{s}]"]
        assert (got.statistic, got.tolerance) == close((mean, 3 * se))
    for s, target in (("bh", 0.8 * cfg.alpha), ("orc", cfg.alpha)):
        mean, se = mean_se(fdp[s])
        got = checks[f"fdr-calibration[{s}]"]
        assert (got.statistic, got.tolerance) == close((mean, 3 * se))
        assert got.bound == pytest.approx(target, rel=1e-15)

    cfg = ScenarioConfig(m=1000, pi0=0.8, mu=1.0, n_reps=reps, seed=seed)
    records, _ = replication_records(cfg, rules)
    checks = conservative_estimation_check(seed, reps)
    assert [r.check for r in checks] == [f"conservative-pi0[{s}]" for s in rules]
    for got, s in zip(checks, rules):
        mean, se = mean_se(records[s][:, 3])
        assert (got.statistic, got.tolerance) == close((mean, 3 * se))
        assert got.passed == (mean >= cfg.pi0 - 3 * se)


def test_no_false_nulls_gives_zero_power_and_undefined_relative_power(tmp_path):
    # relative power is undefined without false nulls: nan, except the oracle's anchor 1.0
    cfg = ScenarioConfig(m=100, pi0=1.0, mu=2.0, n_reps=20, seed=403)
    specs = ("bh", "orc", "rb20", "lsl")
    for _, rec in replications(cfg, specs):
        assert (rec[1] == 0.0).all()
    table = run_experiment(cfg, specs)
    for r in table:
        if r.procedure == "orc":
            assert r.relative_power == 1.0
        else:
            assert math.isnan(r.relative_power)
    out = tmp_path / "null.csv"
    emit_figure_data(table, out)
    rel = {r[1]: r[3:] for r in (line.split(",") for line in out.read_text().splitlines()) if r[2] == "rel_power"}
    assert rel == {"bh": ["nan", "nan"], "orc": ["1", "0"], "rb20": ["nan", "nan"], "lsl": ["nan", "nan"]}


def test_one_replication_gives_nan_standard_errors_without_warning():
    cfg = ScenarioConfig(m=100, pi0=0.8, mu=2.0, n_reps=1, seed=404)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fdr = fdr_control_check(seed=404, reps=1)
        conservative = conservative_estimation_check(seed=404, reps=1)
        rb20 = row(run_experiment(cfg, ("rb20",)), "rb20")
    for r in fdr + conservative:
        assert math.isnan(r.tolerance) and not r.passed
    assert math.isnan(rb20.fdr_se) and math.isnan(rb20.relative_power_se)
