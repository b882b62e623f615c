"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); the
test outcome itself carries the same verdict.  Monte Carlo tolerances
are three standard errors estimated from the replications.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from dynfdr import (
    BlockAR,
    ScenarioConfig,
    cli,
    generate_statistics,
    parse_rule_spec,
    run_experiment,
    run_procedure,
    sort_pvalues,
    threshold_functional,
)
from dynfdr.verify import lemma2_exact_check, supermartingale_check

from conftest import brute_force_threshold, naive_rejection_set, row

SEED = 20260808
ALPHA = 0.05
ADAPTIVE = ("fixed:0.5", "rb20", "lsl", "rb20q")
EVERYTHING = ("bh", "orc") + ADAPTIVE


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def independent_runs():
    """The criterion-1 setting: m=1000, pi0=0.8, mu in {1, 2}, J=2000."""
    t0 = time.perf_counter()
    tables = {}
    for offset, mu in enumerate((1.0, 2.0)):
        cfg = ScenarioConfig(m=1000, pi0=0.8, mu=mu, n_reps=2000, seed=SEED + offset)
        tables[mu] = run_experiment(cfg, EVERYTHING)
    return tables, time.perf_counter() - t0


@pytest.fixture(scope="module")
def saturation_run():
    cfg = ScenarioConfig(m=1000, pi0=0.8, mu=4.0, n_reps=2000, seed=SEED + 2)
    return run_experiment(cfg, EVERYTHING)


@pytest.fixture(scope="module")
def dependent_runs():
    tables = {}
    for offset, mu in enumerate((1.0, 2.0)):
        cfg = ScenarioConfig(
            m=1000,
            pi0=0.8,
            mu=mu,
            n_reps=2000,
            seed=SEED + 3 + offset,
            dependence=BlockAR(block_size=50, rho=-0.9),
        )
        tables[mu] = run_experiment(cfg, EVERYTHING)
    return tables


def test_criterion_01_dynamic_procedures_control_fdr(independent_runs):
    tables, elapsed = independent_runs
    worst = ""
    ok = True
    for mu, table in tables.items():
        for proc in ADAPTIVE:
            r = row(table, proc)
            limit = ALPHA + 3.0 * r.fdr_se
            if r.realized_fdr > limit:
                ok = False
            worst += f" {proc}@mu={mu:g}:{r.realized_fdr:.4f}<={limit:.4f}"
    ok = ok and elapsed < 120.0
    report("criterion 1 (finite-sample FDR control)", ok, f"runtime {elapsed:.1f}s;{worst}")


def test_criterion_02_baseline_calibration(independent_runs):
    tables, _ = independent_runs
    ok = True
    detail = []
    for mu, table in tables.items():
        bh = row(table, "bh")
        orc = row(table, "orc")
        bh_ok = abs(bh.realized_fdr - 0.8 * ALPHA) <= 3.0 * bh.fdr_se
        orc_ok = abs(orc.realized_fdr - ALPHA) <= 3.0 * orc.fdr_se
        ok = ok and bh_ok and orc_ok
        detail.append(
            f"mu={mu:g}: bh {bh.realized_fdr:.4f}~0.04+-{3 * bh.fdr_se:.4f}, "
            f"orc {orc.realized_fdr:.4f}~0.05+-{3 * orc.fdr_se:.4f}"
        )
    report("criterion 2 (BH at pi0*alpha, oracle at alpha)", ok, "; ".join(detail))


def test_criterion_03_power_ordering(independent_runs):
    tables, _ = independent_runs
    table = tables[1.0]
    rb20 = row(table, "rb20").relative_power
    rb20q = row(table, "rb20q").relative_power
    lsl = row(table, "lsl").relative_power
    ok = rb20 >= lsl + 0.01 and rb20q >= lsl + 0.01
    report(
        "criterion 3 (boundary rules out-power lowest-slope)",
        ok,
        f"rb20={rb20:.4f}, rb20q={rb20q:.4f}, lsl={lsl:.4f}",
    )


def test_criterion_04_mse_ordering(independent_runs):
    tables, _ = independent_runs
    table = tables[1.0]
    rb20 = row(table, "rb20").mse_m0
    lsl = row(table, "lsl").mse_m0
    report("criterion 4 (rb20 beats lsl on m0 MSE)", rb20 < lsl, f"rb20={rb20:.0f} < lsl={lsl:.0f}")


def test_criterion_05_full_power_saturation(saturation_run):
    ok = True
    detail = []
    for proc in ADAPTIVE:
        rel = row(saturation_run, proc).relative_power
        ok = ok and rel >= 0.98
        detail.append(f"{proc}={rel:.4f}")
    report("criterion 5 (full power at mu=4)", ok, ", ".join(detail))


def test_criterion_06_dependent_control(dependent_runs):
    ok = True
    detail = []
    for mu, table in dependent_runs.items():
        for proc in EVERYTHING:
            r = row(table, proc)
            limit = ALPHA + 3.0 * r.fdr_se
            if r.realized_fdr > limit:
                ok = False
                detail.append(f"{proc}@mu={mu:g}:{r.realized_fdr:.4f}>{limit:.4f}")
    report(
        "criterion 6 (control under block-AR dependence)",
        ok,
        "; ".join(detail) if detail else "all procedures below alpha + 3 SE",
    )


def test_criterion_07_binomial_bound_exact():
    t0 = time.perf_counter()
    results = lemma2_exact_check(n_max=60)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in results) and elapsed < 1.0
    report(
        "criterion 7 (exact binomial reciprocal-moment bound)",
        ok,
        f"{len(results)} (n, p) pairs in {elapsed:.3f}s",
    )


def test_criterion_08_supermartingale():
    ok = True
    n_strata = 0
    for m0 in (10, 50):
        for s, t in ((0.2, 0.6), (0.5, 0.9)):
            results = supermartingale_check(m0, s, t, draws=100_000, seed=SEED)
            checked = [r for r in results if not r.detail.startswith("skipped")]
            n_strata += len(checked)
            ok = ok and all(r.passed for r in checked)
    report("criterion 8 (supermartingale inequality per stratum)", ok, f"{n_strata} strata checked")


def test_criterion_09_threshold_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    mismatches = 0
    for _ in range(500):
        m = int(rng.integers(1, 13))
        pvals = np.round(rng.random(m), 3)
        alpha = float(rng.uniform(0.02, 0.3))
        kappa = float(rng.uniform(0.02, 0.4))
        pi0_star = float(rng.uniform(0.05, 2.0))
        proc = sort_pvalues(pvals)
        t_impl = threshold_functional(proc, pi0_star, alpha, kappa)
        t_oracle = brute_force_threshold(pvals, pi0_star, alpha, kappa)
        if naive_rejection_set(pvals, t_impl) != naive_rejection_set(pvals, t_oracle):
            mismatches += 1
    report(
        "criterion 9 (thresholding equals exhaustive sup-oracle)",
        mismatches == 0,
        f"500 instances, {mismatches} rejection-set mismatches",
    )


def test_criterion_10_conservative_under_null():
    cfg = ScenarioConfig(m=1000, pi0=1.0, mu=0.0, n_reps=2000, seed=SEED + 5)
    rules = ADAPTIVE + ("kq:median",)
    estimates = {rule: np.empty(cfg.n_reps) for rule in rules}
    parsed = {rule: parse_rule_spec(rule, cfg.kappa) for rule in rules}
    for j in range(cfg.n_reps):
        proc = generate_statistics(cfg, j)
        for rule in rules:
            estimates[rule][j] = run_procedure(parsed[rule], proc, cfg.alpha, pi0=1.0).pi0.value
    ok = True
    detail = []
    for rule, values in estimates.items():
        mean = values.mean()
        se = values.std(ddof=1) / np.sqrt(values.size)
        ok = ok and mean >= 1.0 - 3.0 * se
        detail.append(f"{rule}={mean:.4f}")
    report("criterion 10 (mean pi0* never undershoots 1)", ok, ", ".join(detail))


def test_criterion_11_cli_determinism(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"m": 200, "pi0": 0.8, "mu": [1.0], "alpha": 0.05, "J": 50, "seed": 17})
    )
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    code1 = cli.main(["simulate", str(config), "--out", str(out1)])
    code2 = cli.main(["simulate", str(config), "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    report("criterion 11 (byte-identical repeated simulation)", ok, f"identical={identical}")
