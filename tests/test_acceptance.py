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

from dynfdr import cli, sort_pvalues, threshold_functional
from dynfdr.simulate import BlockAR, ScenarioConfig, mean_se, replications, run_experiment
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
    results = lemma2_exact_check()
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in results) and elapsed < 1.0
    report(
        "criterion 7 (exact binomial reciprocal-moment bound)",
        ok,
        f"{len(results)} (n, p) pairs in {elapsed:.3f}s",
    )


def test_criterion_08_supermartingale():
    results = supermartingale_check(SEED)
    checked = [r for r in results if not r.detail.startswith("skipped")]
    ok = all(r.passed for r in checked)
    report("criterion 8 (supermartingale inequality per stratum)", ok, f"{len(checked)} strata checked")


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
    estimates = dict(zip(rules, np.stack([rec[3] for _, rec in replications(cfg, rules)], axis=-1)))
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


# the paper's power claim: m=1000, pi0=0.8, J=1000, under independence and mild block-AR dependence
POWER_SPECS = ("fixed:0.5", "rb20", "lsl", "rb20q", "kq:median", "orc")
POWER_DEPENDENCE = {"indep": None, "ar50rho0.5": BlockAR(50, 0.5), "ar10rho0.9": BlockAR(10, 0.9), "ar50rho0.9": BlockAR(50, 0.9)}


@pytest.fixture(scope="module")
def power_runs():
    """Per (dependence, mu): each spec's per-replication FDP and power, from ``simulate.replications``."""
    runs = {}
    for offset, (dep, mu) in enumerate((d, mu) for d in POWER_DEPENDENCE for mu in (1.0, 2.0)):
        cfg = ScenarioConfig(
            m=1000, pi0=0.8, mu=mu, n_reps=1000, seed=SEED + 6 + offset, dependence=POWER_DEPENDENCE[dep]
        )
        fdp, power, _, _ = np.stack([rec for _, rec in replications(cfg, POWER_SPECS)], axis=-1)
        runs[dep, mu] = dict(zip(POWER_SPECS, fdp)), dict(zip(POWER_SPECS, power))
    return runs


def _paired_z(power, a, b):
    """The paired mean of power[a] - power[b] in units of its paired standard error."""
    mean, se = mean_se(power[a] - power[b])
    return mean / se


def test_criterion_12_right_boundary_out_powers_lowest_slope(power_runs):
    ok = True
    detail = []
    for (dep, mu), (_, power) in power_runs.items():
        z = _paired_z(power, "rb20", "lsl")
        if dep != "ar50rho0.9":  # criterion 13's extra setting: its margin is reported, not asserted
            ok = ok and z >= 3.0
        others = ", ".join(f"{s} {_paired_z(power, 'rb20', s):+.1f}" for s in ("rb20q", "kq:median", "fixed:0.5"))
        detail.append(f"{dep}@mu={mu:g}: rb20-lsl {z:+.1f} SE (rb20 minus {others} SE)")
    report("criterion 12 (rb20 out-powers lsl by 3 paired SE)", ok, "; ".join(detail))


def test_criterion_13_fdr_control_under_mild_dependence(power_runs):
    ok = True
    detail = []
    for (dep, mu), (fdp, _) in power_runs.items():
        if not dep.startswith("ar50"):
            continue
        for s in ADAPTIVE:
            mean, se = mean_se(fdp[s])
            ok = ok and mean <= ALPHA + 3.0 * se
            detail.append(f"{s}@{dep},mu={mu:g}:{(mean - ALPHA) / se:+.1f}SE")
    report("criterion 13 (FDR <= alpha + 3 SE under block-AR(50, 0.5 and 0.9))", ok, " ".join(detail))


def test_criterion_14_right_boundary_out_powers_at_half_nulls():
    # the power map's strongest independent cell: pi0 = 0.5, mu = 2, where rb20 also beats kq:median;
    # and the same cell under the mild block-AR(50, 0.5) dependence
    specs = ("fixed:0.5", "rb20", "lsl", "kq:median", "rb20q")
    ok = True
    detail = []
    for offset, (dep, dependence) in enumerate((("indep", None), ("ar50rho0.5", BlockAR(50, 0.5)))):
        cfg = ScenarioConfig(m=1000, pi0=0.5, mu=2.0, n_reps=200, seed=SEED + 14 + offset, dependence=dependence)
        fdp, power, _, _ = np.stack([rec for _, rec in replications(cfg, specs)], axis=-1)
        fdp, power = dict(zip(specs, fdp)), dict(zip(specs, power))
        z = {s: _paired_z(power, "rb20", s) for s in ("lsl", "kq:median")}
        ok = ok and all(v >= 3.0 for v in z.values())
        detail.extend(f"{dep}: rb20-{s} {v:+.1f} SE" for s, v in z.items())
        for s in specs:
            mean, se = mean_se(fdp[s])
            ok = ok and mean <= ALPHA + 3.0 * se
            detail.append(f"{dep}: {s} FDR {(mean - ALPHA) / se:+.1f}SE")
    criterion = "criterion 14 (rb20 out-powers lsl and kq:median by 3 paired SE at pi0=0.5, mu=2, independent and block-AR(50, 0.5))"
    report(criterion, ok, "; ".join(detail))
