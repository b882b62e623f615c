"""Empirical checks of the finite-sample theory the procedures rest on.

Each check turns one inequality into a numeric comparison with an
explicit tolerance: the exact binomial reciprocal-moment bound, the
supermartingale property of the tail-count process, realized FDR control
of the dynamic procedures (with the bound that drives the proof), and
conservativeness of the selected pi0 estimates.  Monte Carlo checks use
a 3-standard-error tolerance; the binomial check is an exact summation
and fails hard on any violation.

Also home to a from-scratch normal CDF used to cross-check the
production one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .estimators import check_open_unit
from .procedures import run_procedure
from .pvalues import EmpiricalProcesses, sort_pvalues
from .simulate import ScenarioConfig, generate_statistics

__all__ = [
    "CheckResult",
    "reference_normal_cdf",
    "lemma2_exact_check",
    "supermartingale_check",
    "fdr_control_check",
    "conservative_estimation_check",
    "all_passed",
    "format_report",
    "write_report_csv",
    "DEFAULT_RULES",
    "DEFAULT_P_GRID",
]

DEFAULT_RULES = ("fixed:0.5", "rb20", "lsl", "rb20q")
DEFAULT_P_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_SERIES_CUTOFF = 3.0
_CF_DEPTH = 400


@dataclass(frozen=True)
class CheckResult:
    """One verified comparison: statistic vs bound at a stated tolerance."""

    check: str
    statistic: float
    bound: float
    tolerance: float
    passed: bool
    detail: str = ""


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_TWO_PI


def reference_normal_cdf(x: float) -> float:
    """Standard normal CDF built independently of any library routine.

    Power series 1/2 + phi(x) * sum x^(2k+1)/(1*3*...*(2k+1)) below
    |x| = 3, tail continued fraction phi(x)/(x + 1/(x + 2/(x + ...)))
    beyond, both with compensated summation.  Exists so the production
    CDF and this one can certify each other.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("x is NaN")
    ax = abs(x)
    if ax < _SERIES_CUTOFF:
        terms = []
        term = ax
        k = 0
        while term > 1e-22 and k < 500:
            terms.append(term)
            k += 1
            term *= ax * ax / (2 * k + 1)
        half = _phi(ax) * math.fsum(terms)
        return 0.5 + half if x >= 0 else 0.5 - half
    cf = 0.0
    for k in range(_CF_DEPTH, 0, -1):
        cf = k / (ax + cf)
    tail = _phi(ax) / (ax + cf)
    return 1.0 - tail if x >= 0 else tail


def lemma2_exact_check(
    n_max: int = 60, p_grid: Sequence[float] = DEFAULT_P_GRID
) -> list[CheckResult]:
    """Exact check that E[1/(n - X + 1)] <= 1/((n+1)(1-p)) for X ~ BIN(n, p).

    The expectation is an exact finite sum over the binomial pmf, so the
    tolerance only absorbs float rounding (1e-12).
    """
    if not 1 <= n_max <= 60:
        raise ValueError(f"n_max={n_max} outside 1..60 (exact summation cap)")
    results = []
    for n in range(1, n_max + 1):
        weights = [math.comb(n, x) for x in range(n + 1)]
        for p in p_grid:
            p = check_open_unit("p", p)
            expectation = math.fsum(
                w * p**x * (1.0 - p) ** (n - x) / (n - x + 1)
                for x, w in enumerate(weights)
            )
            bound = 1.0 / ((n + 1) * (1.0 - p))
            results.append(
                CheckResult(
                    check=f"lemma2(n={n},p={p:g})",
                    statistic=expectation,
                    bound=bound,
                    tolerance=1e-12,
                    passed=expectation <= bound + 1e-12,
                )
            )
    return results


def supermartingale_check(
    m0: int, s: float, t: float, draws: int = 100_000, seed: int = 0
) -> list[CheckResult]:
    """Monte Carlo check that M(u) = (1-u)/(m0 - V(u) + 1) shrinks in mean.

    Simulates m0 uniform nulls per draw and, within each stratum of the
    observed V(s), compares the stratum mean of M(t) against M(s) plus
    three stratum standard errors.  Strata with fewer than 30 draws are
    skipped but reported.  The terminal value M(1) = 0 is asserted
    exactly.
    """
    if m0 < 1:
        raise ValueError(f"m0={m0} must be >= 1")
    if not 0.0 <= s <= t <= 1.0:
        raise ValueError(f"need 0 <= s <= t <= 1, got s={s}, t={t}")
    if draws < 1:
        raise ValueError(f"draws={draws} must be >= 1")
    rng = np.random.default_rng([seed, m0])
    u = rng.random((draws, m0))
    v_s = (u <= s).sum(axis=1)
    v_t = (u <= t).sum(axis=1)
    m_t = (1.0 - t) / (m0 - v_t + 1.0)

    label = f"supermartingale(m0={m0},s={s:g},t={t:g})"
    terminal = (1.0 - 1.0) / (m0 - m0 + 1.0)
    results = [
        CheckResult(
            check=f"{label}[terminal]",
            statistic=terminal,
            bound=0.0,
            tolerance=0.0,
            passed=terminal == 0.0,
            detail="M(1) = 0 exactly",
        )
    ]
    for v in np.unique(v_s):
        sel = v_s == v
        n = int(sel.sum())
        m_s = (1.0 - s) / (m0 - int(v) + 1.0)
        name = f"{label}[V(s)={int(v)}]"
        if n < 30:
            results.append(
                CheckResult(
                    check=name,
                    statistic=float("nan"),
                    bound=m_s,
                    tolerance=float("nan"),
                    passed=True,
                    detail=f"skipped: only {n} draws",
                )
            )
            continue
        stratum = m_t[sel]
        mean = float(stratum.mean())
        se = float(stratum.std(ddof=1) / math.sqrt(n))
        # 1e-12 absorbs accumulation rounding in the degenerate s == t case
        results.append(
            CheckResult(
                check=name,
                statistic=mean,
                bound=m_s,
                tolerance=3.0 * se,
                passed=mean <= m_s + 3.0 * se + 1e-12,
                detail=f"{n} draws",
            )
        )
    return results


def fdr_control_check(
    cfg: ScenarioConfig, rules: Sequence[str] = DEFAULT_RULES
) -> list[CheckResult]:
    """Realized FDR of the dynamic procedures against the nominal level.

    For each rule asserts mean FDP <= alpha + 3 SE, and additionally that
    mean FDP stays below the bound (alpha/kappa) E[V(kappa)/(m pi0*)],
    estimated on the same replications (paired SE).  Under independent
    noise the baselines are calibrated two-sided: the plain step-up
    procedure at pi0 * alpha and the oracle at alpha.
    """
    alpha, kappa, m, J = cfg.alpha, cfg.kappa, cfg.m, cfg.n_reps
    specs = list(rules)
    fdp = {s: np.empty(J) for s in specs + ["bh", "orc"]}
    bound_rhs = {s: np.empty(J) for s in specs}

    for j in range(J):
        sample = generate_statistics(cfg, j)
        proc = EmpiricalProcesses(sort_pvalues(sample), sample.truth)
        v_kappa = proc.count_V(kappa)
        for s in specs + ["bh", "orc"]:
            res = run_procedure(s, proc, alpha, kappa, pi0=cfg.pi0)
            v = int(np.count_nonzero(sample.truth[res.rejected]))
            fdp[s][j] = v / max(res.n_rejected, 1)
            if s in bound_rhs:
                bound_rhs[s][j] = (alpha / kappa) * v_kappa / (m * res.pi0.value)

    results = []
    for s in specs:
        mean = float(fdp[s].mean())
        se = float(fdp[s].std(ddof=1) / math.sqrt(J))
        results.append(
            CheckResult(
                check=f"fdr-control[{s}]",
                statistic=mean,
                bound=alpha,
                tolerance=3.0 * se,
                passed=mean <= alpha + 3.0 * se,
                detail=f"J={J}",
            )
        )
        diff = fdp[s] - bound_rhs[s]
        dmean = float(diff.mean())
        dse = float(diff.std(ddof=1) / math.sqrt(J))
        results.append(
            CheckResult(
                check=f"fdr-bound[{s}]",
                statistic=dmean,
                bound=0.0,
                tolerance=3.0 * dse,
                passed=dmean <= 3.0 * dse,
                detail="mean FDP minus (alpha/kappa) E[V(kappa)/(m pi0*)]",
            )
        )

    independent = cfg.dependence is None
    for s, target, target_desc in (
        ("bh", cfg.pi0 * alpha, "pi0 * alpha"),
        ("orc", alpha, "alpha"),
    ):
        mean = float(fdp[s].mean())
        se = float(fdp[s].std(ddof=1) / math.sqrt(J))
        if independent:
            results.append(
                CheckResult(
                    check=f"fdr-calibration[{s}]",
                    statistic=mean,
                    bound=target,
                    tolerance=3.0 * se,
                    passed=abs(mean - target) <= 3.0 * se,
                    detail=f"two-sided at {target_desc}",
                )
            )
        else:
            results.append(
                CheckResult(
                    check=f"fdr-control[{s}]",
                    statistic=mean,
                    bound=alpha,
                    tolerance=3.0 * se,
                    passed=mean <= alpha + 3.0 * se,
                    detail="dependent noise: one-sided only",
                )
            )
    return results


def conservative_estimation_check(
    cfg: ScenarioConfig, rules: Sequence[str] = DEFAULT_RULES
) -> list[CheckResult]:
    """Mean selected pi0 estimate must not undershoot the truth.

    For each rule asserts mean pi0*(lambda) >= cfg.pi0 - 3 SE over
    cfg.n_reps replications.
    """
    J = cfg.n_reps
    specs = list(rules)
    pi0s = {s: np.empty(J) for s in specs}
    for j in range(J):
        sample = generate_statistics(cfg, j)
        proc = EmpiricalProcesses(sort_pvalues(sample), sample.truth)
        for s in specs:
            pi0s[s][j] = run_procedure(s, proc, cfg.alpha, cfg.kappa, pi0=cfg.pi0).pi0.value
    results = []
    for s in specs:
        mean = float(pi0s[s].mean())
        se = float(pi0s[s].std(ddof=1) / math.sqrt(J))
        results.append(
            CheckResult(
                check=f"conservative-pi0[{s}]",
                statistic=mean,
                bound=cfg.pi0,
                tolerance=3.0 * se,
                passed=mean >= cfg.pi0 - 3.0 * se,
                detail=f"J={J}",
            )
        )
    return results


def all_passed(results: Sequence[CheckResult]) -> bool:
    return all(r.passed for r in results)


def format_report(results: Sequence[CheckResult]) -> str:
    """Human-readable report, one line per check."""
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if r.detail.startswith("skipped"):
            status = "SKIP"
        lines.append(
            f"{status} {r.check}: statistic={r.statistic:.6g} bound={r.bound:.6g} "
            f"tolerance={r.tolerance:.3g}" + (f" ({r.detail})" if r.detail else "")
        )
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results)} checks, {n_fail} failed")
    return "\n".join(lines)


def write_report_csv(results: Sequence[CheckResult], path: str | Path) -> None:
    """Machine-readable report: check, statistic, bound, tolerance, pass."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["check", "statistic", "bound", "tolerance", "pass", "detail"])
        for r in results:
            writer.writerow(
                [
                    r.check,
                    f"{r.statistic:.12g}",
                    f"{r.bound:.12g}",
                    f"{r.tolerance:.12g}",
                    "pass" if r.passed else "fail",
                    r.detail,
                ]
            )
