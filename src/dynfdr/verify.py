"""Empirical checks of the finite-sample theory the procedures rest on.

Each check turns one inequality into a numeric comparison with an
explicit tolerance: the exact binomial reciprocal-moment bound, the
supermartingale property of the tail-count process, realized FDR control
of the dynamic procedures (with the bound that drives the proof), and
conservativeness of the selected pi0 estimates.  Monte Carlo checks use
a 3-standard-error tolerance; the binomial check is an exact summation
and fails hard on any violation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .estimators import check_integer, check_open_unit
from .selection import TWENTY_BIN_GRID
from .simulate import ScenarioConfig, _mean_se, _replications

__all__ = [
    "CheckResult",
    "lemma2_exact_check",
    "supermartingale_check",
    "fdr_control_check",
    "conservative_estimation_check",
    "all_passed",
    "format_report",
    "write_report_csv",
    "DEFAULT_RULES",
]

DEFAULT_RULES = ("fixed:0.5", "rb20", "lsl", "rb20q")

# rows of uniforms drawn at a time by supermartingale_check
_DRAW_BLOCK = 4096


@dataclass(frozen=True)
class CheckResult:
    """One verified comparison: statistic vs bound at a stated tolerance."""

    check: str
    statistic: float
    bound: float
    tolerance: float
    passed: bool
    detail: str = ""


def _three_se_check(
    check: str, x: np.ndarray, bound: float, detail: str, side: str = "upper", slack: float = 0.0
) -> CheckResult:
    """Mean of ``x`` against ``bound`` at a 3-standard-error tolerance.

    ``side`` "upper" asserts mean <= bound + 3 SE (+ ``slack``), "lower"
    mean >= bound - 3 SE, "both" |mean - bound| <= 3 SE.  With one draw
    the SE is nan and the check fails.
    """
    mean, se = _mean_se(x)
    tol = 3.0 * se
    if side == "upper":
        passed = mean <= bound + tol + slack
    elif side == "lower":
        passed = mean >= bound - tol
    else:
        passed = abs(mean - bound) <= tol
    return CheckResult(check, mean, bound, tol, passed, detail)


def lemma2_exact_check(
    n_max: int = 60, p_grid: Sequence[float] = TWENTY_BIN_GRID
) -> list[CheckResult]:
    """Exact check that E[1/(n - X + 1)] <= 1/((n+1)(1-p)) for X ~ BIN(n, p).

    The expectation is an exact finite sum over the binomial pmf, so the
    tolerance only absorbs float rounding (1e-12).
    """
    n_max = check_integer("n_max", n_max)
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

    The uniforms are drawn in blocks of a fixed number of rows and each
    block is reduced to its counts V(s), V(t) at once, so memory is
    O(block * m0 + draws) rather than O(draws * m0).  The blocks are the
    rows of one (draws, m0) draw, so the results do not depend on the
    block size.
    """
    m0 = check_integer("m0", m0, 1)
    draws = check_integer("draws", draws, 1)
    seed = check_integer("seed", seed, 0)
    if not 0.0 <= s <= t <= 1.0:
        raise ValueError(f"need 0 <= s <= t <= 1, got s={s}, t={t}")
    rng = np.random.default_rng([seed, m0])
    v_s = np.empty(draws, dtype=np.int64)
    v_t = np.empty(draws, dtype=np.int64)
    for start in range(0, draws, _DRAW_BLOCK):
        # the generator fills rows in order, so the blocks are the rows of one (draws, m0) draw
        u = rng.random((min(_DRAW_BLOCK, draws - start), m0))
        stop = start + u.shape[0]
        v_s[start:stop] = (u <= s).sum(axis=1)
        v_t[start:stop] = (u <= t).sum(axis=1)
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
        # 1e-12 absorbs accumulation rounding in the degenerate s == t case
        results.append(_three_se_check(name, m_t[sel], m_s, f"{n} draws", slack=1e-12))
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
    alpha, kappa = cfg.alpha, cfg.kappa
    specs = list(dict.fromkeys([*rules, "bh", "orc"]))
    v_kappa, recs = [], []
    for proc, rec in _replications(cfg, specs):
        v_kappa.append(proc.count_V(kappa))
        recs.append(rec)
    fdp, _, _, pi0v = np.stack(recs, axis=-1)
    fdp = dict(zip(specs, fdp))
    bound_rhs = dict(zip(specs, (alpha / kappa) * np.array(v_kappa) / (cfg.m * pi0v)))

    results = []
    for s in rules:
        results.append(_three_se_check(f"fdr-control[{s}]", fdp[s], alpha, f"J={cfg.n_reps}"))
        detail = "mean FDP minus (alpha/kappa) E[V(kappa)/(m pi0*)]"
        results.append(_three_se_check(f"fdr-bound[{s}]", fdp[s] - bound_rhs[s], 0.0, detail))
    for s, target, target_desc in (("bh", cfg.pi0 * alpha, "pi0 * alpha"), ("orc", alpha, "alpha")):
        if cfg.dependence is None:
            detail = f"two-sided at {target_desc}"
            results.append(_three_se_check(f"fdr-calibration[{s}]", fdp[s], target, detail, side="both"))
        else:
            detail = "dependent noise: one-sided only"
            results.append(_three_se_check(f"fdr-control[{s}]", fdp[s], alpha, detail))
    return results


def conservative_estimation_check(
    cfg: ScenarioConfig, rules: Sequence[str] = DEFAULT_RULES
) -> list[CheckResult]:
    """Mean selected pi0 estimate must not undershoot the truth.

    For each rule asserts mean pi0*(lambda) >= cfg.pi0 - 3 SE over
    cfg.n_reps replications.
    """
    specs = list(dict.fromkeys(rules))
    pi0s = dict(zip(specs, np.stack([rec[3] for _, rec in _replications(cfg, specs)], axis=-1)))
    return [
        _three_se_check(f"conservative-pi0[{s}]", pi0s[s], cfg.pi0, f"J={cfg.n_reps}", side="lower")
        for s in rules
    ]


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
