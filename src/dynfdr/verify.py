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

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .procedures import DEFAULT_PROCEDURES
from .pvalues import check_integer
from .selection import TWENTY_BIN_GRID
from .simulate import ScenarioConfig, mean_se, replications, write_csv

__all__ = [
    "CheckResult",
    "lemma2_exact_check",
    "supermartingale_check",
    "fdr_control_check",
    "conservative_estimation_check",
    "format_report",
    "write_report_csv",
]

# the rules of the fdr-control and conservative suites: the simulation study's dynamic procedures,
# all but the step-up baselines
_DYNAMIC_RULES = tuple(s for s in DEFAULT_PROCEDURES if s not in ("bh", "orc"))

# the supermartingale suite's table: each m0 is drawn once and checked at every (s, t)
_SUPERMARTINGALE_M0 = (10, 50)
_SUPERMARTINGALE_TIMES = ((0.2, 0.6), (0.5, 0.9))
_SUPERMARTINGALE_DRAWS = 100_000
# uniforms (values, not rows) drawn at a time by supermartingale_check: 256 KB, or one row when m0 is larger
_DRAW_BLOCK = 2**15


@dataclass(frozen=True)
class CheckResult:
    """One verified comparison: statistic vs bound at a stated tolerance."""

    check: str
    statistic: float
    bound: float
    tolerance: float
    passed: bool
    detail: str = ""


def _three_se_check(check: str, x: np.ndarray, bound: float, detail: str, side: str = "upper") -> CheckResult:
    """Mean of ``x`` against ``bound`` at a 3-standard-error tolerance.

    ``side`` "upper" asserts mean <= bound + 3 SE, "lower" mean >=
    bound - 3 SE, "both" |mean - bound| <= 3 SE.  With one draw the SE
    is nan and the check fails.
    """
    mean, se = mean_se(x)
    tol = 3.0 * se
    if side == "upper":
        passed = mean <= bound + tol
    elif side == "lower":
        passed = mean >= bound - tol
    else:
        passed = abs(mean - bound) <= tol
    return CheckResult(check, mean, bound, tol, passed, detail)


def lemma2_exact_check() -> list[CheckResult]:
    """Exact check that E[1/(n - X + 1)] <= 1/((n+1)(1-p)) for X ~ BIN(n, p).

    For n in 1..60 and p on the twenty-bin grid, in that order, the expectation is an
    exact finite sum over the binomial pmf; the tolerance only absorbs float rounding (1e-12).
    """
    results = []
    for n in range(1, 61):
        weights = [math.comb(n, x) for x in range(n + 1)]
        for p in TWENTY_BIN_GRID:
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


def supermartingale_check(seed: int) -> list[CheckResult]:
    """Monte Carlo check that M(u) = (1-u)/(m0 - V(u) + 1) shrinks in mean.

    For each m0 in ``_SUPERMARTINGALE_M0`` simulates ``_SUPERMARTINGALE_DRAWS``
    rows of m0 uniform nulls once, seeded by ``[seed, m0]``, and counts V at
    every s and t of ``_SUPERMARTINGALE_TIMES``.  Then per (s, t), in that
    order, it reports the terminal value M(1) = 0 and, within each stratum
    of the observed V(s), compares the stratum mean of M(t) against M(s)
    plus three stratum standard errors.  Strata with fewer than 30 draws
    are skipped but reported.

    The uniforms are drawn in blocks of whole rows holding at most
    ``_DRAW_BLOCK`` values (at least one row), and each block is reduced
    to its counts at once.  The counts take the smallest unsigned type
    that holds m0 (one byte below 256, two below 65,536), and M(t) is
    formed one stratum at a time, so memory is O(max(_DRAW_BLOCK, m0) +
    draws) bytes rather than O(draws * m0).  The blocks are the rows of
    one (draws, m0) draw, so the results do not depend on the block size.
    """
    seed = check_integer("seed", seed, 0)
    draws = _SUPERMARTINGALE_DRAWS
    points = sorted({u for pair in _SUPERMARTINGALE_TIMES for u in pair})  # each time counted once
    results = []
    for m0 in _SUPERMARTINGALE_M0:
        rng = np.random.default_rng([seed, m0])
        rows = max(1, _DRAW_BLOCK // m0)
        counts = {x: np.empty(draws, dtype=np.min_scalar_type(m0)) for x in points}
        for start in range(0, draws, rows):
            # the generator fills rows in order, so the blocks are the rows of one (draws, m0) draw
            u = rng.random((min(rows, draws - start), m0))
            stop = start + u.shape[0]
            for x, v in counts.items():
                # with out given the sum runs in the counts' type, which holds every count <= m0
                np.sum(u <= x, axis=1, out=v[start:stop])
        for s, t in _SUPERMARTINGALE_TIMES:
            v_s, v_t = counts[s], counts[t]
            label = f"supermartingale(m0={m0},s={s:g},t={t:g})"
            # M(1) = (1 - 1) / (m0 - V(1) + 1) has a zero numerator, so it is 0 whatever V(1) is
            results.append(CheckResult(f"{label}[terminal]", 0.0, 0.0, 0.0, True, "M(1) = 0 exactly"))
            for v in np.unique(v_s):
                sel = v_s == v
                n = int(sel.sum())
                m_s = (1.0 - s) / (m0 - int(v) + 1.0)
                name = f"{label}[V(s)={int(v)}]"
                if n < 30:
                    nan = float("nan")
                    results.append(CheckResult(name, nan, m_s, nan, True, f"skipped: only {n} draws"))
                else:
                    # M(t) of this stratum's draws only; m0 - V(t) is an exact integer in any count type
                    m_t = (1.0 - t) / (m0 - v_t[sel] + 1.0)
                    results.append(_three_se_check(name, m_t, m_s, f"{n} draws"))
    return results


def fdr_control_check(seed: int, reps: int) -> list[CheckResult]:
    """Realized FDR of the dynamic procedures against the nominal level.

    Runs ``reps`` replications seeded by ``seed`` at m = 1000, pi0 = 0.8,
    mu = 2 under independent noise.  For each rule asserts mean FDP <=
    alpha + 3 SE, and additionally that mean FDP stays below the bound
    (alpha/kappa) E[V(kappa)/(m pi0*)], estimated on the same replications
    (paired SE).  The baselines are calibrated two-sided: the plain
    step-up procedure at (m0 / m) * alpha and the oracle at alpha.
    """
    cfg = ScenarioConfig(m=1000, pi0=0.8, mu=2.0, n_reps=reps, seed=seed)
    alpha, kappa = cfg.alpha, cfg.kappa
    specs = [*_DYNAMIC_RULES, "bh", "orc"]
    v_kappa, recs = [], []
    for proc, rec in replications(cfg, specs):
        v_kappa.append(proc.count_V(kappa))
        recs.append(rec)
    fdp, _, _, pi0v = np.stack(recs, axis=-1)
    fdp = dict(zip(specs, fdp))
    bound_rhs = dict(zip(specs, (alpha / kappa) * np.array(v_kappa) / (cfg.m * pi0v)))

    results = []
    for s in _DYNAMIC_RULES:
        results.append(_three_se_check(f"fdr-control[{s}]", fdp[s], alpha, f"J={cfg.n_reps}"))
        detail = "mean FDP minus (alpha/kappa) E[V(kappa)/(m pi0*)]"
        results.append(_three_se_check(f"fdr-bound[{s}]", fdp[s] - bound_rhs[s], 0.0, detail))
    for s, target, target_desc in (("bh", cfg.m0 / cfg.m * alpha, "pi0 * alpha"), ("orc", alpha, "alpha")):
        detail = f"two-sided at {target_desc}"
        results.append(_three_se_check(f"fdr-calibration[{s}]", fdp[s], target, detail, side="both"))
    return results


def conservative_estimation_check(seed: int, reps: int) -> list[CheckResult]:
    """Mean selected pi0 estimate must not undershoot the truth.

    Runs ``reps`` replications seeded by ``seed`` at m = 1000, pi0 = 0.8,
    mu = 1 under independent noise, and for each rule asserts mean
    pi0*(lambda) >= m0 / m - 3 SE.
    """
    cfg = ScenarioConfig(m=1000, pi0=0.8, mu=1.0, n_reps=reps, seed=seed)
    pi0s = np.stack([rec[3] for _, rec in replications(cfg, _DYNAMIC_RULES)], axis=-1)
    return [
        _three_se_check(f"conservative-pi0[{s}]", x, cfg.m0 / cfg.m, f"J={cfg.n_reps}", side="lower")
        for s, x in zip(_DYNAMIC_RULES, pi0s)
    ]


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
    """Machine-readable report, written by ``simulate.write_csv``: check, statistic, bound, tolerance, pass, detail."""
    rows = [(r.check, r.statistic, r.bound, r.tolerance, "pass" if r.passed else "fail", r.detail) for r in results]
    write_csv(path, ("check", "statistic", "bound", "tolerance", "pass", "detail"), rows)
