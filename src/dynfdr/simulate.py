"""Monte Carlo harness: correlated one-sided test statistics, procedure
metrics over replications, and a long-format CSV emitter for the result
panels (realized FDR, power relative to the oracle, log MSE of the
estimated true-null count).

Replication j draws from a substream that is a pure function of
(seed, j), so results do not depend on execution order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .estimators import check_integer, check_open_unit, check_proportion
from .procedures import DEFAULT_PROCEDURES, run_procedure
from .pvalues import EmpiricalProcesses, sort_pvalues
from .selection import parse_rule_spec

__all__ = [
    "BlockAR",
    "ScenarioConfig",
    "MetricsRow",
    "normal_cdf",
    "generate_statistics",
    "run_experiment",
    "emit_figure_data",
]


def normal_cdf(x):
    """Standard normal distribution function (vectorized)."""
    from scipy import special  # imported on first use: only simulated p-values need scipy

    return special.ndtr(x)


@dataclass(frozen=True)
class BlockAR:
    """Within-block AR(1) dependence: corr(Z_i, Z_j) = rho^|i-j|."""

    block_size: int
    rho: float

    def __post_init__(self) -> None:
        block_size = check_integer("block_size", self.block_size)
        if block_size < 1:
            raise ValueError(f"block_size={block_size} must be >= 1")
        object.__setattr__(self, "block_size", block_size)
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho={self.rho} outside (-1, 1)")


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario.

    ``pi0`` is the true-null proportion (m0 = round(pi0 * m)), ``mu`` the
    mean shift of the false-null statistics, ``dependence`` None for
    independent noise or a BlockAR spec.  ``signal_placement`` is "head"
    (false nulls fill the first m1 slots, concentrating signal inside
    blocks) or "random".
    """

    m: int
    pi0: float
    mu: float
    n_reps: int
    seed: int
    alpha: float = 0.05
    kappa: float | None = None
    dependence: BlockAR | None = None
    signal_placement: str = "head"

    def __post_init__(self) -> None:
        for name, low in (("m", 1), ("n_reps", 1), ("seed", 0)):
            value = check_integer(name, getattr(self, name))
            if value < low:
                raise ValueError(f"{name}={value} must be >= {low}")
            object.__setattr__(self, name, value)
        if isinstance(self.pi0, bool):
            raise ValueError(f"pi0={self.pi0!r} is not a number")
        check_proportion("pi0", self.pi0)
        if isinstance(self.mu, bool) or not 0.0 <= self.mu < math.inf:
            raise ValueError(f"mu={self.mu!r} is not a finite number >= 0")
        check_open_unit("alpha", self.alpha)
        kappa = self.alpha if self.kappa is None else self.kappa
        object.__setattr__(self, "kappa", check_open_unit("kappa", kappa))
        if self.signal_placement not in ("head", "random"):
            raise ValueError(f"signal_placement={self.signal_placement!r} not 'head' or 'random'")

    @property
    def m0(self) -> int:
        return int(round(self.pi0 * self.m))

    @property
    def m1(self) -> int:
        return self.m - self.m0

    @property
    def label(self) -> str:
        dep = (
            "indep"
            if self.dependence is None
            else f"ar{self.dependence.block_size}rho{self.dependence.rho:g}"
        )
        return f"m={self.m};pi0={self.pi0:g};mu={self.mu:g};dep={dep}"


def _standard_noise(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    dep = cfg.dependence
    if dep is None:
        return rng.standard_normal(cfg.m)
    b = dep.block_size
    n_blocks = -(-cfg.m // b)
    # one contiguous row per lag, each holding that lag of every block
    z = rng.standard_normal((n_blocks, b)).T.copy()
    z[1:] *= math.sqrt(1.0 - dep.rho * dep.rho)
    rows = list(z)
    for prev, cur in zip(rows, rows[1:]):
        # stationary AR(1) recursion in place: unit marginal variance at every lag
        cur += dep.rho * prev
    return z.T.reshape(-1)[: cfg.m]


def generate_statistics(cfg: ScenarioConfig, replication: int) -> EmpiricalProcesses:
    """Draw one replication: labelled one-sided p-values p_i = 1 - Phi(X_i), sorted.

    True-null statistics are standard normal, false nulls get a +mu mean
    shift.  The replication substream is a pure function of
    (cfg.seed, replication).
    """
    replication = int(replication)
    if replication < 0:
        raise ValueError(f"replication={replication} must be >= 0")
    rng = np.random.default_rng([cfg.seed, replication])
    x = _standard_noise(cfg, rng)
    truth = np.ones(cfg.m, dtype=bool)
    if cfg.m1 > 0:
        if cfg.signal_placement == "head":
            positions = slice(cfg.m1)
        else:
            positions = rng.permutation(cfg.m)[: cfg.m1]
        x[positions] += cfg.mu
        truth[positions] = False
    pvals = normal_cdf(-x)
    return sort_pvalues(pvals, truth)


@dataclass(frozen=True)
class MetricsRow:
    """Aggregated metrics for one (procedure, scenario) pair."""

    scenario: str
    procedure: str
    realized_fdr: float
    fdr_se: float
    corrected_fdr: float
    corrected_fdr_se: float
    relative_power: float
    relative_power_se: float
    mse_m0: float
    mse_m0_se: float
    mean_lambda: float
    mean_lambda_se: float
    mean_pi0: float
    n_reps: int


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    mean = float(x.mean())
    se = float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else float("nan")
    return mean, se


def _ratio_of_means_se(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    am, bm = float(a.mean()), float(b.mean())
    if bm == 0.0:
        return float("nan"), float("nan")
    r = am / bm
    if a.size < 2:
        return r, float("nan")
    n = a.size
    va = float(a.var(ddof=1)) / n
    vb = float(b.var(ddof=1)) / n
    cab = float(np.cov(a, b, ddof=1)[0, 1]) / n
    var_r = (va + r * r * vb - 2.0 * r * cab) / (bm * bm)
    return r, math.sqrt(max(var_r, 0.0))


def _replications(cfg: ScenarioConfig, specs: Sequence[str]):
    """The one replication loop behind ``run_experiment`` and the Monte Carlo checks.

    Parses each spec once, then per replication j, in order: draw the
    sorted sample, run every rule once.  Yields that replication's
    EmpiricalProcesses and a (4, len(specs)) array whose
    rows are FDP = V/(R v 1), power = S/m1 (0 when m1 = 0), the chosen
    lambda and the pi0 used.  ``np.stack(..., axis=-1)`` of the arrays
    gives each quantity as one contiguous series per spec.
    """
    m1 = cfg.m1
    rules = [parse_rule_spec(s, cfg.kappa) for s in specs]
    for j in range(cfg.n_reps):
        proc = generate_statistics(cfg, j)
        rec = []
        for rule in rules:
            res = run_procedure(rule, proc, cfg.alpha, pi0=cfg.pi0)
            n_rej = res.n_rejected
            v = int(np.count_nonzero(proc.truth[res.rejected]))
            power = (n_rej - v) / m1 if m1 > 0 else 0.0
            rec.append((v / max(n_rej, 1), power, res.pi0.lam, res.pi0.value))
        yield proc, np.array(rec).T


def run_experiment(
    cfg: ScenarioConfig, procedures: Sequence[str] = DEFAULT_PROCEDURES
) -> tuple[MetricsRow, ...]:
    """Run every procedure over cfg.n_reps replications and aggregate, one row per procedure.

    The oracle is always run (it anchors the corrected FDR and the power
    ratio); realized FDR is additionally reported with the oracle's
    deviation from alpha subtracted out.  At m1 = 0 power is 0 in every
    replication, so relative power is nan except for the oracle's 1.0.
    Deterministic given (cfg, procedures).
    """
    specs = list(dict.fromkeys(procedures))
    if "orc" not in specs:
        specs.append("orc")
    fdp, power, lam, pi0v = np.stack([rec for _, rec in _replications(cfg, specs)], axis=-1)
    orc = specs.index("orc")

    rows = []
    for i, s in enumerate(specs):
        realized, fdr_se = _mean_se(fdp[i])
        if s == "orc":
            corrected, corrected_se = cfg.alpha, 0.0
            rel, rel_se = 1.0, 0.0
        else:
            corrected, corrected_se = _mean_se(fdp[i] - fdp[orc])
            corrected += cfg.alpha
            rel, rel_se = _ratio_of_means_se(power[i], power[orc])
        mse, mse_se = _mean_se((pi0v[i] * cfg.m - cfg.m0) ** 2)
        if np.isnan(lam[i]).all():
            mean_lam, lam_se = float("nan"), float("nan")
        else:
            mean_lam, lam_se = _mean_se(lam[i])
        rows.append(
            MetricsRow(
                scenario=cfg.label,
                procedure=s,
                realized_fdr=realized,
                fdr_se=fdr_se,
                corrected_fdr=corrected,
                corrected_fdr_se=corrected_se,
                relative_power=rel,
                relative_power_se=rel_se,
                mse_m0=mse,
                mse_m0_se=mse_se,
                mean_lambda=mean_lam,
                mean_lambda_se=lam_se,
                mean_pi0=float(pi0v[i].mean()),
                n_reps=cfg.n_reps,
            )
        )
    return tuple(rows)


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def emit_figure_data(rows: Sequence[MetricsRow], path: str | Path) -> None:
    """Write the rows as long-format CSV: scenario, procedure, metric, value, mc_se.

    Five metric rows per MetricsRow: fdr, corrected_fdr, rel_power,
    log_mse_m0 (natural log), mean_lambda.  Values carry 12 significant
    digits.
    """
    if not rows:
        raise ValueError("no metrics rows, nothing to emit")
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["scenario", "procedure", "metric", "value", "mc_se"])
        for row in rows:
            if row.mse_m0 > 0.0:
                log_mse = math.log(row.mse_m0)
                log_mse_se = row.mse_m0_se / row.mse_m0
            else:
                log_mse, log_mse_se = float("-inf"), float("nan")
            metrics = [
                ("fdr", row.realized_fdr, row.fdr_se),
                ("corrected_fdr", row.corrected_fdr, row.corrected_fdr_se),
                ("rel_power", row.relative_power, row.relative_power_se),
                ("log_mse_m0", log_mse, log_mse_se),
                ("mean_lambda", row.mean_lambda, row.mean_lambda_se),
            ]
            for name, value, se in metrics:
                writer.writerow([row.scenario, row.procedure, name, _fmt(value), _fmt(se)])
