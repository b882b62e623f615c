"""Monte Carlo harness: correlated one-sided test statistics, procedure
metrics over replications, and a long-format CSV emitter for the result
panels (realized FDR, power relative to the oracle, log MSE of the
estimated true-null count).

Replication j draws from a substream that is a pure function of
(seed, j), so results do not depend on execution order.  Replications
are drawn in blocks of up to max(1, floor(8192 / m)) rows, with the AR
recursion and the normal CDF run once per block; each row is bit for bit
the draw of its replication alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .procedures import DEFAULT_PROCEDURES, run_procedure
from .pvalues import EmpiricalProcesses, check_integer, check_number, sort_pvalues
from .selection import parse_rule_spec

__all__ = [
    "BlockAR",
    "ScenarioConfig",
    "MetricsRow",
    "generate_statistics",
    "run_experiment",
    "emit_figure_data",
]


# Cephes ndtr/erf/erfc coefficients, highest power first; a leading 1.0 turns
# Cephes's p1evl (monic) into polevl, since 1.0 * x + c == x + c exactly.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = math.sqrt(0.5)


def _polevl(x, coef):
    ans = coef[0] * x + coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _normal_cdf(a):
    """Standard normal distribution function (vectorized), bit for bit scipy.special.ndtr.

    A numpy port of Cephes ndtr, erf and erfc in their operation order.  exp is libm's, as
    in the compiled original: numpy's complex exp is libm exp(re) * cos(im), and cos(0) is
    exactly 1, whereas the real ``np.exp`` takes a SIMD path that can differ in the last bit.
    """
    a = np.asarray(a, dtype=float)
    x = a.reshape(-1) * _SQRT1_2
    z = np.abs(x)
    in_tail = z >= 1.0
    near, tail = np.flatnonzero(~in_tail), np.flatnonzero(in_tail)  # erf's T/U branch serves |x| < 1 and nan
    w = z[near]
    ww = w * w
    erf_w = w * _polevl(ww, _T) / _polevl(ww, _U)
    y = np.empty_like(z)
    # 0.5 + 0.5 erf(x) below 1/sqrt(2), else 0.5 erfc(|x|) with erfc = 1 - erf below 1
    y[near] = np.where(w < _SQRT1_2, 0.5 + 0.5 * np.copysign(erf_w, x[near]), 0.5 * (1.0 - erf_w))
    zt = np.minimum(z[tail], 27.0)  # keeps z^2 finite; erfc underflows to 0 past z^2 = MAXLOG either way
    zz = zt * zt
    e = np.exp(-zz + 0j).real
    e[zz > _MAXLOG] = 0.0
    erfc = e * _polevl(zt, _P) / _polevl(zt, _Q)
    far = zt >= 8.0
    if far.any():
        erfc[far] = e[far] * _polevl(zt[far], _R) / _polevl(zt[far], _S)
    y[tail] = 0.5 * erfc
    return np.where(x >= _SQRT1_2, 1.0 - y, y).reshape(a.shape)[()]


@dataclass(frozen=True)
class BlockAR:
    """Within-block AR(1) dependence: corr(Z_i, Z_j) = rho^|i-j|."""

    block_size: int
    rho: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "block_size", check_integer("block_size", self.block_size, 1))
        object.__setattr__(self, "rho", check_number("rho", self.rho, "(-1, 1)"))


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
            object.__setattr__(self, name, check_integer(name, getattr(self, name), low))
        for name, within in (("pi0", "(0, 1]"), ("mu", "[0, inf)"), ("alpha", "(0, 1)")):
            object.__setattr__(self, name, check_number(name, getattr(self, name), within))
        if self.m0 == 0:  # the oracle, and every FDR target, needs a true null
            raise ValueError(f"m={self.m}, pi0={self.pi0!r} give m0 = round(pi0 * m) = 0 true nulls")
        object.__setattr__(self, "kappa", check_number("kappa", self.alpha if self.kappa is None else self.kappa, "(0, 1)"))
        if self.dependence is not None and not isinstance(self.dependence, BlockAR):
            raise ValueError(f"dependence={self.dependence!r} is not None or a BlockAR")
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
            else f"ar{self.dependence.block_size}rho{self.dependence.rho:.12g}"
        )
        return f"m={self.m};pi0={self.pi0:.12g};mu={self.mu:.12g};dep={dep}"


def _standard_noise(cfg: ScenarioConfig, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """A (len(rngs), m) array of standard normal noise, row r drawn from ``rngs[r]``.

    Independent, or block-AR(1) within consecutive blocks of ``block_size``;
    a block_size above m is one block of m values, so it draws no more.
    """
    dep = cfg.dependence
    b = cfg.m if dep is None else min(dep.block_size, cfg.m)
    z = np.empty((len(rngs), -(-cfg.m // b), b))
    for r, rng in enumerate(rngs):
        rng.standard_normal(out=z[r])
    if dep is None:
        return z[:, 0]
    # (lag, row, block): one contiguous slice per lag, holding that lag of every block of every row
    z = z.transpose(2, 0, 1).copy()
    z[1:] *= math.sqrt(1.0 - dep.rho * dep.rho)
    lags, scaled = list(z), np.empty_like(z[0])  # one buffer for rho * prev at every lag
    for prev, cur in zip(lags, lags[1:]):
        # stationary AR(1) recursion in place: unit marginal variance at every lag
        cur += np.multiply(prev, dep.rho, out=scaled)
    return z.transpose(1, 2, 0).reshape(len(rngs), -1)[:, : cfg.m]


# Values per drawn block: 8 rows at m = 1000, one row from m = 8193 on.  Per row,
# 8 rows draw ~2.5x faster than one and 16 barely faster than 8; every row more
# adds 9m bytes to the block the cache keeps.
_BLOCK_VALUES = 8192


def _block_rows(cfg: ScenarioConfig) -> int:
    """Replications per drawn block: at most max(1, _BLOCK_VALUES // m), spread evenly over the n_reps,
    so that a run draws fewer than one unused row per block."""
    n_blocks = -(-cfg.n_reps // max(1, _BLOCK_VALUES // cfg.m))
    return -(-cfg.n_reps // n_blocks)


@lru_cache(maxsize=1)
def _draw_block(cfg: ScenarioConfig, first: int) -> tuple[np.ndarray, np.ndarray]:
    """The unsorted p-values and truth labels of replications first, first + 1, ...: read-only (rows, m) arrays.

    Row r is drawn from the substream of replication first + r in the
    one-replication order (noise, then the placement permutation), and
    every step after the draws is elementwise, so each row is bit for bit
    the row that replication drawn alone gives.
    """
    rngs = [np.random.default_rng([cfg.seed, j]) for j in range(first, first + _block_rows(cfg))]
    x = _standard_noise(cfg, rngs)
    truth = np.ones(x.shape, dtype=bool)
    if cfg.signal_placement == "head":
        positions = np.s_[:, : cfg.m1]
    else:
        positions = (np.arange(len(rngs))[:, None], np.array([rng.permutation(cfg.m)[: cfg.m1] for rng in rngs]))
    x[positions] += cfg.mu  # at m1 = 0 the positions are empty
    truth[positions] = False
    pvals = _normal_cdf(-x)
    pvals.flags.writeable = truth.flags.writeable = False
    return pvals, truth


def generate_statistics(cfg: ScenarioConfig, replication: int) -> EmpiricalProcesses:
    """Draw one replication: labelled one-sided p-values p_i = 1 - Phi(X_i), sorted.

    True-null statistics are standard normal, false nulls get a +mu mean
    shift.  The replication substream is a pure function of
    (cfg.seed, replication).  Replications are drawn a block of rows at a
    time, and the last block is kept, so a run over j = 0, 1, ... draws
    each block once.
    """
    replication = check_integer("replication", replication, 0)
    r = replication % _block_rows(cfg)
    pvals, truth = _draw_block(cfg, replication - r)
    return sort_pvalues(pvals[r], truth[r])


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


def mean_se(x: np.ndarray) -> tuple[float, float]:
    """The mean of ``x`` and its standard error, nan for one value (no warning, even for an all-nan ``x``)."""
    mean = float(x.mean())
    se = float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else float("nan")
    return mean, se


def write_csv(path: str | Path, header: Sequence[str], rows) -> None:
    """The one writer of the CSV reports: UTF-8, LF line ends, ``header`` and then ``rows``,
    every cell that is not a str a number written with 12 significant digits (``.12g``)."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else f"{c:.12g}" for c in row] for row in rows)


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


def replications(cfg: ScenarioConfig, specs: Sequence[str]):
    """The one replication loop behind ``run_experiment`` and the Monte Carlo checks.

    Parses each spec once, then per replication j, in order: draw the
    sorted sample, run every rule once (``orc`` at pi0 = m0 / m).  Yields
    that replication's EmpiricalProcesses and a (4, len(specs)) array whose
    rows are FDP = V/(R v 1), power = S/m1 (0 when m1 = 0), the chosen
    lambda and the pi0 used.  ``np.stack(..., axis=-1)`` of the arrays
    gives each quantity as one contiguous series per spec.
    """
    m1, pi0 = cfg.m1, cfg.m0 / cfg.m
    rules = [parse_rule_spec(s, cfg.kappa) for s in specs]
    for j in range(cfg.n_reps):
        proc = generate_statistics(cfg, j)
        rec = []
        for rule in rules:
            res = run_procedure(rule, proc, cfg.alpha, pi0)
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
    specs = list(dict.fromkeys([*procedures, "orc"]))
    fdp, power, lam, pi0v = np.stack([rec for _, rec in replications(cfg, specs)], axis=-1)
    orc = specs.index("orc")

    rows = []
    for i, s in enumerate(specs):
        realized, fdr_se = mean_se(fdp[i])
        if s == "orc":
            corrected, corrected_se = cfg.alpha, 0.0
            rel, rel_se = 1.0, 0.0
        else:
            corrected, corrected_se = mean_se(fdp[i] - fdp[orc])
            corrected += cfg.alpha
            rel, rel_se = _ratio_of_means_se(power[i], power[orc])
        mse, mse_se = mean_se((pi0v[i] * cfg.m - cfg.m0) ** 2)
        mean_lam, lam_se = mean_se(lam[i])  # (nan, nan) for bh and orc, which select no lambda
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
            )
        )
    return tuple(rows)


def emit_figure_data(rows: Sequence[MetricsRow], path: str | Path) -> None:
    """Write the rows as long-format CSV with ``write_csv``: scenario, procedure, metric, value, mc_se.

    Five metric rows per MetricsRow: fdr, corrected_fdr, rel_power,
    log_mse_m0 (natural log), mean_lambda.
    """
    if not rows:
        raise ValueError("no metrics rows, nothing to emit")
    out = []
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
        out += [(row.scenario, row.procedure, name, value, se) for name, value, se in metrics]
    write_csv(path, ("scenario", "procedure", "metric", "value", "mc_se"), out)
