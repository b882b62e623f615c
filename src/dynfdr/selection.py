"""Data-driven selection rules for the tuning parameter lambda.

Each rule scans candidates from the left and stops the first time the
pi0 estimate stops improving (decreasing), so the decision at a candidate
depends only on p-value counts at or below it.  That forward-scan
structure is what licenses plugging the selected lambda into the
truncated FDR estimator without losing finite-sample control.

Rules are addressable by compact string specs (``fixed:0.5``, ``rb20``,
``lsl``, ``kq:median``, ``rbq:0.05:0.05:0.95``, ...), which the CLI and
the simulation harness consume.  The step-up baselines ``bh`` and ``orc``
select no lambda but parse through the same function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .estimators import (
    STOREY,
    STOREY_PLUS,
    Pi0Estimate,
    check_open_unit,
    pi0_storey,
    pi0_storey_plus,
)
from .pvalues import EmpiricalProcesses

__all__ = [
    "TWENTY_BIN_GRID",
    "FixedRule",
    "RightBoundaryRule",
    "LowestSlopeRule",
    "KQuantileRule",
    "RightBoundaryQuantileRule",
    "LambdaRule",
    "StepUpRule",
    "evenly_spaced_grid",
    "select_fixed",
    "select_right_boundary",
    "select_lowest_slope",
    "select_k_quantile",
    "select_right_boundary_quantile",
    "parse_rule_spec",
]


def evenly_spaced_grid(start: float = 0.05, step: float = 0.05, stop: float = 0.95) -> tuple[float, ...]:
    """Ascending grid start, start+step, ..., stop with exact decimal points."""
    if step <= 0 or stop < start:
        raise ValueError(f"bad grid spec {start}:{step}:{stop}")
    n = int(round((stop - start) / step)) + 1
    return tuple(round(start + i * step, 12) for i in range(n))


# 19 interior boundaries, i.e. the equal-width 20-bin histogram of (0, 1].
TWENTY_BIN_GRID = evenly_spaced_grid(0.05, 0.05, 0.95)


def _check_kappa(kappa: float) -> float:
    return check_open_unit("kappa", kappa)


def _check_fixed_lambda(lam: float, kappa: float) -> float:
    lam = float(lam)
    if not kappa <= lam < 1.0:
        raise ValueError(f"fixed lambda={lam} outside [kappa={kappa}, 1)")
    return lam


def _check_grid(grid: Sequence[float], what: str) -> tuple[float, ...]:
    vals = tuple(float(g) for g in grid)
    if not vals:
        raise ValueError(f"{what} is empty")
    for a, b in zip(vals, vals[1:]):
        if not a < b:
            raise ValueError(f"{what} must be strictly ascending, got {vals}")
    if not (0.0 < vals[0] and vals[-1] < 1.0):
        raise ValueError(f"{what} entries must lie in (0, 1), got {vals}")
    return vals


def _check_estimator(estimator: str) -> str:
    if estimator not in (STOREY, STOREY_PLUS):
        raise ValueError(f"estimator must be {STOREY!r} or {STOREY_PLUS!r}, got {estimator!r}")
    return estimator


def _grid_spec(grid: tuple[float, ...]) -> str:
    """start:step:stop when that rebuilds the grid exactly, else a comma list."""
    step = round(grid[1] - grid[0], 12) if len(grid) >= 3 else 0.0
    # the length test keeps a tiny step from building a huge candidate grid
    if step > 0 and round((grid[-1] - grid[0]) / step) + 1 == len(grid):
        if evenly_spaced_grid(grid[0], step, grid[-1]) == grid:
            return f"{grid[0]!r}:{step!r}:{grid[-1]!r}"
    return ",".join(map(repr, grid))


# A rule validates its fields at construction, with the same checks its
# select_* function applies to arguments.  ``select(proc)`` runs the rule;
# parse_rule_spec turns ``spec`` back into an equal rule (a spec cannot name
# the comparison variant, so that holds for the default one).


@dataclass(frozen=True)
class FixedRule:
    """Use a pre-chosen lambda; must lie in [kappa, 1)."""

    lam: float
    kappa: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa", _check_kappa(self.kappa))
        object.__setattr__(self, "lam", _check_fixed_lambda(self.lam, self.kappa))

    @property
    def spec(self) -> str:
        return f"fixed:{self.lam!r}"

    def select(self, proc: EmpiricalProcesses) -> Pi0Estimate:
        return select_fixed(proc, self.lam, self.kappa)


@dataclass(frozen=True)
class RightBoundaryRule:
    """Stop at the first histogram boundary whose pi0 estimate stops decreasing.

    ``estimator`` picks which variant runs the stopping comparison; the
    reported estimate is the plus-one variant either way.
    """

    grid: tuple[float, ...]
    kappa: float
    estimator: str = STOREY

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", _check_grid(self.grid, "candidate grid"))
        object.__setattr__(self, "kappa", _check_kappa(self.kappa))
        object.__setattr__(self, "estimator", _check_estimator(self.estimator))

    @property
    def spec(self) -> str:
        return f"rb:{_grid_spec(self.grid)}"

    def select(self, proc: EmpiricalProcesses) -> Pi0Estimate:
        return select_right_boundary(proc, self.grid, self.kappa, self.estimator)


@dataclass(frozen=True)
class LowestSlopeRule:
    """Run the same stopping scan over every order statistic."""

    kappa: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa", _check_kappa(self.kappa))

    @property
    def spec(self) -> str:
        return "lsl"

    def select(self, proc: EmpiricalProcesses) -> Pi0Estimate:
        return select_lowest_slope(proc, self.kappa)


@dataclass(frozen=True)
class KQuantileRule:
    """lambda = the k-th order statistic; k=None means the median rank."""

    k: int | None
    kappa: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa", _check_kappa(self.kappa))
        if self.k is not None:
            k = int(self.k)
            if k < 1:
                raise ValueError(f"quantile index k={k} must be >= 1")
            object.__setattr__(self, "k", k)

    @property
    def spec(self) -> str:
        return "kq:median" if self.k is None else f"kq:{self.k}"

    def select(self, proc: EmpiricalProcesses) -> Pi0Estimate:
        return select_k_quantile(proc, self.k, self.kappa)


@dataclass(frozen=True)
class RightBoundaryQuantileRule:
    """Right-boundary scan over sample quantiles instead of a fixed grid."""

    levels: tuple[float, ...]
    kappa: float
    estimator: str = STOREY

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", _check_grid(self.levels, "quantile levels"))
        object.__setattr__(self, "kappa", _check_kappa(self.kappa))
        object.__setattr__(self, "estimator", _check_estimator(self.estimator))

    @property
    def spec(self) -> str:
        return f"rbq:{_grid_spec(self.levels)}"

    def select(self, proc: EmpiricalProcesses) -> Pi0Estimate:
        return select_right_boundary_quantile(proc, self.levels, self.kappa, self.estimator)


LambdaRule = Union[FixedRule, RightBoundaryRule, LowestSlopeRule, KQuantileRule, RightBoundaryQuantileRule]


@dataclass(frozen=True)
class StepUpRule:
    """No lambda to select: the linear step-up at alpha / pi0 over all of [0, 1].

    ``bh`` takes pi0 = 1; ``orc`` (``oracle=True``) takes the true null
    proportion, which the caller supplies (run_procedure's ``pi0`` or the
    sample's truth labels).
    """

    oracle: bool = False

    @property
    def spec(self) -> str:
        return "orc" if self.oracle else "bh"


BH, ORACLE = StepUpRule(oracle=False), StepUpRule(oracle=True)


def select_fixed(proc: EmpiricalProcesses, lam: float, kappa: float) -> Pi0Estimate:
    """Identity rule: keep the given lambda, estimate pi0 there."""
    kappa = _check_kappa(kappa)
    lam = _check_fixed_lambda(lam, kappa)
    value = pi0_storey_plus(proc, lam)
    return Pi0Estimate(lam=lam, value=value, trace=((lam, value),))


def select_right_boundary(
    proc: EmpiricalProcesses,
    grid: Sequence[float],
    kappa: float,
    estimator: str = STOREY,
) -> Pi0Estimate:
    """Pick the right edge of the first bin where the pi0 estimate levels off.

    Scans the boundaries left to right, comparing the estimate at each
    boundary with the estimate at the previous one (the leftmost compares
    against 0).  A boundary qualifies when it is >= kappa and its estimate
    is >= its predecessor's; if none qualifies the last boundary wins.
    Boundaries below kappa are skipped as candidates but still serve as
    comparison baselines.
    """
    grid = _check_grid(grid, "candidate grid")
    kappa = _check_kappa(kappa)
    est_fn = pi0_storey if _check_estimator(estimator) == STOREY else pi0_storey_plus

    prev = est_fn(proc, 0.0)
    trace = [(0.0, prev)]
    chosen: float | None = None
    for lam in grid:
        cur = est_fn(proc, lam)
        trace.append((lam, cur))
        if lam >= kappa and cur >= prev:
            chosen = lam
            break
        prev = cur

    flags: tuple[str, ...] = ()
    if chosen is None:
        chosen = grid[-1]
    if chosen < kappa:
        # whole grid sits below the rejection region; keep lambda admissible
        chosen = kappa
        flags = ("grid-below-kappa",)
    value = pi0_storey_plus(proc, chosen)
    return Pi0Estimate(lam=chosen, value=value, trace=tuple(trace), flags=flags)


def select_lowest_slope(proc: EmpiricalProcesses, kappa: float) -> Pi0Estimate:
    """Stopping scan over every order statistic, with a strict comparison.

    Picks the first p_(i), i >= 2, with p_(i) >= kappa whose plus-one
    estimate strictly exceeds the one at p_(i-1).  If the scan never
    stops, falls back to the largest order statistic in [kappa, 1); if
    even that fails, to kappa itself.  Both fallbacks are flagged.
    """
    kappa = _check_kappa(kappa)
    m = proc.m
    if m < 2:
        raise ValueError("lowest-slope selection needs at least 2 p-values")
    p = proc.sorted.ordered
    below_one = p < 1.0
    ranks_right = np.searchsorted(p, p, side="right")  # R(p_(i)) including ties
    est = np.full(m, np.nan)
    est[below_one] = (m - ranks_right[below_one] + 1) / ((1.0 - p[below_one]) * m)

    can_stop = below_one & (p >= kappa)
    can_stop[0] = False
    stop = can_stop.copy()
    with np.errstate(invalid="ignore"):
        stop[1:] &= est[1:] > est[:-1]

    flags: tuple[str, ...] = ()
    hits = np.flatnonzero(stop)
    if hits.size:
        last_examined = int(hits[0])
        chosen = float(p[last_examined])
    else:
        last_examined = m - 1
        admissible = np.flatnonzero(below_one & (p >= kappa))
        if admissible.size:
            chosen = float(p[int(admissible[-1])])
            flags = ("fallback-largest-order-statistic",)
        else:
            chosen = kappa
            flags = ("fallback-kappa",)

    trace = tuple(zip(p[: last_examined + 1].tolist(), est[: last_examined + 1].tolist()))
    value = pi0_storey_plus(proc, chosen)
    return Pi0Estimate(lam=chosen, value=value, trace=trace, flags=flags)


def select_k_quantile(proc: EmpiricalProcesses, k: int | None, kappa: float) -> Pi0Estimate:
    """lambda = max(p_(k), kappa), clamped below 1.

    ``k=None`` means the median rank.  An order statistic equal to 1 (ties
    at the top are a discrete-input artifact) is replaced by
    max(kappa, 1 - 1/m) and flagged.
    """
    kappa = _check_kappa(kappa)
    m = proc.m
    if k is None:
        k = max(1, m // 2)
    k = int(k)
    if not 1 <= k <= m:
        raise ValueError(f"quantile index k={k} outside 1..{m}")
    lam = max(float(proc.sorted.ordered[k - 1]), kappa)
    flags: tuple[str, ...] = ()
    if lam >= 1.0:
        lam = max(kappa, 1.0 - 1.0 / m)
        flags = ("clamped-below-one",)
    value = pi0_storey_plus(proc, lam)
    return Pi0Estimate(lam=lam, value=value, trace=((lam, value),), flags=flags)


def select_right_boundary_quantile(
    proc: EmpiricalProcesses,
    levels: Sequence[float],
    kappa: float,
    estimator: str = STOREY,
) -> Pi0Estimate:
    """Right-boundary scan over the sample quantiles q_gamma = p_(ceil(gamma m)).

    The quantile grid is deduplicated, entries below kappa or >= 1 are
    dropped, and the fixed-grid scan runs on what survives.  An empty
    surviving grid falls back to lambda = kappa with a flag.
    """
    levels = _check_grid(levels, "quantile levels")
    kappa = _check_kappa(kappa)
    m = proc.m
    # small backoff so exact integer boundaries like 0.25 * 20 stay rank 5
    ranks = np.ceil(np.asarray(levels) * m - 1e-9).astype(np.int64)
    ranks = np.clip(ranks, 1, m)
    grid = np.unique(proc.sorted.ordered[ranks - 1])
    grid = grid[(grid >= kappa) & (grid < 1.0)]
    if grid.size == 0:
        value = pi0_storey_plus(proc, kappa)
        return Pi0Estimate(lam=kappa, value=value, trace=((kappa, value),), flags=("empty-grid-fallback",))
    return select_right_boundary(proc, tuple(grid.tolist()), kappa, estimator)


SPEC_HELP = (
    "bh, orc, fixed:<lambda>, rb:<grid>, rb20, lsl, kq:<k|median>, rbq:<levels>, rb20q "
    "(grids are start:step:stop or comma-separated values)"
)


def _parse_grid(arg: str, spec: str) -> tuple[float, ...]:
    try:
        if "," in arg:
            return tuple(float(v) for v in arg.split(","))
        parts = arg.split(":")
        if len(parts) == 3:
            return evenly_spaced_grid(float(parts[0]), float(parts[1]), float(parts[2]))
        if len(parts) == 1:
            return (float(parts[0]),)
    except ValueError as exc:
        raise ValueError(f"bad grid in rule spec {spec!r}: {exc}") from exc
    raise ValueError(f"bad grid in rule spec {spec!r}; expected start:step:stop or a comma list")


def parse_rule_spec(spec: str, kappa: float) -> LambdaRule | StepUpRule:
    """Build a rule object from its string spec; the one parser of procedure specs.

    Accepted forms: bh, orc, fixed:<lambda>, rb:<grid>, rb20, lsl,
    kq:<k|median>, rbq:<levels>, rb20q.  ``rb20``/``rb20q`` are shorthands
    for the equal-width 20-bin grid (and its quantile analogue).  ``bh``
    and ``orc`` select no lambda, so they ignore kappa.
    """
    s = spec.strip()
    if s == "bh":
        return BH
    if s == "orc":
        return ORACLE
    if s == "lsl":
        return LowestSlopeRule(kappa=kappa)
    if s == "rb20":
        return RightBoundaryRule(grid=TWENTY_BIN_GRID, kappa=kappa)
    if s == "rb20q":
        return RightBoundaryQuantileRule(levels=TWENTY_BIN_GRID, kappa=kappa)
    head, sep, arg = s.partition(":")
    if sep and arg:
        if head == "fixed":
            try:
                lam = float(arg)
            except ValueError as exc:
                raise ValueError(f"bad lambda in rule spec {spec!r}") from exc
            return FixedRule(lam=lam, kappa=kappa)
        if head == "rb":
            return RightBoundaryRule(grid=_parse_grid(arg, spec), kappa=kappa)
        if head == "rbq":
            return RightBoundaryQuantileRule(levels=_parse_grid(arg, spec), kappa=kappa)
        if head == "kq":
            if arg == "median":
                return KQuantileRule(k=None, kappa=kappa)
            try:
                k = int(arg)
            except ValueError as exc:
                raise ValueError(f"bad quantile index in rule spec {spec!r}") from exc
            return KQuantileRule(k=k, kappa=kappa)
    raise ValueError(f"unknown rule spec {spec!r}; valid specs: {SPEC_HELP}")
