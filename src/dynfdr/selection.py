"""Data-driven selection rules for the tuning parameter lambda.

Each rule scans candidates from the left and stops the first time the
pi0 estimate stops improving (decreasing), so the decision at a candidate
depends only on p-value counts at or below it.  That forward-scan
structure is what licenses plugging the selected lambda into the
truncated FDR estimator without losing finite-sample control.  The claim
holds unless the estimate carries a flag: a flagged fallback or clamp
may depend on p-values above the chosen lambda.

Rules are addressable by compact string specs (``fixed:0.5``, ``rb20``,
``lsl``, ``kq:median``, ``rbq:0.05:0.05:0.95``, ...), which the CLI and
the simulation harness consume.  The step-up baselines ``bh`` and ``orc``
select no lambda but parse through the same function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .estimators import Pi0Estimate, check_integer, check_number, check_open_unit, pi0_storey, pi0_storey_plus, scan_trace
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


# A rule validates its fields once, at construction; ``select(proc)``, the one way to
# run it, checks only what depends on the data.  Four rules forward to module-level
# select_* functions only because bench/layers.py wraps those by name (and counts lsl
# calls through them); they go when the benchmark's contract stops naming them.


@dataclass(frozen=True)
class FixedRule:
    """Use a pre-chosen lambda; must lie in [kappa, 1)."""

    lam: float
    kappa: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa", check_open_unit("kappa", self.kappa))
        object.__setattr__(self, "lam", check_number("lam", self.lam))
        if not self.kappa <= self.lam < 1.0:
            raise ValueError(f"fixed lambda={self.lam} outside [kappa={self.kappa}, 1)")

    def select(self, proc: EmpiricalProcesses) -> Pi0Estimate:
        return select_fixed(proc, self)


@dataclass(frozen=True)
class RightBoundaryRule:
    """Stop at the first histogram boundary whose pi0 estimate stops decreasing."""

    grid: tuple[float, ...]
    kappa: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", _check_grid(self.grid, "candidate grid"))
        object.__setattr__(self, "kappa", check_open_unit("kappa", self.kappa))

    def select(self, proc: EmpiricalProcesses) -> Pi0Estimate:
        return select_right_boundary(proc, self)


@dataclass(frozen=True)
class LowestSlopeRule:
    """Run the same stopping scan over every order statistic."""

    kappa: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa", check_open_unit("kappa", self.kappa))

    def select(self, proc: EmpiricalProcesses) -> Pi0Estimate:
        return select_lowest_slope(proc, self)


@dataclass(frozen=True)
class KQuantileRule:
    """lambda = the k-th order statistic; k=None means the median rank."""

    k: int | None
    kappa: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa", check_open_unit("kappa", self.kappa))
        if self.k is not None:
            object.__setattr__(self, "k", check_integer("k", self.k, 1))

    def select(self, proc: EmpiricalProcesses) -> Pi0Estimate:
        """lambda = max(p_(k), kappa), clamped below 1: a p_(k) equal to 1 (ties
        at the top are a discrete-input artifact) becomes max(kappa, 1 - 1/m), flagged."""
        m = proc.m
        k = max(1, m // 2) if self.k is None else self.k
        if k > m:
            raise ValueError(f"quantile index k={k} outside 1..{m}")
        lam = max(float(proc.ordered[k - 1]), self.kappa)
        flags: tuple[str, ...] = ()
        if lam >= 1.0:
            lam = max(self.kappa, 1.0 - 1.0 / m)
            flags = ("clamped-below-one",)
        value = pi0_storey_plus(proc, lam)
        return Pi0Estimate(lam=lam, value=value, trace=scan_trace((lam, value)), flags=flags)


@dataclass(frozen=True)
class RightBoundaryQuantileRule:
    """Right-boundary scan over sample quantiles instead of a fixed grid."""

    levels: tuple[float, ...]
    kappa: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", _check_grid(self.levels, "quantile levels"))
        object.__setattr__(self, "kappa", check_open_unit("kappa", self.kappa))

    def select(self, proc: EmpiricalProcesses) -> Pi0Estimate:
        return select_right_boundary_quantile(proc, self)


LambdaRule = Union[FixedRule, RightBoundaryRule, LowestSlopeRule, KQuantileRule, RightBoundaryQuantileRule]


@dataclass(frozen=True)
class StepUpRule:
    """No lambda to select: the linear step-up at alpha / pi0 over all of [0, 1].

    ``bh`` takes pi0 = 1; ``orc`` (``oracle=True``) takes the true null
    proportion, which the caller supplies (run_procedure's ``pi0`` or the
    sample's truth labels).
    """

    oracle: bool = False


BH, ORACLE = StepUpRule(oracle=False), StepUpRule(oracle=True)


def select_fixed(proc: EmpiricalProcesses, rule: FixedRule) -> Pi0Estimate:
    """Identity rule: keep the rule's lambda, estimate pi0 there."""
    value = pi0_storey_plus(proc, rule.lam)
    return Pi0Estimate(lam=rule.lam, value=value, trace=scan_trace((rule.lam, value)))


def select_right_boundary(proc: EmpiricalProcesses, rule: RightBoundaryRule) -> Pi0Estimate:
    """Pick the right edge of the first bin where the pi0 estimate levels off.

    Scans the boundaries left to right, comparing the plain estimate at
    each boundary with the one at the previous boundary (the leftmost
    compares against 0).  A boundary qualifies when it is >= kappa and its
    estimate is >= its predecessor's; if none qualifies the last boundary
    wins.  Boundaries below kappa are skipped as candidates but still
    serve as comparison baselines.  The reported value is the plus-one
    estimate at the chosen boundary.
    """
    return _right_boundary_scan(proc, rule.grid, rule.kappa)


def _right_boundary_scan(
    proc: EmpiricalProcesses, grid: Sequence[float], kappa: float, flags: tuple[str, ...] = ()
) -> Pi0Estimate:
    """select_right_boundary's scan over a checked grid; ``flags`` lead the result's flags."""
    prev = pi0_storey(proc, 0.0)
    trace = [0.0, prev]
    chosen: float | None = None
    for lam in grid:
        cur = pi0_storey(proc, lam)
        trace += (lam, cur)
        if lam >= kappa and cur >= prev:
            chosen = lam
            break
        prev = cur

    if chosen is None:
        chosen = grid[-1]
    if chosen < kappa:
        # whole grid sits below the rejection region; keep lambda admissible
        chosen = kappa
        flags += ("grid-below-kappa",)
    value = pi0_storey_plus(proc, chosen)
    return Pi0Estimate(lam=chosen, value=value, trace=scan_trace(trace), flags=flags)


# order statistics the lowest-slope scan scores first; each further pass scores 4x as many
_LSL_FIRST_PREFIX = 256


def select_lowest_slope(proc: EmpiricalProcesses, rule: LowestSlopeRule) -> Pi0Estimate:
    """Stopping scan over every order statistic, with a strict comparison.

    Picks the first p_(i), i >= 2, with p_(i) >= kappa whose plus-one
    estimate strictly exceeds the one at p_(i-1).  If the scan never
    stops, falls back to the largest order statistic in [kappa, 1); if
    even that fails, to kappa itself.  Both fallbacks are flagged.
    """
    kappa = rule.kappa
    m = proc.m
    if m < 2:
        raise ValueError("lowest-slope selection needs at least 2 p-values")
    p = proc.ordered
    # whether the scan stops at p_(i) depends only on p_(i-1), p_(i) and their
    # counts, so score a growing prefix and stop at its first hit
    n = min(_LSL_FIRST_PREFIX, m)
    while True:
        head = p[:n]
        counts = p.searchsorted(head, side="right")  # R(p_(i)) including ties
        if head[-1] < 1.0:
            est = (m - counts + 1) / ((1.0 - head) * m)
            stop = head >= kappa
            stop[1:] &= est[1:] > est[:-1]
        else:
            below_one = head < 1.0
            est = np.full(n, np.nan)
            est[below_one] = (m - counts[below_one] + 1) / ((1.0 - head[below_one]) * m)
            stop = below_one & (head >= kappa)
            with np.errstate(invalid="ignore"):
                stop[1:] &= est[1:] > est[:-1]
        stop[0] = False
        first = int(stop.argmax())
        if stop[first] or n == m:
            break
        n = min(4 * n, m)

    flags: tuple[str, ...] = ()
    if stop[first]:
        n = first + 1
        chosen = float(p[first])
    else:
        # the scan never stopped: the largest order statistic below 1, if it is >= kappa
        last = int(p.searchsorted(1.0)) - 1
        if last >= 0 and p[last] >= kappa:
            chosen = float(p[last])
            flags = ("fallback-largest-order-statistic",)
        else:
            chosen = kappa
            flags = ("fallback-kappa",)

    value = pi0_storey_plus(proc, chosen)
    trace = scan_trace(np.column_stack((p[:n], est[:n])))
    return Pi0Estimate(lam=chosen, value=value, trace=trace, flags=flags)


def select_right_boundary_quantile(
    proc: EmpiricalProcesses, rule: RightBoundaryQuantileRule
) -> Pi0Estimate:
    """Right-boundary scan over the sample quantiles q_gamma = p_(ceil(gamma m)).

    The quantile grid is deduplicated, entries below kappa or >= 1 are
    dropped, and the fixed-grid scan runs on what survives.  An empty
    surviving grid falls back to lambda = kappa with a flag.  A quantile
    equal to 1 is flagged too: dropping it makes the choice depend on
    p-values above lambda.
    """
    kappa = rule.kappa
    quantiles = proc.ordered[_quantile_indices(rule.levels, proc.m)]
    flags = ("quantile-at-one",) if quantiles[-1] >= 1.0 else ()
    # the quantiles ascend, so a repeat equals its left neighbour
    keep = (quantiles >= kappa) & (quantiles < 1.0)
    keep[1:] &= quantiles[1:] != quantiles[:-1]
    grid = quantiles[keep].tolist()
    if not grid:
        value = pi0_storey_plus(proc, kappa)
        flags = ("empty-grid-fallback",) + flags
        return Pi0Estimate(lam=kappa, value=value, trace=scan_trace((kappa, value)), flags=flags)
    return _right_boundary_scan(proc, grid, kappa, flags)


@lru_cache(maxsize=64)
def _quantile_indices(levels: tuple[float, ...], m: int) -> np.ndarray:
    """0-based indices of the order statistics p_(ceil(gamma m)), gamma in ``levels``."""
    # small backoff so exact integer boundaries like 0.25 * 20 stay rank 5
    ranks = np.ceil(np.asarray(levels) * m - 1e-9).astype(np.int64)
    indices = np.clip(ranks, 1, m) - 1
    indices.flags.writeable = False
    return indices


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
