"""Data-driven selection rules for the tuning parameter lambda.

Each scanning rule runs candidates from the left and stops the first time
the pi0 estimate stops improving (decreasing), so the decision at a
candidate depends only on p-value counts at or below it.  ``_first_stop``
is that stopping rule and ``estimators.tail_estimate`` that estimate,
each written only once.  That forward-scan structure is what licenses
plugging the selected lambda into the truncated FDR estimator without
losing finite-sample control.  The claim holds unless the estimate
carries a flag: a flagged fallback or clamp may depend on p-values
above the chosen lambda.

Rules are addressable by compact string specs (``fixed:0.5``, ``rb20``,
``lsl``, ``kq:median``, ``rbq:0.25,0.5,0.75``, ...), which the CLI and
the simulation harness consume.  The step-up baselines ``bh`` and ``orc``
select no lambda but parse through the same function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .estimators import Pi0Estimate, pi0_storey_plus, scan_trace, tail_estimate
from .pvalues import EmpiricalProcesses, check_integer, check_number

__all__ = [
    "TWENTY_BIN_GRID",
    "FixedRule",
    "RightBoundaryRule",
    "LowestSlopeRule",
    "KQuantileRule",
    "RightBoundaryQuantileRule",
    "LambdaRule",
    "StepUpRule",
    "parse_rule_spec",
]


# 19 interior boundaries, i.e. the equal-width 20-bin histogram of (0, 1].
TWENTY_BIN_GRID = tuple(k / 20 for k in range(1, 20))


def _check_grid(grid: Sequence[float], what: str) -> tuple[float, ...]:
    vals = tuple(check_number(f"{what} entry", g, "(0, 1)") for g in grid)
    if not vals:
        raise ValueError(f"{what} is empty")
    for i, (a, b) in enumerate(zip(vals, vals[1:]), start=1):
        if not a < b:
            raise ValueError(f"{what} must be strictly ascending, got {a!r} then {b!r} at entries {i} and {i + 1}")
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
        object.__setattr__(self, "kappa", check_number("kappa", self.kappa, "(0, 1)"))
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
    # what the scan reads: 0, then the grid, as a read-only array
    candidates: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", _check_grid(self.grid, "candidate grid"))
        object.__setattr__(self, "kappa", check_number("kappa", self.kappa, "(0, 1)"))
        candidates = np.array((0.0, *self.grid))
        candidates.flags.writeable = False
        object.__setattr__(self, "candidates", candidates)

    def select(self, proc: EmpiricalProcesses) -> Pi0Estimate:
        return select_right_boundary(proc, self)


@dataclass(frozen=True)
class LowestSlopeRule:
    """Run the same stopping scan over every order statistic."""

    kappa: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa", check_number("kappa", self.kappa, "(0, 1)"))

    def select(self, proc: EmpiricalProcesses) -> Pi0Estimate:
        return select_lowest_slope(proc, self)


@dataclass(frozen=True)
class KQuantileRule:
    """lambda = the k-th order statistic; k=None means the median rank."""

    k: int | None
    kappa: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa", check_number("kappa", self.kappa, "(0, 1)"))
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
        return _estimate(proc, lam, flags=flags)


@dataclass(frozen=True)
class RightBoundaryQuantileRule:
    """Right-boundary scan over sample quantiles instead of a fixed grid."""

    levels: tuple[float, ...]
    kappa: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", _check_grid(self.levels, "quantile levels"))
        object.__setattr__(self, "kappa", check_number("kappa", self.kappa, "(0, 1)"))

    def select(self, proc: EmpiricalProcesses) -> Pi0Estimate:
        return select_right_boundary_quantile(proc, self)


LambdaRule = Union[FixedRule, RightBoundaryRule, LowestSlopeRule, KQuantileRule, RightBoundaryQuantileRule]


@dataclass(frozen=True)
class StepUpRule:
    """No lambda to select: the linear step-up at alpha / pi0 over all of [0, 1].

    ``bh`` takes pi0 = 1; ``orc`` (``oracle=True``) takes the true null
    proportion, which the caller supplies as run_procedure's ``pi0``.
    """

    oracle: bool = False


BH, ORACLE = StepUpRule(oracle=False), StepUpRule(oracle=True)


def _estimate(proc: EmpiricalProcesses, lam: float, scanned=None, flags: tuple[str, ...] = ()) -> Pi0Estimate:
    """The one builder of a rule's Pi0Estimate: ``value`` is the plus-one estimate at the chosen ``lam``;
    ``scanned``, the (candidates, estimates) a scan compared, is None for a one-candidate rule: the row (lam, value)."""
    value = pi0_storey_plus(proc, lam)
    return Pi0Estimate(lam, value, scan_trace(*((lam, value) if scanned is None else scanned)), flags)


def select_fixed(proc: EmpiricalProcesses, rule: FixedRule) -> Pi0Estimate:
    """Identity rule: keep the rule's lambda, estimate pi0 there."""
    return _estimate(proc, rule.lam)


def select_right_boundary(proc: EmpiricalProcesses, rule: RightBoundaryRule) -> Pi0Estimate:
    """Pick the right edge of the first bin where the pi0 estimate levels off.

    ``_first_stop``, non-strict, on the plain estimate at 0 and at each
    boundary; boundaries below kappa serve only as comparison baselines.
    If the scan never stops the last boundary wins.  The reported value
    is the plus-one estimate at the chosen boundary.
    """
    return _right_boundary_scan(proc, rule.candidates, rule.kappa)


def _first_stop(candidates: np.ndarray, estimates: np.ndarray, kappa: float, strict: bool) -> int:
    """The stopping rule: the index where a forward scan stops, -1 when it never does.

    That is the first i >= 1 with candidates[i] >= kappa whose estimate
    does not improve on the one at candidates[i - 1]: rises above it
    (``strict``) or does not fall below it.  A comparison with a nan estimate,
    or a lone candidate, never stops the scan; the decision at i reads only i - 1 and i.
    """
    cur, prev = estimates[1:], estimates[:-1]
    stop = (candidates[1:] >= kappa) & ((cur > prev) if strict else (cur >= prev))
    (hits,) = stop.nonzero()
    return int(hits[0]) + 1 if hits.size else -1


def _right_boundary_scan(
    proc: EmpiricalProcesses, candidates: np.ndarray, kappa: float, flags: tuple[str, ...] = ()
) -> Pi0Estimate:
    """select_right_boundary's scan over ``candidates``, 0 and then a checked grid; ``flags`` lead the result's flags."""
    est = tail_estimate(proc.m, proc.ordered.searchsorted(candidates, side="right"), candidates)
    last = _first_stop(candidates, est, kappa, strict=False)
    n = last + 1 if last > 0 else candidates.size  # no stop: the last grid point
    chosen = float(candidates[n - 1])
    if chosen < kappa:
        # whole grid sits below the rejection region; keep lambda admissible
        chosen = kappa
        flags += ("grid-below-kappa",)
    return _estimate(proc, chosen, (candidates[:n], est[:n]), flags)


# order statistics the lowest-slope scan scores first; each further pass scores 4x as many
_LSL_FIRST_PREFIX = 256


def select_lowest_slope(proc: EmpiricalProcesses, rule: LowestSlopeRule) -> Pi0Estimate:
    """``_first_stop``, strict, on the plus-one estimate at every order statistic.

    If the scan never stops, as on one p-value, falls back to the largest order
    statistic in [kappa, 1); if even that fails, to kappa itself.  Both are flagged.
    """
    kappa = rule.kappa
    m = proc.m
    p = proc.ordered
    # whether the scan stops at p_(i) depends only on p_(i-1), p_(i) and their
    # counts, so score a growing prefix and stop at its first hit
    n = min(_LSL_FIRST_PREFIX, m)
    while True:
        head = p[:n]
        lam = head if head[-1] < 1.0 else np.where(head < 1.0, head, np.nan)  # nan at p = 1
        est = tail_estimate(m, p.searchsorted(head, side="right") - 1, lam)
        first = _first_stop(head, est, kappa, strict=True)
        if first > 0 or n == m:
            break
        n = min(4 * n, m)

    flags: tuple[str, ...] = ()
    if first > 0:
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

    return _estimate(proc, chosen, (p[:n], est[:n]), flags)


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
    grid = quantiles[keep]
    if not grid.size:
        return _estimate(proc, kappa, flags=("empty-grid-fallback",) + flags)
    return _right_boundary_scan(proc, np.concatenate(([0.0], grid)), kappa, flags)


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
    "(a grid is a comma list, e.g. rb:0.25,0.5,0.75)"
)


def _parse_grid(arg: str) -> tuple[float, ...]:
    if ":" in arg and "," not in arg:  # colons in place of commas, e.g. rb:0.05:0.05:0.95
        raise ValueError("bad grid; expected a comma list such as 0.25,0.5,0.75")
    try:
        return tuple(float(v) for v in arg.split(","))  # one value is a comma list of one
    except ValueError as exc:
        raise ValueError(f"bad grid: {exc}") from exc


def parse_rule_spec(spec: str, kappa: float) -> LambdaRule | StepUpRule:
    """Build a rule object from its string spec; the one parser of procedure specs.

    Accepted forms: bh, orc, fixed:<lambda>, rb:<grid>, rb20, lsl,
    kq:<k|median>, rbq:<levels>, rb20q.  ``rb20``/``rb20q`` are shorthands
    for the equal-width 20-bin grid (and its quantile analogue).  ``bh``
    and ``orc`` select no lambda, so they ignore kappa.  Every ValueError, a
    rule's field checks included, reads ``invalid procedure spec {spec!r}: <reason>``.
    """
    try:
        return _rule(spec.strip(), kappa)
    except ValueError as exc:
        raise ValueError(f"invalid procedure spec {spec!r}: {exc}") from exc


def _rule(s: str, kappa: float) -> LambdaRule | StepUpRule:
    """parse_rule_spec's body, on the stripped spec; its errors give only the reason."""
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
    if sep and (arg := arg.strip()):
        if head == "fixed":
            try:
                lam = float(arg)
            except ValueError as exc:
                raise ValueError("bad lambda") from exc
            return FixedRule(lam=lam, kappa=kappa)
        if head == "rb":
            return RightBoundaryRule(grid=_parse_grid(arg), kappa=kappa)
        if head == "rbq":
            return RightBoundaryQuantileRule(levels=_parse_grid(arg), kappa=kappa)
        if head == "kq":
            if arg == "median":
                return KQuantileRule(k=None, kappa=kappa)
            try:
                k = int(arg)
            except ValueError as exc:
                raise ValueError("bad quantile index") from exc
            return KQuantileRule(k=k, kappa=kappa)
    raise ValueError(f"unknown procedure; valid specs: {SPEC_HELP}")
