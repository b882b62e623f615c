"""Estimators of the true-null proportion and of the FDR at a cut-off.

Each formula is written once: the tail estimate (m - R(lam) + c) /
((1 - lam) m) in ``tail_estimate``, the FDR estimate m pi0 t / (R(t) v 1)
in ``fdr_estimate``.  The plus-one tail estimate (c = 1) is bounded away
from zero and is what thresholding consumes; the plain one (c = 0) is
what the right-boundary rules compare.  Estimates above 1 are legal and
never clipped here: capping is a caller decision, not an estimator one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pvalues import EmpiricalProcesses, check_number

__all__ = [
    "Pi0Estimate",
    "pi0_storey",
    "pi0_storey_plus",
    "fdr_hat_star",
]


def scan_trace(candidates, estimates) -> np.ndarray:
    """The rows (candidate, estimate) of a scan as a read-only (n, 2) float array; two scalars give the one row."""
    trace = np.array((candidates, estimates), dtype=float).reshape(2, -1).T
    trace.flags.writeable = False
    return trace


_NO_TRACE = scan_trace((), ())


def tail_estimate(m, r, lam):
    """(m - r) / ((1 - lam) m), elementwise and unchecked: r = R(lam) is the plain estimate, R(lam) - 1 the plus-one."""
    return (m - r) / ((1.0 - lam) * m)


def fdr_estimate(m, pi0, t, r):
    """m * pi0 * t / (r v 1), unchecked: the FDR estimate at cut-off t, where r = R(t)."""
    return m * pi0 * t / max(r, 1)


@dataclass(frozen=True)
class Pi0Estimate:
    """The pi0 a procedure used, and how it was chosen.

    ``lam`` is the chosen tuning parameter and ``value`` the plus-one pi0
    estimate at ``lam`` (whatever variant the rule compared with), both
    floats.  ``trace`` is a read-only (n, 2) float array with one row per
    candidate the rule examined, in scan order: the candidate, then the
    estimate the rule compared there; ``len(trace)`` counts the
    candidates.  ``flags`` names any fallbacks or clamps that fired.  The
    step-up baselines select no lambda: they record ``lam = nan``, their
    fixed pi0 as ``value`` and an empty (0, 2) trace.  Equality and hash
    are the dataclass's field-wise ones, as for ``ProcedureResult``: the
    array field makes ``hash`` raise, so compare traces with
    ``np.array_equal``.
    """

    lam: float
    value: float
    trace: np.ndarray = field(default_factory=lambda: _NO_TRACE)
    flags: tuple[str, ...] = ()


def pi0_storey(proc: EmpiricalProcesses, lam: float) -> float:
    """Tail estimate of the true-null proportion, (m - R(lam)) / ((1-lam) m)."""
    lam = check_number("lambda", lam, "[0, 1)")
    return tail_estimate(proc.m, proc.count_R(lam), lam)


def pi0_storey_plus(proc: EmpiricalProcesses, lam: float) -> float:
    """Plus-one tail estimate, (m - R(lam) + 1) / ((1-lam) m); always > 0."""
    lam = check_number("lambda", lam, "[0, 1)")
    return tail_estimate(proc.m, proc.count_R(lam) - 1, lam)


def fdr_hat_star(proc: EmpiricalProcesses, pi0_star: float, t: float, kappa: float) -> float:
    """Truncated FDR estimate at cut-off t.

    Equals m * pi0_star * t / (R(t) v 1) for t <= kappa and is pinned to 1
    beyond kappa, which confines any rejection threshold to [0, kappa].
    """
    pi0_star = check_number("pi0_star", pi0_star, "(0, inf)")
    kappa = check_number("kappa", kappa, "(0, 1)")
    t = check_number("t", t, "[0, 1]")
    if t > kappa:
        return 1.0
    return fdr_estimate(proc.m, pi0_star, t, proc.count_R(t))
