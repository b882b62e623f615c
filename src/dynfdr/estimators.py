"""Estimators of the true-null proportion and of the FDR at a cut-off.

The plus-one variant of the tail estimator is bounded away from zero and
is what the thresholding step always consumes; the plain variant exists
because the right-boundary rules run their stopping comparison on it.
Estimates above 1 are legal and are never clipped here: capping is a
caller decision, not an estimator one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .pvalues import EmpiricalProcesses

__all__ = [
    "Pi0Estimate",
    "pi0_storey",
    "pi0_storey_plus",
    "fdr_hat_star",
]


def check_integer(name: str, value, low: int | None = None) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is a Python or numpy integer (a bool is not) >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}={value!r} is not an integer")
    if low is not None and value < low:
        raise ValueError(f"{name}={value} must be >= {low}")
    return int(value)


def check_number(name: str, value) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a real number (a bool or a str is not)."""
    # an exact float passes first: the ABC isinstance costs ~1 us, on the per-replication path
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name}={value!r} is not a number")
    return float(value)


def check_open_unit(name: str, value: float) -> float:
    """``value`` as a float; ValueError naming ``name`` unless 0 < value < 1."""
    value = check_number(name, value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name}={value} outside (0, 1)")
    return value


def check_proportion(name: str, value: float) -> float:
    """``value`` as a float; ValueError naming ``name`` unless 0 < value <= 1."""
    value = check_number(name, value)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name}={value} outside (0, 1]")
    return value


def check_pi0_star(value: float) -> float:
    """``value`` as a float; ValueError unless it is a finite pi0 estimate > 0 (estimates above 1 are legal)."""
    value = check_number("pi0_star", value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"pi0_star={value} must be positive and finite")
    return value


def scan_trace(rows) -> np.ndarray:
    """``rows`` of (candidate, estimate) pairs as a read-only (n, 2) float array."""
    trace = np.asarray(rows, dtype=float).reshape(-1, 2)
    trace.flags.writeable = False
    return trace


_NO_TRACE = scan_trace(())


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


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda={lam} outside [0, 1)")
    return lam


def pi0_storey(proc: EmpiricalProcesses, lam: float) -> float:
    """Tail estimate of the true-null proportion, (m - R(lam)) / ((1-lam) m)."""
    lam = _check_lambda(lam)
    m = proc.m
    return (m - proc.count_R(lam)) / ((1.0 - lam) * m)


def pi0_storey_plus(proc: EmpiricalProcesses, lam: float) -> float:
    """Plus-one tail estimate, (m - R(lam) + 1) / ((1-lam) m); always > 0."""
    lam = _check_lambda(lam)
    m = proc.m
    return (m - proc.count_R(lam) + 1) / ((1.0 - lam) * m)


def fdr_hat_star(proc: EmpiricalProcesses, pi0_star: float, t: float, kappa: float) -> float:
    """Truncated FDR estimate at cut-off t.

    Equals m * pi0_star * t / (R(t) v 1) for t <= kappa and is pinned to 1
    beyond kappa, which confines any rejection threshold to [0, kappa].
    """
    pi0_star = check_pi0_star(pi0_star)
    kappa = check_open_unit("kappa", kappa)
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} outside [0, 1]")
    if t > kappa:
        return 1.0
    return proc.m * pi0_star * t / max(proc.count_R(t), 1)
