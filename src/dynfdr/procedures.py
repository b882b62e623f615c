"""Step-up thresholding procedures, all cut by one comparison m * pi0 * p_(k) <= alpha * k.

``bh_step_up`` is the classical linear step-up rule (pi0 = 1) and, at the
true null proportion, the oracle benchmark.  ``dynamic_adaptive`` is the
full pipeline: select lambda with a stopping rule, estimate pi0, then
make the same cut inside [0, kappa] (the sup-threshold functional).
Reported thresholds are always realized p-values (or the region bound),
because anything between two order statistics rejects the same set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import Pi0Estimate, fdr_estimate
from .pvalues import EmpiricalProcesses, check_number
from .selection import LambdaRule, StepUpRule

__all__ = [
    "ProcedureResult",
    "bh_step_up",
    "threshold_functional",
    "dynamic_adaptive",
    "run_procedure",
    "DEFAULT_PROCEDURES",
]

# the candidate set mirrored from the simulation study
DEFAULT_PROCEDURES = ("bh", "orc", "fixed:0.5", "rb20", "lsl", "rb20q")


@dataclass(frozen=True)
class ProcedureResult:
    """Threshold, rejection set and the estimates that produced them.

    ``rejected`` holds the original indices with p_i <= threshold, sorted
    ascending.  ``pi0`` is the pi0 the procedure used: the selected
    estimate, or the fixed one of a step-up baseline (with lam = nan).
    """

    threshold: float
    rejected: np.ndarray
    fdr_estimate_at_threshold: float
    pi0: Pi0Estimate

    @property
    def n_rejected(self) -> int:
        return int(self.rejected.size)


# (alpha, alpha * k for k = 1..n): the last alpha's step-up bounds, rebuilt only for a new alpha
# or a longer cut, so they hold no more values than one call has needed; the pair is replaced
# whole, never written in place, so concurrent callers each read a consistent one
_bounds = (float("nan"), np.empty(0))


def _step_up(ordered: np.ndarray, m: int, pi0: float, alpha: float) -> float:
    """The step-up cut: the largest p_(k) of ``ordered`` with m * pi0 * p_(k) <= alpha * k, else 0.0."""
    global _bounds
    n = ordered.size
    last_alpha, bounds = _bounds
    if last_alpha != alpha or bounds.size < n:
        bounds = alpha * np.arange(1, n + 1)
        _bounds = alpha, bounds
    (hits,) = (m * pi0 * ordered <= bounds[:n]).nonzero()
    return float(ordered[hits[-1]]) if hits.size else 0.0


def _result(proc: EmpiricalProcesses, threshold: float, pi0: Pi0Estimate) -> ProcedureResult:
    """Everything a procedure reports at ``threshold``, with the FDR estimate there at ``pi0.value``."""
    (rejected,) = (proc.values <= threshold).nonzero()
    return ProcedureResult(threshold, rejected, float(fdr_estimate(proc.m, pi0.value, threshold, rejected.size)), pi0)


def bh_step_up(proc: EmpiricalProcesses, alpha: float, pi0_target: float = 1.0) -> ProcedureResult:
    """Linear step-up cut at the largest p_(k) with m * pi0_target * p_(k) <= alpha * k.

    ``pi0_target`` 1 gives the plain procedure (which rejects every p-value
    when all are at most alpha), the true null proportion gives the oracle.
    The reported FDR estimate at the threshold uses pi0_target.
    """
    alpha, pi0_target = check_number("alpha", alpha, "(0, 1)"), check_number("pi0_target", pi0_target, "(0, 1]")
    threshold = _step_up(proc.ordered, proc.m, pi0_target, alpha)
    return _result(proc, threshold, Pi0Estimate(lam=float("nan"), value=pi0_target))


def threshold_functional(proc: EmpiricalProcesses, pi0_star: float, alpha: float, kappa: float) -> float:
    """Largest cut-off in [0, kappa] whose FDR estimate stays at or below alpha.

    Scans the order statistics inside the rejection region step-up style;
    when the estimate at kappa itself is admissible the whole region
    qualifies and kappa is returned (same rejection set either way).
    Returns 0 when nothing qualifies.
    """
    pi0_star = check_number("pi0_star", pi0_star, "(0, inf)")
    alpha, kappa = check_number("alpha", alpha, "(0, 1)"), check_number("kappa", kappa, "(0, 1)")
    m, n_region = proc.m, proc.count_R(kappa)
    if fdr_estimate(m, pi0_star, kappa, n_region) <= alpha:
        return kappa
    return _step_up(proc.ordered[:n_region], m, pi0_star, alpha)


def dynamic_adaptive(proc: EmpiricalProcesses, rule: LambdaRule, alpha: float) -> ProcedureResult:
    """Select lambda, estimate pi0, threshold the truncated FDR estimate at ``rule.kappa``."""
    est = rule.select(proc)
    return _result(proc, threshold_functional(proc, est.value, alpha, rule.kappa), est)


def run_procedure(
    rule: LambdaRule | StepUpRule, proc: EmpiricalProcesses, alpha: float, pi0: float | None = None
) -> ProcedureResult:
    """Run a procedure given as a rule that parse_rule_spec returned.

    ``bh`` and ``orc`` are the step-up baselines, and ``orc`` runs at the
    caller's ``pi0``, the true null proportion, which no other rule takes;
    every lambda rule is fed to the dynamic adaptive pipeline at its own kappa.
    """
    if not isinstance(rule, StepUpRule):
        return dynamic_adaptive(proc, rule, alpha)
    if not rule.oracle:
        return bh_step_up(proc, alpha)
    if pi0 is None:
        raise ValueError("orc needs pi0, the true null proportion")
    return bh_step_up(proc, alpha, pi0)
