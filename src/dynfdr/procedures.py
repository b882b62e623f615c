"""Step-up thresholding procedures.

``bh_step_up`` is the classical linear step-up rule (and, run at an
inflated level, the oracle benchmark).  ``dynamic_adaptive`` is the full
pipeline: select lambda with a stopping rule, estimate pi0, then push the
truncated FDR estimate through the sup-threshold functional.  Reported
thresholds are always realized p-values (or the region bound), because
anything between two order statistics rejects the same set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import Pi0Estimate, check_open_unit, check_pi0_star, check_proportion, fdr_hat_star
from .pvalues import EmpiricalProcesses, MissingTruthLabels
from .selection import BH, ORACLE, LambdaRule, StepUpRule

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


def _last_true(mask: np.ndarray) -> int:
    """Index of the last True in a nonempty boolean array, -1 when there is none."""
    last = mask.size - 1 - int(mask[::-1].argmax())
    return last if mask[last] else -1


def _rejection_set(proc: EmpiricalProcesses, threshold: float) -> np.ndarray:
    return (proc.values <= threshold).nonzero()[0]


def bh_step_up(proc: EmpiricalProcesses, alpha: float, pi0_target: float = 1.0) -> ProcedureResult:
    """Linear step-up cut at the largest p_(k) with p_(k) <= k * level / m.

    ``pi0_target`` inflates the level to alpha / pi0_target (capped at 1):
    1 gives the plain procedure, the true null proportion gives the
    oracle.  The reported FDR estimate at the threshold uses pi0_target.
    """
    alpha, pi0_target = check_open_unit("alpha", alpha), check_proportion("pi0_target", pi0_target)
    pi0 = Pi0Estimate(lam=float("nan"), value=pi0_target)
    level = min(alpha / pi0_target, 1.0)
    m = proc.m
    passing = proc.ordered <= np.arange(1, m + 1) * (level / m)
    last = _last_true(passing)
    if last < 0:
        return ProcedureResult(0.0, np.empty(0, dtype=np.int64), 0.0, pi0)
    threshold = float(proc.ordered[last])
    rejected = _rejection_set(proc, threshold)
    estimate = m * pi0_target * threshold / max(rejected.size, 1)
    return ProcedureResult(threshold, rejected, float(estimate), pi0)


def threshold_functional(proc: EmpiricalProcesses, pi0_star: float, alpha: float, kappa: float) -> float:
    """Largest cut-off in [0, kappa] whose FDR estimate stays at or below alpha.

    Scans the order statistics inside the rejection region step-up style;
    when the estimate at kappa itself is admissible the whole region
    qualifies and kappa is returned (same rejection set either way).
    Returns 0 when nothing qualifies.
    """
    pi0_star = check_pi0_star(pi0_star)
    alpha, kappa = check_open_unit("alpha", alpha), check_open_unit("kappa", kappa)
    m = proc.m
    n_region = proc.count_R(kappa)
    if m * pi0_star * kappa / max(n_region, 1) <= alpha:
        return kappa
    if n_region == 0:
        return 0.0
    head = proc.ordered[:n_region]
    last = _last_true(m * pi0_star * head <= alpha * np.arange(1, n_region + 1))
    return float(head[last]) if last >= 0 else 0.0


def dynamic_adaptive(proc: EmpiricalProcesses, rule: LambdaRule, alpha: float) -> ProcedureResult:
    """Select lambda, estimate pi0, threshold the truncated FDR estimate at ``rule.kappa``."""
    est = rule.select(proc)
    threshold = threshold_functional(proc, est.value, alpha, rule.kappa)
    rejected = _rejection_set(proc, threshold)
    estimate_at = fdr_hat_star(proc, est.value, threshold, rule.kappa)
    return ProcedureResult(float(threshold), rejected, float(estimate_at), est)


def run_procedure(
    rule: LambdaRule | StepUpRule, proc: EmpiricalProcesses, alpha: float, pi0: float | None = None
) -> ProcedureResult:
    """Run a procedure given as a rule that parse_rule_spec returned.

    ``bh`` and ``orc`` are the step-up baselines (``orc`` needs pi0, either
    given explicitly or derived from truth labels); every lambda rule is
    fed to the dynamic adaptive pipeline at its own kappa.
    """
    if rule == BH:
        return bh_step_up(proc, alpha)
    if rule == ORACLE:
        if pi0 is None:
            if proc.truth is None:
                raise MissingTruthLabels(
                    "orc needs the true null proportion: pass pi0 or supply truth labels"
                )
            pi0 = float(np.count_nonzero(proc.truth)) / proc.m
        return bh_step_up(proc, alpha, pi0)
    return dynamic_adaptive(proc, rule, alpha)
