"""Step-up thresholding: the plain procedure, the functional, the pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from dynfdr import (
    FixedRule,
    LowestSlopeRule,
    MissingTruthLabels,
    RightBoundaryRule,
    TWENTY_BIN_GRID,
    bh_step_up,
    dynamic_adaptive,
    fdr_hat_star,
    parse_rule_spec,
    pi0_storey_plus,
    run_procedure,
    sort_pvalues,
    threshold_functional,
)

from conftest import brute_force_threshold, naive_rejection_set, random_mixture_pvalues


def rule(spec, kappa=0.05):
    return parse_rule_spec(spec, kappa)


# -------------------------------------------------------------- step-up


def test_bh_hand_enumeration():
    proc = sort_pvalues([0.01, 0.02, 0.5, 0.9])
    res = bh_step_up(proc, 0.05)
    assert res.threshold == 0.02
    assert res.rejected.tolist() == [0, 1]
    assert res.fdr_estimate_at_threshold == pytest.approx(0.04)
    assert res.pi0.value == 1.0


def test_bh_nothing_passes():
    proc = sort_pvalues([1.0, 1.0, 1.0])
    res = bh_step_up(proc, 0.05)
    assert res.threshold == 0.0
    assert res.n_rejected == 0


def test_bh_inflated_level():
    proc = sort_pvalues([0.01, 0.02, 0.5, 0.9])
    res = bh_step_up(proc, 0.05, pi0_target=0.5)
    assert res.threshold == 0.02
    assert res.rejected.tolist() == [0, 1]
    assert res.pi0.value == 0.5


def test_bh_level_capped_at_one():
    proc = sort_pvalues([0.2, 0.9, 1.0])
    res = bh_step_up(proc, 0.9, pi0_target=0.5)  # 0.9 / 0.5 caps at level 1
    assert res.n_rejected == 3


def test_bh_ties_all_rejected():
    proc = sort_pvalues([0.01, 0.01, 0.01, 0.9])
    res = bh_step_up(proc, 0.05)
    assert res.rejected.tolist() == [0, 1, 2]


def test_bh_parameter_validation():
    proc = sort_pvalues([0.1])
    with pytest.raises(ValueError):
        bh_step_up(proc, 0.0)
    with pytest.raises(ValueError):
        bh_step_up(proc, 0.05, pi0_target=0.0)
    with pytest.raises(ValueError):
        bh_step_up(proc, 0.05, pi0_target=1.5)


# ------------------------------------------------------------- functional


def test_threshold_functional_empty_region():
    proc = sort_pvalues([0.3, 0.5, 0.9])
    t = threshold_functional(proc, 1.0, 0.05, 0.05)
    assert proc.count_R(t) == 0  # nothing to reject either way


def test_threshold_functional_single_small_pvalue():
    proc = sort_pvalues([0.0004] + [0.5] * 99)
    t = threshold_functional(proc, 1.0, 0.05, 0.05)
    assert t == pytest.approx(0.0004)
    assert proc.count_R(t) == 1


def test_threshold_functional_returns_kappa_when_region_admissible():
    proc = sort_pvalues([0.001] * 30 + [0.5] * 10)
    # estimate at kappa: 40 * 0.5 * 0.05 / 30 = 1/30 <= 0.1
    t = threshold_functional(proc, 0.5, 0.1, 0.05)
    assert t == 0.05


def test_threshold_functional_requires_positive_pi0():
    proc = sort_pvalues([0.1])
    with pytest.raises(ValueError):
        threshold_functional(proc, 0.0, 0.05, 0.05)


@pytest.mark.parametrize("pi0_star", [float("nan"), float("inf"), -0.5, True, "1"])
def test_pi0_star_must_be_a_finite_positive_number(pi0_star):
    # nan would otherwise give threshold 0.0 and an FDR estimate of nan
    proc = sort_pvalues([0.01, 0.3])
    with pytest.raises(ValueError, match="^pi0_star="):
        threshold_functional(proc, pi0_star, 0.05, 0.05)
    with pytest.raises(ValueError, match="^pi0_star="):
        fdr_hat_star(proc, pi0_star, 0.01, 0.05)


def test_threshold_functional_checks_alpha_and_kappa():
    proc = sort_pvalues([0.1])
    for alpha, kappa, message in ((0.0, 0.05, "alpha=0.0"), (1.0, 0.05, "alpha=1.0"), (0.05, 1.0, "kappa=1.0")):
        with pytest.raises(ValueError, match=f"{message} outside"):
            threshold_functional(proc, 1.0, alpha, kappa)


def test_threshold_functional_matches_brute_force():
    rng = np.random.default_rng(41)
    for trial in range(500):
        m = int(rng.integers(1, 13))
        pvals = np.round(rng.random(m), 3)
        alpha = float(rng.uniform(0.02, 0.3))
        kappa = float(rng.uniform(0.02, 0.4))
        pi0_star = float(rng.uniform(0.05, 2.0))
        proc = sort_pvalues(pvals)
        t_impl = threshold_functional(proc, pi0_star, alpha, kappa)
        t_oracle = brute_force_threshold(pvals, pi0_star, alpha, kappa)
        impl_set = naive_rejection_set(pvals, t_impl)
        oracle_set = naive_rejection_set(pvals, t_oracle)
        assert impl_set == oracle_set, f"trial {trial}: {t_impl} vs {t_oracle}"


# ---------------------------------------------------------------- pipeline


def test_dynamic_adaptive_records_everything():
    proc = sort_pvalues([0.001, 0.004, 0.2, 0.5, 0.6, 0.8])
    res = dynamic_adaptive(proc, RightBoundaryRule(TWENTY_BIN_GRID, 0.1), 0.1)
    assert res.pi0 is not None
    assert res.threshold <= 0.1
    assert set(res.rejected.tolist()) == {i for i, p in enumerate(proc.values) if p <= res.threshold}


def test_dominated_by_bh_when_estimate_large():
    # pi0* >= 1 and no order statistic under the step-up line: nothing rejected
    proc = sort_pvalues([0.04, 0.3, 0.5, 0.9])
    res = dynamic_adaptive(proc, LowestSlopeRule(0.05), 0.05)
    assert res.pi0.value >= 1.0
    assert res.n_rejected == 0


def test_rejections_never_exceed_kappa():
    rng = np.random.default_rng(42)
    rules = [
        FixedRule(0.5, 0.05),
        RightBoundaryRule(TWENTY_BIN_GRID, 0.05),
        LowestSlopeRule(0.05),
    ]
    for _ in range(100):
        pvals = random_mixture_pvalues(rng, int(rng.integers(5, 80)))
        for rule in rules:
            res = dynamic_adaptive(sort_pvalues(pvals), rule, 0.05)
            if res.n_rejected:
                assert pvals[res.rejected].max() <= rule.kappa


def test_smaller_pi0_rejects_more():
    rng = np.random.default_rng(43)
    for _ in range(200):
        pvals = random_mixture_pvalues(rng, int(rng.integers(5, 60)))
        proc = sort_pvalues(pvals)
        lo = float(rng.uniform(0.05, 0.8))
        hi = lo + float(rng.uniform(0.0, 1.0))
        t_lo = threshold_functional(proc, lo, 0.05, 0.05)
        t_hi = threshold_functional(proc, hi, 0.05, 0.05)
        set_lo = naive_rejection_set(pvals, t_lo)
        set_hi = naive_rejection_set(pvals, t_hi)
        assert set_hi <= set_lo


def test_dynamic_with_unit_pi0_agrees_with_bh_inside_region():
    rng = np.random.default_rng(44)
    alpha = kappa = 0.05
    agreements = 0
    for _ in range(300):
        pvals = random_mixture_pvalues(rng, int(rng.integers(5, 60)))
        proc = sort_pvalues(pvals)
        bh = bh_step_up(proc, alpha)
        if bh.threshold > kappa:
            continue
        t = threshold_functional(proc, 1.0, alpha, kappa)
        assert naive_rejection_set(pvals, t) == set(bh.rejected.tolist())
        agreements += 1
    assert agreements > 50  # the comparison actually fired


def test_fixed_rule_reproduces_inflated_step_up():
    # fixed-lambda pipeline == plain step-up at level alpha / pi0*(lambda),
    # whenever the step-up threshold lands inside the rejection region
    rng = np.random.default_rng(45)
    alpha = kappa = 0.05
    checked = 0
    for _ in range(500):
        pvals = random_mixture_pvalues(rng, int(rng.integers(5, 80)))
        proc = sort_pvalues(pvals)
        res = dynamic_adaptive(proc, FixedRule(0.5, kappa), alpha)
        pi0_star = res.pi0.value
        level = alpha / pi0_star
        if not 0.0 < level < 1.0:
            continue
        bh = bh_step_up(proc, level)
        if bh.threshold > kappa:
            continue
        assert set(bh.rejected.tolist()) == set(res.rejected.tolist())
        checked += 1
    assert checked > 100


# ------------------------------------------------------------ procedure ids


def test_run_procedure_dispatch():
    pvals = [0.01, 0.02, 0.5, 0.9]
    proc = sort_pvalues(pvals)
    bh = run_procedure(rule("bh"), proc, 0.05)
    assert bh.n_rejected == 2 and np.isnan(bh.pi0.lam)
    assert run_procedure(rule("rb20"), proc, 0.05).pi0.lam in TWENTY_BIN_GRID
    assert run_procedure(rule("lsl"), proc, 0.05).pi0 is not None


def test_run_procedure_runs_a_lambda_rule_at_its_own_kappa():
    # pi0* = 0.5, so the FDR estimate at kappa is 0.5 * kappa <= alpha and all of [0, kappa] qualifies
    proc = sort_pvalues([0.01, 0.02, 0.03, 0.04])
    for kappa in (0.05, 0.1):
        assert run_procedure(rule("fixed:0.5", kappa), proc, 0.05).threshold == kappa


def test_run_procedure_orc_needs_pi0():
    proc = sort_pvalues([0.01, 0.5])
    with pytest.raises(MissingTruthLabels):
        run_procedure(rule("orc"), proc, 0.05)
    res = run_procedure(rule("orc"), proc, 0.05, pi0=0.5)
    assert res.pi0.value == 0.5


def test_a_bool_pi0_is_not_a_number():
    # True would otherwise run the oracle at pi0 = 1
    proc = sort_pvalues([0.01, 0.5])
    with pytest.raises(ValueError, match="pi0_target=True is not a number"):
        bh_step_up(proc, 0.05, pi0_target=True)
    with pytest.raises(ValueError, match="pi0_target=True is not a number"):
        run_procedure(rule("orc"), proc, 0.05, pi0=True)


def test_run_procedure_orc_from_labels():
    proc = sort_pvalues([0.01, 0.5, 0.6, 0.9], truth=[False, True, True, True])
    res = run_procedure(rule("orc"), proc, 0.05)  # pi0 = 3/4 from the labels
    expected = bh_step_up(proc, 0.05, pi0_target=0.75)
    assert res.threshold == expected.threshold


def test_run_procedure_records_the_pi0_used():
    proc = sort_pvalues([0.01, 0.5, 0.6, 0.9], truth=[False, True, True, True])
    cases = [("bh", None, 1.0), ("orc", None, 0.75), ("orc", 0.5, 0.5)]
    for spec, pi0, expected in cases:
        res = run_procedure(rule(spec), proc, 0.05, pi0=pi0)
        assert np.isnan(res.pi0.lam) and res.pi0.value == expected
    res = run_procedure(rule("fixed:0.5"), proc, 0.05)
    assert res.pi0.lam == 0.5


def test_run_procedure_unknown_spec():
    # specs are parsed where they enter the program, so an unknown one never reaches run_procedure
    with pytest.raises(ValueError, match="unknown rule spec"):
        rule("bogus")
