"""pi0 estimators and the truncated FDR estimator."""

from __future__ import annotations

import numpy as np
import pytest

from dynfdr import (
    fdr_hat_star,
    parse_rule_spec,
    pi0_storey,
    pi0_storey_plus,
    run_procedure,
    sort_pvalues,
)


def test_pi0_storey_direct_substitution():
    # m = 10 with R(0.5) = 6
    proc = sort_pvalues([0.1] * 6 + [0.6] * 4)
    assert pi0_storey(proc, 0.5) == pytest.approx(0.8)


def test_pi0_storey_all_below_lambda():
    proc = sort_pvalues([0.1, 0.2, 0.3])
    assert pi0_storey(proc, 0.5) == 0.0


def test_pi0_storey_above_one_is_legal():
    # m = 4 with R(0.75) = 1
    proc = sort_pvalues([0.1, 0.8, 0.9, 0.95])
    assert pi0_storey(proc, 0.75) == pytest.approx(3.0)


def test_pi0_storey_plus_direct_substitution():
    proc = sort_pvalues([0.1] * 6 + [0.6] * 4)
    assert pi0_storey_plus(proc, 0.5) == pytest.approx(1.0)


def test_pi0_storey_plus_floor():
    proc = sort_pvalues([0.1] * 10)
    assert pi0_storey_plus(proc, 0.5) == pytest.approx(0.2)
    assert pi0_storey_plus(proc, 0.5) > 0.0


def test_pi0_storey_plus_hand_value():
    # m = 8 with R(0.25) = 3
    proc = sort_pvalues([0.1] * 3 + [0.3] * 5)
    assert pi0_storey_plus(proc, 0.25) == pytest.approx(1.0)


@pytest.mark.parametrize("fn", [pi0_storey, pi0_storey_plus])
def test_lambda_domain(fn):
    proc = sort_pvalues([0.1, 0.2])
    fn(proc, 0.0)  # lambda = 0 is legal
    with pytest.raises(ValueError):
        fn(proc, 1.0)
    with pytest.raises(ValueError):
        fn(proc, -0.2)


@pytest.mark.parametrize("lam", ["0.5", False])
@pytest.mark.parametrize("fn", [pi0_storey, pi0_storey_plus])
def test_lambda_must_be_a_number(fn, lam):
    proc = sort_pvalues([0.1, 0.2])
    with pytest.raises(ValueError, match=f"lambda={lam!r} is not a number"):
        fn(proc, lam)


def test_plus_minus_gap_is_exact():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m = int(rng.integers(1, 200))
        proc = sort_pvalues(rng.random(m))
        for lam in np.arange(0.0, 1.0, 0.05):
            lam = float(lam)
            gap = pi0_storey_plus(proc, lam) - pi0_storey(proc, lam)
            assert gap == pytest.approx(1.0 / ((1.0 - lam) * m), rel=0, abs=1e-15)


def test_fdr_hat_star_direct():
    # m = 100, R(0.01) = 5
    proc = sort_pvalues([0.005] * 5 + [0.5] * 95)
    assert fdr_hat_star(proc, 0.5, 0.01, 0.05) == pytest.approx(0.1)


def test_fdr_hat_star_is_one_beyond_kappa():
    proc = sort_pvalues([0.005, 0.5])
    assert fdr_hat_star(proc, 0.5, 0.1, 0.05) == 1.0


def test_fdr_hat_star_zero_at_zero():
    proc = sort_pvalues([0.3, 0.6])
    assert fdr_hat_star(proc, 1.2, 0.0, 0.05) == 0.0


def test_fdr_hat_star_domain():
    proc = sort_pvalues([0.3])
    with pytest.raises(ValueError):
        fdr_hat_star(proc, 0.0, 0.01, 0.05)
    with pytest.raises(ValueError):
        fdr_hat_star(proc, 1.0, 1.5, 0.05)


@pytest.mark.parametrize("t", ["0.01", True])
def test_fdr_hat_star_cutoff_must_be_a_number(t):
    proc = sort_pvalues([0.3])
    with pytest.raises(ValueError, match=f"t={t!r} is not a number"):
        fdr_hat_star(proc, 1.0, t, 0.05)


def test_fdr_hat_star_nondecreasing_between_order_statistics():
    rng = np.random.default_rng(22)
    kappa = 0.3
    for _ in range(10):
        pvals = np.sort(rng.random(30))
        proc = sort_pvalues(pvals)
        cuts = [0.0] + [p for p in pvals if p <= kappa] + [kappa]
        for a, b in zip(cuts, cuts[1:]):
            ts = np.linspace(a, b, 6)[:-1]  # stay left of the next jump
            vals = [fdr_hat_star(proc, 0.8, float(t), kappa) for t in ts]
            assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))


def test_config_validation():
    # the FDR estimate checks the rejection-region bound it is handed
    proc = sort_pvalues([0.3])
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError, match=f"kappa={bad} outside"):
            fdr_hat_star(proc, 1.0, 0.01, bad)


def test_plus_estimator_conservative_under_null():
    # uniform null-only samples: the plus estimator must not undershoot 1 on average
    rng = np.random.default_rng(23)
    m, reps = 40, 10_000
    lambdas = np.arange(0.05, 1.0, 0.05)
    counts = (rng.random((reps, m))[:, :, None] <= lambdas).sum(axis=1)
    estimates = (m - counts + 1) / ((1.0 - lambdas) * m)
    # spot-check the vectorized formula against the library function
    proc = sort_pvalues(rng.random(m))
    for lam in (0.05, 0.5, 0.95):
        r = proc.count_R(float(lam))
        assert pi0_storey_plus(proc, float(lam)) == pytest.approx((m - r + 1) / ((1 - lam) * m))
    for idx, lam in enumerate(lambdas):
        col = estimates[:, idx]
        mean, se = col.mean(), col.std(ddof=1) / np.sqrt(reps)
        assert mean >= 1.0 - 3.0 * se, f"lambda={lam:.2f}: mean {mean:.4f} undershoots"


@pytest.mark.parametrize("spec", ["bh", "rb20"])
def test_estimates_compare_field_wise_like_procedure_results(spec):
    # both dataclasses hold an array, so neither hashes; equal objects compare equal
    res = run_procedure(parse_rule_spec(spec, 0.05), sort_pvalues([0.01, 0.2, 0.6, 0.9]), 0.05)
    for obj in (res, res.pi0):
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
        assert obj == obj
