"""Lambda selection rules: worked examples, fallbacks, stopping behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from dynfdr import (
    FixedRule,
    KQuantileRule,
    LowestSlopeRule,
    RightBoundaryQuantileRule,
    RightBoundaryRule,
    StepUpRule,
    TWENTY_BIN_GRID,
    evenly_spaced_grid,
    parse_rule_spec,
    pi0_storey_plus,
    sort_pvalues,
)

from conftest import random_mixture_pvalues


EIGHT_POINT = [0.01, 0.02, 0.03, 0.3, 0.4, 0.6, 0.8, 0.9]


# ---------------------------------------------------------------- fixed


def test_fixed_is_identity():
    proc = sort_pvalues(EIGHT_POINT)
    assert FixedRule(0.5, 0.05).select(proc).lam == 0.5
    assert FixedRule(0.95, 0.05).select(proc).lam == 0.95


def test_fixed_rejects_lambda_outside_range():
    with pytest.raises(ValueError):
        FixedRule(lam=0.02, kappa=0.05)
    with pytest.raises(ValueError):
        FixedRule(lam=1.0, kappa=0.05)
    with pytest.raises(ValueError, match="lam='0.5' is not a number"):
        FixedRule(lam="0.5", kappa=0.05)


# ---------------------------------------------------------- right boundary


def test_right_boundary_hand_example_storey_comparison():
    # the plain-variant comparison: 1 at 0, 5/6 at 0.25, 0.75 at 0.5, 1.0 at 0.75 stops
    proc = sort_pvalues(EIGHT_POINT)
    est = RightBoundaryRule((0.25, 0.5, 0.75), 0.05).select(proc)
    assert est.lam == 0.75
    assert est.value == pytest.approx(1.5)  # reported value is the plus variant


def test_right_boundary_stops_at_first_candidate():
    # all mass above the grid: the first comparison already levels off
    proc = sort_pvalues([0.99] * 4)
    est = RightBoundaryRule((0.25, 0.5), 0.05).select(proc)
    assert est.lam == 0.25
    assert est.trace[0].tolist() == [0.0, 1.0]
    assert est.trace[1][1] == pytest.approx(4.0 / 3.0)


def test_right_boundary_no_stop_falls_back_to_last_point():
    # the plain estimates strictly decrease over the scan: 1, 0.9375, 5/6, 0.625, 0
    pvals = [0.74, 0.27, 0.75, 0.3, 0.42, 0.08, 0.14, 0.5]
    proc = sort_pvalues(pvals)
    est = RightBoundaryRule((0.2, 0.4, 0.6, 0.8), 0.05).select(proc)
    scanned = [v for _, v in est.trace]
    assert all(b < a for a, b in zip(scanned, scanned[1:]))
    assert est.lam == 0.8


def test_right_boundary_empty_grid_is_config_error():
    with pytest.raises(ValueError, match="empty"):
        RightBoundaryRule(grid=(), kappa=0.05)


def test_right_boundary_skips_candidates_below_kappa():
    # 0.1 is below kappa=0.2 so it may only serve as a comparison baseline
    proc = sort_pvalues([0.99] * 4)
    est = RightBoundaryRule((0.1, 0.3, 0.6), 0.2).select(proc)
    assert est.lam == 0.3


def test_right_boundary_singleton_grid_equals_fixed():
    rng = np.random.default_rng(31)
    for _ in range(50):
        pvals = random_mixture_pvalues(rng, int(rng.integers(5, 60)))
        proc = sort_pvalues(pvals)
        point = float(rng.uniform(0.1, 0.9))
        a = RightBoundaryRule((point,), 0.05).select(proc)
        b = FixedRule(point, 0.05).select(proc)
        assert a.lam == b.lam
        assert a.value == b.value


def test_right_boundary_value_is_always_plus_variant():
    rng = np.random.default_rng(32)
    for _ in range(2):
        pvals = random_mixture_pvalues(rng, 40)
        proc = sort_pvalues(pvals)
        est = RightBoundaryRule(TWENTY_BIN_GRID, 0.05).select(proc)
        assert est.value == pytest.approx(pi0_storey_plus(proc, est.lam))


# ------------------------------------------------------------ lowest slope


def test_lowest_slope_hand_example():
    proc = sort_pvalues([0.1, 0.2, 0.7, 0.8])
    est = LowestSlopeRule(0.05).select(proc)
    assert est.lam == 0.7
    assert est.flags == ()
    traced = [(round(lam, 3), round(v, 4)) for lam, v in est.trace]
    assert traced == [(0.1, 1.1111), (0.2, 0.9375), (0.7, 1.6667)]


def test_lowest_slope_fallback_largest_order_statistic():
    proc = sort_pvalues([0.3, 0.6])
    est = LowestSlopeRule(0.05).select(proc)
    assert est.lam == 0.6
    assert est.flags == ("fallback-largest-order-statistic",)


def test_lowest_slope_fallback_kappa():
    proc = sort_pvalues([0.01, 0.02, 0.03])
    est = LowestSlopeRule(0.05).select(proc)
    assert est.lam == 0.05
    assert est.flags == ("fallback-kappa",)


def test_lowest_slope_needs_two_pvalues():
    with pytest.raises(ValueError):
        LowestSlopeRule(0.05).select(sort_pvalues([0.4]))


def test_lowest_slope_ignores_ones():
    # values pinned at 1 cannot be selected nor stop the scan
    proc = sort_pvalues([0.2, 0.5, 1.0, 1.0])
    est = LowestSlopeRule(0.05).select(proc)
    assert est.lam < 1.0


# -------------------------------------------------------------- k-quantile


def test_k_quantile_median_recommendation():
    proc = sort_pvalues([0.9, 0.4, 0.05, 0.6, 0.1, 0.7, 0.8])  # p_(3) = 0.4, k = floor(7/2)
    est = KQuantileRule(None, 0.05).select(proc)
    assert est.lam == 0.4


def test_k_quantile_clamps_to_kappa():
    proc = sort_pvalues([0.01, 0.01, 0.01, 0.9])
    est = KQuantileRule(2, 0.05).select(proc)
    assert est.lam == 0.05


def test_k_quantile_upper_clamp():
    proc = sort_pvalues([0.2, 1.0, 1.0, 1.0])
    est = KQuantileRule(4, 0.05).select(proc)
    assert est.lam == pytest.approx(1.0 - 1.0 / 4.0)
    assert est.flags == ("clamped-below-one",)


@pytest.mark.parametrize("k", [2.7, 2.0, True, "2"])
def test_k_quantile_index_must_be_an_integer(k):
    with pytest.raises(ValueError, match="k=.* is not an integer"):
        KQuantileRule(k=k, kappa=0.05)


def test_k_quantile_index_accepts_a_numpy_integer():
    rule = KQuantileRule(k=np.int64(2), kappa=0.05)
    assert rule.k == 2 and type(rule.k) is int


def test_k_quantile_range_errors():
    proc = sort_pvalues([0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        KQuantileRule(k=0, kappa=0.05)
    with pytest.raises(ValueError):
        KQuantileRule(4, 0.05).select(proc)


# ------------------------------------------------- right-boundary quantile


def test_rbq_rank_arithmetic():
    # m = 20, levels (0.25, 0.5, 0.75) -> order statistics 5, 10, 15
    pvals = [round(0.04 * i + 0.02, 4) for i in range(1, 21)]
    proc = sort_pvalues(pvals)
    est = RightBoundaryQuantileRule((0.25, 0.5, 0.75), 0.05).select(proc)
    sp = np.sort(pvals)
    expected_grid = [sp[4], sp[9], sp[14]]
    examined = [lam for lam, _ in est.trace[1:]]
    assert examined == expected_grid[: len(examined)]
    assert est.lam in expected_grid


def test_rbq_stops_at_first_surviving_quantile():
    proc = sort_pvalues([0.2, 0.3, 0.35, 0.45, 0.55, 0.65, 0.8, 0.9])
    est = RightBoundaryQuantileRule((0.25, 0.5, 0.75), 0.05).select(proc)
    assert est.lam == 0.3  # q_{0.25} = p_(2)
    assert est.trace.tolist() == [[0.0, 1.0], [0.3, pytest.approx(15.0 / 14.0)]]


def test_rbq_all_below_kappa_falls_back():
    proc = sort_pvalues([0.001, 0.002, 0.003, 0.004])
    est = RightBoundaryQuantileRule((0.25, 0.5, 0.75), 0.05).select(proc)
    assert est.lam == 0.05
    assert est.flags == ("empty-grid-fallback",)


def test_rbq_grid_deduplicated_and_ascending():
    rng = np.random.default_rng(33)
    for _ in range(50):
        pvals = np.round(random_mixture_pvalues(rng, 30), 2)  # coarse => duplicate quantiles
        proc = sort_pvalues(pvals)
        est = RightBoundaryQuantileRule(TWENTY_BIN_GRID, 0.05).select(proc)
        examined = [lam for lam, _ in est.trace[1:]]
        assert all(a < b for a, b in zip(examined, examined[1:]))


# ----------------------------------------------------------- rule algebra


def test_every_rule_returns_admissible_lambda():
    rng = np.random.default_rng(34)
    kappa = 0.05
    rules = [
        FixedRule(0.5, kappa),
        RightBoundaryRule(TWENTY_BIN_GRID, kappa),
        LowestSlopeRule(kappa),
        KQuantileRule(None, kappa),
        RightBoundaryQuantileRule(TWENTY_BIN_GRID, kappa),
    ]
    for _ in range(40):
        pvals = random_mixture_pvalues(rng, int(rng.integers(4, 80)))
        proc = sort_pvalues(pvals)
        for rule in rules:
            est = rule.select(proc)
            assert kappa <= est.lam < 1.0, (rule, est.lam)


def _rerun_with_tail_resampled(rng, pvals, chosen, rule_fn):
    """Replace every p-value strictly above the chosen lambda by a fresh
    value still above it (and below 1), and re-run the rule."""
    redrawn = pvals.copy()
    mask = redrawn > chosen
    if mask.any():
        u = rng.uniform(0.05, 1.0, size=int(mask.sum()))
        redrawn[mask] = chosen + (1.0 - chosen) * u
    return rule_fn(sort_pvalues(redrawn))


def _with_ties(rng, pvals):
    """Round to one or two decimals and pin a few entries at exactly 0 and 1."""
    tied = np.round(pvals, int(rng.integers(1, 3)))
    m = tied.size
    tied[rng.integers(0, m, size=int(rng.integers(0, 3)))] = 0.0
    tied[rng.integers(0, m, size=int(rng.integers(0, 3)))] = 1.0
    return tied


def test_stopping_rules_ignore_the_tail():
    # the decision must depend only on counts at or below the chosen lambda
    rng = np.random.default_rng(35)
    kappa = 0.05
    rules = {
        "fixed:0.5": FixedRule(0.5, kappa),
        "rb20": RightBoundaryRule(TWENTY_BIN_GRID, kappa),
        "lsl": LowestSlopeRule(kappa),
        "kq:median": KQuantileRule(None, kappa),
        "rb20q": RightBoundaryQuantileRule(TWENTY_BIN_GRID, kappa),
    }
    checked = {spec: [0, 0] for spec in rules}  # runs on [continuous, tied] inputs
    for trial in range(1000):
        pvals = random_mixture_pvalues(rng, int(rng.integers(5, 50)))
        tied = trial % 2
        if tied:
            pvals = _with_ties(rng, pvals)
        proc = sort_pvalues(pvals)
        for spec, rule in rules.items():
            est = rule.select(proc)
            if est.flags:
                continue  # a flagged fallback or clamp may look past lambda
            redone = _rerun_with_tail_resampled(rng, pvals, est.lam, rule.select)
            assert redone.lam == est.lam, f"trial {trial}, {spec}: {est.lam} -> {redone.lam}"
            assert redone.value == pytest.approx(est.value)
            checked[spec][tied] += 1
    for spec, counts in checked.items():
        assert min(counts) >= 100, (spec, counts)  # every rule was exercised on both kinds


def test_rbq_flags_a_quantile_at_one():
    # q_0.75 = 1 drops out of the grid and the scan falls back to 0.4; with
    # 0.95 in its place lambda is 0.95, so the choice looked past lambda
    rule = RightBoundaryQuantileRule((0.25, 0.5, 0.75), 0.05)
    at_one = rule.select(sort_pvalues([0.2, 0.4, 1.0, 1.0]))
    assert (at_one.lam, at_one.flags) == (0.4, ("quantile-at-one",))
    below_one = rule.select(sort_pvalues([0.2, 0.4, 0.95, 0.95]))
    assert (below_one.lam, below_one.flags) == (0.95, ())


# ------------------------------------------------------------ string specs


def test_parse_rule_spec_shorthands():
    assert parse_rule_spec("rb20", 0.05) == RightBoundaryRule(TWENTY_BIN_GRID, 0.05)
    assert parse_rule_spec("rb20q", 0.05) == RightBoundaryQuantileRule(TWENTY_BIN_GRID, 0.05)


def test_parse_rule_spec_step_up_baselines():
    for spec, oracle in (("bh", False), (" orc ", True)):
        rule = parse_rule_spec(spec, 0.05)
        assert rule == StepUpRule(oracle=oracle)
        assert parse_rule_spec(spec, 0.2) == rule  # no lambda, so kappa plays no part


def test_parse_rule_spec_rejects_unknown():
    for bad in ("nope", "fixed:", "fixed:abc", "kq:1.5", "rb:0.5:0.1"):
        with pytest.raises(ValueError):
            parse_rule_spec(bad, 0.05)


def test_evenly_spaced_grid():
    grid = evenly_spaced_grid(0.05, 0.05, 0.95)
    assert len(grid) == 19
    assert grid[0] == 0.05 and grid[-1] == 0.95
    assert grid[5] == 0.3  # no float drift
