"""Step-up thresholding: the plain procedure, the functional, the pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from dynfdr import (
    FixedRule,
    LowestSlopeRule,
    RightBoundaryRule,
    TWENTY_BIN_GRID,
    bh_step_up,
    dynamic_adaptive,
    fdr_hat_star,
    parse_rule_spec,
    pi0_storey_plus,
    procedures,
    run_procedure,
    selection,
    sort_pvalues,
    threshold_functional,
)

import test_properties
from conftest import (
    bootstrap_lambda_threshold,
    brute_force_threshold,
    dirac_uniform_enumerated_term,
    dirac_uniform_rb_term,
    equicorrelated_statistics,
    naive_rejection_set,
    random_mixture_pvalues,
)


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
    res = bh_step_up(proc, 0.9, pi0_target=0.5)  # alpha / pi0_target = 1.8, uncapped: 3 * 0.5 * 1.0 <= 0.9 * 3
    assert res.n_rejected == 3


def test_bh_ties_all_rejected():
    proc = sort_pvalues([0.01, 0.01, 0.01, 0.9])
    res = bh_step_up(proc, 0.05)
    assert res.rejected.tolist() == [0, 1, 2]


def test_all_alpha_ties_are_all_rejected_for_every_m():
    # at p = alpha / pi0 both sides of m * pi0 * p_(m) <= alpha * m are the same product
    orc = rule("orc")
    for m in range(1, 2001):
        assert bh_step_up(sort_pvalues(np.full(m, 0.05)), 0.05).n_rejected == m, m
        one_at_one = sort_pvalues(np.append(np.full(m - 1, 0.5), 1.0))
        assert run_procedure(orc, one_at_one, 0.05, pi0=0.05).n_rejected == m, m


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


# ----------------------------------------------------- mutants of the cut


def _mutant_cut(compare, first_rank):
    """``procedures._step_up`` with its comparison or its ranks changed."""

    def step_up(ordered, m, pi0, alpha):
        (hits,) = compare(m * pi0 * ordered, alpha * np.arange(first_rank, first_rank + ordered.size)).nonzero()
        return float(ordered[hits[-1]]) if hits.size else 0.0

    return step_up


# each mutant of the cut, and the check that catches it (and passes the real cut)
CUT_MUTANTS = {
    "strict comparison": (_mutant_cut(np.less, 1), test_all_alpha_ties_are_all_rejected_for_every_m),
    "rank + 1": (_mutant_cut(np.less_equal, 2), test_threshold_functional_matches_brute_force),
    "rank - 1": (_mutant_cut(np.less_equal, 0), test_bh_hand_enumeration),
}


@pytest.mark.parametrize("mutant", CUT_MUTANTS)
def test_each_mutant_of_the_cut_fails_its_check(mutant, monkeypatch):
    cut, check = CUT_MUTANTS[mutant]
    check()
    monkeypatch.setattr(procedures, "_step_up", cut)
    with pytest.raises(AssertionError):
        check()


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
    # orc takes pi0 from the caller alone: truth labels, even with a true null among them, give none
    for truth in (None, [False, True], [False, False]):
        proc = sort_pvalues([0.01, 0.5], truth=truth)
        with pytest.raises(ValueError, match=r"^orc needs pi0, the true null proportion$"):
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


def test_run_procedure_records_the_pi0_used():
    proc = sort_pvalues([0.01, 0.5, 0.6, 0.9], truth=[False, True, True, True])
    cases = [("bh", None, 1.0), ("orc", 0.75, 0.75), ("orc", 0.5, 0.5)]
    for spec, pi0, expected in cases:
        res = run_procedure(rule(spec), proc, 0.05, pi0=pi0)
        assert np.isnan(res.pi0.lam) and res.pi0.value == expected
    res = run_procedure(rule("fixed:0.5"), proc, 0.05)
    assert res.pi0.lam == 0.5


_EVERY_RULE_KIND = ("bh", "orc", "fixed:0.5", "rb20", "rb:0.1,0.3", "lsl", "kq:median", "kq:2", "rb20q", "rbq:0.5,0.6,0.7,0.8,0.9")


@pytest.mark.parametrize("spec", _EVERY_RULE_KIND)
@pytest.mark.parametrize("alpha", [0.0, 1.0, float("nan")])
def test_run_procedure_checks_alpha_for_every_rule_kind(spec, alpha):
    # orc runs at the given pi0, and every other rule ignores it
    proc = sort_pvalues([0.01, 0.02, 0.3, 0.6, 0.9], truth=[False, False, True, True, True])
    with pytest.raises(ValueError, match=rf"^alpha={alpha} outside \(0, 1\)$"):
        run_procedure(rule(spec), proc, alpha, pi0=0.6)


def test_fresh_step_up_rules_run_as_bh_and_orc():
    # run_procedure dispatches on the rule's type and flag, not on the identity of BH and ORACLE
    proc = sort_pvalues([0.001, 0.01, 0.02, 0.3, 0.6, 0.9], truth=[False, False, True, True, True, True])
    for fresh, spec in ((selection.StepUpRule(), "bh"), (selection.StepUpRule(oracle=True), "orc")):
        assert fresh is not rule(spec)
        for pi0 in (4 / 6, 0.5) if spec == "orc" else (None,):
            got, want = run_procedure(fresh, proc, 0.05, pi0), run_procedure(rule(spec), proc, 0.05, pi0)
            assert got.threshold == want.threshold and np.array_equal(got.rejected, want.rejected)
            assert got.pi0.value == want.pi0.value and np.isnan(got.pi0.lam)
    with pytest.raises(ValueError, match=r"^orc needs pi0, the true null proportion$"):
        run_procedure(selection.StepUpRule(oracle=True), proc, 0.05)


def test_right_boundary_grids_scan_their_own_candidates():
    # two grids in one process, each run twice: a candidate cache with the wrong key would mix them
    proc = sort_pvalues(np.linspace(0.0005, 0.9995, 1000) ** 2)
    grids = {"rb:0.1,0.3,0.6": (0.0, 0.1, 0.3, 0.6), "rb:0.2,0.4,0.6,0.8": (0.0, 0.2, 0.4, 0.6, 0.8)}
    for _ in range(2):
        for spec, candidates in grids.items():
            trace = rule(spec).select(proc).trace
            assert trace[:, 0].tolist() == list(candidates[: len(trace)])
            assert len(trace) >= 2 and not trace.flags.writeable and trace.dtype == np.float64


def test_run_procedure_unknown_spec():
    # specs are parsed where they enter the program, so an unknown one never reaches run_procedure
    with pytest.raises(ValueError, match="^invalid procedure spec 'bogus': unknown procedure; valid specs: "):
        rule("bogus")


# ------------------------------------------------ limits of the guarantee


def test_a_lambda_that_is_no_stopping_time_loses_control():
    # Dirac-uniform: the m1 false nulls sit at p = 0, the m0 nulls are uniform.  The bootstrap
    # lambda depends on the p-values above it too, so it is no stopping time, and its FDR
    # exceeds alpha by more than 3 SE; fixed:0.5 on the same draws does not
    m, m1, alpha, n_reps = 20, 4, 0.05, 4000
    rng = np.random.default_rng(5)
    fixed = rule("fixed:0.5", alpha)
    truth = np.arange(m) >= m1
    fdp = np.empty((2, n_reps))
    for j in range(n_reps):
        proc = sort_pvalues(np.concatenate([np.zeros(m1), rng.random(m - m1)]), truth)
        thresholds = (bootstrap_lambda_threshold(proc, rng, alpha, alpha), run_procedure(fixed, proc, alpha).threshold)
        for i, t in enumerate(thresholds):
            rejected = proc.values <= t
            fdp[i, j] = np.count_nonzero(rejected & truth) / max(np.count_nonzero(rejected), 1)
    mean, se = fdp.mean(axis=1), fdp.std(axis=1, ddof=1) / np.sqrt(n_reps)
    assert mean[0] > alpha + 3.0 * se[0], (mean, se)
    assert mean[1] <= alpha + 3.0 * se[1], (mean, se)


def test_an_argmin_lambda_breaks_the_proofs_middle_step():
    # Dirac-uniform again.  The argmin rule takes the grid point >= kappa with the smallest
    # plus-one estimate; it reads every grid point, so it is no stopping time, and its exact
    # middle term (alpha/kappa) E[V(kappa) / (m pi0*)] exceeds the optional-stopping bound
    # alpha (1 - kappa^m0).  rb on the same grid stays below it
    grid, alpha = (0.05, 0.25, 0.5, 0.75), 0.05
    for (m, m1), expected in {(5, 1): 0.0598, (10, 1): 0.0627, (12, 2): 0.0627}.items():
        bound = alpha * (1.0 - alpha ** (m - m1))
        argmin = dirac_uniform_enumerated_term(
            lambda proc: min(pi0_storey_plus(proc, g) for g in grid), grid, m, m1, alpha, alpha
        )
        assert argmin > bound and argmin == pytest.approx(expected, abs=1e-4), (m, m1, argmin)
        assert dirac_uniform_rb_term(grid, m, m1, alpha, alpha) <= bound + 1e-12, (m, m1)


def test_adaptive_rules_lose_control_under_a_common_factor():
    # one-factor dependence at rho = 0.5 breaks the theorem's independence hypothesis.  bh and orc,
    # valid under positive dependence, stay within 3 SE of alpha, and so does lsl; rb20 and
    # fixed:0.5, whose pi0 estimates swing with the common factor, exceed alpha by more than 3 SE
    m, m1, mu, rho, alpha, n_reps = 1000, 200, 1.0, 0.5, 0.05, 2000
    specs = ("bh", "orc", "lsl", "rb20", "fixed:0.5")
    rules = [rule(s, alpha) for s in specs]
    fdp = np.empty((len(specs), n_reps))
    for j in range(n_reps):
        proc = equicorrelated_statistics(m, m1, mu, rho, np.random.default_rng([99, j]))
        for i, r in enumerate(rules):
            rejected = run_procedure(r, proc, alpha, (m - m1) / m).rejected  # orc's pi0; the rest ignore it
            fdp[i, j] = np.count_nonzero(proc.truth[rejected]) / max(rejected.size, 1)
    mean, se = fdp.mean(axis=1), fdp.std(axis=1, ddof=1) / np.sqrt(n_reps)
    within = dict(zip(specs, mean <= alpha + 3.0 * se))
    assert within == {"bh": True, "orc": True, "lsl": True, "rb20": False, "fixed:0.5": False}, (mean, se)


# ------------------------------------------ mutants of the scan and the region


_FIRST_STOP = selection._first_stop


def _non_strict_first_stop(candidates, estimates, kappa, strict):
    """``selection._first_stop`` with lsl's strict comparison made non-strict (rb's already is)."""
    return _FIRST_STOP(candidates, estimates, kappa, strict=False)


def _no_kappa_shortcut(proc, pi0_star, alpha, kappa):
    """``procedures.threshold_functional`` without its kappa shortcut: always the step-up scan inside [0, kappa]."""
    return procedures._step_up(proc.ordered[: proc.count_R(kappa)], proc.m, pi0_star, alpha)


# as CUT_MUTANTS: each mutant, the module attribute it replaces, and the check that catches it
# (and passes the real code), whose oracle the patch leaves alone: full_lowest_slope never calls
# _first_stop, and the run_procedure check's oracle is kappa itself
SCAN_MUTANTS = {
    "lsl non-strict": (selection, "_first_stop", _non_strict_first_stop, test_properties.test_trimmed_scans_equal_the_full_scans),
    "no kappa shortcut": (procedures, "threshold_functional", _no_kappa_shortcut, test_run_procedure_runs_a_lambda_rule_at_its_own_kappa),
}


@pytest.mark.parametrize("mutant", SCAN_MUTANTS)
def test_each_mutant_of_the_scan_fails_its_check(mutant, monkeypatch):
    module, name, replacement, check = SCAN_MUTANTS[mutant]
    check()
    monkeypatch.setattr(module, name, replacement)
    with pytest.raises(AssertionError):
        check()
