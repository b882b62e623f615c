"""Theory checks: exact binomial bound, supermartingale, control, conservativeness."""

from __future__ import annotations

import csv
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dynfdr import TWENTY_BIN_GRID, BlockAR, ScenarioConfig, parse_rule_spec, sort_pvalues, verify
from dynfdr.verify import (
    _DRAW_BLOCK,
    CheckResult,
    all_passed,
    conservative_estimation_check,
    fdr_control_check,
    format_report,
    lemma2_exact_check,
    run_suite,
    supermartingale_check,
    write_report_csv,
)

from conftest import (
    dirac_uniform_enumerated_term,
    dirac_uniform_fixed_term,
    dirac_uniform_rb_term,
    one_shot_supermartingale_check,
    reference_normal_cdf,
)


# ------------------------------------ reference normal CDF (the oracle in conftest)


def test_reference_cdf_known_values():
    assert reference_normal_cdf(0.0) == 0.5
    # textbook value for the two-sided 5% point
    assert reference_normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-12)
    assert reference_normal_cdf(-1.96) == pytest.approx(0.0249978951482205, abs=1e-12)


def test_reference_cdf_symmetry_and_monotonicity():
    xs = [0.1, 0.7, 1.3, 2.9, 3.0, 3.1, 5.5, 7.9]
    for x in xs:
        assert reference_normal_cdf(x) + reference_normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)
    values = [reference_normal_cdf(x) for x in [-8, -3, -1, 0, 1, 3, 8]]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_reference_cdf_rejects_nan():
    with pytest.raises(ValueError):
        reference_normal_cdf(float("nan"))


# --------------------------------------------------------- binomial bound


def test_lemma2_two_term_sums():
    by_n = {r.check: r for r in lemma2_exact_check()}
    r1 = by_n["lemma2(n=1,p=0.5)"]
    assert r1.statistic == pytest.approx(0.75)
    assert r1.bound == pytest.approx(1.0)
    assert r1.passed
    r2 = by_n["lemma2(n=2,p=0.5)"]
    assert r2.statistic == pytest.approx(0.25 / 3 + 0.5 / 2 + 0.25)
    assert r2.bound == pytest.approx(1.0 / 1.5)
    assert r2.passed


def test_lemma2_full_grid_holds():
    results = lemma2_exact_check()
    assert len(results) == 60 * 19
    assert all_passed(results)


def test_lemma2_statistics_equal_the_closed_form():
    # E[1/(n - X + 1)] = (1 - p^(n+1)) / ((n+1)(1 - p)) for X ~ BIN(n, p)
    results = lemma2_exact_check()
    cases = [(n, p) for n in range(1, 61) for p in TWENTY_BIN_GRID]
    assert len(results) == len(cases)
    for r, (n, p) in zip(results, cases):
        assert r.check == f"lemma2(n={n},p={p:g})"
        assert r.statistic == pytest.approx((1.0 - p ** (n + 1)) / ((n + 1) * (1.0 - p)), rel=1e-12, abs=0.0)


def test_lemma2_sum_is_the_closed_form_exactly():
    for n in range(1, 21):
        for k in range(1, 20):
            p = Fraction(k, 20)
            total = sum(math.comb(n, x) * p**x * (1 - p) ** (n - x) / (n - x + 1) for x in range(n + 1))
            assert total == (1 - p ** (n + 1)) / ((n + 1) * (1 - p)), (n, p)


# --------------------------------------------------------- supermartingale


def test_supermartingale_terminal_value():
    results = supermartingale_check(m0=10, s=0.3, t=1.0, draws=2000, seed=1)
    terminal = [r for r in results if "terminal" in r.check]
    assert terminal and terminal[0].statistic == 0.0
    assert all_passed(results)


def test_supermartingale_s_equals_t_is_identity():
    results = supermartingale_check(m0=10, s=0.4, t=0.4, draws=5000, seed=2)
    for r in results:
        if "V(s)=" in r.check and not r.detail.startswith("skipped"):
            assert r.statistic == pytest.approx(r.bound)
        assert r.passed


def test_supermartingale_monte_carlo_case():
    results = supermartingale_check(m0=50, s=0.2, t=0.6, draws=100_000, seed=3)
    assert all_passed(results)
    checked = [r for r in results if not r.detail.startswith("skipped") and "V(s)=" in r.check]
    assert len(checked) >= 5


def test_supermartingale_reports_thin_strata():
    results = supermartingale_check(m0=50, s=0.5, t=0.9, draws=2000, seed=4)
    skipped = [r for r in results if r.detail.startswith("skipped")]
    assert skipped  # the binomial tails are too thin at 2000 draws
    assert all(r.passed for r in skipped)


def test_supermartingale_input_validation():
    with pytest.raises(ValueError):
        supermartingale_check(m0=0, s=0.2, t=0.6)
    with pytest.raises(ValueError):
        supermartingale_check(m0=5, s=0.7, t=0.6)


@pytest.mark.parametrize("field, value", [("s", "0.2"), ("s", True), ("t", "0.6"), ("t", True)])
def test_supermartingale_times_must_be_numbers(field, value):
    args = {"m0": 10, "s": 0.2, "t": 0.6, "draws": 100, field: value}
    with pytest.raises(ValueError, match=f"{field}={value!r} is not a number"):
        supermartingale_check(**args)


@pytest.mark.parametrize(
    "field, value", [("m0", 10.5), ("m0", True), ("m0", "10"), ("draws", 2.5), ("draws", False), ("draws", np.float64(100))]
)
def test_supermartingale_sizes_must_be_integers(field, value):
    args = {"m0": 10, "s": 0.2, "t": 0.6, "draws": 100, "seed": 1, field: value}
    with pytest.raises(ValueError, match=f"{field}=.* is not an integer"):
        supermartingale_check(**args)


@pytest.mark.parametrize("seed", [1.5, True, np.float64(1), "1"])
def test_supermartingale_seed_must_be_an_integer(seed):
    with pytest.raises(ValueError, match="seed=.* is not an integer"):
        supermartingale_check(m0=10, s=0.2, t=0.6, draws=100, seed=seed)


def test_supermartingale_seed_must_not_be_negative():
    with pytest.raises(ValueError, match="seed=-1 must be >= 0"):
        supermartingale_check(m0=10, s=0.2, t=0.6, draws=100, seed=-1)


def test_supermartingale_accepts_numpy_integer_sizes():
    plain = supermartingale_check(m0=10, s=0.2, t=0.6, draws=500, seed=1)
    numpy = supermartingale_check(m0=np.int32(10), s=0.2, t=0.6, draws=np.int64(500), seed=np.uint8(1))
    assert repr(numpy) == repr(plain)


def _blocked_draw_cases():
    # at each m0, draw counts that end a block anywhere, and counts one short of, at and one past
    # one and three blocks of rows; m0 = 300 keeps its counts in uint16, the others in uint8
    for m0 in (1, 10, 50, 300):
        rows = _DRAW_BLOCK // m0
        for draws in sorted({1, 29, 4095, 4096, 4097, 12295, rows - 1, rows, rows + 1, 3 * rows + 7}):
            yield pytest.param(draws, m0, id=f"{draws}-{m0}")
    # m0 above _DRAW_BLOCK: every block is a single row
    yield pytest.param(3, 40_000, id="3-40000")


@pytest.mark.parametrize("draws, m0", _blocked_draw_cases())
def test_blocked_draw_equals_one_shot_draw(m0, draws):
    # repr compares every float bit for bit and treats the skipped strata's nan as equal
    blocked = supermartingale_check(m0, 0.2, 0.5, draws=draws, seed=11)
    assert repr(blocked) == repr(one_shot_supermartingale_check(m0, 0.2, 0.5, draws, seed=11))


def _traced_peak(*args, **kwargs):
    # a warm-up call first: np.unique imports numpy.ma (~1.5 MB) on its first call in a process
    supermartingale_check(2, 0.2, 0.6, draws=2)
    tracemalloc.start()
    try:
        supermartingale_check(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_supermartingale_memory_does_not_grow_with_draws_times_m0():
    # the one-shot (100_000, 50) float matrix alone is 40 MB; a 256 KB block, two uint8 count
    # arrays and one stratum's M(t) come to ~0.8 MB
    assert _traced_peak(50, 0.2, 0.5, draws=100_000) < 1.5 * 2**20


def test_supermartingale_memory_does_not_grow_with_m0():
    # 4,096 rows of 2,000 uniforms would be a 65 MB block; the block stays at 256 KB
    assert _traced_peak(2_000, 0.2, 0.6, draws=5_000, seed=0) < 2 * 2**20


def test_supermartingale_suite_means_equal_the_closed_form(monkeypatch):
    # given V(s) = v, each of the n = m0 - v nulls above s lies at or below t with probability
    # q = (t - s) / (1 - s), so E[M(t) | V(s) = v] = M(s) (1 - q^(n+1)) <= M(s), exactly
    table = []

    def record(m0, s, t, seed):
        table.append((m0, s, t))
        return []

    monkeypatch.setattr(verify, "supermartingale_check", record)
    assert run_suite("supermartingale", seed=0, reps=2) == []
    strata = 0
    for m0, s, t in table:
        s, t = Fraction(s), Fraction(t)
        q = (t - s) / (1 - s)
        for n in range(m0 + 1):  # n = m0 - v over every v in 0..m0
            m_s = (1 - s) / (n + 1)
            mean = sum(math.comb(n, k) * q**k * (1 - q) ** (n - k) * (1 - t) / (n - k + 1) for k in range(n + 1))
            assert mean == m_s * (1 - q ** (n + 1)) <= m_s, (m0, s, t, n)
            strata += 1
    assert len(table) == 4 and strata == 124


# ------------------------------------------------- FDR control + estimation


@pytest.fixture(scope="module")
def small_cfg():
    return ScenarioConfig(m=300, pi0=0.8, mu=2.0, n_reps=400, seed=606)


def test_fdr_control_check_passes(small_cfg):
    results = fdr_control_check(small_cfg)
    assert all_passed(results), format_report(results)
    names = {r.check for r in results}
    assert any(name.startswith("fdr-control[rb20]") for name in names)
    assert any(name.startswith("fdr-bound[") for name in names)
    assert "fdr-calibration[bh]" in names
    assert "fdr-calibration[orc]" in names


def test_fdr_control_check_dependent_is_one_sided():
    cfg = ScenarioConfig(
        m=300, pi0=0.8, mu=2.0, n_reps=300, seed=607, dependence=BlockAR(50, -0.9)
    )
    results = fdr_control_check(cfg, rules=("rb20",))
    names = {r.check for r in results}
    assert "fdr-control[bh]" in names and "fdr-calibration[bh]" not in names
    assert all_passed(results), format_report(results)


def test_conservative_estimation_check_passes(small_cfg):
    results = conservative_estimation_check(small_cfg)
    assert all_passed(results), format_report(results)
    assert len(results) == 4


def test_lsl_is_more_conservative_than_rb20():
    # the every-order-statistic scan stops earlier, inflating the estimate
    cfg = ScenarioConfig(m=500, pi0=0.8, mu=1.0, n_reps=300, seed=608)
    results = conservative_estimation_check(cfg, rules=("rb20", "lsl"))
    stats = {r.check: r.statistic for r in results}
    assert stats["conservative-pi0[lsl]"] > stats["conservative-pi0[rb20]"]


def test_pi0_estimates_in_sanity_band_under_strong_signal():
    cfg = ScenarioConfig(m=400, pi0=0.5, mu=4.0, n_reps=300, seed=609)
    results = conservative_estimation_check(cfg)
    for r in results:
        assert r.statistic >= cfg.pi0 - 3.0 * (r.tolerance / 3.0)
        assert r.statistic <= 1.2, f"{r.check} drifted high: {r.statistic}"


def test_run_suite_rejects_an_unknown_name_listing_the_suites():
    with pytest.raises(ValueError, match="unknown suite 'all'; one of lemma2, supermartingale, fdr-control, conservative"):
        run_suite("all", seed=0, reps=2)


# ------------------------------- the proof's middle step, exact under Dirac-uniform

# (m, m1): the middle term of rb20 and of fixed:0.5 at alpha = kappa = 0.05
MIDDLE_TERMS = {
    (10, 1): (0.0499986158, 0.0499023437),
    (20, 4): (0.0499991889, 0.0499992371),
    (50, 10): (0.0499996695, 0.0500000000),
    (50, 40): (0.0499990015, 0.0499511719),
    (30, 0): (0.0499998292, 0.0500000000),
}
# fixed:0.5 sits within 1e-10 of the bound there (4.5e-14 and 4.7e-11), so the bound is checked in Fraction
EXACT_MARGIN = {(50, 10), (30, 0)}
SMALL_GRID = (0.05, 0.25, 0.5, 0.75)


@pytest.mark.parametrize("m, m1", MIDDLE_TERMS)
def test_middle_term_under_dirac_uniform_is_pinned_and_bounded(m, m1):
    bound = 0.05 * (1.0 - 0.05 ** (m - m1))
    rb20 = dirac_uniform_rb_term(TWENTY_BIN_GRID, m, m1, 0.05, 0.05)
    fixed = dirac_uniform_fixed_term(0.5, m, m1, 0.05, 0.05)
    assert (rb20, fixed) == pytest.approx(MIDDLE_TERMS[m, m1], abs=1e-10, rel=0.0)
    assert rb20 <= bound + 1e-12 and fixed <= bound + 1e-12
    if (m, m1) in EXACT_MARGIN:
        level = Fraction(1, 20)
        exact = dirac_uniform_fixed_term(Fraction(1, 2), m, m1, level, level)
        assert exact <= level * (1 - level ** (m - m1))
        assert float(exact) == pytest.approx(fixed, rel=1e-14)


def test_the_chain_is_the_closed_form_on_a_one_point_grid():
    # on the grid (lambda,) the scan always ends at lambda, so rb:lambda is fixed:lambda
    for lam in (0.05, 0.5, 0.9):
        chain = dirac_uniform_rb_term((lam,), 20, 4, 0.05, 0.05)
        assert chain == pytest.approx(dirac_uniform_fixed_term(lam, 20, 4, 0.05, 0.05), rel=1e-14), lam


@pytest.mark.parametrize("m, m1", [(2, 0), (5, 1), (10, 1), (12, 2), (12, 11)])
def test_the_chain_is_the_library_rule_summed_over_every_null_split(m, m1):
    rule = parse_rule_spec("rb:0.05,0.25,0.5,0.75", 0.05)
    enumerated = dirac_uniform_enumerated_term(lambda proc: rule.select(proc).value, SMALL_GRID, m, m1, 0.05, 0.05)
    assert dirac_uniform_rb_term(SMALL_GRID, m, m1, 0.05, 0.05) == pytest.approx(enumerated, abs=1e-15, rel=0.0)


def test_the_chain_is_the_mean_of_the_library_rule_on_drawn_samples():
    m, m1, n_draws = 10, 1, 20_000
    alpha = kappa = 0.05
    rule = parse_rule_spec("rb:0.05,0.25,0.5,0.75", kappa)
    truth = np.arange(m) >= m1
    nulls = np.random.default_rng(1).random((n_draws, m - m1))
    terms = np.array([
        (alpha / kappa) * np.count_nonzero(u <= kappa)
        / (m * rule.select(sort_pvalues(np.concatenate([np.zeros(m1), u]), truth)).value)
        for u in nulls
    ])
    mean, se = terms.mean(), terms.std(ddof=1) / math.sqrt(n_draws)
    assert abs(mean - dirac_uniform_rb_term(SMALL_GRID, m, m1, alpha, kappa)) <= 3.0 * se


# ----------------------------------------------------------------- reports


def test_report_formatting_and_csv(tmp_path):
    results = [
        CheckResult("demo-pass", 0.1, 0.2, 0.01, True),
        CheckResult("demo-fail", 0.5, 0.2, 0.01, False, detail="oops"),
        CheckResult("demo-skip", float("nan"), 0.2, float("nan"), True, detail="skipped: thin"),
        CheckResult('demo, "quoted"', np.float64(1e-13), float("inf"), 1 / 3, True, detail='a, "b", κ'),
    ]
    text = format_report(results)
    assert "PASS demo-pass" in text
    assert "FAIL demo-fail" in text
    assert "SKIP demo-skip" in text
    assert "1 failed" in text
    assert not all_passed(results)

    out = tmp_path / "report.csv"
    write_report_csv(results, out)
    with out.open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["check", "statistic", "bound", "tolerance", "pass", "detail"]
    assert rows[1][4] == "pass" and rows[2][4] == "fail"
    # UTF-8, LF line ends, numbers at 12 significant digits, csv quoting of commas and double quotes
    assert out.read_bytes() == (
        b"check,statistic,bound,tolerance,pass,detail\n"
        b"demo-pass,0.1,0.2,0.01,pass,\n"
        b"demo-fail,0.5,0.2,0.01,fail,oops\n"
        b"demo-skip,nan,0.2,nan,pass,skipped: thin\n"
        + '"demo, ""quoted""",1e-13,inf,0.333333333333,pass,"a, ""b"", κ"\n'.encode("utf-8")
    )
