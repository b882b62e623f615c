"""Theory checks: exact binomial bound, supermartingale, control, conservativeness, exact FDR by enumeration."""

from __future__ import annotations

import csv
import functools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dynfdr import (
    TWENTY_BIN_GRID,
    parse_rule_spec,
    pi0_storey,
    run_procedure,
    sort_pvalues,
    threshold_functional,
    verify,
)
from dynfdr.simulate import ScenarioConfig, mean_se, replications
from dynfdr.verify import (
    _DRAW_BLOCK,
    CheckResult,
    conservative_estimation_check,
    fdr_control_check,
    format_report,
    lemma2_exact_check,
    supermartingale_check,
    write_report_csv,
)

from conftest import (
    dirac_uniform_enumerated_term,
    dirac_uniform_fixed_term,
    dirac_uniform_rb_term,
    discrete_uniform_exact_fdr,
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
    assert all(r.passed for r in results)


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


# the suite's table, written out here so that a change to it fails a test
TABLE = [(m0, s, t) for m0 in (10, 50) for s, t in ((0.2, 0.6), (0.5, 0.9))]


@pytest.fixture(scope="module")
def suite_at_seed_1():
    return supermartingale_check(seed=1)


def test_supermartingale_terminal_value(suite_at_seed_1):
    terminal = [r for r in suite_at_seed_1 if r.check.endswith("[terminal]")]
    assert [r.check for r in terminal] == [f"supermartingale(m0={m0},s={s:g},t={t:g})[terminal]" for m0, s, t in TABLE]
    assert all(r.statistic == 0.0 and r.passed for r in terminal)
    assert all(r.passed for r in suite_at_seed_1)


def test_supermartingale_monte_carlo_case():
    results = supermartingale_check(seed=3)
    assert all(r.passed for r in results)
    label = "supermartingale(m0=50,s=0.2,t=0.6)[V(s)="
    checked = [r for r in results if r.check.startswith(label) and not r.detail.startswith("skipped")]
    assert len(checked) >= 5


def test_supermartingale_reports_thin_strata(suite_at_seed_1):
    skipped = [r for r in suite_at_seed_1 if r.detail.startswith("skipped")]
    assert skipped  # the binomial tails are too thin even at 100,000 draws
    assert all(r.passed for r in skipped)
    assert sum(line.startswith("SKIP ") for line in format_report(suite_at_seed_1).splitlines()) == len(skipped)


@pytest.mark.parametrize("seed", [1, 90])
def test_supermartingale_suite_equals_the_one_shot_oracle(seed):
    # repr compares every float bit for bit and treats the skipped strata's nan as equal; seed 90 FAILs one stratum
    results = supermartingale_check(seed=seed)
    oracle = [r for m0, s, t in TABLE for r in one_shot_supermartingale_check(m0, s, t, 100_000, seed)]
    assert repr(results) == repr(oracle)
    assert all(r.passed for r in results) == (seed != 90)


@pytest.mark.parametrize("seed", [1.5, True, np.float64(1), "1"])
def test_supermartingale_seed_must_be_an_integer(seed):
    with pytest.raises(ValueError, match="seed=.* is not an integer"):
        supermartingale_check(seed=seed)


def test_supermartingale_seed_must_not_be_negative():
    with pytest.raises(ValueError, match="seed=-1 must be >= 0"):
        supermartingale_check(seed=-1)


def test_supermartingale_accepts_a_numpy_integer_seed(suite_at_seed_1):
    assert repr(supermartingale_check(seed=np.uint8(1))) == repr(suite_at_seed_1)


@pytest.mark.parametrize("block", [1, 37, 4_830])
def test_supermartingale_results_do_not_depend_on_the_block_size(monkeypatch, block):
    # one row per block; fewer values than one row of 50; 483 and 96 rows a block.  At 7,001 draws every
    # block of more than one row leaves a short last block, the default's too: 3 blocks at m0 = 10, 11 at 50
    monkeypatch.setattr(verify, "_SUPERMARTINGALE_DRAWS", 7_001)
    default_block = supermartingale_check(seed=1)
    monkeypatch.setattr(verify, "_DRAW_BLOCK", block)
    assert repr(supermartingale_check(seed=1)) == repr(default_block)


def test_supermartingale_draws_each_m0_once(monkeypatch):
    seeds, drawn = [], []
    default_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            seeds.append(seed)
            self._rng = default_rng(seed)

        def random(self, size):
            out = self._rng.random(size)
            drawn.append(out.size)
            return out

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    supermartingale_check(seed=1)
    assert seeds == [[1, 10], [1, 50]]
    assert sum(drawn) == 100_000 * (10 + 50)


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
def test_blocked_draw_equals_one_shot_draw(monkeypatch, m0, draws):
    # the blocked loop at a one-m0 table of any size, against the whole (draws, m0) matrix
    monkeypatch.setattr(verify, "_SUPERMARTINGALE_M0", (m0,))
    monkeypatch.setattr(verify, "_SUPERMARTINGALE_DRAWS", draws)
    oracle = [r for s, t in ((0.2, 0.6), (0.5, 0.9)) for r in one_shot_supermartingale_check(m0, s, t, draws, seed=11)]
    assert repr(supermartingale_check(seed=11)) == repr(oracle)


def _traced_peak():
    # on their first call in a process np.unique imports numpy.ma (~1.5 MB) and a seed sequence secrets (~0.7 MB)
    np.unique(np.zeros(1, np.uint8))
    np.random.default_rng([0, 1])
    tracemalloc.start()
    try:
        supermartingale_check(seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_supermartingale_memory_does_not_grow_with_draws_times_m0():
    # the one-shot (100_000, 50) float matrix alone is 40 MB; a 256 KB block, four uint8 count
    # arrays and one stratum's M(t) come to ~1.3 MB
    assert _traced_peak() < 2 * 2**20


def test_supermartingale_memory_does_not_grow_with_m0(monkeypatch):
    # 4,096 rows of 2,000 uniforms would be a 65 MB block; the block stays at 256 KB
    monkeypatch.setattr(verify, "_SUPERMARTINGALE_M0", (2_000,))
    monkeypatch.setattr(verify, "_SUPERMARTINGALE_DRAWS", 5_000)
    assert _traced_peak() < 2 * 2**20


def test_supermartingale_suite_means_equal_the_closed_form(suite_at_seed_1):
    # given V(s) = v, each of the n = m0 - v nulls above s lies at or below t with probability
    # q = (t - s) / (1 - s), so E[M(t) | V(s) = v] = M(s) (1 - q^(n+1)) <= M(s), exactly
    labels = [r.check for r in suite_at_seed_1 if r.check.endswith("[terminal]")]
    table = [re.fullmatch(r"supermartingale\(m0=(\d+),s=(.+),t=(.+)\)\[terminal\]", c).groups() for c in labels]
    strata = 0
    for m0, s, t in table:
        m0, s, t = int(m0), Fraction(s), Fraction(t)
        q = (t - s) / (1 - s)
        for n in range(m0 + 1):  # n = m0 - v over every v in 0..m0
            m_s = (1 - s) / (n + 1)
            mean = sum(math.comb(n, k) * q**k * (1 - q) ** (n - k) * (1 - t) / (n - k + 1) for k in range(n + 1))
            assert mean == m_s * (1 - q ** (n + 1)) <= m_s, (m0, s, t, n)
            strata += 1
    assert len(table) == 4 and strata == 124


# ------------------------------------------------- FDR control + estimation


def test_fdr_control_check_passes():
    results = fdr_control_check(seed=606, reps=200)
    assert all(r.passed for r in results), format_report(results)
    names = {r.check for r in results}
    assert any(name.startswith("fdr-control[rb20]") for name in names)
    assert any(name.startswith("fdr-bound[") for name in names)
    assert "fdr-calibration[bh]" in names
    assert "fdr-calibration[orc]" in names


def test_conservative_estimation_check_passes():
    results = conservative_estimation_check(seed=606, reps=200)
    assert all(r.passed for r in results), format_report(results)
    assert len(results) == 4


def _mean_pi0(cfg, specs):
    # each spec's mean selected pi0 and its standard error over the replications, as the conservative suite has them
    pi0s = np.stack([rec[3] for _, rec in replications(cfg, specs)], axis=-1)
    return {s: mean_se(x) for s, x in zip(specs, pi0s)}


def test_lsl_is_more_conservative_than_rb20():
    # the every-order-statistic scan stops earlier, inflating the estimate
    cfg = ScenarioConfig(m=500, pi0=0.8, mu=1.0, n_reps=300, seed=608)
    pi0 = _mean_pi0(cfg, ("rb20", "lsl"))
    assert pi0["lsl"][0] > pi0["rb20"][0]


def test_pi0_estimates_in_sanity_band_under_strong_signal():
    cfg = ScenarioConfig(m=400, pi0=0.5, mu=4.0, n_reps=300, seed=609)
    for s, (mean, se) in _mean_pi0(cfg, ("fixed:0.5", "rb20", "lsl", "rb20q")).items():
        assert mean >= cfg.pi0 - 3.0 * se, s
        assert mean <= 1.2, f"{s} drifted high: {mean}"


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


# -------------------------------- the theorem itself, exact under discrete-uniform nulls

EXACT_SPECS = ("bh", "orc", "fixed:0.5", "rb20", "lsl", "rb20q", "kq:median")
F = Fraction
# each rule's exact FDR at (m0, m1, K, alpha = kappa) = (4, 2, 20, 0.2); 8,855 multisets
EXACT_FDR = dict(zip(EXACT_SPECS, (
    F(4703, 37500), F(1, 5), F(7663, 50000), F(97171, 600000), F(81871, 600000), F(77341, 600000), F(1514, 9375)
)))
# and at the smallest samples, (m0, m1) at K = 20 and alpha = kappa = 0.2, in the order of EXACT_SPECS
SMALLEST_EXACT_FDR = {
    (1, 0): (F(1, 5), F(1, 5), F(1, 10), F(3, 20), F(3, 20), F(3, 20), F(3, 20)),
    (1, 1): (F(1, 10), F(1, 5), F(1, 10), F(1, 10), F(1, 10), F(1, 10), F(1, 10)),
    (2, 0): (F(1, 5), F(1, 5), F(3, 20), F(3, 25), F(27, 200), F(27, 200), F(3, 25)),
}


def _rule_cuts(specs, m0, m1, alpha):
    """Each spec's (threshold, flags) as a function of the sample, at kappa = alpha; orc runs at pi0 = m0 / m."""

    def cut(rule, proc):
        result = run_procedure(rule, proc, alpha, pi0=m0 / (m0 + m1))
        return result.threshold, result.pi0.flags

    return {s: functools.partial(cut, parse_rule_spec(s, alpha)) for s in specs}


@pytest.fixture(scope="module")
def exact_law_at_4_2_20():
    return discrete_uniform_exact_fdr(_rule_cuts(EXACT_SPECS, 4, 2, 0.2), 4, 2, 20)


@pytest.mark.parametrize("spec", EXACT_SPECS)
def test_every_rule_keeps_the_exact_fdr_at_or_below_alpha(exact_law_at_4_2_20, spec):
    fdr, _ = exact_law_at_4_2_20
    assert fdr[spec] <= F(1, 5)
    assert fdr[spec] == EXACT_FDR[spec]


@pytest.mark.parametrize("m0, m1", SMALLEST_EXACT_FDR)
def test_every_rule_keeps_the_exact_fdr_at_or_below_alpha_on_the_smallest_samples(m0, m1):
    fdr, _ = discrete_uniform_exact_fdr(_rule_cuts(EXACT_SPECS, m0, m1, 0.2), m0, m1, 20)
    assert all(fdr[spec] <= F(1, 5) for spec in EXACT_SPECS)
    assert tuple(fdr[spec] for spec in EXACT_SPECS) == SMALLEST_EXACT_FDR[m0, m1]


def test_the_exact_fdr_of_one_null_is_its_closed_form():
    # the lone null is rejected iff p <= alpha / pi0*, so the FDR is floor(K alpha / pi0*) / K; the scanning
    # rules and kq:median reject only when p < kappa, where pi0* is the plus-one estimate 1 / (1 - kappa)
    K, alpha = 20, F(1, 5)
    fdr, _ = discrete_uniform_exact_fdr(_rule_cuts(EXACT_SPECS, 1, 0, 0.2), 1, 0, K)
    pi0_star = {"bh": 1, "orc": 1, "fixed:0.5": 2, **dict.fromkeys(EXACT_SPECS[3:], 1 / (1 - alpha))}
    assert fdr == {spec: F(math.floor(K * alpha / pi0_star[spec]), K) for spec in EXACT_SPECS}


def test_the_exact_fdr_of_bh_and_orc_is_their_closed_form(exact_law_at_4_2_20):
    # bh is at m0 alpha / m when K alpha / m is an integer, orc at alpha when K alpha / m0 is one
    bh, _ = discrete_uniform_exact_fdr(_rule_cuts(["bh"], 3, 1, 0.2), 3, 1, 20)
    assert bh["bh"] == F(3, 20)
    assert exact_law_at_4_2_20[0]["orc"] == F(1, 5)


def test_the_plus_one_is_what_keeps_the_exact_fdr_at_or_below_alpha():
    # plain Storey at lambda = 0.5 exceeds alpha where fixed:0.5, its plus-one estimate, does not; no Monte
    # Carlo line at m >= 200 sees it.  A plain pi0 of 0 makes every cut admissible, so it cuts at kappa.
    alpha = 0.1

    def plain_storey(proc):
        pi0 = pi0_storey(proc, 0.5)
        return (alpha if pi0 == 0 else threshold_functional(proc, pi0, alpha, alpha)), ()

    cuts = {"plain": plain_storey, **_rule_cuts(["fixed:0.5"], 3, 1, alpha)}
    fdr, _ = discrete_uniform_exact_fdr(cuts, 3, 1, 10)
    assert fdr["plain"] == F(411, 4000) > F(1, 10)
    assert fdr["fixed:0.5"] == F(131, 4000)


def test_each_flag_has_its_exact_probability(exact_law_at_4_2_20):
    # only lsl, rb20q and kq:median ever flag here; at one null lsl always falls back, one way or the other
    _, flags = exact_law_at_4_2_20
    assert {spec: f for spec, f in flags.items() if f} == {
        "lsl": {"fallback-largest-order-statistic": F(10307, 80000), "fallback-kappa": F(1, 625)},
        "rb20q": {"quantile-at-one": F(29679, 160000), "empty-grid-fallback": F(1, 625)},
        "kq:median": {"clamped-below-one": F(1, 160000)},
    }
    _, flags = discrete_uniform_exact_fdr(_rule_cuts(EXACT_SPECS, 1, 0, 0.2), 1, 0, 20)
    assert {spec: f for spec, f in flags.items() if f} == {
        "lsl": {"fallback-largest-order-statistic": F(4, 5), "fallback-kappa": F(1, 5)},
        "rb20q": {"empty-grid-fallback": F(1, 5), "quantile-at-one": F(1, 20)},
        "kq:median": {"clamped-below-one": F(1, 20)},
    }
    assert sum(flags["lsl"].values()) == 1


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
    assert not all(r.passed for r in results)

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
