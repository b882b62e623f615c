"""Property-based checks against the brute-force oracles in conftest.

Derandomised, with a bounded number of examples, so every run checks
the same inputs.  Values sit on the grid k/64: it puts ties, exact 0s
and 1s and p-values equal to kappa in the inputs, and it keeps every
product and comparison in the thresholding arithmetic exact, so alpha
can be put exactly on the step-up line.  Every procedure's rejection set
and FDR estimate are checked at its threshold on rounded mixtures, and
bh against the functional at pi0 = 1 inside the region.  The
p-value file reader, and ``analyze`` run on the file, are checked against
the line-parser oracle on generated file bytes, and the array scans
(lowest-slope, right-boundary, quantile) against the full-array and
one-candidate-at-a-time scans on generated samples of up to 2000
p-values.
"""

from __future__ import annotations

import contextlib
import io
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynfdr import (
    TWENTY_BIN_GRID,
    LowestSlopeRule,
    RightBoundaryQuantileRule,
    RightBoundaryRule,
    bh_step_up,
    cli,
    fdr_hat_star,
    parse_rule_spec,
    run_procedure,
    sort_pvalues,
    threshold_functional,
)
from dynfdr.procedures import DEFAULT_PROCEDURES
from dynfdr.selection import _LSL_FIRST_PREFIX

from conftest import (
    brute_force_threshold,
    full_lowest_slope,
    naive_count,
    naive_rejection_set,
    random_mixture_pvalues,
    read_pvalue_lines,
    scalar_right_boundary,
    unique_grid_right_boundary_quantile,
)

GRID = 64
SETTINGS = settings(derandomize=True, max_examples=100, deadline=None, database=None)
SPECS = ("bh", "orc", "fixed:0.5", "rb20", "lsl", "kq:median", "rb20q")
# orc's pi0, the caller's to give: any value in (0, 1], whatever the labels say
ORC_PI0 = st.floats(0.0, 1.0, exclude_min=True)


@st.composite
def threshold_inputs(draw):
    kappa = draw(st.integers(1, GRID - 1)) / GRID
    alpha = draw(st.integers(1, GRID - 1)) / GRID
    pi0_star = draw(st.integers(1, 40)) / 16
    # every grid value, 0, 1 and kappa itself each drawn often
    value = st.one_of(st.integers(0, GRID).map(lambda k: k / GRID), st.sampled_from((0.0, 1.0, kappa)))
    pvals = draw(st.lists(value, min_size=1, max_size=12))
    if draw(st.booleans()):
        # alpha exactly on the step-up line at an order statistic in (0, kappa]: the tie-breaking case
        m = len(pvals)
        line = (Fraction(m) * Fraction(pi0_star) * Fraction(p) / i for i, p in enumerate(sorted(pvals), 1))
        exact = [a for a, p in zip(line, sorted(pvals)) if 0 < p <= kappa and 0 < a < 1 and _dyadic(a)]
        if exact:
            alpha = float(draw(st.sampled_from(exact)))
    return pvals, pi0_star, alpha, kappa


def _dyadic(x):
    """True when the fraction ``x`` is a float exactly (a power-of-two denominator)."""
    return x.denominator & (x.denominator - 1) == 0


@SETTINGS
@given(threshold_inputs())
def test_threshold_functional_equals_the_brute_force_sup(case):
    pvals, pi0_star, alpha, kappa = case
    proc = sort_pvalues(pvals)
    assert threshold_functional(proc, pi0_star, alpha, kappa) == brute_force_threshold(pvals, pi0_star, alpha, kappa)


@st.composite
def labelled_samples(draw):
    m = draw(st.integers(2, 40))
    value = st.one_of(st.integers(0, GRID).map(lambda k: k / GRID), st.floats(0.0, 1.0))
    pvals = draw(st.lists(value, min_size=m, max_size=m))
    truth = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return np.array(pvals), np.array(truth), np.array(draw(st.permutations(range(m)))), draw(ORC_PI0)


@SETTINGS
@given(labelled_samples())
def test_rejection_set_does_not_depend_on_input_order(case):
    pvals, truth, perm, pi0 = case
    proc, permuted_proc = sort_pvalues(pvals, truth), sort_pvalues(pvals[perm], truth[perm])
    for spec in SPECS:
        rule = parse_rule_spec(spec, 0.05)
        res = run_procedure(rule, proc, 0.05, pi0)
        permuted = run_procedure(rule, permuted_proc, 0.05, pi0)
        # index i of the permuted input is index perm[i] of the original
        assert sorted(perm[permuted.rejected].tolist()) == res.rejected.tolist(), spec
        assert permuted.threshold == res.threshold, spec


@st.composite
def samples_with_signed_zeros(draw):
    m = draw(st.integers(1, 40))
    kappa = draw(st.sampled_from((0.05, 0.25)))
    value = st.one_of(
        st.sampled_from((0.0, -0.0, kappa, 1.0)),
        st.integers(0, GRID).map(lambda k: k / GRID),
        st.floats(0.0, 1.0),
    )
    pvals = np.array(draw(st.lists(value, min_size=m, max_size=m)))
    truth = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    return pvals, truth, kappa, draw(ORC_PI0)


@SETTINGS
@given(samples_with_signed_zeros())
def test_value_sort_equals_the_stable_index_sort(case):
    pvals, truth, kappa, pi0 = case
    stable_order = np.argsort(pvals, kind="stable")
    stable_ordered = pvals[stable_order]
    proc = sort_pvalues(pvals, truth)
    assert proc.ordered.tobytes() == stable_ordered.tobytes()  # -0.0 and 0.0 in input order
    for spec in DEFAULT_PROCEDURES:
        if spec == "lsl" and proc.m < 2:
            continue
        res = run_procedure(parse_rule_spec(spec, kappa), proc, 0.05, pi0)
        n = int(np.searchsorted(stable_ordered, res.threshold, side="right"))
        np.testing.assert_array_equal(res.rejected, np.sort(stable_order[:n]), err_msg=spec)


@st.composite
def rounded_mixtures(draw):
    """Mixtures rounded to 2-4 decimals, with ties at 0, at kappa and at 1, truth labels, alpha and orc's pi0."""
    m = draw(st.integers(2, 200))
    kappa = draw(st.sampled_from((0.05, 0.25)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pvals = np.round(random_mixture_pvalues(rng, m, draw(st.sampled_from((0.2, 0.5, 0.8)))), draw(st.integers(2, 4)))
    for value in (0.0, kappa, 1.0):
        if draw(st.booleans()):
            pvals[rng.choice(m, draw(st.integers(1, max(1, m // 8))), replace=False)] = value
    truth = rng.random(m) < 0.7
    return pvals, truth, kappa, draw(st.sampled_from((0.05, 0.2))), draw(ORC_PI0)


@SETTINGS
@given(rounded_mixtures())
def test_every_result_is_the_rejection_set_and_fdr_estimate_at_its_threshold(case):
    pvals, truth, kappa, alpha, pi0 = case
    proc, m = sort_pvalues(pvals, truth), len(pvals)
    for spec in (*DEFAULT_PROCEDURES, "kq:median", "rb:0.2,0.5,0.8"):
        res = run_procedure(parse_rule_spec(spec, kappa), proc, alpha, pi0)
        t = res.threshold
        assert set(res.rejected.tolist()) == naive_rejection_set(pvals, t), spec
        if spec in ("bh", "orc"):
            expected = m * res.pi0.value * t / max(naive_count(pvals, t), 1)
        else:
            expected = fdr_hat_star(proc, res.pi0.value, t, kappa)
        assert res.fdr_estimate_at_threshold == expected, spec


@SETTINGS
@given(rounded_mixtures())
@example((np.full(19, 0.05), np.ones(19, dtype=bool), 0.05, 0.05, 1.0))  # every p-value exactly alpha
def test_bh_is_the_functional_at_unit_pi0_inside_the_region(case):
    pvals, _, kappa, alpha, _ = case
    proc = sort_pvalues(pvals)
    bh = bh_step_up(proc, alpha)
    if bh.threshold <= kappa:
        assert set(bh.rejected.tolist()) == naive_rejection_set(pvals, threshold_functional(proc, 1.0, alpha, kappa))


LAMBDA_RULES = ("fixed:0.5", "rb20", "lsl", "kq:median", "rb20q")


def _grid_values(low=-1.0):
    """Grid values above ``low``, 0 and 1 among them, and any float in (low, 1]."""
    grid = [k / GRID for k in range(GRID + 1) if k / GRID > low]
    return st.one_of(st.sampled_from(grid), st.floats(max(low, 0.0), 1.0, exclude_min=low >= 0.0))


@pytest.mark.parametrize("spec", LAMBDA_RULES)
@SETTINGS
@given(st.lists(_grid_values(), min_size=2, max_size=40), st.sampled_from((0.05, 0.25)), st.data())
def test_lambda_is_a_stopping_time(spec, pvals, kappa, data):
    # lambda and the scan that chose it see only p-values at or below lambda
    pvals = np.array(pvals)
    rule = parse_rule_spec(spec, kappa)
    est = rule.select(sort_pvalues(pvals))
    if est.flags:
        return  # a flagged fallback or clamp may look past lambda
    tail = pvals > est.lam
    moved = pvals.copy()
    moved[tail] = data.draw(st.lists(_grid_values(est.lam), min_size=int(tail.sum()), max_size=int(tail.sum())))
    redone = rule.select(sort_pvalues(moved))
    assert redone.lam == est.lam
    assert redone.trace.tolist() == est.trace.tolist()  # every scan ends at lambda
    assert redone.value == est.value


@st.composite
def scan_samples(draw):
    """Samples of 2 to 2000 p-values with a chosen share below kappa, exact 0s, 1s and kappas, and ties."""
    m = draw(st.one_of(st.integers(2, 40), st.integers(2, 2000)))
    kappa = draw(st.sampled_from((0.05, 0.25, 0.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # all but one or all below kappa reach the fallbacks; a long run below kappa stops past the first prefix
    n_low = draw(st.one_of(st.integers(0, m), st.sampled_from((m - 1, m))))
    pvals = np.concatenate([rng.random(n_low) * kappa, rng.random(m - n_low)])
    for value in (0.0, 1.0, kappa):
        if draw(st.booleans()):
            pvals[rng.choice(m, draw(st.integers(1, max(1, m // 4))), replace=False)] = value
    if draw(st.booleans()):
        pvals = np.round(pvals, draw(st.integers(1, 3)))  # ties
    return pvals, kappa


LEVELS = st.one_of(
    st.just(TWENTY_BIN_GRID),
    st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=25, unique=True).map(
        lambda levels: tuple(sorted(levels))
    ),
    st.sampled_from(((1e-300, 0.5), (0.25, 0.5, 0.75), (0.5, 1.0 - 2.0**-53))),
)


# right-boundary grids: the quantile levels' shapes, and single points
GRIDS = st.one_of(LEVELS, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(lambda g: (g,)))


def _same(est, oracle):
    lam, value, trace, flags = oracle
    assert repr(est.lam) == repr(lam) and repr(est.value) == repr(value)
    assert type(est.lam) is float and type(est.value) is float
    assert est.flags == flags
    assert [tuple(map(repr, row)) for row in est.trace.tolist()] == [tuple(map(repr, row)) for row in trace]
    # every bit, nan rows and sign bits included, in a read-only (n, 2) float64 array
    assert est.trace.dtype == np.float64 and est.trace.shape == (len(trace), 2) and not est.trace.flags.writeable
    assert est.trace.tobytes() == np.array(trace, dtype=np.float64).tobytes()


def _place_grid(grid, kappa, where):
    """A drawn grid as drawn, scaled to lie below kappa, or with kappa itself added."""
    if where == "below kappa":
        return tuple(sorted({kappa * g for g in grid if kappa * g > 0.0} or {kappa / 2}))  # a subnormal g underflows
    if where == "through kappa":
        return tuple(sorted({*grid, kappa}))
    return grid


def test_trimmed_scans_equal_the_full_scans():
    # lowest-slope (prefix scan), right-boundary (one array pass) and quantile (neighbour-deduplicated
    # grid) against the full-array and one-candidate-at-a-time oracles, bit for bit
    seen = Counter()

    @settings(SETTINGS, max_examples=200)
    @given(scan_samples(), LEVELS, GRIDS, st.sampled_from(("as drawn", "below kappa", "through kappa")))
    @example((np.round(np.linspace(0.0, 1.0, 1000), 1), 0.05), TWENTY_BIN_GRID, TWENTY_BIN_GRID, "as drawn")  # a tie run across the first prefix
    @example((np.array([0.3, 1.0, 0.02, 1.0, 0.6]), 0.05), TWENTY_BIN_GRID, (0.5,), "as drawn")  # 1s in the first prefix
    @example((np.array([0.01]), 0.05), TWENTY_BIN_GRID, TWENTY_BIN_GRID, "as drawn")  # one p-value: p < kappa
    @example((np.array([0.4]), 0.05), TWENTY_BIN_GRID, (0.5,), "as drawn")  # kappa <= p < 1
    @example((np.array([1.0]), 0.05), TWENTY_BIN_GRID, TWENTY_BIN_GRID, "as drawn")  # p = 1
    def check(case, levels, grid, where):
        pvals, kappa = case
        proc = sort_pvalues(pvals)
        est = LowestSlopeRule(kappa).select(proc)
        _same(est, full_lowest_slope(proc, kappa))
        if est.flags:
            seen[est.flags[0]] += 1
        elif len(est.trace) > _LSL_FIRST_PREFIX:
            seen["stop-past-prefix"] += 1
        if proc.ordered[min(proc.m, _LSL_FIRST_PREFIX) - 1] == 1.0:
            seen["one-in-first-prefix"] += 1
        rule = RightBoundaryQuantileRule(levels, kappa)
        _same(rule.select(proc), unique_grid_right_boundary_quantile(proc, rule.levels, kappa))
        rule = RightBoundaryRule(_place_grid(grid, kappa, where), kappa)
        est = rule.select(proc)
        _same(est, scalar_right_boundary(proc, rule.grid, kappa))
        (lam, cur), prev = est.trace[-1], est.trace[-2, 1]
        seen["rb " + (est.flags[0] if est.flags else "stop" if lam >= kappa and cur >= prev else "no stop")] += 1
        if len(rule.grid) == 1:
            seen["rb single point"] += 1

    check()
    outcomes = ("stop-past-prefix", "fallback-largest-order-statistic", "fallback-kappa", "one-in-first-prefix")
    for outcome in (*outcomes, "rb grid-below-kappa", "rb no stop", "rb stop", "rb single point"):
        assert seen[outcome] >= 5, seen


# fields and separators the reader must take or refuse exactly as the line parser does
CLEAN_TOKENS = ("0", "1", "-0", "0.5", "+0.5", ".25", "5e-1", "1e-300", "0.30000000000000004", "1.0")
ODD_TOKENS = ("1_0", "0_5", "nan", "inf", "-inf", "1.5", "-0.1", "#0.1", "0x1p-1", "p", "\u0660.\u0665", "")
LABELS = ("0", "1", "1.0", "2", "")
SEPARATORS = (" ", "\t", ",", ", ", "  ")
CLEAN_PADDING = ("", "", " ", "\t")
ODD_PADDING = ("\x0b", "\x0c", "\x85", "\u2028", "\xa0")
CLEAN_BREAKS = ("\n", "\n", "\r\n")
ODD_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029")
HEADERS = ("p", "pvalue", "p,label", "p label", "# p", "p_value", "\ufeffp", "x y z", "0.5 x")


@st.composite
def pvalue_files(draw):
    """Half clean one-column files, which the vectorised read takes; half with reasons to hand off mixed in."""
    odd = draw(st.booleans())

    def pick(clean, unusual):
        return draw(st.sampled_from(clean + unusual if odd else clean))

    value = st.one_of(st.floats(0.0, 1.0).map(lambda x: format(x, ".17g")), st.sampled_from(CLEAN_TOKENS))
    columns = pick((1,), (1, 2, 3))
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(HEADERS)))
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 6)) == 0:
            lines.append(pick(("", " ", "\t"), ()))
            continue
        line = draw(value) if draw(st.integers(0, 4)) else pick(CLEAN_TOKENS, ODD_TOKENS)
        for _ in range(columns - 1):
            line += draw(st.sampled_from(SEPARATORS)) + draw(st.sampled_from(LABELS))
        lines.append(pick(CLEAN_PADDING, ODD_PADDING) + line + pick(CLEAN_PADDING, ODD_PADDING))
    text = "".join(line + pick(CLEAN_BREAKS, ODD_BREAKS) for line in lines)
    if lines and draw(st.booleans()):
        text = text[:-1]  # no line break after the last line (or half of a \r\n)
    return text.encode("utf-8")


@pytest.fixture(scope="module")
def pvalue_path(tmp_path_factory):
    return tmp_path_factory.mktemp("files") / "pvalues.txt"


def _read(reader, path):
    try:
        proc = reader(str(path))
    except cli.CliError as exc:
        return "error", str(exc)
    return proc.values.tobytes(), None if proc.truth is None else proc.truth.tobytes()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(pvalue_files())
@example(b"p\x0b0.5\n0.3\n")  # splitlines sees header p and two values; a header skip by \n would drop 0.5
@example(b"p\n")
@example(b"")
@example(b"0.5 1\n")
@example(b"0.5\n0.3,1\n")  # a comma joins no fields: one field that is no float
@example(b"0.5\n\xff0.3\n")  # not UTF-8
@example(b"0.5\n\xef\xbb\xbf0.3\n")  # a byte order mark after the first line is no whitespace
@example(b"\n p\n0.5\n")  # a blank line 1, so the header on line 2 is an error
def test_reader_equals_the_line_parser(pvalue_path, data):
    pvalue_path.write_bytes(data)
    assert _read(cli._read_pvalue_file, pvalue_path) == _read(read_pvalue_lines, pvalue_path)


@pytest.mark.parametrize("body", [b"0.001\n0.2\n0.5\n", b"p\n0.001\n0.2\n0.5\n", b"0.001 0\n0.2 1\n0.5 1\n"])
def test_a_byte_order_mark_is_neither_a_header_nor_data(tmp_path, body):
    # a line of two fields is refused; at line 1, so the mark made no header of it
    path = tmp_path / "pvalues.txt"
    path.write_bytes(b"\xef\xbb\xbf" + body)
    for reader in (cli._read_pvalue_file, cli._parse_pvalue_lines, read_pvalue_lines):
        if b" " in body:
            with pytest.raises(cli.CliError, match="^line 1: expected one p-value per line, got 2 fields$"):
                reader(str(path))
        else:
            assert reader(str(path)).values.tolist() == [0.001, 0.2, 0.5], reader


def test_one_column_file_skips_the_line_parser(tmp_path, monkeypatch):
    def fail(path):
        pytest.fail("the line parser ran on a one-column file")

    monkeypatch.setattr(cli, "_parse_pvalue_lines", fail)
    path = tmp_path / "pvalues.txt"
    for body in (b"p_value\r\n\r\n  0.25\r\n-0\t\r\n1\r\n\r\n1e-3", b"p_value\r\r  0.25\r-0\t\r1\r\r1e-3"):  # CRLF, CR
        path.write_bytes(body)
        proc = cli._read_pvalue_file(str(path))
        assert proc.values.tobytes() == np.array([0.25, -0.0, 1.0, 1e-3]).tobytes(), body
        assert proc.truth is None


ANALYZE_ARGS = (["--procedure", "bh"], ["--procedure", "rb20"], ["--procedure", "lsl"], ["--procedure", "orc", "--pi0", "0.8"])


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(pvalue_files())
def test_analyze_error_contract(pvalue_path, data):
    # every file ends in a report whose count the library gives, or in one error line; never a traceback
    pvalue_path.write_bytes(data)
    for args in ANALYZE_ARGS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["analyze", str(pvalue_path), *args])
        err = err.getvalue()
        assert code in (0, 1) and "Traceback" not in err, (args, err)
        if code == 1:
            assert err.startswith("error: ") and err.count("error:") == 1 and err.count("\n") == 1, (args, err)
            continue
        pi0 = 0.8 if args[1] == "orc" else None
        expected = run_procedure(parse_rule_spec(args[1], 0.05), read_pvalue_lines(pvalue_path), 0.05, pi0=pi0)
        assert f"n_rejected: {expected.n_rejected}\n" in out.getvalue(), args
