"""Property-based checks against the brute-force oracles in conftest.

Derandomised, with a bounded number of examples, so every run checks
the same inputs.  Values sit on the grid k/64: it puts ties, exact 0s
and 1s and p-values equal to kappa in the inputs, and it keeps every
product and comparison in the thresholding arithmetic exact, so alpha
can be put exactly on the step-up line.  The p-value file reader is
checked against the line-parser oracle on generated file bytes.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynfdr import cli, parse_rule_spec, run_procedure, sort_pvalues, threshold_functional
from dynfdr.procedures import DEFAULT_PROCEDURES

from conftest import brute_force_threshold, read_pvalue_lines

GRID = 64
SETTINGS = settings(derandomize=True, max_examples=100, deadline=None, database=None)
SPECS = ("bh", "orc", "fixed:0.5", "rb20", "lsl", "kq:median", "rb20q")


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
    return np.array(pvals), np.array(truth), np.array(draw(st.permutations(range(m))))


@SETTINGS
@given(labelled_samples())
def test_rejection_set_does_not_depend_on_input_order(case):
    pvals, truth, perm = case
    if not truth.any():
        truth[0] = True  # orc derives pi0 from the labels, so it needs a true null
    proc, permuted_proc = sort_pvalues(pvals, truth), sort_pvalues(pvals[perm], truth[perm])
    for spec in SPECS:
        rule = parse_rule_spec(spec, 0.05)
        res = run_procedure(rule, proc, 0.05)
        permuted = run_procedure(rule, permuted_proc, 0.05)
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
    truth[0] = True  # orc derives pi0 from the labels, so it needs a true null
    return pvals, truth, kappa


@SETTINGS
@given(samples_with_signed_zeros())
def test_value_sort_equals_the_stable_index_sort(case):
    pvals, truth, kappa = case
    stable_order = np.argsort(pvals, kind="stable")
    stable_ordered = pvals[stable_order]
    proc = sort_pvalues(pvals, truth)
    assert proc.ordered.tobytes() == stable_ordered.tobytes()  # -0.0 and 0.0 in input order
    for spec in DEFAULT_PROCEDURES:
        if spec == "lsl" and proc.m < 2:
            continue
        res = run_procedure(parse_rule_spec(spec, kappa), proc, 0.05)
        n = int(np.searchsorted(stable_ordered, res.threshold, side="right"))
        np.testing.assert_array_equal(res.rejected, np.sort(stable_order[:n]), err_msg=spec)


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
    assert redone.trace == est.trace  # every scan ends at lambda
    assert redone.value == est.value


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
@example(b"0.5\n\xff0.3\n")  # not UTF-8
def test_reader_equals_the_line_parser(pvalue_path, data):
    pvalue_path.write_bytes(data)
    assert _read(cli._read_pvalue_file, pvalue_path) == _read(read_pvalue_lines, pvalue_path)


def test_one_column_file_skips_the_line_parser(tmp_path, monkeypatch):
    def fail(path):
        pytest.fail("the line parser ran on a one-column file")

    monkeypatch.setattr(cli, "_parse_pvalue_lines", fail)
    path = tmp_path / "pvalues.txt"
    path.write_bytes(b"p_value\r\n\r\n  0.25\r\n-0\t\r\n1\r\n\r\n1e-3")
    proc = cli._read_pvalue_file(str(path))
    assert proc.values.tobytes() == np.array([0.25, -0.0, 1.0, 1e-3]).tobytes()
    assert proc.truth is None
