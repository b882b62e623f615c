"""Property-based checks against the brute-force oracles in conftest.

Derandomised, with a bounded number of examples, so every run checks
the same inputs.  Values sit on the grid k/64: it puts ties, exact 0s
and 1s and p-values equal to kappa in the inputs, and it keeps every
product and comparison in the thresholding arithmetic exact, so alpha
can be put exactly on the step-up line.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dynfdr import PValueSample, parse_rule_spec, run_procedure, sort_pvalues, threshold_functional

from conftest import brute_force_threshold

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
    proc = sort_pvalues(PValueSample(pvals))
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
    for spec in SPECS:
        rule = parse_rule_spec(spec, 0.05)
        res = run_procedure(rule, PValueSample(pvals, truth=truth), 0.05)
        permuted = run_procedure(rule, PValueSample(pvals[perm], truth=truth[perm]), 0.05)
        # index i of the permuted input is index perm[i] of the original
        assert sorted(perm[permuted.rejected].tolist()) == res.rejected.tolist(), spec
        assert permuted.threshold == res.threshold, spec
