"""Containers and counting processes."""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np
import pytest

from dynfdr import (
    LowestSlopeRule,
    RightBoundaryRule,
    bh_step_up,
    cli,
    fdr_hat_star,
    pi0_storey_plus,
    sort_pvalues,
    threshold_functional,
)
from dynfdr.simulate import BlockAR, ScenarioConfig

from conftest import naive_count


def test_sort_basic():
    proc = sort_pvalues([0.3, 0.1, 0.2])
    np.testing.assert_array_equal(proc.ordered, [0.1, 0.2, 0.3])
    assert proc.values.tolist() == [0.3, 0.1, 0.2]


def test_sort_singleton():
    proc = sort_pvalues([0.5])
    np.testing.assert_array_equal(proc.ordered, [0.5])
    assert proc.values.tolist() == [0.5]


def test_sort_ties_keep_original_order():
    # -0.0 == 0.0, so only the signs of the zeros show the order of a tie
    proc = sort_pvalues([0.2, 0.0, -0.0, 0.2, 0.0])
    np.testing.assert_array_equal(proc.ordered, [0.0, 0.0, 0.0, 0.2, 0.2])
    assert np.signbit(proc.ordered).tolist() == [False, True, False, False, False]


def test_validation_names_offending_index():
    with pytest.raises(ValueError, match="index 2"):
        sort_pvalues([0.1, 0.2, 1.5])
    with pytest.raises(ValueError, match="index 0"):
        sort_pvalues([-0.01, 0.2])
    with pytest.raises(ValueError, match="index 1"):
        sort_pvalues([0.1, float("nan")])


def test_validation_names_the_first_value_outside_the_unit_interval():
    # the check reads the sorted ends, so a bad value anywhere, nan included, must still name the first one
    rng = np.random.default_rng(29)
    for _ in range(200):
        values = rng.uniform(size=int(rng.integers(1, 40)))
        bad = rng.choice(values.size, size=int(rng.integers(1, min(4, values.size) + 1)), replace=False)
        values[bad] = rng.choice([math.nan, math.inf, -math.inf, -5e-324, np.nextafter(1.0, 2.0), 2.0], size=bad.size)
        i = int(bad.min())
        with pytest.raises(ValueError) as err:
            sort_pvalues(values)
        assert str(err.value) == f"p-value at index {i} is {float(values[i])!r}, outside [0, 1]"
    assert sort_pvalues([-0.0, 1.0, 0.0]).m == 3  # the ends themselves are inside
    # a 0 or a 1 before the bad value is no bad value; the value prints as a plain float
    for values, i, bad in (([0.0, 1.5], 1, "1.5"), ([1.0, 0.5, -0.25], 2, "-0.25"), ([0.0, 1.0, math.nan], 2, "nan")):
        with pytest.raises(ValueError) as err:
            sort_pvalues(values)
        assert str(err.value) == f"p-value at index {i} is {bad}, outside [0, 1]"


def test_empty_sample_rejected():
    with pytest.raises(ValueError, match="nonempty 1-d"):
        sort_pvalues([])
    with pytest.raises(ValueError, match="nonempty 1-d"):
        sort_pvalues([[0.1, 0.2]])


def test_truth_length_mismatch():
    with pytest.raises(ValueError, match="length 2"):
        sort_pvalues([0.1, 0.2, 0.3], truth=[True, False])


def test_boundary_pvalues_accepted():
    proc = sort_pvalues([0.0, 0.5, 1.0])
    assert proc.count_R(0.0) == 1
    assert proc.count_R(1.0) == 3


def test_count_R_examples():
    proc = sort_pvalues([0.1, 0.2, 0.3])
    assert proc.count_R(0.2) == 2
    assert proc.count_R(1.0) == 3
    assert proc.count_R(0.05) == 0


def test_count_R_domain_error():
    proc = sort_pvalues([0.1])
    with pytest.raises(ValueError, match="outside"):
        proc.count_R(1.1)
    with pytest.raises(ValueError, match="outside"):
        proc.count_R(-0.1)


@pytest.mark.parametrize("t", ["0.5", True])
def test_count_threshold_must_be_a_number(t):
    proc = sort_pvalues([0.1, 0.9], truth=[False, True])
    with pytest.raises(ValueError, match=f"threshold t={t!r} is not a number"):
        proc.count_R(t)
    with pytest.raises(ValueError, match=f"threshold t={t!r} is not a number"):
        proc.count_V(t)


def test_count_V_S_examples():
    proc = sort_pvalues([0.1, 0.9], truth=[False, True])
    assert proc.count_V(0.5) == 0
    assert proc.count_R(0.5) - proc.count_V(0.5) == 1  # S(0.5): the one false null

    proc = sort_pvalues([0.2, 0.4, 0.6], truth=[True, True, True])
    assert proc.count_V(0.5) == 2
    assert proc.count_V(0.0) == 0

    proc = sort_pvalues([0.25, 0.5, 0.5], truth=[True, True, False])
    assert proc.count_V(0.25) == 1
    assert proc.count_V(0.5) == 2  # p <= t: the null at 0.5 counts, the false null there does not


def test_counts_need_labels():
    proc = sort_pvalues([0.1, 0.9])
    with pytest.raises(ValueError, match=r"^V\(t\) needs truth labels, sample has none$") as raised:
        proc.count_V(0.5)
    assert type(raised.value) is ValueError


def test_count_R_matches_naive_scan():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = int(rng.integers(1, 1000))
        pvals = rng.random(m)
        proc = sort_pvalues(pvals)
        for t in rng.random(100):
            assert proc.count_R(float(t)) == naive_count(pvals, t)


def test_counts_monotone_in_t():
    rng = np.random.default_rng(12)
    pvals = rng.random(200)
    truth = rng.random(200) < 0.7
    proc = sort_pvalues(pvals, truth=truth)
    ts = np.sort(rng.random(50))
    for count in (proc.count_R, proc.count_V):
        values = [count(float(t)) for t in ts]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_V_plus_S_equals_R():
    rng = np.random.default_rng(13)
    for _ in range(5):
        m = int(rng.integers(2, 300))
        pvals = rng.random(m)
        truth = rng.random(m) < 0.6
        proc = sort_pvalues(pvals, truth=truth)
        for t in rng.random(100):
            t = float(t)
            v = proc.count_V(t)
            assert v == naive_count(pvals[truth], t)
            assert v + naive_count(pvals[~truth], t) == proc.count_R(t)


def test_arrays_are_immutable():
    values, truth = np.array([0.2, 0.1]), np.array([True, False])
    proc = sort_pvalues(values, truth=truth)
    for arr in (proc.ordered, proc.values, proc.truth):
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    values[0], truth[0] = 0.9, False  # the caller's arrays stay theirs
    assert proc.values.tolist() == [0.2, 0.1] and proc.truth.tolist() == [True, False]


# each interval's values just outside it (nan and +-inf are added to every one) and its ends that are inside
OUTSIDE = {
    "(0, 1)": (0.0, 1.0),
    "(0, 1]": (0.0, 1.0000000000000002),
    "[0, 1)": (-5e-324, 1.0),
    "[0, 1]": (-5e-324, 1.0000000000000002),
    "(0, inf)": (0.0,),
    "(-1, 1)": (-1.0, 1.0),
}
INSIDE = {"(0, 1]": (1.0,), "[0, 1)": (0.0,), "[0, 1]": (0.0, 1.0), "(0, inf)": (5e-324, 1e300)}
FOUR = sort_pvalues([0.01, 0.02, 0.5, 0.9])


def _raised(fn):
    """call(value, path): the message of the ValueError ``fn(value)`` raises, None when it raises none."""

    def call(value, path):
        try:
            fn(value)
        except ValueError as exc:
            return str(exc)
        return None

    return call


def _analyze(flag, *more):
    """call(value, path): what ``dynfdr analyze`` says of ``--flag=value`` after naming the flag, None when it runs."""

    def call(value, path):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["analyze", str(path), f"--{flag}={value!r}", *more])
            except SystemExit as exc:
                code = exc.code
        if code != 2:
            assert code == 0, err.getvalue()
            return None
        last = err.getvalue().splitlines()[-1]
        prefix = f"dynfdr analyze: error: argument --{flag}: "
        assert last.startswith(prefix), last
        return last[len(prefix):]

    return call


RANGE_CHECKS = [  # (id, name, interval, call)
    ("count_R", "threshold t", "[0, 1]", _raised(FOUR.count_R)),
    ("pi0_storey_plus", "lambda", "[0, 1)", _raised(lambda v: pi0_storey_plus(FOUR, v))),
    ("fdr_hat_star-pi0_star", "pi0_star", "(0, inf)", _raised(lambda v: fdr_hat_star(FOUR, v, 0.01, 0.05))),
    ("fdr_hat_star-kappa", "kappa", "(0, 1)", _raised(lambda v: fdr_hat_star(FOUR, 1.0, 0.01, v))),
    ("fdr_hat_star-t", "t", "[0, 1]", _raised(lambda v: fdr_hat_star(FOUR, 1.0, v, 0.05))),
    ("bh_step_up-alpha", "alpha", "(0, 1)", _raised(lambda v: bh_step_up(FOUR, v))),
    ("bh_step_up-pi0_target", "pi0_target", "(0, 1]", _raised(lambda v: bh_step_up(FOUR, 0.05, v))),
    ("threshold_functional-pi0_star", "pi0_star", "(0, inf)", _raised(lambda v: threshold_functional(FOUR, v, 0.05, 0.05))),
    ("threshold_functional-alpha", "alpha", "(0, 1)", _raised(lambda v: threshold_functional(FOUR, 1.0, v, 0.05))),
    ("threshold_functional-kappa", "kappa", "(0, 1)", _raised(lambda v: threshold_functional(FOUR, 1.0, 0.05, v))),
    ("LowestSlopeRule-kappa", "kappa", "(0, 1)", _raised(lambda v: LowestSlopeRule(kappa=v))),
    ("RightBoundaryRule-grid", "candidate grid entry", "(0, 1)", _raised(lambda v: RightBoundaryRule(grid=(0.5, v), kappa=0.05))),
    ("ScenarioConfig-pi0", "pi0", "(0, 1]", _raised(lambda v: ScenarioConfig(m=10, pi0=v, mu=1.0, n_reps=1, seed=0))),
    ("ScenarioConfig-alpha", "alpha", "(0, 1)", _raised(lambda v: ScenarioConfig(m=10, pi0=0.8, mu=1.0, n_reps=1, seed=0, alpha=v))),
    ("ScenarioConfig-kappa", "kappa", "(0, 1)", _raised(lambda v: ScenarioConfig(m=10, pi0=0.8, mu=1.0, n_reps=1, seed=0, kappa=v))),
    ("BlockAR-rho", "rho", "(-1, 1)", _raised(lambda v: BlockAR(block_size=5, rho=v))),
    ("cli-alpha", "alpha", "(0, 1)", _analyze("alpha")),
    ("cli-kappa", "kappa", "(0, 1)", _analyze("kappa")),
    ("cli-pi0", "pi0", "(0, 1]", _analyze("pi0", "--procedure", "orc")),
]


@pytest.mark.parametrize("name, within, call", [c[1:] for c in RANGE_CHECKS], ids=[c[0] for c in RANGE_CHECKS])
def test_every_range_check_speaks_one_message(tmp_path, name, within, call):
    path = tmp_path / "pvals.txt"
    path.write_text("0.01\n0.02\n0.5\n0.9\n")
    for value in (*OUTSIDE[within], math.nan, math.inf, -math.inf):
        assert call(value, path) == f"{name}={value!r} outside {within}"
    for value in INSIDE.get(within, ()):
        assert call(value, path) is None, value
