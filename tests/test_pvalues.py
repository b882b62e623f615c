"""Containers and counting processes."""

from __future__ import annotations

import numpy as np
import pytest

from dynfdr import MissingTruthLabels, sort_pvalues

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


def test_count_V_S_examples():
    proc = sort_pvalues([0.1, 0.9], truth=[False, True])
    assert proc.count_V(0.5) == 0
    assert proc.count_R(0.5) - proc.count_V(0.5) == 1  # S(0.5): the one false null

    proc = sort_pvalues([0.2, 0.4, 0.6], truth=[True, True, True])
    assert proc.count_V(0.5) == 2
    assert proc.count_V(0.0) == 0


def test_counts_need_labels():
    proc = sort_pvalues([0.1, 0.9])
    with pytest.raises(MissingTruthLabels):
        proc.count_V(0.5)


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
