#!/usr/bin/env python3
"""Tour of the basic objects: p-value samples, order statistics, and the
counting processes R(t) and V(t) that every estimator consumes; the
false-null count S(t) is their difference."""

import numpy as np

from dynfdr import pi0_storey, pi0_storey_plus, sort_pvalues

print("=" * 72)
print("p-value containers and counting processes")
print("=" * 72)

# A tiny labelled sample: three signals (false nulls) buried in noise.
pvals = [0.001, 0.004, 0.011, 0.23, 0.41, 0.48, 0.62, 0.77, 0.85, 0.93]
truth = [False, False, False, True, True, True, True, True, True, True]
proc = sort_pvalues(pvals, truth)
m0 = int(np.count_nonzero(proc.truth))
print(f"\nm = {proc.m} hypotheses, {m0} true nulls, {proc.m - m0} false nulls")
print("order statistics:", np.round(proc.ordered, 3))
print("original index of each order statistic:", np.argsort(proc.values, kind="stable"))
print("\n t      R(t)  V(t)  S(t)")
for t in (0.005, 0.05, 0.25, 0.5, 1.0):
    r, v = proc.count_R(t), proc.count_V(t)
    print(f" {t:<6g} {r:>4} {v:>5} {r - v:>5}")

# The tail estimators of the true-null proportion: the plus-one variant
# never vanishes, which is what lets it sit in a denominator downstream.
print("\n lambda  pi0(lambda)  pi0*(lambda)")
for lam in (0.0, 0.25, 0.5, 0.75, 0.9):
    print(f" {lam:<7g} {pi0_storey(proc, lam):>11.4f} {pi0_storey_plus(proc, lam):>13.4f}")

print("\nTrue pi0 here is 0.7; estimates at moderate lambda hover above it,")
print("which is the conservative behaviour the procedures rely on.")
