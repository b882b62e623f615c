#!/usr/bin/env python3
"""Empirically re-derive the guarantees instead of taking them on faith:
the exact binomial bound, the supermartingale inequality, finite-sample
FDR control, and conservative pi0 estimation."""

from dynfdr.verify import (
    conservative_estimation_check,
    fdr_control_check,
    format_report,
    lemma2_exact_check,
    supermartingale_check,
)

print("1) exact binomial reciprocal-moment bound, all n <= 60 x 19 p-values")
results = lemma2_exact_check()
worst = min(r.bound - r.statistic for r in results)
print(f"   {len(results)} pairs hold; tightest margin = {worst:.3e}\n")

print("2) supermartingale inequality, conditional on the count at time s, over the suite's m0 and (s, t)")
results = supermartingale_check(seed=7)
checked = sum(1 for r in results if not r.detail.startswith("skipped"))
print(f"   {checked} strata checked, all pass: {all(r.passed for r in results)}\n")

print("3) finite-sample FDR control, over the suite's m = 1000, pi0 = 0.8, mu = 2 at J = 600")
results = fdr_control_check(seed=7, reps=600)
print("\n".join("   " + line for line in format_report(results).splitlines()))

print("\n4) conservative pi0 estimation under the suite's weak signal, mu = 1, at J = 600")
results = conservative_estimation_check(seed=8, reps=600)
print("\n".join("   " + line for line in format_report(results).splitlines()))
