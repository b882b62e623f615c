#!/usr/bin/env python3
"""The lambda selection rules side by side on one synthetic dataset.

Each rule scans candidates left to right and stops when the pi0 estimate
stops decreasing; they differ only in which candidates they consider.
The trace shows exactly what each rule looked at before stopping.
"""

import numpy as np

from dynfdr import (
    FixedRule,
    KQuantileRule,
    LowestSlopeRule,
    RightBoundaryQuantileRule,
    RightBoundaryRule,
    sort_pvalues,
    TWENTY_BIN_GRID,
)
from dynfdr.simulate import ScenarioConfig, generate_statistics

KAPPA = 0.05

cfg = ScenarioConfig(m=2000, pi0=0.8, mu=1.5, n_reps=1, seed=424242)
proc = generate_statistics(cfg, 0)
print(f"one replication: m = {cfg.m}, true pi0 = {cfg.pi0}, effect size mu = {cfg.mu}")

print("\nrule                      lambda   pi0*     candidates examined")
print("-" * 72)
rules = [
    ("fixed lambda = 0.5", FixedRule(0.5, KAPPA)),
    ("right boundary (20 bins)", RightBoundaryRule(TWENTY_BIN_GRID, KAPPA)),
    ("lowest slope", LowestSlopeRule(KAPPA)),
    ("median quantile", KQuantileRule(None, KAPPA)),
    ("rb over 19 quantiles", RightBoundaryQuantileRule(TWENTY_BIN_GRID, KAPPA)),
]
for name, rule in rules:
    est = rule.select(proc)
    print(f"{name:<25} {est.lam:<8.4f} {est.value:<8.4f} {len(est.trace)}")

print("\nThe lowest-slope rule checks a stopping condition at every order")
print("statistic, so it tends to stop very early and over-estimate pi0:")
est = LowestSlopeRule(KAPPA).select(proc)
for lam, value in est.trace[:6]:
    print(f"  candidate {lam:.5f} -> estimate {value:.4f}")
print(f"  ... stopped at lambda = {est.lam:.5f}")

print("\nThe right-boundary scan looks at far fewer candidates:")
est = RightBoundaryRule(TWENTY_BIN_GRID, KAPPA).select(proc)
for lam, value in est.trace:
    print(f"  candidate {lam:.2f} -> estimate {value:.4f}")
print(f"  stopped at lambda = {est.lam:.2f}, pi0* = {est.value:.4f}")

# Degenerate inputs fall back gracefully and say so.
tiny = sort_pvalues([0.001, 0.002, 0.004])
est = RightBoundaryQuantileRule(TWENTY_BIN_GRID, KAPPA).select(tiny)
print(f"\nall p-values below kappa: lambda = {est.lam}, flags = {est.flags}")
