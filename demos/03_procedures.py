#!/usr/bin/env python3
"""Run every thresholding procedure on one labelled replication and
compare their rejection sets against the ground truth."""

import numpy as np

from dynfdr import DEFAULT_PROCEDURES, parse_rule_spec, run_procedure
from dynfdr.simulate import ScenarioConfig, generate_statistics

cfg = ScenarioConfig(m=5000, pi0=0.8, mu=2.0, n_reps=1, seed=20301)
proc = generate_statistics(cfg, 0)
print(f"m = {cfg.m}, pi0 = {cfg.pi0}, mu = {cfg.mu}, alpha = {cfg.alpha}")
print(f"{cfg.m1} false nulls to find\n")

print(f"{'procedure':<11} {'lambda':>7} {'pi0*':>7} {'threshold':>10} {'rejected':>9} "
      f"{'false pos':>10} {'FDP':>6}")
print("-" * 66)
for spec in DEFAULT_PROCEDURES:
    res = run_procedure(parse_rule_spec(spec, cfg.kappa), proc, cfg.alpha, pi0=cfg.pi0)
    v = int(np.count_nonzero(proc.truth[res.rejected]))
    fdp = v / max(res.n_rejected, 1)
    lam = "-" if np.isnan(res.pi0.lam) else f"{res.pi0.lam:.3f}"  # the step-up baselines pick none
    pi0 = f"{res.pi0.value:.3f}"
    print(f"{spec:<11} {lam:>7} {pi0:>7} {res.threshold:>10.6f} {res.n_rejected:>9} "
          f"{v:>10} {fdp:>6.3f}")

print("\nThe plain step-up procedure implicitly works at pi0 = 1 and leaves")
print("power on the table; the adaptive procedures recover most of the gap")
print("to the oracle while keeping the false discovery proportion in check.")
print("\nEvery adaptive rejection sits inside the region [0, kappa]:")
res = run_procedure(parse_rule_spec("rb20", cfg.kappa), proc, cfg.alpha)
print(f"  rb20 threshold = {res.threshold:.6f} <= kappa = {cfg.kappa}")
