#!/usr/bin/env python3
"""Desk-scale simulation study: realized FDR, power relative to the
oracle, and the accuracy of the implied true-null count, across effect
sizes and under block-correlated noise.

Writes the long-format CSV panels next to this script; plot them with
any tool that reads (scenario, procedure, metric, value, mc_se) rows.
Full-scale settings are a config choice, not a code change.
"""

import time
from pathlib import Path

from dynfdr.simulate import BlockAR, ScenarioConfig, emit_figure_data, run_experiment

SEED = 905
M, J = 1000, 500  # desk scale; raise J for publication-quality error bars
EFFECT_SIZES = (0.5, 1.0, 2.0, 4.0)

rows = []
t0 = time.time()
for dep_name, dependence in (("independent", None), ("block-AR", BlockAR(50, -0.9))):
    print(f"\n=== {dep_name} statistics ===")
    print(f"{'mu':>4} {'procedure':<11} {'fdr':>7} {'corr_fdr':>9} {'rel_power':>10} {'mse_m0':>10}")
    for i, mu in enumerate(EFFECT_SIZES):
        cfg = ScenarioConfig(
            m=M, pi0=0.8, mu=mu, n_reps=J,
            seed=SEED + i + (100 if dependence else 0),
            dependence=dependence,
        )
        table = run_experiment(cfg)
        rows.extend(table)
        for row in table:
            print(f"{mu:>4g} {row.procedure:<11} {row.realized_fdr:>7.4f} "
                  f"{row.corrected_fdr:>9.4f} {row.relative_power:>10.4f} {row.mse_m0:>10.1f}")

out = Path(__file__).with_name("simulation_panels.csv")
emit_figure_data(rows, out)
print(f"\nwrote {out} in {time.time() - t0:.1f}s")
print("Things to look for: realized FDR stays at or below 0.05 up to the")
print("Monte Carlo noise recorded in mc_se; the right-boundary variants")
print("dominate lowest-slope on power and m0 error; at mu = 4 everything")
print("saturates at the oracle's power.")
