"""Shared test helpers: naive oracles kept independent of the library paths."""

from __future__ import annotations

import numpy as np


def naive_count(pvals, t):
    """O(m) scan oracle for R(t)."""
    return int(sum(1 for p in pvals if p <= t))


def naive_rejection_set(pvals, threshold):
    return {i for i, p in enumerate(pvals) if p <= threshold}


def brute_force_threshold(pvals, pi0_star, alpha, kappa):
    """Exhaustive sup over the finite candidate set {0, p_(1..m), kappa}.

    Evaluates the truncated FDR estimate from its formula with naive
    counting and returns the largest admissible candidate.
    """
    m = len(pvals)
    candidates = [0.0, float(kappa)] + [float(p) for p in pvals]
    best = 0.0
    for c in candidates:
        if c > kappa:
            continue  # estimate is pinned to 1 there, never <= alpha
        estimate = m * pi0_star * c / max(naive_count(pvals, c), 1)
        if estimate <= alpha and c > best:
            best = c
    return best


def random_mixture_pvalues(rng, m, null_fraction=0.7, rate=8.0):
    """Null/alternative mixture with a spiked-near-zero alternative."""
    n_null = int(round(null_fraction * m))
    nulls = rng.random(n_null)
    alts = rng.random(m - n_null) ** rate
    pvals = np.concatenate([nulls, alts])
    rng.shuffle(pvals)
    return pvals


def replication_records(cfg, specs):
    """The per-replication loop written out: generate -> sort -> run_procedure -> FDP/power/pi0.

    Returns ``(records, v_kappa)``: ``records[s]`` is a (J, 4) array of
    (FDP, power, lambda, pi0) per replication for spec ``s``, ``v_kappa``
    the naive count of true nulls at or below kappa per replication.
    """
    from dynfdr import EmpiricalProcesses, generate_statistics, run_procedure, sort_pvalues

    records = {s: np.empty((cfg.n_reps, 4)) for s in specs}
    v_kappa = np.empty(cfg.n_reps)
    for j in range(cfg.n_reps):
        sample = generate_statistics(cfg, j)
        proc = EmpiricalProcesses(sort_pvalues(sample), sample.truth)
        v_kappa[j] = naive_count(sample.values[sample.truth], cfg.kappa)
        for s in specs:
            res = run_procedure(s, proc, cfg.alpha, cfg.kappa, pi0=cfg.pi0)
            v = sum(1 for i in res.rejected if sample.truth[i])
            r = len(res.rejected)
            power = (r - v) / cfg.m1 if cfg.m1 > 0 else 0.0
            records[s][j] = (v / max(r, 1), power, res.pi0.lam, res.pi0.value)
    return records, v_kappa
