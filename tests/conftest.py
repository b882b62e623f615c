"""Shared test helpers: naive oracles kept independent of the library paths."""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_SERIES_CUTOFF = 3.0
_CF_DEPTH = 400


def naive_count(pvals, t):
    """O(m) scan oracle for R(t)."""
    return int(sum(1 for p in pvals if p <= t))


def naive_rejection_set(pvals, threshold):
    return {i for i, p in enumerate(pvals) if p <= threshold}


def read_pvalue_lines(path):
    """The p-value file reader, one line at a time: the oracle of ``cli._read_pvalue_file``.

    Lines are ``str.splitlines`` of the UTF-8 text; a first line whose
    first field is not a float is a header; each line holds a p-value in
    [0, 1] and, in every line or in none, a 0/1 truth label (1 = true
    null); fields split at commas and whitespace.
    """
    from dynfdr import sort_pvalues
    from dynfdr.cli import CliError

    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    values, labels, has_labels = [], [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = re.split(r"[,\s]+", line)
        try:
            p = float(fields[0])
        except ValueError:
            if lineno == 1 and not values:
                continue
            raise CliError(f"line {lineno}: cannot parse p-value from {raw!r}") from None
        if not 0.0 <= p <= 1.0:
            raise CliError(f"line {lineno}: p-value {p} outside [0, 1]")
        if len(fields) > 2:
            raise CliError(f"line {lineno}: expected at most 2 columns, got {len(fields)}")
        row_has_label = len(fields) == 2
        if has_labels is None:
            has_labels = row_has_label
        elif has_labels != row_has_label:
            raise CliError(f"line {lineno}: inconsistent column count (truth labels must be all-or-none)")
        if row_has_label:
            if fields[1] not in ("0", "1"):
                raise CliError(f"line {lineno}: truth label must be 0 or 1, got {fields[1]!r}")
            labels.append(fields[1] == "1")
        values.append(p)
    if not values:
        raise CliError(f"no p-values found in {path}")
    return sort_pvalues(values, labels if has_labels else None)


def row(rows, procedure, scenario=None):
    """The MetricsRow of ``procedure`` (and ``scenario``, when given) in run_experiment's rows."""
    for r in rows:
        if r.procedure == procedure and (scenario is None or r.scenario == scenario):
            return r
    raise KeyError(f"no row for procedure={procedure!r}, scenario={scenario!r}")


def _phi(x):
    return math.exp(-0.5 * x * x) / _SQRT_TWO_PI


def reference_normal_cdf(x):
    """Standard normal CDF built independently of any library routine.

    Power series 1/2 + phi(x) * sum x^(2k+1)/(1*3*...*(2k+1)) below
    |x| = 3, tail continued fraction phi(x)/(x + 1/(x + 2/(x + ...)))
    beyond, both with compensated summation.  The oracle the production
    normal CDF is cross-checked against.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("x is NaN")
    ax = abs(x)
    if ax < _SERIES_CUTOFF:
        terms = []
        term = ax
        k = 0
        while term > 1e-22 and k < 500:
            terms.append(term)
            k += 1
            term *= ax * ax / (2 * k + 1)
        half = _phi(ax) * math.fsum(terms)
        return 0.5 + half if x >= 0 else 0.5 - half
    cf = 0.0
    for k in range(_CF_DEPTH, 0, -1):
        cf = k / (ax + cf)
    tail = _phi(ax) / (ax + cf)
    return 1.0 - tail if x >= 0 else tail


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
    """The per-replication loop written out: generate the sorted sample -> run_procedure -> FDP/power/pi0.

    Returns ``(records, v_kappa)``: ``records[s]`` is a (J, 4) array of
    (FDP, power, lambda, pi0) per replication for spec ``s``, ``v_kappa``
    the naive count of true nulls at or below kappa per replication.
    """
    from dynfdr import generate_statistics, parse_rule_spec, run_procedure

    rules = {s: parse_rule_spec(s, cfg.kappa) for s in specs}
    records = {s: np.empty((cfg.n_reps, 4)) for s in specs}
    v_kappa = np.empty(cfg.n_reps)
    for j in range(cfg.n_reps):
        proc = generate_statistics(cfg, j)
        v_kappa[j] = naive_count(proc.values[proc.truth], cfg.kappa)
        for s in specs:
            res = run_procedure(rules[s], proc, cfg.alpha, pi0=cfg.pi0)
            v = sum(1 for i in res.rejected if proc.truth[i])
            r = len(res.rejected)
            power = (r - v) / cfg.m1 if cfg.m1 > 0 else 0.0
            records[s][j] = (v / max(r, 1), power, res.pi0.lam, res.pi0.value)
    return records, v_kappa
