"""Shared test helpers: naive oracles kept independent of the library paths."""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from fractions import Fraction
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

    Lines are ``str.splitlines`` of the UTF-8 text less a leading byte
    order mark; fields are ``str.split`` of a line; a first line whose
    first field is not a float is a header; every other nonblank line
    holds one field, a p-value in [0, 1].
    """
    from dynfdr import sort_pvalues
    from dynfdr.cli import CliError

    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        try:
            p = float(fields[0])
        except ValueError:
            if lineno == 1:
                continue
            raise CliError(f"line {lineno}: cannot parse p-value from {raw!r}") from None
        if len(fields) > 1:
            raise CliError(f"line {lineno}: expected one p-value per line, got {len(fields)} fields")
        if not 0.0 <= p <= 1.0:
            raise CliError(f"line {lineno}: p-value {p} outside [0, 1]")
        values.append(p)
    if not values:
        raise CliError(f"no p-values found in {path}")
    return sort_pvalues(values)


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
    from dynfdr import parse_rule_spec, run_procedure
    from dynfdr.simulate import generate_statistics

    rules = {s: parse_rule_spec(s, cfg.kappa) for s in specs}
    records = {s: np.empty((cfg.n_reps, 4)) for s in specs}
    v_kappa = np.empty(cfg.n_reps)
    for j in range(cfg.n_reps):
        proc = generate_statistics(cfg, j)
        v_kappa[j] = naive_count(proc.values[proc.truth], cfg.kappa)
        pi0 = np.count_nonzero(proc.truth) / cfg.m  # orc at the labels' share of true nulls, not cfg.m0 / cfg.m
        for s in specs:
            res = run_procedure(rules[s], proc, cfg.alpha, pi0=pi0)
            v = sum(1 for i in res.rejected if proc.truth[i])
            r = len(res.rejected)
            power = (r - v) / cfg.m1 if cfg.m1 > 0 else 0.0
            records[s][j] = (v / max(r, 1), power, res.pi0.lam, res.pi0.value)
    return records, v_kappa


def bootstrap_lambda_threshold(proc, rng, alpha, kappa, n_boot=100):
    """The threshold of Storey, Taylor & Siegmund's (2004) bootstrap lambda, which is no stopping time.

    On the twenty-bin grid, lambda minimises the mean squared distance of
    the plain estimate on ``n_boot`` resamples of the p-values to the
    smallest plain estimate on the sample; it is raised to kappa, and the
    plus-one estimate at lambda goes through ``threshold_functional``.
    """
    from dynfdr import TWENTY_BIN_GRID, pi0_storey_plus, threshold_functional

    grid = np.array(TWENTY_BIN_GRID)

    def plain(p):  # the plain estimate at every grid point, per row of p
        return (p[..., None] > grid).sum(axis=-2) / ((1.0 - grid) * proc.m)

    boot = proc.values[rng.integers(0, proc.m, (n_boot, proc.m))]
    mse = ((plain(boot) - plain(proc.values).min()) ** 2).mean(axis=0)
    lam = max(float(grid[np.argmin(mse)]), kappa)
    return threshold_functional(proc, pi0_storey_plus(proc, lam), alpha, kappa)


# The proof's middle term (alpha/kappa) E[V(kappa) / (m pi0*)] under Dirac-uniform: the m1 false
# nulls sit at p = 0 and the m0 = m - m1 nulls are iid U(0, 1), so R(t) = m1 + V(t) and
# V(kappa) / (m pi0*) = V(kappa) (1 - lambda) / (m0 - V(lambda) + 1).  Optional stopping bounds
# it by alpha (1 - kappa^m0) when lambda >= kappa is a stopping time.


def dirac_uniform_fixed_term(lam, m, m1, alpha, kappa):
    """The middle term of a fixed lambda >= kappa, in closed form.

    Given V(kappa) = v, E[(1 - lambda) / (m0 - V(lambda) + 1)] = (1 - kappa)(1 - q^(m0-v+1)) / (m0 - v + 1)
    with q = (lambda - kappa) / (1 - kappa).  Exact when the arguments are ``Fraction``s.
    """
    m0 = m - m1
    q = (lam - kappa) / (1 - kappa)
    return sum(
        math.comb(m0, v) * kappa**v * (1 - kappa) ** (m0 - v)
        * (alpha / kappa) * v * (1 - kappa) * (1 - q ** (m0 - v + 1)) / (m0 - v + 1)
        for v in range(m0 + 1)
    )


def _binomial_pmf(n, q):
    """P(X = k), k = 0..n, for X ~ BIN(n, q), from ``math.comb``."""
    return np.array([math.comb(n, k) * q**k * (1.0 - q) ** (n - k) for k in range(n + 1)])


def dirac_uniform_rb_term(grid, m, m1, alpha, kappa):
    """The middle term of the right-boundary rule on ``grid`` (ascending, from kappa up), by a binomial chain.

    The chain holds P(V(kappa) = a, V(g) = b, no stop yet) at the last point g it reached
    and moves it to the next grid point with the binomial law of the nulls in between.
    There the scan stops where the plain estimate (m0 - V) / ((1 - g) m), formed as
    ``estimators.tail_estimate`` forms it, does not fall below the one at the previous
    candidate (at 0 it is m0 / m); the stopped mass is summed at lambda = g.  What never
    stops is summed at the last grid point.
    """
    assert grid[0] >= kappa
    m0 = m - m1
    v = np.arange(m0 + 1)
    joint = np.diag(_binomial_pmf(m0, kappa))
    point, prev_est = kappa, np.full(m0 + 1, m0 / m)

    def term(lam, mass):
        return np.sum(mass * (alpha / kappa) * v[:, None] * (1.0 - lam) / (m0 - v[None, :] + 1))

    total = 0.0
    for g in grid:
        q = (g - point) / (1.0 - point)
        move = np.zeros((m0 + 1, m0 + 1))  # move[b, c] = P(V(g) = c | V(point) = b)
        for b in range(m0 + 1):
            move[b, b:] = _binomial_pmf(m0 - b, q)
        est = (m0 - v) / ((1.0 - g) * m)
        stops = est[None, :] >= prev_est[:, None]
        total += term(g, joint @ (move * stops))
        joint = joint @ (move * ~stops)
        point, prev_est = g, est
    return total + term(grid[-1], joint)


def dirac_uniform_enumerated_term(pi0_star, grid, m, m1, alpha, kappa):
    """The middle term of a rule that reads counts at the grid points only, by enumerating the null counts.

    Every split of the m0 nulls over the cells between 0, kappa, the grid points and 1
    is one sample: the nulls of a cell (s, t] sit at t, so the counts at kappa and at
    every grid point are those of the split.  ``pi0_star(proc)`` gives the rule's pi0*
    on that sample, and the term is weighted by the split's multinomial probability.
    """
    from dynfdr import sort_pvalues

    m0 = m - m1
    edges = (0.0, *sorted({kappa, *grid}), 1.0)
    cells = len(edges) - 1
    truth = np.arange(m) >= m1
    terms = []
    for bars in itertools.combinations(range(m0 + cells - 1), cells - 1):
        counts = np.diff((-1, *bars, m0 + cells - 1)) - 1
        weight = math.factorial(m0) / math.prod(math.factorial(c) for c in counts)
        weight *= math.prod((t - s) ** c for s, t, c in zip(edges, edges[1:], counts))
        nulls = np.repeat(edges[1:], counts)
        proc = sort_pvalues(np.concatenate([np.zeros(m1), nulls]), truth)
        v_kappa = np.count_nonzero(nulls <= kappa)
        terms.append(weight * (alpha / kappa) * v_kappa / (m * pi0_star(proc)))
    return math.fsum(terms)


def discrete_uniform_multisets(m0, K):
    """Every multiset of m0 null p-values from {1/K, ..., 1}, and its weight.

    Returns an (n, m0) float array with one multiset per row, ascending, n = C(K + m0 - 1, m0), and
    the int array of weights m0! / prod c_i!, where a row's values repeat c_1, c_2, ... times.  A
    row's probability is its weight / K^m0, so the weights sum to K^m0.
    """
    cells = np.array(list(itertools.combinations_with_replacement(range(1, K + 1), m0))).reshape(-1, m0)
    repeats = np.stack([np.count_nonzero(cells == k, axis=1) for k in range(1, K + 1)], axis=1)
    factorials = np.array([math.factorial(c) for c in range(m0 + 1)])
    return cells / K, math.factorial(m0) // factorials[repeats].prod(axis=1)


def multiset_fdr(v, weights, m1):
    """The exact FDR, a ``Fraction``, of cuts that reject the m1 false nulls and ``v[i]`` nulls of multiset i."""
    total = int(weights.sum())
    by_v = {u: int(weights[v == u].sum()) for u in map(int, np.unique(v))}  # the weights summed per count
    return sum((Fraction(w * u, (m1 + u) * total) for u, w in by_v.items() if u), Fraction(0))


def discrete_uniform_exact_fdr(cuts, m0, m1, K):
    """The exact FDR of each cut and the probability of each flag it raises, as ``Fraction``s.

    The m1 false nulls sit at p = 0, the m0 true nulls are iid uniform on {1/K, ..., 1}: the law of a
    permutation p-value with K - 1 permutations, P(p <= t) = floor(K t) / K <= t, with ties, and mass at
    p = 1.  ``cuts`` maps a name to a function of the sorted sample that returns the rejection threshold
    and the flags the rule raised.  The sum runs over ``discrete_uniform_multisets``; each multiset is
    sorted once and every cut reads it.  Returns ({name: fdr}, {name: {flag: probability}}).
    """
    from dynfdr import sort_pvalues

    nulls, weights = discrete_uniform_multisets(m0, K)
    v = {name: [] for name in cuts}  # the nulls at or below each threshold
    by_flag = {name: Counter() for name in cuts}  # the weights summed per flag
    for row, weight in zip(nulls.tolist(), weights.tolist()):
        proc = sort_pvalues([0.0] * m1 + row)
        for name, cut in cuts.items():
            threshold, flags = cut(proc)
            v[name].append(bisect.bisect_right(row, threshold))
            by_flag[name].update(dict.fromkeys(flags, weight))
    flags = {name: {f: Fraction(w, K**m0) for f, w in counts.items()} for name, counts in by_flag.items()}
    return {name: multiset_fdr(np.array(v[name]), weights, m1) for name in cuts}, flags


def equicorrelated_statistics(m, m1, mu, rho, rng):
    """A one-factor (equicorrelated) sample: X_i = sqrt(rho) Z_0 + sqrt(1 - rho) Z_i, plus mu on the m1 false nulls.

    Z_0, ..., Z_m are standard normals drawn from ``rng`` in that order, the
    false nulls are the first m1 indices, and the p-values ``_normal_cdf(-X)``
    are sorted with their labels by ``sort_pvalues``.  Every pair of
    statistics has correlation rho, so no two p-values are independent.
    """
    from dynfdr import sort_pvalues
    from dynfdr.simulate import _normal_cdf

    z = rng.standard_normal(m + 1)
    x = math.sqrt(rho) * z[0] + math.sqrt(1.0 - rho) * z[1:]
    x[:m1] += mu
    return sort_pvalues(_normal_cdf(-x), np.arange(m) >= m1)


def one_shot_supermartingale_check(m0, s, t, draws, seed):
    """``verify.supermartingale_check`` with V(s), V(t) counted from one (draws, m0) draw.

    The oracle of the blocked draw: the whole uniform matrix is held at
    once, reduced to the two counts per row, and the strata are checked
    exactly as the library checks them.
    """
    from dynfdr.verify import CheckResult, _three_se_check

    u = np.random.default_rng([seed, m0]).random((draws, m0))
    v_s = (u <= s).sum(axis=1)
    v_t = (u <= t).sum(axis=1)
    m_t = (1.0 - t) / (m0 - v_t + 1.0)
    label = f"supermartingale(m0={m0},s={s:g},t={t:g})"
    results = [CheckResult(f"{label}[terminal]", 0.0, 0.0, 0.0, True, "M(1) = 0 exactly")]
    for v in np.unique(v_s):
        sel = v_s == v
        n = int(sel.sum())
        m_s = (1.0 - s) / (m0 - int(v) + 1.0)
        name = f"{label}[V(s)={int(v)}]"
        if n < 30:
            nan = float("nan")
            results.append(CheckResult(name, nan, m_s, nan, True, f"skipped: only {n} draws"))
        else:
            results.append(_three_se_check(name, m_t[sel], m_s, f"{n} draws"))
    return results


def column_loop_noise(cfg, rng):
    """Block-AR(1) noise built one lag column at a time: the oracle of ``simulate._standard_noise``.

    Draws an (n_blocks, b) standard normal matrix e, with b = min(block_size, m), and sets
    z[:, 0] = e[:, 0], z[:, i] = rho z[:, i-1] + sqrt(1 - rho^2) e[:, i],
    then returns the first m values of z in row order.
    """
    dep = cfg.dependence
    b = min(dep.block_size, cfg.m)
    e = rng.standard_normal((-(-cfg.m // b), b))
    z = np.empty_like(e)
    z[:, 0] = e[:, 0]
    scale = math.sqrt(1.0 - dep.rho * dep.rho)
    for i in range(1, b):
        z[:, i] = dep.rho * z[:, i - 1] + scale * e[:, i]
    return z.reshape(-1)[: cfg.m]


def one_row_statistics(cfg, j):
    """Replication j drawn on its own: the oracle of ``simulate.generate_statistics``'s block draw.

    From the substream ``default_rng([cfg.seed, j])``: m standard normals
    (block-AR through ``column_loop_noise``), then under random placement
    a permutation whose first m1 entries are the false nulls (the first m1
    slots under head placement); false nulls get +mu, and the p-values are
    ``_normal_cdf(-x)``, sorted with their labels by ``sort_pvalues``.
    """
    from dynfdr import sort_pvalues
    from dynfdr.simulate import _normal_cdf

    rng = np.random.default_rng([cfg.seed, j])
    x = rng.standard_normal(cfg.m) if cfg.dependence is None else column_loop_noise(cfg, rng)
    truth = np.ones(cfg.m, dtype=bool)
    if cfg.m1 > 0:
        positions = slice(cfg.m1) if cfg.signal_placement == "head" else rng.permutation(cfg.m)[: cfg.m1]
        x[positions] += cfg.mu
        truth[positions] = False
    return sort_pvalues(_normal_cdf(-x), truth)


def full_lowest_slope(proc, kappa):
    """The lowest-slope scan scored over all m order statistics at once: the oracle of the prefix scan.

    Returns (lam, value, trace, flags) with the trace as a tuple of
    (candidate, estimate) float pairs.
    """
    from dynfdr.estimators import pi0_storey_plus

    m = proc.m
    p = proc.ordered
    below_one = p < 1.0
    ranks_right = np.searchsorted(p, p, side="right")
    est = np.full(m, np.nan)
    est[below_one] = (m - ranks_right[below_one] + 1) / ((1.0 - p[below_one]) * m)
    can_stop = below_one & (p >= kappa)
    can_stop[0] = False
    stop = can_stop.copy()
    with np.errstate(invalid="ignore"):
        stop[1:] &= est[1:] > est[:-1]
    flags = ()
    hits = np.flatnonzero(stop)
    if hits.size:
        last_examined = int(hits[0])
        chosen = float(p[last_examined])
    else:
        last_examined = m - 1
        admissible = np.flatnonzero(below_one & (p >= kappa))
        if admissible.size:
            chosen = float(p[int(admissible[-1])])
            flags = ("fallback-largest-order-statistic",)
        else:
            chosen = kappa
            flags = ("fallback-kappa",)
    trace = tuple(zip(p[: last_examined + 1].tolist(), est[: last_examined + 1].tolist()))
    return chosen, pi0_storey_plus(proc, chosen), trace, flags


def scalar_right_boundary(proc, grid, kappa):
    """The right-boundary scan written out, one ``pi0_storey`` call per candidate: the oracle of the array scan.

    Compares the plain estimate at each grid point with the one at the
    previous point (the first with the one at 0) and stops at the first
    point >= kappa that does not improve on it; no stop picks the last
    point, and a pick below kappa is clamped to kappa with a flag.
    Returns (lam, value, trace, flags) with the trace as a tuple of float pairs.
    """
    from dynfdr.estimators import pi0_storey, pi0_storey_plus

    prev = pi0_storey(proc, 0.0)
    trace = [(0.0, prev)]
    chosen = None
    for lam in grid:
        cur = pi0_storey(proc, lam)
        trace.append((lam, cur))
        if lam >= kappa and cur >= prev:
            chosen = lam
            break
        prev = cur
    flags = ()
    if chosen is None:
        chosen = grid[-1]
    if chosen < kappa:
        chosen, flags = kappa, ("grid-below-kappa",)
    return chosen, pi0_storey_plus(proc, chosen), tuple(trace), flags


def unique_grid_right_boundary_quantile(proc, levels, kappa):
    """The quantile rule with its grid built by ``np.clip`` and ``np.unique``: the oracle of the neighbour scan.

    Runs ``scalar_right_boundary`` on the surviving grid; returns
    (lam, value, trace, flags) with the trace as a tuple of float pairs.
    """
    from dynfdr.estimators import pi0_storey_plus

    m = proc.m
    ranks = np.ceil(np.asarray(levels) * m - 1e-9).astype(np.int64)
    ranks = np.clip(ranks, 1, m)
    quantiles = proc.ordered[ranks - 1]
    flags = ("quantile-at-one",) if quantiles[-1] >= 1.0 else ()
    grid = np.unique(quantiles)
    grid = grid[(grid >= kappa) & (grid < 1.0)]
    if grid.size == 0:
        value = pi0_storey_plus(proc, kappa)
        return kappa, value, ((kappa, value),), ("empty-grid-fallback",) + flags
    lam, value, trace, _ = scalar_right_boundary(proc, grid.tolist(), kappa)  # no clamp: the grid is >= kappa
    return lam, value, trace, flags
