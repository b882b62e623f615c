"""Data generation, experiment metrics, CSV emission."""

from __future__ import annotations

import csv
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynfdr import simulate
from dynfdr.simulate import (
    BlockAR,
    MetricsRow,
    ScenarioConfig,
    _normal_cdf,
    emit_figure_data,
    generate_statistics,
    run_experiment,
)

from conftest import column_loop_noise, one_row_statistics, reference_normal_cdf, row


def test_config_validation():
    good = dict(m=100, pi0=0.8, mu=1.0, n_reps=10, seed=1)
    ScenarioConfig(**good)
    with pytest.raises(ValueError):
        ScenarioConfig(**{**good, "n_reps": 0})
    with pytest.raises(ValueError):
        ScenarioConfig(**{**good, "pi0": 0.0})
    with pytest.raises(ValueError):
        ScenarioConfig(**{**good, "pi0": 1.2})
    with pytest.raises(ValueError, match=r"^m=100, pi0=0\.004 give m0 = round\(pi0 \* m\) = 0 true nulls$"):
        ScenarioConfig(**{**good, "pi0": 0.004})  # checked at construction, before any replication is drawn
    with pytest.raises(ValueError):
        ScenarioConfig(**{**good, "mu": -1.0})
    with pytest.raises(ValueError):
        ScenarioConfig(**{**good, "seed": -1})
    with pytest.raises(ValueError):
        ScenarioConfig(**{**good, "signal_placement": "tail"})
    with pytest.raises(ValueError):
        BlockAR(block_size=0, rho=0.5)
    with pytest.raises(ValueError):
        BlockAR(block_size=50, rho=-1.0)


@pytest.mark.parametrize(
    "field, value",
    [("m", 100.9), ("m", True), ("n_reps", 3.5), ("n_reps", "3"), ("seed", 1.0), ("seed", np.float64(1))],
)
def test_config_sizes_must_be_integers(field, value):
    good = dict(m=100, pi0=0.8, mu=1.0, n_reps=3, seed=1)
    with pytest.raises(ValueError, match=f"{field}=.* is not an integer"):
        ScenarioConfig(**{**good, field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True, False, np.float64("nan"), "1", -0.5])
def test_config_mu_must_be_a_finite_number(value):
    number = isinstance(value, float)  # np.float64 is a float
    message = f"mu={value} outside [0, inf)" if number else f"mu={value!r} is not a number"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ScenarioConfig(m=10, pi0=0.5, mu=value, n_reps=2, seed=1)


def test_config_pi0_must_not_be_a_bool():
    with pytest.raises(ValueError, match="pi0=True is not a number"):
        ScenarioConfig(m=100, pi0=True, mu=1.0, n_reps=3, seed=1)


@pytest.mark.parametrize(
    "field, value",
    [("pi0", "0.8"), ("pi0", None), ("alpha", "0.05"), ("alpha", False), ("kappa", True), ("dependence", (5, 0.5))],
)
def test_config_fields_must_be_numbers(field, value):
    # "0.8" would otherwise be stored as a str and fail later with a TypeError
    with pytest.raises(ValueError, match=rf"^{field}=.* is not (a number|None or a BlockAR)$"):
        ScenarioConfig(**{**dict(m=100, pi0=0.8, mu=1.0, n_reps=3, seed=1), field: value})


@pytest.mark.parametrize("value", [2.7, 2.0, True, "2"])
def test_block_size_must_be_an_integer(value):
    with pytest.raises(ValueError, match="block_size=.* is not an integer"):
        BlockAR(block_size=value, rho=0.5)


@pytest.mark.parametrize("value", ["0.5", False, None])
def test_rho_must_be_a_number(value):
    with pytest.raises(ValueError, match="rho=.* is not a number"):
        BlockAR(block_size=10, rho=value)


def test_config_stores_the_floats_it_checked():
    cfg = ScenarioConfig(m=10, pi0=1, mu=np.float64(2), n_reps=2, seed=1, alpha=np.float32(0.25), dependence=BlockAR(5, 0))
    assert all(type(v) is float for v in (cfg.pi0, cfg.mu, cfg.alpha, cfg.kappa, cfg.dependence.rho))
    assert cfg.label == "m=10;pi0=1;mu=2;dep=ar5rho0"


def test_numpy_integer_sizes_are_accepted():
    cfg = ScenarioConfig(
        m=np.int64(100), pi0=0.8, mu=1.0, n_reps=np.int32(3), seed=np.uint8(1), dependence=BlockAR(np.int16(10), 0.5)
    )
    assert (cfg.m, cfg.n_reps, cfg.seed, cfg.dependence.block_size) == (100, 3, 1, 10)
    assert all(type(v) is int for v in (cfg.m, cfg.n_reps, cfg.seed, cfg.dependence.block_size))
    assert cfg.label == "m=100;pi0=0.8;mu=1;dep=ar10rho0.5"


def test_label_tells_apart_values_that_differ_in_the_csv():
    # pi0, mu and rho carry the CSV's 12 significant digits, so distinct mus give distinct labels
    labels = [ScenarioConfig(m=10, pi0=0.8, mu=mu, n_reps=1, seed=1).label for mu in (1.0000001, 1.0000002)]
    assert labels == ["m=10;pi0=0.8;mu=1.0000001;dep=indep", "m=10;pi0=0.8;mu=1.0000002;dep=indep"]
    # the benchmark's scenarios keep their labels
    for mu in (1.0, 2.0):
        cfg = ScenarioConfig(m=1000, pi0=0.8, mu=mu, n_reps=1, seed=1, dependence=BlockAR(50, -0.9))
        assert cfg.label == f"m=1000;pi0=0.8;mu={mu:g};dep=ar50rho-0.9"


@pytest.mark.parametrize("replication", [2.7, True, -1])
def test_replication_must_be_an_integer_at_least_zero(replication):
    # 2.7 and True would otherwise draw replications 2 and 1
    cfg = ScenarioConfig(m=10, pi0=0.8, mu=1.0, n_reps=3, seed=1)
    with pytest.raises(ValueError, match="^replication="):
        generate_statistics(cfg, replication)


def test_null_false_split_rounds():
    cfg = ScenarioConfig(m=10, pi0=0.95, mu=1.0, n_reps=1, seed=1)
    assert cfg.m0 == 10 and cfg.m1 == 0
    cfg = ScenarioConfig(m=1000, pi0=0.8, mu=1.0, n_reps=1, seed=1)
    assert cfg.m0 == 800 and cfg.m1 == 200


def test_zero_statistic_maps_to_half():
    assert float(_normal_cdf(-0.0)) == 0.5


# Cephes's MAXLOG = log(2**1024): exp(-z^2) underflows beyond z^2 = MAXLOG, i.e. a = sqrt(2 MAXLOG)
_CEPHES_BRANCH_POINTS = (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 7.09782712893383996843e2))


def assert_is_scipy_ndtr(a):
    """``_normal_cdf(a)`` equals ``scipy.special.ndtr(a)`` bit for bit: values, nan positions and sign bits."""
    special = pytest.importorskip("scipy.special")
    got, want = _normal_cdf(a), special.ndtr(a)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _neighbours(v, n=3):
    up, down = [v], [v]
    for _ in range(n):
        up.append(np.nextafter(up[-1], math.inf))
        down.append(np.nextafter(down[-1], -math.inf))
    return down[:0:-1] + up


def test_cdf_is_scipy_ndtr_on_special_values_and_branch_points():
    tiny = np.finfo(float).tiny
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, tiny / 2, -tiny / 2, tiny, -tiny]
    values += [1e308, -1e308, np.finfo(float).max, -np.finfo(float).max, 1e-300, -1e-300]
    for point in _CEPHES_BRANCH_POINTS:
        values += _neighbours(point) + _neighbours(-point)
    assert_is_scipy_ndtr(np.array(values))
    for v in values:  # one by one too: a Python float in, a numpy scalar out
        assert_is_scipy_ndtr(v)


@pytest.mark.parametrize("shift", [0.0, 2.0, -2.0])
@pytest.mark.parametrize("scale", [0.3, 3.0, 30.0])
def test_cdf_is_scipy_ndtr_on_a_million_normal_values(scale, shift):
    rng = np.random.default_rng([int(scale * 10), int(shift) + 2])
    assert_is_scipy_ndtr(scale * rng.standard_normal(1_000_000) + shift)


@pytest.mark.parametrize("dependence", [None, BlockAR(50, -0.9)])
def test_cdf_is_scipy_ndtr_on_the_simulated_statistics(monkeypatch, dependence):
    # the acceptance configs: m = 1000, pi0 = 0.8, mu in {1, 2}, independent or block-AR(50, -0.9)
    seen = []
    simulate._draw_block.cache_clear()  # a block kept from an earlier test would skip the CDF
    monkeypatch.setattr(simulate, "_normal_cdf", lambda v: seen.append(v) or _normal_cdf(v))
    for mu in (1.0, 2.0):
        cfg = ScenarioConfig(m=1000, pi0=0.8, mu=mu, n_reps=250, seed=20260808, dependence=dependence)
        for j in range(cfg.n_reps):
            generate_statistics(cfg, j)
    assert all(v.shape[1:] == (1000,) for v in seen)
    assert sum(len(v) for v in seen) >= 500  # the blocks cover all 500 replications
    assert_is_scipy_ndtr(np.concatenate(seen))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(st.floats(), min_size=1, max_size=20))
def test_cdf_is_scipy_ndtr_on_any_floats(values):
    assert_is_scipy_ndtr(np.array(values))


def test_cdf_keeps_the_input_shape():
    for a in (0.3, np.float64(-1.5), np.array(2.0), np.array([[0.1, -40.0], [1.0, 9.0]]), np.array([]), [1, 2]):
        assert_is_scipy_ndtr(a)
    assert isinstance(_normal_cdf(0.3), np.float64)


def test_complex_exp_is_libm_exp_bit_for_bit():
    # _normal_cdf takes libm's exp as np.exp(x + 0j).real: numpy's complex exp is exp(re) * cos(im) and
    # cos(0) == 1 exactly, whereas the real np.exp may differ from math.exp in the last bit.  No scipy here.
    x = np.linspace(-745.2, 0.0, 400_001)  # past the last subnormal result, exp(-745.13...), down to 0
    x = np.concatenate([x, [0.0, -0.0, -5e-324]])
    for point in (simulate._MAXLOG, 708.4, 745.13, 745.1332191019412):  # Cephes's cut, the subnormal range, underflow
        x = np.concatenate([x, -np.array(_neighbours(point, 50))])
    got = np.exp(x + 0j).real
    want = np.array([math.exp(v) for v in x.tolist()])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.any((want > 0.0) & (want < np.finfo(float).tiny)) and np.any(want == 0.0)  # the grid reaches both


def test_cdf_matches_independent_reference():
    xs = np.arange(-8.0, 8.0001, 0.004)
    worst = max(abs(float(_normal_cdf(x)) - reference_normal_cdf(float(x))) for x in xs)
    assert worst < 1e-12, f"max discrepancy {worst}"


def test_null_pvalues_are_uniform():
    stats = pytest.importorskip("scipy.stats")
    cfg = ScenarioConfig(m=1000, pi0=1.0, mu=0.0, n_reps=100, seed=99)
    pooled = np.concatenate([generate_statistics(cfg, j).values for j in range(cfg.n_reps)])
    assert pooled.size >= 100_000
    ks = stats.kstest(pooled, "uniform").statistic
    assert ks < 0.01


def test_truth_labels_and_head_placement():
    cfg = ScenarioConfig(m=100, pi0=0.8, mu=3.0, n_reps=1, seed=5)
    sample = generate_statistics(cfg, 0)
    assert np.count_nonzero(sample.truth) == 80  # so 20 false nulls
    assert not sample.truth[:20].any()  # false nulls fill the head
    assert sample.truth[20:].all()


def test_random_placement_is_reproducible():
    cfg = ScenarioConfig(m=100, pi0=0.8, mu=3.0, n_reps=1, seed=5, signal_placement="random")
    a = generate_statistics(cfg, 0)
    b = generate_statistics(cfg, 0)
    np.testing.assert_array_equal(a.truth, b.truth)
    assert np.count_nonzero(~a.truth) == 20 and not a.truth[:20].all()


def test_substream_is_pure_function_of_seed_and_replication():
    cfg = ScenarioConfig(m=50, pi0=0.8, mu=1.0, n_reps=10, seed=123)
    direct = generate_statistics(cfg, 7)
    for j in (3, 9, 0):
        generate_statistics(cfg, j)  # consume other substreams in arbitrary order
    again = generate_statistics(cfg, 7)
    np.testing.assert_array_equal(direct.values, again.values)


def test_block_ar_marginals_and_adjacent_correlation():
    stats = pytest.importorskip("scipy.stats")
    cfg = ScenarioConfig(
        m=1000, pi0=1.0, mu=0.0, n_reps=110, seed=77, dependence=BlockAR(50, -0.9)
    )
    first, second = [], []
    variances = []
    for j in range(cfg.n_reps):
        x = -stats.norm.ppf(generate_statistics(cfg, j).values)  # recover the statistics
        variances.append(x.var())
        blocks = x.reshape(-1, 50)
        first.append(blocks[:, :-1].ravel())
        second.append(blocks[:, 1:].ravel())
    first = np.concatenate(first)
    second = np.concatenate(second)
    assert first.size >= 100_000
    corr = np.corrcoef(first, second)[0, 1]
    assert corr == pytest.approx(-0.9, abs=0.02)
    assert np.mean(variances) == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5])
@pytest.mark.parametrize("m, block_size", [(123, 1), (123, 2), (123, 7), (123, 50), (100, 50), (123, 200)])
def test_block_ar_noise_equals_the_column_loop(m, block_size, rho):
    cfg = ScenarioConfig(m=m, pi0=1.0, mu=0.0, n_reps=1, seed=1, dependence=BlockAR(block_size, rho))
    noise = simulate._standard_noise(cfg, [np.random.default_rng([seed, 3]) for seed in range(5)])
    assert noise.shape == (5, m)
    for seed, row in enumerate(noise):
        assert np.array_equal(row, column_loop_noise(cfg, np.random.default_rng([seed, 3])))


def test_block_ar_short_final_block():
    cfg = ScenarioConfig(
        m=120, pi0=1.0, mu=0.0, n_reps=1, seed=2, dependence=BlockAR(50, 0.5)
    )
    assert generate_statistics(cfg, 0).m == 120


# every m with independent noise, and block-AR at b = 1, 7, 50 and b > m
_DRAW_CASES = [
    (1, None), (1, BlockAR(1, 0.5)), (1, BlockAR(7, -0.9)),
    (7, None), (7, BlockAR(1, -0.9)), (7, BlockAR(7, 0.5)), (7, BlockAR(50, -0.9)),
    (1000, None), (1000, BlockAR(7, 0.5)), (1000, BlockAR(50, -0.9)), (1000, BlockAR(1500, 0.9)),
    (8193, None), (8193, BlockAR(50, -0.9)),
    (20000, None), (20000, BlockAR(1, 0.5)), (20000, BlockAR(50, -0.9)),
]


@pytest.mark.parametrize("placement", ["head", "random"])
@pytest.mark.parametrize("m, dependence", _DRAW_CASES)
def test_block_draw_equals_the_one_row_draw(m, dependence, placement):
    # pi0 = 0.6 makes about 40% of the hypotheses false (none at m = 1, as a config needs m0 >= 1); pi0 = 1 leaves m1 = 0
    for pi0, n_reps in ((0.6, 11), (1.0, 3)):
        cfg = ScenarioConfig(m=m, pi0=pi0, mu=1.5, n_reps=n_reps, seed=m, dependence=dependence, signal_placement=placement)
        # shuffled, so blocks are entered at any row; past n_reps too
        for j in np.random.default_rng([m, n_reps]).permutation(2 * n_reps + 2).tolist():
            got, want = generate_statistics(cfg, j), one_row_statistics(cfg, j)
            for name in ("values", "ordered", "truth"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, False), (name, j)
                assert a.tobytes() == b.tobytes(), (name, j)
        assert not any(a.flags.writeable for a in simulate._draw_block(cfg, 0))  # the cache hands out no writable array


@pytest.mark.parametrize("dependence", [None, BlockAR(50, -0.9)])
def test_a_cold_draw_at_large_m_holds_a_few_copies_of_its_row(dependence):
    # blocks shrink to one row at large m: a fixed 8-row block peaks near 90 times the row's 8m bytes
    cfg = ScenarioConfig(m=200_000, pi0=0.8, mu=1.0, n_reps=1000, seed=3, dependence=dependence, signal_placement="random")
    simulate._draw_block.cache_clear()
    tracemalloc.start()
    try:
        generate_statistics(cfg, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * cfg.m


def test_a_block_size_above_m_draws_no_more_than_block_size_m():
    # a block of block_size normals per row once took 8 * block_size bytes: 16 MB here, and a crash at 10**10
    def peak(block_size):
        cfg = ScenarioConfig(m=10, pi0=0.8, mu=1.0, n_reps=2, seed=3, dependence=BlockAR(block_size, 0.5), signal_placement="random")
        simulate._draw_block.cache_clear()
        tracemalloc.start()
        try:
            generate_statistics(cfg, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # first-call allocations out of the way
    assert peak(10**6) < 2 * peak(10)


def test_experiment_is_deterministic(tmp_path):
    cfg = ScenarioConfig(m=200, pi0=0.8, mu=2.0, n_reps=50, seed=31)
    a = run_experiment(cfg, ("bh", "orc", "rb20"))
    b = run_experiment(cfg, ("bh", "orc", "rb20"))
    for row_a, row_b in zip(a, b):
        for name in row_a.__dataclass_fields__:
            va, vb = getattr(row_a, name), getattr(row_b, name)
            if isinstance(va, float) and math.isnan(va):
                assert math.isnan(vb), name
            else:
                assert va == vb, name  # bit-for-bit
    emit_figure_data(a, tmp_path / "a.csv")
    emit_figure_data(b, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_oracle_rows_are_anchored():
    cfg = ScenarioConfig(m=200, pi0=0.8, mu=2.0, n_reps=50, seed=32)
    table = run_experiment(cfg, ("bh", "orc"))
    orc = row(table, "orc")
    assert orc.corrected_fdr == cfg.alpha  # exact by construction
    assert orc.relative_power == 1.0
    assert orc.mse_m0 == 0.0
    bh = row(table, "bh")
    assert math.isnan(bh.mean_lambda)


@pytest.mark.parametrize("m, pi0, m0", [(10, 0.95, 10), (5, 0.5, 2)])
def test_oracle_runs_at_the_realised_null_proportion(m, pi0, m0):
    # m * pi0 is not an integer: orc uses m0 / m, not the requested pi0
    cfg = ScenarioConfig(m=m, pi0=pi0, mu=2.0, n_reps=200, seed=7)
    assert cfg.m0 == m0
    assert row(run_experiment(cfg, ("bh",)), "orc").mse_m0 == 0.0


def test_oracle_always_included():
    cfg = ScenarioConfig(m=100, pi0=0.8, mu=2.0, n_reps=20, seed=33)
    table = run_experiment(cfg, ("bh",))
    assert {r.procedure for r in table} == {"bh", "orc"}


def test_emit_schema_and_roundtrip(tmp_path):
    cfg = ScenarioConfig(m=100, pi0=0.8, mu=2.0, n_reps=20, seed=34)
    table = run_experiment(cfg, ("bh", "rb20"))
    out = tmp_path / "metrics.csv"
    emit_figure_data(table, out)
    with out.open(newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    assert header == ["scenario", "procedure", "metric", "value", "mc_se"]
    assert len(body) == len(table) * 5
    metrics = [r[2] for r in body[:5]]
    assert metrics == ["fdr", "corrected_fdr", "rel_power", "log_mse_m0", "mean_lambda"]
    # 12-significant-digit decimal round trip
    for line in body:
        for field in line[3:]:
            assert f"{float(field):.12g}" == field
    # spot-check one value against the table
    fdr_field = next(r for r in body if r[1] == "rb20" and r[2] == "fdr")[3]
    assert float(fdr_field) == float(f"{row(table, 'rb20').realized_fdr:.12g}")


def test_emit_writes_exact_bytes(tmp_path):
    # mse_m0 = 0 gives the -inf / nan log cells; every number at 12 significant digits, LF line ends
    label = "m=20;pi0=1;mu=1;dep=indep"
    metrics = MetricsRow(label, "lsl", 1 / 3, np.float64(0.01), 0.05, 0.0, math.nan, math.nan, 0.0, 0.0, 0.5, 1e-13)
    out = tmp_path / "metrics.csv"
    emit_figure_data([metrics], out)
    assert out.read_bytes() == (
        b"scenario,procedure,metric,value,mc_se\n"
        b"m=20;pi0=1;mu=1;dep=indep,lsl,fdr,0.333333333333,0.01\n"
        b"m=20;pi0=1;mu=1;dep=indep,lsl,corrected_fdr,0.05,0\n"
        b"m=20;pi0=1;mu=1;dep=indep,lsl,rel_power,nan,nan\n"
        b"m=20;pi0=1;mu=1;dep=indep,lsl,log_mse_m0,-inf,nan\n"
        b"m=20;pi0=1;mu=1;dep=indep,lsl,mean_lambda,0.5,1e-13\n"
    )


def test_emit_rejects_empty_table(tmp_path):
    with pytest.raises(ValueError):
        emit_figure_data((), tmp_path / "x.csv")


def test_emit_surfaces_path_on_io_error(tmp_path):
    cfg = ScenarioConfig(m=50, pi0=0.8, mu=2.0, n_reps=5, seed=35)
    table = run_experiment(cfg, ("bh",))
    bad = tmp_path / "missing" / "metrics.csv"
    with pytest.raises(OSError, match="metrics.csv"):
        emit_figure_data(table, bad)


def test_run_experiment_parses_each_spec_once(monkeypatch):
    calls = Counter()
    parse = simulate.parse_rule_spec

    def counting_parse(spec, kappa):
        calls[spec] += 1
        return parse(spec, kappa)

    monkeypatch.setattr(simulate, "parse_rule_spec", counting_parse)
    cfg = ScenarioConfig(m=50, pi0=0.8, mu=2.0, n_reps=3, seed=36)
    run_experiment(cfg, ("bh", "rb20", "lsl", "rb20"))
    assert calls == {"bh": 1, "rb20": 1, "lsl": 1, "orc": 1}

    # and every spec is parsed before the first draw, so a bad one is the study's first error
    def fail(*args):
        pytest.fail("a replication was drawn before every spec was parsed")

    monkeypatch.setattr(simulate, "generate_statistics", fail)
    with pytest.raises(ValueError, match="^invalid procedure spec 'bogus': unknown procedure"):
        run_experiment(cfg, ("bh", "bogus"))
