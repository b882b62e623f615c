"""Data generation, experiment metrics, CSV emission."""

from __future__ import annotations

import csv
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from dynfdr import simulate
from dynfdr import (
    BlockAR,
    ScenarioConfig,
    emit_figure_data,
    generate_statistics,
    run_experiment,
)
from dynfdr.simulate import _normal_cdf

from conftest import column_loop_noise, reference_normal_cdf, row


def test_config_validation():
    good = dict(m=100, pi0=0.8, mu=1.0, n_reps=10, seed=1)
    ScenarioConfig(**good)
    with pytest.raises(ValueError):
        ScenarioConfig(**{**good, "n_reps": 0})
    with pytest.raises(ValueError):
        ScenarioConfig(**{**good, "pi0": 0.0})
    with pytest.raises(ValueError):
        ScenarioConfig(**{**good, "pi0": 1.2})
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True, False, np.float64("nan"), "1"])
def test_config_mu_must_be_a_finite_number(value):
    with pytest.raises(ValueError, match="mu=.* is not a finite number >= 0"):
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


def test_cdf_matches_independent_reference():
    xs = np.arange(-8.0, 8.0001, 0.004)
    worst = max(abs(float(_normal_cdf(x)) - reference_normal_cdf(float(x))) for x in xs)
    assert worst < 1e-12, f"max discrepancy {worst}"


def test_null_pvalues_are_uniform():
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
    for seed in range(5):
        noise = simulate._standard_noise(cfg, np.random.default_rng([seed, 3]))
        assert noise.shape == (m,)
        assert np.array_equal(noise, column_loop_noise(cfg, np.random.default_rng([seed, 3])))


def test_block_ar_short_final_block():
    cfg = ScenarioConfig(
        m=120, pi0=1.0, mu=0.0, n_reps=1, seed=2, dependence=BlockAR(50, 0.5)
    )
    assert generate_statistics(cfg, 0).m == 120


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
