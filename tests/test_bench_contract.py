"""The outside-in tracer in bench/layers.py binds library functions by name.

A rename or move in the library would otherwise surface only as a failed
benchmark run; these checks make it fail here.  The tracer and
bench/workloads.py, whose lowest-slope trace length the traced analyze
run must hit, are loaded read-only (no bytecode is written next to them).
Every workload's calls also run here at the recorded seed, traced,
through the benchmark's own output check (its shape checks and its
sha256 digests) and its check of the traced call counts.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from dynfdr import DEFAULT_PROCEDURES, LowestSlopeRule, cli, parse_rule_spec, run_procedure, sort_pvalues
from dynfdr.pvalues import EmpiricalProcesses

from conftest import random_mixture_pvalues

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the dataclasses in workloads.py look their module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def layers():
    return _load("layers")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_span_resolves_to_a_callable_in_its_home_module(layers):
    assert layers.SPANS
    for span, home in layers.SPANS:
        layer, _, attr = span.partition(".")
        assert home == f"dynfdr.{layer}", span
        fn = getattr(importlib.import_module(home), attr, None)
        assert callable(fn), f"{home}.{attr} is gone or not callable"


def test_counted_methods_are_defined_on_empirical_processes(layers):
    for method in layers.COUNTED_METHODS:
        assert callable(EmpiricalProcesses.__dict__.get(method)), method


def test_lowest_slope_trace_length_is_the_benchmarks_recount(workloads):
    rng = np.random.default_rng(2024)
    rule = LowestSlopeRule(workloads.KAPPA)
    for m in (1, 2, 3, 50, 256, 257, 1000, 5000):
        for _ in range(20):
            pvals = random_mixture_pvalues(rng, m, null_fraction=rng.uniform(0.0, 1.0), rate=rng.uniform(1.0, 40.0))
            proc = sort_pvalues(np.round(pvals, int(rng.integers(2, 6))))
            assert len(rule.select(proc).trace) == workloads._lowest_slope_trace_len(proc.ordered), m


@pytest.mark.parametrize("spec", DEFAULT_PROCEDURES + ("kq:median", "rbq:0.5,0.6,0.7,0.8,0.9"))
def test_every_trace_is_a_read_only_float_array_of_pairs(spec):
    rng = np.random.default_rng(7)
    for pvals in (random_mixture_pvalues(rng, 300), [0.001, 0.002, 0.003], [0.5, 1.0, 1.0]):
        trace = run_procedure(parse_rule_spec(spec, 0.05), sort_pvalues(pvals), 0.05, pi0=0.8).pi0.trace
        assert isinstance(trace, np.ndarray) and trace.dtype == np.float64
        assert trace.ndim == 2 and trace.shape[1] == 2
        assert (trace.shape[0] == 0) == (spec in ("bh", "orc")), spec
        assert not trace.flags.writeable


WORKLOAD_NAMES = ("simulate-blockar", "verify-all", "analyze-1e6")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_outputs_pass_the_benchmark_check(layers, workloads, tmp_path, name):
    # the seed-1 digests pin every output byte, so a changed number fails here, not only in the benchmark;
    # the calls run traced, as in a --trace 1 round, so a changed call count fails here too
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)
    wl = workloads.WORKLOADS[name](tmp_path, workloads.DEFAULT_SEED)
    wl.prepare()
    assert wl.digests, "no digests recorded for the default seed"
    trace = layers.Trace()
    restore = layers.install(trace)
    main = trace.wrap(layers.ROOT, cli.main)
    try:
        t0 = perf_counter()
        for call in wl.calls:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                try:
                    code = main(list(call.args))
                except SystemExit as exc:
                    code = exc.code
            assert wl.check(call, code, stdout.getvalue()) is None
        wall = perf_counter() - t0
    finally:
        layers.uninstall(restore)
    metrics = layers.layer_metrics(trace, wall, wl.reps_per_call * len(wl.calls))
    expected = wl.expected_counts()
    assert {count: metrics[count] for count in expected} == expected
