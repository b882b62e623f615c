"""The outside-in tracer in bench/layers.py binds library functions by name.

A rename or move in the library would otherwise surface only as a failed
benchmark run; these checks make it fail here.  The tracer module is
loaded read-only (no bytecode is written next to it).
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from dynfdr.pvalues import EmpiricalProcesses

LAYERS_PATH = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


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
