"""The pytest settings in pyproject.toml, run on a throwaway test file."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ONE_FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, max_examples=10, database=None)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_property_is_one_failure(tmp_path):
    # reporting a falsifying example must not end the run with INTERNALERROR
    path = tmp_path / "test_case.py"
    path.write_text(ONE_FAILING_PROPERTY, encoding="utf-8")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT)]
    cmd += ["--rootdir", str(tmp_path), str(path)]
    run = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
