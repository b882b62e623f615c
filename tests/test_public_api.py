"""The public surface changes only on purpose: a name added or removed fails here."""

from __future__ import annotations

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import dynfdr
from dynfdr import simulate, verify

PUBLIC = [
    "__version__",
    # estimators
    "Pi0Estimate", "pi0_storey", "pi0_storey_plus", "fdr_hat_star",
    # procedures
    "ProcedureResult", "bh_step_up", "threshold_functional", "dynamic_adaptive", "run_procedure",
    "DEFAULT_PROCEDURES",
    # pvalues
    "EmpiricalProcesses", "sort_pvalues",
    # selection
    "TWENTY_BIN_GRID", "FixedRule", "RightBoundaryRule", "LowestSlopeRule", "KQuantileRule",
    "RightBoundaryQuantileRule", "LambdaRule", "StepUpRule", "parse_rule_spec",
]
# the harnesses are reached through their modules, dynfdr.simulate and dynfdr.verify
SIMULATE_PUBLIC = ["BlockAR", "ScenarioConfig", "MetricsRow", "generate_statistics", "run_experiment", "emit_figure_data"]


def test_package_exports_exactly_the_pinned_names():
    assert len(PUBLIC) == 22
    assert sorted(dynfdr.__all__) == sorted(PUBLIC)
    assert len(dynfdr.__all__) == len(set(dynfdr.__all__))  # no name exported twice
    for name in PUBLIC:
        assert hasattr(dynfdr, name), name
    assert not hasattr(dynfdr, "PValueSample")  # EmpiricalProcesses is the one sample type
    assert not hasattr(dynfdr.pvalues, "MissingTruthLabels")  # count_V raises a plain ValueError
    assert not hasattr(dynfdr.selection, "select_k_quantile")  # rule.select(proc) runs a rule
    assert not hasattr(dynfdr.selection, "evenly_spaced_grid")  # a grid spec is a comma list


def test_simulate_exports_exactly_the_pinned_names():
    assert sorted(simulate.__all__) == sorted(SIMULATE_PUBLIC)
    for name in SIMULATE_PUBLIC:
        assert hasattr(simulate, name), name
        assert not hasattr(dynfdr, name), name  # one way to reach each harness name


VERIFY_PUBLIC = [
    "CheckResult",
    "lemma2_exact_check", "supermartingale_check", "fdr_control_check", "conservative_estimation_check",
    "format_report", "write_report_csv",
]


def test_verify_exports_exactly_the_pinned_names():
    assert len(VERIFY_PUBLIC) == 7
    assert not hasattr(verify, "all_passed")  # a caller tests all(r.passed for r in results)
    assert sorted(verify.__all__) == sorted(VERIFY_PUBLIC)
    assert len(verify.__all__) == len(set(verify.__all__))
    for name in VERIFY_PUBLIC:
        assert hasattr(verify, name), name
    # each suite's check owns its table or scenario: a seed and a replication count are all it is
    # given, and the caller always gives them
    for check in (verify.lemma2_exact_check, verify.supermartingale_check, verify.fdr_control_check,
                  verify.conservative_estimation_check):
        params = inspect.signature(check).parameters
        assert set(params) <= {"seed", "reps"}, check.__name__
        assert all(p.default is inspect.Parameter.empty for p in params.values()), check.__name__


def test_import_dynfdr_leaves_the_harnesses_out_and_import_cli_loads_every_traced_module():
    # bench/layers.py wraps each span in its home module as sys.modules holds it after `import dynfdr.cli`;
    # it is read here without writing bytecode next to it (-B)
    src = Path(dynfdr.__file__).resolve().parents[1]
    code = (
        "import importlib.util, sys\n"
        "import dynfdr\n"
        "loaded = sorted({'dynfdr.simulate', 'dynfdr.verify'} & set(sys.modules))\n"
        "assert not loaded, f'import dynfdr loaded {loaded}'\n"
        "import dynfdr.cli\n"
        f"spec = importlib.util.spec_from_file_location('bench_layers', {str(src.parent / 'bench' / 'layers.py')!r})\n"
        "layers = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(layers)\n"
        "missing = sorted({home for _, home in layers.SPANS} - set(sys.modules))\n"
        "assert not missing, f'import dynfdr.cli left out {missing}'\n"
    )
    proc = subprocess.run([sys.executable, "-B", "-c", code], cwd=src, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_verify_does_not_export_the_test_oracle():
    # the reference normal CDF is a test oracle and lives in tests/conftest.py
    assert "reference_normal_cdf" not in verify.__all__
    assert not hasattr(verify, "reference_normal_cdf")


def test_no_module_imports_a_private_name_of_another():
    # a name another module needs belongs to its home module's interface, so it has no leading underscore
    imported = []
    for path in sorted(Path(dynfdr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("dynfdr")):
                imported += [f"{path.name}: {node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert imported == []
