"""The public surface changes only on purpose: a name added or removed fails here."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import dynfdr
from dynfdr import verify

PUBLIC = [
    "__version__",
    # estimators
    "Pi0Estimate", "pi0_storey", "pi0_storey_plus", "fdr_hat_star",
    # procedures
    "ProcedureResult", "bh_step_up", "threshold_functional", "dynamic_adaptive", "run_procedure",
    "DEFAULT_PROCEDURES",
    # pvalues
    "MissingTruthLabels", "EmpiricalProcesses", "sort_pvalues",
    # selection
    "TWENTY_BIN_GRID", "FixedRule", "RightBoundaryRule", "LowestSlopeRule", "KQuantileRule",
    "RightBoundaryQuantileRule", "LambdaRule", "StepUpRule", "evenly_spaced_grid", "parse_rule_spec",
    # simulate
    "BlockAR", "ScenarioConfig", "MetricsRow", "generate_statistics", "run_experiment", "emit_figure_data",
]


def test_package_exports_exactly_the_pinned_names():
    assert len(PUBLIC) == 30
    assert sorted(dynfdr.__all__) == sorted(PUBLIC)
    assert len(dynfdr.__all__) == len(set(dynfdr.__all__))  # no name exported twice
    for name in PUBLIC:
        assert hasattr(dynfdr, name), name
    assert not hasattr(dynfdr, "PValueSample")  # EmpiricalProcesses is the one sample type
    assert not hasattr(dynfdr.selection, "select_k_quantile")  # rule.select(proc) runs a rule


VERIFY_PUBLIC = [
    "CheckResult", "SUITES", "run_suite",
    "lemma2_exact_check", "supermartingale_check", "fdr_control_check", "conservative_estimation_check",
    "all_passed", "format_report", "write_report_csv",
]


def test_verify_exports_exactly_the_pinned_names():
    assert len(VERIFY_PUBLIC) == 10
    assert sorted(verify.__all__) == sorted(VERIFY_PUBLIC)
    assert len(verify.__all__) == len(set(verify.__all__))
    for name in VERIFY_PUBLIC:
        assert hasattr(verify, name), name
    assert verify.SUITES == ("lemma2", "supermartingale", "fdr-control", "conservative")  # the report order
    # each suite's check owns its table or scenario: a seed and a replication count are all it is given
    for check in (verify.lemma2_exact_check, verify.supermartingale_check, verify.fdr_control_check,
                  verify.conservative_estimation_check):
        assert set(inspect.signature(check).parameters) <= {"seed", "reps"}, check.__name__


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
