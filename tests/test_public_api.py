"""The public surface changes only on purpose: a name added or removed fails here."""

from __future__ import annotations

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


def test_verify_does_not_export_the_test_oracle():
    # the reference normal CDF is a test oracle and lives in tests/conftest.py
    assert "reference_normal_cdf" not in verify.__all__
    assert not hasattr(verify, "reference_normal_cdf")
