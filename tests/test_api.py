"""The public surface: the exported names, and options that must not return."""

import importlib
import inspect

import pytest

import cumident

PUBLIC = [
    "B1_TRUE", "ComplexResidueWarning", "CompositeDgpConfig", "CompositeDraw",
    "CsvSeries", "CumidentError", "DeltaVarianceResult", "DemixingEstimate",
    "EigenGapWarning", "GAMMA_LOADINGS", "IllConditionedError",
    "InvalidInputError", "JackknifeResult", "LAMBDA_TRUE",
    "LabelingAmbiguityError", "LabelingResult", "MEAS_COV", "McResult",
    "MixingEstimate", "PairwiseReport", "ProbeVectors", "RankDetectionError",
    "SUPPLY_DEMAND_PATTERN", "TestResult", "VarFit", "WeakInstrumentError",
    "angular_distance", "build_H_sigma", "confidence_interval",
    "contract_hessian", "contract_tensor", "covariance_from_moments",
    "cumulants_from_moments", "delta_variance", "delta_variance_labeled",
    "delta_variance_statistic", "demixing_from_contractions",
    "demixing_jackknife", "errors", "estimate_demixing", "estimate_mixing_tall",
    "fit_var", "gen_composite", "identify", "inference", "iv_2sls",
    "jackknife_confidence_interval", "label_by_signs", "label_by_triangular",
    "load_experiment_config", "load_series_csv", "moment_vector_length",
    "moments", "monomial_matrix", "monomial_tuples", "orient_rows", "overid",
    "overid_restrictions", "pairwise_overid", "parse_experiment_config",
    "partial_out", "pearson_symmetric", "run_coverage_experiment",
    "run_mse_experiment", "run_overid_power_experiment", "simulate",
    "third_cumulants", "validate_sample", "varpipe", "wald_test",
    "write_mc_csv",
]

MODULES = ["_pipeline", "cli", "identify", "inference", "moments", "overid",
           "simulate", "varpipe"]


def test_exported_names_are_pinned():
    assert sorted(cumident.__all__) == sorted(PUBLIC)


@pytest.mark.parametrize("name", MODULES)
def test_no_function_takes_an_orientation_rule(name):
    # Rows have one orientation: a positive sum, else a positive largest entry.
    module = importlib.import_module(f"cumident.{name}")
    for fname, fn in inspect.getmembers(module, inspect.isfunction):
        if fn.__module__ == module.__name__:
            assert "rule" not in inspect.signature(fn).parameters, fname


def test_delta_variance_covers_all_rows():
    assert list(inspect.signature(cumident.delta_variance).parameters) == [
        "data", "probes"]
