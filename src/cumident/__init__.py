"""Identification, estimation and inference for linear simultaneous-equation
systems using a single higher-order cumulant.

The observables solve L X = S for an invertible structural matrix L whose
rows are recovered, up to scale and permutation, as eigenvectors of a ratio
of two cumulant-tensor contractions; no whitening and no second-moment
restriction is involved.  The package adds delta-method and jackknife
inference, a Wald test of uncorrelated structural errors, a VAR residual
pipeline, and the Monte Carlo experiments for the composite-error design.
"""

__version__ = "0.1.0"

from .errors import (
    ComplexResidueWarning,
    CumidentError,
    EigenGapWarning,
    IllConditionedError,
    InvalidInputError,
    LabelingAmbiguityError,
    RankDetectionError,
    WeakInstrumentError,
)
from .identify import (
    DemixingEstimate,
    LabelingResult,
    MixingEstimate,
    ProbeVectors,
    angular_distance,
    build_H_sigma,
    demixing_from_contractions,
    estimate_demixing,
    estimate_mixing_tall,
    label_by_signs,
    label_by_triangular,
    orient_rows,
)
from .inference import (
    DeltaVarianceResult,
    JackknifeResult,
    confidence_interval,
    delta_variance,
    delta_variance_labeled,
    delta_variance_statistic,
    demixing_jackknife,
    jackknife_confidence_interval,
    jackknife_variance,
)
from .moments import (
    ContractionMatrix,
    RawMomentVector,
    contract_hessian,
    contract_tensor,
    covariance_from_moments,
    cumulant_map,
    cumulants_from_moments,
    monomial_matrix,
    monomial_tuples,
    moment_vector_length,
    projected_cumulant,
    raw_moments,
    third_cumulants,
    validate_sample,
)
from .overid import TestResult, overid_restrictions, wald_test
from .simulate import (
    B1_TRUE,
    GAMMA_LOADINGS,
    LAMBDA_TRUE,
    MEAS_COV,
    SUPPLY_DEMAND_PATTERN,
    CompositeDgpConfig,
    CompositeDraw,
    McResult,
    gen_composite,
    iv_2sls,
    load_experiment_config,
    parse_experiment_config,
    pearson_symmetric,
    run_coverage_experiment,
    run_mse_experiment,
    run_overid_power_experiment,
    write_mc_csv,
)
from .varpipe import (
    CsvSeries,
    PairwiseReport,
    VarFit,
    fit_var,
    load_series_csv,
    pairwise_overid,
    partial_out,
)

__all__ = [name for name in dir() if not name.startswith("_")]
