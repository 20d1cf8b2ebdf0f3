"""Numerical laboratory for almost-sure central limit behavior of weighted
sums under almost-orthogonal weight matrices, with circulant-spectrum and
periodogram applications."""

from .sources import SourceSpec, MomentReport, sample, sample_block, sample_prefix, moment_report
from .weights import (
    TRIG,
    HAAR,
    CUSTOM,
    WeightMatrixPair,
    ConditionReport,
    TrigIdentityReport,
    make_trig_pair,
    custom_pair,
    sample_haar_orthogonal,
    trig_column_sums,
    check_conditions,
    verify_trig_identities,
)
from .transform import (
    PartialSums,
    partial_sums,
    partial_sums_naive,
    partial_sums_fast,
    partial_sums_batch,
    gaussian_oracle_sums,
)
from .empirical import (
    EmpiricalMeasure,
    RateMethod,
    RateValue,
    normal_cdf,
    normal_pdf,
    exponential_cdf,
    chi2_2_cdf,
    ecdf,
    ks_to,
    joint_cdf,
    empirical_char,
    rate_function_gaussian,
    rate_function_estimate,
)
from .spectra import (
    Spectrum,
    circulant_eigen_dft,
    symmetric_circulant_spectrum,
    reverse_circulant_spectrum,
    periodogram,
    periodogram_all,
    periodogram_ecdf_distance,
)
from .experiments import (
    Schedule,
    ExperimentResult,
    asclt_trajectory,
    asclt_bivariate,
    char_variance_decay,
    clt_fluctuation,
    ldp_rate,
    validate_growth,
)

__version__ = "0.1.0"
