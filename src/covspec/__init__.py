"""Spectral and subspace diagnostics of rolling weighted covariance matrices."""

import os

# Run OpenBLAS on one thread unless the caller chose a count; this must come
# before the first import that loads numpy. The per-date solves are small
# (N x N, N a few hundred), where a second thread does little, but after each
# threaded call it spin-waits about 0.1 s. On a 2-vCPU host the longmem-full
# benchmark billed 11.8 s of CPU for 5.6 s of analysis on two threads, and
# 6.1 s for 5.3 s on one (medians of 10 runs each). One thread also makes the
# output bytes independent of the core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import RunConfig, validate_config
from .ensembles import EnsembleSpec, generate_returns, top_eigenvalue_oracle
from .kernels import WeightKernel, build_kernel, effective_length
from .moments import (
    CORRELATION,
    COVARIANCE,
    CovarianceSeries,
    dump_matrices,
    rolling_covariance,
    to_correlation,
)
from .panel import (
    AssetSpec,
    IngestConfig,
    PricePanel,
    ReturnPanel,
    compute_returns,
    load_panel,
    make_business_dates,
    map_prices,
)
from .runner import ReportBundle, run_analysis, run_synth
from .spectral import (
    AnsatzFit,
    DensityBins,
    DensityCurve,
    DensityHistogram,
    EigenSystem,
    MeanSpectrum,
    SpectrumSeries,
    default_density_bins,
    default_fit_range,
    density_of_states_curve,
    eigendecompose,
    eigenvalues,
    fit_ansatz,
    fit_mp_q,
    log_mean_spectrum,
    mp_density,
    mp_support,
    spectral_density,
    spectrum_series,
    window_vectors,
)
from .subspace import (
    FluctuationIndex,
    MeanProjector,
    Projector,
    factor_lagged_correlation,
    fluctuation_index,
    leading_projector,
    matrix_lagged_correlation,
    mean_projector,
    projector_series,
    projector_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AnsatzFit",
    "AssetSpec",
    "CORRELATION",
    "COVARIANCE",
    "CovarianceSeries",
    "DensityBins",
    "DensityCurve",
    "DensityHistogram",
    "EigenSystem",
    "EnsembleSpec",
    "FluctuationIndex",
    "IngestConfig",
    "MeanProjector",
    "MeanSpectrum",
    "PricePanel",
    "Projector",
    "ReportBundle",
    "ReturnPanel",
    "RunConfig",
    "SpectrumSeries",
    "WeightKernel",
    "build_kernel",
    "compute_returns",
    "default_density_bins",
    "default_fit_range",
    "density_of_states_curve",
    "dump_matrices",
    "effective_length",
    "eigendecompose",
    "eigenvalues",
    "factor_lagged_correlation",
    "fit_ansatz",
    "fit_mp_q",
    "fluctuation_index",
    "generate_returns",
    "leading_projector",
    "load_panel",
    "log_mean_spectrum",
    "make_business_dates",
    "map_prices",
    "matrix_lagged_correlation",
    "mean_projector",
    "mp_density",
    "mp_support",
    "projector_series",
    "projector_spectrum",
    "rolling_covariance",
    "run_analysis",
    "run_synth",
    "spectral_density",
    "spectrum_series",
    "to_correlation",
    "top_eigenvalue_oracle",
    "validate_config",
    "window_vectors",
]
