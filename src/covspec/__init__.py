"""Spectral and subspace diagnostics of rolling weighted covariance matrices."""

import os

# Run OpenBLAS on one thread unless the caller chose a count; this must come
# before the first import that loads numpy. The per-date solves are small
# (N x N, N a few hundred), where a second thread does little, but after each
# threaded call it spin-waits about 0.1 s. On a 2-vCPU host the longmem-full
# benchmark billed 11.8 s of CPU for 5.6 s of analysis on two threads, and
# 6.1 s for 5.3 s on one (medians of 10 runs each). One thread also makes the
# output bytes independent of the core count. The cores are used instead by
# the main stage's forked workers (``workers``), one per usable CPU, and only
# while this variable reads "1" and the process runs no other thread: with
# BLAS threads a fork is unsafe, so numpy imported first costs the workers.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import RunConfig, validate_config
from .ensembles import EnsembleSpec, generate_returns, top_eigenvalue_oracle
from .kernels import WeightKernel, build_kernel, effective_length
from .moments import CORRELATION, COVARIANCE
from .panel import (
    IngestConfig,
    PricePanel,
    ReturnPanel,
    compute_returns,
    load_panel,
    make_business_dates,
)
from .runner import ReportBundle, rolling_spectra, run_analysis, run_synth
from .spectral import (
    AnsatzFit,
    DensityBins,
    DensityCurve,
    DensityHistogram,
    MeanSpectrum,
    SpectrumSeries,
    default_density_bins,
    default_fit_range,
    density_of_states_curve,
    eigenvalues,
    fit_ansatz,
    fit_mp_q,
    log_mean_spectrum,
    mp_density,
    mp_support,
    spectral_density,
)
from .subspace import (
    FluctuationIndex,
    MeanProjector,
    fluctuation_index,
    mean_projector,
    projector_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AnsatzFit",
    "CORRELATION",
    "COVARIANCE",
    "DensityBins",
    "DensityCurve",
    "DensityHistogram",
    "EnsembleSpec",
    "FluctuationIndex",
    "IngestConfig",
    "MeanProjector",
    "MeanSpectrum",
    "PricePanel",
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
    "effective_length",
    "eigenvalues",
    "fit_ansatz",
    "fit_mp_q",
    "fluctuation_index",
    "generate_returns",
    "load_panel",
    "log_mean_spectrum",
    "make_business_dates",
    "mean_projector",
    "mp_density",
    "mp_support",
    "projector_spectrum",
    "rolling_spectra",
    "run_analysis",
    "run_synth",
    "spectral_density",
    "top_eigenvalue_oracle",
    "validate_config",
]
