"""Peak memory of the per-date loops, as a multiple of one (T,N,N) stack.

Each loop writes its results straight into a preallocated output stack, so
a call holds one stack of results and a few per-date temporaries; a loop
that collects per-date results and then stacks them holds two. Projector
statistics read only the (T,N,k) leading vectors and never hold a (T,N,N)
stack.
"""

import tracemalloc

import pytest

from covspec import (
    EnsembleSpec,
    build_kernel,
    generate_returns,
    projector_lagged_correlation,
    rolling_covariance,
    spectrum_series,
    window_vectors,
)

N_ASSETS = 60
N_DATES = 300
KERNEL_LENGTH = 100


@pytest.fixture(scope="module")
def panel_and_kernel():
    spec = EnsembleSpec("one-factor", N_ASSETS, KERNEL_LENGTH + N_DATES - 1, beta=0.5, seed=3)
    kernel = build_kernel("long-memory", KERNEL_LENGTH, tau0_days=600)
    return generate_returns(spec), kernel


@pytest.fixture(scope="module")
def series(panel_and_kernel):
    return rolling_covariance(*panel_and_kernel)


def peak_added_bytes(fn):
    """Peak traced allocation during fn() above what was live before it."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before, result


def test_direct_covariance_peaks_near_one_stack(panel_and_kernel):
    peak, series = peak_added_bytes(
        lambda: rolling_covariance(*panel_and_kernel)
    )
    assert series.matrices.shape == (N_DATES, N_ASSETS, N_ASSETS)
    assert peak < 1.5 * series.matrices.nbytes


def test_values_only_spectrum_holds_no_vector_stack(series):
    peak, spectra = peak_added_bytes(lambda: spectrum_series(series))
    assert spectra.vectors is None
    assert peak < 0.5 * series.matrices.nbytes


def test_spectrum_with_vectors_peaks_near_one_stack(series):
    peak, spectra = peak_added_bytes(lambda: spectrum_series(series, n_vectors=N_ASSETS))
    assert spectra.vectors.shape == series.matrices.shape
    assert peak < 1.5 * series.matrices.nbytes


def test_spectrum_keeps_only_the_requested_vectors(series):
    k = 5
    peak, spectra = peak_added_bytes(lambda: spectrum_series(series, n_vectors=k))
    assert spectra.vectors.shape == (N_DATES, N_ASSETS, k)
    assert peak < 0.5 * series.matrices.nbytes


def test_lagged_projector_path_holds_no_projector_stack(panel_and_kernel):
    returns, _ = panel_and_kernel
    compact = build_kernel("rectangular", 21)
    lags = [0, 1, 5, 21]
    stack_bytes = 8 * (N_DATES + KERNEL_LENGTH - 21) * N_ASSETS**2

    def lagged():
        vectors = window_vectors(returns, compact, 5)
        return [projector_lagged_correlation(vectors, k, lags) for k in (1, 2, 5)]

    peak, rhos = peak_added_bytes(lagged)
    assert all(rho[0] == 1.0 for rho in rhos)
    assert peak < 0.5 * stack_bytes
