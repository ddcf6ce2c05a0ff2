"""Peak memory of the per-date loops, as a multiple of one (T,N,N) stack.

Each loop writes its results straight into a preallocated output stack, so
a call holds one stack of results and a few per-date temporaries; a loop
that collects per-date results and then stacks them holds two. Projector
statistics read only the (T,N,k) leading vectors and never hold a (T,N,N)
stack. The runner's main stage calls those loops on one block of dates at a
time (``runner.BLOCK_BYTES``), so a whole run holds one block of matrices
plus the (T,N) values and (T,N,k) vectors, well below one (T,N,N) stack. The
lagged stage reads only (T,N,L) return windows and the factors derived from
them, and scales the windows to unit rows in place: it holds the window
stack plus the two window-sized temporaries of ``factor_lagged_correlation``.
"""

import tracemalloc
from types import SimpleNamespace

import pytest

from covspec import (
    EnsembleSpec,
    build_kernel,
    factor_lagged_correlation,
    generate_returns,
    rolling_covariance,
    runner,
    spectrum_series,
    window_vectors,
)
from covspec.config import config_from_mapping
from covspec.moments import weighted_windows

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
        vectors = window_vectors(weighted_windows(returns, compact)[1], 5)
        return [factor_lagged_correlation(vectors[:, :, :k], lags) for k in (1, 2, 5)]

    peak, rhos = peak_added_bytes(lagged)
    assert all(rho[0] == 1.0 for rho in rhos)
    assert peak < 0.5 * stack_bytes


class TableSink:
    """Stands in for the bundle writer; keeps the rows of each table."""

    def __init__(self):
        self.tables = {}

    def write_table(self, stem, header, rows):
        self.tables[stem] = rows


def test_lagged_stage_peaks_below_one_stack():
    n, n_dates, length = 120, 300, 21
    spec = EnsembleSpec("one-factor", n, length + n_dates - 1, beta=0.5, seed=4)
    returns = generate_returns(spec)
    config = SimpleNamespace(
        lagged_length=length, lags=(0, 1, 5, 21), projector_ranks=(1, 2, 5)
    )
    sink = TableSink()
    peak, _ = peak_added_bytes(lambda: runner._lagged_file(sink, returns, config, None))
    rows = sink.tables["lagged_correlation"]
    assert [label for label, lag, _ in rows if lag == 0] == [
        "covariance", "correlation", "projector_k1", "projector_k2", "projector_k5"
    ]
    assert peak < 8 * n_dates * n**2
    # the raw windows' reads come first, then they are scaled to unit rows in
    # place: no second window stack is held next to factor_lagged_correlation's
    # two window-sized temporaries
    assert peak < 3.5 * 8 * n_dates * n * length


def test_main_stage_holds_no_matrix_stack(tmp_path, monkeypatch):
    n, n_dates, length = 80, 300, 100
    config = config_from_mapping({
        "ensemble.kind": "one-factor",
        "ensemble.assets": str(n),
        "ensemble.dates": str(length + n_dates - 1),
        "ensemble.beta": "0.5",
        "ensemble.seed": "6",
        "kernel.scheme": "long-memory",
        "kernel.length": str(length),
        "analyses": "spectrum,density,ansatz,projectors,fluctuation",
        "projectors.ranks": "1,2,5",
        "output.dir": str(tmp_path / "out"),
    })
    monkeypatch.setattr(runner, "BLOCK_BYTES", 10 * 8 * n**2)  # 30 blocks
    peak, bundle = peak_added_bytes(lambda: runner.run_analysis(config))
    assert bundle.complete
    assert peak < 0.25 * 8 * n_dates * n**2
