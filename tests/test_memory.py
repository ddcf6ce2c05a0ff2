"""Peak memory of the per-date loops, as a multiple of one (T,N,N) stack.

The runner's main stage, which ``rolling_spectra`` runs too, forms, solves
and dumps one date's N x N matrices at a time. Each date's values and kept
vectors come back through its worker's pipe into the (T,N) and (T,N,k)
result arrays of this process, which tracemalloc traces with the rest: the
peaks here are checked either beyond those arrays, whose shapes and nbytes
are checked apart, or with their exact nbytes per date allowed for.
Projector statistics read only the (T,N,k) leading vectors, sum them over
chunks of dates (``subspace.CHUNK_BYTES``), and hold neither a (T,N,N)
stack nor a copy of the (T,N,k) one. The lagged stage deals its dates in
blocks (``runner.DATES_PER_BLOCK``), and each block walks its (T,N,L) return
windows in chunks of ``subspace.CHUNK_BYTES`` or of max(lags) dates,
whichever is more, feeding them to running sums and dropping them, so its
peak grows neither with the number of dates nor with the block, and stays
below one window stack. A near-static series' centred walk holds the N x N
terms of one chunk and of the max(lags) dates carried from the one before,
and drops both before the next chunk's are formed.
"""

import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from covspec import (
    EnsembleSpec,
    build_kernel,
    bundle,
    generate_returns,
    rolling_spectra,
    runner,
    subspace,
)
from covspec.config import config_from_mapping
from covspec.moments import weighted_windows
from covspec.spectral import window_vectors
from covspec.subspace import mean_projector
from testutil import TableSink, factor_lagged_correlation

N_ASSETS = 60
N_DATES = 300
KERNEL_LENGTH = 100
# of one (T,N,N) stack: a call's traced peak is about 2.5% here, one
# date's windows, matrices and solver workspace
PEAK_FRACTION = 0.05


@pytest.fixture(scope="module")
def panel_and_kernel():
    spec = EnsembleSpec("one-factor", N_ASSETS, KERNEL_LENGTH + N_DATES - 1, beta=0.5, seed=3)
    kernel = build_kernel("long-memory", KERNEL_LENGTH, tau0_days=600)
    return generate_returns(spec), kernel


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


STACK_BYTES = 8 * N_DATES * N_ASSETS**2


def spectra_peak(panel_and_kernel, **options):
    """Traced peak of one rolling_spectra call beyond its result arrays,
    which are checked by their shapes and nbytes."""
    peak, spectra = peak_added_bytes(lambda: rolling_spectra(*panel_and_kernel, **options))
    assert spectra.values.shape == (N_DATES, N_ASSETS)
    assert spectra.values.nbytes == 8 * N_DATES * N_ASSETS
    results = spectra.values.nbytes
    if spectra.vectors is not None:
        results += spectra.vectors.nbytes
    return peak - results, spectra


def test_direct_covariance_peaks_near_one_stack(panel_and_kernel):
    # the covariance of every date is formed and solved, one date at a time
    peak, spectra = spectra_peak(panel_and_kernel, flavor="covariance")
    assert spectra.vectors is None
    assert peak < PEAK_FRACTION * STACK_BYTES


def test_values_only_spectrum_holds_no_vector_stack(panel_and_kernel):
    peak, spectra = spectra_peak(panel_and_kernel, flavor="correlation")
    assert spectra.vectors is None
    assert peak < PEAK_FRACTION * STACK_BYTES


def test_spectrum_with_vectors_peaks_near_one_stack(panel_and_kernel):
    peak, spectra = spectra_peak(panel_and_kernel, n_vectors=N_ASSETS)
    assert spectra.vectors.shape == (N_DATES, N_ASSETS, N_ASSETS)
    assert spectra.vectors.nbytes == STACK_BYTES
    assert peak < PEAK_FRACTION * STACK_BYTES


def test_spectrum_keeps_only_the_requested_vectors(panel_and_kernel):
    k = 5
    peak, spectra = spectra_peak(panel_and_kernel, n_vectors=k)
    assert spectra.vectors.shape == (N_DATES, N_ASSETS, k)
    assert spectra.vectors.nbytes == 8 * N_DATES * N_ASSETS * k
    assert peak < PEAK_FRACTION * STACK_BYTES


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


def test_mean_projector_holds_no_copy_of_the_vectors():
    t_len, n, k = 3000, 60, 5
    vectors = np.random.default_rng(7).standard_normal((t_len, n, k))
    peak, mp = peak_added_bytes(lambda: mean_projector(vectors, k))
    assert mp.sample_count == t_len
    # one chunk's copy (CHUNK_BYTES, 1 MiB) and N x N sums, of a 7.2 MB stack
    assert peak < 0.25 * vectors.nbytes


def lagged_stage_peak(n_dates, n=120, length=21, beta=0.5, lags=(0, 1, 5, 21)):
    spec = EnsembleSpec("one-factor", n, length + n_dates - 1, beta=beta, seed=4)
    returns = generate_returns(spec)
    config = SimpleNamespace(lagged_length=length, lags=lags, projector_ranks=(1, 2, 5))
    dates = runner._lagged_dates(returns, config, None)
    sink = TableSink()
    peak, _ = peak_added_bytes(lambda: runner._lagged_file(sink, returns, config, dates))
    rows = sink.tables["lagged_correlation"]
    assert [label for label, lag, _ in rows if lag == 0] == [
        "covariance", "correlation", "projector_k1", "projector_k2", "projector_k5"
    ]
    return peak, 8 * n_dates * n * length


def test_lagged_stage_peaks_below_one_stack(monkeypatch):
    monkeypatch.setattr(runner, "DATES_PER_BLOCK", 40)
    short, short_stack = lagged_stage_peak(300)
    long, long_stack = lagged_stage_peak(1200)
    # one block of windows and the running sums, whatever the number of dates
    assert max(short, long) < 1.25 * min(short, long)
    assert short < short_stack
    assert long < long_stack


def test_lagged_stage_peak_does_not_grow_with_the_block(monkeypatch):
    monkeypatch.setattr(runner, "DATES_PER_BLOCK", 40)
    blocked, _ = lagged_stage_peak(1200)
    monkeypatch.setattr(runner, "DATES_PER_BLOCK", 1200)  # one block
    whole, _ = lagged_stage_peak(1200)
    # a block is walked in chunks, however many dates it holds
    assert whole < 1.25 * blocked


def test_near_static_lagged_stage_peak_does_not_grow_with_the_dates(monkeypatch):
    """At beta = 0.999 the correlation and the rank-1 projector are
    near-static and walk the blocks once more, centred: one chunk of N x N
    terms and those of the max(lags) dates before it at a time, so the
    peak does not grow with the number of dates."""
    centred = []
    summed = subspace.LaggedSums.centred
    monkeypatch.setattr(
        subspace.LaggedSums, "centred", lambda sums: centred.append(1) or summed(sums)
    )
    monkeypatch.setattr(runner, "DATES_PER_BLOCK", 40)
    short, _ = lagged_stage_peak(300, beta=0.999)
    long, _ = lagged_stage_peak(600, beta=0.999)
    assert len(centred) == 2 * 2
    assert long < 1.25 * short


def test_near_static_chunk_terms_go_before_the_next_are_formed(monkeypatch):
    """With max(lags) = 60 above the 52 dates of windows CHUNK_BYTES holds
    at N = 120, L = 21, a chunk spans 60 dates, and carries its last 60
    terms into the next. In the centred walk each of the two near-static
    series holds its carry, 60 N x N terms, and one series the terms of
    the chunk being formed: 3 carries, and about 1.1 more of the factors
    of the first and last max(lags) dates and of the sums; 4.14 measured
    (x86-64, CPython 3.11). A chunk's terms, or an old carry, kept while
    the next are formed add a fourth carry: 5.14."""
    n, reach = 120, 60
    assert subspace.CHUNK_BYTES // (8 * 21 * n) < reach
    centred = []
    summed = subspace.LaggedSums.centred
    monkeypatch.setattr(
        subspace.LaggedSums, "centred", lambda sums: centred.append(1) or summed(sums)
    )
    monkeypatch.setattr(runner, "DATES_PER_BLOCK", 150)
    peak, _ = lagged_stage_peak(300, n=n, beta=0.999, lags=(0, 1, 5, reach))
    assert len(centred) == 2
    assert peak < 4.5 * 8 * reach * n**2


def main_config(tmp_path, n_dates, n=80, length=100, **keys):
    return config_from_mapping({
        "ensemble.kind": "one-factor",
        "ensemble.assets": str(n),
        "ensemble.dates": str(length + n_dates - 1),
        "ensemble.beta": "0.5",
        "ensemble.seed": "6",
        "kernel.scheme": "long-memory",
        "kernel.length": str(length),
        "projectors.ranks": "1,2,5",
        "output.dir": str(tmp_path / f"out-{n_dates}"),
        **keys,
    })


def test_main_stage_holds_no_matrix_stack(tmp_path):
    n, n_dates = 80, 300
    config = main_config(
        tmp_path, n_dates, analyses="spectrum,density,ansatz,projectors,fluctuation"
    )
    peak, _ = peak_added_bytes(lambda: runner.run_analysis(config))
    assert peak < 0.25 * 8 * n_dates * n**2


def main_stage_peak(tmp_path, monkeypatch, n_dates):
    """The traced peak of the main stage in a run with a dump, projector
    vectors and apart correlation spectra."""
    config = main_config(
        tmp_path,
        n_dates,
        analyses="spectrum,density,mp-compare,projectors",
        **{"output.dump_matrices": "true"},
    )
    main_stage, peaks = runner._main_stage, []

    def traced(*args):
        peak, result = peak_added_bytes(lambda: main_stage(*args))
        peaks.append(peak)
        return result

    with monkeypatch.context() as patch:
        patch.setattr(runner, "_main_stage", traced)
        runner.run_analysis(config)
    return peaks[0]


def test_main_stage_peak_grows_only_by_values_and_vectors(tmp_path, monkeypatch):
    # Each date adds its rows of the result arrays: the values and 5 vectors
    # of N = 80. Besides them, what is traced grows per date by the dump's
    # registered (name, sha256, bytes) entry and the date, about 250 bytes on
    # one worker and 100 on two (x86-64, CPython 3.11): 400 bounds it.
    n, k = 80, 5
    row_bytes = np.empty(n).nbytes + np.empty((n, k)).nbytes
    assert row_bytes == 3840
    traced_per_date = row_bytes + 400
    # built once and cached: the dump's cells and separators for N = 80, and
    # the CSV float kernel's table of powers of ten
    bundle._lower_triangle(80)
    bundle._powers_of_ten()
    short = main_stage_peak(tmp_path, monkeypatch, 100)
    long = main_stage_peak(tmp_path, monkeypatch, 400)
    assert long - short < 300 * traced_per_date


def test_no_main_spectra_alive_when_the_lagged_stage_starts(tmp_path, monkeypatch):
    """The main stage's values and vectors are dropped once their files are
    written, so the lagged stage's workers, forked from this process, do not
    count their pages."""
    config = main_config(
        tmp_path, 30, n=12, length=20,
        analyses="spectrum,density,ansatz,projectors,fluctuation,lagged",
        **{"lagged.length": "10", "lagged.lags": "0,1"},
    )
    main_stage, lagged_file, spectra, alive = runner._main_stage, runner._lagged_file, [], []

    def kept(*args):
        series, below = main_stage(*args)
        spectra.append(weakref.ref(series))
        return series, below

    def lagged(*args):
        alive.append([ref() is not None for ref in spectra])
        return lagged_file(*args)

    monkeypatch.setattr(runner, "_main_stage", kept)
    monkeypatch.setattr(runner, "_lagged_file", lagged)
    runner.run_analysis(config)
    assert alive == [[False]]
