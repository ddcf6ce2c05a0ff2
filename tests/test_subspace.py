import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covspec import (
    EnsembleSpec,
    MeanProjector,
    SpectrumSeries,
    build_kernel,
    eigendecompose,
    factor_lagged_correlation,
    fluctuation_index,
    generate_returns,
    leading_projector,
    matrix_lagged_correlation,
    mean_projector,
    projector_series,
    projector_spectrum,
    rolling_covariance,
    spectrum_series,
)
from covspec import subspace
from covspec.subspace import GRAM_MIN_GAMMA, LAGGED_KERNEL_LENGTH
from covspec.errors import (
    ContractViolationError,
    DegenerateSeriesError,
    DegenerateSubspaceWarning,
    ParameterError,
)
from testutil import basis_series, random_covariance_series, random_symmetric


def random_spectra(n=6, n_dates=10, seed=0):
    series = random_covariance_series(n=n, length=2 * n, n_dates=n_dates, seed=seed)
    return spectrum_series(series, n_vectors=n)


# ---------------------------------------------------------------- projector


def test_full_rank_projector_is_identity():
    eig = eigendecompose(random_symmetric(5, seed=1))
    proj = leading_projector(eig, 5)
    assert proj.matrix == pytest.approx(np.eye(5), abs=1e-12)


def test_rank_one_projector_of_diagonal_matrix():
    eig = eigendecompose(np.diag([3.0, 1.0]))
    proj = leading_projector(eig, 1)
    assert proj.matrix == pytest.approx(np.array([[1.0, 0.0], [0.0, 0.0]]), abs=1e-14)


def test_projector_contract():
    eig = eigendecompose(random_symmetric(7, seed=2))
    proj = leading_projector(eig, 2)
    assert np.abs(proj.matrix @ proj.matrix - proj.matrix).max() < 1e-10
    assert abs(np.trace(proj.matrix) - 2.0) < 1e-10
    assert np.array_equal(proj.matrix, proj.matrix.T)


def test_rank_out_of_range():
    eig = eigendecompose(random_symmetric(4, seed=3))
    for k in (0, 5, -1):
        with pytest.raises(ParameterError):
            leading_projector(eig, k)


def test_degenerate_cut_warns():
    eig = eigendecompose(np.eye(4))
    with pytest.warns(DegenerateSubspaceWarning):
        leading_projector(eig, 2)


# ---------------------------------------------------------------- mean projector


def test_single_date_mean_is_projector():
    spectra = random_spectra(seed=4)
    single = SpectrumSeries(spectra.dates[:1], spectra.values[:1], spectra.vectors[:1])
    mp = mean_projector(single, 2)
    assert mp.sample_count == 1
    assert np.abs(mp.matrix @ mp.matrix - mp.matrix).max() < 1e-10


def test_alternating_axes_mean():
    series = basis_series([0, 1] * 5, n=3)
    mp = mean_projector(series, 1)
    assert mp.matrix == pytest.approx(np.diag([0.5, 0.5, 0.0]), abs=1e-14)


def test_static_series_mean_is_idempotent():
    spectra = random_spectra(seed=5)
    static = SpectrumSeries(
        spectra.dates,
        np.repeat(spectra.values[:1], len(spectra), axis=0),
        np.repeat(spectra.vectors[:1], len(spectra), axis=0),
    )
    mp = mean_projector(static, 3)
    assert np.abs(mp.matrix @ mp.matrix - mp.matrix).max() < 1e-10


def test_vectors_required():
    spectra = random_spectra(seed=6)
    no_vectors = SpectrumSeries(spectra.dates, spectra.values, None)
    with pytest.raises(ContractViolationError, match="vectors"):
        mean_projector(no_vectors, 1)


def test_mean_projector_matches_stacked_mean():
    spectra = random_spectra(n=9, n_dates=40, seed=22)
    for k in (1, 4, 9):
        stacked = projector_series(spectra, k).mean(axis=0)
        mp = mean_projector(spectra, k)
        assert mp.sample_count == 40
        assert np.array_equal(mp.matrix, mp.matrix.T)
        # k unit-norm columns per date, summed in another order
        assert np.abs(mp.matrix - stacked).max() <= 4 * k * np.finfo(float).eps


def test_rank_above_stored_vectors_rejected():
    series = random_covariance_series(n=6, length=12, n_dates=5, seed=23)
    spectra = spectrum_series(series, n_vectors=2)
    assert mean_projector(spectra, 2).matrix.shape == (6, 6)
    for fn in (mean_projector, projector_series):
        with pytest.raises(ContractViolationError, match="keeps 2"):
            fn(spectra, 3)


def test_mean_trace_preserves_rank():
    spectra = random_spectra(n=8, n_dates=15, seed=7)
    for k in (1, 3, 8):
        mp = mean_projector(spectra, k)
        assert abs(np.trace(mp.matrix) - k) < 1e-9


def test_mean_projector_permutation_equivariant():
    spectra = random_spectra(n=5, n_dates=8, seed=8)
    perm = np.array([2, 0, 4, 1, 3])
    permuted = SpectrumSeries(
        spectra.dates, spectra.values, spectra.vectors[:, perm, :]
    )
    base = mean_projector(spectra, 2).matrix
    conjugated = mean_projector(permuted, 2).matrix
    assert conjugated == pytest.approx(base[np.ix_(perm, perm)], abs=1e-12)


def test_rank_monotone_in_loewner_order():
    spectra = random_spectra(n=6, n_dates=12, seed=9)
    previous = np.zeros((6, 6))
    for k in range(1, 7):
        current = mean_projector(spectra, k).matrix
        gap_eigs = np.linalg.eigvalsh(current - previous)
        assert gap_eigs.min() > -1e-9
        previous = current


# ---------------------------------------------------------------- spectrum of the mean


def test_static_spectrum_is_zeros_and_ones():
    spectra = random_spectra(seed=10)
    static = SpectrumSeries(
        spectra.dates,
        np.repeat(spectra.values[:1], len(spectra), axis=0),
        np.repeat(spectra.vectors[:1], len(spectra), axis=0),
    )
    values = projector_spectrum(mean_projector(static, 2))
    assert values[:2] == pytest.approx([1.0, 1.0], abs=1e-10)
    assert values[2:] == pytest.approx(np.zeros(4), abs=1e-10)


def test_fully_explored_spectrum_is_k_over_n():
    mp = MeanProjector(2, (2 / 10) * np.eye(10), sample_count=100)
    values = projector_spectrum(mp)
    assert values == pytest.approx(np.full(10, 0.2), abs=1e-14)


def test_alternating_spectrum():
    series = basis_series([0, 1] * 6, n=4)
    values = projector_spectrum(mean_projector(series, 1))
    assert values == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-14)


def test_spectrum_sums_to_rank_and_stays_in_unit_interval():
    spectra = random_spectra(n=7, n_dates=20, seed=11)
    for k in (1, 4, 7):
        values = projector_spectrum(mean_projector(spectra, k))
        assert abs(values.sum() - k) < 1e-9
        assert values.min() > -1e-10
        assert values.max() < 1.0 + 1e-10


def test_spectrum_values_match_full_eigendecomposition():
    spectra = random_spectra(n=7, n_dates=20, seed=11)
    for k in (1, 4, 7):
        mp = mean_projector(spectra, k)
        values = projector_spectrum(mp)
        assert np.abs(values - eigendecompose(mp.matrix).values).max() <= 1e-13 * k
        assert abs(values.sum() - k) <= 1e-13 * k


# ---------------------------------------------------------------- fluctuation index


def test_static_projector_has_zero_fluctuation():
    spectra = random_spectra(seed=12)
    static = SpectrumSeries(
        spectra.dates,
        np.repeat(spectra.values[:1], len(spectra), axis=0),
        np.repeat(spectra.vectors[:1], len(spectra), axis=0),
    )
    idx = fluctuation_index(mean_projector(static, 2))
    assert abs(idx.gamma) < 1e-10


def test_fully_explored_reaches_gamma_max():
    idx = fluctuation_index(MeanProjector(2, 0.2 * np.eye(10), sample_count=50))
    assert idx.gamma == pytest.approx(0.8, abs=1e-14)
    assert idx.gamma_max == pytest.approx(0.8, abs=1e-14)
    assert idx.ratio == pytest.approx(1.0, abs=1e-12)


def test_alternating_two_dim_case():
    series = basis_series([0, 1] * 8, n=2)
    idx = fluctuation_index(mean_projector(series, 1))
    assert idx.gamma == pytest.approx(0.5, abs=1e-14)
    assert idx.gamma_max == pytest.approx(0.5, abs=1e-14)


def test_full_rank_ratio_is_undefined():
    spectra = random_spectra(n=4, seed=13)
    idx = fluctuation_index(mean_projector(spectra, 4))
    assert idx.gamma_max == 0.0
    assert math.isnan(idx.ratio)


def test_gamma_within_bounds_on_random_series():
    for seed in range(5):
        spectra = random_spectra(n=6, n_dates=9, seed=20 + seed)
        for k in (1, 3, 5):
            idx = fluctuation_index(mean_projector(spectra, k))
            assert -1e-12 <= idx.gamma <= idx.gamma_max + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
def test_gamma_bounds_property(seed, k):
    spectra = random_spectra(n=6, n_dates=7, seed=seed)
    idx = fluctuation_index(mean_projector(spectra, k))
    assert -1e-12 <= idx.gamma <= idx.gamma_max + 1e-9


# ---------------------------------------------------------------- lagged correlation


def test_lag_zero_is_exactly_one():
    series = random_covariance_series(n=4, length=10, n_dates=50, seed=14)
    rho = matrix_lagged_correlation(series, [0, 1, 2])
    assert rho[0] == 1.0


def test_iid_matrices_stay_in_null_band():
    rng = np.random.default_rng(15)
    t_len = 400
    stack = rng.standard_normal((t_len, 5, 5))
    stack = (stack + np.transpose(stack, (0, 2, 1))) / 2
    rho = matrix_lagged_correlation(stack, [1, 3, 7])
    assert np.all(np.abs(rho) < 3.0 / math.sqrt(t_len))


def test_window_overlap_triangle_small():
    length = 5
    series = random_covariance_series(n=4, length=length, n_dates=2000, seed=16)
    lags = [1, 2, 3, 4, 8]
    rho = matrix_lagged_correlation(series, lags)
    for lag, value in zip(lags, rho):
        expected = max(length - lag, 0) / length
        assert value == pytest.approx(expected, abs=0.1)


def test_soft_bound_on_random_series():
    series = random_covariance_series(n=3, length=8, n_dates=120, seed=17)
    rho = matrix_lagged_correlation(series, list(range(0, 20)))
    assert np.all(np.abs(rho) <= 1.05)


def test_constant_series_rejected():
    stack = np.repeat(np.eye(3)[None], 30, axis=0)
    with pytest.raises(DegenerateSeriesError):
        matrix_lagged_correlation(stack, [1])


def test_lag_too_large_rejected():
    series = random_covariance_series(n=3, length=5, n_dates=10, seed=18)
    with pytest.raises(ParameterError, match="lag"):
        matrix_lagged_correlation(series, [10])
    with pytest.raises(ParameterError, match="lag"):
        matrix_lagged_correlation(series, [9])


def test_negative_lag_rejected():
    series = random_covariance_series(n=3, length=5, n_dates=10, seed=19)
    with pytest.raises(ParameterError):
        matrix_lagged_correlation(series, [-1])


def test_projector_series_shape_and_idempotence():
    spectra = random_spectra(n=5, n_dates=7, seed=21)
    stack = projector_series(spectra, 2)
    assert stack.shape == (7, 5, 5)
    for mat in stack:
        assert np.abs(mat @ mat - mat).max() < 1e-10
        assert abs(np.trace(mat) - 2.0) < 1e-10


# ---------------------------------------------------------------- projector lagged correlation from V_k


def one_factor_lagged_spectra(n=20, n_dates=300, seed=24):
    spec = EnsembleSpec("one-factor", n, LAGGED_KERNEL_LENGTH + n_dates - 1, beta=0.5,
                        seed=seed)
    kernel = build_kernel("rectangular", LAGGED_KERNEL_LENGTH)
    return spectrum_series(rolling_covariance(generate_returns(spec), kernel), n_vectors=n)


def wandering_subspace(delta, n=12, k=2, n_dates=200, seed=25):
    """Orthonormal (T, n, k) bases of a subspace that drifts by ~delta per
    date around a fixed one, as an AR(1) perturbation."""
    rng = np.random.default_rng(seed)
    base = np.linalg.qr(rng.standard_normal((n, k)))[0]
    noise = np.zeros((n, k))
    vectors = np.empty((n_dates, n, k))
    for t in range(n_dates):
        noise = 0.9 * noise + rng.standard_normal((n, k))
        vectors[t] = np.linalg.qr(base + delta * noise)[0]
    return vectors


def test_gram_rho_matches_stacked_rho():
    spectra = one_factor_lagged_spectra()
    lags = [0, 1, 5, 10, 21, 30]
    for k in (1, 2, 5):
        assert fluctuation_index(mean_projector(spectra, k)).gamma > GRAM_MIN_GAMMA
        stacked = matrix_lagged_correlation(projector_series(spectra, k), lags)
        gram = factor_lagged_correlation(spectra.vectors[:, :, :k], lags)
        assert gram[0] == 1.0
        assert np.abs(gram - stacked).max() <= 1e-12 * np.abs(stacked).max()


def test_near_static_subspace_takes_the_stacked_route(monkeypatch):
    vectors = wandering_subspace(3.7e-5)
    gamma = fluctuation_index(mean_projector(vectors, 2)).gamma
    assert 1e-7 < gamma < GRAM_MIN_GAMMA
    lags = [0, 1, 3, 10]
    stacked = matrix_lagged_correlation(projector_series(vectors, 2), lags)
    assert np.array_equal(factor_lagged_correlation(vectors, lags), stacked)
    # the trace identities alone would miss the 1e-12 bound here
    monkeypatch.setattr(subspace, "GRAM_MIN_GAMMA", 0.0)
    gram = factor_lagged_correlation(vectors, lags)
    assert np.abs(gram - stacked).max() > 1e-12


def test_gram_rho_error_bound_above_guard():
    lags = [0, 1, 3, 10, 40]
    for delta in (3.5e-3, 1e-2, 1e-1):
        vectors = wandering_subspace(delta)
        assert fluctuation_index(mean_projector(vectors, 2)).gamma >= GRAM_MIN_GAMMA
        stacked = matrix_lagged_correlation(projector_series(vectors, 2), lags)
        gram = factor_lagged_correlation(vectors, lags)
        assert np.abs(gram - stacked).max() <= 1e-12


def drifting_factors(delta, n=12, m=3, n_dates=200, seed=26):
    """Non-orthonormal (T, n, m) factors that drift by ~delta per date around
    a fixed one, as an AR(1) perturbation."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, m))
    noise = np.zeros((n, m))
    factors = np.empty((n_dates, n, m))
    for t in range(n_dates):
        noise = 0.9 * noise + rng.standard_normal((n, m))
        factors[t] = base + delta * noise
    return factors


def outer_stack(factors):
    stack = factors @ np.transpose(factors, (0, 2, 1))
    return (stack + np.transpose(stack, (0, 2, 1))) / 2.0


def centred_variance_ratio(stack):
    centred = stack - stack.mean(axis=0)
    return np.sum(centred * centred) / np.sum(stack * stack)


def test_near_static_factors_take_the_stacked_route(monkeypatch):
    factors = drifting_factors(1e-3)
    stack = outer_stack(factors)
    assert 1e-7 < centred_variance_ratio(stack) < GRAM_MIN_GAMMA
    lags = [0, 1, 3, 10, 40]
    stacked = matrix_lagged_correlation(stack, lags)
    assert np.array_equal(factor_lagged_correlation(factors, lags), stacked)
    monkeypatch.setattr(subspace, "GRAM_MIN_GAMMA", 0.0)
    gram = factor_lagged_correlation(factors, lags)
    assert np.abs(gram - stacked).max() > 1e-12


def test_factor_rho_error_bound_above_guard():
    lags = [0, 1, 3, 10, 40]
    for delta in (3e-2, 1e-1, 1.0):
        factors = drifting_factors(delta)
        stack = outer_stack(factors)
        assert centred_variance_ratio(stack) >= GRAM_MIN_GAMMA
        stacked = matrix_lagged_correlation(stack, lags)
        gram = factor_lagged_correlation(factors, lags)
        assert np.abs(gram - stacked).max() <= 1e-12


def test_gram_rho_exact_on_basis_switches():
    series = basis_series([0, 1] * 20, n=3)
    rho = factor_lagged_correlation(series.vectors[:, :, :1], [0, 1, 2, 3])
    assert rho == pytest.approx([1.0, -1.0, 1.0, -1.0], abs=1e-14)


def test_gram_rho_rejects_static_subspace_and_bad_lags():
    with pytest.raises(DegenerateSeriesError):
        factor_lagged_correlation(basis_series([1] * 10, n=3).vectors[:, :, :1], [1])
    vectors = basis_series([0, 1] * 5, n=3).vectors[:, :, :1]
    with pytest.raises(ParameterError, match="lag"):
        factor_lagged_correlation(vectors, [9])
    with pytest.raises(ParameterError):
        factor_lagged_correlation(vectors, [-1])
