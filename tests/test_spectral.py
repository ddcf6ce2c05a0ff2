import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from covspec import (
    AnsatzFit,
    DensityBins,
    EnsembleSpec,
    SpectrumSeries,
    build_kernel,
    default_fit_range,
    density_of_states_curve,
    eigendecompose,
    eigenvalues,
    fit_ansatz,
    generate_returns,
    rolling_covariance,
    log_mean_spectrum,
    make_business_dates,
    mp_density,
    mp_support,
    spectral_density,
    spectrum_series,
    window_vectors,
)
from covspec import to_correlation
from covspec.moments import weighted_windows
from covspec.errors import ContractViolationError, NumericalError, ParameterError
from testutil import random_covariance_series, random_symmetric


def spectra_from(values):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    return SpectrumSeries(make_business_dates(values.shape[0]), values)


# ---------------------------------------------------------------- eigen


def test_identity_spectrum_is_ones():
    eig = eigendecompose(np.eye(5))
    assert eig.values == pytest.approx(np.ones(5))


def test_diagonal_two_by_two():
    eig = eigendecompose(np.diag([3.0, 1.0]))
    assert eig.values == pytest.approx([3.0, 1.0])
    assert np.abs(eig.vectors) == pytest.approx(np.eye(2))


def test_reconstruction_and_orthonormality():
    mat = random_symmetric(8, seed=42)
    eig = eigendecompose(mat)
    rebuilt = (eig.vectors * eig.values) @ eig.vectors.T
    rel = np.linalg.norm(rebuilt - mat) / np.linalg.norm(mat)
    assert rel < 1e-10
    gram = eig.vectors.T @ eig.vectors
    assert np.abs(gram - np.eye(8)).max() < 1e-10
    assert np.all(np.diff(eig.values) <= 0)


def test_sign_convention_is_deterministic():
    mat = random_symmetric(6, seed=1)
    eig = eigendecompose(mat)
    for col in eig.vectors.T:
        assert col[np.argmax(np.abs(col))] > 0


def test_non_symmetric_rejected():
    mat = np.arange(9.0).reshape(3, 3)
    with pytest.raises(ContractViolationError, match="symmetric"):
        eigendecompose(mat)


def test_non_square_rejected():
    with pytest.raises(ContractViolationError):
        eigendecompose(np.ones((2, 3)))


# ---------------------------------------------------------------- series


def test_series_of_identities():
    stack = np.repeat(np.eye(4)[None], 3, axis=0)
    series = random_covariance_series(n=4, length=5, n_dates=3, seed=2)
    fixed = type(series)(series.flavor, series.dates, stack, series.kernel, series.assets)
    spectra = spectrum_series(fixed)
    assert spectra.values == pytest.approx(np.ones((3, 4)))


def test_rank_deficient_date_has_zero_eigenvalue():
    series = random_covariance_series(n=4, length=3, n_dates=5, seed=3)
    spectra = spectrum_series(series)
    assert np.all(spectra.values[:, -1] < 1e-12 * spectra.values[:, 0])


def test_trace_identity_on_wishart_series():
    series = random_covariance_series(n=10, length=50, n_dates=8, seed=4)
    spectra = spectrum_series(series)
    for row, mat in zip(spectra.values, series.matrices):
        trace = np.trace(mat)
        assert abs(row.sum() - trace) < 1e-10 * abs(trace)


def test_vectors_stored_on_request():
    series = random_covariance_series(n=5, length=10, n_dates=4, seed=5)
    with_vectors = spectrum_series(series, n_vectors=5)
    assert with_vectors.vectors is not None
    assert with_vectors.vectors.shape == (4, 5, 5)
    leading = spectrum_series(series, n_vectors=2)
    assert np.array_equal(leading.vectors, with_vectors.vectors[:, :, :2])
    assert np.array_equal(leading.values, with_vectors.values)
    without = spectrum_series(series)
    assert without.vectors is None
    for bad in (-1, 6):
        with pytest.raises(ParameterError, match="n_vectors"):
            spectrum_series(series, n_vectors=bad)


def test_kept_vectors_are_eigendecompose_columns():
    # signs are flipped on the kept columns only; each column's flip is its own
    series = random_covariance_series(n=12, length=30, n_dates=5, seed=9)
    systems = [eigendecompose(m) for m in series.matrices]
    for k in (1, 3, 12):
        kept = spectrum_series(series, n_vectors=k)
        for t, system in enumerate(systems):
            assert np.array_equal(kept.vectors[t], system.vectors[:, :k])
            assert np.array_equal(kept.values[t], system.values)


def test_values_only_spectra_match_eigendecompose():
    for seed, length in ((6, 30), (7, 5)):
        series = random_covariance_series(n=12, length=length, n_dates=20, seed=seed,
                                          kind="one-factor", beta=0.6)
        spectra = spectrum_series(series)
        for row, mat in zip(spectra.values, series.matrices):
            reference = eigendecompose(mat).values
            assert np.abs(row - reference).max() <= 1e-13 * reference[0]
            assert np.all(np.diff(row) <= 0)


def test_series_error_names_offending_date():
    series = random_covariance_series(n=3, length=5, n_dates=3, seed=7)
    broken = series.matrices.copy()
    broken[1, 0, 1] += 1.0  # break symmetry at the second date
    bad = type(series)(series.flavor, series.dates, broken, series.kernel, series.assets)
    for n_vectors in (0, 2):
        with pytest.raises(ContractViolationError, match=series.dates[1]):
            spectrum_series(bad, n_vectors=n_vectors)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_rejected(value):
    with pytest.raises(NumericalError, match="non-finite"):
        eigendecompose(np.array([[value, 0.0], [0.0, 1.0]]))
    with pytest.raises(NumericalError, match="non-finite"):
        eigenvalues(np.array([[1.0, value], [value, 1.0]]))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_series_names_offending_date(value):
    series = random_covariance_series(n=3, length=5, n_dates=3, seed=8)
    broken = series.matrices.copy()
    broken[2, 1, 1] = value
    bad = type(series)(series.flavor, series.dates, broken, series.kernel, series.assets)
    for n_vectors in (0, 1):
        with pytest.raises(NumericalError, match=series.dates[2]):
            spectrum_series(bad, n_vectors=n_vectors)


def projector(vectors):
    return vectors @ vectors.T


def test_window_vectors_match_eigh_projectors():
    spec = EnsembleSpec("one-factor", 15, 60, beta=0.5, seed=9)
    returns = generate_returns(spec)
    for scheme, length in (("rectangular", 6), ("long-memory", 10)):
        kernel = build_kernel(scheme, length, tau0_days=60)
        series = rolling_covariance(returns, kernel)
        k = 4
        vectors = window_vectors(weighted_windows(returns, kernel)[1], k)
        assert vectors.shape == (len(series), 15, k)
        for t, mat in enumerate(series.matrices):
            eig = eigendecompose(mat)
            for j in range(1, k + 1):
                diff = projector(vectors[t, :, :j]) - projector(eig.vectors[:, :j])
                assert np.abs(diff).max() < 1e-12
            # same sign convention as eigendecompose
            lead = np.argmax(np.abs(vectors[t]), axis=0)
            assert np.all(vectors[t][lead, np.arange(k)] > 0)


def test_window_vectors_dates_follow_rolling_covariance():
    returns = generate_returns(EnsembleSpec("gaussian-iid", 8, 40, seed=10))
    kernel = build_kernel("rectangular", 5)
    dates = returns.dates[10:20:3]
    series = rolling_covariance(returns, kernel, dates)
    vectors = window_vectors(weighted_windows(returns, kernel, dates)[1], 2)
    for t, mat in enumerate(series.matrices):
        reference = projector(eigendecompose(mat).vectors[:, :2])
        assert np.abs(projector(vectors[t]) - reference).max() < 1e-12


def test_window_vectors_rank_limited_by_window():
    returns = generate_returns(EnsembleSpec("gaussian-iid", 8, 40, seed=11))
    with pytest.raises(ParameterError, match="rank"):
        window_vectors(weighted_windows(returns, build_kernel("rectangular", 5))[1], 6)
    with pytest.raises(ParameterError, match="rank"):
        window_vectors(weighted_windows(returns, build_kernel("rectangular", 20))[1], 9)


# ---------------------------------------------------------------- log mean


def test_log_mean_of_constant_spectrum_is_itself():
    row = np.array([4.0, 2.0, 0.5])
    mean = log_mean_spectrum(spectra_from(np.vstack([row, row, row])))
    assert mean.values == pytest.approx(row, rel=1e-14)
    assert list(mean.counts) == [3, 3, 3]


def test_log_mean_is_geometric():
    values = np.array([[1.0], [math.e**2]])
    mean = log_mean_spectrum(spectra_from(values))
    assert mean.values[0] == pytest.approx(math.e, rel=1e-14)


def test_floor_excludes_zeros():
    values = np.array([[1.0], [0.0]])
    mean = log_mean_spectrum(spectra_from(values), floor=1e-12)
    assert mean.values[0] == pytest.approx(1.0)
    assert mean.counts[0] == 1


def test_rank_excluded_everywhere_is_nan():
    values = np.array([[1.0, 0.0], [2.0, 0.0]])
    mean = log_mean_spectrum(spectra_from(values), floor=1e-12)
    assert math.isnan(mean.values[1])
    assert mean.counts[1] == 0


def test_non_positive_floor_rejected():
    with pytest.raises(ParameterError, match="floor"):
        log_mean_spectrum(spectra_from([[1.0]]), floor=0.0)


# ---------------------------------------------------------------- density


def test_single_bin_density_matches_formula():
    values = np.full((5, 3), 2.0)
    half_width = 0.25
    hist = spectral_density(
        spectra_from(values), DensityBins("linear", 2.0 - half_width, 2.0 + half_width, 1)
    )
    assert hist.densities[0] == pytest.approx(1.0 / (2 * half_width))
    assert hist.n_excluded == 0


def test_excluded_mass_bookkeeping():
    values = np.concatenate([np.full(50, 1.0), np.full(50, 3.0)]).reshape(1, 100)
    hist = spectral_density(spectra_from(values), DensityBins("linear", 0.5, 1.5, 4))
    assert hist.included_fraction == pytest.approx(0.5)
    assert hist.n_excluded == 50
    width = hist.widths[0]
    assert float(np.sum(hist.densities * hist.widths)) == pytest.approx(0.5, abs=1e-9)
    assert width == pytest.approx(0.25)


def test_full_range_bins_include_everything():
    rng = np.random.default_rng(8)
    values = np.sort(rng.uniform(0.1, 5.0, size=(6, 20)))[:, ::-1]
    lo, hi = values.min(), values.max()
    hist = spectral_density(spectra_from(values), DensityBins("linear", lo, hi, 30))
    assert hist.included_fraction == pytest.approx(1.0, abs=1e-12)
    assert float(np.sum(hist.densities * hist.widths)) == pytest.approx(1.0, abs=1e-9)


def test_logarithmic_bins_normalize():
    rng = np.random.default_rng(9)
    values = np.sort(np.exp(rng.uniform(-8, 1, size=(4, 50))))[:, ::-1]
    hist = spectral_density(
        spectra_from(values), DensityBins("logarithmic", values.min(), values.max(), 40)
    )
    assert hist.included_fraction == pytest.approx(1.0, abs=1e-12)
    assert float(np.sum(hist.densities * hist.widths)) == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(hist.widths) > 0)


def test_correlation_spectra_full_range_inclusion():
    corr = to_correlation(random_covariance_series(n=10, length=40, n_dates=12, seed=30))
    spectra = spectrum_series(corr)
    lo = float(spectra.values.min())
    hi = float(spectra.values.max())
    hist = spectral_density(spectra, DensityBins("linear", lo, hi, 60))
    assert hist.included_fraction == pytest.approx(1.0, abs=1e-12)


def test_zero_measure_range_rejected():
    with pytest.raises(ParameterError):
        spectral_density(spectra_from([[1.0]]), DensityBins("linear", 1.0, 1.0, 5))
    with pytest.raises(ParameterError):
        spectral_density(spectra_from([[1.0]]), DensityBins("linear", 0.0, 1.0, 0))
    with pytest.raises(ParameterError, match="lo > 0"):
        spectral_density(spectra_from([[1.0]]), DensityBins("logarithmic", 0.0, 1.0, 5))


# ---------------------------------------------------------------- M-P


def test_mp_density_below_support_is_zero():
    assert mp_density(0.2, 0.25) == 0.0


def test_mp_density_known_value_at_q_one():
    # sqrt(8 - 4) / (4 pi) = 1 / (2 pi)
    assert mp_density(2.0, 1.0) == pytest.approx(1 / (2 * math.pi), rel=1e-14)
    assert mp_density(2.0, 1.0) == pytest.approx(0.15915494309189535, rel=1e-14)


def test_mp_density_vanishes_at_endpoints():
    for q in (0.1, 0.5, 1.0):
        lo, hi = mp_support(q)
        assert mp_density(lo, q) == 0.0
        assert mp_density(hi, q) == 0.0


def test_mp_support_endpoints():
    lo, hi = mp_support(0.25)
    assert lo == pytest.approx(0.25)
    assert hi == pytest.approx(2.25)


def test_mp_invalid_q_rejected():
    for q in (0.0, -0.5, 1.5):
        with pytest.raises(ParameterError, match="q"):
            mp_density(1.0, q)


@pytest.mark.parametrize("q", [0.1, 0.25, 0.5, 0.9])
def test_mp_density_integrates_to_one(q):
    lo, hi = mp_support(q)
    integral, _ = quad(lambda x: mp_density(x, q), lo, hi, limit=200)
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_mp_density_vectorized_non_negative():
    grid = np.linspace(-1.0, 5.0, 301)
    out = mp_density(grid, 0.3)
    assert out.shape == grid.shape
    assert np.all(out >= 0.0)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=-1.0, max_value=6.0),
)
def test_mp_density_zero_outside_support(q, lam):
    lo, hi = mp_support(q)
    value = mp_density(lam, q)
    assert value >= 0.0
    if lam <= lo or lam >= hi:
        assert value == 0.0


# ---------------------------------------------------------------- fit


def synthesize_spectrum(a, b, eps_mid, n):
    alpha = np.arange(1, n + 1)
    x = 0.5 - alpha / n
    return np.exp(np.log(eps_mid) + a * x / (1 - (2 * x / b) ** 4))


def test_fit_round_trip():
    eps = synthesize_spectrum(8.0, 1.1, 1e-4, 100)
    fit = fit_ansatz(eps)
    assert fit.a == pytest.approx(8.0, rel=1e-6)
    assert fit.b == pytest.approx(1.1, rel=1e-6)
    assert fit.eps_mid == pytest.approx(1e-4, rel=1e-6)
    assert fit.rms_residual < 1e-10


def test_fitted_curve_returns_eps_mid_at_center():
    eps = synthesize_spectrum(8.0, 1.1, 1e-4, 100)
    fit = fit_ansatz(eps)
    assert math.exp(fit.log_eps(0.0)) == pytest.approx(fit.eps_mid, rel=1e-14)


def test_central_slope_is_minus_a_over_n():
    eps = synthesize_spectrum(8.0, 1.1, 1e-4, 100)
    fit = fit_ansatz(eps)
    n = fit.n_ranks
    h = 1e-6
    # d ln eps / d alpha = -(1/n) d ln eps / dx
    slope = (fit.log_eps(h) - fit.log_eps(-h)) / (2 * h) * (-1.0 / n)
    assert slope == pytest.approx(-fit.a / n, rel=1e-8)


def test_fit_is_scale_equivariant():
    eps = synthesize_spectrum(9.0, 1.3, 2e-3, 120)
    base = fit_ansatz(eps)
    scaled = fit_ansatz(7.25 * eps)
    assert scaled.a == pytest.approx(base.a, rel=1e-8)
    assert scaled.b == pytest.approx(base.b, rel=1e-8)
    assert math.log(scaled.eps_mid) == pytest.approx(
        math.log(base.eps_mid) + math.log(7.25), abs=1e-8
    )


def test_default_fit_range_is_central_80_percent():
    assert default_fit_range(100) == (11, 90)


def test_fit_range_validation():
    eps = synthesize_spectrum(8.0, 1.1, 1e-4, 50)
    with pytest.raises(ParameterError):
        fit_ansatz(eps, fit_range=(0, 20))
    with pytest.raises(ParameterError):
        fit_ansatz(eps, fit_range=(10, 60))
    with pytest.raises(ParameterError):
        fit_ansatz(np.ones(4))


def test_fit_skips_non_positive_ranks():
    eps = synthesize_spectrum(8.0, 1.1, 1e-4, 100)
    eps[40] = 0.0
    eps[60] = np.nan
    fit = fit_ansatz(eps)
    assert fit.a == pytest.approx(8.0, rel=1e-6)


# ---------------------------------------------------------------- density of states


def test_scale_free_limit_is_one_over_a_eps():
    fit = AnsatzFit(a=5.0, b=1e9, eps_mid=1e-3, rms_residual=0.0,
                    fit_range=(11, 90), n_ranks=100)
    lo, hi = fit.eps_range()
    grid = np.geomspace(lo, hi, 50)
    curve = density_of_states_curve(fit, grid)
    assert np.all(curve.in_range)
    assert curve.density * fit.a * grid == pytest.approx(np.ones(50), rel=1e-9)


def test_reference_line_a_ten():
    fit = AnsatzFit(a=10.0, b=1.2, eps_mid=1e-4, rms_residual=0.0,
                    fit_range=(11, 90), n_ranks=100)
    curve = density_of_states_curve(fit, np.array([1e-4]))
    assert curve.density[0] == pytest.approx(0.1 / 1e-4, rel=1e-10)


def test_density_integrates_to_index_fraction():
    fit = fit_ansatz(synthesize_spectrum(10.0, 1.2, 1e-4, 100))
    lo, hi = fit.eps_range()
    grid = np.geomspace(lo, hi, 4001)
    curve = density_of_states_curve(fit, grid)
    integral = np.trapezoid(curve.density, grid)
    lo_rank, hi_rank = fit.fit_range
    assert integral == pytest.approx((hi_rank - lo_rank) / 100.0, abs=1e-3)


def test_out_of_range_grid_points_flagged():
    fit = AnsatzFit(a=10.0, b=1.2, eps_mid=1e-4, rms_residual=0.0,
                    fit_range=(11, 90), n_ranks=100)
    lo, hi = fit.eps_range()
    curve = density_of_states_curve(fit, np.array([lo / 2, 1e-4, hi * 2]))
    assert list(curve.in_range) == [False, True, False]
    assert math.isnan(curve.density[0])
    assert math.isnan(curve.density[2])
