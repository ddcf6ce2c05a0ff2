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
    ReturnPanel,
    SpectrumSeries,
    build_kernel,
    default_fit_range,
    density_of_states_curve,
    eigenvalues,
    fit_ansatz,
    generate_returns,
    log_mean_spectrum,
    make_business_dates,
    mp_density,
    mp_support,
    rolling_spectra,
    spectral_density,
)
from covspec import _lapack, run_analysis, spectral, validate_config
from covspec.moments import resolve_eval_indices, weighted_windows
from covspec.spectral import window_vectors
from covspec.errors import (
    AnalysisError,
    ContractViolationError,
    FitError,
    NumericalError,
    ParameterError,
)
from testutil import (
    covariance_stack,
    eigendecompose,
    random_covariance_series,
    random_panel,
    random_symmetric,
    synthesize_spectrum,
)


def spectra_from(values):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    return SpectrumSeries(make_business_dates(values.shape[0]), values)


def projector(vectors):
    return vectors @ vectors.T


def assert_leading_vectors(matrix, values, vectors):
    """``values`` are the spectrum of ``matrix`` within 1e-13 of its top value;
    the projector on each leading j of the columns ``vectors`` is eigh's
    within 1e-13 wherever the gap below rank j exceeds 1e-8 of the top value;
    the columns are orthonormal and follow the sign convention."""
    ref_values, ref_vectors = np.linalg.eigh(matrix)
    ref_values, ref_vectors = ref_values[::-1], ref_vectors[:, ::-1]
    n, k = vectors.shape
    top = abs(ref_values[0])
    assert np.abs(values - ref_values).max() <= 1e-13 * top
    assert np.abs(vectors.T @ vectors - np.eye(k)).max() < 1e-13
    for j in range(1, k + 1):
        if j == n or ref_values[j - 1] - ref_values[j] > 1e-8 * top:
            diff = projector(vectors[:, :j]) - projector(ref_vectors[:, :j])
            assert np.abs(diff).max() < 1e-13, j
    lead = np.argmax(np.abs(vectors), axis=0)
    assert np.all(vectors[lead, np.arange(k)] > 0)


# ---------------------------------------------------------------- eigen


def test_identity_spectrum_is_ones():
    assert eigenvalues(np.eye(5)) == pytest.approx(np.ones(5))


def test_diagonal_two_by_two():
    values, vectors = spectral.leading_system(np.diag([3.0, 1.0]), 2)
    assert values == pytest.approx([3.0, 1.0])
    assert np.abs(vectors) == pytest.approx(np.eye(2))


def test_reconstruction_and_orthonormality():
    mat = random_symmetric(8, seed=42)
    values, vectors = spectral.leading_system(mat, 8)
    rebuilt = (vectors * values) @ vectors.T
    rel = np.linalg.norm(rebuilt - mat) / np.linalg.norm(mat)
    assert rel < 1e-10
    gram = vectors.T @ vectors
    assert np.abs(gram - np.eye(8)).max() < 1e-10
    assert np.all(np.diff(values) <= 0)


def test_sign_convention_is_deterministic():
    mat = random_symmetric(6, seed=1)
    for col in spectral.leading_system(mat, 6)[1].T:
        assert col[np.argmax(np.abs(col))] > 0


def test_leading_system_leaves_its_matrix_intact():
    # the eigh fallback reads the unreduced matrix, and the runner may read
    # it again after the solve
    mat = random_symmetric(9, seed=2)
    kept = mat.copy()
    spectral.leading_system(mat, 3)
    assert np.array_equal(mat, kept)


def test_non_symmetric_rejected():
    mat = np.arange(9.0).reshape(3, 3)
    with pytest.raises(ContractViolationError, match="symmetric"):
        eigenvalues(mat)


def test_non_square_rejected():
    with pytest.raises(ContractViolationError):
        eigenvalues(np.ones((2, 3)))


def rank_deficient(n, length, seed):
    """A covariance of N assets over L < N dates: N - L zero eigenvalues."""
    return random_covariance_series(n=n, length=length, n_dates=1, seed=seed).matrices[0]


TRIDIAGONAL_CASES = {
    "one-asset": (np.array([[2.5]]), (0, 1)),
    "two-assets": (np.array([[2.0, -0.5], [-0.5, 1.0]]), (0, 1, 2)),
    "identity": (np.eye(20), (0, 2, 20)),
    # 15 positive eigenvalues, then a cluster of 25 at zero
    "rank-deficient": (rank_deficient(40, 15, seed=11), (0, 4, 15, 20)),
    "wishart": (random_covariance_series(n=60, length=80, n_dates=1, seed=12,
                                         kind="one-factor", beta=0.5).matrices[0], (0, 6, 7, 60)),
}


@pytest.mark.parametrize("case", sorted(TRIDIAGONAL_CASES))
def test_tridiagonal_route_matches_eigh(case):
    matrix, ranks = TRIDIAGONAL_CASES[case]
    values_only = spectral._tridiagonal_system(spectral._symmetric_part(matrix), 0)
    assert values_only[1] is None
    assert np.array_equal(values_only[0], eigenvalues(matrix))
    for k in ranks[1:]:
        values, vectors = spectral._tridiagonal_system(spectral._symmetric_part(matrix), k)
        # every value from the same dsterf, whatever the vectors
        assert np.array_equal(values, values_only[0])
        assert vectors.shape == (matrix.shape[0], k)
        assert_leading_vectors(matrix, values, spectral._fix_signs(vectors))


@pytest.mark.parametrize("routine", ["dstemr", "dormqr"])
def test_mrrr_failure_falls_back_to_eigh(monkeypatch, one_worker, routine):
    # as LAPACK's dsyevr does, a date whose MRRR vectors fail is solved again
    # by another solver; the values stay those of the values-only solve
    panel, kernel = random_panel(n=20, length=30, n_dates=3, seed=13)
    series = covariance_stack(panel, kernel)
    expected = rolling_spectra(panel, kernel)
    original = getattr(_lapack, routine)
    calls = []

    def failing(*args):
        # what a failed call leaves in the arrays it was given is not to be read
        calls.append(routine)
        original(*args)
        for a in args:
            if isinstance(a, np.ndarray):
                a[...] = np.nan
        return 1

    monkeypatch.setattr(_lapack, routine, failing)
    kept = rolling_spectra(panel, kernel, n_vectors=2)
    assert len(calls) == 3
    assert np.array_equal(kept.values, expected.values)
    for t, mat in enumerate(series.matrices):
        assert_leading_vectors(mat, kept.values[t], kept.vectors[t])


def test_failure_of_every_solver_names_offending_date(monkeypatch):
    panel, kernel = random_panel(n=20, length=30, n_dates=3, seed=13)
    dstemr = _lapack.dstemr

    def failing(*args):
        dstemr(*args)
        return 1

    def eigh(matrix):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(_lapack, "dstemr", failing)
    monkeypatch.setattr(spectral.np.linalg, "eigh", eigh)
    first = panel.dates[29]
    with pytest.raises(AnalysisError, match=f"^spectral: at date '{first}'.*eigh failed") as err:
        rolling_spectra(panel, kernel, n_vectors=2)
    assert isinstance(err.value.__cause__, NumericalError)
    rolling_spectra(panel, kernel)  # values alone run neither


SPECTRA_CFG = """
ensemble.kind = one-factor
ensemble.assets = 60
ensemble.dates = 120
ensemble.beta = 0.5
ensemble.seed = 14
kernel.scheme = long-memory
kernel.length = 90
analyses = {analyses}
projectors.ranks = {ranks}
output.dir = {out}
"""


@pytest.mark.parametrize("ranks", ["1,2,6", "1,2,20"])
def test_spectra_do_not_depend_on_vectors_read(tmp_path, ranks):
    # the spectra files are the same bytes with or without the projectors
    # that read the vectors, for few vectors and for many
    bundles = {}
    for analyses in ("spectrum,density", "spectrum,density,projectors"):
        out = tmp_path / analyses.replace(",", "-")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SPECTRA_CFG.format(analyses=analyses, ranks=ranks, out=out))
        run_analysis(validate_config(str(cfg)))
        bundles[analyses] = {
            name: (out / name).read_bytes()
            for name in ("spectrum.csv", "mean_spectrum.csv", "density.csv")
        }
    assert bundles["spectrum,density"] == bundles["spectrum,density,projectors"]


def test_run_solves_its_own_matrices_unchecked(tmp_path, monkeypatch):
    # every main matrix is W W' or its correlation, exactly symmetric by
    # construction: the symmetry check is for matrices from outside
    checked = []

    def counted(matrix):
        checked.append(matrix.shape)
        return symmetric_part(matrix)

    symmetric_part = spectral._symmetric_part
    monkeypatch.setattr(spectral, "_symmetric_part", counted)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        SPECTRA_CFG.format(analyses="spectrum,density,mp-compare", ranks="1", out=tmp_path / "out")
        + "mp.q = 0.5\n"
    )
    run_analysis(validate_config(str(cfg)))
    assert checked == []


# ---------------------------------------------------------------- series


def test_series_of_identities():
    # returns 2 e_(t mod 4) under equal weights 1/4: every window W is a
    # permutation matrix, so W W' = I at each date
    returns = 2.0 * np.tile(np.eye(4), 2)[:, :6]
    panel = ReturnPanel(("a", "b", "c", "d"), make_business_dates(6), returns)
    spectra = rolling_spectra(panel, build_kernel("rectangular", 4))
    assert spectra.values == pytest.approx(np.ones((3, 4)))


def test_rank_deficient_date_has_zero_eigenvalue():
    spectra = rolling_spectra(*random_panel(n=4, length=3, n_dates=5, seed=3))
    assert np.all(spectra.values[:, -1] < 1e-12 * spectra.values[:, 0])


def test_trace_identity_on_wishart_series():
    panel, kernel = random_panel(n=10, length=50, n_dates=8, seed=4)
    series = covariance_stack(panel, kernel)
    spectra = rolling_spectra(panel, kernel)
    for row, mat in zip(spectra.values, series.matrices):
        trace = np.trace(mat)
        assert abs(row.sum() - trace) < 1e-10 * abs(trace)


def test_vectors_stored_on_request():
    panel, kernel = random_panel(n=5, length=10, n_dates=4, seed=5)
    series = covariance_stack(panel, kernel)
    with_vectors = rolling_spectra(panel, kernel, n_vectors=5)
    assert with_vectors.vectors is not None
    assert with_vectors.vectors.shape == (4, 5, 5)
    without = rolling_spectra(panel, kernel)
    assert without.vectors is None
    for k in (2, 5):
        leading = rolling_spectra(panel, kernel, n_vectors=k)
        assert leading.vectors.shape == (4, 5, k)
        # the values of the values-only solve, whatever number of vectors;
        # the vectors are a separate MRRR solve per k, checked by projector
        assert np.array_equal(leading.values, without.values)
        for t, mat in enumerate(series.matrices):
            assert_leading_vectors(mat, leading.values[t], leading.vectors[t])
    for bad in (-1, 6):
        with pytest.raises(ParameterError, match="n_vectors"):
            rolling_spectra(panel, kernel, n_vectors=bad)
    with pytest.raises(ParameterError, match="flavor"):
        rolling_spectra(panel, kernel, "covariances")


def test_kept_vectors_are_eigendecompose_columns():
    # signs are flipped on the kept columns only; each column's flip is its
    # own. Every eigenvalue here is well separated, so each kept column is
    # eigendecompose's to 1e-13, sign included.
    panel, kernel = random_panel(n=12, length=30, n_dates=5, seed=9)
    systems = [eigendecompose(m) for m in covariance_stack(panel, kernel).matrices]
    without = rolling_spectra(panel, kernel)
    for k in (1, 3, 12):
        kept = rolling_spectra(panel, kernel, n_vectors=k)
        assert np.array_equal(kept.values, without.values)
        for t, system in enumerate(systems):
            assert np.abs(kept.values[t] - system.values).max() <= 1e-13 * system.values[0]
            assert np.abs(kept.vectors[t] - system.vectors[:, :k]).max() < 1e-13


def test_values_only_spectra_match_eigendecompose():
    for seed, length in ((6, 30), (7, 5)):
        panel, kernel = random_panel(n=12, length=length, n_dates=20, seed=seed,
                                     kind="one-factor", beta=0.6)
        spectra = rolling_spectra(panel, kernel)
        for row, mat in zip(spectra.values, covariance_stack(panel, kernel).matrices):
            reference = eigendecompose(mat).values
            assert np.abs(row - reference).max() <= 1e-13 * reference[0]
            assert np.all(np.diff(row) <= 0)


def test_series_error_names_offending_date(monkeypatch, one_worker):
    panel, kernel = random_panel(n=3, length=5, n_dates=3, seed=7)
    dsterf = _lapack.dsterf
    for n_vectors in (0, 2):
        calls = []

        def failing(*args, calls=calls):
            calls.append(1)  # the second date's solve fails
            info = dsterf(*args)
            return 1 if len(calls) == 2 else info

        with monkeypatch.context() as patch:
            patch.setattr(_lapack, "dsterf", failing)
            with pytest.raises(AnalysisError) as err:
                rolling_spectra(panel, kernel, n_vectors=n_vectors)
        assert str(err.value) == (
            f"spectral: at date {panel.dates[5]!r}: dsterf failed for 3x3 matrix (info 1)"
        )
        assert isinstance(err.value.__cause__, NumericalError)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_rejected(value):
    with pytest.raises(NumericalError, match="non-finite"):
        eigenvalues(np.array([[value, 0.0], [0.0, 1.0]]))
    with pytest.raises(NumericalError, match="non-finite"):
        eigenvalues(np.array([[1.0, value], [value, 1.0]]))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_series_names_offending_date(value):
    panel, kernel = random_panel(n=3, length=5, n_dates=3, seed=8)
    panel.returns[1, 6] = value  # in the third date's window alone
    for n_vectors in (0, 1):
        with pytest.raises(AnalysisError) as err:
            rolling_spectra(panel, kernel, n_vectors=n_vectors)
        assert str(err.value) == f"moments: at date {panel.dates[6]!r}: non-finite returns"
        assert isinstance(err.value.__cause__, NumericalError)


def test_window_vectors_match_eigh_projectors():
    spec = EnsembleSpec("one-factor", 15, 60, beta=0.5, seed=9)
    returns = generate_returns(spec)
    for scheme, length in (("rectangular", 6), ("long-memory", 10)):
        kernel = build_kernel(scheme, length, tau0_days=60)
        series = covariance_stack(returns, kernel)
        k = 4
        vectors = window_vectors(weighted_windows(returns, kernel)[1], k)
        assert vectors.shape == (len(series.dates), 15, k)
        for t, mat in enumerate(series.matrices):
            eig = eigendecompose(mat)
            for j in range(1, k + 1):
                diff = projector(vectors[t, :, :j]) - projector(eig.vectors[:, :j])
                assert np.abs(diff).max() < 1e-12
            # same sign convention as eigendecompose
            lead = np.argmax(np.abs(vectors[t]), axis=0)
            assert np.all(vectors[t][lead, np.arange(k)] > 0)


def test_window_vectors_match_each_dates_covariance_eigenvectors():
    returns = generate_returns(EnsembleSpec("gaussian-iid", 8, 40, seed=10))
    kernel = build_kernel("rectangular", 5)
    dates = returns.dates[10:20:3]
    series = covariance_stack(returns, kernel, dates)
    idx = resolve_eval_indices(returns, kernel, dates)
    vectors = window_vectors(weighted_windows(returns, kernel, idx)[1], 2)
    for t, mat in enumerate(series.matrices):
        reference = projector(eigendecompose(mat).vectors[:, :2])
        assert np.abs(projector(vectors[t]) - reference).max() < 1e-12


def svd_vectors(windows, k):
    """The top-k left singular vectors of each window by numpy's thin SVD."""
    return np.array([np.linalg.svd(w, full_matrices=False)[0][:, :k] for w in windows])


def factor_windows(n, length, count, seed):
    """``count`` N x L windows of three factors, of well-separated strengths
    (3, 2 and 1.5), over a noise of 0.1."""
    rng = np.random.default_rng(seed)
    loadings = rng.standard_normal((count, n, 3)) * np.array([3.0, 2.0, 1.5])
    factors = rng.standard_normal((count, 3, length))
    return loadings @ factors + 0.1 * rng.standard_normal((count, n, length))


@pytest.mark.parametrize("n, length", [(40, 12), (12, 40), (16, 16)])
def test_window_vectors_match_svd_projectors(n, length):
    """The vectors from each window's smaller Gram, solved in batches of
    GRAM_BATCH_BYTES, give the projectors of the thin SVD's to 1e-13, for
    L < N, L > N and L = N, with the SVD's signs."""
    windows = factor_windows(n, length, 300, seed=n + length)
    assert len(windows) > spectral.GRAM_BATCH_BYTES // (8 * min(n, length) ** 2)
    vectors = window_vectors(windows, 3)
    reference = spectral._fix_signs(svd_vectors(windows, 3))
    for j in (1, 2, 3):
        got, want = vectors[:, :, :j], reference[:, :, :j]
        diff = got @ np.swapaxes(got, 1, 2) - want @ np.swapaxes(want, 1, 2)
        assert np.abs(diff).max() <= 1e-13, j
    assert np.abs(vectors - reference).max() <= 1e-12


def test_rank_deficient_window_takes_the_leading_system_route(monkeypatch):
    """A window with a zero return column has rank L - 1, so at k = L its
    lambda_k lies below GRAM_RANK_FLOOR times its lambda_1: its vectors come
    from ``leading_system`` of W W', finite and orthonormal, and its top
    L - 1 directions are the SVD's. The other windows keep the Gram route."""
    windows = np.random.default_rng(12).standard_normal((5, 30, 8))
    windows[2, :, 3] = 0.0
    solved = []
    leading_system = spectral.leading_system

    def counted(sym, k):
        solved.append(k)
        return leading_system(sym, k)

    monkeypatch.setattr(spectral, "leading_system", counted)
    vectors = window_vectors(windows, 8)
    assert solved == [8]
    assert np.array_equal(vectors[2], leading_system(windows[2] @ windows[2].T, 8)[1])
    assert np.isfinite(vectors).all()
    for v in vectors:
        assert np.abs(v.T @ v - np.eye(8)).max() <= 1e-13
    want = svd_vectors(windows[2:3], 7)[0]
    got = vectors[2, :, :7]
    assert np.abs(got @ got.T - want @ want.T).max() <= 1e-13


def test_window_vectors_rank_limited_by_window():
    returns = generate_returns(EnsembleSpec("gaussian-iid", 8, 40, seed=11))
    with pytest.raises(ParameterError, match="rank"):
        window_vectors(weighted_windows(returns, build_kernel("rectangular", 5))[1], 6)
    with pytest.raises(ParameterError, match="rank"):
        window_vectors(weighted_windows(returns, build_kernel("rectangular", 20))[1], 9)


def test_spectrum_series_refuses_a_vector_stack_of_the_wrong_shape():
    """Vectors beside T dates of N values are (T, N, k) with 1 <= k <= N."""
    dates, values = make_business_dates(2), np.ones((2, 4))
    rng = np.random.default_rng(12)
    assert SpectrumSeries(dates, values, rng.standard_normal((2, 4, 4))).vectors.shape == (2, 4, 4)
    for shape in ((3, 5, 2), (3, 4, 2), (2, 5, 2), (2, 4, 0), (2, 4, 5), (2, 4), (2, 4, 1, 1)):
        with pytest.raises(ParameterError, match="vector stack"):
            SpectrumSeries(dates, values, rng.standard_normal(shape))


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
    mean = log_mean_spectrum(spectra_from(values))
    assert mean.values[0] == pytest.approx(1.0)
    assert mean.counts[0] == 1


def test_rank_excluded_everywhere_is_nan():
    values = np.array([[1.0, 0.0], [2.0, 0.0]])
    mean = log_mean_spectrum(spectra_from(values))
    assert math.isnan(mean.values[1])
    assert mean.counts[1] == 0


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
    panel, kernel = random_panel(n=10, length=40, n_dates=12, seed=30)
    spectra = rolling_spectra(panel, kernel, "correlation")
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


def test_mp_density_of_an_array_of_q_equals_its_scalar_calls():
    qs = np.array([0.001, 0.2, 0.4825, 0.77, 1.0])
    grid = np.linspace(-0.5, 4.5, 401)
    out = mp_density(grid, qs[:, None])
    assert out.shape == (qs.size, grid.size)
    for row, q in zip(out, qs):
        assert row.tobytes() == mp_density(grid, float(q)).tobytes()
    lo, hi = mp_support(qs)
    np.testing.assert_allclose(np.transpose([lo, hi]), [mp_support(q) for q in qs], rtol=1e-15)
    assert isinstance(mp_density(1.0, 0.3), float)
    assert isinstance(mp_support(0.3)[0], float)


# q at which libm's pow(x, 2) and x * x round an edge apart: lo for the
# first two, hi for the third
@pytest.mark.parametrize("q", [0.06701641422735066, 0.27056694871529935, 0.3349781513924486])
def test_mp_support_and_density_of_a_scalar_q_have_its_array_bits(q):
    lo, hi = mp_support(q)
    arr_lo, arr_hi = mp_support(np.array([q]))
    assert (lo, hi) == (arr_lo[0], arr_hi[0])
    edges = np.array([lo, hi])
    lam = np.concatenate((edges, np.nextafter(edges, 0.0), np.nextafter(edges, 5.0), [1.0]))
    arr = mp_density(lam, np.array([q]))
    assert np.array([mp_density(float(x), q) for x in lam]).tobytes() == arr.tobytes()
    assert mp_density(lam, q).tobytes() == arr.tobytes()


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


def projected_rms(eps, fit, c):
    """rms residual of the linear least squares of ln eps on [1, x/(1-c x^4)]
    over the fit's ranks: the variable-projection objective at c."""
    lo, hi = fit.fit_range
    x = 0.5 - np.arange(lo, hi + 1) / fit.n_ranks
    y = np.log(eps[lo - 1 : hi])
    design = np.column_stack([np.ones_like(x), x / (1.0 - c * x**4)])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    return float(np.sqrt(np.mean((design @ coef - y) ** 2)))


def test_log_linear_spectrum_fits_no_quartic_term():
    for n, a, eps_mid in [(20, 3.0, 3.0), (100, 8.0, 1e-4), (150, 14.0, 0.6), (333, 0.5, 0.6)]:
        x = 0.5 - np.arange(1, n + 1) / n
        fit = fit_ansatz(np.exp(math.log(eps_mid) + a * x))
        assert fit.b == math.inf, (n, a, eps_mid)
        assert fit.a == pytest.approx(a, rel=1e-12)
        assert fit.eps_mid == pytest.approx(eps_mid, rel=1e-12)
        grid = np.geomspace(*fit.eps_range(), 50)
        curve = density_of_states_curve(fit, grid)
        assert np.all(curve.in_range)
        np.testing.assert_allclose(curve.density, 1.0 / (fit.a * grid), rtol=1e-12)


def test_fitted_curvature_minimises_the_projected_residual():
    rng = np.random.default_rng(17)
    eps = synthesize_spectrum(8.0, 1.1, 1e-4, 100) * np.exp(0.05 * rng.standard_normal(100))
    fit = fit_ansatz(eps)
    c = (2.0 / fit.b) ** 4
    assert 0.0 < c < 1.0 / 0.4**4
    at_c = projected_rms(eps, fit, c)
    assert at_c == pytest.approx(fit.rms_residual, rel=1e-12)
    for other in (c * (1.0 - 1e-6), c * (1.0 + 1e-6), 0.0):
        assert at_c <= projected_rms(eps, fit, other), other


def test_root_with_a_larger_residual_than_no_curvature_is_not_kept(monkeypatch):
    # a root of g that is a maximum of the residual (g can change sign more
    # than once) loses to c = 0; here the root finder is made to land next
    # to the singular end, where the residual is far above its value at 0
    eps = synthesize_spectrum(8.0, 1.1, 1e-4, 100)
    monkeypatch.setattr(spectral, "_bisect", lambda f, lo, hi, **kw: hi * (1.0 - 1e-6))
    fit = fit_ansatz(eps)
    assert fit.b == math.inf
    x = 0.5 - np.arange(11, 91) / 100
    assert fit.a == pytest.approx(np.polyfit(x, np.log(eps[10:90]), 1)[0], rel=1e-12)


def test_fit_is_insensitive_to_last_bit_noise():
    # The mean spectrum of a seeded long-memory run, whose fit has b near 1.24.
    # Relative noise of 1e-14 on it moves the variable-projection fit's a, b
    # and eps_mid by at most 2e-14 over these draws; the three-parameter TRF
    # solve it replaced moved b by 9e-10 and a by 3e-10. The 1e-12 bound
    # leaves rounding room for the former and must not be loosened.
    spec = EnsembleSpec("one-factor", 60, 159, beta=0.5, seed=3)
    kernel = build_kernel("long-memory", 120, tau0_days=1560)
    mean = log_mean_spectrum(rolling_spectra(generate_returns(spec), kernel))
    base = fit_ansatz(mean)
    assert 1.0 < base.b < 2.0
    rng = np.random.default_rng(2024)
    for _ in range(20):
        noisy = fit_ansatz(mean.values * (1.0 + 1e-14 * rng.standard_normal(mean.n_ranks)))
        assert noisy.a == pytest.approx(base.a, rel=1e-12, abs=0.0)
        assert noisy.b == pytest.approx(base.b, rel=1e-12, abs=0.0)
        assert noisy.eps_mid == pytest.approx(base.eps_mid, rel=1e-12, abs=0.0)


def test_fit_errors_name_the_failed_shape():
    # flat but for one low rank at the end of the range: the residual falls
    # all the way to the singular curvature b = max|2x|
    eps = np.ones(100)
    eps[89] = math.exp(-1.0)
    with pytest.raises(FitError, match="singular curvature") as failed:
        fit_ansatz(eps)
    assert failed.value.best_params[1] == pytest.approx(0.8, rel=1e-8)
    # a rising spectrum has no positive decay scale a
    with pytest.raises(FitError, match="singular curvature") as failed:
        fit_ansatz(synthesize_spectrum(8.0, 1.1, 1e-4, 100)[::-1])
    assert failed.value.best_params[0] < 0.0


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
