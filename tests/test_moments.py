import numpy as np
import pytest

from covspec import (
    AssetSpec,
    ReturnPanel,
    WeightKernel,
    build_kernel,
    dump_matrices,
    make_business_dates,
    rolling_covariance,
    to_correlation,
)
from covspec.errors import (
    DegenerateAssetError,
    InsufficientDataError,
    NumericalError,
    ParameterError,
)
from covspec.moments import unit_rows, weighted_windows
from testutil import random_covariance_series


def panel_from(returns):
    returns = np.asarray(returns, dtype=float)
    n, t = returns.shape
    assets = tuple(AssetSpec(f"a{i}") for i in range(n))
    return ReturnPanel(assets, make_business_dates(t), returns)


def test_constant_single_asset_any_kernel():
    panel = panel_from(np.full((1, 40), 0.02))
    for kernel in (
        build_kernel("rectangular", 10),
        build_kernel("exponential", 10, mu=0.7),
        build_kernel("long-memory", 10, tau0_days=100),
    ):
        series = rolling_covariance(panel, kernel)
        assert series.matrices == pytest.approx(
            np.full((31, 1, 1), 0.0004), abs=1e-16
        )


def test_identical_columns_give_rank_one():
    base = np.random.default_rng(0).standard_normal(30)
    panel = panel_from(np.vstack([base, base]))
    series = rolling_covariance(panel, build_kernel("rectangular", 10))
    for mat in series.matrices:
        assert mat[0, 1] == pytest.approx(mat[0, 0], rel=1e-14)
        eigs = np.linalg.eigvalsh(mat)
        assert abs(eigs[0]) < 1e-12 * eigs[-1]


def test_short_window_is_rank_deficient():
    rng = np.random.default_rng(1)
    panel = panel_from(rng.standard_normal((3, 20)))
    series = rolling_covariance(panel, build_kernel("rectangular", 2))
    for mat in series.matrices:
        eigs = np.linalg.eigvalsh(mat)
        assert eigs[0] < 1e-12 * eigs[-1]


def test_insufficient_history_names_first_feasible_date():
    panel = panel_from(np.random.default_rng(2).standard_normal((2, 30)))
    kernel = build_kernel("rectangular", 10)
    first_feasible = panel.dates[9]
    with pytest.raises(InsufficientDataError, match=first_feasible):
        rolling_covariance(panel, kernel, [panel.dates[3]])


def test_window_shorter_than_kernel_rejected():
    panel = panel_from(np.random.default_rng(2).standard_normal((2, 5)))
    with pytest.raises(InsufficientDataError):
        rolling_covariance(panel, build_kernel("rectangular", 10))


def test_eval_date_range_and_explicit_list():
    panel = panel_from(np.random.default_rng(3).standard_normal((2, 30)))
    kernel = build_kernel("rectangular", 10)
    full = rolling_covariance(panel, kernel)
    ranged = rolling_covariance(panel, kernel, panel.dates[12:16])
    assert ranged.dates == panel.dates[12:16]
    listed = rolling_covariance(panel, kernel, [panel.dates[12], panel.dates[15]])
    assert listed.dates == (panel.dates[12], panel.dates[15])
    j = full.dates.index(panel.dates[12])
    assert np.array_equal(ranged.matrices[0], full.matrices[j])


def test_two_date_tuple_is_two_dates_not_a_range():
    panel = panel_from(np.random.default_rng(3).standard_normal((2, 30)))
    kernel = build_kernel("rectangular", 10)
    pair = (panel.dates[12], panel.dates[15])
    series = rolling_covariance(panel, kernel, pair)
    assert series.dates == pair
    full = rolling_covariance(panel, kernel)
    assert np.array_equal(series.matrices[1], full.matrices[full.dates.index(pair[1])])


def test_empty_eval_dates_rejected():
    panel = panel_from(np.random.default_rng(3).standard_normal((2, 30)))
    with pytest.raises(ParameterError, match="no evaluation dates"):
        rolling_covariance(panel, build_kernel("rectangular", 5), [])


def test_unknown_eval_date_rejected():
    panel = panel_from(np.random.default_rng(3).standard_normal((2, 30)))
    with pytest.raises(ParameterError, match="2222-01-01"):
        rolling_covariance(panel, build_kernel("rectangular", 5), ["2222-01-01"])


def test_scaling_returns_scales_covariance_quadratically():
    rng = np.random.default_rng(4)
    raw = rng.standard_normal((4, 60))
    kernel = build_kernel("exponential", 20, mu=0.9)
    base = rolling_covariance(panel_from(raw), kernel)
    scaled = rolling_covariance(panel_from(3.0 * raw), kernel)
    assert scaled.matrices == pytest.approx(9.0 * base.matrices, rel=1e-12)
    corr_base = to_correlation(base)
    corr_scaled = to_correlation(scaled)
    assert corr_scaled.matrices == pytest.approx(corr_base.matrices, abs=1e-12)


def outer_product_sums(panel, kernel):
    """sum_i lambda(i) r(t-i) r(t-i)' at every feasible date, by einsum."""
    windows = np.lib.stride_tricks.sliding_window_view(panel.returns, kernel.length, axis=1)
    lagged = windows[:, :, ::-1]  # (N, dates, lag)
    return np.einsum("i,ati,bti->tab", kernel.weights, lagged, lagged)


def relative_error_per_date(series, reference):
    diff = np.abs(series.matrices - reference).max(axis=(1, 2))
    return diff / np.abs(reference).max(axis=(1, 2))


@pytest.mark.parametrize(
    "scheme,kwargs",
    [
        ("rectangular", {}),
        ("exponential", {"mu": 0.94}),
        ("long-memory", {"tau0_days": 360}),
    ],
)
def test_covariance_matches_outer_product_sum(scheme, kwargs):
    rng = np.random.default_rng(5)
    panel = panel_from(rng.standard_normal((5, 400)))
    kernel = build_kernel(scheme, 60, **kwargs)
    series = rolling_covariance(panel, kernel)
    reference = outer_product_sums(panel, kernel)
    assert series.dates == panel.dates[59:]
    assert relative_error_per_date(series, reference).max() <= 1e-12


@pytest.mark.parametrize(
    "scheme,kwargs",
    [("rectangular", {}), ("exponential", {"mu": 0.97})],
)
def test_volatility_drop_leaves_no_residue(scheme, kwargs):
    # A 1000x volatility drop mid-sample: each date after it must be as
    # accurate, relative to its own scale, as the dates before it.
    rng = np.random.default_rng(17)
    returns = rng.standard_normal((5, 1000))
    returns[:, 500:] *= 1e-3
    panel = panel_from(returns)
    kernel = build_kernel(scheme, 60, **kwargs)
    series = rolling_covariance(panel, kernel)
    reference = outer_product_sums(panel, kernel)
    assert relative_error_per_date(series, reference).max() <= 1e-12


def test_correlation_of_diagonal_covariance_is_identity():
    series = random_covariance_series(n=2, length=5, n_dates=1, seed=8)
    mats = series.matrices.copy()
    mats[0] = np.diag([4.0, 9.0])
    diag_series = type(series)(
        series.flavor, series.dates, mats, series.kernel, series.assets
    )
    corr = to_correlation(diag_series)
    assert corr.matrices[0] == pytest.approx(np.eye(2), abs=1e-15)


def test_correlation_known_two_by_two():
    series = random_covariance_series(n=2, length=5, n_dates=1, seed=9)
    mats = series.matrices.copy()
    mats[0] = np.array([[4.0, 2.0], [2.0, 4.0]])
    fixed = type(series)(
        series.flavor, series.dates, mats, series.kernel, series.assets
    )
    corr = to_correlation(fixed)
    assert corr.matrices[0] == pytest.approx(
        np.array([[1.0, 0.5], [0.5, 1.0]]), abs=1e-15
    )


def test_perfectly_correlated_panel():
    base = np.random.default_rng(10).standard_normal(40)
    panel = panel_from(np.vstack([base, base, base]))
    corr = to_correlation(rolling_covariance(panel, build_kernel("rectangular", 20)))
    for mat in corr.matrices:
        assert mat == pytest.approx(np.ones((3, 3)), abs=1e-12)
        eigs = np.linalg.eigvalsh(mat)
        assert eigs[-1] == pytest.approx(3.0, abs=1e-9)


def test_degenerate_asset_names_asset_and_date():
    rng = np.random.default_rng(11)
    returns = rng.standard_normal((3, 30))
    returns[1] = 0.0
    panel = panel_from(returns)
    series = rolling_covariance(panel, build_kernel("rectangular", 10))
    with pytest.raises(DegenerateAssetError, match="a1.*" + series.dates[0]):
        to_correlation(series)


def outer_products(windows):
    return windows @ np.transpose(windows, (0, 2, 1))


@pytest.mark.parametrize(
    "scheme,kwargs",
    [
        ("rectangular", {}),
        ("exponential", {"mu": 0.94}),
        ("long-memory", {"tau0_days": 360}),
    ],
)
def test_window_products_match_covariance_and_correlation(scheme, kwargs):
    rng = np.random.default_rng(6)
    panel = panel_from(rng.standard_normal((5, 200)) * [[1e-3], [1], [10], [1], [1]])
    kernel = build_kernel(scheme, 60, **kwargs)
    eval_dates = panel.dates[80:120:3]
    series = rolling_covariance(panel, kernel, eval_dates)
    dates, windows = weighted_windows(panel, kernel, eval_dates)
    assert dates == series.dates
    assert windows.shape == (len(dates), 5, 60)
    assert relative_error_per_date(series, outer_products(windows)).max() <= 1e-12
    units = unit_rows(windows, dates, panel.asset_ids)
    corr = to_correlation(series).matrices
    assert np.abs(outer_products(units) - corr).max() <= 1e-12


def test_unit_rows_refuse_a_degenerate_asset_like_to_correlation():
    rng = np.random.default_rng(11)
    returns = rng.standard_normal((3, 30))
    returns[1, 12:25] = 0.0
    panel = panel_from(returns)
    kernel = build_kernel("rectangular", 10)
    with pytest.raises(DegenerateAssetError) as want:
        to_correlation(rolling_covariance(panel, kernel))
    dates, windows = weighted_windows(panel, kernel)
    with pytest.raises(DegenerateAssetError) as got:
        unit_rows(windows, dates, panel.asset_ids)
    assert str(got.value) == str(want.value)
    assert "'a1'" in str(got.value) and repr(panel.dates[21]) in str(got.value)


def test_windows_refuse_negative_weights_and_non_finite_returns():
    rng = np.random.default_rng(12)
    returns = rng.standard_normal((3, 30))
    panel = panel_from(returns)
    signed = WeightKernel("custom", [0.6, 0.6, -0.2], {})
    with pytest.raises(ParameterError, match="non-negative"):
        weighted_windows(panel, signed)
    returns[2, 17] = np.nan
    with pytest.raises(NumericalError, match=repr(panel.dates[17])):
        weighted_windows(panel_from(returns), build_kernel("rectangular", 5))


def test_correlation_trace_is_exactly_n():
    corr = to_correlation(random_covariance_series(n=7, length=30, n_dates=10, seed=12))
    for mat in corr.matrices:
        assert abs(np.trace(mat) - 7.0) < 1e-12
        assert np.array_equal(mat, mat.T)
        assert np.abs(mat).max() <= 1.0


def test_covariance_is_symmetric_psd():
    series = random_covariance_series(n=6, length=40, n_dates=12, seed=13)
    for mat in series.matrices:
        assert np.array_equal(mat, mat.T)
        eigs = np.linalg.eigvalsh(mat)
        assert eigs[0] >= -1e-10 * max(eigs[-1], 1e-300)


def test_dump_matrices_lower_triangle(tmp_path):
    series = random_covariance_series(n=3, length=10, n_dates=2, seed=14)
    names = dump_matrices(series, tmp_path)
    assert len(names) == 2
    lines = (tmp_path / names[0]).read_text().strip().splitlines()
    assert len(lines) == 3
    parsed = [np.array([float(v) for v in line.split(",")]) for line in lines]
    mat = series.matrices[0]
    for i, row in enumerate(parsed):
        assert row == pytest.approx(mat[i, : i + 1], rel=1e-15)


def test_dump_matrices_bytes_match_per_value_formatting(tmp_path):
    rng = np.random.default_rng(15)
    stack = rng.standard_normal((2, 6, 6)) * 10.0 ** rng.integers(-300, 300, (2, 6, 6))
    stack = (stack + np.transpose(stack, (0, 2, 1))) / 2.0
    for i, j, v in ((0, 0, -0.0), (1, 0, 5e-324), (1, 1, 1e300), (2, 0, 1.0)):
        stack[0, i, j] = stack[0, j, i] = v
    series = random_covariance_series(n=6, length=10, n_dates=2, seed=16)
    series = type(series)(series.flavor, series.dates, stack, series.kernel, series.assets)
    names = dump_matrices(series, tmp_path)
    for t, name in enumerate(names):
        expected = "".join(
            ",".join(f"{v:.17g}" for v in stack[t, i, : i + 1]) + "\n" for i in range(6)
        )
        assert (tmp_path / name).read_bytes() == expected.encode()
    first = (tmp_path / names[0]).read_text().splitlines()
    assert first[0] == "-0"
    assert first[1] == "4.9406564584124654e-324,1.0000000000000001e+300"
    assert first[2].split(",")[0] == "1"
