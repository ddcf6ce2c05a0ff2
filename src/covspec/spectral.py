"""Eigen-spectra of matrix series, spectral densities, and the spectrum fit.

Covers the per-date eigendecomposition (values only where no vectors are
read), descending spectrum series, leading eigenvectors of rolling
covariances from the thin SVD of their return windows, the geometric
(logarithmic) mean spectrum, histogram spectral densities, the
Marchenko-Pastur reference density, the three-parameter parametric fit of
the log spectrum

    ln eps(alpha) = ln eps_mid + a*x / (1 - (2x/b)**4),   x = 1/2 - alpha/N,

and the density-of-states curve it implies, whose leading term is
1/(a*eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, least_squares, minimize_scalar

from .errors import (
    ContractViolationError,
    CovspecError,
    FitError,
    NumericalError,
    ParameterError,
)
from .moments import CORRELATION, CovarianceSeries

SYMMETRY_RTOL = 1e-10
DEFAULT_BIN_COUNT = 60
MP_Q_BOUNDS = (1e-3, 1.0)


@dataclass(frozen=True)
class EigenSystem:
    """Descending eigenvalues with orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def size(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SpectrumSeries:
    """Per-date descending spectra, optionally with the eigenvector bases."""

    dates: tuple[str, ...]
    values: np.ndarray
    vectors: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ParameterError(f"spectrum stack must be (T,N), got {values.shape}")
        if values.shape[0] != len(self.dates):
            raise ParameterError(f"{len(self.dates)} dates but {values.shape[0]} rows")

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MeanSpectrum:
    """Per-rank geometric mean eigenvalues with inclusion counts.

    Ranks excluded at every date carry NaN, never zero.
    """

    values: np.ndarray
    counts: np.ndarray

    @property
    def n_ranks(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class DensityHistogram:
    """Binned eigenvalue density normalized against the full eigenvalue count.

    The densities integrate to the included fraction; eigenvalues outside the
    bin range are tallied in ``n_excluded``.
    """

    centers: np.ndarray
    widths: np.ndarray
    densities: np.ndarray
    n_excluded: int
    n_total: int

    @property
    def included_fraction(self) -> float:
        return 1.0 - self.n_excluded / self.n_total


@dataclass(frozen=True)
class DensityBins:
    """Binning request: linear or logarithmic grid over [lo, hi]."""

    scale: str = "linear"
    lo: float = 0.0
    hi: float = 1.0
    count: int = DEFAULT_BIN_COUNT

    def edges(self) -> np.ndarray:
        if self.scale not in ("linear", "logarithmic"):
            raise ParameterError(f"unknown bin scale {self.scale!r}")
        if self.count < 1:
            raise ParameterError(f"bin count must be >= 1, got {self.count}")
        if not self.hi > self.lo:
            raise ParameterError(
                f"bin range [{self.lo}, {self.hi}] has no positive measure"
            )
        if self.scale == "linear":
            return np.linspace(self.lo, self.hi, self.count + 1)
        if self.lo <= 0:
            raise ParameterError("logarithmic bins need lo > 0")
        edges = np.geomspace(self.lo, self.hi, self.count + 1)
        edges[0], edges[-1] = self.lo, self.hi
        return edges


@dataclass(frozen=True)
class AnsatzFit:
    """Fitted parameters of the parametric log-spectrum shape.

    ``a`` is the central log slope scale, ``b`` the quartic end curvature,
    ``eps_mid`` the mid-spectrum eigenvalue scale.
    """

    a: float
    b: float
    eps_mid: float
    rms_residual: float
    fit_range: tuple[int, int]
    n_ranks: int

    def log_eps(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = (2.0 * x / self.b) ** 4
        return np.log(self.eps_mid) + self.a * x / (1.0 - u)

    def x_range(self) -> tuple[float, float]:
        lo, hi = self.fit_range
        return 0.5 - hi / self.n_ranks, 0.5 - lo / self.n_ranks

    def eps_range(self) -> tuple[float, float]:
        x_lo, x_hi = self.x_range()
        return float(np.exp(self.log_eps(x_lo))), float(np.exp(self.log_eps(x_hi)))


@dataclass(frozen=True)
class DensityCurve:
    """Density-of-states values on a grid; out-of-range points are NaN."""

    eps: np.ndarray
    density: np.ndarray
    in_range: np.ndarray


def _symmetric_part(matrix) -> np.ndarray:
    """(M + M')/2 of a square, finite matrix symmetric within 1e-10 relative."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ContractViolationError(f"expected a square matrix, got {matrix.shape}")
    scale = float(np.abs(matrix).max())
    if not math.isfinite(scale):
        raise NumericalError(f"matrix has non-finite entries (max |entry| {scale})")
    asym = float(np.abs(matrix - matrix.T).max())
    if asym > SYMMETRY_RTOL * max(scale, 1e-300):
        raise ContractViolationError(
            f"matrix is not symmetric: max asymmetry {asym:.3e} vs scale {scale:.3e}"
        )
    return (matrix + matrix.T) / 2.0


def _solve(solver, matrix: np.ndarray, **options):
    """Run a LAPACK solver, turning its failure into NumericalError."""
    try:
        return solver(matrix, **options)
    except np.linalg.LinAlgError as exc:
        rows, cols = matrix.shape
        raise NumericalError(
            f"{solver.__name__} failed for {rows}x{cols} matrix "
            f"(fro norm {np.linalg.norm(matrix):.3e}): {exc}"
        ) from exc


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude component is positive."""
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def eigendecompose(matrix) -> EigenSystem:
    """Descending eigendecomposition with a deterministic sign convention.

    Each eigenvector is flipped so its largest-magnitude component is
    positive. The input must be finite and symmetric within 1e-10 relative.
    """
    return _leading_system(matrix, None)


def _leading_system(matrix, k: int | None) -> EigenSystem:
    """``eigendecompose`` keeping only the top k vectors (all for None): the
    sign flip is per column, so it runs on the kept columns alone."""
    values, vectors = _solve(np.linalg.eigh, _symmetric_part(matrix))
    return EigenSystem(np.ascontiguousarray(values[::-1]), _fix_signs(vectors[:, ::-1][:, :k]))


def eigenvalues(matrix) -> np.ndarray:
    """Descending eigenvalues alone, under the checks of ``eigendecompose``."""
    return np.ascontiguousarray(_solve(np.linalg.eigvalsh, _symmetric_part(matrix))[::-1])


def spectrum_series(series: CovarianceSeries, n_vectors: int = 0) -> SpectrumSeries:
    """Spectrum of every matrix of the series, with its top ``n_vectors``
    eigenvectors per date.

    With ``n_vectors`` 0 only the eigenvalues are solved for; otherwise the
    full eigendecomposition runs and the leading columns are kept, giving a
    (T, N, n_vectors) vector stack.
    """
    t_len, n = len(series), series.n_assets
    if not 0 <= n_vectors <= n:
        raise ParameterError(f"n_vectors={n_vectors} outside [0, {n}]")
    values = np.empty((t_len, n))
    vectors = np.empty((t_len, n, n_vectors)) if n_vectors else None
    for t in range(t_len):
        try:
            if n_vectors:
                system = _leading_system(series.matrices[t], n_vectors)
                values[t] = system.values
                vectors[t] = system.vectors
            else:
                values[t] = eigenvalues(series.matrices[t])
        except CovspecError as exc:
            raise type(exc)(f"at date {series.dates[t]!r}: {exc}") from exc
    return SpectrumSeries(series.dates, values, vectors)


def window_vectors(windows: np.ndarray, k: int) -> np.ndarray:
    """Top-k left singular vectors of each N x L window, shape (T, N, k): for
    the windows W of ``moments.weighted_windows``, the leading eigenvectors of
    W W' without forming it. Signs follow ``eigendecompose``."""
    t_len, n, length = windows.shape
    if not 1 <= k <= min(n, length):
        raise ParameterError(f"rank k={k} outside [1, {min(n, length)}]")
    out = np.empty((t_len, n, k))
    for t, window in enumerate(windows):
        left = _solve(np.linalg.svd, window, full_matrices=False)[0]
        out[t] = _fix_signs(left[:, :k])
    return out


def log_mean_spectrum(series: SpectrumSeries, floor: float | None = None) -> MeanSpectrum:
    """Geometric mean of each rank over the dates where it clears the floor.

    ``floor`` is an absolute threshold; None uses the per-date relative
    default 1e-12 times the date's top eigenvalue.
    """
    if len(series) < 1:
        raise ParameterError("empty spectrum series")
    vals = series.values
    if floor is None:
        thresh = 1e-12 * vals[:, :1]
    else:
        if floor <= 0:
            raise ParameterError(f"floor must be > 0, got {floor!r}")
        thresh = np.full_like(vals, floor)
    mask = vals > thresh
    counts = mask.sum(axis=0)
    logs = np.where(mask, np.log(np.where(mask, vals, 1.0)), 0.0)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, np.exp(logs.sum(axis=0) / np.maximum(counts, 1)), np.nan)
    return MeanSpectrum(means, counts)


def spectral_density(series: SpectrumSeries, bins: DensityBins) -> DensityHistogram:
    """Histogram density of all eigenvalues, time- and rank-averaged.

    Eigenvalues outside the bin range are counted as excluded, so the
    densities integrate to the included fraction.
    """
    if len(series) < 1 or series.values.size == 0:
        raise ParameterError("empty spectrum series")
    edges = bins.edges()
    values = series.values.ravel()
    counts, _ = np.histogram(values, bins=edges)
    widths = np.diff(edges)
    centers = (edges[:-1] + edges[1:]) / 2.0
    total = values.size
    densities = counts / (total * widths)
    return DensityHistogram(centers, widths, densities, int(total - counts.sum()), total)


def default_density_bins(
    series: SpectrumSeries,
    flavor: str,
    count: int = DEFAULT_BIN_COUNT,
    scale: str | None = None,
) -> DensityBins:
    """Binning defaults: linear on [0, 1.05*max] for correlation spectra,
    logarithmic from the smallest resolvable eigenvalue for covariance.
    ``scale`` forces one of the two grids."""
    vmax = float(series.values.max())
    if vmax <= 0:
        raise ParameterError("spectrum has no positive eigenvalues to bin")
    if scale is None:
        scale = "linear" if flavor == CORRELATION else "logarithmic"
    if scale == "linear":
        return DensityBins("linear", 0.0, 1.05 * vmax, count)
    positive = series.values[series.values > 1e-12 * vmax]
    return DensityBins("logarithmic", float(positive.min()), 1.05 * vmax, count)


def mp_support(q: float) -> tuple[float, float]:
    """Support edges [(1-sqrt(q))^2, (1+sqrt(q))^2] of the M-P density."""
    if not 0.0 < q <= 1.0:
        raise ParameterError(f"q must be in (0, 1], got {q!r}")
    root = math.sqrt(q)
    return (1.0 - root) ** 2, (1.0 + root) ** 2


def mp_density(lam, q: float):
    """Marchenko-Pastur density sqrt(4*lam*q - (lam+q-1)^2) / (2*pi*lam*q).

    Zero outside the support; scalar in, scalar out.
    """
    lo, hi = mp_support(q)
    lam_arr = np.asarray(lam, dtype=float)
    out = np.zeros_like(lam_arr)
    radicand = 4.0 * lam_arr * q - (lam_arr + q - 1.0) ** 2
    inside = (lam_arr > lo) & (lam_arr < hi) & (radicand > 0.0)
    out[inside] = np.sqrt(radicand[inside]) / (2.0 * np.pi * q * lam_arr[inside])
    if np.isscalar(lam) or np.ndim(lam) == 0:
        return float(out)
    return out


def fit_mp_q(hist: DensityHistogram) -> float:
    """Least-squares fit of the M-P ratio q to a binned density."""
    def loss(q: float) -> float:
        return float(np.sum((hist.densities - mp_density(hist.centers, q)) ** 2))

    res = minimize_scalar(loss, bounds=MP_Q_BOUNDS, method="bounded",
                          options={"xatol": 1e-8})
    return float(res.x)


def default_fit_range(n_ranks: int) -> tuple[int, int]:
    """Central 80% of ranks: the quartic term models the excluded ends."""
    lo = int(math.floor(0.1 * n_ranks)) + 1
    hi = int(math.ceil(0.9 * n_ranks))
    return lo, hi


def fit_ansatz(mean_spectrum, fit_range: tuple[int, int] | None = None) -> AnsatzFit:
    """Least-squares fit of (a, b, ln eps_mid) to a per-rank mean spectrum.

    Non-positive or NaN ranks inside the range are dropped. Raises FitError
    when the solver fails or when the fitted curvature b does not exceed
    max|2x| over the range (the shape is singular there).
    """
    values = np.asarray(getattr(mean_spectrum, "values", mean_spectrum), dtype=float)
    n = values.size
    if n < 8:
        raise ParameterError(f"need at least 8 ranks to fit, got {n}")
    if fit_range is None:
        fit_range = default_fit_range(n)
    lo, hi = fit_range
    if not (1 <= lo < hi <= n):
        raise ParameterError(f"fit range {fit_range} not within ranks 1..{n}")

    ranks = np.arange(lo, hi + 1)
    vals = values[lo - 1 : hi]
    good = np.isfinite(vals) & (vals > 0.0)
    if good.sum() < 4:
        raise ParameterError(
            f"only {int(good.sum())} usable ranks in fit range {fit_range}"
        )
    x = 0.5 - ranks[good] / n
    y = np.log(vals[good])
    max2x = float(np.max(np.abs(2.0 * x)))

    def residuals(p):
        a, b, ln_mid = p
        u = (2.0 * x / b) ** 4
        return ln_mid + a * x / (1.0 - u) - y

    def jacobian(p):
        a, b, _ = p
        u = (2.0 * x / b) ** 4
        denom = 1.0 - u
        jac = np.empty((x.size, 3))
        jac[:, 0] = x / denom
        jac[:, 1] = -4.0 * a * x * u / (b * denom**2)
        jac[:, 2] = 1.0
        return jac

    # Slope of ln eps vs rank at the center is -a/N.
    central = np.argsort(np.abs(x))[: max(4, x.size // 5)]
    slope = np.polyfit(ranks[good][central], y[central], 1)[0]
    a0 = max(-slope * n, 0.1)
    b0 = max(1.2, max2x * 1.25)
    ln_mid0 = float(np.interp(0.0, x[::-1], y[::-1]))

    b_min = max2x * (1.0 + 1e-9)
    result = least_squares(
        residuals,
        np.array([a0, b0, ln_mid0]),
        jac=jacobian,
        method="trf",
        bounds=([1e-12, b_min, -np.inf], [np.inf, np.inf, np.inf]),
        xtol=1e-10,
        ftol=1e-14,
        gtol=1e-14,
    )
    rms = float(np.sqrt(np.mean(result.fun**2)))
    if result.status <= 0:
        raise FitError(
            f"spectrum fit did not converge: {result.message}",
            best_params=result.x,
            residual=rms,
        )
    a, b, ln_mid = result.x
    if b <= max2x * (1.0 + 1e-8):
        raise FitError(
            f"fitted curvature b={b:.6g} does not exceed max|2x|={max2x:.6g} "
            "over the fit range",
            best_params=result.x,
            residual=rms,
        )
    return AnsatzFit(float(a), float(b), float(np.exp(ln_mid)), rms, (lo, hi), n)


def density_of_states_curve(fit: AnsatzFit, eps_grid) -> DensityCurve:
    """Density of states implied by the fitted spectrum shape.

    Inverts the fitted curve at each grid point and evaluates the exact
    derivative, (1-u)^2 / (a * eps * (1+3u)) with u = (2x/b)^4; the b->inf
    limit is the scale-free leading term 1/(a*eps). Points outside the
    fitted eigenvalue range are flagged and left NaN.
    """
    eps_grid = np.atleast_1d(np.asarray(eps_grid, dtype=float))
    eps_lo, eps_hi = fit.eps_range()
    x_lo, x_hi = fit.x_range()
    density = np.full(eps_grid.shape, np.nan)
    in_range = (eps_grid >= eps_lo) & (eps_grid <= eps_hi)

    ln_mid = math.log(fit.eps_mid)

    def shape(xv: float) -> float:
        return fit.a * xv / (1.0 - (2.0 * xv / fit.b) ** 4)

    shape_lo, shape_hi = shape(x_lo), shape(x_hi)
    for i in np.nonzero(in_range)[0]:
        target = math.log(eps_grid[i]) - ln_mid
        # rounding of exp/log can push boundary targets a ulp outside
        if target <= shape_lo:
            xv = x_lo
        elif target >= shape_hi:
            xv = x_hi
        else:
            xv = brentq(lambda t: shape(t) - target, x_lo, x_hi, xtol=1e-14, rtol=1e-15)
        u = (2.0 * xv / fit.b) ** 4
        density[i] = (1.0 - u) ** 2 / (fit.a * eps_grid[i] * (1.0 + 3.0 * u))
    return DensityCurve(eps_grid, density, in_range)
