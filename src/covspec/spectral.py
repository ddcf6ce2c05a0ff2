"""Eigen-spectra of matrix series, spectral densities, and the spectrum fit.

Covers the eigendecomposition of one symmetric matrix (values only where no
vectors are read, and only the kept vectors where some are), the number of
its eigenvalues at or below given points by Sturm counts, which solve for no
eigenvalue (``eigenvalue_counts``), the series of descending spectra the
runner's main stage solves one date at a time (``runner.rolling_spectra``),
leading eigenvectors of rolling covariances from the Gram matrices of their
return windows, the geometric (logarithmic) mean spectrum, histogram
spectral densities of values or of counts at the bin edges
(``counted_density``), the Marchenko-Pastur reference density, the
three-parameter parametric fit of the log spectrum

    ln eps(alpha) = ln eps_mid + a*x / (1 - (2x/b)**4),   x = 1/2 - alpha/N,

and the density-of-states curve it implies, whose leading term is
1/(a*eps). ln eps_mid and a enter the fit linearly, so it searches
c = (2/b)**4 alone (variable projection, Golub & Pereyra 1973).

The fit's c and the inversion of the fitted curve are found by bisection
(``_bisect``), all grid points of the curve in one call; the M-P q is the
best point of a fixed grid refined by golden sections (``_grid_minimum``).
Neither needs ``scipy.optimize``, whose import would cost every covspec
process about 0.24 s and 21 MB of peak resident memory (x86-64 Linux, SciPy
1.17). For the same reason the tridiagonal route calls its five LAPACK
routines (dsytrd, dsterf, dstemr, dormqr, dlaebz) through ``_lapack``, a ctypes
binding to the OpenBLAS numpy's wheels bundle, not through
``scipy.linalg.lapack``, whose wrappers of the first four return the same
bits (it wraps no dlaebz).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import (
    ContractViolationError,
    FitError,
    NumericalError,
    ParameterError,
)
from .moments import CORRELATION

SYMMETRY_RTOL = 1e-10
DEFAULT_BIN_COUNT = 60
MP_Q_BOUNDS = (1e-3, 1.0)
# fit_mp_q's grid steps over MP_Q_BOUNDS. The loss can have several local
# minima. On 180 correlation histograms (Gaussian, Student and one-factor
# panels, N = 10..60, 300 and 600 dates, three kernel schemes, bins over the
# M-P support of N/T_eff or over the whole spectrum) the fit missed the best
# point of a 200001-point grid in 5 cases, by up to 5.3% in loss, with 250
# steps; with 1000 steps in 1 case, by 4.0e-5, as with 4000.
MP_Q_GRID_STEPS = 1000
# window_vectors takes a window's vectors from its L x L Gram as
# V = W U_k Lambda_k^(-1/2), whose columns depart from orthonormal by about
# 2.2e-16 lambda_1 / lambda_k. With lambda_k at 1e-4 lambda_1 its projectors
# agreed with the thin SVD's to 5.4e-14 (20 random 150 x 21 windows); a
# window at or below that share, a rank-deficient one among them, is solved
# from W W' instead.
GRAM_RANK_FLOOR = 1e-4
# bounds the Grams and eigenvectors window_vectors holds at once
GRAM_BATCH_BYTES = 2**16


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
        shape = np.shape(self.vectors)
        if self.vectors is not None and not (
            len(shape) == 3 and shape[:2] == values.shape and 1 <= shape[2] <= shape[1]
        ):
            raise ParameterError(f"vector stack must be (T,N,k) with 1 <= k <= N, got {shape}")

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MeanSpectrum:
    """Per-rank geometric mean eigenvalues with inclusion counts out of
    ``n_dates`` averaged dates.

    Ranks excluded at every date carry NaN, never zero.
    """

    values: np.ndarray
    counts: np.ndarray
    n_dates: int

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
    """Run a LAPACK solver on a matrix or a stack of them, turning its
    failure into NumericalError."""
    try:
        return solver(matrix, **options)
    except np.linalg.LinAlgError as exc:
        shape = "x".join(str(size) for size in matrix.shape)
        raise NumericalError(
            f"{solver.__name__} failed for {shape} matrix "
            f"(fro norm {np.linalg.norm(matrix):.3e}): {exc}"
        ) from exc


def _check_info(name: str, info: int, n: int) -> None:
    if info != 0:
        raise NumericalError(f"{name} failed for {n}x{n} matrix (info {info})")


def _tridiagonal(sym: np.ndarray):
    """dsytrd of the lower triangle of a copy of ``sym``: the copy, holding
    the reflectors, and the tridiagonal form's d and e, and tau."""
    # Exactly symmetric, so the transpose is the same matrix in Fortran order:
    # dsytrd reduces a copy of it, and the blocked workspace is dsyevd's.
    c = sym.T.copy(order="F")
    d, e, tau, info = _lapack.dsytrd(c)
    _check_info("dsytrd", info, sym.shape[0])
    return c, d, e, tau


def _tridiagonal_system(sym: np.ndarray, k: int):
    """Descending eigenvalues of ``sym`` and its top k eigenvectors, from one
    tridiagonal reduction: every value from dsterf (what ``eigvalsh`` runs),
    the k vectors from MRRR (dstemr) and back-transformed by the reduction's
    reflectors alone. The vectors are None for k = 0 and where dstemr or the
    back-transform fails. ``sym`` must be exactly symmetric; it is left
    intact."""
    n = sym.shape[0]
    c, d, e, tau = _tridiagonal(sym)
    # dsterf destroys its d and e, which dstemr reads next
    values = d.copy()
    info = _lapack.dsterf(values, e.copy())
    _check_info("dsterf", info, n)
    values = values[::-1].copy()
    if not k:
        return values, None
    z = np.empty((n, k), order="F")
    if _lapack.dstemr(d, e, n - k + 1, n, z) != 0:
        return values, None
    # Q = diag(1, H_1 ... H_{N-1}): the reflectors' product on rows 2..N, in
    # place; the minimal workspace runs the unblocked product, faster than the
    # blocked one for few columns (for k near N the blocked one is faster, but
    # dstemr dominates).
    if n > 1 and _lapack.dormqr(c[1:, :-1], tau[:-1], z[1:]) != 0:
        return values, None
    return values, z[:, ::-1]


def eigenvalue_counts(sym: np.ndarray, points) -> np.ndarray:
    """The number of eigenvalues of ``sym`` at or below each of ``points``,
    as int64, with no eigenvalue computed: Kahan's Sturm counts (LAPACK
    dlaebz) on the tridiagonal form of one dsytrd, with dstebz's splitting
    and pivot guard. They are the counts of the dsterf values except at a
    point within rounding of an eigenvalue. They cost N steps per point
    where dsterf costs about N^2 in all, so they pay for at most about N
    points. ``sym`` is taken as ``leading_system`` takes it."""
    n = sym.shape[0]
    _, d, e, _ = _tridiagonal(sym)
    e2 = e * e  # e's last entry, and so e2's, is 0
    # dstebz splits where e_j^2 is negligible against |d_j d_(j+1)|, and
    # guards the pivots with the safe minimum times the largest e_j^2 kept
    ulp, safe_min = np.finfo(float).eps, np.finfo(float).tiny
    e2[:-1][np.abs(d[1:] * d[:-1]) * (ulp * ulp) + safe_min > e2[:-1]] = 0.0
    counts, info = _lapack.dlaebz(d, e2, safe_min * max(1.0, float(e2.max())),
                                  np.asarray(points, dtype=float))
    _check_info("dlaebz", info, n)
    return counts


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude component is positive: of one
    N x k matrix, or of each matrix of a (..., N, k) stack."""
    lead = np.argmax(np.abs(vectors), axis=-2)
    signs = np.sign(np.take_along_axis(vectors, lead[..., None, :], axis=-2))
    signs[signs == 0] = 1.0
    return vectors * signs


def leading_system(sym: np.ndarray, k: int):
    """The descending eigenvalues of ``sym`` and its top k eigenvectors, each
    flipped so its largest-magnitude component is positive (None for k = 0).
    Both come from the tridiagonal route; where MRRR fails, the vectors come
    from a full eigh of ``sym``, as LAPACK's dsyevr falls back on another
    solver. The sign flip is per column, so it runs on the kept columns alone.

    ``sym`` must be finite and exactly symmetric, and is not checked: the
    runner's own matrices are so by construction, and ``eigenvalues``
    checks a matrix from outside first."""
    values, vectors = _tridiagonal_system(sym, k)
    if not k:
        return values, None
    if vectors is None:
        vectors = _solve(np.linalg.eigh, sym)[1][:, ::-1][:, :k]
    return values, _fix_signs(vectors)


def eigenvalues(matrix) -> np.ndarray:
    """Descending eigenvalues alone of a square, finite matrix symmetric
    within 1e-10 relative."""
    return leading_system(_symmetric_part(matrix), 0)[0]


def _gram_vectors(windows: np.ndarray, k: int) -> np.ndarray:
    """``window_vectors`` of one batch of windows: for L < N, by one batched
    ``eigh`` of their Grams W'W; for L >= N, by ``leading_system`` of each
    W W', as the main stage solves its matrices."""
    n, length = windows.shape[1:]
    if length >= n:
        return np.stack([leading_system(w @ w.T, k)[1] for w in windows])
    values, u = _solve(np.linalg.eigh, np.swapaxes(windows, 1, 2) @ windows)
    kept = values[:, : -k - 1 : -1]
    deficient = kept[:, -1] <= GRAM_RANK_FLOOR * kept[:, 0]
    kept[deficient] = 1.0  # solved apart below
    vectors = _fix_signs(windows @ (u[:, :, : -k - 1 : -1] / np.sqrt(kept)[:, None, :]))
    for t in np.flatnonzero(deficient):
        vectors[t] = leading_system(windows[t] @ windows[t].T, k)[1]
    return vectors


def window_vectors(windows: np.ndarray, k: int) -> np.ndarray:
    """Top-k left singular vectors of each N x L window, shape (T, N, k): for
    the windows W of ``moments.weighted_windows``, the leading eigenvectors of
    W W', signed as ``leading_system`` signs them. They come from the smaller
    Gram of each window, over batches of windows whose Grams hold
    GRAM_BATCH_BYTES. For L < N, the batch's Grams G = W'W are solved by one
    batched ``eigh``, whose top eigenvectors U_k and values Lambda_k give
    V = W U_k Lambda_k^(-1/2); a window whose lambda_k is at or below
    GRAM_RANK_FLOOR times its lambda_1 gets its vectors from
    ``leading_system`` of W W'. For L >= N, every window's G = W W' is
    solved so, as the main stage solves its N x N matrices."""
    t_len, n, length = windows.shape
    if not 1 <= k <= min(n, length):
        raise ParameterError(f"rank k={k} outside [1, {min(n, length)}]")
    out = np.empty((t_len, n, k))
    step = max(1, GRAM_BATCH_BYTES // (8 * min(n, length) ** 2))
    for lo in range(0, t_len, step):
        out[lo : lo + step] = _gram_vectors(windows[lo : lo + step], k)
    return out


def log_mean_spectrum(series: SpectrumSeries) -> MeanSpectrum:
    """Geometric mean of each rank over the dates where it clears the floor,
    1e-12 times the date's top eigenvalue."""
    if len(series) < 1:
        raise ParameterError("empty spectrum series")
    vals = series.values
    mask = vals > 1e-12 * vals[:, :1]
    counts = mask.sum(axis=0)
    logs = np.where(mask, np.log(np.where(mask, vals, 1.0)), 0.0)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, np.exp(logs.sum(axis=0) / np.maximum(counts, 1)), np.nan)
    return MeanSpectrum(means, counts, len(series))


def spectral_density(series: SpectrumSeries, bins: DensityBins) -> DensityHistogram:
    """Histogram density of all eigenvalues, time- and rank-averaged.

    Eigenvalues outside the bin range are counted as excluded, so the
    densities integrate to the included fraction.
    """
    if len(series) < 1 or series.values.size == 0:
        raise ParameterError("empty spectrum series")
    counts, _ = np.histogram(series.values, bins=bins.edges())
    return counted_density(bins, np.concatenate(([0], np.cumsum(counts))), series.values.size)


def counted_density(bins: DensityBins, below, total: int) -> DensityHistogram:
    """Histogram density of ``total`` eigenvalues from cumulative counts at
    the edges of ``bins``: bin i holds below[i+1] - below[i] of them, and
    the rest are counted as excluded. For ``below[i]`` the number at or
    below edge i, each bin is (a, b]."""
    edges = bins.edges()
    widths = np.diff(edges)
    centers = (edges[:-1] + edges[1:]) / 2.0
    densities = np.diff(below) / (total * widths)
    return DensityHistogram(centers, widths, densities, int(total - (below[-1] - below[0])), total)


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


def mp_support(q):
    """Support edges [(1-sqrt(q))^2, (1+sqrt(q))^2] of the M-P density, of
    one q or elementwise of an array of them, the same bits either way: each
    square is a product, as numpy squares an array, where a scalar's ** 2
    would go through libm's pow."""
    q_arr = np.asarray(q, dtype=float)
    if not np.all((q_arr > 0.0) & (q_arr <= 1.0)):
        raise ParameterError(f"q must be in (0, 1], got {q!r}")
    root = np.sqrt(q_arr)
    below, above = 1.0 - root, 1.0 + root
    lo, hi = below * below, above * above
    if q_arr.ndim == 0:
        return float(lo), float(hi)
    return lo, hi


def mp_density(lam, q):
    """Marchenko-Pastur density sqrt(4*lam*q - (lam+q-1)^2) / (2*pi*lam*q).

    Zero outside the support. lam and q broadcast against each other;
    scalars in, a scalar out.
    """
    lo, hi = mp_support(q)
    lam_arr, q_arr = np.asarray(lam, dtype=float), np.asarray(q, dtype=float)
    shift = lam_arr + q_arr - 1.0
    radicand = 4.0 * lam_arr * q_arr - shift * shift  # a product, as in mp_support
    inside = (lam_arr > lo) & (lam_arr < hi) & (radicand > 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(inside, np.sqrt(radicand) / (2.0 * np.pi * q_arr * lam_arr), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def _bisect(f, lo, hi, xtol):
    """The root of an increasing f in each bracket [lo, hi] (scalars, or
    arrays of one shape), where f(lo) <= 0 <= f(hi). Each bracket is halved
    until it is no wider than xtol, or has no double inside it, and its
    midpoint returned, so within xtol of the root. One call of f on the
    array of midpoints per halving; a bracket's halvings do not depend on
    the others, so an array call returns the scalar calls' bits. A NaN value
    of f raises NumericalError."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    while True:
        mid = lo + (hi - lo) / 2.0
        active = (hi - lo > xtol) & (mid > lo) & (mid < hi)
        if not active.any():
            return float(mid) if mid.ndim == 0 else mid
        value = f(mid)
        if np.isnan(value).any():
            x = np.asarray(mid)[np.isnan(value)][0]
            raise NumericalError(f"root search: f({x!r}) is NaN")
        lo = np.where(active & (value < 0.0), mid, lo)
        hi = np.where(active & (value >= 0.0), mid, hi)


def _grid_minimum(loss, lo, hi, steps, xtol):
    """A minimiser of loss on [lo, hi]: the best of steps + 1 evenly spaced
    points, whose losses come from one call of loss on their array, refined
    by golden sections to xtol within one step either side of it. The
    refined x is kept only if its loss is no larger than the grid point's.
    A NaN loss raises NumericalError."""

    def value(x):
        fx = loss(x)
        if np.isnan(fx).any():
            raise NumericalError(f"bounded minimum search on [{lo!r}, {hi!r}] met a NaN loss")
        return fx

    grid = np.linspace(lo, hi, steps + 1)
    losses = value(grid)
    best = int(np.argmin(losses))
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, steps)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = value(c), value(d)
    while b - a > xtol:
        if fc <= fd:  # a minimum lies in [a, d]
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = value(d)
    x, fx = (c, fc) if fc <= fd else (d, fd)
    return float(x) if fx <= losses[best] else float(grid[best])


def fit_mp_q(hist: DensityHistogram) -> float:
    """Least-squares fit of the M-P ratio q to a binned density: the q in
    MP_Q_BOUNDS of least summed squared deviation from the M-P density at
    the bin centres, searched on a grid of MP_Q_GRID_STEPS steps and refined
    to 1e-8 (``_grid_minimum``)."""
    def loss(q):
        q = np.asarray(q, dtype=float)[..., None]
        return np.sum((hist.densities - mp_density(hist.centers, q)) ** 2, axis=-1)

    return _grid_minimum(loss, *MP_Q_BOUNDS, MP_Q_GRID_STEPS, xtol=1e-8)


def default_fit_range(n_ranks: int) -> tuple[int, int]:
    """Central 80% of ranks: the quartic term models the excluded ends."""
    lo = int(math.floor(0.1 * n_ranks)) + 1
    hi = int(math.ceil(0.9 * n_ranks))
    return lo, hi


def fit_ansatz(mean_spectrum, fit_range: tuple[int, int] | None = None) -> AnsatzFit:
    """Least-squares fit of (a, b, ln eps_mid) to a per-rank mean spectrum,
    by variable projection over c = (2/b)**4 in [0, c_max].

    For each c, ln eps_mid and a are the linear least squares of ln eps on
    x / (1 - c*x**4), with residuals r, and g(c) = a * sum(r * x**5 /
    (1 - c*x**4)**2) is the exact gradient of that residual. c = 0 (b = inf)
    unless g(0) is negative beyond rounding; then c is the root of g on
    [0, c_max], bisected to 4 eps c_max (``_bisect``), and kept only if its
    residual is no larger than at c = 0.
    c_max lies just below 1/max x**4, where the shape is singular
    (b = max|2x|). Non-positive or NaN ranks inside the range are dropped.
    Raises FitError when g is still negative at c_max or a is not positive.
    Where the curvature is small, b > 6 (c < 0.01), b is poorly determined:
    one-ulp noise in the spectrum moves it by up to about 2e-11 of its value
    (synthetic spectra, b from 6.5 to 12), against 2e-14 near b = 1.24.

    A ``MeanSpectrum`` is fitted on the ranks counted at every date: each
    date's floor keeps a prefix of its ranks, so every date resolves the first
    r (r = L when N > L), and those are the N of the shape. A plain array is
    fitted whole.
    """
    if isinstance(mean_spectrum, MeanSpectrum):
        resolved = int(np.count_nonzero(mean_spectrum.counts == mean_spectrum.n_dates))
        values = mean_spectrum.values[:resolved]
    else:
        values = np.asarray(mean_spectrum, dtype=float)
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
    x4 = x**4
    c_max = (1.0 - 1e-8) / float(x4.max())

    def projection(c):
        """a, ln eps_mid, the residuals and g(c) of the linear fit at c."""
        denom = 1.0 - c * x4
        z = x / denom
        zc, yc = z - z.mean(), y - y.mean()
        a = float(zc @ yc / (zc @ zc))
        r = a * zc - yc
        return a, float(y.mean() - a * z.mean()), r, a * float(r @ (x * x4 / denom**2))

    c = 0.0
    a, ln_mid, r, g = projection(c)
    # An ulp of max|ln eps| on every rank moves g(0) by up to |a| eps max|y|
    # sum|x^5|: a g(0) within a few of those leaves b unidentified.
    eps = np.finfo(float).eps
    if g < -8.0 * eps * abs(a) * float(np.abs(y).max() * np.sum(np.abs(x) ** 5)):
        c = c_max
        if projection(c_max)[3] >= 0.0:
            root = _bisect(lambda t: projection(t)[3], 0.0, c_max, xtol=4.0 * eps * c_max)
            c = root if np.sum(projection(root)[2] ** 2) <= r @ r else 0.0
        a, ln_mid, r, _ = projection(c)
    b = 2.0 / c**0.25 if c > 0.0 else math.inf
    rms = float(np.sqrt(np.mean(r**2)))
    if c == c_max or not a > 0.0:
        raise FitError(
            f"spectrum fit has no decaying minimum short of the singular "
            f"curvature b = max|2x|: a={a:.6g}, b={b:.6g}",
            best_params=(a, b, ln_mid),
            residual=rms,
        )
    return AnsatzFit(a, b, math.exp(ln_mid), rms, (lo, hi), n)


def density_of_states_curve(fit: AnsatzFit, eps_grid) -> DensityCurve:
    """Density of states implied by the fitted spectrum shape.

    Inverts the fitted curve at every grid point by one vectorised bisection
    to 4 eps of the largest |x| (``_bisect``) and evaluates the exact
    derivative, (1-u)^2 / (a * eps * (1+3u)) with u = (2x/b)^4; the b->inf
    limit is the scale-free leading term 1/(a*eps). Points outside the
    fitted eigenvalue range are flagged and left NaN.
    """
    eps_grid = np.atleast_1d(np.asarray(eps_grid, dtype=float))
    eps_lo, eps_hi = fit.eps_range()
    x_lo, x_hi = fit.x_range()
    density = np.full(eps_grid.shape, np.nan)
    in_range = (eps_grid >= eps_lo) & (eps_grid <= eps_hi)

    def shape(xv):
        return fit.a * xv / (1.0 - (2.0 * xv / fit.b) ** 4)

    eps = eps_grid[in_range]
    target = np.log(eps) - math.log(fit.eps_mid)
    xv = _bisect(lambda t: shape(t) - target, np.full(eps.shape, x_lo), x_hi,
                 xtol=4.0 * np.finfo(float).eps * max(abs(x_lo), abs(x_hi)))
    # rounding of exp/log can push boundary targets a ulp outside
    xv = np.where(target <= shape(x_lo), x_lo, np.where(target >= shape(x_hi), x_hi, xv))
    u = (2.0 * xv / fit.b) ** 4
    density[in_range] = (1.0 - u) ** 2 / (fit.a * eps * (1.0 + 3.0 * u))
    return DensityCurve(eps_grid, density, in_range)
