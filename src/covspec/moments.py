"""Rolling weighted covariance series and correlation normalization.

The estimator at date t is the weighted cross product of the L most recent
return vectors,

    Sigma(t) = sum_{i=0}^{L-1} lambda(i) * r(t-i) r(t-i)',

with no mean subtraction. Every evaluation date gets its own direct product
of its window, whatever the kernel, so no date carries rounding error over
from another.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAssetError, InsufficientDataError, NumericalError, ParameterError
from .kernels import WeightKernel
from .panel import ReturnPanel

COVARIANCE = "covariance"
CORRELATION = "correlation"

VARIANCE_FLOOR = 1e-16


@dataclass(frozen=True)
class CovarianceSeries:
    """Time-indexed sequence of symmetric N x N matrices of one flavor."""

    flavor: str
    dates: tuple[str, ...]
    matrices: np.ndarray
    kernel: WeightKernel
    assets: tuple[str, ...]

    def __post_init__(self):
        matrices = np.asarray(self.matrices, dtype=float)
        object.__setattr__(self, "matrices", matrices)
        if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise ParameterError(f"matrix stack must be (T,N,N), got {matrices.shape}")
        if matrices.shape[0] != len(self.dates):
            raise ParameterError(
                f"{len(self.dates)} dates but {matrices.shape[0]} matrices"
            )

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return self.matrices.shape[1]


def resolve_eval_indices(returns: ReturnPanel, kernel: WeightKernel, eval_dates):
    """Map the requested evaluation dates onto return-panel indices."""
    dates = returns.dates
    first_feasible = kernel.length - 1
    if first_feasible >= len(dates):
        raise InsufficientDataError(
            f"kernel needs {kernel.length} return dates, panel has {len(dates)}"
        )
    if eval_dates is None:
        return list(range(first_feasible, len(dates)))

    index_of = {d: j for j, d in enumerate(dates)}
    idx = []
    for d in eval_dates:
        if d not in index_of:
            raise ParameterError(f"evaluation date {d!r} not in the return panel")
        idx.append(index_of[d])
    if not idx:
        raise ParameterError("no evaluation dates given")
    for j in idx:
        if j < first_feasible:
            raise InsufficientDataError(
                f"insufficient history at {dates[j]!r}; first feasible date is "
                f"{dates[first_feasible]!r}"
            )
    return idx


def rolling_covariance(
    returns: ReturnPanel, kernel: WeightKernel, eval_dates=None
) -> CovarianceSeries:
    """Weighted covariance at each evaluation date.

    ``eval_dates`` is None for every feasible date, or an explicit sequence
    of dates.
    """
    idx = resolve_eval_indices(returns, kernel, eval_dates)
    r = returns.returns
    n = returns.n_assets
    length = kernel.length
    weights_rev = kernel.weights[::-1]
    matrices = np.empty((len(idx), n, n))
    for t, j in enumerate(idx):
        window = r[:, j - length + 1 : j + 1]
        cov = (window * weights_rev) @ window.T
        matrices[t] = (cov + cov.T) / 2.0
    dates = tuple(returns.dates[j] for j in idx)
    return CovarianceSeries(COVARIANCE, dates, matrices, kernel, returns.asset_ids)


def weighted_windows(returns: ReturnPanel, kernel: WeightKernel, eval_dates=None):
    """The dates and the (T, N, L) stack of weighted return windows
    W = r * sqrt(lambda), whose products W W' are ``rolling_covariance``."""
    if np.any(kernel.weights < 0):
        raise ParameterError("return windows need non-negative kernel weights")
    idx = np.array(resolve_eval_indices(returns, kernel, eval_dates))
    windows = np.lib.stride_tricks.sliding_window_view(returns.returns.T, kernel.length, axis=0)
    windows = windows[idx - kernel.length + 1]  # one gathered copy, scaled in place
    windows *= np.sqrt(kernel.weights[::-1])
    finite = np.isfinite(windows).all(axis=(1, 2))
    if not finite.all():
        bad = returns.dates[idx[finite.argmin()]]
        raise NumericalError(f"at date {bad!r}: non-finite returns")
    return tuple(returns.dates[j] for j in idx), windows


def _inverse_scales(variances: np.ndarray, dates, assets) -> np.ndarray:
    """1/sqrt of (T, N) variances; the first at or below VARIANCE_FLOOR raises."""
    low = np.argwhere(variances <= VARIANCE_FLOOR)
    if low.size:
        t, a = low[0]
        raise DegenerateAssetError(
            f"variance {variances[t, a]!r} of asset {assets[a]!r} at date "
            f"{dates[t]!r} is at or below the floor {VARIANCE_FLOOR}"
        )
    return 1.0 / np.sqrt(variances)


def unit_rows(windows: np.ndarray, dates, assets) -> np.ndarray:
    """Scale each row of the windows to unit norm in place, and return them:
    U U' is the correlation of W W'."""
    variances = np.einsum("tij,tij->ti", windows, windows)
    windows *= _inverse_scales(variances, dates, assets)[:, :, None]
    return windows


def to_correlation(series: CovarianceSeries) -> CovarianceSeries:
    """Normalize each covariance matrix to unit diagonal."""
    if series.flavor != COVARIANCE:
        raise ParameterError(f"expected a covariance series, got {series.flavor!r}")
    diagonals = np.diagonal(series.matrices, axis1=1, axis2=2)
    inv_s = _inverse_scales(diagonals, series.dates, series.assets)
    out = np.empty_like(series.matrices)
    for t, cov in enumerate(series.matrices):
        corr = cov * np.outer(inv_s[t], inv_s[t])
        np.fill_diagonal(corr, 1.0)
        out[t] = np.clip(corr, -1.0, 1.0)
    return CovarianceSeries(CORRELATION, series.dates, out, series.kernel, series.assets)


def dump_matrices(series: CovarianceSeries, directory) -> list[str]:
    """Write one dense lower-triangle CSV per date; returns the file names."""
    os.makedirs(directory, exist_ok=True)
    # "%.17g" % v and f"{v:.17g}" give the same text; one template per row
    # length formats a whole row in one call.
    templates = [",".join(["%.17g"] * (i + 1)) + "\n" for i in range(series.n_assets)]
    names = []
    for t, date in enumerate(series.dates):
        name = f"{series.flavor}_{date}.csv"
        rows = series.matrices[t].tolist()
        with open(os.path.join(directory, name), "w") as fh:
            fh.write("".join(
                template % tuple(row[: i + 1])
                for i, (template, row) in enumerate(zip(templates, rows))
            ))
        names.append(name)
    return names
