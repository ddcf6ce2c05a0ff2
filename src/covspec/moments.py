"""Rolling weighted covariance matrices and correlation normalization.

The estimator at date t is the weighted cross product of the L most recent
return vectors,

    Sigma(t) = sum_{i=0}^{L-1} lambda(i) * r(t-i) r(t-i)' = W(t) W(t)',

with no mean subtraction, W(t) = r * sqrt(lambda) being the N x L weighted
window. Every evaluation date gets its own product W W' of its window,
whatever the kernel, so no date carries rounding error over from another;
numpy forms W W' by syrk, so each matrix is exactly symmetric.
``covariance_at`` and ``correlation_of`` give one date's matrices, which the
runner's main stage reads one date at a time; ``weighted_windows`` stacks
the windows W of a chunk of dates for the lagged stage. This module writes
no files: the bundle writer (``bundle._BundleWriter``) dumps the matrices.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateAssetError, InsufficientDataError, NumericalError, ParameterError
from .kernels import WeightKernel
from .panel import ReturnPanel

COVARIANCE = "covariance"
CORRELATION = "correlation"

VARIANCE_FLOOR = 1e-16


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


def _root_weights(kernel: WeightKernel) -> np.ndarray:
    """sqrt(lambda) in window order, oldest return first."""
    if np.any(kernel.weights < 0):
        raise ParameterError("return windows need non-negative kernel weights")
    return np.sqrt(kernel.weights[::-1])


def covariance_at(returns: ReturnPanel, kernel: WeightKernel, j: int) -> np.ndarray:
    """W W' of the window of the kernel's L returns ending at panel index j."""
    w = returns.returns[:, j - kernel.length + 1 : j + 1] * _root_weights(kernel)
    if not np.isfinite(w).all():
        raise NumericalError(f"at date {returns.dates[j]!r}: non-finite returns")
    return w @ w.T


def weighted_windows(returns: ReturnPanel, kernel: WeightKernel, idx=None):
    """The dates at the panel indices ``idx``, as ``resolve_eval_indices``
    gives them (None: every feasible date), and the (T, N, L) stack of their
    weighted return windows W = r * sqrt(lambda), whose products W W' are
    ``covariance_at``."""
    root = _root_weights(kernel)
    idx = np.asarray(resolve_eval_indices(returns, kernel, None) if idx is None else idx)
    windows = np.lib.stride_tricks.sliding_window_view(returns.returns.T, kernel.length, axis=0)
    windows = windows[idx - kernel.length + 1]  # one gathered copy, scaled in place
    windows *= root
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
            f"variance {float(variances[t, a])} of asset {assets[a]!r} at date "
            f"{dates[t]!r} is at or below the floor {VARIANCE_FLOOR}"
        )
    return 1.0 / np.sqrt(variances)


def unit_rows(windows: np.ndarray, dates, assets) -> np.ndarray:
    """Scale each row of the windows to unit norm in place, and return them:
    U U' is the correlation of W W'."""
    variances = np.einsum("tij,tij->ti", windows, windows)
    windows *= _inverse_scales(variances, dates, assets)[:, :, None]
    return windows


def correlation_of(cov: np.ndarray, date: str, assets) -> np.ndarray:
    """The correlation of one date's covariance: cov * outer(s, s) with
    s = 1/sqrt(diag), unit diagonal, clipped to [-1, 1]."""
    inv_s = _inverse_scales(np.diagonal(cov)[None], (date,), assets)[0]
    corr = cov * np.outer(inv_s, inv_s)
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0, out=corr)
