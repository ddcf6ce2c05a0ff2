"""Leading-subspace projectors, their time averages, and dynamics measures.

The rank-k projector at a date is the sum of outer products of the top-k
eigenvectors. Its time average has trace k and eigenvalues in [0, 1]; how
far those eigenvalues sit below one is what the fluctuation index and the
scalar lagged correlation quantify. Both are computed from the (T, N, k)
leading eigenvectors through trace identities, without per-date projectors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractViolationError,
    DegenerateSeriesError,
    DegenerateSubspaceWarning,
    ParameterError,
)
from .spectral import EigenSystem, eigenvalues

DEGENERACY_RTOL = 1e-10
# The trace identities of projector_lagged_correlation move rho by about
# 3e-16 / gamma (measured from gamma = 0.9 down to 3e-5); below this
# fluctuation index, where that passes 3e-13, the projector stack is used.
GRAM_MIN_GAMMA = 1e-3
LAGGED_KERNEL_LENGTH = 21


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector onto a leading eigen-subspace of rank k."""

    k: int
    matrix: np.ndarray


@dataclass(frozen=True)
class MeanProjector:
    """Time average of rank-k projectors; trace k, eigenvalues in [0, 1]."""

    k: int
    matrix: np.ndarray
    sample_count: int


class FluctuationIndex(NamedTuple):
    gamma: float
    gamma_max: float
    ratio: float


def leading_projector(eig: EigenSystem, k: int) -> Projector:
    """Projector onto the span of the top-k eigenvectors.

    Warns when the spectrum is nearly degenerate at the cut, where the
    subspace is ill-defined.
    """
    n = eig.size
    if not 1 <= k <= n:
        raise ParameterError(f"rank k={k} outside [1, {n}]")
    if k < n and eig.values[k - 1] - eig.values[k] < DEGENERACY_RTOL * abs(eig.values[0]):
        warnings.warn(
            f"eigenvalue gap at rank {k} is below the degeneracy tolerance; "
            "the leading subspace is ill-defined at the cut",
            DegenerateSubspaceWarning,
            stacklevel=2,
        )
    vk = eig.vectors[:, :k]
    mat = vk @ vk.T
    return Projector(k, (mat + mat.T) / 2.0)


def _leading_vectors(series, k: int) -> np.ndarray:
    """The (T, N, k) top-k eigenvector stack of a spectrum series or of a
    (T, N, m) vector stack with m >= k."""
    vectors = getattr(series, "vectors", series)
    if vectors is None:
        raise ContractViolationError("spectrum series was computed without vectors")
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 3:
        raise ParameterError(f"expected a (T,N,m) vector stack, got {vectors.shape}")
    n = vectors.shape[1]
    if not 1 <= k <= n:
        raise ParameterError(f"rank k={k} outside [1, {n}]")
    if k > vectors.shape[2]:
        raise ContractViolationError(
            f"rank k={k} needs {k} eigenvectors per date, the series keeps "
            f"{vectors.shape[2]}"
        )
    return vectors[:, :, :k]


def _projector_stack(vk: np.ndarray) -> np.ndarray:
    stack = vk @ np.transpose(vk, (0, 2, 1))
    return (stack + np.transpose(stack, (0, 2, 1))) / 2.0


def _side_by_side(vk: np.ndarray) -> np.ndarray:
    """The (T, N, k) stack as one N x (T k) matrix [V_1 V_2 ... V_T]."""
    return np.transpose(vk, (1, 0, 2)).reshape(vk.shape[1], -1)


def projector_series(series, k: int) -> np.ndarray:
    """Stack of per-date rank-k projectors, shape (T, N, N)."""
    return _projector_stack(_leading_vectors(series, k))


def mean_projector(series, k: int) -> MeanProjector:
    """Arithmetic time average of the per-date rank-k projectors.

    sum_t V_t V_t' is one product Y Y' with Y = [V_1 ... V_T], so no
    per-date projector is formed.
    """
    vk = _leading_vectors(series, k)
    t_len = vk.shape[0]
    if t_len < 1:
        raise ParameterError("empty spectrum series")
    y = _side_by_side(vk)
    mean = (y @ y.T) / t_len
    return MeanProjector(k, (mean + mean.T) / 2.0, t_len)


def projector_spectrum(mp: MeanProjector) -> np.ndarray:
    """Descending eigenvalues of the mean projector; they sum to k."""
    return eigenvalues(mp.matrix)


def fluctuation_index(mp: MeanProjector) -> FluctuationIndex:
    """gamma = 1 - tr(<P>^2)/k, its maximum 1 - k/N, and their ratio.

    A static subspace gives gamma 0; full exploration of the space gives
    gamma_max. The ratio is NaN at k = N where the maximum vanishes.
    """
    n = mp.matrix.shape[0]
    tr_sq = float(np.sum(mp.matrix * mp.matrix))
    gamma = 1.0 - tr_sq / mp.k
    gamma_max = 1.0 - mp.k / n
    ratio = gamma / gamma_max if gamma_max > 0 else float("nan")
    return FluctuationIndex(gamma, gamma_max, ratio)


def _checked_lags(lags, t_len: int) -> list[int]:
    lags = [int(l) for l in lags]
    if any(l < 0 for l in lags):
        raise ParameterError("lags must be non-negative")
    if lags and max(lags) + 1 >= t_len:
        raise ParameterError(
            f"lag {max(lags)} too large for a series of length {t_len}"
        )
    return lags


def matrix_lagged_correlation(series, lags) -> np.ndarray:
    """Trace-normalized autocorrelation of a matrix time series.

    rho(tau) = tr<(X(t)-<X>)(X(t+tau)-<X>)> / tr<(X-<X>)^2> with <X> the
    global time average; rho(0) is 1 exactly. The normalization uses the
    full-sample mean, so finite samples may marginally exceed |rho| = 1;
    that soft bound is a diagnostic, not an error.
    """
    matrices = np.asarray(getattr(series, "matrices", series), dtype=float)
    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
        raise ParameterError(f"expected a (T,N,N) stack, got {matrices.shape}")
    t_len = matrices.shape[0]
    lags = _checked_lags(lags, t_len)
    centered = matrices - matrices.mean(axis=0)
    products = np.einsum("tij,tij->t", centered, centered)
    denom = products.mean()
    scale = np.einsum("tij,tij->t", matrices, matrices).mean()
    if denom <= 1e-24 * max(scale, 1e-300):
        raise DegenerateSeriesError("matrix series is constant; rho is undefined")

    out = np.empty(len(lags))
    for i, lag in enumerate(lags):
        if lag == 0:
            out[i] = 1.0
            continue
        cross = np.einsum("tij,tij->", centered[:-lag], centered[lag:])
        out[i] = cross / (t_len - lag) / denom
    return out


def _overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||A_t' B_t||_F^2 per date, which is tr(P_t Q_t) for the projectors
    onto the orthonormal columns of A_t and B_t."""
    gram = np.transpose(a, (0, 2, 1)) @ b
    return np.einsum("tij,tij->t", gram, gram)


def projector_lagged_correlation(series, k: int, lags) -> np.ndarray:
    """``matrix_lagged_correlation`` of the rank-k projector series, from the
    eigenvectors alone.

    ``series`` is a spectrum series or a (T, N, m) vector stack, m >= k.
    With P_t = V_t V_t' and M the mean projector,
    tr(P_t P_s) = ||V_t' V_s||_F^2 and tr(P_t M) = tr(V_t' M V_t), so each
    centred trace costs O(N k^2) and no projector is formed. The centred
    denominator is k * gamma, with gamma the fluctuation index, and this
    form moves rho by about 3e-16 / gamma from the stacked one; a series
    with gamma below GRAM_MIN_GAMMA is computed from its projector stack.
    """
    vk = _leading_vectors(series, k)
    t_len, n, _ = vk.shape
    lags = _checked_lags(lags, t_len)

    mean = mean_projector(vk, k).matrix
    mean_sq = float(np.sum(mean * mean))
    # tr(P_t M) per date, from the N x (T k) product M Y.
    y = _side_by_side(vk)
    with_mean = np.einsum(
        "itk,itk->t", (mean @ y).reshape(n, t_len, k), y.reshape(n, t_len, k)
    )
    own = _overlaps(vk, vk)
    denom = float(np.mean(own - 2.0 * with_mean + mean_sq))
    scale = float(np.mean(own))
    if denom <= 1e-24 * max(scale, 1e-300):
        raise DegenerateSeriesError("matrix series is constant; rho is undefined")
    if denom < GRAM_MIN_GAMMA * scale:
        return matrix_lagged_correlation(_projector_stack(vk), lags)

    out = np.empty(len(lags))
    for i, lag in enumerate(lags):
        if lag == 0:
            out[i] = 1.0
            continue
        cross = (
            _overlaps(vk[:-lag], vk[lag:]).sum()
            - with_mean[:-lag].sum()
            - with_mean[lag:].sum()
            + (t_len - lag) * mean_sq
        )
        out[i] = cross / (t_len - lag) / denom
    return out
