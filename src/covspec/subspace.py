"""Leading-subspace projectors, their time averages, and dynamics measures.

The rank-k projector at a date is the sum of outer products of the top-k
eigenvectors. Its time average has trace k and eigenvalues in [0, 1]; how
far those eigenvalues sit below one is what the fluctuation index quantifies.
The lagged correlation of a series X_t = F_t F_t' (covariance, correlation or
projector) comes from the (T, N, m) factors F, without per-date matrices.
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
# The trace identities of factor_lagged_correlation move rho by about 3e-16 / g,
# g the ratio of centred to total variance (gamma, for projectors; measured from
# 0.9 down to 3e-5); below this g, where that passes 3e-13, the stack is used.
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


def _outer_stack(factors: np.ndarray) -> np.ndarray:
    stack = factors @ np.transpose(factors, (0, 2, 1))
    return (stack + np.transpose(stack, (0, 2, 1))) / 2.0


def _side_by_side(vk: np.ndarray) -> np.ndarray:
    """The (T, N, k) stack as one N x (T k) matrix [V_1 V_2 ... V_T]."""
    return np.transpose(vk, (1, 0, 2)).reshape(vk.shape[1], -1)


def projector_series(series, k: int) -> np.ndarray:
    """Stack of per-date rank-k projectors, shape (T, N, N)."""
    return _outer_stack(_leading_vectors(series, k))


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
    """||A_t' B_t||_F^2 per date, which is tr(A_t A_t' B_t B_t')."""
    gram = np.transpose(a, (0, 2, 1)) @ b
    return np.einsum("tij,tij->t", gram, gram)


def factor_lagged_correlation(factors, lags) -> np.ndarray:
    """``matrix_lagged_correlation`` of X_t = F_t F_t' from the (T, N, m) factors F
    alone, by tr(X_t X_s) = ||F_t' F_s||_F^2 and tr(X_t M) = tr(F_t' M F_t) for M
    the mean of X. A constant or near-static series (GRAM_MIN_GAMMA) goes to
    ``matrix_lagged_correlation`` of its stack, which refuses a constant one."""
    f = np.asarray(factors, dtype=float)
    if f.ndim != 3:
        raise ParameterError(f"expected a (T,N,m) factor stack, got {f.shape}")
    t_len, n, m = f.shape
    lags = _checked_lags(lags, t_len)

    y = _side_by_side(f)
    mean = (y @ y.T) / t_len  # exactly symmetric: numpy takes Y Y' to syrk
    mean_sq = float(np.sum(mean * mean))
    # tr(X_t M) per date, from the N x (T m) product M Y.
    with_mean = np.einsum(
        "itk,itk->t", (mean @ y).reshape(n, t_len, m), y.reshape(n, t_len, m)
    )
    own = _overlaps(f, f)
    denom = float(np.mean(own - 2.0 * with_mean + mean_sq))
    if denom <= GRAM_MIN_GAMMA * float(np.mean(own)):
        return matrix_lagged_correlation(_outer_stack(f), lags)

    out = np.empty(len(lags))
    for i, lag in enumerate(lags):
        if lag == 0:
            out[i] = 1.0
            continue
        cross = (
            _overlaps(f[:-lag], f[lag:]).sum()
            - with_mean[:-lag].sum()
            - with_mean[lag:].sum()
            + (t_len - lag) * mean_sq
        )
        out[i] = cross / (t_len - lag) / denom
    return out
