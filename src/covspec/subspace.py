"""Leading-subspace projectors, their time averages, and dynamics measures.

The rank-k projector at a date is the sum of outer products of the top-k
eigenvectors. Its time average has trace k and eigenvalues in [0, 1]; how
far those eigenvalues sit below one is what the fluctuation index quantifies.
The lagged correlation of a series X_t = F_t F_t' (covariance, correlation or
projector) comes from running sums over its (T, N, m) factors F, fed a chunk
of dates at a time; a near-static series is summed once more, centred.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, DegenerateSeriesError, ParameterError
from .spectral import eigenvalues

# The trace identities of LaggedSums move rho by about 3e-16 / g,
# g the ratio of centred to total variance (gamma, for projectors; measured from
# 0.9 down to 3e-5); below this g, where that passes 3e-13, the series is
# summed once more over the centred terms X_t - M, which cancel nothing.
GRAM_MIN_GAMMA = 1e-3
LAGGED_KERNEL_LENGTH = 21
# Sums over dates of per-date N x m factors run over chunks of dates holding
# at most this many bytes of factors, so no copy of a whole stack is made:
# the mean projector's, and each lagged block's walk over its N x L windows
# (``runner._lagged_file``), whose chunks span at least max(lags) dates,
# however few windows this holds. Up to 1 MiB the chunk does not set the lagged
# stage's traced peak: 4.1 MB on csv-dump and 6.7 MB on longmem-full at
# 256 KiB, 512 KiB and 1 MiB alike, against 6.1 and 8.7 MB at 2 MiB; smaller
# chunks only add calls (2-vCPU x86-64 host, one worker).
CHUNK_BYTES = 2**20


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


def _outer_sum(factors: np.ndarray) -> np.ndarray:
    """sum_t F_t F_t' of a (b, N, m) stack, as one product Y Y' with
    Y = [F_1 ... F_b], a copy of the stack dropped on return; exactly
    symmetric, since numpy takes Y Y' to syrk."""
    y = np.transpose(factors, (1, 0, 2)).reshape(factors.shape[1], -1)
    return y @ y.T


def mean_projector(series, k: int) -> MeanProjector:
    """Arithmetic time average of the per-date rank-k projectors.

    sum_t V_t V_t' is a sum of products Y Y' with Y = [V_s ... V_u] over
    fixed chunks of dates of at most CHUNK_BYTES, added in date order, so
    no per-date projector and no copy of the whole stack is formed.
    """
    vk = _leading_vectors(series, k)
    t_len, n = vk.shape[:2]
    if t_len < 1:
        raise ParameterError("empty spectrum series")
    step = max(1, CHUNK_BYTES // (8 * n * k))
    total = np.zeros((n, n))
    for lo in range(0, t_len, step):
        total += _outer_sum(vk[lo : lo + step])  # exactly symmetric, as each term is
    return MeanProjector(k, total / t_len, t_len)


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


def checked_lags(lags, t_len: int) -> list[int]:
    lags = [int(l) for l in lags]
    if any(l < 0 for l in lags):
        raise ParameterError("lags must be non-negative")
    if lags and max(lags) + 1 >= t_len:
        raise ParameterError(
            f"lag {max(lags)} too large for a series of length {t_len}"
        )
    return lags


def _overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||A_t' B_t||_F^2 per date, which is tr(A_t A_t' B_t B_t')."""
    gram = np.transpose(a, (0, 2, 1)) @ b
    return np.einsum("tij,tij->t", gram, gram)


def _frobenius(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(A_t B_t) per date of symmetric A_t and B_t."""
    return np.einsum("tij,tij->t", a, b)


def _with_mean(factors: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """tr(X_t M) = tr(F_t' M F_t) per date."""
    return np.einsum("tik,tik->t", mean @ factors, factors)


class LaggedPartial(NamedTuple):
    """The terms of ``LaggedSums`` of a run of consecutive dates, from
    ``LaggedSums.partial``."""

    carried: int  # dates before the run whose terms it was given
    total: np.ndarray  # sum over the run's dates of X_t (0 for centred sums)
    own: np.ndarray  # tr(X_t^2) per date of the run
    cross: np.ndarray  # per lag, sum of tr(X_t X_{t+tau}) over pairs whose later date is in it

    def then(self, later: "LaggedPartial") -> "LaggedPartial":
        """The terms of this run followed by those of the ``later`` one,
        which starts at the date after it."""
        return LaggedPartial(
            self.carried,
            self.total + later.total,
            np.concatenate((self.own, later.own)),
            self.cross + later.cross,
        )


class LaggedSums:
    """Running sums that give the lagged correlation of X_t = F_t F_t' over
    T dates whose (T, N, m) factors come in blocks,

        rho(tau) = sum_{t < T-tau} tr(C_t C_{t+tau}) / (T - tau) / mean_t tr(C_t^2),

    C_t = X_t - M, M = sum_t X_t / T; rho(0) is 1 exactly. M is the
    full-sample mean, so finite samples may marginally exceed |rho| = 1;
    that soft bound is a diagnostic, not an error.

    Each run of dates is fed as the ``terms`` of its factors. Their sums
    come from ``partial``, which reads nothing but the lags, so any process
    can run it; ``LaggedPartial.then``
    joins those of consecutive runs, and ``merge`` adds them in date order,
    one block of dates after another. Kept: S = sum_t X_t, tr(X_t^2) per
    date and sum_t tr(X_t X_{t+tau}) per lag, by tr(X_t X_s) =
    ||F_t' F_s||_F^2. With M = S / T the with-mean terms follow from sum_t
    tr(X_t M) = T tr(M^2) minus the first and last max(lags) dates a lag
    leaves out, whose factors ``rho`` is given, by tr(X_t M) = tr(F_t' M F_t).
    Where the series is near-static those terms cancel, and ``rho`` reports
    None: the sums ``centred()`` returns are then fed the same dates again,
    their terms the (b, N, N) C_t themselves, carried across runs as the
    factors are, and keep the same sums of them, as Frobenius products.
    """

    def __init__(self, lags, t_len: int, mean=None, scale=None):
        self.lags = checked_lags(lags, t_len)
        self.t_len = t_len
        self.reach = max(self.lags, default=0)
        self.mean = mean  # M, for centred sums; None for the sums of X_t
        self.scale = scale  # mean_t tr(X_t^2), for centred sums
        self.seen = 0
        self.total = None
        self.own: list[np.ndarray] = []
        self.cross = np.zeros(len(self.lags))

    def centred(self) -> "LaggedSums":
        """Empty sums of C_t = X_t - M over the same dates, with M = S / T
        from these sums, once all T dates are merged."""
        own = float(np.mean(np.concatenate(self.own)))
        return LaggedSums(self.lags, self.t_len, self.total / self.t_len, own)

    def terms(self, factors):
        """What ``partial`` sums of b dates with (b, N, m) ``factors``: the
        factors themselves, or, for centred sums, C_t = F_t F_t' - M."""
        if self.mean is None:
            return factors
        terms = factors @ np.transpose(factors, (0, 2, 1))
        terms -= self.mean
        return terms

    def partial(self, terms, earlier=None) -> LaggedPartial:
        """The sums of a run of b consecutive dates from their ``terms``,
        given as ``earlier`` the terms of the min(max(lags), dates before
        the run) dates just before it (None for none), which its pairs
        across its start read."""
        f = np.asarray(terms, dtype=float)
        if f.ndim != 3:
            raise ParameterError(f"expected a (T,N,m) factor stack, got {f.shape}")
        earlier = f[:0] if earlier is None else np.asarray(earlier, dtype=float)
        carried = len(earlier)
        pairs = _overlaps if self.mean is None else _frobenius
        cross = np.zeros(len(self.lags))
        for i, lag in enumerate(self.lags):
            if lag == 0:
                continue
            if lag < len(f):
                cross[i] = pairs(f[:-lag], f[lag:]).sum()
            lo, hi = max(0, lag - carried), min(lag, len(f))
            if lo < hi:
                cross[i] += pairs(earlier[carried + lo - lag : carried + hi - lag], f[lo:hi]).sum()
        total = _outer_sum(f) if self.mean is None else 0.0
        return LaggedPartial(carried, total, pairs(f, f), cross)

    def merge(self, part: LaggedPartial) -> None:
        """Add the terms of the next run of dates."""
        if self.seen + len(part.own) > self.t_len:
            raise ParameterError(f"more than {self.t_len} dates fed")
        if part.carried != min(self.reach, self.seen):
            raise ContractViolationError(
                f"a block after {self.seen} dates carries {part.carried} earlier dates, "
                f"not {min(self.reach, self.seen)}"
            )
        if self.total is None:
            self.total = np.zeros_like(part.total)
        self.total += part.total
        self.own.append(part.own)
        self.cross += part.cross
        self.seen += len(part.own)

    def rho(self, ends) -> np.ndarray | None:
        """rho(tau) per lag, once all T dates are merged, or None for a
        near-static series, whose ratio of centred to total variance is at
        most GRAM_MIN_GAMMA: its rho comes from ``centred()``. ``ends()``
        returns the factors of the first and of the last max(lags) dates,
        read where a lag is positive and the sums are not centred. Centred
        sums of a constant series raise DegenerateSeriesError."""
        if self.seen != self.t_len:
            raise ContractViolationError(f"{self.seen} of {self.t_len} dates fed")
        own = float(np.mean(np.concatenate(self.own)))
        out = np.ones(len(self.lags))
        if self.mean is not None:
            if own <= 1e-24 * max(self.scale, 1e-300):
                raise DegenerateSeriesError("matrix series is constant; rho is undefined")
            cross, denom = self.cross, own
        else:
            mean = self.total / self.t_len
            mean_sq = float(np.sum(mean * mean))
            denom = own - mean_sq
            if denom <= GRAM_MIN_GAMMA * own:
                return None
            if not self.reach:
                return out
            head, tail = (np.asarray(f, dtype=float) for f in ends())
            if not len(head) == len(tail) == self.reach:
                raise ContractViolationError(
                    f"{len(head)} first and {len(tail)} last dates given, not {self.reach}"
                )
            head, tail = _with_mean(head, mean), _with_mean(tail, mean)
            # sum over t < T - tau of tr((X_t - M)(X_{t+tau} - M))
            cross = [
                self.cross[i]
                + head[:lag].sum()
                + tail[len(tail) - lag :].sum()
                - (self.t_len + lag) * mean_sq
                for i, lag in enumerate(self.lags)
            ]
        for i, lag in enumerate(self.lags):
            if lag:
                out[i] = cross[i] / (self.t_len - lag) / denom
        return out
