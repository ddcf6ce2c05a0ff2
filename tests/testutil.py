"""Shared helpers for the test suite, and the reference routes the package is
checked against, in plain numpy where they stand for a package route: each
date's covariance W W' and its correlation cov / outer(sqrt(diag),
sqrt(diag)) stacked (T,N,N), a full ``eigh`` per matrix, the eigenvalue
counts at given points from its values, stacked (T,N,N)
projector series, the lagged correlation of a whole factor stack, and the
per-row % template the CSV writer's text must equal."""

import os
from typing import NamedTuple

import numpy as np

from covspec import (
    EnsembleSpec,
    SpectrumSeries,
    build_kernel,
    generate_returns,
    make_business_dates,
)
from covspec.errors import DegenerateSeriesError, ParameterError
from covspec.subspace import LaggedSums, _leading_vectors, checked_lags


class MatrixSeries(NamedTuple):
    """A reference (T, N, N) stack of matrices, one per date."""

    dates: tuple
    matrices: np.ndarray


def covariance_stack(panel, kernel, eval_dates=None):
    """W W' at each evaluation date (every feasible date for None), W being
    the kernel's L returns ending there, oldest first, times sqrt(weights)."""
    length = kernel.length
    if eval_dates is None:
        eval_dates = panel.dates[length - 1 :]
    root = np.sqrt(kernel.weights[::-1])
    matrices = []
    for date in eval_dates:
        j = panel.dates.index(date)
        w = panel.returns[:, j - length + 1 : j + 1] * root
        matrices.append(w @ w.T)
    return MatrixSeries(tuple(eval_dates), np.array(matrices))


def correlation_stack(series):
    """cov / outer(sqrt(diag), sqrt(diag)) of each matrix of a series."""
    s = np.sqrt(np.diagonal(series.matrices, axis1=1, axis2=2))
    return MatrixSeries(series.dates, series.matrices / (s[:, :, None] * s[:, None, :]))


def reference_values(series):
    """The (T, N) descending eigenvalues of each matrix, by ``eigendecompose``."""
    return np.array([eigendecompose(m).values for m in series.matrices])


def reference_counts(matrix, points):
    """The number of ``eigendecompose`` values of a symmetric matrix at or
    below each point."""
    return np.searchsorted(eigendecompose(matrix).values[::-1], points, side="right")


class EigenSystem(NamedTuple):
    """Descending eigenvalues with orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def eigendecompose(matrix):
    """The full ``eigh`` eigensystem of a symmetric matrix in descending
    order, each vector flipped so its largest-magnitude component is positive,
    as the package signs its vectors."""
    values, vectors = np.linalg.eigh(matrix)
    vectors = vectors[:, ::-1]
    lead = np.argmax(np.abs(vectors), axis=0)
    return EigenSystem(values[::-1], vectors * np.sign(vectors[lead, np.arange(len(lead))]))


def projector_series(series, k):
    """The (T, N, N) stack of per-date rank-k projectors V V' of a spectrum
    series or of a (T, N, m) vector stack."""
    vk = _leading_vectors(series, k)
    return vk @ np.transpose(vk, (0, 2, 1))


def matrix_lagged_correlation(series, lags):
    """Trace-normalized autocorrelation of a (T, N, N) matrix stack, or of a
    series holding one as ``matrices``, stacked: rho(tau) = tr<(X(t)-<X>)
    (X(t+tau)-<X>)> / tr<(X-<X>)^2> with <X> the global time average, and
    rho(0) = 1 exactly; a constant series raises DegenerateSeriesError."""
    matrices = np.asarray(getattr(series, "matrices", series), dtype=float)
    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
        raise ParameterError(f"expected a (T,N,N) stack, got {matrices.shape}")
    t_len = matrices.shape[0]
    lags = checked_lags(lags, t_len)
    centered = matrices - matrices.mean(axis=0)
    denom = np.einsum("tij,tij->t", centered, centered).mean()
    scale = np.einsum("tij,tij->t", matrices, matrices).mean()
    if denom <= 1e-24 * max(scale, 1e-300):
        raise DegenerateSeriesError("matrix series is constant; rho is undefined")
    out = np.ones(len(lags))
    for i, lag in enumerate(lags):
        if lag:
            cross = np.einsum("tij,tij->", centered[:-lag], centered[lag:])
            out[i] = cross / (t_len - lag) / denom
    return out


def fed_in_blocks(factors, lags, step):
    """The lagged correlation of X_t = F_t F_t' from one ``LaggedSums`` fed
    the (T, N, m) factor stack in blocks of ``step`` dates, each block's
    partial given the terms of the max(lags) dates before it, and, for a
    near-static series, from its centred sums fed the same blocks, as the
    lagged stage does."""

    def fed(sums):
        for lo in range(0, len(factors), step):
            earlier = factors[lo - min(sums.reach, lo) : lo]
            sums.merge(sums.partial(sums.terms(factors[lo : lo + step]), sums.terms(earlier)))
        return sums

    sums = fed(LaggedSums(lags, len(factors)))
    reach = sums.reach
    rho = sums.rho(lambda: (factors[:reach], factors[len(factors) - reach :]))
    return fed(sums.centred()).rho(None) if rho is None else rho


def factor_lagged_correlation(factors, lags):
    """The lagged correlation of X_t = F_t F_t' from one ``LaggedSums`` fed
    the whole (T, N, m) factor stack."""
    return fed_in_blocks(factors, lags, len(factors))


def random_symmetric(n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) * scale
    return (m + m.T) / 2.0


def random_panel(n=8, length=20, n_dates=15, seed=0, kind="gaussian-iid", beta=0.0,
                 scheme="rectangular"):
    """A generated return panel and a kernel of ``length`` dates, with
    ``n_dates`` feasible evaluation dates."""
    spec = EnsembleSpec(kind, n, length + n_dates - 1, beta=beta, seed=seed)
    return generate_returns(spec), build_kernel(scheme, length)


def random_covariance_series(**kwargs):
    """``covariance_stack`` of a ``random_panel`` at every feasible date."""
    return covariance_stack(*random_panel(**kwargs))


def assert_correlation_constraints(spectra, tol=1e-9):
    """Each date's correlation eigenvalues sum to N and lie in [0, N]."""
    n = spectra.n_assets
    sums = spectra.values.sum(axis=1)
    assert np.all(np.abs(sums - n) < tol), f"trace constraint violated: {sums}"
    assert spectra.values.min() > -tol
    assert spectra.values.max() < n + tol


def correlation_from_iid(n=20, t_eff=200, seed=0, kind="gaussian-iid", beta=0.0):
    """``correlation_stack`` of a one-date rectangular window of ``t_eff``."""
    panel, kernel = random_panel(n, t_eff, 1, seed, kind, beta)
    return correlation_stack(covariance_stack(panel, kernel))


def basis_series(columns, n):
    """Spectrum series whose date-t leading eigenvector is e_{columns[t]}."""
    t_len = len(columns)
    values = np.tile(np.linspace(2.0, 0.5, n), (t_len, 1))
    vectors = np.empty((t_len, n, n))
    for t, lead in enumerate(columns):
        order = [lead] + [j for j in range(n) if j != lead]
        vectors[t] = np.eye(n)[:, order]
    return SpectrumSeries(make_business_dates(t_len), values, vectors)


def synthesize_spectrum(a, b, eps_mid, n):
    """The n ranks of the parametric log-spectrum shape with parameters a, b
    and eps_mid, as ``spectral.fit_ansatz`` fits it."""
    alpha = np.arange(1, n + 1)
    x = 0.5 - alpha / n
    return np.exp(np.log(eps_mid) + a * x / (1 - (2 * x / b) ** 4))


class TableSink:
    """Stands in for the bundle writer; keeps the rows of each table."""

    def __init__(self):
        self.tables = {}

    def write_table(self, stem, header, rows):
        self.tables[stem] = rows


def bundle_bytes(directory):
    """Every file under ``directory``, by its path relative to it, with its bytes."""
    out = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = fh.read()
    return out


def template_csv_lines(header, rows):
    """A CSV table as the per-row % template writes it: "%.17g" for a float
    cell (one whose type subclasses float) and "%s" for any other."""
    yield ",".join(header) + "\n"
    for row in rows:
        row = tuple(row)
        template = ",".join(
            "%.17g" if isinstance(cell, float) else "%s" for cell in row
        )
        yield template % row + "\n"
