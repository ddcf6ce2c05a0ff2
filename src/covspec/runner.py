"""Config-driven orchestration: the stages of a run, from returns to a report bundle.

Every enabled analysis writes plot-ready CSV/JSON files into the output
directory through the bundle writer (``bundle._BundleWriter``); a manifest
records each file with its content hash plus the resolved config. Outputs
are byte-deterministic for a fixed config and seed. On failure the manifest
is still written, marked incomplete.

The main stage forms each evaluation date's matrices and solves the one of
the run's flavor. Its dates are independent, so they run as the items of
``workers._forked``, dealt to one worker per usable CPU, each date sending
back its values, kept vectors, mp-compare's counts of correlation
eigenvalues at or below its points and dump entry; this process stores the
values and vectors in date order and sums the counts. A failure leaves the
error and the files a one-worker run leaves. ``rolling_spectra``, the
library's route from returns to spectra, is this same stage. The analyses
that read its spectra write their files within ``_main_files``, so the
spectra are dropped before the lagged stage, whose blocks of dates run the
same way, forks its workers.
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import functools
import logging
import os
from dataclasses import dataclass

import numpy as np

from . import subspace, workers
from .bundle import _BundleWriter, _json_cell, _series_lines, _write_text
from .config import RunConfig
from .ensembles import generate_returns
from .errors import (
    AnalysisError,
    ConfigError,
    CovspecError,
    InsufficientDataError,
    ParameterError,
)
from .kernels import WeightKernel, build_kernel, effective_length
from .moments import (
    CORRELATION,
    COVARIANCE,
    correlation_of,
    covariance_at,
    resolve_eval_indices,
    unit_rows,
    weighted_windows,
)
from .panel import ReturnPanel, compute_returns, load_panel
from .spectral import (
    DensityBins,
    SpectrumSeries,
    counted_density,
    default_density_bins,
    density_of_states_curve,
    eigenvalue_counts,
    fit_ansatz,
    fit_mp_q,
    leading_system,
    log_mean_spectrum,
    mp_density,
    mp_support,
    spectral_density,
    window_vectors,
)
from .subspace import (
    LaggedSums,
    checked_lags,
    fluctuation_index,
    mean_projector,
    projector_spectrum,
)

logger = logging.getLogger(__name__)

# The lagged stage deals its dates to the workers in blocks of this many
# dates. The blocks fix the order of the sums, and so the bytes, whatever
# the number of workers; each re-gathers the max(lags) dates before it. A
# block is never held whole: a worker walks it in chunks of
# ``subspace.CHUNK_BYTES`` or of max(lags) dates, whichever is more,
# holding one chunk and the terms of the max(lags) dates before it, the
# tail of the chunk before (their factors, or, in a near-static series'
# second walk, their N x N centred matrices), and the run N x N sums per
# lagged series, however long the block and however many dates are
# evaluated. The main stage runs one date at a time.
DATES_PER_BLOCK = 300


@dataclass(frozen=True)
class ReportBundle:
    """Where a finished run wrote its outputs."""

    output_dir: str
    files: tuple[str, ...]
    manifest_path: str


def _stage(name: str, fn):
    try:
        return fn()
    except AnalysisError:
        raise
    except CovspecError as exc:
        raise AnalysisError(f"{name}: {exc}") from exc


def _resolve_returns(config: RunConfig, writer: _BundleWriter) -> ReturnPanel:
    if config.ensemble is not None:
        return generate_returns(config.ensemble)
    try:
        panel = load_panel(config.input_path, config.ingest)
    except OSError as exc:
        # still an OSError, so the "input" stage does not prefix its name
        raise type(exc)(f"input.path: {exc}") from exc
    writer.write_lines("provenance.log", panel.provenance)
    return compute_returns(panel, config.ingest)


def _eval_range(config: RunConfig, returns: ReturnPanel):
    """The panel dates inside [eval.start, eval.end], or None for all."""
    start, end = config.eval_start, config.eval_end
    if start is None and end is None:
        return None
    dates = [
        d
        for d in returns.dates
        if (start is None or d >= start) and (end is None or d <= end)
    ]
    if not dates:
        raise InsufficientDataError(f"no panel dates inside [{start!r}, {end!r}]")
    return dates


def _spectrum_files(writer, spectra: SpectrumSeries) -> None:
    n = spectra.n_assets
    header = ["date"] + [f"eps_{i}" for i in range(1, n + 1)]
    writer.write_series("spectrum", header, spectra.dates, spectra.values)
    mean = log_mean_spectrum(spectra)
    writer.write_table(
        "mean_spectrum",
        ["rank", "value", "inclusion_count"],
        [
            [rank, float(v), int(c)]
            for rank, (v, c) in enumerate(zip(mean.values, mean.counts), start=1)
        ],
    )


def _density_file(writer, spectra, flavor, config) -> None:
    bins = default_density_bins(
        spectra, flavor, config.density_bins, scale=config.density_scale
    )
    hist = spectral_density(spectra, bins)
    writer.write_table(
        "density",
        ["center", "width", "density"],
        list(zip(hist.centers, hist.widths, hist.densities)),
    )


def _mp_q(config, kernel, n_assets) -> tuple[float, float]:
    """mp-compare's q = N / T_eff and the q it compares against: ``mp.q``,
    else that one, which must lie in (0, 1]."""
    q_teff = n_assets / effective_length(kernel)
    q_used = config.mp_q if config.mp_q is not None else q_teff
    if not 0.0 < q_used <= 1.0:
        raise ParameterError(
            f"M-P comparison needs q in (0, 1]; got q={q_used:.6g} "
            "(set mp.q to override)"
        )
    return q_teff, q_used


def _mp_points(q_used, config) -> np.ndarray:
    """mp-compare's points, ascending: the edges of its bins over the M-P
    support [lo, hi] between its outside thresholds lo - 0.1 and hi + 0.1."""
    bins = DensityBins("linear", *mp_support(q_used), config.density_bins)
    return np.concatenate(([bins.lo - 0.1], bins.edges(), [bins.hi + 0.1]))


def _mp_compare_file(writer, below, total, q_teff, q_used, config) -> None:
    """mp_compare.json from the numbers ``below`` of the ``total`` correlation
    eigenvalues at or below each of mp-compare's points (``_mp_points``)."""
    lo, hi = mp_support(q_used)
    hist = counted_density(
        DensityBins("linear", lo, hi, config.density_bins), below[1:-1], total
    )
    reference = mp_density(hist.centers, q_used)
    peak = float(reference.max())
    mad = float(np.mean(np.abs(hist.densities - reference)))
    outside = float((below[0] + total - below[-1]) / total)
    writer.write_json(
        "mp_compare.json",
        {
            "q_from_teff": q_teff,
            "q_used": q_used,
            "q_fitted": fit_mp_q(hist),
            "support": [lo, hi],
            "peak_density": peak,
            "mad_per_bin": mad,
            "mad_over_peak": mad / peak,
            "outside_support_fraction": outside,
        },
    )


def _ansatz_files(writer, spectra) -> None:
    fit = fit_ansatz(log_mean_spectrum(spectra))
    writer.write_json(
        "ansatz.json",
        {
            "a": fit.a,
            "b": _json_cell(fit.b),
            "eps_mid": fit.eps_mid,
            "rms_residual": fit.rms_residual,
            "fit_range": list(fit.fit_range),
            "n_ranks": fit.n_ranks,
        },
    )
    eps_lo, eps_hi = fit.eps_range()
    grid = np.geomspace(eps_lo, eps_hi, 200)
    curve = density_of_states_curve(fit, grid)
    writer.write_table(
        "density_of_states",
        ["eps", "density"],
        list(zip(curve.eps, curve.density)),
    )


def _projector_files(writer, spectra, config) -> None:
    projectors = [mean_projector(spectra, k) for k in config.projector_ranks]
    if "projectors" in config.analyses:
        rows = [
            [mp.k, i, float(value)]
            for mp in projectors
            for i, value in enumerate(projector_spectrum(mp), start=1)
        ]
        writer.write_table("mean_projector_spectrum", ["k", "index", "value"], rows)
    if "fluctuation" in config.analyses:
        rows = [[mp.k, *fluctuation_index(mp)] for mp in projectors]
        writer.write_table("fluctuation_index", ["k", "gamma", "gamma_max", "ratio"], rows)


def _lagged_dates(returns, config, eval_dates) -> np.ndarray:
    """The panel indices of the lagged stage's dates, with the lags checked
    against their count."""
    compact = build_kernel("rectangular", config.lagged_length)
    idx = np.array(resolve_eval_indices(returns, compact, eval_dates))
    checked_lags(config.lags, len(idx))
    return idx


def _series_factors(returns, compact, idx, ranks):
    """(name, (b, N, m) factors) of each lagged series at the panel indices
    ``idx``, in order. The windows are gathered once and read for the
    covariance and the projector vectors, then scaled to unit rows in place
    for the correlation, so each series' factors must be read before the
    next is drawn."""
    dates, windows = weighted_windows(returns, compact, idx)
    vectors = window_vectors(windows, max(ranks)) if ranks else None
    yield "covariance", windows
    yield "correlation", unit_rows(windows, dates, returns.asset_ids)
    for k in ranks:
        yield f"projector_k{k}", vectors[:, :, :k]


def _lagged_file(writer, returns, config, idx) -> None:
    """The lagged correlation of every lagged series at the panel indices
    ``idx``, from running sums over blocks of dates. The blocks run as the
    items of ``workers._forked``, and each walks its dates in chunks of at
    least max(lags) dates: it gathers the chunk's windows, forms its
    factors and their terms (``LaggedSums.terms``), takes their sums with
    ``LaggedSums.partial``, given the terms of the max(lags) dates before
    the chunk, which its pairs across its start read, and keeps only the
    last max(lags) of its own, the next chunk's. A block starts by walking
    the max(lags) dates before it, one chunk, for their terms alone; it sends
    back its sums per series, and the sums are merged in block order, so
    the bytes do not depend on the number of workers. The factors of the
    first and last max(lags) dates, which the with-mean terms read, are
    rebuilt here. A near-static series, whose ``rho`` is None, is summed
    once more over its centred terms, in a second walk over the same
    blocks for those series alone."""
    compact = build_kernel("rectangular", config.lagged_length)
    n, length = returns.n_assets, compact.length
    # A window of L dates spans at most L directions, so ranks above L get no
    # lagged projector series; nor does rank N, whose projector is the
    # identity at every date, a constant series.
    ranks = [k for k in config.projector_ranks if k <= length and k < n]
    reach = max(config.lags)
    step = DATES_PER_BLOCK
    # bounds both the windows and the L x L grams of the sums, but spans
    # max(lags) dates, so a chunk's carry is the tail of the one before it
    chunk = max(1, reach, subspace.CHUNK_BYTES // (8 * length * max(n, length)))
    dates = [returns.dates[j] for j in idx]
    blocks = [dates[lo : lo + step] for lo in range(0, len(dates), step)]

    def walk(sums):
        """Feed each series of ``sums``, keyed by name, every block's terms."""
        wanted = [k for k in ranks if f"projector_k{k}" in sums]

        def run_block(b):
            lo, hi = b * step, min(b * step + step, len(idx))
            carry = dict.fromkeys(sums)  # terms of the last max(lags) dates walked
            parts = dict.fromkeys(sums)
            # the dates before the block, for their terms alone, then its own
            for first, last in ((lo - min(reach, lo), lo), (lo, hi)):
                for start in range(first, last, chunk):
                    chunk_idx = idx[start : min(start + chunk, last)]
                    for name, f in _series_factors(returns, compact, chunk_idx, wanted):
                        if name not in sums:
                            continue
                        terms = sums[name].terms(f)
                        if first == lo:
                            part = sums[name].partial(terms, carry[name])
                            parts[name] = part if parts[name] is None else parts[name].then(part)
                        # the old carry goes before its successor is copied, and these
                        # terms before the next chunk's are formed
                        carry[name] = None
                        carry[name] = terms[max(0, len(terms) - reach) :].copy()
                        del terms
            return list(parts.values())

        def merge(b, parts):
            for s, part in zip(sums.values(), parts):
                s.merge(part)

        workers._forked("lagged stage", blocks, run_block, merge)

    names = ["covariance", "correlation", *(f"projector_k{k}" for k in ranks)]
    sums = {name: LaggedSums(config.lags, len(idx)) for name in names}
    walk(sums)

    @functools.cache
    def ends():
        """Each series' factors at the first and at the last max(lags) dates,
        gathered once, when a series first reads them."""
        edge_idx = np.concatenate((idx[:reach], idx[len(idx) - reach :]))
        edge = _series_factors(returns, compact, edge_idx, ranks)
        return {s: (f[:reach].copy(), f[reach:].copy()) for s, f in edge}

    rho = {name: sums[name].rho(lambda: ends()[name]) for name in names}
    centred = {name: sums[name].centred() for name in names if rho[name] is None}
    if centred:
        walk(centred)
        rho.update((name, c.rho(None)) for name, c in centred.items())
    rows = [[name, lag, float(r)] for name in names for lag, r in zip(config.lags, rho[name])]
    writer.write_table("lagged_correlation", ["series", "lag", "rho"], rows)


def _at_date(date, solve, *args):
    """``solve(*args)`` on one of the run's own matrices, exactly symmetric
    by construction and so not checked; a failure names the date."""
    try:
        return solve(*args)
    except CovspecError as exc:
        raise type(exc)(f"at date {date!r}: {exc}") from exc


def _solved(date, matrix, k):
    """``leading_system`` of one of the run's own matrices, at ``date``."""
    return _at_date(date, leading_system, matrix, k)


def _counts(date, corr, points, values):
    """The number of eigenvalues of the correlation ``corr`` at ``date`` at
    or below each of ``points``: from its solved ``values`` where the run
    solves it (None where it does not), else by Sturm counts where the
    points number at most N, else from its values solved here."""
    if values is None:
        if len(points) <= len(corr):
            return _at_date(date, eigenvalue_counts, corr, points)
        values = _solved(date, corr, 0)[0]
    return np.searchsorted(values[::-1], points, side="right")


def _main_stage(returns, kernel, idx, flavor, k=None, writer=None, points=None):
    """The main matrices at panel indices ``idx``, date by date: each date's
    covariance W W' and, where the ``flavor`` or the counts read it, its
    correlation are formed once; the matrix of ``flavor`` is solved for its
    values and its top ``k`` vectors (no solve for k None), the number of
    correlation eigenvalues at or below each of ``points`` counted
    (``_counts``), and then, with a bundle ``writer``, that same matrix
    dumped, so a date whose solve fails writes no dump. The dates run as the
    items of ``workers._forked``, each sending back its values and vectors,
    its counts and its dump entry; the values and vectors are stored here in
    date order and the counts summed. A failure raises as a one-worker run
    would, the error of the earliest date as an AnalysisError naming its
    stage, with that run's dumps: those of the dates before it registered,
    and every later one, whichever worker wrote it, deleted. Returns the
    spectra (None for k None) and the summed counts (None without
    ``points``)."""
    n = returns.n_assets
    dates = tuple(returns.dates[j] for j in idx)
    values = None if k is None else np.empty((len(dates), n))
    vectors = np.empty((len(dates), n, k)) if k else None
    below = None if points is None else np.zeros(len(points), dtype=np.int64)
    entries = []  # the dump entries of the dates taken, in date order

    def run_date(t):
        """Date t's solve and counts, then its dump (neither changes the
        matrix), and the dump's entry, or None with no dump."""
        date, j = dates[t], idx[t]
        matrix = _stage("moments", lambda: covariance_at(returns, kernel, j))
        corr = None
        if flavor == CORRELATION or points is not None:
            corr = _stage("moments", lambda: correlation_of(matrix, date, returns.asset_ids))
            if flavor == CORRELATION:
                matrix = corr
        system = None if k is None else _stage("spectral", lambda: _solved(date, matrix, k))
        solved = system[0] if system and flavor == CORRELATION else None
        counts = None if points is None else _stage(
            "spectral", lambda: _counts(date, corr, points, solved)
        )
        entry = writer.write_matrix(flavor, date, matrix) if writer else None
        return system, counts, entry

    def take(t, result):
        system, counts, entry = result
        if system is not None:
            values[t] = system[0]
            if vectors is not None:
                vectors[t] = system[1]
        if counts is not None:
            below[:] += counts
        entries.append(entry)

    try:
        workers._forked("main stage", [(d,) for d in dates], run_date, take)
    finally:
        if writer is not None:
            writer.files.extend(entries)
            # a failed run's dumps from the failing date on, written by
            # workers that ran ahead of it
            for date in dates[len(entries) :]:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(writer.output_dir, writer.matrix_name(flavor, date)))
    return None if k is None else SpectrumSeries(dates, values, vectors), below


def rolling_spectra(
    returns: ReturnPanel,
    kernel: WeightKernel,
    flavor: str = COVARIANCE,
    eval_dates=None,
    n_vectors: int = 0,
) -> SpectrumSeries:
    """The descending spectrum of the weighted covariance W W' at each
    evaluation date, or of its correlation for ``flavor`` "correlation",
    with its top ``n_vectors`` eigenvectors per date as a (T, N, n_vectors)
    stack (None for 0). ``eval_dates`` is None for every feasible date, or a
    sequence of panel dates.

    This is the run's main stage: one date's N x N matrices at a time, the
    dates shared among forked workers, and a failure at a date raises the
    AnalysisError a run raises, naming the stage and the date.
    """
    if flavor not in (COVARIANCE, CORRELATION):
        raise ParameterError(f"unknown matrix flavor {flavor!r}")
    if not 0 <= n_vectors <= returns.n_assets:
        raise ParameterError(f"n_vectors={n_vectors} outside [0, {returns.n_assets}]")
    idx = resolve_eval_indices(returns, kernel, eval_dates)
    return _main_stage(returns, kernel, idx, flavor, n_vectors)[0]


def _main_files(writer, returns, kernel, idx, config) -> None:
    """The main stage at panel indices ``idx`` and the files of the analyses
    that read it. Its spectra go out of scope on return, so the lagged
    stage's workers, forked afterwards, do not count their pages."""
    analyses = set(config.analyses)
    n = returns.n_assets
    points = None  # mp-compare's, at which its correlation eigenvalues are counted
    if "mp-compare" in analyses:
        mp_q = _stage("spectral", lambda: _mp_q(config, kernel, n))
        points = _stage("spectral", lambda: _mp_points(mp_q[1], config))
    k = None  # the kept vectors, where the spectra are read
    if analyses & {"spectrum", "density", "ansatz", "projectors", "fluctuation"}:
        k = max(config.projector_ranks) if analyses & {"projectors", "fluctuation"} else 0
    if k is None and points is None and not config.dump_matrices:
        return
    dump = writer if config.dump_matrices else None
    main, below = _main_stage(returns, kernel, idx, config.flavor, k, dump, points)

    if "spectrum" in analyses:
        _stage("spectral", lambda: _spectrum_files(writer, main))
    if "density" in analyses:
        _stage("spectral", lambda: _density_file(writer, main, config.flavor, config))
    if "mp-compare" in analyses:
        _stage("spectral", lambda: _mp_compare_file(writer, below, len(idx) * n, *mp_q, config))
    if "ansatz" in analyses:
        _stage("spectral", lambda: _ansatz_files(writer, main))
    if analyses & {"projectors", "fluctuation"}:
        _stage("subspace", lambda: _projector_files(writer, main, config))


def run_analysis(config: RunConfig) -> ReportBundle:
    """Run every enabled analysis and write the report bundle."""
    writer = _BundleWriter(config.output_dir, config.output_format)
    try:
        returns = _stage("input", lambda: _resolve_returns(config, writer))
        n = returns.n_assets
        bad_ranks = [k for k in config.projector_ranks if k > n]
        if bad_ranks:
            raise ConfigError(
                [f"projectors.ranks: rank {k} exceeds panel size {n}" for k in bad_ranks]
            )
        kernel = _stage(
            "kernel",
            lambda: build_kernel(
                config.kernel_scheme,
                config.kernel_length,
                mu=config.kernel_mu,
                tau0_days=config.kernel_tau0_days,
            ),
        )
        analyses = set(config.analyses)
        # Every main matrix W W' has rank at most r: for r < k < N the top-k
        # subspace holds null directions that rounding picks. The rank-N
        # projector is the identity whatever the null space.
        r = min(n, int(np.count_nonzero(kernel.weights > 0)))
        undetermined = [k for k in config.projector_ranks if r < k < n]
        if undetermined and analyses & {"projectors", "fluctuation"}:
            raise ConfigError(
                [
                    f"projectors.ranks: rank {k} is not determined by the data: "
                    f"every main matrix has rank at most {r} (N = {n}); "
                    f"use ranks up to {r}, or {n}"
                    for k in undetermined
                ]
            )
        eval_dates = _stage("moments", lambda: _eval_range(config, returns))
        idx = _stage("moments", lambda: resolve_eval_indices(returns, kernel, eval_dates))
        if "lagged" in analyses:
            lagged_dates = _stage(
                "subspace", lambda: _lagged_dates(returns, config, eval_dates)
            )
        _main_files(writer, returns, kernel, idx, config)
        if "lagged" in analyses:
            _stage("subspace", lambda: _lagged_file(writer, returns, config, lagged_dates))
    except Exception as exc:
        manifest_path = writer.write_manifest(config, complete=False, error=str(exc))
        logger.error("run failed, wrote incomplete manifest %s", manifest_path)
        raise
    files = tuple(sorted(name for name, _, _ in writer.files))
    manifest_path = writer.write_manifest(config, complete=True)
    return ReportBundle(config.output_dir, files, manifest_path)


def _previous_weekday(iso_date: str) -> str:
    day = _dt.date.fromisoformat(iso_date) - _dt.timedelta(days=1)
    while day.weekday() >= 5:
        day -= _dt.timedelta(days=1)
    return day.isoformat()


def run_synth(config: RunConfig) -> str:
    """Generate a synthetic panel and write it as the standard CSV.

    Price panels are reconstructed from the returns by cumulative sum with
    x(0) = 0, then exponentiated so that ingestion maps them back.
    """
    if config.ensemble is None:
        raise ConfigError(["synth requires ensemble.* keys"])
    panel = generate_returns(config.ensemble)
    path = config.synth_path or os.path.join(config.output_dir, f"{config.synth_output}.csv")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)

    if config.synth_output == "returns":
        dates, values = panel.dates, panel.returns
    else:
        x = np.concatenate(
            [np.zeros((panel.n_assets, 1)), np.cumsum(panel.returns, axis=1)], axis=1
        )
        dates, values = (_previous_weekday(panel.dates[0]), *panel.dates), np.exp(x)
    _write_text(path, _series_lines(["date", *panel.asset_ids], dates, values.T))
    return path
