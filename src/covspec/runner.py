"""Config-driven orchestration: run analyses and emit a report bundle.

Every enabled analysis writes plot-ready CSV/JSON files into the output
directory; a manifest records each file with its content hash plus the
resolved config. Outputs are byte-deterministic for a fixed config and
seed. On failure the manifest is still written, marked incomplete.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .ensembles import generate_returns
from .errors import (
    AnalysisError,
    ConfigError,
    CovspecError,
    InsufficientDataError,
    ParameterError,
)
from .kernels import build_kernel, effective_length
from .moments import (
    CORRELATION,
    dump_matrices,
    resolve_eval_indices,
    rolling_covariance,
    to_correlation,
    unit_rows,
    weighted_windows,
)
from .panel import ReturnPanel, compute_returns, load_panel, map_prices
from .spectral import (
    DensityBins,
    SpectrumSeries,
    default_density_bins,
    density_of_states_curve,
    fit_ansatz,
    fit_mp_q,
    log_mean_spectrum,
    mp_density,
    mp_support,
    spectral_density,
    spectrum_series,
    window_vectors,
)
from .subspace import (
    factor_lagged_correlation,
    fluctuation_index,
    mean_projector,
    projector_spectrum,
)

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"

# The main stage runs over blocks of dates holding at most this many bytes of
# N x N matrices, so no (T,N,N) stack is built: besides one block it holds only
# the (T,N) values and the (T,N,k) vectors, however many dates are evaluated.
BLOCK_BYTES = 16 * 2**20


@dataclass(frozen=True)
class ReportBundle:
    """Where a run wrote its outputs, and whether it finished."""

    output_dir: str
    files: tuple[str, ...]
    manifest_path: str
    complete: bool


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _json_cell(value):
    """A table cell as a JSON value; a non-finite number, which JSON cannot
    hold, becomes null."""
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


class _BundleWriter:
    """Accumulates output files and writes the manifest."""

    def __init__(self, output_dir: str, out_format: str):
        self.output_dir = output_dir
        self.out_format = out_format
        self.files: list[str] = []
        os.makedirs(output_dir, exist_ok=True)

    def _register(self, name: str) -> None:
        self.files.append(name)

    def write_table(self, stem: str, header: list[str], rows) -> str:
        """Write a tabular output as CSV, or as a JSON row list when the
        run format is json."""
        if self.out_format == "json":
            name = f"{stem}.json"
            payload = [{key: _json_cell(v) for key, v in zip(header, row)} for row in rows]
            self.write_json(name, payload)
            return name
        lines = (",".join(_fmt(v) for v in row) + "\n" for row in rows)
        return self._write_csv(stem, header, lines)

    def write_series(self, stem: str, header: list[str], labels, values: np.ndarray) -> str:
        """Write a table whose rows are a label and a row of the float matrix
        ``values``. As CSV one "%.17g" template formats each row: the text
        ``_fmt`` gives (nan and -0 included) in about half the time."""
        if self.out_format == "json":
            return self.write_table(
                stem, header, ([label, *row] for label, row in zip(labels, values))
            )
        template = "%s" + ",%.17g" * values.shape[1] + "\n"
        lines = (template % (label, *row) for label, row in zip(labels, values.tolist()))
        return self._write_csv(stem, header, lines)

    def _write_csv(self, stem: str, header: list[str], lines) -> str:
        name = f"{stem}.csv"
        path = os.path.join(self.output_dir, name)
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(lines)
        self._register(name)
        return name

    def write_json(self, name: str, payload) -> str:
        path = os.path.join(self.output_dir, name)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        self._register(name)
        return name

    def write_lines(self, name: str, lines) -> str:
        path = os.path.join(self.output_dir, name)
        with open(path, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
        self._register(name)
        return name

    def register_external(self, names) -> None:
        self.files.extend(names)

    def write_manifest(self, config: RunConfig, complete: bool, error: str | None = None) -> str:
        entries = []
        for name in sorted(self.files):
            path = os.path.join(self.output_dir, name)
            with open(path, "rb") as fh:
                data = fh.read()
            entries.append(
                {
                    "name": name,
                    "sha256": hashlib.sha256(data).hexdigest(),
                    "bytes": len(data),
                }
            )
        manifest = {"complete": complete, "config": config.flat(), "files": entries}
        if error is not None:
            manifest["error"] = error
        path = os.path.join(self.output_dir, MANIFEST_NAME)
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        return path


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
    panel = load_panel(config.input_path, config.ingest)
    writer.write_lines("provenance.log", panel.provenance)
    return compute_returns(map_prices(panel))


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


def _mp_compare_file(writer, corr_spectra, kernel, n_assets, config) -> None:
    q_teff = n_assets / effective_length(kernel)
    q_used = config.mp_q if config.mp_q is not None else q_teff
    if not 0.0 < q_used <= 1.0:
        raise ParameterError(
            f"M-P comparison needs q in (0, 1]; got q={q_used:.6g} "
            "(set mp.q to override)"
        )
    lo, hi = mp_support(q_used)
    hist = spectral_density(
        corr_spectra, DensityBins("linear", lo, hi, config.density_bins)
    )
    reference = mp_density(hist.centers, q_used)
    peak = float(reference.max())
    mad = float(np.mean(np.abs(hist.densities - reference)))
    values = corr_spectra.values.ravel()
    outside = float(np.mean((values < lo - 0.1) | (values > hi + 0.1)))
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
    mean = log_mean_spectrum(spectra)
    fit = fit_ansatz(mean)
    writer.write_json(
        "ansatz.json",
        {
            "a": fit.a,
            "b": fit.b,
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


def _projector_files(writer, spectra, config, want_spectrum, want_fluctuation) -> None:
    spectrum_rows = []
    fluctuation_rows = []
    for k in config.projector_ranks:
        mp = mean_projector(spectra, k)
        if want_spectrum:
            for i, value in enumerate(projector_spectrum(mp), start=1):
                spectrum_rows.append([k, i, float(value)])
        if want_fluctuation:
            idx = fluctuation_index(mp)
            fluctuation_rows.append([k, idx.gamma, idx.gamma_max, idx.ratio])
    if want_spectrum:
        writer.write_table(
            "mean_projector_spectrum", ["k", "index", "value"], spectrum_rows
        )
    if want_fluctuation:
        writer.write_table(
            "fluctuation_index", ["k", "gamma", "gamma_max", "ratio"], fluctuation_rows
        )


def _lagged_file(writer, returns, config, eval_dates) -> None:
    compact = build_kernel("rectangular", config.lagged_length)
    dates, windows = weighted_windows(returns, compact, eval_dates)
    # Everything read from the raw windows comes first; then they are scaled
    # to unit rows in place, so no second window stack is held.
    # A window of L dates spans at most L directions: ranks above L get no
    # lagged projector series.
    ranks = [k for k in config.projector_ranks if k <= config.lagged_length]
    vectors = window_vectors(windows, max(ranks)) if ranks else None
    rhos = {"covariance": factor_lagged_correlation(windows, config.lags)}
    unit_rows(windows, dates, returns.asset_ids)
    rhos["correlation"] = factor_lagged_correlation(windows, config.lags)
    del windows
    for k in ranks:
        rhos[f"projector_k{k}"] = factor_lagged_correlation(vectors[:, :, :k], config.lags)
    rows = [
        [label, lag, float(rho)]
        for label, rho_of_lag in rhos.items()
        for lag, rho in zip(config.lags, rho_of_lag)
    ]
    writer.write_table("lagged_correlation", ["series", "lag", "rho"], rows)


def _main_stage(writer, returns, kernel, dates, config):
    """The main matrices, block by block: dump them if asked, and solve the
    spectra the analyses read. Returns the main spectra (with the top
    max(projectors.ranks) vectors for projectors and fluctuation) and the
    correlation spectra for mp-compare, or None for each not read."""
    analyses = set(config.analyses)
    readers = {"spectrum", "density", "ansatz", "projectors", "fluctuation"}
    # mp-compare reads the main spectra in correlation flavor, its own otherwise.
    if config.flavor == CORRELATION:
        readers.add("mp-compare")
    need_spectra = bool(analyses & readers)
    corr_apart = "mp-compare" in analyses and config.flavor != CORRELATION
    if not (need_spectra or corr_apart or config.dump_matrices):
        return None, None
    n_vectors = (
        max(config.projector_ranks) if analyses & {"projectors", "fluctuation"} else 0
    )
    n = returns.n_assets
    step = max(1, BLOCK_BYTES // (8 * n * n))
    t_len = len(dates)
    values = np.empty((t_len, n)) if need_spectra else None
    vectors = np.empty((t_len, n, n_vectors)) if n_vectors else None
    corr_values = np.empty((t_len, n)) if corr_apart else None
    for lo in range(0, t_len, step):
        block = dates[lo : lo + step]
        rows = slice(lo, lo + len(block))
        cov = _stage("moments", lambda: rolling_covariance(returns, kernel, block))
        base = cov
        if config.flavor == CORRELATION:
            base = _stage("moments", lambda: to_correlation(cov))
        if config.dump_matrices:
            names = dump_matrices(base, os.path.join(config.output_dir, "matrices"))
            writer.register_external(os.path.join("matrices", name) for name in names)
        if need_spectra:
            part = _stage("spectral", lambda: spectrum_series(base, n_vectors=n_vectors))
            values[rows] = part.values
            if n_vectors:
                vectors[rows] = part.vectors[:, :, :n_vectors]
        if corr_apart:
            corr_values[rows] = _stage(
                "spectral", lambda: spectrum_series(to_correlation(cov))
            ).values
        del cov, base  # freed before the next block is built
    spectra = SpectrumSeries(dates, values, vectors) if need_spectra else None
    return spectra, SpectrumSeries(dates, corr_values) if corr_apart else spectra


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
        eval_dates = _stage("moments", lambda: _eval_range(config, returns))
        idx = _stage("moments", lambda: resolve_eval_indices(returns, kernel, eval_dates))
        dates = tuple(returns.dates[j] for j in idx)

        spectra, corr_spectra = _main_stage(writer, returns, kernel, dates, config)

        analyses = set(config.analyses)
        if "spectrum" in analyses:
            _stage("spectral", lambda: _spectrum_files(writer, spectra))
        if "density" in analyses:
            _stage("spectral", lambda: _density_file(writer, spectra, config.flavor, config))
        if "mp-compare" in analyses:
            _stage(
                "spectral",
                lambda: _mp_compare_file(writer, corr_spectra, kernel, n, config),
            )
        if "ansatz" in analyses:
            _stage("spectral", lambda: _ansatz_files(writer, spectra))
        if analyses & {"projectors", "fluctuation"}:
            _stage(
                "subspace",
                lambda: _projector_files(
                    writer,
                    spectra,
                    config,
                    "projectors" in analyses,
                    "fluctuation" in analyses,
                ),
            )
        if "lagged" in analyses:
            _stage("subspace", lambda: _lagged_file(writer, returns, config, eval_dates))
    except Exception as exc:
        manifest_path = writer.write_manifest(config, complete=False, error=str(exc))
        logger.error("run failed, wrote incomplete manifest %s", manifest_path)
        raise
    manifest_path = writer.write_manifest(config, complete=True)
    return ReportBundle(
        config.output_dir, tuple(sorted(writer.files)), manifest_path, True
    )


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
    os.makedirs(config.output_dir, exist_ok=True)
    if config.synth_path is not None:
        path = config.synth_path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
    else:
        path = os.path.join(config.output_dir, f"{config.synth_output}.csv")

    ids = panel.asset_ids
    with open(path, "w") as fh:
        fh.write("date," + ",".join(ids) + "\n")
        if config.synth_output == "returns":
            for t, date in enumerate(panel.dates):
                fh.write(date + "," + ",".join(f"{v:.17g}" for v in panel.returns[:, t]) + "\n")
        else:
            x = np.concatenate(
                [np.zeros((panel.n_assets, 1)), np.cumsum(panel.returns, axis=1)], axis=1
            )
            prices = np.exp(x)
            dates = (_previous_weekday(panel.dates[0]), *panel.dates)
            for t, date in enumerate(dates):
                fh.write(date + "," + ",".join(f"{v:.17g}" for v in prices[:, t]) + "\n")
    return path
