"""Config-driven orchestration: run analyses and emit a report bundle.

Every enabled analysis writes plot-ready CSV/JSON files into the output
directory; a manifest records each file with its content hash plus the
resolved config. Outputs are byte-deterministic for a fixed config and
seed. On failure the manifest is still written, marked incomplete.

Every file covspec writes, the bundle's (tables, matrix dumps, provenance
log, JSON, manifest) and the synth CSV, is UTF-8 text written here by
``_write_text``, which hashes the bytes as it writes them for the manifest.
Every float cell of a CSV (tables, matrix dumps, the synth panel) is written
by ``format_floats``, one vectorised kernel giving the bytes of "%.17g" % v;
``_csv_lines`` writes any other cell as "%s" % v.

The main stage's dates are independent, so they run in contiguous chunks,
one per usable CPU: chunk 0 in this process and the others in children
forked from it (``_forked``), each writing its rows of result arrays held in
anonymous shared memory. Every date runs the same code whatever the number
of workers, so the bytes do not depend on it, and a failure leaves the
error and the files a one-worker run leaves. ``rolling_spectra``, the
library's route from returns to spectra, is this same stage.
"""

from __future__ import annotations

import datetime as _dt
import functools
import hashlib
import io
import itertools
import json
import logging
import math
import mmap
import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .ensembles import generate_returns
from .errors import (
    AnalysisError,
    ConfigError,
    CovspecError,
    InsufficientDataError,
    NumericalError,
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
    default_density_bins,
    density_of_states_curve,
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

MANIFEST_NAME = "manifest.json"

# json.dump's encoder for every JSON file, the manifest included
_JSON = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)

# The lagged stage runs over blocks of dates holding at most this many bytes
# of N x L return windows, so no (T,N,L) window stack is built: it holds one
# block plus N x N running sums per lagged series, however many dates are
# evaluated. Smaller blocks lower the peak further, but then malloc hands each
# block's pages back to the kernel and faults them in again: at 2 MiB a
# longmem-full run took four times the page faults of 8 MiB and about 5%
# longer (2-vCPU x86-64 host, glibc). The main stage runs one date at a time.
BLOCK_BYTES = 8 * 2**20


@dataclass(frozen=True)
class ReportBundle:
    """Where a run wrote its outputs, and whether it finished."""

    output_dir: str
    files: tuple[str, ...]
    manifest_path: str
    complete: bool


# CSV float text. ``format_floats`` gives the bytes of "%.17g" % v for a whole
# array at once: |v| * 10**(16 - e) is formed to within about 1e-14 from a
# double-double power of ten and Dekker's exact product, rounded to its 17
# digits D, and D and e are laid out by the %g rules. A value it cannot prove
# rounds right that way (the part beyond its 17th digit within 1e-9 of 0, 1/2
# or 1, or |v| outside [1e-270, 1e270), nan and inf included) is formatted by
# "%" itself.

# values per kernel pass and per block of a labelled table: a pass's
# temporaries stay near 1.5 MB, twice that at 2**14 values
FLOAT_BLOCK = 2**13
_POWERS = 300  # the double-double table holds 10**p for |p| <= _POWERS
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
# slot of a cell's text: sign, "0." and three zeros, then digit k at
# _DIGIT + 2k and the point after it at _DIGIT + 2k + 1, then "e", its sign,
# three exponent digits, and the separator; a pad slot holds byte 0
_DIGIT = 6
_EXP = _DIGIT + 33
_SLOTS = _EXP + 6
# 1 to 17, one row per digit rank
_COUNTS = np.arange(1, 18, dtype=np.uint8)[:, None]


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """10**p as hi + lo for p in [-_POWERS, _POWERS], one row each: hi the
    nearest double, lo the nearest double to the rest, both from exact
    integers, and hi's Dekker halves."""
    table = []
    for p in range(-_POWERS, _POWERS + 1):
        if p >= 0:
            hi = float(10**p)
            lo = float(10**p - int(hi))
        else:
            q = 10**-p
            hi = 1 / q
            num, den = hi.as_integer_ratio()
            lo = (den - num * q) / (den * q)  # 1/q - hi, exactly rounded
        table.append((hi, lo, *_halves(hi)))
    return np.array(table)


def _halves(a):
    """Dekker's split of a into two 26-bit halves, a = h + l exactly."""
    t = a * _SPLIT
    h = t - (t - a)
    return h, a - h


def _decimal_digits(ax: np.ndarray):
    """For positive values ax: D, the 17 leading decimal digits of each
    rounded to nearest as an int64 in [10**16, 10**17), its exponent e
    (ax ~ D * 10**(e - 16)), and where that rounding is proven."""
    proven = (ax >= 1e-270) & (ax < 1e270)
    ax = np.where(proven, ax, 1.0)
    e10 = np.floor(np.log10(ax)).astype(np.int64)
    a_hi, a_lo = _halves(ax)
    for _ in range(3):  # log10 may miss e by one near a power of ten
        hi, lo, b_hi, b_lo = _powers_of_ten()[_POWERS + 16 - e10].T
        # ax * (hi + lo) = product + error + ax * lo, with Dekker's exact
        # product error ((a_hi*b_hi - product) + a_hi*b_lo + a_lo*b_hi) + a_lo*b_lo
        product = ax * hi
        error = a_hi * b_hi
        error -= product
        error += a_hi * b_lo
        error += a_lo * b_hi
        error += a_lo * b_lo
        error += ax * lo
        whole = np.floor(product)
        product -= whole
        product += error  # what lies beyond whole, within 9 of 0
        carry = np.floor(product)
        digits = whole.astype(np.int64)
        digits += carry.astype(np.int64)
        product -= carry  # the fraction beyond the 17 digits
        low, high = digits < 10**16, digits >= 10**17
        missed = low | high
        if not missed.any():
            break
        e10 += high
        e10 -= low
    proven &= ~missed & (product > 1e-9) & (product < 1 - 1e-9)
    proven &= np.abs(product - 0.5) > 1e-9
    digits += product > 0.5
    carried = digits == 10**17
    digits[carried] = 10**16
    e10 += carried
    return digits, e10, proven


def _format_block(x: np.ndarray, separators: np.ndarray) -> str:
    """``format_floats`` of at most FLOAT_BLOCK values."""
    n = len(x)
    ax = np.abs(x)
    zero = ax == 0
    d, e10, proven = _decimal_digits(ax)
    d[zero] = 0
    e10[zero] = 0
    proven |= zero
    # the 17 digits, most significant first, from two int32 halves
    digits = np.empty((17, n), np.uint8)
    top = d // 10**9
    for part, ranks in ((top, range(7, -1, -1)), (d - top * 10**9, range(16, 7, -1))):
        q = part.astype(np.int32)
        for k in ranks:
            next_q = q // 10
            digits[k] = q - next_q * 10
            q = next_q
    # digits up to the last nonzero one (0 for zero)
    n_sig = ((digits != 0) * _COUNTS).max(axis=0)
    e = e10.astype(np.int16)
    fixed = (e >= -4) & (e < 17)
    whole = fixed & (e >= 0)  # fixed notation with an integer part
    small = fixed & (e < 0)  # "0." and -e - 1 zeros before the digits
    exponent = ~fixed
    grid = np.zeros((_SLOTS, n), np.uint8)
    np.copyto(grid[0], ord("-"), where=np.signbit(x))
    np.copyto(grid[1], ord("0"), where=small)
    np.copyto(grid[2], ord("."), where=small)
    for k in range(3):
        np.copyto(grid[3 + k], ord("0"), where=small & (e < -1 - k))
    # a digit is kept up to the last nonzero one, and in the integer part
    kept = np.maximum(n_sig, np.where(whole, e + 1, 0))
    digits += ord("0")
    digits *= _COUNTS <= kept
    grid[_DIGIT:_EXP:2] = digits
    # the point follows digit e (fixed) or digit 0 (exponent), if a digit follows it
    point = np.where(whole, e, np.where(exponent, 0, -1)) + 1
    points = grid[_DIGIT + 1 : _EXP - 1 : 2]
    np.equal(_COUNTS[:16], point, out=points, casting="unsafe")
    points &= _COUNTS[:16] < n_sig
    points *= ord(".")
    ae = np.abs(e)
    np.copyto(grid[_EXP], ord("e"), where=exponent)
    np.copyto(grid[_EXP + 1], np.where(e < 0, ord("-"), ord("+")), where=exponent, casting="unsafe")
    np.copyto(grid[_EXP + 2], ae // 100 + ord("0"), where=exponent & (ae >= 100), casting="unsafe")
    np.copyto(grid[_EXP + 3], ae // 10 % 10 + ord("0"), where=exponent, casting="unsafe")
    np.copyto(grid[_EXP + 4], ae % 10 + ord("0"), where=exponent, casting="unsafe")
    grid[_EXP + 5] = separators
    for j in np.flatnonzero(~proven):
        text = ("%.17g" % x[j]).encode("ascii") + separators[j : j + 1].tobytes()
        grid[:, j] = 0
        grid[: len(text), j] = np.frombuffer(text, np.uint8)
    # transposed 1024 cells at a time: that slab stays in cache, which halved
    # the transpose's time against one pass (2-vCPU x86-64 host)
    return "".join(
        grid[:, i : i + 1024].T.tobytes().translate(None, b"\0").decode("ascii")
        for i in range(0, n, 1024)
    )


def format_floats(values, separators: bytes) -> str:
    """The text of "%.17g" % v for every value, each followed by its own byte
    of ``separators`` (one per value, none of them byte 0), formatted
    FLOAT_BLOCK values at a time."""
    x = np.asarray(values, dtype=np.float64).ravel()
    seps = np.frombuffer(separators, np.uint8)
    if len(seps) != len(x):
        raise ValueError(f"{len(x)} values but {len(seps)} separators")
    return "".join(
        _format_block(x[i : i + FLOAT_BLOCK], seps[i : i + FLOAT_BLOCK])
        for i in range(0, len(x), FLOAT_BLOCK)
    )


def _csv_lines(header, rows):
    """A CSV table as text: the header line, then the rows 1024 at a time. A
    float cell (one whose type subclasses float, numpy's float64 included)
    reads "%.17g" % v, from ``format_floats``, and any other cell str(v)."""
    yield ",".join(header) + "\n"
    rows = iter(rows)
    while block := list(itertools.islice(rows, 1024)):
        floats = [v for row in block for v in row if isinstance(v, float)]
        texts = iter(format_floats(floats, b"\n" * len(floats)).splitlines())
        yield "".join(
            ",".join(next(texts) if isinstance(v, float) else str(v) for v in row) + "\n"
            for row in block
        )


def _series_lines(header, labels, values: np.ndarray):
    """A CSV table whose rows are a label then a row of a 2-D float array, as
    text: the header line, then about FLOAT_BLOCK values at a time, each
    block's rows one ``format_floats`` call, each row its label and a line of
    that text."""
    yield ",".join(header) + "\n"
    width = values.shape[1]
    step = max(1, FLOAT_BLOCK // max(width, 1))
    separators = (b"," * (width - 1) + b"\n") * step
    for lo in range(0, len(values), step):
        block = values[lo : lo + step]
        lines = format_floats(block, separators[: block.size]).splitlines(keepends=True)
        yield "".join("%s,%s" % pair for pair in zip(labels[lo : lo + step], lines))


@functools.cache
def _lower_triangle(n: int):
    """The indices of an N x N matrix's lower-triangle cells, row by row, and
    their CSV separators: "," within a matrix row and a newline at its end."""
    separators = np.full(n * (n + 1) // 2, ord(","), np.uint8)
    separators[np.cumsum(np.arange(1, n + 1)) - 1] = ord("\n")
    return np.tril_indices(n), separators.tobytes()


class _HashedFile(io.FileIO):
    """A file opened for writing that hashes and counts the bytes written."""

    def __init__(self, path: str):
        super().__init__(path, "w")
        self.sha256 = hashlib.sha256()
        self.size = 0

    def write(self, data) -> int:
        written = super().write(data)
        self.sha256.update(memoryview(data)[:written])
        self.size += written
        return written


def _write_text(path: str, lines) -> tuple[str, int]:
    """Write text lines as UTF-8, whatever the locale, buffered as ``open``
    buffers them; returns the file's sha256 hex digest and byte count."""
    raw = _HashedFile(path)
    with io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
    return raw.sha256.hexdigest(), raw.size


def _json_cell(value):
    """A table cell as a JSON value; a non-finite number, which JSON cannot
    hold, becomes null."""
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


class _BundleWriter:
    """Writes every file of a bundle, registering each, and then the manifest."""

    def __init__(self, output_dir: str, out_format: str):
        self.output_dir = output_dir
        self.out_format = out_format
        # (name, sha256, bytes) of each file written
        self.files: list[tuple[str, str, int]] = []
        os.makedirs(output_dir, exist_ok=True)

    def _write(self, name: str, lines) -> str:
        self.files.append((name, *_write_text(os.path.join(self.output_dir, name), lines)))
        return name

    def write_table(self, stem: str, header: list[str], rows) -> str:
        """Write a tabular output as CSV, or as a JSON row list when the
        run format is json."""
        if self.out_format == "json":
            payload = [{key: _json_cell(v) for key, v in zip(header, row)} for row in rows]
            return self.write_json(f"{stem}.json", payload)
        return self._write(f"{stem}.csv", _csv_lines(header, rows))

    def write_series(self, stem: str, header: list[str], labels, values: np.ndarray) -> str:
        """Write a table whose rows are a label then a row of a 2-D float
        array, as ``write_table`` writes it."""
        if self.out_format == "json":
            rows = ([label, *row.tolist()] for label, row in zip(labels, values))
            return self.write_table(stem, header, rows)
        return self._write(f"{stem}.csv", _series_lines(header, labels, values))

    def write_json(self, name: str, payload) -> str:
        """Write strict JSON, streamed chunk by chunk as json.dump does."""
        return self._write(name, itertools.chain(_JSON.iterencode(payload), ("\n",)))

    def write_lines(self, name: str, lines) -> str:
        return self._write(name, (line + "\n" for line in lines))

    def write_matrix(self, flavor: str, date: str, matrix: np.ndarray) -> None:
        """Write one date's matrix as ``matrices/<flavor>_<date>.csv``: its
        lower triangle, one row per asset, no header, CSV in either format."""
        os.makedirs(os.path.join(self.output_dir, "matrices"), exist_ok=True)
        cells, separators = _lower_triangle(len(matrix))
        text = format_floats(matrix[cells], separators)
        self._write(os.path.join("matrices", f"{flavor}_{date}.csv"), (text,))

    def write_manifest(self, config: RunConfig, complete: bool, error: str | None = None) -> str:
        """Write the manifest of every file written so far; returns its path."""
        entries = [
            {"name": name, "sha256": sha256, "bytes": size}
            for name, sha256, size in sorted(self.files)
        ]
        manifest = {"complete": complete, "config": config.flat(), "files": entries}
        if error is not None:
            manifest["error"] = error
        return os.path.join(self.output_dir, self.write_json(MANIFEST_NAME, manifest))


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


def _lagged_dates(returns, config, eval_dates) -> tuple[str, ...]:
    """The lagged stage's dates, with the lags checked against their count."""
    compact = build_kernel("rectangular", config.lagged_length)
    idx = resolve_eval_indices(returns, compact, eval_dates)
    checked_lags(config.lags, len(idx))
    return tuple(returns.dates[j] for j in idx)


def _lagged_file(writer, returns, config, dates) -> None:
    """The lagged correlation of every lagged series, from running sums fed
    one block of dates at a time. A block's windows are gathered, read for the
    covariance sums and the projector vectors, then scaled to unit rows in
    place for the correlation sums, and dropped."""
    compact = build_kernel("rectangular", config.lagged_length)
    n, length = returns.n_assets, compact.length
    # A window of L dates spans at most L directions, so ranks above L get no
    # lagged projector series; nor does rank N, whose projector is the
    # identity at every date, a constant series.
    ranks = [k for k in config.projector_ranks if k <= length and k < n]
    names = ["covariance", "correlation", *(f"projector_k{k}" for k in ranks)]
    sums = {name: LaggedSums(config.lags, len(dates)) for name in names}
    # bounds both the windows and the L x L grams of the sums
    step = max(1, BLOCK_BYTES // (8 * length * max(n, length)))
    for lo in range(0, len(dates), step):
        block, windows = weighted_windows(returns, compact, dates[lo : lo + step])
        vectors = window_vectors(windows, max(ranks)) if ranks else None
        sums["covariance"].add(windows)
        unit_rows(windows, block, returns.asset_ids)
        sums["correlation"].add(windows)
        for k in ranks:
            sums[f"projector_k{k}"].add(vectors[:, :, :k])
        del windows, vectors  # freed before the next block is gathered

    def stack(name):
        """The (T, N, m) factors of one series, built only for a near-static one."""
        windows = weighted_windows(returns, compact, dates)[1]
        if name == "covariance":
            return windows
        if name == "correlation":
            return unit_rows(windows, dates, returns.asset_ids)
        return window_vectors(windows, int(name.removeprefix("projector_k")))

    rows = [
        [name, lag, float(rho)]
        for name in names
        for lag, rho in zip(config.lags, sums[name].rho(lambda: stack(name)))
    ]
    writer.write_table("lagged_correlation", ["series", "lag", "rho"], rows)


def _solved(date, matrix, k):
    """``leading_system`` of one of the run's own matrices, exactly symmetric
    by construction and so not checked; a failure names the date."""
    try:
        return leading_system(matrix, k)
    except CovspecError as exc:
        raise type(exc)(f"at date {date!r}: {exc}") from exc


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_count() -> int:
    """The OS threads of this process: the entries of /proc/self/task where
    it exists (OpenBLAS's threads included), else Python's own threads."""
    task = "/proc/self/task"
    return len(os.listdir(task)) if os.path.isdir(task) else threading.active_count()


def _worker_count(n_dates: int) -> int:
    """How many processes share the main stage's dates: one per usable CPU,
    at most one per date. One where ``os.fork`` is missing, where OpenBLAS
    may run threads of its own (``OPENBLAS_NUM_THREADS`` other than "1":
    they use the cores already, and a forked child would inherit their locks
    in whatever state they were), or where this process runs any other
    thread, for the same reason: numpy imported before covspec has started
    OpenBLAS's threads before the variable was set."""
    if (
        not hasattr(os, "fork")
        or os.environ.get("OPENBLAS_NUM_THREADS") != "1"
        or _thread_count() > 1
    ):
        return 1
    return min(_usable_cpus(), n_dates)


def _shared_array(*shape: int) -> np.ndarray:
    """A zeroed float array in anonymous shared memory: the rows a forked
    worker writes are the rows its parent reads."""
    count = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * count), count=count).reshape(shape)


def _child(write_fd: int, run, lo: int, hi: int):
    """A forked worker's whole life: run its chunk, send the outcome pickled
    through its pipe, and leave by ``os._exit``, with status 0 only once the
    outcome is sent. It runs none of the parent's exit handlers and flushes
    none of its buffers."""
    status = 1
    try:
        with open(write_fd, "wb") as pipe:
            pickle.dump(run(lo, hi), pipe)
        status = 0
    finally:
        os._exit(status)


def _end_if_orphaned(parent: int) -> None:
    """End a forked worker at once, writing nothing more, when ``parent``,
    the pid of the process that forked it, has died: the worker then has
    another parent pid. In ``parent`` itself this does nothing."""
    if os.getpid() != parent and os.getppid() != parent:
        os._exit(1)


def _forked(n_items: int, run):
    """``run(lo, hi)`` over contiguous chunks of range(n_items), one per
    worker (``_worker_count``): chunk 0 in this process and each other chunk
    in a forked child, all at once. Returns the (lo, hi, outcome) of every
    chunk in order: what ``run`` returned, or None for a child that ended
    without sending it. Every child is reaped before this returns or raises;
    one still running when this process raises is killed first."""
    workers = _worker_count(n_items)
    bounds = [n_items * c // workers for c in range(workers + 1)]
    chunks = list(zip(bounds, bounds[1:]))
    children = []  # (pid, read end of its pipe) for chunks 1 on, in order
    reaped = set()
    try:
        for lo, hi in chunks[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(write_fd, run, lo, hi)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        outcomes = [run(*chunks[0])]
        for pid, pipe in children:
            report = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped.add(pid)
            sent = os.waitstatus_to_exitcode(status) == 0
            outcomes.append(pickle.loads(report) if sent else None)
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [(lo, hi, outcome) for (lo, hi), outcome in zip(chunks, outcomes)]


def _main_stage(
    returns, kernel, idx, flavor, n_vectors=0, corr_apart=False, dump=None, solve=True
):
    """The main matrices at panel indices ``idx``, date by date: each date's
    covariance W W' and, in correlation flavor or with ``corr_apart``, its
    correlation are formed once, the ``flavor`` one dumped by the bundle
    writer ``dump`` if given, and solved for the spectra read. The dates are
    split into contiguous chunks run at once by ``_forked``, each in date
    order, writing its rows of the shared result arrays; a failure raises as
    a one-worker run would, the error of the earliest date as an
    AnalysisError naming its stage, with that run's dumps. Returns the
    ``flavor`` spectra with their top ``n_vectors`` vectors (None with
    ``solve`` false) and the values alone of the correlation, solved apart
    with ``corr_apart`` (else the ``flavor`` spectra)."""
    n = returns.n_assets
    dates = tuple(returns.dates[j] for j in idx)
    values = _shared_array(len(dates), n) if solve else None
    vectors = _shared_array(len(dates), n, n_vectors) if solve and n_vectors else None
    corr_values = _shared_array(len(dates), n) if corr_apart else None
    files = dump.files if dump is not None else []
    parent = os.getpid()

    def run(lo, hi):
        """Dates lo to hi - 1 in date order, each after checking that the
        caller's process still lives. Returns the error that stopped them, or
        None, and its __cause__, sent apart because pickling an error drops
        it, and the dumps' (name, sha256, bytes) entries, taken off the
        writer's list for the parent to register."""
        first = len(files)
        error = None
        try:
            for t in range(lo, hi):
                _end_if_orphaned(parent)
                date, j = dates[t], idx[t]
                cov = _stage("moments", lambda: covariance_at(returns, kernel, j))
                if flavor == CORRELATION or corr_apart:
                    corr = _stage(
                        "moments", lambda: correlation_of(cov, date, returns.asset_ids)
                    )
                base = corr if flavor == CORRELATION else cov
                if dump is not None:
                    dump.write_matrix(flavor, date, base)
                if solve:
                    values[t], kept = _stage(
                        "spectral", lambda: _solved(date, base, n_vectors)
                    )
                    if n_vectors:
                        vectors[t] = kept
                if corr_apart:
                    corr_values[t] = _stage("spectral", lambda: _solved(date, corr, 0))[0]
        except Exception as exc:
            error = exc
        entries = files[first:]
        del files[first:]
        return error, error.__cause__ if error is not None else None, entries

    error = cause = None
    for lo, hi, outcome in _forked(len(dates), run):
        if outcome is None:
            outcome = NumericalError(
                f"main stage: the worker for dates {dates[lo]!r} to "
                f"{dates[hi - 1]!r} ended without reporting"
            ), None, []
        exc, exc_cause, entries = outcome
        if error is None:
            files.extend(entries)
            error, cause = exc, exc_cause
        else:
            # after the earliest failure: a one-worker run writes none of these
            for name, _, _ in entries:
                os.remove(os.path.join(dump.output_dir, name))
    if error is not None:
        raise error from cause
    spectra = SpectrumSeries(dates, values, vectors) if solve else None
    return spectra, SpectrumSeries(dates, corr_values) if corr_apart else spectra


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

        readers = {"spectrum", "density", "ansatz", "projectors", "fluctuation"}
        # mp-compare reads the main spectra in correlation flavor, its own otherwise.
        if config.flavor == CORRELATION:
            readers.add("mp-compare")
        solve = bool(analyses & readers)
        corr_apart = "mp-compare" in analyses and config.flavor != CORRELATION
        spectra = corr_spectra = None
        if solve or corr_apart or config.dump_matrices:
            n_vectors = (
                max(config.projector_ranks) if analyses & {"projectors", "fluctuation"} else 0
            )
            dump = writer if config.dump_matrices else None
            spectra, corr_spectra = _main_stage(
                returns, kernel, idx, config.flavor, n_vectors, corr_apart, dump, solve
            )

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
            _stage("subspace", lambda: _lagged_file(writer, returns, config, lagged_dates))
    except Exception as exc:
        manifest_path = writer.write_manifest(config, complete=False, error=str(exc))
        logger.error("run failed, wrote incomplete manifest %s", manifest_path)
        raise
    files = tuple(sorted(name for name, _, _ in writer.files))
    manifest_path = writer.write_manifest(config, complete=True)
    return ReportBundle(config.output_dir, files, manifest_path, True)


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
