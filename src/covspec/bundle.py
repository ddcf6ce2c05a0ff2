"""The report bundle's file format: CSV and JSON text, matrix dumps and the manifest.

Every file covspec writes, the bundle's (tables, matrix dumps, provenance
log, JSON, manifest) and the synth CSV, is UTF-8 text written here by
``_write_text``, which hashes the bytes as it writes them for the manifest.
Every float cell of a CSV (tables, matrix dumps, the synth panel) is written
by ``format_floats``, one vectorised kernel giving the bytes of "%.17g" % v;
``_csv_lines`` writes any other cell as "%s" % v. ``_BundleWriter`` writes a
run's files, CSV or JSON by the run's format, and then the manifest, which
lists each file with its content hash plus the resolved config.
"""

import functools
import hashlib
import io
import itertools
import json
import math
import os

import numpy as np

from .config import RunConfig

MANIFEST_NAME = "manifest.json"

# json.dump's encoder for every JSON file, the manifest included
_JSON = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)


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

    def write_matrix(self, flavor: str, date: str, matrix: np.ndarray) -> tuple[str, str, int]:
        """Write one date's matrix as ``matrices/<flavor>_<date>.csv``: its
        lower triangle, one row per asset, no header, CSV in either format.
        Returns the file's entry unregistered, for the caller to add to
        ``files`` or, after a failure at an earlier date, to delete."""
        os.makedirs(os.path.join(self.output_dir, "matrices"), exist_ok=True)
        cells, separators = _lower_triangle(len(matrix))
        text = format_floats(matrix[cells], separators)
        name = self.matrix_name(flavor, date)
        return (name, *_write_text(os.path.join(self.output_dir, name), (text,)))

    @staticmethod
    def matrix_name(flavor: str, date: str) -> str:
        """The name ``write_matrix`` gives one date's matrix in the bundle."""
        return os.path.join("matrices", f"{flavor}_{date}.csv")

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
