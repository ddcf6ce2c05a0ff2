"""The CSV float kernel, ``bundle.format_floats``, gives exactly the bytes of
"%.17g" % v, and every table the writer builds on it equals the per-row %
template's text: mixed rows through ``bundle._csv_lines``, and labelled rows
of a float array, in bounded memory, through ``bundle._series_lines``."""

import math
import tracemalloc

import numpy as np
import pytest

from covspec import bundle, runner
from covspec.spectral import SpectrumSeries
from testutil import template_csv_lines


def reference(values, separators):
    return "".join("%.17g" % v + s for v, s in zip(values.tolist(), separators))


def corpus():
    """Random bit patterns, special values and every hard edge of the kernel."""
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308]
    edges = []
    for k in range(-323, 309):
        power = float(f"1e{k}")
        edges += [power, np.nextafter(power, 0.0), np.nextafter(power, math.inf),
                  float(f"9.999999999999999e{k}")]
    # notation edges and the fast path's limits, one ulp either side
    for v in (1e-5, 1e-4, 1e16, 1e17, 1e-270, 1e270):
        edges += [v, np.nextafter(v, 0.0), np.nextafter(v, math.inf)]
    # odd quarters in [2**50, 2**51): 18 digits ending in 5, exact ties at 17
    quarters = [2.0**50 + (2 * i + 1) / 4 for i in range(500)]
    quarters += [2.0**51 - (2 * i + 1) / 4 for i in range(500)]
    integers = rng.integers(10**15, 10**17, 5000).astype(np.float64)
    scaled = rng.standard_normal(20_000) * 10.0 ** rng.integers(-30, 30, 20_000)
    values = np.concatenate([bits, special, edges, quarters, integers, scaled])
    return np.concatenate([values, -values])


def test_kernel_gives_the_bytes_of_percent_format():
    values = corpus()
    separators = "".join(np.random.default_rng(1).choice([",", "\n"], len(values)))
    text = bundle.format_floats(values, separators.encode())
    expected = reference(values, separators)
    if text != expected:
        got, want = text.splitlines(), expected.splitlines()
        first = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        pytest.fail(f"line {first}: {got[first]!r} != {want[first]!r}")


def test_kernel_proves_ordinary_values_itself():
    """Values of the kind covspec writes take the vectorised route; only a
    rare one is left to "%"."""
    rng = np.random.default_rng(2)
    values = np.abs(rng.standard_normal(50_000)) * 10.0 ** rng.integers(-12, 12, 50_000)
    _, _, proven = bundle._decimal_digits(values)
    assert proven.mean() > 0.999


def test_kernel_blocks_and_empty_input():
    values = np.random.default_rng(3).standard_normal(2 * bundle.FLOAT_BLOCK + 5)
    separators = b"," * (len(values) - 1) + b"\n"
    assert bundle.format_floats(values, separators) == reference(values, separators.decode())
    assert bundle.format_floats(np.empty(0), b"") == ""
    with pytest.raises(ValueError):
        bundle.format_floats(values, b",")


def mixed_rows():
    """Rows of changing shapes: ints, strings, floats (nan, inf, -0.0 and
    numpy's float64), bools, numpy ints and a float32, which is not a float
    subclass and so is written by "%s"."""
    rng = np.random.default_rng(4)
    rows = []
    for i in range(3000):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8))
        shape = i % 6
        if shape == 0:
            rows.append([i, "lag", x, math.nan, -0.0])
        elif shape == 1:
            rows.append(("series", np.int64(i), np.float64(x), True, math.inf))
        elif shape == 2:
            rows.append([f"2001-01-{i:04d}", *rng.standard_normal(40).tolist()])
        elif shape == 3:
            rows.append([x, i, x / 3, np.float32(x), -math.inf, 0.0])
        elif shape == 4:
            rows.append([i, False])
        else:
            rows.append([])
    return rows


def test_table_text_equals_the_percent_template():
    header = ["a", "b", "c"]
    rows = mixed_rows()
    got = "".join(bundle._csv_lines(header, rows))
    assert got == "".join(template_csv_lines(header, rows))


class PeakWriter(bundle._BundleWriter):
    """The bundle writer, recording the traced peak of each labelled table."""

    def write_series(self, stem, header, labels, values):
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        name = super().write_series(stem, header, labels, values)
        self.peak = tracemalloc.get_traced_memory()[1] - before
        return name


def test_spectrum_table_is_written_in_bounded_memory(tmp_path):
    """2000 dates of 340 values, over 12 MB of text, written with a traced
    peak below 8 MB, a block of rows at a time, as the % template writes
    them (nan, inf and zeros of either sign included)."""
    rng = np.random.default_rng(5)
    values = np.sort(rng.lognormal(size=(2000, 340)), axis=1)[:, ::-1]
    values[7, -4:] = [math.nan, math.inf, 0.0, -0.0]
    dates = tuple(f"d{t:04d}" for t in range(2000))
    writer = PeakWriter(str(tmp_path), "csv")
    tracemalloc.start()
    try:
        runner._spectrum_files(writer, SpectrumSeries(dates, values))
    finally:
        tracemalloc.stop()
    text = (tmp_path / "spectrum.csv").read_text()
    assert len(text) > 12e6
    assert writer.peak < 8e6
    header = ["date"] + [f"eps_{i}" for i in range(1, 341)]
    rows = ([date, *row] for date, row in zip(dates, values.tolist()))
    assert text == "".join(template_csv_lines(header, rows))
