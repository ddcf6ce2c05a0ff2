"""End-to-end equivalence of the solvers each analysis uses with the
reference ones: full eigendecompositions kept for every date, stacked
(T,N,N) projector series and their stacked mean, and for every lagged
series the stacked F_t F_t' of its factors with eigh vectors of the lagged
covariance.

Each config runs twice, once as shipped and once with the reference
functions patched into the runner, and every number of every output must
agree to 1e-12 relative to the largest magnitude in its column.
"""

import csv
import json
import os

import numpy as np
import pytest

from covspec import (
    MeanProjector,
    SpectrumSeries,
    eigendecompose,
    matrix_lagged_correlation,
    projector_series,
    run_analysis,
    runner,
    spectrum_series,
    validate_config,
    window_vectors,
)

RTOL = 1e-12

ALL_ANALYSES = """
ensemble.kind = one-factor
ensemble.assets = {n}
ensemble.dates = 420
ensemble.beta = 0.5
ensemble.seed = 31
kernel.scheme = long-memory
kernel.length = 120
analyses = spectrum,density,mp-compare,ansatz,projectors,fluctuation,lagged
projectors.ranks = {ranks}
lagged.lags = 0,1,5,10,21,30
lagged.length = {lagged_length}
"""

CASES = {
    # window of 8 returns, at most 0.4 N
    "thin-svd": dict(n=24, ranks="1,2,5", lagged_length=8),
    # window above 0.4 N, where the thin SVD costs more than eigh of N x N
    "window-above-crossover": dict(n=24, ranks="1,2,5", lagged_length=21),
    # window longer than N
    "window-above-n": dict(n=12, ranks="1,2,5", lagged_length=15),
}


def reference_spectra(series, n_vectors=0):
    systems = [eigendecompose(m) for m in series.matrices]
    return SpectrumSeries(
        series.dates,
        np.array([s.values for s in systems]),
        np.array([s.vectors for s in systems]),
    )


def reference_mean_projector(series, k):
    mean = projector_series(series, k).mean(axis=0)
    return MeanProjector(k, (mean + mean.T) / 2.0, len(series.vectors))


def outer_stack(factors):
    return factors @ np.transpose(factors, (0, 2, 1))


def reference_window_vectors(windows, k):
    return np.array([eigendecompose(m).vectors[:, :k] for m in outer_stack(windows)])


def reference_factor_rho(factors, lags):
    return matrix_lagged_correlation(outer_stack(factors), lags)


def read_columns(path):
    """Numeric columns of a CSV, or flattened numbers of a JSON file; text
    cells are kept as text."""
    if path.endswith(".json"):
        with open(path) as fh:
            payload = json.load(fh)
        return {key: np.atleast_1d(np.asarray(value, dtype=float))
                for key, value in payload.items()}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    columns = {}
    for j, name in enumerate(rows[0]):
        cells = [row[j] for row in rows[1:]]
        try:
            columns[name] = np.array([float(c) for c in cells])
        except ValueError:
            columns[name] = cells
    return columns


def run(tmp_path, name, case):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(ALL_ANALYSES.format(**case) + f"output.dir = {tmp_path / name}\n")
    return run_analysis(validate_config(str(cfg)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_reference_solvers(tmp_path, monkeypatch, case):
    svd_ranks, kept_vectors = [], []

    def counted_window_vectors(windows, k):
        svd_ranks.append(k)
        return window_vectors(windows, k)

    def counted_spectrum_series(series, n_vectors=0):
        kept_vectors.append(n_vectors)
        return spectrum_series(series, n_vectors)

    with monkeypatch.context() as patch:
        patch.setattr(runner, "window_vectors", counted_window_vectors)
        patch.setattr(runner, "spectrum_series", counted_spectrum_series)
        shipped = run(tmp_path, "shipped", CASES[case])
    # main spectra keep max(k) vectors and the M-P correlation spectra none;
    # the lagged stage takes max(k) vectors from its windows
    k_max = max(int(k) for k in CASES[case]["ranks"].split(","))
    assert svd_ranks == [k_max]
    assert kept_vectors == [k_max, 0]
    with monkeypatch.context() as patch:
        patch.setattr(runner, "spectrum_series", reference_spectra)
        patch.setattr(runner, "mean_projector", reference_mean_projector)
        patch.setattr(runner, "window_vectors", reference_window_vectors)
        patch.setattr(runner, "factor_lagged_correlation", reference_factor_rho)
        reference = run(tmp_path, "reference", CASES[case])

    assert shipped.files == reference.files
    assert len(shipped.files) == 9
    for name in shipped.files:
        got = read_columns(os.path.join(shipped.output_dir, name))
        want = read_columns(os.path.join(reference.output_dir, name))
        assert got.keys() == want.keys(), name
        for key, expected in want.items():
            actual = got[key]
            if isinstance(expected, list):
                assert actual == expected, (name, key)
                continue
            assert actual.shape == expected.shape, (name, key)
            scale = max(float(np.nanmax(np.abs(expected))), 1e-300)
            assert np.array_equal(np.isnan(actual), np.isnan(expected)), (name, key)
            err = float(np.nanmax(np.abs(actual - expected)))
            assert err <= RTOL * scale, (name, key, err / scale)
