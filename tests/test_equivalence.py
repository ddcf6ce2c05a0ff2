"""End-to-end equivalence of the solvers each analysis uses with the
reference ones: a full eigendecomposition for every date's matrix, the
counts of its values for mp-compare, stacked (T,N,N) projector series and
their stacked mean, and for every lagged series the stacked F_t F_t' of its
factors with eigh vectors of the lagged covariance. The library's
``rolling_spectra`` writes the bytes of the run's spectrum files, and
matches the plain numpy reference.

Each config runs twice, once as shipped and once with the reference
functions patched into the runner in place of its per-date solve, its
per-date Sturm counts and its mean projector, on one worker
(``one_worker``), so the shipped run's solves are all counted in this
process. The lagged rows are computed here from the whole window stack,
apart from the runner, and mp-compare's histogram from every date's eigh
values. Every number of every output must agree to 1e-12 relative to the
largest magnitude in its column.
"""

import csv
import json
import os

import numpy as np
import pytest

from covspec import (
    MeanProjector,
    bundle,
    build_kernel,
    effective_length,
    generate_returns,
    mp_density,
    mp_support,
    rolling_spectra,
    run_analysis,
    runner,
    validate_config,
)
from covspec.moments import weighted_windows
from covspec.spectral import eigenvalue_counts, leading_system, window_vectors
from testutil import (
    correlation_stack,
    covariance_stack,
    eigendecompose,
    matrix_lagged_correlation,
    projector_series,
    reference_counts,
    reference_values,
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
    # lagged window of 8 returns, a third of N
    "thin-svd": dict(n=24, ranks="1,2,5", lagged_length=8),
    # lagged window just below N
    "window-above-crossover": dict(n=24, ranks="1,2,5", lagged_length=21),
    # window longer than N
    "window-above-n": dict(n=12, ranks="1,2,5", lagged_length=15),
    # window at least 2N long
    "window-above-2n": dict(n=12, ranks="1,2,5", lagged_length=30),
    # more assets: five of 60 vectors from MRRR on the tridiagonal form
    "mrrr-vectors": dict(n=60, ranks="1,2,5", lagged_length=8),
    # 20 bins: mp-compare's 23 points, at most N, take Sturm counts
    "sturm-counts": dict(n=24, ranks="1,2,5", lagged_length=8, bins=20),
}


def reference_system(matrix, k):
    system = eigendecompose(matrix)
    return system.values, system.vectors[:, :k] if k else None


def reference_mean_projector(series, k):
    mean = projector_series(series, k).mean(axis=0)
    return MeanProjector(k, (mean + mean.T) / 2.0, len(series.vectors))


def outer_stack(factors):
    return factors @ np.transpose(factors, (0, 2, 1))


def reference_window_vectors(windows, k):
    return np.array([eigendecompose(m).vectors[:, :k] for m in outer_stack(windows)])


def reference_lagged_columns(config):
    """The columns of lagged_correlation.csv from the whole (T,N,L) window
    stack: stacked F_t F_t' of each series, eigh vectors for the projectors."""
    compact = build_kernel("rectangular", config.lagged_length)
    windows = weighted_windows(generate_returns(config.ensemble), compact)[1]
    factors = {
        "covariance": windows,
        "correlation": windows / np.linalg.norm(windows, axis=2, keepdims=True),
    }
    ranks = [k for k in config.projector_ranks if k <= config.lagged_length]
    vectors = reference_window_vectors(windows, max(ranks))
    factors.update({f"projector_k{k}": vectors[:, :, :k] for k in ranks})
    rows = [
        (name, lag, rho)
        for name, f in factors.items()
        for lag, rho in zip(config.lags, matrix_lagged_correlation(outer_stack(f), config.lags))
    ]
    series, lags, rhos = zip(*rows)
    return {"series": list(series), "lag": np.array(lags, dtype=float), "rho": np.array(rhos)}


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


def case_config(tmp_path, name, case):
    cfg = tmp_path / f"{name}.cfg"
    bins = f"density.bins = {case['bins']}\n" if "bins" in case else ""
    cfg.write_text(ALL_ANALYSES.format(**case) + bins + f"output.dir = {tmp_path / name}\n")
    return validate_config(str(cfg))


def run(tmp_path, name, case):
    return run_analysis(case_config(tmp_path, name, case))


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_reference_solvers(tmp_path, monkeypatch, one_worker, case):
    svd_ranks, kept_vectors, counted = [], [], []

    def counted_window_vectors(windows, k):
        svd_ranks.append(k)
        return window_vectors(windows, k)

    def counted_leading_system(matrix, k):
        unit_diagonal = np.array_equal(np.diagonal(matrix), np.ones(len(matrix)))
        kept_vectors.append(("correlation" if unit_diagonal else "covariance", k))
        return leading_system(matrix, k)

    def counted_eigenvalue_counts(matrix, points):
        counted.append(len(points))
        return eigenvalue_counts(matrix, points)

    with monkeypatch.context() as patch:
        patch.setattr(runner, "window_vectors", counted_window_vectors)
        patch.setattr(runner, "leading_system", counted_leading_system)
        patch.setattr(runner, "eigenvalue_counts", counted_eigenvalue_counts)
        shipped = run(tmp_path, "shipped", CASES[case])
    # per date: the main (covariance) matrix keeps max(k) vectors, and the
    # M-P correlation matrix is counted at mp-compare's bins + 3 points, by
    # Sturm sequences where they number at most N, else from its values;
    # the lagged stage takes max(k) vectors from its windows
    k_max = max(int(k) for k in CASES[case]["ranks"].split(","))
    assert svd_ranks and set(svd_ranks) == {k_max}
    n_dates = 420 - 120 + 1
    points = CASES[case].get("bins", 60) + 3
    if points <= CASES[case]["n"]:
        assert kept_vectors == [("covariance", k_max)] * n_dates
        assert counted == [points] * n_dates
    else:
        assert kept_vectors[0::2] == [("covariance", k_max)] * n_dates
        assert kept_vectors[1::2] == [("correlation", 0)] * n_dates
        assert counted == []
    with monkeypatch.context() as patch:
        patch.setattr(runner, "leading_system", reference_system)
        patch.setattr(runner, "eigenvalue_counts", reference_counts)
        patch.setattr(runner, "mean_projector", reference_mean_projector)
        reference = run(tmp_path, "reference", CASES[case])

    assert shipped.files == reference.files
    assert len(shipped.files) == 9
    for name in shipped.files:
        got = read_columns(os.path.join(shipped.output_dir, name))
        if name == "lagged_correlation.csv":
            want = reference_lagged_columns(case_config(tmp_path, "lagged", CASES[case]))
        else:
            want = read_columns(os.path.join(reference.output_dir, name))
        assert got.keys() == want.keys(), name
        for key, expected in want.items():
            actual = got[key]
            if isinstance(expected, list):
                assert actual == expected, (name, key)
                continue
            assert actual.shape == expected.shape, (name, key)
            assert np.array_equal(np.isnan(actual), np.isnan(expected)), (name, key)
            if np.isnan(expected).all():
                # null on both sides, as ansatz.json's b without a quartic term
                continue
            scale = max(float(np.nanmax(np.abs(expected))), 1e-300)
            err = float(np.nanmax(np.abs(actual - expected)))
            assert err <= RTOL * scale, (name, key, err / scale)


@pytest.mark.parametrize("case", ["sturm-counts", "thin-svd"])
def test_mp_compare_is_the_histogram_of_every_dates_eigh_values(tmp_path, case):
    """mp_compare.json's per-bin deviation and outside fraction are those of
    the (a, b] histogram of the eigh values of every date's correlation,
    pooled here in plain numpy, whether the run counts them by Sturm
    sequences or among its values."""
    config = case_config(tmp_path, "mp", CASES[case])
    cfg = tmp_path / "mp.cfg"
    cfg.write_text(cfg.read_text().replace(
        "spectrum,density,mp-compare,ansatz,projectors,fluctuation,lagged", "mp-compare"))
    run_analysis(validate_config(str(cfg)))
    got = json.loads((tmp_path / "mp" / "mp_compare.json").read_text())

    kernel = build_kernel("long-memory", 120)
    values = np.sort(reference_values(
        correlation_stack(covariance_stack(generate_returns(config.ensemble), kernel))
    ).ravel())
    q = CASES[case]["n"] / effective_length(kernel)
    lo, hi = mp_support(q)
    edges = np.linspace(lo, hi, CASES[case].get("bins", 60) + 1)
    below = np.searchsorted(values, edges, side="right")
    densities = np.diff(below) / (values.size * np.diff(edges))
    mad = np.mean(np.abs(densities - mp_density((edges[:-1] + edges[1:]) / 2.0, q)))
    outside = np.mean((values <= lo - 0.1) | (values > hi + 0.1))
    assert abs(got["mad_per_bin"] - mad) <= RTOL * mad
    assert abs(got["outside_support_fraction"] - outside) <= RTOL * max(outside, 1e-300)


@pytest.mark.parametrize("flavor", ["covariance", "correlation"])
@pytest.mark.parametrize("ranks", [None, "1,3"])
def test_rolling_spectra_write_the_runs_spectrum_files(tmp_path, flavor, ranks):
    """The library route is the run's main stage: its values written as the
    run writes them are the run's spectrum files, byte for byte, with or
    without kept vectors, and both match eigh of each date's plain numpy
    matrix within RTOL of the date's top eigenvalue."""
    analyses = "spectrum" if ranks is None else "spectrum,projectors"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        ALL_ANALYSES.format(n=24, ranks=ranks or "1", lagged_length=8)
        .replace("ensemble.dates = 420", "ensemble.dates = 150")
        .replace("spectrum,density,mp-compare,ansatz,projectors,fluctuation,lagged", analyses)
        + f"matrix.flavor = {flavor}\noutput.dir = {tmp_path / 'run'}\n"
    )
    config = validate_config(str(cfg))
    run_analysis(config)
    kernel = build_kernel("long-memory", 120)
    returns = generate_returns(config.ensemble)
    k = 0 if ranks is None else 3
    spectra = rolling_spectra(returns, kernel, flavor, n_vectors=k)
    writer = bundle._BundleWriter(str(tmp_path / "library"), "csv")
    runner._spectrum_files(writer, spectra)
    for name in ("spectrum.csv", "mean_spectrum.csv"):
        assert (tmp_path / "library" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()

    series = covariance_stack(returns, kernel)
    if flavor == "correlation":
        series = correlation_stack(series)
    assert spectra.dates == series.dates
    want = reference_values(series)
    assert np.abs(spectra.values - want).max(axis=1).max() <= RTOL * want[:, 0].min()
    if k:
        assert spectra.vectors.shape == (len(series.dates), 24, k)
        got = projector_series(spectra.vectors, k)
        ref = np.array([eigendecompose(m).vectors[:, :k] for m in series.matrices])
        assert np.abs(got - projector_series(ref, k)).max() <= RTOL
    else:
        assert spectra.vectors is None
