"""The main stage runs one date at a time, in date order, and the lagged
stage over blocks of dates (``runner.DATES_PER_BLOCK``), each walked in chunks
(``subspace.CHUNK_BYTES``): the lagged rho moves by rounding only whatever
the block size, and a fault in a later block, on a forked worker, fails the
run with the same error and manifest as in one block. Tests that count
calls through a function patched into the runner pin the stages to one
worker (``one_worker``), whose items all run in this process."""

import json

import numpy as np
import pytest

from covspec import (
    IngestConfig,
    build_kernel,
    compute_returns,
    load_panel,
    make_business_dates,
    generate_returns,
    rolling_spectra,
    run_analysis,
    runner,
    validate_config,
)
from covspec import subspace, workers
from covspec.errors import AnalysisError, DegenerateAssetError
from covspec.moments import covariance_at, unit_rows, weighted_windows
from covspec.spectral import eigenvalue_counts, leading_system, window_vectors
from testutil import bundle_bytes, matrix_lagged_correlation

N_ASSETS = 12

# 40 return dates, a 30-date kernel: 11 evaluation dates
BLOCKED_CFG = f"""
ensemble.kind = one-factor
ensemble.assets = {N_ASSETS}
ensemble.dates = 40
ensemble.beta = 0.5
ensemble.seed = 5
kernel.scheme = long-memory
kernel.length = 30
analyses = spectrum,density,mp-compare,ansatz,projectors,fluctuation
projectors.ranks = 1,3
output.dump_matrices = true
"""

@pytest.mark.parametrize("flavor, out_format", [("covariance", "csv"), ("correlation", "json")])
def test_main_stage_forms_each_covariance_once_in_date_order(
    tmp_path, one_worker, monkeypatch, flavor, out_format
):
    calls = []

    def counted(returns, kernel, j):
        calls.append(returns.dates[j])
        return covariance_at(returns, kernel, j)

    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        BLOCKED_CFG
        + f"matrix.flavor = {flavor}\noutput.format = {out_format}\noutput.dir = {out}\n"
    )
    monkeypatch.setattr(runner, "covariance_at", counted)
    run_analysis(validate_config(str(cfg)))
    # one covariance per evaluation date, formed once, in date order
    assert calls == list(make_business_dates(40)[-11:])
    bundle = bundle_bytes(out)
    assert sum(name.startswith("matrices") for name in bundle) == 11
    assert "mp_compare.json" in bundle


def write_flat_asset_panel(path):
    """Prices whose asset 'bbb' stays flat for 15 returns from return 33 on,
    so a 10-date window of it has zero variance from return date 42 on."""
    dates = make_business_dates(61)
    rng = np.random.default_rng(8)
    prices = np.exp(np.cumsum(0.01 * rng.standard_normal((3, 61)), axis=1))
    prices[1, 33:49] = prices[1, 33]
    lines = ["date,aaa,bbb,ccc"] + [
        d + "," + ",".join(f"{v:.17g}" for v in prices[:, t]) for t, d in enumerate(dates)
    ]
    path.write_text("\n".join(lines) + "\n")


def test_variance_floor_fault_in_a_later_block(tmp_path, monkeypatch):
    """The lagged stage's correlation series scales each 10-date window to
    unit rows. Asset bbb's first zero-variance window ends at return date 42,
    the 34th of the 51 lagged dates: in blocks of 3 dates that is block 11,
    which the second of two workers, a forked child, runs after blocks that
    pass. The run fails as it does with all dates in one block."""
    csv_path = tmp_path / "p.csv"
    write_flat_asset_panel(csv_path)
    returns = compute_returns(load_panel(csv_path, IngestConfig()), IngestConfig())
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    assert workers._worker_count(17) == 2
    errors, manifests = {}, {}
    for per_block in (3, None):
        out = tmp_path / f"per-block-{per_block}"
        cfg = tmp_path / f"{per_block}.cfg"
        cfg.write_text(
            f"input.path = {csv_path}\nkernel.scheme = rectangular\nkernel.length = 10\n"
            "matrix.flavor = covariance\nanalyses = lagged\nlagged.length = 10\n"
            f"lagged.lags = 0,1,2\noutput.dir = {out}\n"
        )
        with monkeypatch.context() as patch:
            if per_block is not None:
                patch.setattr(runner, "DATES_PER_BLOCK", per_block)
            with pytest.raises(AnalysisError) as err:
                run_analysis(validate_config(str(cfg)))
        assert isinstance(err.value.__cause__, DegenerateAssetError)
        assert f"asset 'bbb' at date {returns.dates[42]!r}" in str(err.value)
        errors[per_block] = str(err.value)
        manifests[per_block] = json.loads((out / "manifest.json").read_text())
        assert manifests[per_block]["complete"] is False
        assert manifests[per_block]["error"] == errors[per_block]
    assert errors[3] == errors[None]
    assert manifests[3] == manifests[None]


def test_run_without_spectra_or_dump_builds_no_main_matrices(tmp_path, monkeypatch, one_worker):
    def refused(*args):
        raise AssertionError("main matrices built for no reader")

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        BLOCKED_CFG.replace("output.dump_matrices = true", "")
        .replace("spectrum,density,mp-compare,ansatz,projectors,fluctuation", "lagged")
        + f"lagged.lags = 0,1\noutput.dir = {tmp_path / 'out'}\n"
    )
    monkeypatch.setattr(runner, "covariance_at", refused)
    bundle = run_analysis(validate_config(str(cfg)))
    assert bundle.files == ("lagged_correlation.csv",)


def test_mp_compare_alone_solves_only_the_spectra_it_reads(tmp_path, monkeypatch, one_worker):
    """mp-compare reads correlation spectra: in covariance flavor its own, so
    the covariance spectra are not solved; in correlation flavor the main
    ones. Either way one values-only solve of a correlation matrix per date."""
    bundles = {}
    for flavor, analyses in [
        ("covariance", "mp-compare"),
        ("covariance", "mp-compare,spectrum"),
        ("correlation", "mp-compare"),
    ]:
        solved = []

        def counted(matrix, k, solved=solved):
            unit_diagonal = np.array_equal(np.diagonal(matrix), np.ones(len(matrix)))
            solved.append(("correlation" if unit_diagonal else "covariance", k))
            return leading_system(matrix, k)

        out = tmp_path / f"{flavor}-{analyses}"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            BLOCKED_CFG.replace("output.dump_matrices = true", "")
            .replace("spectrum,density,mp-compare,ansatz,projectors,fluctuation", analyses)
            + f"matrix.flavor = {flavor}\noutput.dir = {out}\n"
        )
        with monkeypatch.context() as patch:
            patch.setattr(runner, "leading_system", counted)
            run_analysis(validate_config(str(cfg)))
        bundles[flavor, analyses] = bundle_bytes(out)
        if analyses == "mp-compare":
            assert solved == [("correlation", 0)] * 11, flavor
    alone = bundles["covariance", "mp-compare"]
    for reference in (("covariance", "mp-compare,spectrum"), ("correlation", "mp-compare")):
        assert alone["mp_compare.json"] == bundles[reference]["mp_compare.json"], reference


def test_mp_compare_alone_counts_at_its_points_by_sturm_sequences(
    tmp_path, monkeypatch, one_worker
):
    """With 8 bins mp-compare has 11 points (9 bin edges and the two outside
    thresholds), at most N = 12. Alone in covariance flavor it reads the
    correlation only through them: each date's correlation eigenvalues are
    counted at them by Sturm sequences, once per date, and none is solved
    for. Its mp_compare.json is the bytes of the values source, the spectra
    of a correlation-flavor run with spectrum on."""
    bundles = {}
    for flavor, analyses in [("covariance", "mp-compare"), ("correlation", "mp-compare,spectrum")]:
        solved, counted = [], []

        def solving(matrix, k, solved=solved):
            solved.append(k)
            return leading_system(matrix, k)

        def counting(matrix, points, counted=counted):
            counted.append(len(points))
            return eigenvalue_counts(matrix, points)

        out = tmp_path / flavor
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            BLOCKED_CFG.replace("output.dump_matrices = true", "density.bins = 8")
            .replace("spectrum,density,mp-compare,ansatz,projectors,fluctuation", analyses)
            + f"matrix.flavor = {flavor}\noutput.dir = {out}\n"
        )
        with monkeypatch.context() as patch:
            patch.setattr(runner, "leading_system", solving)
            patch.setattr(runner, "eigenvalue_counts", counting)
            run_analysis(validate_config(str(cfg)))
        bundles[flavor] = bundle_bytes(out)
        if flavor == "covariance":
            assert (solved, counted) == ([], [11] * 11)
        else:
            assert (solved, counted) == ([0] * 11, [])
    assert bundles["covariance"]["mp_compare.json"] == bundles["correlation"]["mp_compare.json"]


LAGGED_CFG = BLOCKED_CFG.replace("output.dump_matrices = true", "").replace(
    "spectrum,density,mp-compare,ansatz,projectors,fluctuation", "lagged"
) + "lagged.length = 8\nlagged.lags = 0,1,2,5,10,25\n"
WINDOW_BYTES = 8 * N_ASSETS * 8
# 40 return dates, an 8-date window: 33 lagged dates
LAGGED_BLOCKINGS = {1: 33, 4: 9, 30: 2, None: 1}
REACH = 25  # max(lagged.lags)


def block_gathers(per_block, per_chunk=33):
    """The dates of each window gather of a lagged run in blocks of
    ``per_block`` dates walked in chunks of ``per_chunk``: each block walks
    the REACH dates before it (fewer at the start), which its pairs across
    its start read, then its own."""
    gathers = []
    for lo in range(0, 33, per_block):
        for start, end in ((lo - min(REACH, lo), lo), (lo, min(lo + per_block, 33))):
            gathers += [min(per_chunk, end - a) for a in range(start, end, per_chunk)]
    return gathers


def lagged_rows(tmp_path, monkeypatch, name, per_block, text=LAGGED_CFG):
    """The (series, lag, rho) rows of a lagged run in blocks of ``per_block``
    dates, and the panel indices of each window gather, in order; the
    blocks run in this process (``one_worker``)."""
    gathered = []

    def counted(returns, kernel, idx):
        gathered.append(list(idx))
        return weighted_windows(returns, kernel, idx)

    out = tmp_path / name
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text + f"output.dir = {out}\n")
    with monkeypatch.context() as patch:
        if per_block is not None:
            patch.setattr(runner, "DATES_PER_BLOCK", per_block)
        patch.setattr(runner, "weighted_windows", counted)
        run_analysis(validate_config(str(cfg)))
    lines = (out / "lagged_correlation.csv").read_text().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    return [(label, int(lag), float(rho)) for label, lag, rho in rows], gathered


def test_lagged_rho_agrees_for_every_block_size(tmp_path, monkeypatch, one_worker):
    """Blocks shorter and longer than the lags: pairs across a block edge
    come from the factors of the dates before the block, walked with it.
    The first and last REACH dates are gathered once more, for the terms
    with the mean."""
    results = {}
    for per_block, n_blocks in LAGGED_BLOCKINGS.items():
        rows, gathered = lagged_rows(tmp_path, monkeypatch, f"lagged-{per_block}", per_block)
        sizes = [len(g) for g in gathered]
        assert sizes == block_gathers(per_block or 33) + [2 * REACH], per_block
        # each block after the first walks the dates before it, each block
        # its own, then the ends
        assert len(gathered) == 2 * n_blocks
        results[per_block] = rows
    reference = results.pop(None)
    assert {label for label, _, _ in reference} == {
        "covariance", "correlation", "projector_k1", "projector_k3"
    }
    for per_block, rows in results.items():
        assert [row[:2] for row in rows] == [row[:2] for row in reference]
        err = max(abs(a[2] - b[2]) for a, b in zip(rows, reference))
        assert err <= 1e-12, per_block


def test_lagged_blocks_gather_each_date_once(tmp_path, monkeypatch, one_worker):
    """Each block walks its dates in chunks of at least REACH dates: here
    CHUNK_BYTES holds the windows of 3 dates, so a chunk holds 25, and the
    factors carried into a chunk are the tail of the one before it. Every
    date of a block is gathered once, in date order, and only the REACH
    dates before a block's start once more, as its first walk; rho agrees
    with one chunk per block."""
    first = 40 - 33  # the panel index of the first lagged date
    reference, _ = lagged_rows(tmp_path, monkeypatch, "one-chunk", None)
    for per_block in (4, 30, None):
        with monkeypatch.context() as patch:
            patch.setattr(subspace, "CHUNK_BYTES", 3 * WINDOW_BYTES)
            rows, gathered = lagged_rows(tmp_path, monkeypatch, f"chunks-{per_block}", per_block)
        *walks, edges = gathered
        assert [len(g) for g in walks] == block_gathers(per_block or 33, max(REACH, 3)), per_block
        want = []
        for lo in range(0, 33, per_block or 33):
            want += range(first + lo - min(REACH, lo), first + min(lo + (per_block or 33), 33))
        assert [j for g in walks for j in g] == want, per_block
        assert edges == [*range(first, first + REACH), *range(40 - REACH, 40)]
        assert [row[:2] for row in rows] == [row[:2] for row in reference]
        err = max(abs(a[2] - b[2]) for a, b in zip(rows, reference))
        assert err <= 1e-12, per_block


def stacked_reference(config):
    """The lagged correlation of each lagged series of ``config`` by
    ``matrix_lagged_correlation`` of its (T, N, N) stack of F_t F_t', with
    the centred to total variance ratio of each."""
    returns = generate_returns(config.ensemble)
    compact = build_kernel("rectangular", config.lagged_length)
    dates, windows = weighted_windows(returns, compact)
    factors = {"covariance": windows.copy()}
    factors["correlation"] = unit_rows(windows.copy(), dates, returns.asset_ids)
    for k in (1, 3):
        factors[f"projector_k{k}"] = window_vectors(windows, k)
    rho, ratio = {}, {}
    for label, f in factors.items():
        stack = f @ np.transpose(f, (0, 2, 1))
        centred = stack - stack.mean(axis=0)
        rho[label] = matrix_lagged_correlation(stack, config.lags)
        ratio[label] = np.sum(centred * centred) / np.sum(stack * stack)
    return rho, ratio


def assert_near_reference(rows, reference):
    """The rho of each series within 1e-12 of its largest |rho| of the
    reference's."""
    for label in reference:
        got = np.array([rho for name, _, rho in rows if name == label])
        want = reference[label]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), label


def test_near_static_lagged_series_rebuild_their_stack(tmp_path, monkeypatch, one_worker):
    """With the guard above every ratio, every series is summed once more,
    centred, in a second walk over the same blocks."""
    monkeypatch.setattr(subspace, "GRAM_MIN_GAMMA", 1.0)
    rows, gathered = lagged_rows(tmp_path, monkeypatch, "static", 4)
    # 9 blocks, then the same 9 blocks again, and no gather of the first
    # and last dates, which only the terms with the mean read
    walks = len(block_gathers(4))
    assert [len(g) for g in gathered] == block_gathers(4) * 2
    assert gathered[:walks] == gathered[walks:]
    config = validate_config(str(tmp_path / "static.cfg"))
    reference, _ = stacked_reference(config)
    assert [row[:2] for row in rows] == [(label, lag) for label in reference for lag in config.lags]
    assert_near_reference(rows, reference)


NEAR_STATIC_CFG = LAGGED_CFG.replace("ensemble.beta = 0.5", "ensemble.beta = 0.999")


@pytest.mark.parametrize("per_chunk", [3, None])
def test_one_factor_near_static_series_are_summed_centred(
    tmp_path, monkeypatch, one_worker, per_chunk
):
    """At beta = 0.999 the market mode holds still: the correlation and the
    rank-1 projector fall below GRAM_MIN_GAMMA and take a second, centred
    walk over the blocks, after the first walk and the gather of the first
    and last REACH dates. Every block and chunk size gives rho within 1e-12
    of the stacked reference; a chunk holds at least REACH dates, however
    few windows CHUNK_BYTES holds."""
    for per_block in LAGGED_BLOCKINGS:
        name = f"near-static-{per_block}-{per_chunk}"
        with monkeypatch.context() as patch:
            if per_chunk is not None:
                patch.setattr(subspace, "CHUNK_BYTES", per_chunk * WINDOW_BYTES)
            rows, gathered = lagged_rows(tmp_path, monkeypatch, name, per_block, NEAR_STATIC_CFG)
        walk = block_gathers(per_block or 33, max(REACH, per_chunk or 33))
        assert [len(g) for g in gathered] == walk + [2 * REACH] + walk, per_block
        reference, ratio = stacked_reference(validate_config(str(tmp_path / f"{name}.cfg")))
        assert ratio["correlation"] < ratio["projector_k1"] < subspace.GRAM_MIN_GAMMA
        assert min(ratio["covariance"], ratio["projector_k3"]) > subspace.GRAM_MIN_GAMMA
        assert_near_reference(rows, reference)


def test_one_asset_lagged_run_fails_on_its_constant_correlation(tmp_path, one_worker):
    """With one asset the correlation is 1 at every date: its second,
    centred walk finds a constant series, and the run fails."""
    cfg = tmp_path / "one.cfg"
    cfg.write_text(
        LAGGED_CFG.replace(f"ensemble.assets = {N_ASSETS}", "ensemble.assets = 1")
        .replace("projectors.ranks = 1,3", "projectors.ranks = 1")
        + f"output.dir = {tmp_path / 'one'}\n"
    )
    with pytest.raises(AnalysisError) as err:
        run_analysis(validate_config(str(cfg)))
    assert str(err.value) == "subspace: matrix series is constant; rho is undefined"
