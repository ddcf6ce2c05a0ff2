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
from covspec.spectral import leading_system, window_vectors
from covspec.subspace import matrix_lagged_correlation
from testutil import bundle_bytes

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
    """Each block walks its dates in chunks, here of 3 dates, fewer than
    REACH, so the factors carried into a chunk span several chunks before
    it. Every date of a block is gathered once, in date order, and only the
    REACH dates before a block's start once more, as its first walk; rho
    agrees with one chunk per block."""
    first = 40 - 33  # the panel index of the first lagged date
    reference, _ = lagged_rows(tmp_path, monkeypatch, "one-chunk", None)
    for per_block in (4, 30, None):
        with monkeypatch.context() as patch:
            patch.setattr(subspace, "CHUNK_BYTES", 3 * WINDOW_BYTES)
            rows, gathered = lagged_rows(tmp_path, monkeypatch, f"chunks-{per_block}", per_block)
        *walks, edges = gathered
        assert [len(g) for g in walks] == block_gathers(per_block or 33, 3), per_block
        want = []
        for lo in range(0, 33, per_block or 33):
            want += range(first + lo - min(REACH, lo), first + min(lo + (per_block or 33), 33))
        assert [j for g in walks for j in g] == want, per_block
        assert edges == [*range(first, first + REACH), *range(40 - REACH, 40)]
        assert [row[:2] for row in rows] == [row[:2] for row in reference]
        err = max(abs(a[2] - b[2]) for a, b in zip(rows, reference))
        assert err <= 1e-12, per_block


def test_near_static_lagged_series_rebuild_their_stack(tmp_path, monkeypatch, one_worker):
    """With the guard above every ratio, each series takes the stacked route
    on the whole factor stack, rebuilt after its blocks were dropped."""
    monkeypatch.setattr(subspace, "GRAM_MIN_GAMMA", 1.0)
    rows, gathered = lagged_rows(tmp_path, monkeypatch, "static", 4)
    # 9 blocks, then one whole stack per series, and no gather of the first
    # and last dates, which only the terms with the mean read
    assert [len(g) for g in gathered] == block_gathers(4) + [33] * 4
    config = validate_config(str(tmp_path / "static.cfg"))
    returns = generate_returns(config.ensemble)
    compact = build_kernel("rectangular", config.lagged_length)
    dates, windows = weighted_windows(returns, compact)
    factors = {"covariance": windows.copy()}
    factors["correlation"] = unit_rows(windows.copy(), dates, returns.asset_ids)
    for k in (1, 3):
        factors[f"projector_k{k}"] = window_vectors(windows, k)
    want = [
        (label, lag, float(rho))
        for label, f in factors.items()
        for lag, rho in zip(
            config.lags, matrix_lagged_correlation(subspace._outer_stack(f), config.lags)
        )
    ]
    assert rows == want
