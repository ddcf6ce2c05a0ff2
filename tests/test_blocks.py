"""The main stage runs over blocks of dates (``runner.BLOCK_BYTES``): every
output byte is the same whatever the block size, and a fault in a later
block fails the run with the same error as a run in one block."""

import json
import os

import numpy as np
import pytest

from covspec import (
    IngestConfig,
    build_kernel,
    compute_returns,
    load_panel,
    make_business_dates,
    map_prices,
    rolling_covariance,
    run_analysis,
    runner,
    spectrum_series,
    to_correlation,
    validate_config,
)
from covspec.errors import AnalysisError, DegenerateAssetError

N_ASSETS = 12
MATRIX_BYTES = 8 * N_ASSETS**2

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

# dates per block -> the block lengths of the 11 dates
BLOCKINGS = {
    1: [1] * 11,
    3: [3, 3, 3, 2],
    None: [11],  # the default BLOCK_BYTES holds every date
}


def bundle_bytes(directory):
    out = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = fh.read()
    return out


@pytest.mark.parametrize("flavor, out_format", [("covariance", "csv"), ("correlation", "json")])
def test_bundles_identical_for_every_block_size(tmp_path, monkeypatch, flavor, out_format):
    bundles = {}
    for per_block, lengths in BLOCKINGS.items():
        calls = []

        def counted(returns, kernel, eval_dates, calls=calls):
            calls.append(len(eval_dates))
            return rolling_covariance(returns, kernel, eval_dates)

        out = tmp_path / f"per-block-{per_block}"
        cfg = tmp_path / f"{per_block}.cfg"
        cfg.write_text(
            BLOCKED_CFG
            + f"matrix.flavor = {flavor}\noutput.format = {out_format}\noutput.dir = {out}\n"
        )
        with monkeypatch.context() as patch:
            if per_block is not None:
                patch.setattr(runner, "BLOCK_BYTES", per_block * MATRIX_BYTES)
            patch.setattr(runner, "rolling_covariance", counted)
            bundle = run_analysis(validate_config(str(cfg)))
        assert bundle.complete
        assert calls == lengths
        bundles[per_block] = bundle_bytes(out)

    reference = bundles.pop(None)
    assert sum(name.startswith("matrices") for name in reference) == 11
    assert "mp_compare.json" in reference
    for per_block, got in bundles.items():
        assert got.keys() == reference.keys(), per_block
        for name, data in reference.items():
            assert got[name] == data, (per_block, name)


def write_flat_asset_panel(path):
    """Prices whose asset 'bbb' stays flat for 15 returns from return 30 on,
    so a 10-date window of it has zero variance from return date 39 on."""
    dates = make_business_dates(61)
    rng = np.random.default_rng(8)
    prices = np.exp(np.cumsum(0.01 * rng.standard_normal((3, 61)), axis=1))
    prices[1, 30:46] = prices[1, 30]
    lines = ["date,aaa,bbb,ccc"] + [
        d + "," + ",".join(f"{v:.17g}" for v in prices[:, t]) for t, d in enumerate(dates)
    ]
    path.write_text("\n".join(lines) + "\n")


def test_variance_floor_fault_in_a_later_block(tmp_path, monkeypatch):
    csv_path = tmp_path / "p.csv"
    write_flat_asset_panel(csv_path)
    returns = compute_returns(map_prices(load_panel(csv_path, IngestConfig())))
    series = rolling_covariance(returns, build_kernel("rectangular", 10))
    with pytest.raises(DegenerateAssetError) as direct:
        to_correlation(series)
    # the first faulty date lies beyond the first three blocks of 3 dates
    fault_at = [d for d in series.dates if d in str(direct.value)]
    assert len(fault_at) == 1 and series.dates.index(fault_at[0]) >= 9

    errors = {}
    for per_block in (3, None):
        out = tmp_path / f"per-block-{per_block}"
        cfg = tmp_path / f"{per_block}.cfg"
        cfg.write_text(
            f"input.path = {csv_path}\nkernel.scheme = rectangular\nkernel.length = 10\n"
            f"matrix.flavor = correlation\nanalyses = spectrum,density\noutput.dir = {out}\n"
        )
        with monkeypatch.context() as patch:
            if per_block is not None:
                patch.setattr(runner, "BLOCK_BYTES", per_block * 8 * 3**2)
            with pytest.raises(AnalysisError) as err:
                run_analysis(validate_config(str(cfg)))
        errors[per_block] = str(err.value)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert manifest["error"] == errors[per_block]
        assert [f["name"] for f in manifest["files"]] == ["provenance.log"]
    assert errors[3] == errors[None] == f"moments: {direct.value}"


def test_run_without_spectra_or_dump_builds_no_main_matrices(tmp_path, monkeypatch):
    def refused(*args):
        raise AssertionError("main matrices built for no reader")

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        BLOCKED_CFG.replace("output.dump_matrices = true", "")
        .replace("spectrum,density,mp-compare,ansatz,projectors,fluctuation", "lagged")
        + f"lagged.lags = 0,1\noutput.dir = {tmp_path / 'out'}\n"
    )
    monkeypatch.setattr(runner, "rolling_covariance", refused)
    bundle = run_analysis(validate_config(str(cfg)))
    assert bundle.files == ("lagged_correlation.csv",)


def test_mp_compare_alone_solves_only_the_spectra_it_reads(tmp_path, monkeypatch):
    """mp-compare reads correlation spectra: in covariance flavor its own, so
    the covariance spectra are not solved; in correlation flavor the main
    ones. Either way one spectrum_series call per block."""
    bundles = {}
    for flavor, analyses in [
        ("covariance", "mp-compare"),
        ("covariance", "mp-compare,spectrum"),
        ("correlation", "mp-compare"),
    ]:
        solved = []

        def counted(series, n_vectors=0, solved=solved):
            solved.append(series.flavor)
            return spectrum_series(series, n_vectors=n_vectors)

        out = tmp_path / f"{flavor}-{analyses}"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            BLOCKED_CFG.replace("output.dump_matrices = true", "")
            .replace("spectrum,density,mp-compare,ansatz,projectors,fluctuation", analyses)
            + f"matrix.flavor = {flavor}\noutput.dir = {out}\n"
        )
        with monkeypatch.context() as patch:
            patch.setattr(runner, "BLOCK_BYTES", 3 * MATRIX_BYTES)  # 4 blocks
            patch.setattr(runner, "spectrum_series", counted)
            assert run_analysis(validate_config(str(cfg))).complete
        bundles[flavor, analyses] = bundle_bytes(out)
        if analyses == "mp-compare":
            assert solved == ["correlation"] * 4, flavor
    alone = bundles["covariance", "mp-compare"]
    for reference in (("covariance", "mp-compare,spectrum"), ("correlation", "mp-compare")):
        assert alone["mp_compare.json"] == bundles[reference]["mp_compare.json"], reference
