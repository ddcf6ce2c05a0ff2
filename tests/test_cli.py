import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from covspec import (
    EnsembleSpec,
    IngestConfig,
    build_kernel,
    compute_returns,
    fit_ansatz,
    generate_returns,
    load_panel,
    log_mean_spectrum,
    make_business_dates,
    rolling_spectra,
    run_analysis,
    runner,
    validate_config,
)
from covspec.cli import main
from covspec.errors import AnalysisError, ConfigError, KernelClippingWarning
from covspec.bundle import _BundleWriter

ENSEMBLE_CFG = """
ensemble.kind = gaussian-iid
ensemble.assets = 20
ensemble.dates = 300
ensemble.seed = 42
kernel.scheme = rectangular
kernel.length = 100
analyses = spectrum,density
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_bytes(directory, name):
    with open(os.path.join(directory, name), "rb") as fh:
        return fh.read()


def test_analyze_emits_expected_bundle(tmp_path):
    cfg = write_cfg(tmp_path, ENSEMBLE_CFG + f"output.dir = {tmp_path / 'out'}\n")
    config = validate_config(cfg)
    bundle = run_analysis(config)
    assert set(bundle.files) == {"spectrum.csv", "mean_spectrum.csv", "density.csv"}
    manifest = json.loads(read_bytes(bundle.output_dir, "manifest.json"))
    assert manifest["complete"] is True
    assert {f["name"] for f in manifest["files"]} == set(bundle.files)
    for entry in manifest["files"]:
        data = read_bytes(bundle.output_dir, entry["name"])
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert len(data) == entry["bytes"]


def test_manifest_hashes_each_file_as_written(tmp_path):
    writer = _BundleWriter(str(tmp_path), "csv")
    # multi-byte UTF-8 cells: the manifest counts bytes, not characters
    writer.write_table("t", ["a", "\u00e9"], [[1, 0.5], ["\u00fc", 2.0]])
    writer.write_json("j.json", {"k": [1.5, "\u00f1"]})
    written = {name: (tmp_path / name).read_bytes() for name in ("j.json", "t.csv")}
    for name in written:
        (tmp_path / name).unlink()  # write_manifest reads no file back
    config = validate_config(write_cfg(tmp_path, ENSEMBLE_CFG + f"output.dir = {tmp_path}\n"))
    manifest = json.loads(Path(writer.write_manifest(config, complete=True)).read_bytes())
    assert manifest["files"] == [
        {"name": name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        for name, data in written.items()
    ]
    assert len(written["t.csv"]) == len("a,\u00e9\n1,0.5\n\u00fc,2\n".encode())


def test_spectrum_csv_shape(tmp_path):
    cfg = write_cfg(tmp_path, ENSEMBLE_CFG + f"output.dir = {tmp_path / 'out'}\n")
    run_analysis(validate_config(cfg))
    lines = (tmp_path / "out" / "spectrum.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "date"
    assert header[1] == "eps_1"
    assert len(header) == 21
    assert len(lines) == 1 + (300 - 100 + 1)


def cell_text(row) -> str:
    """One CSV line formatted cell by cell: f"{v:.17g}" for a float, str otherwise."""
    return ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n"


def test_series_rows_are_the_cell_formatted_text(tmp_path):
    labels = ("2000-01-03", "2000-01-04")
    values = np.array([[np.nan, -0.0, 5e-324, 1e300], [1.0 / 3.0, -2.5, np.inf, 0.0]])
    header = ["date", "a", "b", "c", "d"]
    rows = [[d, *row] for d, row in zip(labels, values)]
    _BundleWriter(str(tmp_path), "csv").write_table("spectrum", header, rows)
    expected = "".join(cell_text(row) for row in [header, *rows])
    assert (tmp_path / "spectrum.csv").read_text() == expected
    assert expected.splitlines()[1] == (
        "2000-01-03,nan,-0,4.9406564584124654e-324,1.0000000000000001e+300"
    )


def test_table_rows_of_mixed_cell_types_are_the_cell_formatted_text(tmp_path):
    rows = [[1, np.float64(0.1), "lag", np.int64(7), True], [2, 1e-5, "x", -3, False]]
    _BundleWriter(str(tmp_path), "csv").write_table("t", ["a", "b", "c", "d", "e"], rows)
    expected = "a,b,c,d,e\n" + "".join(cell_text(row) for row in rows)
    assert (tmp_path / "t.csv").read_text() == expected
    assert expected.splitlines()[1] == "1,0.10000000000000001,lag,7,True"


def test_determinism_across_runs_and_threads(tmp_path):
    cfg_a = write_cfg(
        tmp_path, ENSEMBLE_CFG + f"output.dir = {tmp_path / 'a'}\n", name="a.cfg"
    )
    cfg_b = write_cfg(
        tmp_path, ENSEMBLE_CFG + f"output.dir = {tmp_path / 'b'}\n", name="b.cfg"
    )
    assert main(["analyze", cfg_a]) == 0
    assert main(["analyze", cfg_b]) == 0
    for name in ("spectrum.csv", "mean_spectrum.csv", "density.csv", "manifest.json"):
        assert read_bytes(tmp_path / "a", name) == read_bytes(tmp_path / "b", name)


def test_full_analysis_toggle_set(tmp_path):
    text = """
ensemble.kind = one-factor
ensemble.assets = 15
ensemble.dates = 260
ensemble.beta = 0.4
ensemble.seed = 9
kernel.scheme = rectangular
kernel.length = 60
analyses = spectrum,density,mp-compare,ansatz,projectors,fluctuation,lagged
projectors.ranks = 1,3
lagged.lags = 0,1,5,25
lagged.length = 21
"""
    cfg = write_cfg(tmp_path, text + f"output.dir = {tmp_path / 'out'}\n")
    bundle = run_analysis(validate_config(cfg))
    assert set(bundle.files) == {
        "spectrum.csv",
        "mean_spectrum.csv",
        "density.csv",
        "mp_compare.json",
        "ansatz.json",
        "density_of_states.csv",
        "mean_projector_spectrum.csv",
        "fluctuation_index.csv",
        "lagged_correlation.csv",
    }
    mp_report = json.loads(read_bytes(bundle.output_dir, "mp_compare.json"))
    assert 0 < mp_report["q_used"] <= 1
    assert 0 < mp_report["q_fitted"] <= 1
    ansatz = json.loads(read_bytes(bundle.output_dir, "ansatz.json"))
    assert ansatz["a"] > 0 and ansatz["b"] > 0
    lagged = (tmp_path / "out" / "lagged_correlation.csv").read_text().splitlines()
    labels = {line.split(",")[0] for line in lagged[1:]}
    assert labels == {"covariance", "correlation", "projector_k1", "projector_k3"}


def test_json_format_outputs(tmp_path):
    cfg = write_cfg(
        tmp_path,
        ENSEMBLE_CFG + f"output.dir = {tmp_path / 'out'}\noutput.format = json\n",
    )
    bundle = run_analysis(validate_config(cfg))
    assert "spectrum.json" in bundle.files
    rows = json.loads(read_bytes(bundle.output_dir, "spectrum.json"))
    assert rows[0]["date"] == rows[0]["date"]
    assert "eps_1" in rows[0]


def _reject_constant(token):
    raise ValueError(f"not valid JSON: {token}")


def test_json_outputs_hold_no_nan(tmp_path):
    # N=30 > L=20: ranks above 20 have no mean value, and gamma_max is 0 at k = N
    text = """
ensemble.kind = one-factor
ensemble.assets = 30
ensemble.dates = 200
ensemble.beta = 0.4
ensemble.seed = 5
kernel.scheme = rectangular
kernel.length = 20
analyses = spectrum,fluctuation
projectors.ranks = 1,30
output.format = json
"""
    cfg = write_cfg(tmp_path, text + f"output.dir = {tmp_path}\n")
    bundle = run_analysis(validate_config(cfg))
    for name in (*bundle.files, "manifest.json"):
        json.loads(read_bytes(tmp_path, name), parse_constant=_reject_constant)
    mean = json.loads(read_bytes(tmp_path, "mean_spectrum.json"))
    assert [row["rank"] for row in mean if row["value"] is None] == list(range(21, 31))
    fluct = json.loads(read_bytes(tmp_path, "fluctuation_index.json"))
    assert [row["ratio"] is None for row in fluct] == [False, True]


def test_ansatz_fits_only_the_ranks_every_date_resolves(tmp_path):
    # N=40 > L=30: each covariance has rank 30, so ranks above 30 are below
    # the floor at every date and the fit runs on x = 1/2 - alpha/30
    text = """
ensemble.kind = one-factor
ensemble.assets = 40
ensemble.dates = 200
ensemble.beta = 0.4
ensemble.seed = 2
kernel.scheme = rectangular
kernel.length = 30
analyses = ansatz
"""
    run_analysis(validate_config(write_cfg(tmp_path, text + f"output.dir = {tmp_path}\n")))
    fit = json.loads(read_bytes(tmp_path, "ansatz.json"))
    assert fit["n_ranks"] == 30
    lo, hi = fit["fit_range"]
    assert 1 <= lo < hi <= 30
    assert fit["a"] > 0 and 1.0 < fit["b"] < 2.0


def test_fit_of_a_mean_spectrum_is_the_runs_ansatz(tmp_path):
    # N=40 > L=30: ranks 31-40 are below the floor at every date, and
    # fit_ansatz of the MeanSpectrum drops them as the ansatz analysis does
    text = """
ensemble.kind = one-factor
ensemble.assets = 40
ensemble.dates = 79
ensemble.beta = 0.4
ensemble.seed = 2
kernel.scheme = long-memory
kernel.length = 30
kernel.tau0_days = 200
analyses = ansatz
"""
    run_analysis(validate_config(write_cfg(tmp_path, text + f"output.dir = {tmp_path}\n")))
    returns = generate_returns(EnsembleSpec("one-factor", 40, 79, beta=0.4, seed=2))
    spectra = rolling_spectra(returns, build_kernel("long-memory", 30, tau0_days=200))
    fit = fit_ansatz(log_mean_spectrum(spectra))
    assert json.loads(read_bytes(tmp_path, "ansatz.json")) == {
        "a": fit.a,
        "b": fit.b,
        "eps_mid": fit.eps_mid,
        "rms_residual": fit.rms_residual,
        "fit_range": list(fit.fit_range),
        "n_ranks": 30,
    }


def test_lagged_projectors_take_ranks_up_to_lagged_length(tmp_path):
    text = ENSEMBLE_CFG.replace("analyses = spectrum,density", "analyses = projectors,lagged") + (
        "projectors.ranks = 1,6\nlagged.lags = 0,1\nlagged.length = 5\n"
    )
    out = tmp_path / "out"
    run_analysis(validate_config(write_cfg(tmp_path, text + f"output.dir = {out}\n")))
    spectrum = (out / "mean_projector_spectrum.csv").read_text().splitlines()[1:]
    assert sum(line.startswith("6,") for line in spectrum) == 20
    lagged = (out / "lagged_correlation.csv").read_text().splitlines()[1:]
    series = {line.split(",")[0] for line in lagged}
    assert series == {"covariance", "correlation", "projector_k1"}


def test_rank_n_projector_gets_no_lagged_series(tmp_path):
    # the rank-N projector is the identity at every date: a constant series
    text = """
ensemble.kind = gaussian-iid
ensemble.assets = 6
ensemble.dates = 80
ensemble.seed = 7
kernel.scheme = rectangular
kernel.length = 20
analyses = spectrum,projectors,lagged
projectors.ranks = 1,6
lagged.lags = 0,1,5
lagged.length = 10
"""
    out = tmp_path / "out"
    run_analysis(validate_config(write_cfg(tmp_path, text + f"output.dir = {out}\n")))
    spectrum = (out / "mean_projector_spectrum.csv").read_text().splitlines()[1:]
    assert sum(line.startswith("6,") for line in spectrum) == 6
    lagged = (out / "lagged_correlation.csv").read_text().splitlines()[1:]
    assert {line.split(",")[0] for line in lagged} == {
        "covariance", "correlation", "projector_k1"
    }


def test_failed_run_marks_manifest_incomplete(tmp_path):
    # rectangular L=21 at N=50 gives q = 50/21 > 1: the M-P comparison refuses
    text = """
ensemble.kind = gaussian-iid
ensemble.assets = 50
ensemble.dates = 80
ensemble.seed = 1
kernel.scheme = rectangular
kernel.length = 21
analyses = mp-compare
"""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, text + f"output.dir = {out}\n")
    assert main(["analyze", cfg]) == 1
    manifest = json.loads(read_bytes(out, "manifest.json"))
    assert manifest["complete"] is False
    assert "q" in manifest["error"]


def test_rank_exceeding_panel_size_fails_before_compute(tmp_path):
    text = ENSEMBLE_CFG + "projectors.ranks = 25\n"
    text = text.replace("analyses = spectrum,density", "analyses = projectors")
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, text + f"output.dir = {out}\n")
    with pytest.raises(Exception, match="exceeds panel size"):
        run_analysis(validate_config(cfg))


def test_rank_between_matrix_rank_and_panel_size_fails_before_compute(tmp_path):
    # N=30 > L=20: every main matrix has rank 20, so the top-25 subspace
    # would hold null directions picked by rounding; k = 30 stays allowed
    text = """
ensemble.kind = one-factor
ensemble.assets = 30
ensemble.dates = 200
ensemble.beta = 0.4
ensemble.seed = 5
kernel.scheme = rectangular
kernel.length = 20
analyses = spectrum,fluctuation
projectors.ranks = 1,2,25,30
"""
    out = tmp_path / "out"
    with pytest.raises(ConfigError) as err:
        run_analysis(validate_config(write_cfg(tmp_path, text + f"output.dir = {out}\n")))
    message = (
        "projectors.ranks: rank 25 is not determined by the data: every main "
        "matrix has rank at most 20 (N = 30); use ranks up to 20, or 30"
    )
    assert str(err.value) == message
    manifest = json.loads(read_bytes(out, "manifest.json"))
    assert manifest["complete"] is False
    assert manifest["error"] == message
    assert manifest["files"] == []


def test_matrix_rank_counts_only_positive_kernel_weights(tmp_path):
    # tau0 = 20 days zeroes the long-memory weights from lag 19 on: 19 of the
    # 30 are positive, so N=25 matrices have rank at most 19
    text = """
ensemble.kind = gaussian-iid
ensemble.assets = 25
ensemble.dates = 100
ensemble.seed = 5
kernel.scheme = long-memory
kernel.length = 30
kernel.tau0_days = 20
analyses = projectors
projectors.ranks = 19,20
"""
    cfg = validate_config(write_cfg(tmp_path, text + f"output.dir = {tmp_path / 'out'}\n"))
    with pytest.warns(KernelClippingWarning), pytest.raises(ConfigError) as err:
        run_analysis(cfg)
    assert err.value.errors == [
        "projectors.ranks: rank 20 is not determined by the data: every main "
        "matrix has rank at most 19 (N = 25); use ranks up to 19, or 25"
    ]


def test_lags_too_large_fail_before_any_analysis(tmp_path):
    # 300 returns and a 21-date lagged window give 280 lagged dates
    text = ENSEMBLE_CFG.replace("analyses = spectrum,density", "analyses = spectrum,density,lagged")
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, text + f"lagged.lags = 0,1,279\noutput.dir = {out}\n")
    with pytest.raises(AnalysisError) as err:
        run_analysis(validate_config(cfg))
    assert str(err.value) == "subspace: lag 279 too large for a series of length 280"
    manifest = json.loads(read_bytes(out, "manifest.json"))
    assert manifest["complete"] is False
    assert manifest["files"] == []
    assert os.listdir(out) == ["manifest.json"]


def test_mp_compare_q_above_one_fails_before_the_main_stage(tmp_path, monkeypatch):
    # N=40 and a rectangular L=20 give q = N / T_eff = 2
    text = ENSEMBLE_CFG.replace("ensemble.assets = 20", "ensemble.assets = 40")
    text = text.replace("kernel.length = 100", "kernel.length = 20")
    text = text.replace("analyses = spectrum,density", "analyses = spectrum,density,mp-compare")
    out = tmp_path / "out"
    calls = []
    monkeypatch.setattr(runner, "_main_stage", lambda *args: calls.append(args))
    with pytest.raises(AnalysisError) as err:
        run_analysis(validate_config(write_cfg(tmp_path, text + f"output.dir = {out}\n")))
    assert str(err.value) == (
        "spectral: M-P comparison needs q in (0, 1]; got q=2 (set mp.q to override)"
    )
    assert calls == []
    manifest = json.loads(read_bytes(out, "manifest.json"))
    assert manifest["complete"] is False
    assert manifest["files"] == []
    assert os.listdir(out) == ["manifest.json"]


def test_module_errors_carry_stage_name(tmp_path):
    # evaluation range before any feasible date
    text = ENSEMBLE_CFG + "eval.end = 1999-01-05\n"
    cfg = write_cfg(tmp_path, text + f"output.dir = {tmp_path / 'out'}\n")
    with pytest.raises(AnalysisError, match="moments:"):
        run_analysis(validate_config(cfg))


def test_cli_validate_prints_resolved_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ENSEMBLE_CFG)
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "kernel.length = 100" in out
    assert "analyses = spectrum,density" in out


def test_cli_validate_reports_all_errors(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "kernel.mu = 1.5\nwhat = ever\n")
    assert main(["validate", cfg]) == 1
    err = capsys.readouterr().err
    assert "mu must be in (0,1)" in err
    assert "what" in err


def test_cli_set_overrides(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ENSEMBLE_CFG)
    assert main(["validate", cfg, "--set", "kernel.length=50"]) == 0
    assert "kernel.length = 50" in capsys.readouterr().out


def test_cli_seed_flag_overrides_ensemble_seed(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ENSEMBLE_CFG)
    assert main(["validate", cfg, "--seed", "777"]) == 0
    assert "ensemble.seed = 777" in capsys.readouterr().out


def test_synth_prices_round_trip(tmp_path):
    text = """
ensemble.kind = one-factor
ensemble.assets = 6
ensemble.dates = 40
ensemble.beta = 0.5
ensemble.seed = 31
"""
    csv_path = tmp_path / "prices.csv"
    cfg = write_cfg(tmp_path, text + f"synth.path = {csv_path}\n")
    assert main(["synth", cfg]) == 0
    assert csv_path.exists()

    panel = load_panel(csv_path, IngestConfig())
    rebuilt = compute_returns(panel, IngestConfig())
    generated = generate_returns(EnsembleSpec("one-factor", 6, 40, beta=0.5, seed=31))
    assert rebuilt.dates == generated.dates
    assert np.abs(rebuilt.returns - generated.returns).max() < 1e-12


def test_synth_returns_output(tmp_path):
    text = """
ensemble.kind = gaussian-iid
ensemble.assets = 3
ensemble.dates = 10
ensemble.seed = 5
synth.output = returns
"""
    csv_path = tmp_path / "r.csv"
    cfg = write_cfg(tmp_path, text + f"synth.path = {csv_path}\n")
    assert main(["synth", cfg]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 11
    generated = generate_returns(EnsembleSpec("gaussian-iid", 3, 10, seed=5))
    first = np.array([float(v) for v in lines[1].split(",")[1:]])
    assert first == pytest.approx(generated.returns[:, 0], rel=1e-15)


@pytest.mark.parametrize("output", ["prices", "returns"])
def test_synth_files_are_the_per_value_formatted_panel(tmp_path, output):
    spec = EnsembleSpec("one-factor", 5, 30, beta=0.4, seed=8)
    cfg = write_cfg(
        tmp_path,
        "ensemble.kind = one-factor\nensemble.assets = 5\nensemble.dates = 30\n"
        f"ensemble.beta = 0.4\nensemble.seed = 8\nsynth.output = {output}\n",
    )
    assert main(["synth", cfg, "--out", str(tmp_path / "out")]) == 0
    panel = generate_returns(spec)
    if output == "returns":
        dates, values = panel.dates, panel.returns
    else:
        zero = np.zeros((panel.n_assets, 1))
        dates = ("1999-01-01", *panel.dates)  # the weekday before 1999-01-04
        values = np.exp(np.concatenate([zero, np.cumsum(panel.returns, axis=1)], axis=1))
    expected = "date," + ",".join(panel.asset_ids) + "\n" + "".join(
        date + "," + ",".join(f"{v:.17g}" for v in values[:, t]) + "\n"
        for t, date in enumerate(dates)
    )
    text = (tmp_path / "out" / f"{output}.csv").read_bytes().decode("utf-8")
    assert text == expected
    if output == "prices":
        assert text.splitlines()[1] == "1999-01-01," + ",".join(["1"] * 5)


def test_bundle_bytes_do_not_depend_on_the_locale(tmp_path):
    # the locale's encoding matters only for non-ASCII text, such as this id
    header = "date,aaa,d\u00e9j\u00e0,ccc\n"
    dates = make_business_dates(61)
    rng = np.random.default_rng(21)
    prices = np.exp(np.cumsum(0.01 * rng.standard_normal((3, 61)), axis=1))
    rows = [[f"{v:.17g}" for v in prices[:, t]] for t in range(61)]
    rows[30][1] = ""  # one forward-filled cell: a provenance line naming the id
    text = header + "".join(
        d + "," + ",".join(row) + "\n" for d, row in zip(dates, rows)
    )
    (tmp_path / "p.csv").write_bytes(text.encode("utf-8"))
    cfg = write_cfg(
        tmp_path,
        "# d\u00e9j\u00e0 is forward-filled once\n"
        f"input.path = {tmp_path / 'p.csv'}\nassets.missing_policy = forward-fill\n"
        "kernel.scheme = rectangular\nkernel.length = 20\n"
        "analyses = spectrum,density,lagged\nlagged.lags = 0,1\n",
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    default = {**os.environ, "PYTHONPATH": src}
    ascii_c = {**default, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    bundles = []
    for name, env in (("default", default), ("c-locale", ascii_c)):
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "covspec.cli", "analyze", cfg, "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        bundles.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert bundles[0] == bundles[1]
    provenance = bundles[0]["provenance.log"].decode("utf-8")
    assert provenance == f"{dates[30]},d\u00e9j\u00e0,forward-fill\n"


def test_analyze_from_csv_input(tmp_path):
    synth_cfg = write_cfg(
        tmp_path,
        "ensemble.kind = gaussian-iid\nensemble.assets = 5\nensemble.dates = 120\n"
        f"ensemble.seed = 2\nsynth.path = {tmp_path / 'p.csv'}\n",
        name="synth.cfg",
    )
    assert main(["synth", synth_cfg]) == 0
    run_cfg = write_cfg(
        tmp_path,
        f"input.path = {tmp_path / 'p.csv'}\n"
        "kernel.scheme = rectangular\nkernel.length = 50\n"
        "analyses = spectrum\n"
        f"output.dir = {tmp_path / 'out'}\n",
        name="analyze.cfg",
    )
    assert main(["analyze", run_cfg]) == 0
    assert (tmp_path / "out" / "spectrum.csv").exists()
    assert (tmp_path / "out" / "provenance.log").exists()


def test_flat_asset_fails_lagged_stage_naming_asset_and_date(tmp_path):
    # bbb's price is flat over 21 returns, one full lagged window; the
    # 40-return main window always reaches moving prices
    dates = make_business_dates(90)
    rng = np.random.default_rng(3)
    prices = np.exp(np.cumsum(0.01 * rng.standard_normal((3, 90)), axis=1))
    prices[1, 50:72] = prices[1, 50]
    lines = ["date,aaa,bbb,ccc"] + [
        d + "," + ",".join(f"{v:.17g}" for v in prices[:, t]) for t, d in enumerate(dates)
    ]
    (tmp_path / "p.csv").write_text("\n".join(lines) + "\n")
    cfg = write_cfg(
        tmp_path,
        f"input.path = {tmp_path / 'p.csv'}\n"
        "kernel.scheme = rectangular\nkernel.length = 40\n"
        "analyses = spectrum,lagged\nlagged.lags = 0,1\n"
        f"output.dir = {tmp_path / 'out'}\n",
    )
    with pytest.raises(AnalysisError) as err:
        run_analysis(validate_config(cfg))
    message = str(err.value)
    assert message.startswith("subspace: variance ")
    assert message.endswith(
        f" of asset 'bbb' at date {dates[71]!r} is at or below the floor 1e-16"
    )
    assert "0.0" in message


@pytest.mark.parametrize(
    "command, key, flags",
    [
        pytest.param("analyze", "output.dir", ["--set", "output.dir="], id="analyze-output.dir"),
        pytest.param("synth", "synth.path", ["--set", "synth.path="], id="synth-synth.path"),
        pytest.param("analyze", "output.dir", ["--out", ""], id="analyze-out-flag"),
    ],
)
def test_blank_output_path_is_a_config_error(tmp_path, monkeypatch, capsys, command, key, flags):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, ENSEMBLE_CFG)
    assert main([command, cfg, *flags]) == 1
    assert capsys.readouterr().err == f"error: {key}: must not be blank\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "synth", "analyze"])
def test_missing_config_file_is_an_error_line(tmp_path, capsys, command):
    missing = tmp_path / "missing.cfg"
    assert main([command, str(missing)]) == 1
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
    )


def test_missing_input_csv_is_an_error_line_with_incomplete_manifest(tmp_path, capsys):
    missing = tmp_path / "absent.csv"
    cfg = write_cfg(
        tmp_path,
        f"input.path = {missing}\nkernel.scheme = rectangular\nkernel.length = 5\n"
        f"analyses = spectrum\noutput.dir = {tmp_path / 'out'}\n",
    )
    assert main(["analyze", cfg]) == 1
    message = f"input.path: [Errno 2] No such file or directory: {str(missing)!r}"
    assert capsys.readouterr().err == f"error: {message}\n"
    manifest = json.loads(read_bytes(tmp_path / "out", "manifest.json"))
    assert manifest["complete"] is False
    assert manifest["files"] == []
    assert manifest["error"] == message


@pytest.mark.parametrize("command", ["synth", "analyze"])
def test_out_naming_an_existing_file_is_an_error_line(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    cfg = write_cfg(tmp_path, ENSEMBLE_CFG)
    assert main([command, cfg, "--out", str(taken)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 17] File exists: {str(taken)!r}\n"
    assert taken.read_text() == "not a directory\n"


def test_synth_creates_only_the_directory_it_writes_into(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, ENSEMBLE_CFG + "synth.path = sub/p.csv\n")
    assert main(["synth", cfg]) == 0
    assert sorted(os.listdir(tmp_path)) == ["run.cfg", "sub"]
    assert os.listdir(tmp_path / "sub") == ["p.csv"]


def test_synth_path_leaves_an_out_naming_an_existing_file_alone(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    target = tmp_path / "p.csv"
    cfg = write_cfg(tmp_path, ENSEMBLE_CFG + f"synth.path = {target}\n")
    assert main(["synth", cfg, "--out", str(taken)]) == 0
    assert capsys.readouterr().out == f"{target}\n"
    assert taken.read_text() == "not a directory\n"
    assert target.exists()


def test_ambiguous_input_names_the_ensemble_keys_set(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        f"input.path = {tmp_path / 'p.csv'}\nkernel.scheme = rectangular\n"
        "kernel.length = 5\nanalyses = spectrum\n",
    )
    assert main(["analyze", cfg, "--seed", "3"]) == 1
    assert capsys.readouterr().err == (
        "error: ambiguous input: input.path and ensemble.seed are set; choose one\n"
    )


def test_env_var_log_level(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COVSPEC_LOG", "DEBUG")
    cfg = write_cfg(tmp_path, ENSEMBLE_CFG)
    assert main(["validate", cfg]) == 0


def test_malformed_set_flag_reports_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ENSEMBLE_CFG)
    assert main(["validate", cfg, "--set", "nonsense"]) == 1
    assert "KEY=VALUE" in capsys.readouterr().err


def test_format_flag_switches_outputs(tmp_path):
    cfg = write_cfg(tmp_path, ENSEMBLE_CFG)
    out = tmp_path / "out"
    assert main(["analyze", cfg, "--out", str(out), "--format", "json"]) == 0
    assert (out / "spectrum.json").exists()
    assert not (out / "spectrum.csv").exists()


def test_matrix_dump_registered_in_manifest(tmp_path):
    cfg = write_cfg(
        tmp_path,
        ENSEMBLE_CFG
        + f"output.dir = {tmp_path / 'out'}\noutput.dump_matrices = true\n",
    )
    bundle = run_analysis(validate_config(cfg))
    dumped = [name for name in bundle.files if name.startswith("matrices")]
    assert len(dumped) == 300 - 100 + 1
    manifest = json.loads(read_bytes(bundle.output_dir, "manifest.json"))
    assert {f["name"] for f in manifest["files"]} >= set(dumped)


def test_eval_range_limits_dates(tmp_path):
    panel_dates = generate_returns(EnsembleSpec("gaussian-iid", 20, 300, seed=42)).dates
    start, end = panel_dates[150], panel_dates[160]
    cfg = write_cfg(
        tmp_path,
        ENSEMBLE_CFG
        + f"output.dir = {tmp_path / 'out'}\neval.start = {start}\neval.end = {end}\n",
    )
    run_analysis(validate_config(cfg))
    lines = (tmp_path / "out" / "spectrum.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 11
    assert lines[1].split(",")[0] == start


def test_mp_q_override(tmp_path):
    text = ENSEMBLE_CFG.replace("analyses = spectrum,density", "analyses = mp-compare")
    cfg = write_cfg(tmp_path, text + f"output.dir = {tmp_path / 'out'}\nmp.q = 0.5\n")
    bundle = run_analysis(validate_config(cfg))
    report = json.loads(read_bytes(bundle.output_dir, "mp_compare.json"))
    assert report["q_used"] == 0.5
    assert report["q_from_teff"] == pytest.approx(0.2)
