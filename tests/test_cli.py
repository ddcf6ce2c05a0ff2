import json
import os

import numpy as np
import pytest

from covspec import (
    EnsembleSpec,
    IngestConfig,
    compute_returns,
    generate_returns,
    load_panel,
    make_business_dates,
    map_prices,
    run_analysis,
    validate_config,
)
from covspec.cli import main
from covspec.errors import AnalysisError
from covspec.runner import _BundleWriter, _fmt

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
    path.write_text(text)
    return str(path)


def read_bytes(directory, name):
    with open(os.path.join(directory, name), "rb") as fh:
        return fh.read()


def test_analyze_emits_expected_bundle(tmp_path):
    cfg = write_cfg(tmp_path, ENSEMBLE_CFG + f"output.dir = {tmp_path / 'out'}\n")
    config = validate_config(cfg)
    bundle = run_analysis(config)
    assert bundle.complete
    assert set(bundle.files) == {"spectrum.csv", "mean_spectrum.csv", "density.csv"}
    manifest = json.loads(read_bytes(bundle.output_dir, "manifest.json"))
    assert manifest["complete"] is True
    assert {f["name"] for f in manifest["files"]} == set(bundle.files)
    import hashlib

    for entry in manifest["files"]:
        data = read_bytes(bundle.output_dir, entry["name"])
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert len(data) == entry["bytes"]


def test_spectrum_csv_shape(tmp_path):
    cfg = write_cfg(tmp_path, ENSEMBLE_CFG + f"output.dir = {tmp_path / 'out'}\n")
    run_analysis(validate_config(cfg))
    lines = (tmp_path / "out" / "spectrum.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "date"
    assert header[1] == "eps_1"
    assert len(header) == 21
    assert len(lines) == 1 + (300 - 100 + 1)


def test_series_rows_are_the_cell_formatted_text(tmp_path):
    labels = ("2000-01-03", "2000-01-04")
    values = np.array([[np.nan, -0.0, 5e-324, 1e300], [1.0 / 3.0, -2.5, np.inf, 0.0]])
    header = ["date", "a", "b", "c", "d"]
    rows = [[d, *row] for d, row in zip(labels, values)]
    _BundleWriter(str(tmp_path), "csv").write_series("spectrum", header, labels, values)
    expected = "".join(",".join(_fmt(v) for v in row) + "\n" for row in [header, *rows])
    assert (tmp_path / "spectrum.csv").read_text() == expected
    # the json path is the table writer's
    _BundleWriter(str(tmp_path / "series"), "json").write_series("spectrum", header, labels, values)
    _BundleWriter(str(tmp_path / "table"), "json").write_table("spectrum", header, rows)
    assert (tmp_path / "series" / "spectrum.json").read_bytes() == (
        tmp_path / "table" / "spectrum.json"
    ).read_bytes()


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
    rebuilt = compute_returns(map_prices(panel))
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
    "command, key", [("analyze", "output.dir"), ("synth", "synth.path")]
)
def test_blank_output_path_is_a_config_error(tmp_path, monkeypatch, capsys, command, key):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, ENSEMBLE_CFG)
    assert main([command, cfg, "--set", f"{key}="]) == 1
    assert capsys.readouterr().err == f"error: {key}: must not be blank\n"


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
