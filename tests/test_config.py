import pytest

from covspec import validate_config
from covspec.config import config_from_mapping, parse_flat_text
from covspec.errors import ConfigError

MINIMAL = """
input.path = data/prices.csv
analyses = spectrum
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_config_gets_all_defaults(tmp_path):
    config = validate_config(write(tmp_path, MINIMAL))
    assert config.input_path == "data/prices.csv"
    assert config.kernel_scheme == "long-memory"
    assert config.kernel_length == 260
    assert config.kernel_tau0_days == 1560.0
    assert config.density_bins == 60
    assert config.lagged_length == 21
    assert config.flavor == "covariance"
    assert config.output_format == "csv"
    assert config.analyses == ("spectrum",)


def test_threads_key_accepted_and_checked(tmp_path):
    config = validate_config(write(tmp_path, MINIMAL + "threads = 4\n"))
    assert not hasattr(config, "threads")
    with pytest.raises(ConfigError) as err:
        validate_config(write(tmp_path, MINIMAL + "threads = 0\n"))
    assert any("threads" in msg for msg in err.value.errors)


def test_comments_and_blank_lines_ignored():
    mapping, errors = parse_flat_text("# a comment\n\ninput.path = x\n")
    assert errors == []
    assert mapping == {"input.path": "x"}


def test_unknown_key_named(tmp_path):
    with pytest.raises(ConfigError) as err:
        validate_config(write(tmp_path, MINIMAL + "kernel.shape = boxy\n"))
    assert any("kernel.shape" in msg for msg in err.value.errors)


def test_mu_out_of_range_message(tmp_path):
    with pytest.raises(ConfigError) as err:
        validate_config(write(tmp_path, MINIMAL + "kernel.mu = 1.5\n"))
    assert any("mu must be in (0,1)" in msg for msg in err.value.errors)


def test_ambiguous_input_rejected(tmp_path):
    text = MINIMAL + "ensemble.kind = gaussian-iid\nensemble.assets = 5\nensemble.dates = 50\n"
    with pytest.raises(ConfigError) as err:
        validate_config(write(tmp_path, text))
    assert any("ambiguous" in msg for msg in err.value.errors)


def test_no_input_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        validate_config(write(tmp_path, "analyses = spectrum\n"))
    assert any("no input" in msg for msg in err.value.errors)


def test_type_mismatch_reports_expected_type(tmp_path):
    with pytest.raises(ConfigError) as err:
        validate_config(write(tmp_path, MINIMAL + "kernel.length = long\n"))
    assert any("expected integer" in msg and "kernel.length" in msg
               for msg in err.value.errors)


def test_every_error_collected(tmp_path):
    text = (
        "kernel.mu = 1.5\n"
        "kernel.length = long\n"
        "mystery.key = 1\n"
    )
    with pytest.raises(ConfigError) as err:
        validate_config(write(tmp_path, text))
    messages = "\n".join(err.value.errors)
    assert "mu must be in (0,1)" in messages
    assert "kernel.length" in messages
    assert "mystery.key" in messages
    assert "no input" in messages
    assert "at least one analysis" in messages
    assert len(err.value.errors) >= 5


def test_analyses_required_by_default(tmp_path):
    with pytest.raises(ConfigError) as err:
        validate_config(write(tmp_path, "input.path = x\n"))
    assert any("at least one analysis" in msg for msg in err.value.errors)


def test_analyses_not_required_for_synth(tmp_path):
    text = "ensemble.kind = gaussian-iid\nensemble.assets = 5\nensemble.dates = 50\n"
    config = validate_config(write(tmp_path, text), require_analyses=False)
    assert config.ensemble.kind == "gaussian-iid"
    assert config.analyses == ()


def test_rank_zero_rejected(tmp_path):
    text = MINIMAL + "analyses = spectrum,projectors\nprojectors.ranks = 0,2\n"
    with pytest.raises(ConfigError) as err:
        validate_config(write(tmp_path, text))
    assert any("projectors.ranks" in msg for msg in err.value.errors)


def test_projectors_need_rank_list(tmp_path):
    with pytest.raises(ConfigError) as err:
        validate_config(write(tmp_path, "input.path = x\nanalyses = projectors\n"))
    assert any("projectors.ranks is required" in msg for msg in err.value.errors)


def test_lagged_needs_lag_list(tmp_path):
    with pytest.raises(ConfigError) as err:
        validate_config(write(tmp_path, "input.path = x\nanalyses = lagged\n"))
    assert any("lagged.lags is required" in msg for msg in err.value.errors)


def test_negative_lag_rejected(tmp_path):
    text = "input.path = x\nanalyses = lagged\nlagged.lags = 1,-2\n"
    with pytest.raises(ConfigError) as err:
        validate_config(write(tmp_path, text))
    assert any("lagged.lags" in msg for msg in err.value.errors)


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        validate_config(write(tmp_path, MINIMAL + "input.path = other.csv\n"))
    assert any("duplicate key" in msg for msg in err.value.errors)


def test_bad_line_reports_line_number(tmp_path):
    with pytest.raises(ConfigError) as err:
        validate_config(write(tmp_path, "input.path = x\nanalyses spectrum\n"))
    assert any("line 2" in msg for msg in err.value.errors)


def test_overrides_applied_before_validation(tmp_path):
    config = validate_config(
        write(tmp_path, MINIMAL),
        overrides={"kernel.scheme": "rectangular", "kernel.length": "30"},
    )
    assert config.kernel_scheme == "rectangular"
    assert config.kernel_length == 30


def test_exponential_scheme_requires_mu(tmp_path):
    with pytest.raises(ConfigError) as err:
        validate_config(write(tmp_path, MINIMAL + "kernel.scheme = exponential\n"))
    assert any("kernel.mu is required" in msg for msg in err.value.errors)


def test_ensemble_spec_resolution():
    mapping = {
        "ensemble.kind": "one-factor",
        "ensemble.assets": "50",
        "ensemble.dates": "2000",
        "ensemble.beta": "0.5",
        "ensemble.seed": "11",
        "analyses": "spectrum",
    }
    config = config_from_mapping(mapping)
    assert config.ensemble.n_assets == 50
    assert config.ensemble.beta == 0.5
    assert config.ensemble.seed == 11


def test_mp_q_bounds(tmp_path):
    with pytest.raises(ConfigError) as err:
        validate_config(write(tmp_path, MINIMAL + "mp.q = 1.4\n"))
    assert any("mp.q" in msg for msg in err.value.errors)


ENSEMBLE = {
    "ensemble.kind": "student-iid",
    "ensemble.assets": "5",
    "ensemble.dates": "50",
    "analyses": "spectrum",
}


@pytest.mark.parametrize(
    "key, value, base",
    [
        ("kernel.tau0_days", "nan", ENSEMBLE),
        ("kernel.tau0_days", "inf", ENSEMBLE),
        ("kernel.tau0_days", "-inf", ENSEMBLE),
        ("assets.rate_scale", "nan", {"input.path": "x", "analyses": "spectrum"}),
        ("ensemble.nu", "inf", ENSEMBLE),
    ],
)
def test_non_finite_numbers_rejected(key, value, base):
    with pytest.raises(ConfigError) as err:
        config_from_mapping({**base, key: value})
    assert err.value.errors == [f"{key}: expected a finite number, got {value!r}"]


def test_eval_range_ordering(tmp_path):
    text = MINIMAL + "eval.start = 2005-01-01\neval.end = 2004-01-01\n"
    with pytest.raises(ConfigError) as err:
        validate_config(write(tmp_path, text))
    assert any("eval.start" in msg for msg in err.value.errors)


def test_eval_dates_must_be_canonical(tmp_path):
    text = MINIMAL + "eval.start = 1999-1-5\neval.end = 20240103\n"
    with pytest.raises(ConfigError) as err:
        validate_config(write(tmp_path, text))
    assert any(m.startswith("eval.start") and "1999-1-5" in m for m in err.value.errors)
    assert any(m.startswith("eval.end") and "20240103" in m for m in err.value.errors)
    config = validate_config(write(tmp_path, MINIMAL + "eval.start = 1999-01-05\n"))
    assert config.eval_start == "1999-01-05"


def test_repeated_list_entries_dropped_in_order(tmp_path):
    text = MINIMAL.replace("analyses = spectrum", "analyses = lagged,projectors,lagged") + (
        "projectors.ranks = 2,1,2,02\nlagged.lags = 0,1,1\nassets.rate_ids = b,a,b\n"
    )
    config = validate_config(write(tmp_path, text))
    assert config.analyses == ("lagged", "projectors")
    assert config.projector_ranks == (2, 1)
    assert config.lags == (0, 1)
    assert config.ingest.rate_ids == ("b", "a")
    assert config.flat()["projectors.ranks"] == "2,1"


def test_flat_echo_is_sorted_and_excludes_output_dir():
    mapping = {
        "ensemble.kind": "gaussian-iid",
        "ensemble.assets": "5",
        "ensemble.dates": "50",
        "analyses": "spectrum,density",
        "output.dir": "somewhere",
        "threads": "7",
    }
    flat = config_from_mapping(mapping).flat()
    assert "output.dir" not in flat
    assert "threads" not in flat
    assert list(flat) == sorted(flat)
    assert flat["analyses"] == "spectrum,density"


FLAT_CASES = {
    "csv": (
        {
            "input.path": "prices.csv",
            "assets.default_class": "log-price",
            "assets.rate_ids": "us10y,eur3m",
            "assets.rate_scale": "0.05",
            "assets.missing_policy": "forward-fill",
            "eval.start": "2004-01-02",
            "eval.end": "2005-06-30",
            "output.format": "json",
            "analyses": "spectrum,lagged",
            "lagged.lags": "0,1,5",
            "output.dir": "somewhere",
            "threads": "2",
        },
        {
            "analyses": "spectrum,lagged",
            "assets.default_class": "log-price",
            "assets.missing_policy": "forward-fill",
            "assets.rate_ids": "us10y,eur3m",
            "assets.rate_scale": "0.05",
            "density.bins": "60",
            "eval.end": "2005-06-30",
            "eval.start": "2004-01-02",
            "input.path": "prices.csv",
            "kernel.length": "260",
            "kernel.scheme": "long-memory",
            "kernel.tau0_days": "1560.0",
            "lagged.lags": "0,1,5",
            "lagged.length": "21",
            "matrix.flavor": "covariance",
            "output.dump_matrices": "false",
            "output.format": "json",
            "synth.output": "prices",
        },
    ),
    "student-iid": (
        {
            "ensemble.kind": "student-iid",
            "ensemble.assets": "40",
            "ensemble.dates": "500",
            "ensemble.nu": "4.5",
            "ensemble.beta": "0.3",
            "ensemble.seed": "3",
            "matrix.flavor": "correlation",
            "kernel.scheme": "exponential",
            "kernel.mu": "0.97",
            "analyses": "spectrum,mp-compare,projectors",
            "projectors.ranks": "1,3",
            "density.scale": "linear",
            "mp.q": "0.5",
            "output.dump_matrices": "true",
        },
        {
            "analyses": "spectrum,mp-compare,projectors",
            "assets.default_class": "log-price",
            "assets.missing_policy": "reject",
            "assets.rate_scale": "0.04",
            "density.bins": "60",
            "density.scale": "linear",
            "ensemble.assets": "40",
            "ensemble.dates": "500",
            "ensemble.kind": "student-iid",
            "ensemble.nu": "4.5",
            "ensemble.seed": "3",
            "kernel.length": "260",
            "kernel.mu": "0.97",
            "kernel.scheme": "exponential",
            "kernel.tau0_days": "1560.0",
            "lagged.length": "21",
            "matrix.flavor": "correlation",
            "mp.q": "0.5",
            "output.dump_matrices": "true",
            "output.format": "csv",
            "projectors.ranks": "1,3",
            "synth.output": "prices",
        },
    ),
    "one-factor": (
        {
            "ensemble.kind": "one-factor",
            "ensemble.assets": "30",
            "ensemble.dates": "400",
            "ensemble.nu": "7",
            "ensemble.beta": "0.4",
            "ensemble.seed": "7",
            "kernel.length": "130",
            "analyses": "spectrum,density,ansatz,fluctuation,lagged",
            "projectors.ranks": "1,2,5",
            "lagged.lags": "0,1,5,10",
            "lagged.length": "30",
            "density.bins": "40",
            "synth.output": "returns",
            "synth.path": "x.csv",
        },
        {
            "analyses": "spectrum,density,ansatz,fluctuation,lagged",
            "assets.default_class": "log-price",
            "assets.missing_policy": "reject",
            "assets.rate_scale": "0.04",
            "density.bins": "40",
            "ensemble.assets": "30",
            "ensemble.beta": "0.4",
            "ensemble.dates": "400",
            "ensemble.kind": "one-factor",
            "ensemble.seed": "7",
            "kernel.length": "130",
            "kernel.scheme": "long-memory",
            "kernel.tau0_days": "1560.0",
            "lagged.lags": "0,1,5,10",
            "lagged.length": "30",
            "matrix.flavor": "covariance",
            "output.dump_matrices": "false",
            "output.format": "csv",
            "projectors.ranks": "1,2,5",
            "synth.output": "returns",
            "synth.path": "x.csv",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(FLAT_CASES))
def test_flat_echo_literal(case):
    mapping, expected = FLAT_CASES[case]
    flat = config_from_mapping(mapping).flat()
    assert flat == expected
    assert list(flat) == sorted(expected)
