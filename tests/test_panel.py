import math

import numpy as np
import pytest

from covspec import (
    AssetSpec,
    IngestConfig,
    PricePanel,
    compute_returns,
    load_panel,
    map_prices,
)
from covspec.errors import (
    ContractViolationError,
    InsufficientDataError,
    PanelError,
    ParseError,
)

WELL_FORMED = """date,aaa,bbb,ccc
2001-01-01,100,50,0.04
2001-01-02,101,51,0.041
2001-01-03,102,52,0.042
2001-01-04,103,53,0.041
2001-01-05,104,54,0.040
"""


def write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_well_formed(tmp_path):
    panel = load_panel(write(tmp_path, WELL_FORMED), IngestConfig())
    assert panel.n_assets == 3
    assert panel.n_dates == 5
    assert panel.asset_ids == ("aaa", "bbb", "ccc")
    assert panel.values[0, 0] == 100.0
    assert not panel.mapped


def test_load_sorts_rows(tmp_path):
    shuffled = (
        "date,aaa\n2001-01-03,3\n2001-01-01,1\n2001-01-02,2\n"
    )
    panel = load_panel(write(tmp_path, shuffled), IngestConfig())
    assert panel.dates == ("2001-01-01", "2001-01-02", "2001-01-03")
    assert list(panel.values[0]) == [1.0, 2.0, 3.0]


def test_load_duplicate_date_names_it(tmp_path):
    text = "date,aaa\n2001-01-01,1\n2001-01-01,2\n"
    with pytest.raises(ParseError, match="2001-01-01"):
        load_panel(write(tmp_path, text), IngestConfig())


def test_load_missing_cell_rejected_with_location(tmp_path):
    text = "date,aaa,bbb\n2001-01-01,1,2\n2001-01-02,,2\n"
    with pytest.raises(PanelError, match="2001-01-02.*aaa"):
        load_panel(write(tmp_path, text), IngestConfig(missing_policy="reject"))


def test_load_forward_fill_logs_provenance(tmp_path):
    text = "date,aaa,bbb\n2001-01-01,1,2\n2001-01-02,,3\n2001-01-03,4,5\n"
    panel = load_panel(write(tmp_path, text), IngestConfig(missing_policy="forward-fill"))
    assert panel.values[0, 1] == 1.0
    assert panel.provenance == ("2001-01-02,aaa,forward-fill",)


def test_load_leading_gap_cannot_fill(tmp_path):
    text = "date,aaa\n2001-01-01,\n2001-01-02,2\n"
    with pytest.raises(PanelError, match="leading gap"):
        load_panel(write(tmp_path, text), IngestConfig(missing_policy="forward-fill"))


def test_load_column_count_mismatch_names_line(tmp_path):
    text = "date,aaa,bbb\n2001-01-01,1,2\n2001-01-02,1\n"
    with pytest.raises(ParseError, match="line 3"):
        load_panel(write(tmp_path, text), IngestConfig())


def test_load_non_numeric_cell_names_line(tmp_path):
    text = "date,aaa\n2001-01-01,1\n2001-01-02,oops\n"
    with pytest.raises(ParseError, match="line 3"):
        load_panel(write(tmp_path, text), IngestConfig())


def test_load_bad_date_names_line(tmp_path):
    text = "date,aaa\n2001-01-01,1\nnot-a-date,2\n"
    with pytest.raises(ParseError, match="line 3"):
        load_panel(write(tmp_path, text), IngestConfig())


@pytest.mark.parametrize("token", ["20010102", "2001-W01-2", "2001-1-2"])
def test_load_non_canonical_date_names_line(tmp_path, token):
    # a non-canonical spelling would sort and compare as text out of date order
    text = f"date,aaa\n2001-01-01,1\n{token},2\n2001-01-03,3\n2001-01-02,4\n"
    with pytest.raises(ParseError, match=f"line 3.*{token}|{token}.*line 3"):
        load_panel(write(tmp_path, text), IngestConfig())


def test_load_unknown_rate_id_rejected(tmp_path):
    with pytest.raises(PanelError, match="zzz"):
        load_panel(write(tmp_path, WELL_FORMED), IngestConfig(rate_ids=("zzz",)))


def _panel(values, classes=None, rate_scale=0.04):
    values = np.asarray(values, dtype=float)
    n, t = values.shape
    classes = classes or ["log-price"] * n
    assets = tuple(
        AssetSpec(f"a{i}", cls, rate_scale) for i, cls in enumerate(classes)
    )
    dates = tuple(f"2001-01-{d + 1:02d}" for d in range(t))
    return PricePanel(assets, dates, values)


def test_map_log_price_ln_e_is_one():
    panel = map_prices(_panel([[math.e, math.e**2]]))
    assert panel.values[0] == pytest.approx([1.0, 2.0])
    assert panel.mapped


def test_map_rate_zero_is_zero_and_r0_is_ln2():
    panel = map_prices(_panel([[0.0, 0.04]], classes=["interest-rate"]))
    assert panel.values[0, 0] == 0.0
    assert panel.values[0, 1] == pytest.approx(math.log(2.0), abs=1e-12)


def test_map_nonpositive_price_names_asset_and_date():
    with pytest.raises(PanelError, match="a0.*2001-01-02"):
        map_prices(_panel([[1.0, -2.0]]))


def test_map_rate_below_floor_names_asset_and_date():
    with pytest.raises(PanelError, match="a0.*2001-01-01"):
        map_prices(_panel([[-0.05, 0.01]], classes=["interest-rate"]))


def test_map_twice_forbidden():
    mapped = map_prices(_panel([[1.0, 2.0]]))
    with pytest.raises(ContractViolationError, match="already mapped"):
        map_prices(mapped)


def test_returns_require_mapped_panel():
    with pytest.raises(ContractViolationError, match="mapped"):
        compute_returns(_panel([[1.0, 2.0]]))


def test_returns_constant_series_zero():
    returns = compute_returns(map_prices(_panel([[5.0, 5.0, 5.0]])))
    assert np.all(returns.returns == 0.0)


def test_returns_first_difference():
    panel = map_prices(_panel([[1.0, math.e, math.e**3]]))
    returns = compute_returns(panel)
    assert returns.returns[0] == pytest.approx([1.0, 2.0])


def test_returns_dates_align_to_later_timestamp():
    panel = map_prices(_panel([[1.0, 2.0, 3.0, 4.0, 5.0]]))
    returns = compute_returns(panel)
    assert returns.n_dates == 4
    assert returns.dates == panel.dates[1:]


def test_single_date_panel_rejected():
    with pytest.raises(InsufficientDataError):
        _panel([[1.0]])


def test_round_trip_cumsum_reproduces_mapped_prices():
    rng = np.random.default_rng(3)
    raw = np.exp(rng.standard_normal((4, 30)).cumsum(axis=1) * 0.01)
    mapped = map_prices(_panel(raw))
    returns = compute_returns(mapped)
    rebuilt = mapped.values[:, :1] + np.concatenate(
        [np.zeros((4, 1)), np.cumsum(returns.returns, axis=1)], axis=1
    )
    assert np.max(np.abs(rebuilt - mapped.values)) < 1e-12


def test_permuting_columns_permutes_returns():
    rng = np.random.default_rng(4)
    raw = np.abs(rng.standard_normal((5, 12))) + 0.5
    base = compute_returns(map_prices(_panel(raw)))
    perm = [3, 0, 4, 1, 2]
    permuted = compute_returns(map_prices(_panel(raw[perm])))
    assert np.array_equal(permuted.returns, base.returns[perm])


def test_duplicate_asset_ids_rejected():
    assets = (AssetSpec("x"), AssetSpec("x"))
    with pytest.raises(PanelError, match="duplicate"):
        PricePanel(assets, ("2001-01-01", "2001-01-02"), np.ones((2, 2)))
