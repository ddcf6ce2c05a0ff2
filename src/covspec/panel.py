"""Price-panel ingestion, price mapping, and return computation.

A panel holds one row per asset and one column per date. Raw prices are
mapped to log prices (or log-shifted rates for interest-rate series) before
returns are taken as first differences along the time axis. Dates are opaque
ordered labels; ISO-8601 strings sort chronologically, which is all the
ordering used here.
"""

from __future__ import annotations

import csv
import datetime as _dt
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractViolationError, InsufficientDataError, PanelError, ParseError

logger = logging.getLogger(__name__)

LOG_PRICE = "log-price"
INTEREST_RATE = "interest-rate"
ASSET_CLASSES = (LOG_PRICE, INTEREST_RATE)

MISSING_POLICIES = ("reject", "forward-fill")

_MISSING_TOKENS = {"", "na", "nan", "null"}


@dataclass(frozen=True)
class AssetSpec:
    """One asset column: identifier, price-mapping class, and rate scale."""

    id: str
    asset_class: str = LOG_PRICE
    rate_scale: float = 0.04

    def __post_init__(self):
        if self.asset_class not in ASSET_CLASSES:
            raise PanelError(f"unknown asset class {self.asset_class!r} for {self.id!r}")
        if self.asset_class == INTEREST_RATE and self.rate_scale <= 0:
            raise PanelError(f"rate scale must be > 0 for {self.id!r}")


@dataclass(frozen=True)
class IngestConfig:
    """How to interpret a raw CSV: class assignment and missing-value policy."""

    default_class: str = LOG_PRICE
    rate_ids: tuple[str, ...] = ()
    rate_scale: float = 0.04
    missing_policy: str = "reject"

    def __post_init__(self):
        if self.default_class not in ASSET_CLASSES:
            raise PanelError(f"unknown default asset class {self.default_class!r}")
        if self.missing_policy not in MISSING_POLICIES:
            raise PanelError(f"unknown missing-value policy {self.missing_policy!r}")

    def asset_spec(self, asset_id: str) -> AssetSpec:
        cls = INTEREST_RATE if asset_id in self.rate_ids else self.default_class
        return AssetSpec(asset_id, cls, self.rate_scale)


@dataclass(frozen=True)
class PricePanel:
    """N assets by T dates of raw prices/rates (or mapped prices once mapped)."""

    assets: tuple[AssetSpec, ...]
    dates: tuple[str, ...]
    values: np.ndarray
    mapped: bool = False
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        n, t = values.shape
        if n != len(self.assets):
            raise PanelError(f"{len(self.assets)} assets but {n} value rows")
        if t != len(self.dates):
            raise PanelError(f"{len(self.dates)} dates but {t} value columns")
        if t < 2:
            raise InsufficientDataError(f"panel needs at least 2 dates, got {t}")
        ids = [a.id for a in self.assets]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise PanelError(f"duplicate asset ids: {dup}")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise PanelError(f"dates not strictly increasing at {cur!r}")
        if not np.all(np.isfinite(values)):
            raise PanelError("panel contains non-finite values after ingestion")

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def asset_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.assets)


@dataclass(frozen=True)
class ReturnPanel:
    """N assets by T-1 dates of one-step differences of the mapped price."""

    assets: tuple[AssetSpec, ...]
    dates: tuple[str, ...]
    returns: np.ndarray

    def __post_init__(self):
        returns = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", returns)
        n, t = returns.shape
        if n != len(self.assets):
            raise PanelError(f"{len(self.assets)} assets but {n} return rows")
        if t != len(self.dates):
            raise PanelError(f"{len(self.dates)} dates but {t} return columns")

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def asset_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.assets)


def is_iso_date(token: str) -> bool:
    """True for YYYY-MM-DD alone, not 20240103 or other forms fromisoformat takes."""
    try:
        return _dt.date.fromisoformat(token).isoformat() == token
    except ValueError:
        return False


def load_panel(path, config: IngestConfig) -> PricePanel:
    """Read one CSV (date column + one column per asset) into a PricePanel.

    Rows are sorted by date. Missing cells are rejected or forward-filled per
    ``config.missing_policy``; each fill is recorded as a provenance line
    ``<date>,<asset>,forward-fill``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", 1) from None
        header = [h.strip() for h in header]
        if not header or header[0] != "date":
            raise ParseError(f"first column must be 'date', got {header[:1]!r}", 1)
        asset_ids = header[1:]
        if not asset_ids:
            raise ParseError("no asset columns", 1)

        rows: list[tuple[str, list[float | None], int]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} columns, got {len(row)}", line_no
                )
            date = row[0].strip()
            if not is_iso_date(date):
                raise ParseError(f"date {date!r} is not a YYYY-MM-DD date", line_no)
            cells: list[float | None] = []
            for col, tok in zip(asset_ids, row[1:]):
                tok = tok.strip()
                if tok.lower() in _MISSING_TOKENS:
                    cells.append(None)
                    continue
                try:
                    cells.append(float(tok))
                except ValueError:
                    raise ParseError(
                        f"value {tok!r} in column {col!r} is not numeric", line_no
                    ) from None
            rows.append((date, cells, line_no))

    if len(rows) < 2:
        raise InsufficientDataError(f"panel needs at least 2 dates, got {len(rows)}")

    unknown_rates = [i for i in config.rate_ids if i not in asset_ids]
    if unknown_rates:
        raise PanelError(f"rate ids not present in file: {unknown_rates}")

    rows.sort(key=lambda r: r[0])
    for (d1, _, _), (d2, _, l2) in zip(rows, rows[1:]):
        if d1 == d2:
            raise ParseError(f"duplicate date {d2!r}", l2)

    provenance: list[str] = []
    n = len(asset_ids)
    values = np.empty((n, len(rows)))
    last: list[float | None] = [None] * n
    for t, (date, cells, line_no) in enumerate(rows):
        for a, cell in enumerate(cells):
            if cell is None:
                if config.missing_policy == "reject":
                    raise PanelError(
                        f"missing value at date {date!r}, asset {asset_ids[a]!r} "
                        f"(line {line_no})"
                    )
                if last[a] is None:
                    raise PanelError(
                        f"cannot forward-fill leading gap at date {date!r}, "
                        f"asset {asset_ids[a]!r}"
                    )
                cell = last[a]
                provenance.append(f"{date},{asset_ids[a]},forward-fill")
                logger.info("forward-filled %s/%s", date, asset_ids[a])
            last[a] = cell
            values[a, t] = cell

    assets = tuple(config.asset_spec(i) for i in asset_ids)
    dates = tuple(r[0] for r in rows)
    return PricePanel(assets, dates, values, mapped=False, provenance=tuple(provenance))


def map_prices(panel: PricePanel) -> PricePanel:
    """Apply the per-class price mapping: ln(p), or ln(1 + R/R0) for rates.

    May be applied once; a second application raises.
    """
    if panel.mapped:
        raise ContractViolationError("panel is already mapped")
    mapped = np.empty_like(panel.values)
    for a, spec in enumerate(panel.assets):
        row = panel.values[a]
        if spec.asset_class == LOG_PRICE:
            bad = np.nonzero(row <= 0)[0]
            if bad.size:
                t = int(bad[0])
                raise PanelError(
                    f"non-positive price {row[t]!r} for asset {spec.id!r} "
                    f"at date {panel.dates[t]!r}"
                )
            mapped[a] = np.log(row)
        else:
            shifted = 1.0 + row / spec.rate_scale
            bad = np.nonzero(shifted <= 0)[0]
            if bad.size:
                t = int(bad[0])
                raise PanelError(
                    f"rate {row[t]!r} at or below -{spec.rate_scale} for asset "
                    f"{spec.id!r} at date {panel.dates[t]!r}"
                )
            mapped[a] = np.log(shifted)
    return replace(panel, values=mapped, mapped=True)


def compute_returns(panel: PricePanel) -> ReturnPanel:
    """First differences of the mapped price, dated by the later timestamp."""
    if not panel.mapped:
        raise ContractViolationError("panel must be mapped before taking returns")
    if panel.n_dates < 2:
        raise InsufficientDataError("need at least 2 dates to compute returns")
    returns = np.diff(panel.values, axis=1)
    return ReturnPanel(panel.assets, panel.dates[1:], returns)


def make_business_dates(count: int, start: str = "1999-01-04") -> tuple[str, ...]:
    """Generate ``count`` consecutive weekday labels in ISO format."""
    day = _dt.date.fromisoformat(start)
    out = []
    while len(out) < count:
        if day.weekday() < 5:
            out.append(day.isoformat())
        day += _dt.timedelta(days=1)
    return tuple(out)
