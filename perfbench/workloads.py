"""Benchmark workloads: the config and input files each one hands to covspec.

Every input is made from the benchmark's ``--seed``. The same module also
rebuilds, with plain numpy and no covspec code, the return panel and the
weighted covariance the program should have computed; the output check
compares the program's results against those references.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RATE_SCALE = 0.04  # covspec's default assets.rate_scale


@dataclass(frozen=True)
class Workload:
    name: str
    source: str  # "ensemble" or "csv"
    n_assets: int
    n_dates: int  # return dates of the panel
    kernel: str
    length: int
    flavor: str
    analyses: tuple[str, ...]
    threads: int
    kind: str = ""
    beta: float = 0.0
    tau0_days: float = 1560.0
    mu: float | None = None
    eval_last: int | None = None  # evaluate only the last this-many dates
    ranks: tuple[int, ...] = ()
    lags: tuple[int, ...] = ()
    dump: bool = False
    rate_columns: int = 0
    blank_rate: float = 0.0

    @property
    def eval_dates(self) -> int:
        feasible = self.n_dates - self.length + 1
        return feasible if self.eval_last is None else min(self.eval_last, feasible)

    def shape(self) -> dict:
        return {
            "N": self.n_assets,
            "T": self.n_dates,
            "L": self.length,
            "kernel": self.kernel,
            "evaluated_dates": self.eval_dates,
            "threads": self.threads,
        }


# BENCHMARK.json lists longmem-full and csv-dump. wide-values (values-only
# spectra of N=250 at threads=2, the only workload that runs the thread
# pool) runs by hand with --workload: three workloads do not fit the
# benchmark's time budget at run lengths long enough to be steady, and
# threads=2 runs spread most under host load.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="longmem-full",
            source="ensemble",
            kind="one-factor",
            beta=0.4,
            n_assets=150,
            n_dates=1200,
            kernel="long-memory",
            length=260,
            flavor="covariance",
            analyses=("spectrum", "density", "mp-compare", "ansatz", "projectors",
                      "fluctuation", "lagged"),
            ranks=(1, 2, 5),
            lags=(0, 1, 5, 10, 21, 30),
            threads=1,
        ),
        Workload(
            name="wide-values",
            source="ensemble",
            kind="gaussian-iid",
            n_assets=250,
            n_dates=700,
            kernel="rectangular",
            length=260,
            flavor="correlation",
            analyses=("spectrum", "density", "mp-compare", "ansatz"),
            threads=2,
        ),
        Workload(
            name="csv-dump",
            source="csv",
            n_assets=80,
            n_dates=1999,
            kernel="exponential",
            length=120,
            mu=0.97,
            flavor="covariance",
            analyses=("spectrum", "density", "lagged"),
            eval_last=600,
            ranks=(1, 3),
            lags=(0, 1, 2, 5, 10, 21, 42),
            dump=True,
            rate_columns=3,
            blank_rate=0.005,
            threads=1,
        ),
    )
}


def business_dates(count: int, start: str = "1999-01-04") -> list[str]:
    day = _dt.date.fromisoformat(start)
    out = []
    while len(out) < count:
        if day.weekday() < 5:
            out.append(day.isoformat())
        day += _dt.timedelta(days=1)
    return out


@dataclass
class Inputs:
    """What a workload hands to covspec, plus the references to check against."""

    config_path: Path
    dates: list[str]  # return dates
    returns: np.ndarray  # (N, T) reference return panel
    blanks: list[tuple[str, str]]  # (date, asset) cells left blank in the CSV


def ensemble_returns(w: Workload, seed: int) -> np.ndarray:
    """The draws covspec's ensemble generator makes for this kind and seed."""
    rng = np.random.default_rng(seed)
    n, t = w.n_assets, w.n_dates
    if w.kind == "gaussian-iid":
        return rng.standard_normal((n, t))
    factor = rng.standard_normal(t)
    noise = rng.standard_normal((n, t))
    return w.beta * factor + np.sqrt(1.0 - w.beta**2) * noise


def csv_panel(w: Workload, seed: int):
    """Seeded price and rate panel with blank cells.

    Price columns are 100*exp(cumsum(r)) with about 1% daily volatility and a
    weak common factor. Rate columns are positive levels near 3% with small
    mean-reverting daily changes. Blank cells never fall on the first date,
    so forward-fill always has a value to carry.
    """
    rng = np.random.default_rng(seed)
    n_price = w.n_assets - w.rate_columns
    t = w.n_dates + 1
    factor = rng.standard_normal(t)
    noise = rng.standard_normal((n_price, t))
    r = 0.01 * (0.3 * factor + np.sqrt(1.0 - 0.09) * noise)
    r[:, 0] = 0.0
    prices = 100.0 * np.exp(np.cumsum(r, axis=1))
    x = np.zeros((w.rate_columns, t))
    shocks = 0.01 * rng.standard_normal((w.rate_columns, t))
    for j in range(1, t):
        x[:, j] = 0.99 * x[:, j - 1] + shocks[:, j]
    rates = 0.03 * np.exp(x)
    # Written with 17 significant digits, so covspec reads these exact floats.
    values = np.vstack([prices, rates])
    blank = rng.random(values.shape) < w.blank_rate
    blank[:, 0] = False
    ids = [f"p{i:03d}" for i in range(n_price)] + [f"rate{i}" for i in range(w.rate_columns)]
    return ids, values, blank


def _write_csv(path: Path, dates, ids, values, blank) -> None:
    with open(path, "w") as fh:
        fh.write("date," + ",".join(ids) + "\n")
        for j, date in enumerate(dates):
            cells = ("" if blank[a, j] else f"{values[a, j]:.17g}" for a in range(len(ids)))
            fh.write(date + "," + ",".join(cells) + "\n")


def prepare(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the workload's config (and CSV) under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    blanks: list[tuple[str, str]] = []
    lines = []
    if w.source == "ensemble":
        returns = ensemble_returns(w, seed)
        dates = business_dates(w.n_dates)
        lines += [
            f"ensemble.kind = {w.kind}",
            f"ensemble.assets = {w.n_assets}",
            f"ensemble.dates = {w.n_dates}",
            f"ensemble.seed = {seed}",
        ]
        if w.kind == "one-factor":
            lines.append(f"ensemble.beta = {w.beta}")
    else:
        ids, values, blank = csv_panel(w, seed)
        price_dates = business_dates(w.n_dates + 1)
        csv_path = workdir / "prices.csv"
        _write_csv(csv_path, price_dates, ids, values, blank)
        filled = values.copy()
        for j in range(1, filled.shape[1]):
            gap = blank[:, j]
            filled[gap, j] = filled[gap, j - 1]
        blanks = [(price_dates[j], ids[a]) for a, j in zip(*np.nonzero(blank))]
        mapped = filled.copy()
        n_price = w.n_assets - w.rate_columns
        mapped[:n_price] = np.log(filled[:n_price])
        mapped[n_price:] = np.log(1.0 + filled[n_price:] / RATE_SCALE)
        returns = np.diff(mapped, axis=1)
        dates = price_dates[1:]
        lines += [
            f"input.path = {csv_path.resolve()}",
            "assets.rate_ids = " + ",".join(ids[n_price:]),
            "assets.missing_policy = forward-fill",
        ]
    lines += [
        f"matrix.flavor = {w.flavor}",
        f"kernel.scheme = {w.kernel}",
        f"kernel.length = {w.length}",
    ]
    if w.kernel == "long-memory":
        lines.append(f"kernel.tau0_days = {w.tau0_days}")
    if w.mu is not None:
        lines.append(f"kernel.mu = {w.mu}")
    if w.eval_last is not None:
        lines.append(f"eval.start = {dates[-w.eval_last]}")
    lines.append("analyses = " + ",".join(w.analyses))
    if w.ranks:
        lines.append("projectors.ranks = " + ",".join(map(str, w.ranks)))
    if w.lags:
        lines.append("lagged.lags = " + ",".join(map(str, w.lags)))
    if w.dump:
        lines.append("output.dump_matrices = true")
    lines.append(f"threads = {w.threads}")
    config_path = workdir / "run.cfg"
    config_path.write_text("\n".join(lines) + "\n")
    return Inputs(config_path, dates, returns, blanks)


def kernel_weights(w: Workload) -> np.ndarray:
    """Normalized weights, index 0 the most recent return."""
    i = np.arange(w.length)
    if w.kernel == "rectangular":
        raw = np.ones(w.length)
    elif w.kernel == "exponential":
        raw = w.mu**i
    else:
        raw = np.clip(1.0 - np.log(i + 1.0) / np.log(w.tau0_days), 0.0, None)
    return raw / raw.sum()


def reference_matrix(w: Workload, returns: np.ndarray, j: int, flavor: str) -> np.ndarray:
    """Weighted covariance (or correlation) at return index ``j``."""
    weights = kernel_weights(w)
    window = returns[:, j - w.length + 1 : j + 1]
    cov = (window * weights[::-1]) @ window.T
    cov = (cov + cov.T) / 2.0
    if flavor == "covariance":
        return cov
    inv_s = 1.0 / np.sqrt(np.diag(cov))
    return cov * np.outer(inv_s, inv_s)
