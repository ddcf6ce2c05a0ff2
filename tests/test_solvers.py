"""The two scalar searches of ``covspec.spectral``: ``_bisect``, the root
search of the spectrum fit and of the inversion of its curve, and
``_grid_minimum``, the M-P q fit's search, through ``fit_mp_q``. covspec
itself loads no ``scipy`` module."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covspec import (
    CORRELATION,
    DensityBins,
    DensityHistogram,
    EnsembleSpec,
    build_kernel,
    effective_length,
    fit_mp_q,
    generate_returns,
    mp_density,
    mp_support,
    rolling_spectra,
    run_analysis,
    spectral,
    spectral_density,
    validate_config,
)
from covspec.errors import AnalysisError, NumericalError
from covspec.spectral import MP_Q_BOUNDS, _bisect, _grid_minimum

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------- roots


def rising(root, slope, cubic):
    """slope*(x - root) + cubic*(x - root)^3, which rises through its root,
    of one root or elementwise of an array of them."""
    def f(x):
        d = x - root
        return slope * d + cubic * d * d * d
    return f


@settings(max_examples=200, deadline=None)
@given(
    brackets=st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(1e-6, 2.0), st.floats(1e-6, 2.0)),
        min_size=1, max_size=8,
    ),
    slope=st.floats(1e-3, 1e3),
    cubic=st.floats(0.0, 1e3),
    xtol=st.floats(1e-17, 1e-3),
)
def test_bisection_lands_within_xtol_of_each_root(brackets, slope, cubic, xtol):
    # each root r in its own bracket [r - below, r + above]
    r, below, above = (np.array(column) for column in zip(*brackets))
    lo, hi = r - below, r + above
    got = _bisect(rising(r, slope, cubic), lo, hi, xtol)
    # an xtol below the doubles' spacing stops where no double lies between
    # the bracket's ends
    assert np.all(np.abs(got - r) <= np.maximum(xtol, 2.0 * np.spacing(np.abs(r))))
    for i, root in enumerate(r):
        one = _bisect(rising(float(root), slope, cubic), lo[i], hi[i], xtol)
        assert isinstance(one, float)
        assert one.hex() == float(got[i]).hex()


def test_bisection_meeting_a_nan_raises():
    with pytest.raises(NumericalError, match="is NaN"):
        _bisect(lambda x: np.where(x > 0.3, np.nan, x - 0.5), np.zeros(3), 1.0, 1e-12)


# ---------------------------------------------------------------- minima


def mp_histogram(q, count=60):
    """The M-P density at the centres of ``count`` bins over its support."""
    edges = DensityBins("linear", *mp_support(q), count).edges()
    centers = (edges[:-1] + edges[1:]) / 2.0
    return DensityHistogram(centers, np.diff(edges), mp_density(centers, q), 0, 1000)


ORACLE_QS = (0.01, 0.1, 0.37, 0.8, 1.0)


@pytest.mark.parametrize("q", ORACLE_QS)
def test_fitted_q_of_an_exact_mp_histogram_is_q(q):
    # the golden sections stop once a bracket of the minimum is at most
    # xtol = 1e-8 wide and return its better inner point, within 0.382 xtol
    # of the minimum, well inside this bound; the loss is 0 at q alone
    tol = 2.0 * (math.sqrt(2.2e-16) * q + 1e-8 / 3.0)
    assert abs(fit_mp_q(mp_histogram(q)) - q) <= tol


def squared_deviation(hist, q):
    """fit_mp_q's loss at one q, from scalar calls of mp_density."""
    return float(np.sum((hist.densities - mp_density(hist.centers, q)) ** 2))


def test_fitted_q_is_the_least_squares_q_where_the_loss_has_two_minima():
    # correlation spectra whose histogram over the support of q = N/T_eff =
    # 0.4825 has a local minimum of the loss near q = 0.411 (loss 0.163); a
    # search from a single bracket stopped there, short of the least-squares
    # q near 0.436 (loss 0.144)
    returns = generate_returns(EnsembleSpec("gaussian-iid", 40, 520, seed=7))
    kernel = build_kernel("exponential", 120, mu=0.98)
    spectra = rolling_spectra(returns, kernel, CORRELATION)
    q_teff = 40 / effective_length(kernel)
    hist = spectral_density(spectra, DensityBins("linear", *mp_support(q_teff), 60))
    best = min(squared_deviation(hist, q) for q in np.linspace(*MP_Q_BOUNDS, 20001))
    assert squared_deviation(hist, fit_mp_q(hist)) <= best * (1.0 + 1e-9)


def test_minimum_search_meeting_a_nan_raises():
    def f(x):
        return np.where(x < 0.5, math.nan, (x - 0.7) ** 2)

    with pytest.raises(NumericalError, match="met a NaN"):
        _grid_minimum(f, 0.0, 1.0, 1000, xtol=1e-8)


def test_a_failed_search_names_the_stage(tmp_path, monkeypatch):
    # a NaN loss in fit_mp_q fails the run with the spectral stage's prefix
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "ensemble.kind = gaussian-iid\nensemble.assets = 10\nensemble.dates = 80\n"
        "kernel.scheme = rectangular\nkernel.length = 60\nanalyses = mp-compare\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    monkeypatch.setattr(spectral, "mp_density", lambda lam, q: np.full(np.shape(lam), np.nan))
    with pytest.raises(AnalysisError, match=r"^spectral: bounded minimum search .* met a NaN"):
        run_analysis(validate_config(str(cfg)))


# ---------------------------------------------------------------- imports

# A fresh interpreter: the scipy modules that covspec's import, then a run of
# every analysis with the per-date matrices dumped, leave loaded.
PROBE = """
import sys
import covspec

def scipy():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

print(*scipy(), sep=",")
covspec.run_analysis(covspec.validate_config(sys.argv[1]))
print(*scipy(), sep=",")
"""

CONFIG = """
ensemble.kind = one-factor
ensemble.assets = 12
ensemble.dates = 40
ensemble.beta = 0.5
ensemble.seed = 5
kernel.scheme = long-memory
kernel.length = 30
analyses = spectrum,density,mp-compare,ansatz,projectors,fluctuation,lagged
projectors.ranks = 1,3
lagged.length = 8
lagged.lags = 0,1,5
output.dump_matrices = true
"""


def test_covspec_loads_no_scipy(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG + f"output.dir = {tmp_path / 'out'}\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE, str(cfg)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n\n"
    assert {"ansatz.json", "density_of_states.csv", "lagged_correlation.csv", "matrices",
            "mean_projector_spectrum.csv", "mp_compare.json"} <= set(
        os.listdir(tmp_path / "out")
    )
