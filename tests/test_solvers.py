"""The two scalar searches of ``covspec.spectral``, ports of SciPy's Brent
routines, against the routines themselves: ``_brent_root`` against
``brentq`` and ``_bounded_minimum`` against ``minimize_scalar(method=
"bounded")``. Each port must evaluate the same points and return the same
bits, on the problems covspec poses (recorded from its own calls) and on
edge cases, and raise NumericalError where SciPy raises. covspec itself
loads no ``scipy`` module; these tests do."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from covspec import (
    CORRELATION,
    DensityBins,
    DensityHistogram,
    EnsembleSpec,
    build_kernel,
    density_of_states_curve,
    fit_ansatz,
    fit_mp_q,
    generate_returns,
    log_mean_spectrum,
    mp_density,
    mp_support,
    rolling_spectra,
    run_analysis,
    spectral,
    spectral_density,
    validate_config,
)
from covspec.errors import AnalysisError, NumericalError
from covspec.spectral import MP_Q_BOUNDS, _bounded_minimum, _brent_root
from testutil import random_panel, synthesize_spectrum

SRC = Path(__file__).resolve().parents[1] / "src"


def counted(f):
    """f, counting its calls in ``.calls``."""
    def wrapper(x):
        wrapper.calls += 1
        return f(x)
    wrapper.calls = 0
    return wrapper


def assert_root_matches_brentq(f, a, b, **options):
    port, ref = counted(f), counted(f)
    got = _brent_root(port, a, b, **options)
    want, result = brentq(ref, a, b, full_output=True, **options)
    assert result.converged
    assert got.hex() == want.hex()
    assert port.calls == ref.calls == result.function_calls


def assert_minimum_matches_scipy(f, lo, hi, xatol, maxiter=500):
    port, ref = counted(f), counted(f)
    got = _bounded_minimum(port, lo, hi, xatol=xatol, maxiter=maxiter)
    res = minimize_scalar(ref, bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol, "maxiter": maxiter})
    assert res.status in (0, 1)
    assert got.hex() == float(res.x).hex()
    assert port.calls == ref.calls == res.nfev


def recorded(monkeypatch, name):
    """Patch ``spectral.<name>`` to record each call's arguments, calling
    the port; returns the list of (args, kwargs)."""
    calls = []
    port = getattr(spectral, name)

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return port(*args, **kwargs)

    monkeypatch.setattr(spectral, name, record)
    return calls


def long_memory_mean_spectrum():
    spec = EnsembleSpec("one-factor", 60, 159, beta=0.5, seed=3)
    kernel = build_kernel("long-memory", 120, tau0_days=1560)
    return log_mean_spectrum(rolling_spectra(generate_returns(spec), kernel))


def fitted_spectra():
    """Spectra whose fit has a curvature root: noiseless, noisy and from a run."""
    rng = np.random.default_rng(8)
    clean = synthesize_spectrum(8.0, 1.1, 1e-4, 100)
    return [
        clean,
        clean * np.exp(0.05 * rng.standard_normal(100)),
        synthesize_spectrum(3.0, 1.6, 2.0, 57) * np.exp(0.01 * rng.standard_normal(57)),
        long_memory_mean_spectrum(),
    ]


# ---------------------------------------------------------------- roots


def test_fit_gradient_and_curve_inversion_roots_match_brentq(monkeypatch):
    calls = recorded(monkeypatch, "_brent_root")
    for spectrum in fitted_spectra():
        del calls[:]
        fit = fit_ansatz(spectrum)
        assert len(calls) == 1 and math.isfinite(fit.b)  # the fit's c root
        density_of_states_curve(fit, np.geomspace(*fit.eps_range(), 200))
        assert len(calls) > 100  # the inversions, but for the two end points
        for args, kwargs in calls:
            assert_root_matches_brentq(*args, **kwargs)


def test_root_at_an_end_matches_brentq():
    for f in (lambda x: x - 1.0, lambda x: 3.0 - x):
        assert_root_matches_brentq(f, 1.0, 3.0, xtol=1e-12)
    assert _brent_root(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-12) == 1.0
    # -0.0 is a zero, whatever its sign bit
    assert_root_matches_brentq(lambda x: -0.0 if x == 0.0 else x - 0.5, 0.0, 1.0, xtol=1e-12)


@pytest.mark.parametrize(
    "f, a, b, options",
    [
        # a reversed bracket
        (lambda x: math.tanh(3.0 * (x - 0.2)), 1.0, -1.0, {"xtol": 1e-14}),
        # a step: no interpolation ever helps, so every step bisects
        (lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0, {"xtol": 1e-15}),
        # values near underflow: the inverse quadratic step's denominator
        # underflows to 0, and brentq.c's division by it bisects
        (lambda x: 1e-150 * (x - 0.3) * ((x - 0.5) ** 2 + 0.01), 0.0, 1.0, {"xtol": 1e-12}),
        # a flat root, an odd power, and a loose relative tolerance
        (lambda x: math.copysign(abs(x - 0.7) ** 3, x - 0.7), 0.0, 4.0,
         {"xtol": 1e-16, "rtol": 1e-6}),
    ],
    ids=["reversed", "step", "underflow", "flat-root"],
)
def test_edge_brackets_match_brentq(f, a, b, options):
    assert_root_matches_brentq(f, a, b, **options)


@pytest.mark.parametrize(
    "f, a, b, maxiter, message",
    [
        (lambda x: 1.0 + x * x, -1.0, 1.0, 100, "have one sign"),
        (lambda x: 1e-200, 0.0, 1.0, 100, "have one sign"),  # a product would underflow
        (lambda x: math.nan if x == 0.0 else x, 0.0, 1.0, 100, "is NaN"),
        (lambda x: math.nan if abs(x - 0.5) < 0.3 else x - 0.5, 0.0, 1.0, 100, "is NaN"),
        (lambda x: -1.0 if x < 1.0 / 3.0 else 1.0, 0.0, 1.0, 5, "did not converge in 5 steps"),
    ],
    ids=["one-sign", "tiny-one-sign", "nan-at-end", "nan-inside", "maxiter"],
)
def test_root_search_failures_raise_where_brentq_raises(f, a, b, maxiter, message):
    with pytest.raises((ValueError, RuntimeError)):
        brentq(f, a, b, xtol=1e-14, maxiter=maxiter)
    with pytest.raises(NumericalError, match=message):
        _brent_root(f, a, b, xtol=1e-14, maxiter=maxiter)


# ---------------------------------------------------------------- minima


def mp_histogram(q, count=60):
    """The M-P density at the centres of ``count`` bins over its support."""
    edges = DensityBins("linear", *mp_support(q), count).edges()
    centers = (edges[:-1] + edges[1:]) / 2.0
    return DensityHistogram(centers, np.diff(edges), mp_density(centers, q), 0, 1000)


ORACLE_QS = (0.01, 0.1, 0.37, 0.8, 1.0)


def test_mp_losses_match_minimize_scalar(monkeypatch):
    calls = recorded(monkeypatch, "_bounded_minimum")
    panel, kernel = random_panel(40, 200, 30, seed=4)
    spectra = rolling_spectra(panel, kernel, flavor=CORRELATION)
    histograms = [
        spectral_density(spectra, DensityBins("linear", *mp_support(0.2), 60)),
        spectral_density(spectra, DensityBins("linear", *mp_support(0.5), 25)),
        *(mp_histogram(q) for q in ORACLE_QS),
    ]
    for hist in histograms:
        fit_mp_q(hist)
    assert len(calls) == len(histograms)
    for args, kwargs in calls:
        assert args[1:] == MP_Q_BOUNDS and kwargs == {"xatol": 1e-8}
        assert_minimum_matches_scipy(*args, **kwargs)


@pytest.mark.parametrize("q", ORACLE_QS)
def test_fitted_q_of_an_exact_mp_histogram_is_q(q):
    # the search stops with x within 2*(sqrt(2.2e-16)*|x| + xatol/3) of both
    # ends of a bracket around the minimum, and the loss is 0 at q alone
    tol = 2.0 * (math.sqrt(2.2e-16) * q + 1e-8 / 3.0)
    assert abs(fit_mp_q(mp_histogram(q)) - q) <= tol


@pytest.mark.parametrize(
    "f, lo, hi, xatol, maxiter",
    [
        (lambda x: (x - 0.3) ** 2, 0.0, 1.0, 1e-8, 500),
        (lambda x: x, 2.0, 5.0, 1e-10, 500),  # the minimum at the lower bound
        (lambda x: -x, 2.0, 5.0, 1e-10, 500),  # and at the upper
        (lambda x: 4.0, -1.0, 1.0, 1e-6, 500),  # flat: golden sections only
        (lambda x: math.cos(40.0 * x) + 0.1 * x * x, -1.0, 1.0, 1e-9, 500),
        (lambda x: 1e6 + 1e-12 * (x - 0.3) ** 2, 0.0, 1.0, 1e-12, 500),
        (lambda x: abs(x - 0.123) ** 0.5, 0.0, 1.0, 1e-12, 500),
        (lambda x: (x - 0.3) ** 2, 0.0, 1.0, 1e-12, 5),  # stopped at maxiter
    ],
    ids=["parabola", "lower-bound", "upper-bound", "flat", "many-minima",
         "last-bits", "cusp", "maxiter"],
)
def test_minima_match_minimize_scalar(f, lo, hi, xatol, maxiter):
    assert_minimum_matches_scipy(f, lo, hi, xatol, maxiter)


def test_minimum_search_meeting_a_nan_raises():
    def f(x):
        return math.nan if x < 0.5 else (x - 0.7) ** 2

    assert minimize_scalar(f, bounds=(0.0, 1.0), method="bounded").status == 2
    with pytest.raises(NumericalError, match="met a NaN"):
        _bounded_minimum(f, 0.0, 1.0, xatol=1e-8)


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
