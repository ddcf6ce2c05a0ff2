"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import math
import time

import numpy as np
import pytest

from covspec import (
    DensityBins,
    EnsembleSpec,
    ReturnPanel,
    SpectrumSeries,
    build_kernel,
    density_of_states_curve,
    fit_ansatz,
    fluctuation_index,
    generate_returns,
    log_mean_spectrum,
    make_business_dates,
    mean_projector,
    mp_density,
    mp_support,
    rolling_spectra,
    spectral_density,
    top_eigenvalue_oracle,
)
from covspec import spectral
from covspec.cli import main
from testutil import (
    assert_correlation_constraints,
    basis_series,
    covariance_stack,
    matrix_lagged_correlation,
    projector_series,
    random_symmetric,
)


def check(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


@pytest.fixture(scope="module")
def mp_experiment():
    """50 independent Wishart samples: N=100, rectangular T_eff=500, q=0.2."""
    start = time.monotonic()
    n, t_eff, samples = 100, 500, 50
    kernel = build_kernel("rectangular", t_eff)
    rows = []
    for s in range(samples):
        panel = generate_returns(EnsembleSpec("gaussian-iid", n, t_eff, seed=9000 + s))
        rows.append(rolling_spectra(panel, kernel, "correlation").values[0])
    elapsed = time.monotonic() - start
    values = np.vstack(rows)
    return values, elapsed


def test_criterion_1_mp_convergence(mp_experiment):
    values, elapsed = mp_experiment
    q = 0.2
    lo, hi = mp_support(q)
    spectra = SpectrumSeries(make_business_dates(values.shape[0]), values)
    hist = spectral_density(spectra, DensityBins("linear", lo, hi, 60))
    reference = mp_density(hist.centers, q)
    peak = reference.max()
    mad = float(np.mean(np.abs(hist.densities - reference)))
    ok = mad < 0.15 * peak and elapsed < 60.0
    check(
        1,
        "M-P convergence of the Wishart correlation density",
        ok,
        f"MAD/peak = {mad / peak:.3f} < 0.15, runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_2_mp_support_edges(mp_experiment):
    values, _ = mp_experiment
    lo, hi = mp_support(0.2)
    outside = float(np.mean((values < lo - 0.1) | (values > hi + 0.1)))
    check(
        2,
        "eigenvalue mass outside the padded M-P support below 1%",
        outside < 0.01,
        f"outside fraction = {outside:.5f}",
    )


def test_criterion_3_correlation_spectrum_constraints():
    cases = {
        "gaussian rect": ("gaussian-iid", "rectangular", {}, 0.0),
        "student rect": ("student-iid", "rectangular", {}, 0.0),
        "one-factor long-memory": ("one-factor", "long-memory", {"tau0_days": 1560}, 0.5),
        "gaussian exponential": ("gaussian-iid", "exponential", {"mu": 0.94}, 0.0),
    }
    worst = 0.0
    for kind, scheme, kwargs, beta in cases.values():
        panel = generate_returns(EnsembleSpec(kind, 25, 120, beta=beta, seed=77))
        kernel = build_kernel(scheme, 60, **kwargs)
        spectra = rolling_spectra(panel, kernel, "correlation")
        assert_correlation_constraints(spectra, tol=1e-9)
        worst = max(worst, float(np.abs(spectra.values.sum(axis=1) - 25).max()))

    # perfectly correlated rank-1 panel: top eigenvalue reaches N
    base = np.random.default_rng(5).standard_normal(80)
    n = 12
    panel = ReturnPanel(
        tuple(f"a{i}" for i in range(n)),
        make_business_dates(80),
        np.tile(base, (n, 1)),
    )
    top = rolling_spectra(panel, build_kernel("rectangular", 40), "correlation").values[:, 0]
    rank1_err = float(np.abs(top - n).max())
    check(
        3,
        "correlation spectra satisfy sum = N, 0 <= eps <= N, rank-1 top = N",
        worst < 1e-9 and rank1_err < 1e-9,
        f"max |sum - N| = {worst:.2e}, max |eps_1 - N| = {rank1_err:.2e}",
    )


def test_criterion_4_eigen_contract():
    worst_recon, worst_orth = 0.0, 0.0
    for n in (5, 50, 200):
        mat = random_symmetric(n, seed=n)
        values, vectors = spectral.leading_system(mat, n)
        rebuilt = (vectors * values) @ vectors.T
        worst_recon = max(
            worst_recon, np.linalg.norm(rebuilt - mat) / np.linalg.norm(mat)
        )
        gram = vectors.T @ vectors
        worst_orth = max(worst_orth, float(np.abs(gram - np.eye(n)).max()))
    check(
        4,
        "eigendecomposition reconstruction and orthonormality at N in {5,50,200}",
        worst_recon < 1e-10 and worst_orth < 1e-10,
        f"reconstruction {worst_recon:.2e}, orthonormality {worst_orth:.2e}",
    )


def test_criterion_5_projector_suite():
    n, t_len = 30, 100
    panel = generate_returns(EnsembleSpec("gaussian-iid", n, n + t_len - 1, seed=11))
    spectra = rolling_spectra(panel, build_kernel("rectangular", n), n_vectors=n)

    worst_idem, worst_trace = 0.0, 0.0
    date0 = spectra.vectors[0]
    for k in range(1, n + 1):
        proj = date0[:, :k] @ date0[:, :k].T
        worst_idem = max(worst_idem, float(np.abs(proj @ proj - proj).max()))
        worst_trace = max(worst_trace, abs(np.trace(proj) - k))
    for k in (1, 5, 15, 30):
        stack = projector_series(spectra, k)
        gram = np.einsum("tij,tjk->tik", stack, stack)
        worst_idem = max(worst_idem, float(np.abs(gram - stack).max()))
        traces = np.einsum("tii->t", stack)
        worst_trace = max(worst_trace, float(np.abs(traces - k).max()))

    worst_mean_trace, gamma_ok = 0.0, True
    for k in (1, 5, 15, 30):
        mp = mean_projector(spectra, k)
        worst_mean_trace = max(worst_mean_trace, abs(np.trace(mp.matrix) - k))
        idx = fluctuation_index(mp)
        gamma_ok = gamma_ok and -1e-12 <= idx.gamma <= idx.gamma_max + 1e-12

    static = SpectrumSeries(
        spectra.dates,
        np.repeat(spectra.values[:1], t_len, axis=0),
        np.repeat(spectra.vectors[:1], t_len, axis=0),
    )
    gamma_static = fluctuation_index(mean_projector(static, 5)).gamma

    cycling = basis_series(list(range(n)) * 3, n)
    idx_cycle = fluctuation_index(mean_projector(cycling, 1))
    cycle_err = abs(idx_cycle.gamma - idx_cycle.gamma_max)

    ok = (
        worst_idem < 1e-10
        and worst_trace < 1e-10
        and worst_mean_trace < 1e-9
        and gamma_ok
        and abs(gamma_static) < 1e-10
        and cycle_err < 1e-10
    )
    check(
        5,
        "projector idempotence/trace, mean trace, and fluctuation bounds",
        ok,
        f"idem {worst_idem:.2e}, trace {worst_trace:.2e}, mean trace "
        f"{worst_mean_trace:.2e}, static gamma {gamma_static:.2e}, "
        f"cycling |gamma-gamma_max| {cycle_err:.2e}",
    )


def test_criterion_6_ansatz_round_trip():
    n = 100
    alpha = np.arange(1, n + 1)
    x = 0.5 - alpha / n
    worst_param, worst_dos = 0.0, 0.0
    for a_true, b_true in [(6.0, 1.05), (10.0, 1.2), (14.0, 1.4)]:
        eps_mid = 1e-4
        eps = np.exp(np.log(eps_mid) + a_true * x / (1 - (2 * x / b_true) ** 4))
        fit = fit_ansatz(eps)
        worst_param = max(
            worst_param,
            abs(fit.a - a_true) / a_true,
            abs(fit.b - b_true) / b_true,
            abs(fit.eps_mid - eps_mid) / eps_mid,
        )
        curve = density_of_states_curve(fit, np.array([fit.eps_mid]))
        worst_dos = max(worst_dos, abs(curve.density[0] * fit.a * fit.eps_mid - 1.0))
    check(
        6,
        "spectrum-shape fit round trip and 1/(a*eps) leading term",
        worst_param < 1e-6 and worst_dos < 0.01,
        f"worst parameter error {worst_param:.2e}, mid-spectrum DOS error "
        f"{worst_dos:.2e}",
    )


def test_criterion_7_exponential_spectrum_decay():
    n = 260
    length = 260
    n_dates = 101
    panel = generate_returns(
        EnsembleSpec("one-factor", n, length + n_dates - 1, beta=0.5, seed=21)
    )
    kernel = build_kernel("long-memory", length, tau0_days=1560)
    mean = log_mean_spectrum(rolling_spectra(panel, kernel))

    lo, hi = n // 4, 3 * n // 4
    ranks = np.arange(1, n + 1)[lo:hi].astype(float)
    y = np.log(mean.values[lo:hi])
    slope, intercept = np.polyfit(ranks, y, 1)
    fitted = slope * ranks + intercept
    r_squared = 1.0 - np.sum((y - fitted) ** 2) / np.sum((y - y.mean()) ** 2)
    check(
        7,
        "central log mean spectrum of the long-memory covariance is near linear",
        r_squared > 0.95,
        f"R^2 = {r_squared:.4f} > 0.95 over ranks {lo + 1}..{hi}",
    )


def test_criterion_8_window_overlap_lagged_correlation():
    length = 21
    n_dates = 2000
    panel = generate_returns(
        EnsembleSpec("gaussian-iid", 10, length + n_dates - 1, seed=31)
    )
    series = covariance_stack(panel, build_kernel("rectangular", length))
    lags = [1, 5, 10, 20, 30]
    rho = matrix_lagged_correlation(series, lags)
    worst = 0.0
    for lag, value in zip(lags[:-1], rho[:-1]):
        worst = max(worst, abs(value - (length - lag) / length))
    tail = abs(rho[-1])
    check(
        8,
        "lagged correlation follows the (21-tau)/21 window-overlap triangle",
        worst < 0.1 and tail < 0.1,
        f"max deviation {worst:.3f} < 0.1, |rho(30)| = {tail:.3f} < 0.1",
    )


def test_criterion_9_one_factor_leading_eigenvalue():
    n, t_eff, beta = 50, 2000, 0.5
    oracle = top_eigenvalue_oracle(EnsembleSpec("one-factor", n, t_eff, beta=beta))
    kernel = build_kernel("rectangular", t_eff)
    tops = []
    for seed in range(5):
        panel = generate_returns(
            EnsembleSpec("one-factor", n, t_eff, beta=beta, seed=400 + seed)
        )
        tops.append(rolling_spectra(panel, kernel, "correlation").values[0, 0])
    mean_top = float(np.mean(tops))
    rel = abs(mean_top - oracle) / oracle
    check(
        9,
        "mean top correlation eigenvalue within 10% of 1 + (N-1) beta^2 = 13.25",
        rel < 0.10,
        f"mean top = {mean_top:.3f}, oracle = {oracle}, rel error {rel:.3f}",
    )


def test_criterion_10_determinism(tmp_path):
    text = (
        "ensemble.kind = gaussian-iid\n"
        "ensemble.assets = 20\n"
        "ensemble.dates = 300\n"
        "ensemble.seed = 42\n"
        "kernel.scheme = rectangular\n"
        "kernel.length = 100\n"
        "analyses = spectrum,density\n"
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", str(cfg), "--out", str(out_a)]) == 0
    assert main(["analyze", str(cfg), "--out", str(out_b)]) == 0
    names = ["spectrum.csv", "mean_spectrum.csv", "density.csv", "manifest.json"]
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in names
    )
    check(
        10,
        "identical config and seed produce byte-identical outputs on every run",
        identical,
        "compared " + ", ".join(names),
    )
