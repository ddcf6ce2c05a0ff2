#!/usr/bin/env python3
"""Soak test of covspec's two Brent ports against SciPy's originals.

Draws N random problems from the seed, half root searches and half bounded
minimum searches, and runs each through covspec's port and SciPy's routine:
``spectral._brent_root`` against ``scipy.optimize.brentq`` and
``spectral._bounded_minimum`` against ``minimize_scalar(method="bounded")``.
The problems cover the shapes covspec solves (the spectrum fit's gradient,
the inversion of the fitted curve, M-P least-squares losses) and generic
ones: roots at an end, reversed brackets, discontinuities, values near
underflow, minima at a bound, flat and many-minima functions, NaN values and
tight iteration limits. Each pair must give the same bits and the same
number of evaluations, or an error on both sides (a NumericalError from the
port). Prints the first mismatch with its seed and problem and exits with
status 1, or prints the count checked. Example:

    python scripts/solver_soak.py --problems 20000 --seed 7
"""

import argparse
import math
import sys

# covspec before numpy: importing it runs OpenBLAS on one thread.
from covspec.errors import NumericalError
from covspec.spectral import _bounded_minimum, _brent_root, mp_density, mp_support

import numpy as np
from scipy.optimize import brentq, minimize_scalar

EPS = float(np.finfo(float).eps)


def uniform(rng, lo=0.0, hi=1.0):
    """One draw as a Python float: the functions then return Python floats,
    as covspec's do, whose division by zero raises."""
    return float(rng.uniform(lo, hi))


def counted(f):
    """f, counting its calls in ``.calls``."""
    def wrapper(x):
        wrapper.calls += 1
        return f(x)
    wrapper.calls = 0
    return wrapper


def fit_gradient(rng):
    """g(c) of ``fit_ansatz``'s variable projection, for a noisy ansatz
    spectrum, on [0, c_max]."""
    n = int(rng.integers(20, 400))
    b = uniform(rng, 1.02, 3.0)
    ranks = np.arange(int(0.1 * n) + 1, int(math.ceil(0.9 * n)) + 1)
    x = 0.5 - ranks / n
    y = uniform(rng, -12.0, 2.0) + uniform(rng, 1.0, 20.0) * x / (1.0 - (2.0 * x / b) ** 4)
    y = y + uniform(rng, 0.0, 0.3) * rng.standard_normal(x.size)
    x4 = x**4

    def g(c):
        denom = 1.0 - c * x4
        z = x / denom
        zc, yc = z - z.mean(), y - y.mean()
        a = float(zc @ yc / (zc @ zc))
        return a * float((a * zc - yc) @ (x * x4 / denom**2))

    c_max = (1.0 - 1e-8) / float(x4.max())
    return g, 0.0, c_max, 4.0 * EPS * c_max, 4.0 * EPS


def dos_inversion(rng):
    """shape(x) - target for ``density_of_states_curve``'s inversion."""
    a, b = uniform(rng, 0.5, 30.0), uniform(rng, 1.01, 4.0)
    lo, hi = sorted((uniform(rng, -0.45, 0.45), uniform(rng, -0.45, 0.45)))

    def shape(t):
        return a * t / (1.0 - (2.0 * t / b) ** 4)

    target = shape(lo) + uniform(rng) * (shape(hi) - shape(lo))
    return (lambda t: shape(t) - target), lo, hi, 1e-14, 1e-15


def generic_root(rng):
    """A root search with a random shape, bracket and tolerances."""
    lo = uniform(rng, -10.0, 10.0)
    hi = lo + 10.0 ** uniform(rng, -6.0, 2.0)
    r = lo + uniform(rng) * (hi - lo)
    scale = 10.0 ** uniform(rng, -200.0, 200.0)
    kind = int(rng.integers(6))
    if kind == 0:  # a cubic with one root in the bracket
        s, w = uniform(rng, lo, hi), 10.0 ** uniform(rng, -6.0, 2.0)
        f = lambda x: scale * (x - r) * ((x - s) ** 2 + w)  # noqa: E731
    elif kind == 1:  # a power law, flat or steep at the root
        p = uniform(rng, 0.2, 4.0)
        f = lambda x: scale * math.copysign(abs(x - r) ** p, x - r)  # noqa: E731
    elif kind == 2:
        k = 10.0 ** uniform(rng, -2.0, 2.0) / (hi - lo)
        f = lambda x: math.expm1(k * (x - r))  # noqa: E731
    elif kind == 3:  # a step: Brent's method bisects
        f = lambda x: -scale if x < r else scale  # noqa: E731
    elif kind == 4:  # the root at one end
        r = lo if uniform(rng) < 0.5 else hi
        f = lambda x: scale * (x - r)  # noqa: E731
    else:  # no sign change, or a NaN inside the bracket
        if uniform(rng) < 0.5:
            f = lambda x: scale * (1.0 + (x - r) ** 2)  # noqa: E731
        else:
            f = lambda x: math.nan if abs(x - r) < 0.25 * (hi - lo) else x - r  # noqa: E731
    if uniform(rng) < 0.3:
        lo, hi = hi, lo
    xtol = 10.0 ** uniform(rng, -16.0, -4.0) * abs(hi - lo)
    rtol = 4.0 * EPS * 10.0 ** uniform(rng, 0.0, 6.0)
    return f, lo, hi, xtol, rtol


def mp_loss(rng):
    """``fit_mp_q``'s loss for a noisy M-P histogram, on its bounds."""
    q = uniform(rng, 0.01, 1.0)
    lo, hi = mp_support(min(1.0, q * uniform(rng, 0.5, 1.5)))
    edges = np.linspace(lo, hi, int(rng.integers(5, 120)) + 1)
    centers = (edges[:-1] + edges[1:]) / 2.0
    noise = uniform(rng, 0.0, 0.5) * rng.standard_normal(centers.size)
    densities = mp_density(centers, q) * (1.0 + noise)
    return (lambda v: float(np.sum((densities - mp_density(centers, v)) ** 2))), 1e-3, 1.0, 1e-8


def generic_minimum(rng):
    """A bounded minimum search with a random shape, bounds and tolerance."""
    lo = uniform(rng, -10.0, 10.0)
    hi = lo + 10.0 ** uniform(rng, -4.0, 2.0)
    m = lo + uniform(rng, -0.3, 1.3) * (hi - lo)  # a minimum outside is at a bound
    scale = 10.0 ** uniform(rng, -100.0, 100.0)
    kind = int(rng.integers(5))
    if kind == 0:
        p = uniform(rng, 0.3, 4.0)
        f = lambda x: scale * abs(x - m) ** p  # noqa: E731
    elif kind == 1:  # many minima
        k = 10.0 ** uniform(rng, 0.0, 2.0) / (hi - lo)
        f = lambda x: math.cos(k * (x - m)) + 0.1 * ((x - m) / (hi - lo)) ** 2  # noqa: E731
    elif kind == 2:
        f = lambda x: scale  # noqa: E731
    elif kind == 3:  # a quadratic on a large offset: f differs in its last bits
        f = lambda x: 1e6 + scale * 1e-12 * (x - m) ** 2  # noqa: E731
    else:  # a NaN somewhere
        f = lambda x: math.nan if abs(x - m) < 0.1 * (hi - lo) else (x - m) ** 2  # noqa: E731
    return f, lo, hi, 10.0 ** uniform(rng, -12.0, -2.0)


def root_outcomes(f, lo, hi, xtol, rtol, maxiter):
    """(outcome, evaluations) of the port and of ``brentq``: an outcome is
    the root's hex, or "error"."""
    outcomes = []
    for solver, errors in ((_brent_root, NumericalError), (brentq, (ValueError, RuntimeError))):
        g = counted(f)
        try:
            root = solver(g, lo, hi, xtol=xtol, rtol=rtol, maxiter=maxiter)
            outcomes.append((root.hex(), g.calls))
        except errors:
            outcomes.append(("error", g.calls))
    return outcomes


def minimum_outcomes(f, lo, hi, xatol, maxiter):
    """(outcome, evaluations) of the port and of ``minimize_scalar``: an
    outcome is x's hex, or "error" (SciPy's NaN status)."""
    g = counted(f)
    try:
        port = (_bounded_minimum(g, lo, hi, xatol=xatol, maxiter=maxiter).hex(), g.calls)
    except NumericalError:
        port = ("error", g.calls)
    g = counted(f)
    res = minimize_scalar(g, bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol, "maxiter": maxiter})
    return [port, ("error" if res.status == 2 else float(res.x).hex(), g.calls)]


def check(rng):
    """One random problem: its description, and the port's and SciPy's
    outcomes."""
    family = int(rng.integers(6))
    if family < 3:
        maker = (fit_gradient, dos_inversion, generic_root)[family]
        f, lo, hi, xtol, rtol = maker(rng)
        maxiter = 100 if uniform(rng) < 0.8 else int(rng.integers(1, 12))
        desc = (f"{maker.__name__} on [{lo!r}, {hi!r}], xtol={xtol!r}, rtol={rtol!r}, "
                f"maxiter={maxiter}")
        return desc, root_outcomes(f, lo, hi, xtol, rtol, maxiter)
    maker = (mp_loss, generic_minimum, generic_minimum)[family - 3]
    f, lo, hi, xatol = maker(rng)
    maxiter = 500 if uniform(rng) < 0.8 else int(rng.integers(1, 20))
    desc = f"{maker.__name__} on [{lo!r}, {hi!r}], xatol={xatol!r}, maxiter={maxiter}"
    return desc, minimum_outcomes(f, lo, hi, xatol, maxiter)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--problems", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    for i in range(args.problems):
        desc, (port, scipy) = check(rng)
        if port != scipy:
            print(f"seed {args.seed}: problem {i} ({desc}): port {port}, scipy {scipy}")
            sys.exit(1)
    print(f"seed {args.seed}: {args.problems} problems, ports equal scipy")


if __name__ == "__main__":
    main()
