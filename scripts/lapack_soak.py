#!/usr/bin/env python3
"""Soak test of covspec's LAPACK binding against SciPy's LAPACK wrappers, and
of its Sturm counts against the dsterf values.

Draws M random symmetric N x N matrices from the seed, N from 1 to 400
(log-uniform, so the small sizes where edge cases live come up often) and k
from 0 to N, and runs four routines of ``covspec._lapack`` and of
``scipy.linalg.lapack`` on each, as ``spectral._tridiagonal_system`` calls
them: dsytrd on the lower triangle, dsterf on the tridiagonal, dstemr for the
top k eigenvectors and dormqr to transform them back. The fifth, dlaebz,
which SciPy does not wrap, gives ``spectral.eigenvalue_counts`` at up to 64
points drawn from the seed over the Gerschgorin interval of the tridiagonal
form, less those within 64 N eps max(1, max|lambda|) of an eigenvalue; each
count must equal the number of dsterf values at or below its point. The matrices are
Gaussian symmetric ones, W W' of full rank (N <= L) and rank-deficient
(N > L, down to the zero matrix), and ones with clustered eigenvalues, each at a random scale. Both
sides get the same inputs, copied fresh for every call because dsterf and
dstemr overwrite theirs, and must return the same INFO and the same bits.
Prints the first mismatch with its seed and matrix and exits with status 1,
or prints the count checked. Example:

    python scripts/lapack_soak.py --matrices 2000 --seed 7
"""

import argparse
import sys

# covspec before numpy: importing it runs OpenBLAS on one thread.
from covspec import _lapack, spectral

import numpy as np
from scipy.linalg import lapack


def draw(rng):
    """A description, an exactly symmetric matrix and the number of vectors
    to compute."""
    n = int(np.exp(rng.uniform(0.0, np.log(400.5))))
    k = int(rng.integers(0, n + 1))
    scale = 10.0 ** rng.uniform(-8.0, 8.0)
    family = ("gaussian", "full-rank", "rank-deficient", "clustered")[int(rng.integers(4))]
    if family == "gaussian":
        a = rng.standard_normal((n, n))
        sym = a + a.T
    elif family == "clustered":
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        values = rng.choice([1.0, 1.0 + 1e-12, 2.0, 0.0], size=n)
        sym = (q * values) @ q.T
        sym = sym + sym.T
    else:
        # L = 0 makes the zero matrix
        length = int(rng.integers(n, 2 * n + 2) if family == "full-rank" else rng.integers(0, n))
        w = rng.standard_normal((n, length))
        sym = w @ w.T
    return f"{family} N={n} k={k} scale={scale:.3e}", scale * sym, k


def sturm_points(rng, d, e, values):
    """Up to 64 points drawn uniformly over the Gerschgorin interval of the
    tridiagonal matrix with diagonal ``d`` and subdiagonal ``e`` (N entries,
    the last 0), without those within 64 N eps max(1, max|lambda|) of one of
    its ascending eigenvalues ``values``."""
    n = d.size
    radius = np.abs(e) + np.abs(np.concatenate(([0.0], e[:-1])))
    points = rng.uniform((d - radius).min(), (d + radius).max(), 64)
    tol = 64 * n * np.finfo(float).eps * max(1.0, float(np.abs(values).max()))
    gap = np.abs(points[:, None] - values[None, :]).min(axis=1)
    return points[gap > tol]


def bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def compare(sym, k, rng=None):
    """The first routine whose outputs differ between the two sides, or
    "dlaebz" where a Sturm count at a point drawn from ``rng`` (by default
    seeded with N) differs from the dsterf values', or None."""
    n = sym.shape[0]
    rng = np.random.default_rng(n) if rng is None else rng
    lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
    c, d, e, tau, info = lapack.dsytrd(sym.T, lower=1, lwork=lwork)
    ours = sym.T.copy(order="F")
    d2, e2, tau2, info2 = _lapack.dsytrd(ours)
    if info != info2 or bits(c, d, e, tau) != bits(ours, d2, e2[: n - 1], tau2[: n - 1]):
        return "dsytrd"
    e = np.append(e, 0.0)
    values, info = lapack.dsterf(d.copy(), e[: max(n - 1, 1)].copy())
    values2 = d.copy()
    info2 = _lapack.dsterf(values2, e.copy())
    if info != info2 or bits(values) != bits(values2):
        return "dsterf"
    points = sturm_points(rng, d2, e2, values2)
    if points.size and not np.array_equal(
        spectral.eigenvalue_counts(sym, points), np.searchsorted(values2, points, side="right")
    ):
        return "dlaebz"
    if not k:
        return None
    _, _, z, info = lapack.dstemr(d.copy(), e.copy(), 2, 0.0, 0.0, n - k + 1, n)
    z2 = np.empty((n, k), order="F")
    info2 = _lapack.dstemr(d.copy(), e.copy(), n - k + 1, n, z2)
    if info != info2 or (info == 0 and bits(z[:, :k]) != bits(z2)):
        return "dstemr"
    if info != 0 or n == 1:
        return None
    z = z[:, :k]
    rows, _, info = lapack.dormqr("L", "N", c[1:, :-1], tau, z[1:], lwork=k)
    info2 = _lapack.dormqr(ours[1:, :-1], tau2[:-1], z2[1:])
    if info != info2 or bits(rows) != bits(z2[1:]):
        return "dormqr"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--matrices", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    for i in range(args.matrices):
        desc, sym, k = draw(rng)
        routine = compare(sym, k, rng)
        if routine is not None:
            reference = "dsterf's counts" if routine == "dlaebz" else "scipy's"
            print(f"seed {args.seed}: matrix {i} ({desc}): {routine} differs from {reference}")
            sys.exit(1)
    print(f"seed {args.seed}: {args.matrices} matrices, binding equals scipy, "
          "Sturm counts equal dsterf's")


if __name__ == "__main__":
    main()
