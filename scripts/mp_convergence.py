#!/usr/bin/env python3
"""Monte-Carlo check of the Wishart correlation density against Marchenko-Pastur.

Draws independent iid-Gaussian panels, computes the equal-weight correlation
matrix of each, pools the spectra, and compares the binned density with the
M-P curve at q = N / T. Example:

    python scripts/mp_convergence.py --assets 100 --teff 500 --samples 50
"""

import argparse
import time

# covspec before numpy: importing it runs OpenBLAS on one thread.
from covspec import (
    DensityBins,
    EnsembleSpec,
    SpectrumSeries,
    build_kernel,
    generate_returns,
    make_business_dates,
    mp_density,
    mp_support,
    rolling_covariance,
    spectral_density,
    spectrum_series,
    to_correlation,
)

import numpy as np


def pooled_spectra(n_assets, t_eff, samples, seed):
    kernel = build_kernel("rectangular", t_eff)
    rows = []
    for s in range(samples):
        spec = EnsembleSpec("gaussian-iid", n_assets, t_eff, seed=seed + s)
        corr = to_correlation(rolling_covariance(generate_returns(spec), kernel))
        rows.append(spectrum_series(corr).values[0])
    values = np.vstack(rows)
    return SpectrumSeries(make_business_dates(values.shape[0]), values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--assets", type=int, default=100)
    parser.add_argument("--teff", type=int, default=500)
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument("--bins", type=int, default=60)
    parser.add_argument("--seed", type=int, default=9000)
    parser.add_argument("--csv", help="optional path for the binned densities")
    args = parser.parse_args()

    q = args.assets / args.teff
    start = time.monotonic()
    spectra = pooled_spectra(args.assets, args.teff, args.samples, args.seed)
    elapsed = time.monotonic() - start

    lo, hi = mp_support(q)
    hist = spectral_density(spectra, DensityBins("linear", lo, hi, args.bins))
    reference = mp_density(hist.centers, q)
    mad = float(np.mean(np.abs(hist.densities - reference)))
    peak = float(reference.max())
    values = spectra.values.ravel()
    outside = float(np.mean((values < lo - 0.1) | (values > hi + 0.1)))

    print(f"q = {q:.4f}, support = [{lo:.4f}, {hi:.4f}]")
    print(f"samples = {args.samples}, eigenvalues pooled = {values.size}")
    print(f"MAD per bin = {mad:.5f}, peak = {peak:.5f}, MAD/peak = {mad / peak:.4f}")
    print(f"fraction outside padded support = {outside:.5f}")
    print(f"elapsed = {elapsed:.2f}s")

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("center,empirical,marchenko_pastur\n")
            for center, emp, ref in zip(hist.centers, hist.densities, reference):
                fh.write(f"{center:.17g},{emp:.17g},{ref:.17g}\n")
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
