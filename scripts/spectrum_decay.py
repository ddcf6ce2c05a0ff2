#!/usr/bin/env python3
"""Spectrum decay of a long-memory weighted covariance on a one-factor panel.

Builds the rolling covariance with logarithmically decaying weights, takes
the log mean spectrum, fits a line over the central ranks and the full
three-parameter spectrum shape, and reports both. Example:

    python scripts/spectrum_decay.py --assets 260 --eval-dates 100 --beta 0.5
"""

import argparse

# covspec before numpy: importing it runs OpenBLAS on one thread.
from covspec import (
    EnsembleSpec,
    build_kernel,
    effective_length,
    fit_ansatz,
    generate_returns,
    log_mean_spectrum,
    rolling_covariance,
    spectrum_series,
)

import numpy as np


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--assets", type=int, default=260)
    parser.add_argument("--length", type=int, default=260)
    parser.add_argument("--tau0", type=float, default=1560.0)
    parser.add_argument("--eval-dates", type=int, default=100)
    parser.add_argument("--beta", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--csv", help="optional path for the mean spectrum")
    args = parser.parse_args()

    spec = EnsembleSpec(
        "one-factor",
        args.assets,
        args.length + args.eval_dates - 1,
        beta=args.beta,
        seed=args.seed,
    )
    kernel = build_kernel("long-memory", args.length, tau0_days=args.tau0)
    print(f"kernel T_eff = {effective_length(kernel):.2f}, "
          f"q = {args.assets / effective_length(kernel):.3f}")

    series = rolling_covariance(generate_returns(spec), kernel)
    spectra = spectrum_series(series)
    mean = log_mean_spectrum(spectra)

    n = args.assets
    lo, hi = n // 4, 3 * n // 4
    ranks = np.arange(1, n + 1)[lo:hi].astype(float)
    y = np.log(mean.values[lo:hi])
    slope, intercept = np.polyfit(ranks, y, 1)
    fitted = slope * ranks + intercept
    r_squared = 1.0 - np.sum((y - fitted) ** 2) / np.sum((y - y.mean()) ** 2)
    print(f"central 50% of ranks: slope = {slope:.5f} per rank "
          f"(decay scale a ~ {-slope * n:.2f}), R^2 = {r_squared:.4f}")

    fit = fit_ansatz(mean)
    print(f"spectrum shape fit: a = {fit.a:.3f}, b = {fit.b:.3f}, "
          f"eps_mid = {fit.eps_mid:.4e}, rms residual = {fit.rms_residual:.3e}")

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("rank,value,inclusion_count\n")
            for rank, (value, count) in enumerate(zip(mean.values, mean.counts), 1):
                fh.write(f"{rank},{value:.17g},{count}\n")
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
