#!/usr/bin/env python3
"""Soak test of covspec's CSV float kernel against Python's "%.17g".

Draws N random 64-bit patterns from the seed, views them as doubles (nan,
inf and subnormals included) and compares ``bundle.format_floats`` with
"%.17g" % v, a block at a time. Prints the first mismatch with its seed and
exits with status 1, or prints the count checked. Example:

    python scripts/format_soak.py --values 2000000 --seed 7
"""

import argparse
import sys

# covspec before numpy: importing it runs OpenBLAS on one thread.
from covspec.bundle import format_floats

import numpy as np

BLOCK = 2**16


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", type=int, default=2_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    checked = 0
    while checked < args.values:
        count = min(BLOCK, args.values - checked)
        values = rng.integers(0, 2**64, count, dtype=np.uint64).view(np.float64)
        got = format_floats(values, b"\n" * count).splitlines()
        for i, v in enumerate(values.tolist()):
            if got[i] != "%.17g" % v:
                bits = values[i : i + 1].view(np.uint64)[0]
                print(
                    f"seed {args.seed}: value {checked + i} (bits {bits:#018x}): "
                    f"kernel {got[i]!r}, %.17g {'%.17g' % v!r}"
                )
                sys.exit(1)
        checked += count
    print(f"seed {args.seed}: {checked} values, kernel equals %.17g")


if __name__ == "__main__":
    main()
