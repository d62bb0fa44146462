#!/usr/bin/env python3
"""Empirical square-code dimension tables.

Compares three populations over the same (q, n, k):
  * uniformly random k-dimensional codes,
  * GRS codes (always 2k-1),
  * public codes of the rank-one-masked scheme (typically 3k-1, capped at n).

Usage: python scripts/square_dimensions.py [--reps 100] [--seed 0]
"""

import argparse
from collections import Counter

import numpy as np

from grs_squarebreak import grs, scheme
from grs_squarebreak.codes import code_from_generator, random_code
from grs_squarebreak.gf import GF


def table(label, counter, reps):
    items = ", ".join(f"{d}:{c}" for d, c in sorted(counter.items()))
    print(f"  {label:<14} {items}  (out of {reps})")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    grid = [
        (GF(2, 4, 19), 15, 6),
        (GF(2, 5, 37), 31, 9),
        (GF(2, 5, 37), 31, 12),
    ]
    for f, n, k in grid:
        print(f"\nq={f.q} n={n} k={k}  (generic min(k(k+1)/2, n) = {min(k*(k+1)//2, n)}, "
              f"GRS 2k-1 = {2*k-1}, masked-public 3k-1 = {min(3*k-1, n)} capped)")
        rand_dims, grs_dims, pub_dims = Counter(), Counter(), Counter()
        seeds = np.random.SeedSequence(args.seed).spawn(args.reps)
        for child in seeds:
            rng = np.random.default_rng(child)
            rand_dims[random_code(f, k, n, rng).square().k] += 1
            grs_dims[grs.code(grs.random_params(f, n, k, rng)).square().k] += 1
            pk, _ = scheme.keygen(f, n, k, rng)
            pub_dims[code_from_generator(f, pk.g_pub).square().k] += 1
        table("random", rand_dims, args.reps)
        table("GRS", grs_dims, args.reps)
        table("masked public", pub_dims, args.reps)


if __name__ == "__main__":
    main()
