#!/usr/bin/env python3
"""Digest of the seeded attack: trial counters and recovered keys, per key.

Usage: python scripts/attack_digest.py [--campaign] [--keys GF16] [--keygen]

For each key it prints the outer trials, inner trials and restarts of
``recover_key`` and a sha256 over the recovered (x, y, a0, lam0), then one
sha256 over all those lines.  The keys are the 5 keys of the benchmark
(bench/run.py); --campaign adds the 40 keys of the acceptance campaigns
(GF(16) (15, 6) keygen 1000+i / attack 2000+i and (15, 9) 3020+i / 4000+i,
i < 20); --keys GF16 keeps only the GF(16) keys.  Two trees that print the
same digest make the same draws and the same decisions.

--keygen prints instead one sha256 over every output of ``scheme.keygen``
at keygen seeds 0-109 of each of 7 points (GF(16) (15, 6) and (15, 9),
GF(25) (16, 6), GF(7) (7, 2) and (7, 5), GF(3) (3, 1), GF(4) (4, 2)): two
trees that print the same value generate the same keys.
"""

import argparse
import hashlib

import numpy as np

from grs_squarebreak import attack as atk
from grs_squarebreak import scheme
from grs_squarebreak.gf import GF

FIELDS = {"GF16": (2, 4, 19), "GF25": (5, 2, 32)}

# (field, n, k, keygen seed, attack seed)
BENCH_KEYS = [
    ("GF16", 15, 6, 1000, 2000),
    ("GF16", 15, 9, 3020, 4000),
    ("GF25", 16, 6, 5000, 6000),
    ("GF25", 16, 6, 5002, 6002),
    ("GF16", 15, 6, 1001, 2001),
]
CAMPAIGN_KEYS = [("GF16", 15, 6, 1000 + i, 2000 + i) for i in range(20)] + [
    ("GF16", 15, 9, 3020 + i, 4000 + i) for i in range(20)
]
# (field, n, k) of the keygen digest, each at keygen seeds 0-109
KEYGEN_POINTS = [
    ((2, 4, 19), 15, 6), ((2, 4, 19), 15, 9), ((5, 2, 32), 16, 6),
    ((7,), 7, 2), ((7,), 7, 5), ((3,), 3, 1), ((2, 2, 7), 4, 2),
]
KEYGEN_SEEDS = range(110)


def digest_line(field: str, n: int, k: int, keygen_seed: int, attack_seed: int) -> str:
    f = GF(*FIELDS[field])
    pk, _sk = scheme.keygen(f, n, k, np.random.default_rng(keygen_seed))
    rk, st = atk.recover_key(pk, atk.AttackConfig(seed=attack_seed))
    h = hashlib.sha256()
    for part in (rk.grs.x, rk.grs.y, rk.a0, rk.lam0):
        h.update(np.asarray(part, dtype=np.int64).tobytes())
    return (
        f"{field} ({n}, {k}) {keygen_seed}/{attack_seed}: outer={st.outer_trials} "
        f"inner={st.inner_trials} restarts={st.restarts} key={h.hexdigest()}"
    )


def keygen_digest() -> str:
    h = hashlib.sha256()
    for field, n, k in KEYGEN_POINTS:
        f = GF(*field)
        for seed in KEYGEN_SEEDS:
            pk, sk = scheme.keygen(f, n, k, np.random.default_rng(seed))
            for part in (pk.g_pub, sk.grs.x, sk.grs.y, sk.s_mat, sk.perm, sk.alpha, sk.beta,
                         sk.a, sk.lam, sk.q_mat, sk.g_sec, sk.masked.x, sk.masked.y):
                h.update(np.asarray(part, dtype=np.int64).tobytes())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--campaign", action="store_true", help="add the 40 campaign keys")
    ap.add_argument("--keys", choices=sorted(FIELDS), help="only the keys over this field")
    ap.add_argument("--keygen", action="store_true", help="digest the keygen outputs instead")
    args = ap.parse_args()

    if args.keygen:
        count = len(KEYGEN_POINTS) * len(KEYGEN_SEEDS)
        print(f"keygen digest of {count} keys at {len(KEYGEN_POINTS)} points: {keygen_digest()}")
        return

    keys = BENCH_KEYS + (CAMPAIGN_KEYS if args.campaign else [])
    if args.keys:
        keys = [key for key in keys if key[0] == args.keys]
    total = hashlib.sha256()
    for key in keys:
        line = digest_line(*key)
        print(line)
        total.update(line.encode() + b"\n")
    print(f"digest of {len(keys)} keys: {total.hexdigest()}")


if __name__ == "__main__":
    main()
