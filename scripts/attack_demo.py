#!/usr/bin/env python3
"""End-to-end demo: generate a keypair, break it, decrypt a message.

Usage: python scripts/attack_demo.py [--n 15] [--k 6] [--seed 42]
(defaults run the low-rate branch over GF(16); try --k 9 for the dual branch)
"""

import argparse
import time

import numpy as np

from grs_squarebreak import attack as atk
from grs_squarebreak import grs, scheme
from grs_squarebreak.gf import GF
from grs_squarebreak.linalg import matmul


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=15)
    ap.add_argument("--k", type=int, default=6)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    f = GF(2, 4, 19) if args.n <= 16 else GF(2, 5, 37)
    rng = np.random.default_rng(args.seed)
    pk, sk = scheme.keygen(f, args.n, args.k, rng)
    print(f"keypair over GF({f.q}): n={pk.n} k={pk.k} t={pk.t}")

    msg = rng.integers(0, f.q, pk.k, dtype=np.int64)
    z = scheme.encrypt(pk, msg, rng)
    print(f"plaintext  {msg.tolist()}")
    print(f"ciphertext {z.tolist()}")

    t0 = time.time()
    rk, st = atk.recover_key(pk, atk.AttackConfig(seed=args.seed))
    print(
        f"\nattack: branch={st.branch.value} outer_trials={st.outer_trials} "
        f"restarts={st.restarts} time={time.time() - t0:.1f}s"
    )
    same = grs.code(rk.grs) == grs.code(scheme.masked_params(sk))
    print(f"recovered hidden GRS code matches the secret one: {same}")

    cracked = atk.decrypt_with_pair(rk, pk, z)
    print(f"decrypted  {cracked.tolist()}")
    if np.array_equal(cracked, msg):
        print("plaintext recovered!")
    elif np.count_nonzero(f.sub(z, matmul(f, cracked, pk.g_pub))) == pk.t:
        print("tied: this plaintext's codeword is also at distance t")
    else:
        print("MISMATCH")


if __name__ == "__main__":
    main()
