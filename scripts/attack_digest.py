#!/usr/bin/env python3
"""Digest of the seeded attack: trial counters and recovered keys, per key.

Usage: python scripts/attack_digest.py [--campaign] [--keys GF16] [--keygen] [--decode] [--fields]

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

--decode prints instead one sha256 over the outputs of ``grs.decode_many``
on seeded words at 14 points over GF(16), GF(25), GF(7), GF(9) and GF(17),
t = 0 included (codewords plus errors of every weight from 0 to n-k+1, and
random words), and over both decryptors' sorted candidate sets on 40 seeded
ciphertexts at each of the benchmark's three points (the ciphertexts of the
acceptance campaigns; ciphertext 6 of key 3020 is a genuine tie): two trees
that print the same value decode and decrypt alike.

--fields prints instead one sha256 over both decryptors' sorted candidate
sets on 20 seeded ciphertexts at each of GF(27) (26, 10), GF(729) (16, 6)
and GF(961) (20, 8), on seeded keys with their true masking pair: odd
extension fields whose decoder sums run over more terms than one integer
sum of spread digits holds (``GF.sum``).
"""

import argparse
import hashlib

import numpy as np

from grs_squarebreak import attack as atk
from grs_squarebreak import grs, linalg, scheme
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
# (field, n, k) of the decode digest: low rate, dual and t = 0 (k = n-1) over
# characteristic 2, odd prime and odd extension fields
DECODE_POINTS = [
    ((2, 4, 19), 15, 6), ((2, 4, 19), 15, 9), ((2, 4, 19), 15, 14),
    ((5, 2, 32), 16, 6), ((5, 2, 32), 16, 15),
    ((7,), 7, 2), ((7,), 7, 5), ((7,), 7, 6),
    ((3, 2, 10), 5, 1), ((3, 2, 10), 8, 3), ((3, 2, 10), 9, 8),
    ((17,), 16, 6), ((17,), 17, 5), ((17,), 17, 16),
]
WORDS_PER_WEIGHT = 20
RANDOM_WORDS = 40
# (field, n, k, keygen seed, attack seed): one key at each benchmark point
DECRYPT_KEYS = [
    ("GF16", 15, 6, 1000, 2000),
    ("GF16", 15, 9, 3020, 4000),
    ("GF25", 16, 6, 5002, 6002),
]
DECRYPT_CIPHERTEXTS = 40
# (field, n, k) of the fields digest, each with FIELD_CIPHERTEXTS ciphertexts
FIELD_POINTS = [((3, 3, 34), 26, 10), ((3, 6, 734), 16, 6), ((31, 2, 962), 20, 8)]
FIELD_CIPHERTEXTS = 20


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
            # The digest also covers Q = Pi + alpha^T beta and G_sec, built from the key.
            q_mat = f.add(np.eye(n, dtype=np.int64)[sk.perm], f.mul(sk.alpha[:, None], sk.beta))
            for part in (pk.g_pub, sk.grs.x, sk.grs.y, sk.s_mat, sk.perm, sk.alpha, sk.beta,
                         sk.a, sk.lam, q_mat, sk.grs.generator, sk.masked.x, sk.masked.y):
                h.update(np.asarray(part, dtype=np.int64).tobytes())
    return h.hexdigest()


def decode_words(h, point: int) -> int:
    """Feed h the seeded words of DECODE_POINTS[point] and their
    ``decode_many`` outputs; returns the number of words."""
    field, n, k = DECODE_POINTS[point]
    f = GF(*field)
    rng = np.random.default_rng([7, point])
    p = grs.random_params(f, n, k, rng)
    words = [rng.integers(0, f.q, (RANDOM_WORDS, n))]
    for weight in range(n - k + 2):
        errors = np.zeros((WORDS_PER_WEIGHT, n), dtype=np.int64)
        for e in errors:
            e[rng.choice(n, weight, replace=False)] = rng.integers(1, f.q, weight)
        codewords = linalg.matmul(f, rng.integers(0, f.q, (WORDS_PER_WEIGHT, k)), p.generator)
        words.append(f.add(codewords, errors))
    words = np.vstack(words)
    msgs, ok = grs.decode_many(p, words)
    for part in (words, msgs, ok):
        h.update(np.asarray(part, dtype=np.int64).tobytes())
    return len(words)


def hash_candidates(h, pk, sk, rk, rng, count: int) -> int:
    """Feed h both decryptors' sorted candidate sets on count seeded
    ciphertexts; returns the number of tied ciphertexts."""
    tied = 0
    for _ in range(count):
        z = scheme.encrypt(pk, rng.integers(0, pk.field.q, pk.k, dtype=np.int64), rng)
        routes = (scheme.decrypt_candidates(sk, z), atk.pair_candidates(rk, pk, z))
        for cands in routes:
            for weight, plain in sorted(cands, key=lambda c: (c[0], c[1].tolist())):
                h.update(np.append(plain, weight).astype(np.int64).tobytes())
            h.update(b"|")
        tied += any(len(cands) > 1 for cands in routes)
    return tied


def decrypt_line(h, field: str, n: int, k: int, keygen_seed: int, attack_seed: int) -> str:
    """Feed h both decryptors' sorted candidate sets on the key's seeded
    ciphertexts; returns a line with the number of tied ciphertexts."""
    f = GF(*FIELDS[field])
    pk, sk = scheme.keygen(f, n, k, np.random.default_rng(keygen_seed))
    rk, _st = atk.recover_key(pk, atk.AttackConfig(seed=attack_seed))
    rng = np.random.default_rng(attack_seed + 7000)  # as in the acceptance campaigns
    tied = hash_candidates(h, pk, sk, rk, rng, DECRYPT_CIPHERTEXTS)
    return (f"{field} ({n}, {k}) {keygen_seed}/{attack_seed}: "
            f"{DECRYPT_CIPHERTEXTS} ciphertexts, {tied} tied")


def field_line(h, point: int) -> str:
    """Feed h both decryptors' sorted candidate sets at FIELD_POINTS[point],
    the pair route with the key's true masking pair; returns a line with the
    number of tied ciphertexts."""
    field, n, k = FIELD_POINTS[point]
    f = GF(*field)
    rng = np.random.default_rng([11, point])
    pk, sk = scheme.keygen(f, n, k, rng)
    rk = atk.RecoveredKey(scheme.masked_params(sk), sk.a, sk.lam, None)
    tied = hash_candidates(h, pk, sk, rk, rng, FIELD_CIPHERTEXTS)
    return f"GF{f.q} ({n}, {k}): {FIELD_CIPHERTEXTS} ciphertexts, {tied} tied"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--campaign", action="store_true", help="add the 40 campaign keys")
    ap.add_argument("--keys", choices=sorted(FIELDS), help="only the keys over this field")
    ap.add_argument("--keygen", action="store_true", help="digest the keygen outputs instead")
    ap.add_argument("--decode", action="store_true",
                    help="digest the decoder and decryptor outputs instead")
    ap.add_argument("--fields", action="store_true",
                    help="digest both decryptors over GF(27), GF(729) and GF(961) instead")
    args = ap.parse_args()

    if args.fields:
        h = hashlib.sha256()
        for point in range(len(FIELD_POINTS)):
            print(field_line(h, point))
        print(f"fields digest: {h.hexdigest()}")
        return

    if args.decode:
        h = hashlib.sha256()
        words = sum(decode_words(h, point) for point in range(len(DECODE_POINTS)))
        print(f"decode_many: {words} words at {len(DECODE_POINTS)} points")
        for key in DECRYPT_KEYS:
            print(decrypt_line(h, *key))
        print(f"decode digest: {h.hexdigest()}")
        return

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
