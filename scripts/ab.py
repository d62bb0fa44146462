#!/usr/bin/env python3
"""In-process A/B timing of two source trees on one benchmark workload or scale point.

Usage: python scripts/ab.py TREE_A TREE_B (--workload decrypt-gf16 | --point gf256-255-100)
       [--rounds 20] [--cts N] [--seed 1]

Each tree is a checkout: its package is loaded from TREE/src under a name
of its own, so both live in this one process.  The workload is read from
this checkout's bench/run.py (``WORKLOADS`` and its key set-up), which is
not changed.  Every round times, on each tree in turn (the tree that goes
first alternates from round to round):

* ``setup_s``: the workload's key set-up (keygen and the key-file round
  trip), the median of bench/run.py's ``SETUP_REPS`` runs, as it takes it;
* ``recover_key_s``: ``attack.recover_key`` on each broken key, the mean;
* ``decrypt_ms`` and ``decrypt_with_pair_ms``: ``scheme.decrypt`` and
  ``attack.decrypt_with_pair`` on --cts seeded ciphertexts per decryption
  key, after one untimed decryption per key that builds its tables and
  its ``scheme.Decryptor`` (which bench/run.py spreads over hundreds of
  ciphertexts per key), the median
  per ciphertext, and their 90th percentiles
  (``decrypt_ms.p90``, ``decrypt_with_pair_ms.p90``), taken as
  bench/run.py takes them, and 10th percentiles (``decrypt_ms.p10``,
  ``decrypt_with_pair_ms.p10``), taken the same way: the fastest
  decryptions, where the machine's noise adds least.

A scale point (``POINTS``) is a field, n and k past the benchmark's
q <= 25: the paper's GF(256) (255, 100) and (255, 195), modulus 285;
GF(32) (31, 13) and (31, 12), modulus 37, past the decoder's minors cap,
the second with odd n-k; and GF(4096) (200, 99), modulus 4179, about 3 s
per decryption, with one ciphertext per round.  A claim at GF(4096) needs
4 rounds or more: at 2 rounds, two trees whose timed steps differed by one
``operator.index`` call read ratios from 0.81 to 1.25, and at 4 rounds
1.01-1.02 (2-core shared machine).  Each tree
builds the point's key at keygen seed 0, the recovered key of its true
masking pair, and the true shared subcode of the code ``recover_key``
attacks (the dual at high rate), from the secret key.  A round times
``attack.recover_secret_grs`` on that subcode (``recover_secret_grs_s``)
and both decryptions on the point's own number of seeded ciphertexts
(--cts overrides it), as for a workload; the first round, untimed, builds
each key's decryptor.

A round's ratio is B's time over A's.  The last line of standard output is
one JSON object with, per metric, the median ratio over the rounds and its
quartiles, and each tree's median time.  Timings of two trees taken
minutes apart in two processes spread by tens of percent on a small shared
machine, and alternating rounds in one process spread too: a tree run
against an identical copy of itself on ``decrypt-gf16`` (10-20 rounds of
40 ciphertexts, 2-core shared machine) read ``decrypt_ms`` ratio quartiles
as wide as [0.659, 1.003] and [0.919, 1.376], and one run read every
metric's median ratio at 0.85-0.92, so a change of 5-10% needs many runs
in both orders.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import run as bench  # noqa: E402

MODULES = ("gf", "linalg", "codes", "grs", "scheme", "fileio", "attack")


def load_tree(tree: Path, name: str) -> dict:
    """The package of tree/src, imported as the top-level package ``name``."""
    init = tree / "src" / "grs_squarebreak" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no grs_squarebreak sources under {tree / 'src'}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return {m: importlib.import_module(f"{name}.{m}") for m in MODULES}


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def ciphertexts(lib, pk, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """count seeded ciphertexts under pk, each with an error of weight t."""
    f, out = pk.field, []
    for _ in range(count):
        err = np.zeros(pk.n, dtype=np.int64)
        err[rng.choice(pk.n, pk.t, replace=False)] = rng.integers(1, f.q, pk.t)
        out.append(f.add(lib["linalg"].matmul(f, rng.integers(0, f.q, pk.k), pk.g_pub), err))
    return out


def one_round(lib, wl: bench.Workload, seed: int, cts: int) -> dict:
    attack, scheme = lib["attack"], lib["scheme"]
    setups = [timed(bench.setup, lib, wl, seed) for _ in range(bench.SETUP_REPS)]
    broken, seeded = setups[-1][0]
    targets, breaks = [], []
    for key, (pk, sk) in zip(wl.broken, broken):
        (rk, _stats), s = timed(attack.recover_key, pk, attack.AttackConfig(seed=key.attack_seed))
        breaks.append(s)
        targets.append((pk, sk, rk))
    if wl.seeded_points is not None:
        targets = [(pk, sk, attack.RecoveredKey(scheme.masked_params(sk), sk.a, sk.lam, None))
                   for pk, sk in seeded]
    for pk, sk, rk in targets:  # untimed: a key's first decryption builds its tables and decryptor
        c = ciphertexts(lib, pk, 1, np.random.default_rng([seed, 2]))[0]
        scheme.decrypt(sk, c)
        attack.decrypt_with_pair(rk, pk, c)
    return {
        "setup_s": statistics.median(s for _, s in setups),
        "recover_key_s": statistics.mean(breaks),
        **decryptions(lib, targets, seed, cts),
    }


def decryptions(lib, targets, seed: int, cts: int) -> dict:
    """Both decryptions, timed on cts seeded ciphertexts per (pk, sk, rk):
    the median per ciphertext and the 10th and 90th percentiles."""
    attack, scheme = lib["attack"], lib["scheme"]
    rng = np.random.default_rng([seed, 1])
    dec, pair = [], []
    for pk, sk, rk in targets:
        for c in ciphertexts(lib, pk, cts, rng):
            dec.append(timed(scheme.decrypt, sk, c)[1])
            pair.append(timed(attack.decrypt_with_pair, rk, pk, c)[1])
    out = {}
    for name, times in (("decrypt_ms", dec), ("decrypt_with_pair_ms", pair)):
        p10, p90 = deciles(times)
        out |= {name: statistics.median(times) * 1e3, f"{name}.p10": p10 * 1e3, f"{name}.p90": p90 * 1e3}
    return out


# name: field (p, m, modulus), n, k, ciphertexts per round
POINTS = {
    "gf256-255-100": ((2, 8, 285), 255, 100, 3),
    "gf256-255-195": ((2, 8, 285), 255, 195, 3),
    "gf32-31-13": ((2, 5, 37), 31, 13, 20),
    "gf32-31-12": ((2, 5, 37), 31, 12, 20),
    "gf4096-200-99": ((2, 12, 4179), 200, 99, 1),
}


def point_setup(lib, name: str) -> tuple:
    """The point's key (keygen seed 0) with the recovered key of its true
    masking pair, and the true shared subcode of the attacked code with
    that code's dimension."""
    attack, codes, scheme = lib["attack"], lib["codes"], lib["scheme"]
    field, n, k, _ = POINTS[name]
    f = lib["gf"].GF(*field)
    pk, sk = scheme.keygen(f, n, k, np.random.default_rng(0))
    masked = scheme.masked_params(sk)
    rk = attack.RecoveredKey(masked, sk.a, sk.lam, None)
    pub, hidden = codes.code_from_generator(f, pk.g_pub), lib["grs"].code(masked)
    if attack.applicable_branch(n, k) == attack.Branch.HIGH_RATE_DUAL:
        pub, hidden = pub.dual(), hidden.dual()
    shared = lib["linalg"].intersect_rowspaces(f, pub.gen, hidden.gen)
    return (pk, sk, rk), codes.code_from_generator(f, shared), pub.k


def point_round(lib, setup: tuple, seed: int, cts: int) -> dict:
    target, shared, k = setup
    _, s = timed(lib["attack"].recover_secret_grs, shared, k)
    return {"recover_secret_grs_s": s, **decryptions(lib, [target], seed, cts)}


def deciles(times: list[float]) -> tuple[float, float]:
    """The 10th and 90th percentiles, as bench/run.py takes the 90th (one
    time is its own)."""
    cuts = statistics.quantiles(times * 2 if len(times) == 1 else times, n=10)
    return cuts[0], cuts[8]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a", type=Path)
    ap.add_argument("tree_b", type=Path)
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=sorted(bench.WORKLOADS))
    what.add_argument("--point", choices=sorted(POINTS))
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--cts", type=int, help="ciphertexts per decryption key per round "
                    "(default: 20 for a workload, the point's own count for a point)")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.cts is None:
        args.cts = POINTS[args.point][3] if args.point else 20
    if args.rounds < 1 or args.cts < 1:
        ap.error("--rounds and --cts must be >= 1")
    libs = {"a": load_tree(args.tree_a.resolve(), "ab_tree_a"),
            "b": load_tree(args.tree_b.resolve(), "ab_tree_b")}
    if args.point:
        setups = {side: point_setup(lib, args.point) for side, lib in libs.items()}
        rounds = {side: functools.partial(point_round, lib, setups[side]) for side, lib in libs.items()}
    else:
        wl = bench.WORKLOADS[args.workload]
        rounds = {side: functools.partial(one_round, lib, wl) for side, lib in libs.items()}
    for run in rounds.values():  # fill lazily built tables and caches first
        run(args.seed, 1)
    times: dict[str, list[dict]] = {"a": [], "b": []}
    for i in range(args.rounds):
        for side in ("ab" if i % 2 == 0 else "ba"):
            times[side].append(rounds[side](args.seed, args.cts))
    metrics = {}
    for name in times["a"][0]:
        a = [r[name] for r in times["a"]]
        b = [r[name] for r in times["b"]]
        ratios = [y / x for x, y in zip(a, b)]
        if len(ratios) == 1:
            ratios *= 2  # quantiles needs two points
        q1, med, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        metrics[name] = {"ratio_median": med, "ratio_q1": q1, "ratio_q3": q3,
                         "b_lower": sum(y < x for x, y in zip(a, b)),
                         "a_median": statistics.median(a), "b_median": statistics.median(b)}
    which = {"point": args.point} if args.point else {"workload": args.workload}
    print(json.dumps({**which, "a": str(args.tree_a), "b": str(args.tree_b),
                      "rounds": args.rounds, "cts": args.cts, "seed": args.seed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
