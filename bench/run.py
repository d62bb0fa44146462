"""Benchmark of grs-squarebreak: break keys, then decrypt with them.

    python3 bench/run.py --workload attack-gf16 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every workload runs the chain a user of
the attack runs, in one process and one thread:

1. set-up: build the field, generate the keys and round-trip them through
   the key-file text format (timed as ``setup_s``, median of several);
2. break: ``attack.recover_key`` on a fixed list of public keys;
3. decrypt: seeded ciphertexts through ``scheme.decrypt`` (secret key) and
   ``attack.decrypt_with_pair`` (recovered key).

Every output is checked with ``checker`` (arithmetic of its own).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics from ``tracer`` with ``--trace 1``).  Result and trace files go to
``.bench_out/``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One thread, whatever numpy is linked against; set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
import checker  # noqa: E402
import speed as speed_mod  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_REPS = 7


@dataclass(frozen=True)
class Key:
    """A key of a fixed list: keygen and attack seeds of the acceptance
    campaigns (keygen 1000+i / attack 2000+i at (15, 6), 3020+i / 4000+i at
    (15, 9)), or of the same pattern over GF(25)."""

    n: int
    k: int
    keygen_seed: int
    attack_seed: int


@dataclass(frozen=True)
class Workload:
    field: tuple[int, int, int]  # p, m, poly
    broken: tuple[Key, ...]
    # None: decrypt with the broken keys and their recovered keys.  Otherwise
    # (n, k) points at which keys are drawn from --seed and decrypted with
    # their true masking pair, so that decryption does not depend on the attack.
    seeded_points: tuple[tuple[int, int], ...] | None
    # Ciphertexts per decryption key per second of --seconds; sized so that a
    # run takes about --seconds on a 2-core reference box.  The amount of work
    # never depends on the clock, so runs with one seed repeat exactly.
    cts_per_second: float


WORKLOADS = {
    "attack-gf16": Workload((2, 4, 19), (Key(15, 6, 1000, 2000), Key(15, 9, 3020, 4000)), None, 5.0),
    "attack-gf25": Workload((5, 2, 32), (Key(16, 6, 5000, 6000), Key(16, 6, 5002, 6002)), None, 2.5),
    "decrypt-gf16": Workload((2, 4, 19), (Key(15, 6, 1001, 2001),), ((15, 6), (15, 9)), 13.4),
}

END_TO_END = {
    "setup_s": "s",
    "recover_key_s": "s",
    "decrypt_ms": "ms",
    "decrypt_ms.p90": "ms",
    "decrypt_with_pair_ms": "ms",
    "decrypt_with_pair_ms.p90": "ms",
}


def import_library():
    """The package from this checkout's src/, never an installed copy."""
    if not (SRC / "grs_squarebreak" / "__init__.py").is_file():
        raise SystemExit(f"error: no grs_squarebreak sources under {SRC}")
    sys.path.insert(0, str(SRC))
    lib = importlib.import_module("grs_squarebreak")
    if Path(lib.__file__).resolve().parent != SRC / "grs_squarebreak":
        raise SystemExit(f"error: imported grs_squarebreak from {lib.__file__}, not {SRC}")
    return {m: importlib.import_module(f"grs_squarebreak.{m}") for m in tracing.LAYERS}


def round_trip(lib, pk, sk):
    """Key files as the CLI writes and reads them, in memory."""
    fileio, scheme = lib["fileio"], lib["scheme"]
    f, n, k = sk.field, sk.n, sk.k
    sec_text = fileio.dumps(f, n, k, {
        "Gpub": sk.g_pub, "x": sk.grs.x, "y": sk.grs.y, "S": sk.s_mat,
        "perm": sk.perm, "alpha": sk.alpha, "beta": sk.beta,
    })
    pub_text = fileio.dumps(f, n, k, {"Gpub": pk.g_pub})
    parsed = fileio.loads(sec_text)
    sec = parsed.sections
    _pk, sk2 = scheme.build_keypair(
        parsed.field, sec["x"][0], sec["y"][0], sec["S"], sec["perm"][0], sec["alpha"][0],
        sec["beta"][0],
    )
    pub = fileio.loads(pub_text)
    pk2 = scheme.PublicKey(pub.field, pub.n, pub.k, pub.sections["Gpub"])
    if not (np.array_equal(sec["Gpub"], sk2.g_pub) and np.array_equal(pk2.g_pub, pk.g_pub)):
        raise RuntimeError("key files do not round-trip")
    return pk2, sk2


def setup(lib, wl: Workload, seed: int):
    p, m, poly = wl.field
    f = lib["gf"].GF(p, m, poly)
    broken = []
    for key in wl.broken:
        pk, sk = lib["scheme"].keygen(f, key.n, key.k, np.random.default_rng(key.keygen_seed))
        broken.append(round_trip(lib, pk, sk))
    seeded = []
    rng = np.random.default_rng([seed, 0])
    for n, k in wl.seeded_points or ():
        seeded.append(round_trip(lib, *lib["scheme"].keygen(f, n, k, rng)))
    return broken, seeded


def run(lib, name: str, seed: int, seconds: int, speed: speed_mod.Speed, tr) -> dict:
    wl = WORKLOADS[name]
    attack, scheme = lib["attack"], lib["scheme"]
    F = checker.Field(*wl.field)
    q = F.q
    wrong: list[str] = []  # outputs the checker refused
    failures: list[str] = []  # operations that raised
    attempted = 0
    speed.hook(lib["linalg"])
    speed.warm()

    def phase(label):
        if tr is not None:
            tr.phase = label

    phase("setup")
    setup_times = []
    for _ in range(SETUP_REPS):
        out, *times = speed.timed(setup, lib, wl, seed)
        if isinstance(out, Exception):
            raise out
        broken, seeded = out
        setup_times.append(times)

    phase("check")
    pk0, sk0 = broken[0]
    checker.self_test(F, pk0.g_pub, sk0.grs.x, sk0.grs.y, sk0.perm, sk0.k, sk0.a, sk0.lam,
                      np.random.default_rng([seed, 2]))

    phase("break")
    break_times, stats, recovered = [], [], []
    for key, (pk, sk) in zip(wl.broken, broken):
        attempted += 1
        out, *times = speed.timed(attack.recover_key, pk, attack.AttackConfig(seed=key.attack_seed))
        if isinstance(out, (attack.NotApplicable, attack.TrialBudgetExceeded,
                            attack.PreconditionViolated)):
            failures.append(f"recover_key {key}: {type(out).__name__}: {out}")
            recovered.append(None)
            continue
        if isinstance(out, Exception):
            raise out
        rk, st = out
        break_times.append(times)
        stats.append(st)
        recovered.append(rk)
        why = checker.check_recovered_key(F, pk.g_pub, sk.grs.x, sk.grs.y, sk.perm, sk.k,
                                          rk.grs.x, rk.grs.y, rk.a0, rk.lam0)
        if why:
            wrong.append(f"recover_key {key}: {why}")

    if wl.seeded_points is None:
        targets = [(pk, sk, rk) for (pk, sk), rk in zip(broken, recovered) if rk is not None]
    else:
        targets = [(pk, sk, attack.RecoveredKey(scheme.masked_params(sk), sk.a, sk.lam, None))
                   for pk, sk in seeded]

    phase("decrypt")
    per_key = max(1, math.ceil(seconds * wl.cts_per_second))
    rng = np.random.default_rng([seed, 1])
    dec_times, pair_times = [], []
    ties = 0
    for _ in range(per_key):
        for pk, sk, rk in targets:
            n, k, t = pk.n, pk.k, pk.t
            sent = rng.integers(0, q, k)
            err = np.zeros(n, dtype=np.int64)
            err[rng.choice(n, t, replace=False)] = rng.integers(1, q, t)
            c = F.add_t[F.vecmat(sent, pk.g_pub), err]
            got = []
            for label, fn, args, log in (("decrypt", scheme.decrypt, (sk, c), dec_times),
                                         ("decrypt_with_pair", attack.decrypt_with_pair,
                                          (rk, pk, c), pair_times)):
                attempted += 1
                out, *times = speed.timed(fn, *args)
                log.append(times)
                if isinstance(out, scheme.DecryptionFailure):
                    failures.append(f"{label}: {out}")
                    out = None
                elif isinstance(out, Exception):
                    raise out
                got.append(out)
            if got[0] is None or got[1] is None:
                continue
            why = checker.check_decryption(F, pk.g_pub, t, c, sent, got[0], got[1])
            if why:
                wrong.append(f"ciphertext {c.tolist()}: {why}")
            ties += not np.array_equal(got[0], sent)
    phase("none")
    speed.warm()

    # The attack over an odd-characteristic field spends most of its time in
    # digit-wise add/sub on stacks of matrices, which the "digits" probe
    # imitates; every other time is scaled by the "tables" probe.
    break_kind = "digits" if wl.field[0] != 2 else "tables"
    kinds = {"setup": "tables", "break": break_kind, "decrypt": "tables", "pair": "tables"}
    timed = {"setup": setup_times, "break": break_times, "decrypt": dec_times, "pair": pair_times}
    wall = {label: [x[0] for x in times] for label, times in timed.items()}
    scaled = {label: [speed.scale(*x, kinds[label]) for x in times] for label, times in timed.items()}

    def summary(t):
        keys = t["break"]
        return {
            "setup_s": statistics.median(t["setup"]),
            "recover_key_s": sum(keys) / len(keys) if keys else float("nan"),
            "decrypt_ms": statistics.median(t["decrypt"]) * 1e3,
            "decrypt_ms.p90": statistics.quantiles(t["decrypt"], n=10)[8] * 1e3,
            "decrypt_with_pair_ms": statistics.median(t["pair"]) * 1e3,
            "decrypt_with_pair_ms.p90": statistics.quantiles(t["pair"], n=10)[8] * 1e3,
        }

    # Wall-to-reference factor of each phase, for the per-layer times.
    factor = {}
    for label, parts in (("setup", ("setup",)), ("break", ("break",)), ("decrypt", ("decrypt", "pair"))):
        w = sum(sum(wall[p]) for p in parts)
        factor[label] = sum(sum(scaled[p]) for p in parts) / w if w else 1.0
    info = {
        "keys_broken": len(break_times),
        "ciphertexts": len(dec_times),
        "genuine_ties": ties,
        "outer_trials": [st.outer_trials for st in stats],
        "restarts": [st.restarts for st in stats],
        "probe_ms": {k: statistics.median(v) * 1e3 for k, v in speed.probes.items()},
        "probes": len(speed.times),
        "wall": summary(wall),
    }
    samples = {"decrypt_ms": [round(x * 1e3, 4) for x in scaled["decrypt"]],
               "decrypt_with_pair_ms": [round(x * 1e3, 4) for x in scaled["pair"]]}
    return dict(e2e=summary(scaled), factor=factor, info=info, samples=samples, wrong=wrong,
                failures=failures, attempted=attempted, stats=stats, q=q)


def layer_metrics(tr: tracing.Tracer, res: dict) -> dict:
    """Per-layer metrics from the trace: break-phase figures per key broken,
    decrypt-phase figures per ciphertext (both routes), set-up per call."""
    keys = max(1, res["info"]["keys_broken"])
    fb, fd, fs = (res["factor"][p] for p in ("break", "decrypt", "setup"))
    cts = max(1, res["info"]["ciphertexts"])
    stats = res["stats"]

    def per_key(name, field):  # field 1 (seconds) is scaled to the reference speed
        return tr.total("break", name)[field] / keys * (fb if field == 1 else 1)

    def per_ct(name, field):
        return tr.total("decrypt", name)[field] / cts * (fd if field == 1 else 1)

    def per_call_ms(name):
        calls, incl = tr.total("setup", name)[:2]
        return incl / calls * 1e3 * fs if calls else 0.0

    restarts = sum(st.restarts for st in stats)
    outer = sum(st.outer_trials for st in stats) / keys
    mul_elems = sum(tr.total(ph, "gf.mul")[3] for ph in ("break", "decrypt"))
    mul_s = tr.total("break", "gf.mul")[1] * fb + tr.total("decrypt", "gf.mul")[1] * fd
    dec_calls, dec_s, _, dec_hits = tr.total("decrypt", "grs.decode")
    dec_s *= fd
    choice = tr.total("decrypt", "scheme.canonical_choice")
    values = {
        "attack.find_shared_subcode.s": (per_key("attack.find_shared_subcode", 1), "s/key"),
        "attack.extend_triple.s": (per_key("attack.extend_triple", 1), "s/key"),
        "attack.recover_secret_grs.s": (per_key("attack.recover_secret_grs", 1), "s/key"),
        "attack.recover_valid_pair.s": (per_key("attack.recover_valid_pair", 1), "s/key"),
        "attack.pair_is_valid.s": (per_key("attack.pair_is_valid", 1), "s/key"),
        "attack.outer_trials": (outer, "count/key"),
        "attack.inner_trials": (sum(st.inner_trials for st in stats) / keys, "count/key"),
        "attack.restarts": (restarts / keys, "count/key"),
        "attack.outer_trials_per_q3": (outer / res["q"] ** 3, "ratio"),
        "attack.triple_yield": (len(stats) / (len(stats) + restarts) if stats else 0.0, "ratio"),
        "linalg.batched_rank.calls": (per_key("linalg.batched_rank", 0), "count/key"),
        "linalg.batched_rank.s": (per_key("linalg.batched_rank", 1), "s/key"),
        "linalg.batched_rank.matrices": (per_key("linalg.batched_rank", 3), "count/key"),
        "linalg.rref.calls": (per_key("linalg.rref", 0), "count/key"),
        "linalg.rref.s": (per_key("linalg.rref", 1), "s/key"),
        "linalg.matmul.s": (per_key("linalg.matmul", 1), "s/key"),
        "linalg.right_kernel.s": (per_key("linalg.right_kernel", 1), "s/key"),
        "linalg.solve_right.calls": (per_ct("linalg.solve_right", 0), "count/ct"),
        "linalg.solve_right.s": (per_ct("linalg.solve_right", 1), "s/ct"),
        "gf.mul.calls": (per_key("gf.mul", 0), "count/key"),
        "gf.mul.s": (per_key("gf.mul", 1), "s/key"),
        "gf.mul.ns_per_elem": (mul_s / mul_elems * 1e9 if mul_elems else 0.0, "ns/elem"),
        "gf.inv.calls": (per_key("gf.inv", 0), "count/key"),
        "gf.add.s": (per_key("gf.add", 1), "s/key"),
        "gf.sub.s": (per_key("gf.sub", 1), "s/key"),
        "gf.sum.s": (per_key("gf.sum", 1), "s/key"),
        "codes.square.calls": (per_key("codes.square", 0), "count/key"),
        "codes.square.s": (per_key("codes.square", 1), "s/key"),
        "codes.square.rows": (per_key("codes.square", 3), "count/key"),
        "codes.code_from_generator.calls": (per_key("codes.code_from_generator", 0), "count/key"),
        "codes.code_from_generator.s": (per_key("codes.code_from_generator", 1), "s/key"),
        "grs.decode.calls": (dec_calls / cts, "count/ct"),
        "grs.decode.us": (dec_s / dec_calls * 1e6 if dec_calls else 0.0, "us"),
        "grs.decode.hit_ratio": (dec_hits / dec_calls if dec_calls else 0.0, "ratio"),
        "grs.ss_recover.s": (per_key("grs.ss_recover", 1), "s/key"),
        "grs.recover_multipliers.s": (per_key("grs.recover_multipliers", 1), "s/key"),
        "scheme.keygen.ms": (per_call_ms("scheme.keygen"), "ms"),
        "scheme.candidates_per_ciphertext": (choice[3] / choice[0] if choice[0] else 0.0, "count"),
        "fileio.loads.ms": (per_call_ms("fileio.loads"), "ms"),
        "fileio.dumps.ms": (per_call_ms("fileio.dumps"), "ms"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    lib = import_library()
    print(f"python {platform.python_version()} numpy {np.__version__} "
          f"nproc {len(os.sched_getaffinity(0))}", flush=True)
    speed = speed_mod.Speed(*WORKLOADS[args.workload].field[:2])
    tr = None
    if args.trace:
        # Span times leave out the speed probes that run inside them.
        tr = tracing.Tracer(clock=lambda: time.perf_counter() - speed.spent)
        tracing.install(tr)

    res = run(lib, args.workload, args.seed, args.seconds, speed, tr)
    for err in res["wrong"][:20]:
        print(f"wrong output: {err}", file=sys.stderr)
    for err in res["failures"][:20]:
        print(f"failed: {err}", file=sys.stderr)
    metrics = (layer_metrics(tr, res) if tr is not None else
               {name: {"value": v, "unit": END_TO_END[name]} for name, v in res["e2e"].items()})
    result = {
        "correct": not res["wrong"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": metrics,
    }
    out = Path(".bench_out")
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tr is not None:
        tr.dump(out / f"trace-{stem}.json")
    info = dict(res["info"], workload=args.workload, seed=args.seed, seconds=args.seconds,
                e2e=res["e2e"])
    print("info " + json.dumps(info), flush=True)
    (out / f"result-{stem}.json").write_text(
        json.dumps(dict(result, info=info, samples=res["samples"])) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
