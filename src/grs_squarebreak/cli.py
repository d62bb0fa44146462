"""Command-line front end.

Subcommands: keygen, encrypt, decrypt, distinguish, attack, bench.
Exit codes: 0 success, 1 usage or parse error, 2 decryption failure,
3 attack not applicable, 4 trial budget exceeded.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

from . import attack as attack_mod
from . import fileio, scheme
from .codes import code_from_generator, distinguish
from .gf import GF, FieldError
from .fileio import FileFormatError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DECRYPT = 2
EXIT_NOT_APPLICABLE = 3
EXIT_BUDGET = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_field_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, required=True, help="prime characteristic")
    p.add_argument("--m", type=int, default=1, help="extension degree (default 1)")
    p.add_argument(
        "--poly",
        type=int,
        default=0,
        help="modulus polynomial, base-p digit encoding (ignored for m=1)",
    )


def _at_least(low: int):
    """An argparse type: an integer of at least low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _field(args) -> GF:
    return GF(args.p, args.m, args.poly)


def _diagnose(n: int, k: int) -> str:
    branch = attack_mod.applicable_branch(n, k)
    if branch is None:
        reason = attack_mod.not_applicable_reason(n, k)
        return f"branch: none -- {reason}; the bundled attack will not apply"
    return f"branch: {branch.value}"


def cmd_keygen(args) -> int:
    f = _field(args)
    rng = np.random.default_rng(args.seed)
    pk, sk = scheme.keygen(f, args.n, args.k, rng)
    fileio.save_public_key(args.out_pub, pk)
    fileio.save_secret_key(args.out_sec, sk)
    print(f"wrote {args.out_pub} and {args.out_sec} (n={pk.n} k={pk.k} t={pk.t} q={f.q})")
    print(_diagnose(pk.n, pk.k))
    return EXIT_OK


def cmd_encrypt(args) -> int:
    pk = fileio.load_public_key(args.key)
    msg = fileio.load_vector(args.msg, pk.k, pk.field)
    rng = np.random.default_rng(args.seed)
    c = scheme.encrypt(pk, msg, rng)
    if args.out:
        fileio.save_vector(args.out, pk.field, pk.n, pk.k, c)
    else:
        sys.stdout.write(fileio.dumps(pk.field, pk.n, pk.k, {"vec": c.reshape(1, -1)}))
    return EXIT_OK


def cmd_decrypt(args) -> int:
    if args.recovered:
        if not args.pub:
            print("decrypt: --recovered needs --pub for the public generator", file=sys.stderr)
            return EXIT_USAGE
        pk = fileio.load_public_key(args.pub)
        rk = fileio.load_recovered_key(args.recovered)
        c = rk.grs
        if c.field is not pk.field or (c.n, c.k) != (pk.n, pk.k):
            raise FileFormatError(f"recovered key (n={c.n} k={c.k} over {c.field!r}) does not match "
                                  f"the public key (n={pk.n} k={pk.k} over {pk.field!r})")
        cands = scheme.pair_candidates(rk, pk, fileio.load_vector(args.ct, pk.n, pk.field))
    else:
        if not args.key:
            print("decrypt: need --key (or --recovered with --pub)", file=sys.stderr)
            return EXIT_USAGE
        pk, sk = fileio.load_secret_key(args.key)
        cands = scheme.decrypt_candidates(sk, fileio.load_vector(args.ct, pk.n, pk.field))
    msg = scheme.canonical_choice(cands, pk.t)
    if len(cands) > 1:
        print(f"decrypt: note: {len(cands)} plaintexts lie within distance t={pk.t} of the "
              "ciphertext; writing the canonical choice", file=sys.stderr)
    if args.out:
        fileio.save_vector(args.out, pk.field, pk.n, pk.k, msg)
    else:
        sys.stdout.write(fileio.dumps(pk.field, pk.n, pk.k, {"vec": msg.reshape(1, -1)}))
    return EXIT_OK


def cmd_distinguish(args) -> int:
    pf = fileio.read_file(args.code)
    g = fileio.load_code_matrix(pf)
    rep = distinguish(code_from_generator(pf.field, g))
    line = f"square_dim={rep.square_dim} generic_dim={rep.generic_dim} verdict={rep.verdict}"
    if rep.dual_square_dim is not None:
        line += (
            f" dual_square_dim={rep.dual_square_dim}"
            f" dual_generic_dim={rep.dual_generic_dim} dual_verdict={rep.dual_verdict}"
        )
    print(line)
    return EXIT_OK


def cmd_attack(args) -> int:
    pk = fileio.load_public_key(args.pub)
    if args.verify_sec:
        _, sk = fileio.load_secret_key(args.verify_sec)
        if sk.field is not pk.field or not np.array_equal(sk.g_pub, pk.g_pub):
            raise FileFormatError(f"secret key (n={sk.n} k={sk.k} over {sk.field!r}) is not of "
                                  "this public key's pair: its field or public generator differs")
    cfg = attack_mod.AttackConfig(max_outer_trials=args.trials, seed=args.seed)
    try:
        rk, st = attack_mod.recover_key(pk, cfg)
    except attack_mod.NotApplicable as e:
        print(f"attack not applicable: {e}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except attack_mod.TrialBudgetExceeded as e:
        print(f"attack gave up: {e}", file=sys.stderr)
        return EXIT_BUDGET
    fileio.save_recovered_key(args.out, rk)
    print(
        f"recovered key written to {args.out}\n"
        f"branch: {st.branch.value}  outer trials: {st.outer_trials}  "
        f"inner trials (subcodes checked): {st.inner_trials}  restarts: {st.restarts}  "
        f"wall time: {st.wall_time:.2f}s"
    )
    if args.verify_sec:
        rng = np.random.default_rng(args.seed)
        good = tied = 0
        for _ in range(args.verify_count):
            msg = rng.integers(0, pk.field.q, pk.k, dtype=np.int64)
            c = scheme.encrypt(pk, msg, rng)
            try:
                sets = (scheme.pair_candidates(rk, pk, c), scheme.decrypt_candidates(sk, c))
            except scheme.DecryptionFailure:
                continue
            # The public code's minimum distance can fall below 2t+1, so another
            # plaintext may also sit at distance exactly t: a tie, not a failure.
            # The sent plaintext is at distance t, so a route that found it and
            # chose another chose one at distance t.
            if all(np.array_equal(scheme.canonical_choice(cands, pk.t), msg) for cands in sets):
                good += 1
            elif all(any(np.array_equal(m, msg) for _, m in cands) for cands in sets):
                tied += 1
        print(f"verify: {good}/{args.verify_count} correct, {tied} tied at distance t")
        if good + tied != args.verify_count:
            return EXIT_DECRYPT
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def cmd_bench(args) -> int:
    f = _field(args)
    rows = []
    seed_seq = np.random.SeedSequence(args.seed)
    for n in args.n:
        for k in args.k:
            cell_seeds = seed_seq.spawn(args.reps)
            trials, times, ok = [], [], 0
            for child in cell_seeds:
                rng = np.random.default_rng(child)
                pk, _sk = scheme.keygen(f, n, k, rng)
                try:
                    _rk, st = attack_mod.recover_key(
                        pk, attack_mod.AttackConfig(max_outer_trials=args.trials, seed=rng)
                    )
                except (attack_mod.NotApplicable, attack_mod.TrialBudgetExceeded):
                    continue
                trials.append(st.outer_trials)
                times.append(st.wall_time)
                ok += 1
            mean_tr = statistics.mean(trials) if trials else float("nan")
            med_tr = statistics.median(trials) if trials else float("nan")
            mean_tm = statistics.mean(times) if times else float("nan")
            rows.append(
                (f.q, n, k, args.reps, ok, ok / args.reps if args.reps else 0.0,
                 mean_tr, med_tr, mean_tm, mean_tr / f.q**3)
            )
    header = ("q", "n", "k", "reps", "ok", "success", "mean_trials", "median_trials",
              "mean_time_s", "trials_over_q3")
    widths = [max(len(h), 12) for h in header]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = [
            f"{v:.3f}" if isinstance(v, float) else str(v) for v in row
        ]
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    csv_lines = [",".join(header)]
    for row in rows:
        csv_lines.append(",".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in row))
    csv_text = "\n".join(csv_lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        print(f"csv written to {args.csv}")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="grs-squarebreak", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", parents=[], help="generate a keypair")
    _add_field_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out-pub", required=True)
    p.add_argument("--out-sec", required=True)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a message file")
    p.add_argument("--key", required=True, help="public key file")
    p.add_argument("--msg", required=True, help="message file (@vec 1 k)")
    p.add_argument("--out", help="ciphertext file (stdout when omitted)")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    p.add_argument("--key", help="secret key file")
    p.add_argument("--recovered", help="recovered key file (attack output)")
    p.add_argument("--pub", help="public key file (needed with --recovered)")
    p.add_argument("--ct", required=True, help="ciphertext file (@vec 1 n)")
    p.add_argument("--out", help="plaintext file (stdout when omitted)")
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("distinguish", help="square-dimension report for a code file")
    p.add_argument("--code", required=True, help="file with a @G (or @Gpub) section")
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("attack", help="recover a key from a public key file")
    p.add_argument("--pub", required=True)
    p.add_argument("--out", required=True, help="recovered key file")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument(
        "--trials", type=_at_least(1), default=None, help="outer trial cap (default 100 q^3)"
    )
    p.add_argument("--verify-sec", help="secret key file to cross-check decryption")
    p.add_argument("--verify-count", type=_at_least(0), default=20)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("bench", help="seeded attack replicas over a parameter grid")
    _add_field_args(p)
    p.add_argument("--n", type=_int_list, required=True, help="comma-separated lengths")
    p.add_argument("--k", type=_int_list, required=True, help="comma-separated dimensions")
    p.add_argument("--reps", type=_at_least(0), default=10)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--trials", type=_at_least(1), default=None)
    p.add_argument("--csv", help="write the machine-readable table here instead of stdout")
    p.set_defaults(func=cmd_bench)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (FileFormatError, FieldError, scheme.InvalidDimensions, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except scheme.DecryptionFailure as e:
        print(f"decryption failed: {e}", file=sys.stderr)
        return EXIT_DECRYPT


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
