"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is also part of the default ``pytest`` run.
"""

import itertools
import statistics

import numpy as np
import pytest

from grs_squarebreak import attack as atk
from grs_squarebreak import grs, linalg as la, scheme
from grs_squarebreak.attack import AttackConfig, Branch
from grs_squarebreak.cli import main
from grs_squarebreak.codes import code_from_generator, random_code
from grs_squarebreak.gf import GF

from conftest import decode_word, genuine_tie

GF16 = GF(2, 4, 19)
GF32 = GF(2, 5, 37)
GF5 = GF(5)


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


# -- shared attack campaigns -------------------------------------------------

N_ATTACKS = 20
N_CIPHERTEXTS = 100


def _run_campaign(f, n, k, keygen_base, attack_base):
    """Run N_ATTACKS seeded attacks and decrypt N_CIPHERTEXTS per key both
    with the recovered key and the legitimate one.

    Per ciphertext and route, ``*_ok`` records that the encrypted plaintext
    came back and ``*_tied`` that a different plaintext came back whose
    public codeword is also at distance exactly t (a genuine tie)."""
    runs = []
    for i in range(N_ATTACKS):
        pk, sk = scheme.keygen(f, n, k, np.random.default_rng(keygen_base + i))
        rk, st = atk.recover_key(pk, AttackConfig(seed=attack_base + i))
        c_code = grs.code(scheme.masked_params(sk))
        code_ok = grs.code(rk.grs) == c_code
        rng = np.random.default_rng(attack_base + 7000 + i)
        pair_ok, legit_ok, pair_tied, legit_tied, agree = [], [], [], [], []
        for _ in range(N_CIPHERTEXTS):
            msg = rng.integers(0, f.q, k, dtype=np.int64)
            z = scheme.encrypt(pk, msg, rng)
            m_pair = atk.decrypt_with_pair(rk, pk, z)
            m_legit = scheme.decrypt(sk, z)
            pair_ok.append(bool(np.array_equal(m_pair, msg)))
            legit_ok.append(bool(np.array_equal(m_legit, msg)))
            pair_tied.append(not pair_ok[-1] and genuine_tie(pk, z, m_pair))
            legit_tied.append(not legit_ok[-1] and genuine_tie(pk, z, m_legit))
            agree.append(bool(np.array_equal(m_pair, m_legit)))
        runs.append(
            dict(
                pk=pk,
                sk=sk,
                rk=rk,
                stats=st,
                code_ok=code_ok,
                pair_ok=pair_ok,
                legit_ok=legit_ok,
                pair_tied=pair_tied,
                legit_tied=legit_tied,
                agree=agree,
            )
        )
    return runs


def _correct_or_tied(ok, tied):
    return all(o or t for o, t in zip(ok, tied, strict=True))


@pytest.fixture(scope="module")
def low_rate_campaign():
    return _run_campaign(GF16, 15, 6, keygen_base=1000, attack_base=2000)


@pytest.fixture(scope="module")
def dual_campaign():
    return _run_campaign(GF16, 15, 9, keygen_base=3020, attack_base=4000)


# -- criteria ----------------------------------------------------------------


def test_criterion_1_square_code_law():
    """square(GRS_k(x,y)) == GRS_{2k-1}(x, y*y) exactly, 50/50 draws."""
    checked = 0
    for f in (GF16, GF32):
        for i in range(25):
            rng = np.random.default_rng(100 + i)
            n = int(rng.integers(10, f.q))
            k = int(rng.integers(2, (n + 1) // 2))
            assert 2 * k - 1 <= n
            p = grs.random_params(f, n, k, rng)
            sq = grs.code(p).square()
            if 2 * k - 1 < n:
                expected = grs.code(grs.GrsParams(f, p.x, f.mul(p.y, p.y), 2 * k - 1))
            else:
                expected = code_from_generator(f, np.eye(n, dtype=np.int64))
            assert sq == expected, f"law failed for n={n}, k={k} over {f!r}"
            checked += 1
    assert checked == 50
    _report(1, f"square-code law exact on {checked}/50 random GRS codes")


def test_criterion_2_generic_square_dimension():
    """Random codes square to min(k(k+1)/2, n) in at least 90% of draws."""
    hits = 0
    for i in range(100):
        rng = np.random.default_rng(200 + i)
        n = int(rng.integers(15, 32))
        k = int(rng.integers(3, 6))
        c = random_code(GF32, k, n, rng)
        hits += c.square().k == min(k * (k + 1) // 2, n)
    assert hits >= 90, f"only {hits}/100 generic"
    _report(2, f"generic square dimension hit on {hits}/100 random codes")


def test_criterion_3_public_code_square_bounds():
    """dim(square(C_pub)) <= min(3k-1, n) always; equals 3k-1 when uncapped."""
    for i in range(100):
        pk, _sk = scheme.keygen(GF16, 15, 6, np.random.default_rng(300 + i))
        sq = code_from_generator(GF16, pk.g_pub).square()
        assert sq.k <= min(3 * 6 - 1, 15)
    equal = 0
    for i in range(100):
        pk, _sk = scheme.keygen(GF32, 31, 9, np.random.default_rng(400 + i))
        sq = code_from_generator(GF32, pk.g_pub).square()
        assert sq.k <= 3 * 9 - 1
        equal += sq.k == 3 * 9 - 1
    assert equal >= 90, f"only {equal}/100 at 3k-1"
    _report(3, f"square(C_pub) bound 100/100 capped, = 3k-1 in {equal}/100 uncapped keys")


def test_criterion_4_triple_span_separation():
    """Random triples sit at 3k-3 = 24; subcode triples stay <= 2k+2 = 20."""
    f = GF32
    pk, sk = scheme.keygen(f, 31, 9, np.random.default_rng(500))
    pub = code_from_generator(f, pk.g_pub)
    c_code = grs.code(scheme.masked_params(sk))
    sub = code_from_generator(f, la.intersect_rowspaces(f, pub.gen, c_code.gen))
    assert sub.k == 8
    rng = np.random.default_rng(501)
    generic_hits = 0
    for _ in range(100):
        zs = la.matmul(f, la.random_matrix(f, 3, 9, rng), pub.gen)
        rows = f.mul(zs[:, None, :], pub.gen[None, :, :]).reshape(-1, 31)
        generic_hits += la.rank(f, rows) == 24
    assert generic_hits >= 90, f"only {generic_hits}/100 at 3k-3"
    for _ in range(100):
        zs = la.matmul(f, la.random_matrix(f, 3, 8, rng), sub.gen)
        rows = f.mul(zs[:, None, :], pub.gen[None, :, :]).reshape(-1, 31)
        assert la.rank(f, rows) <= 20
    _report(
        4,
        f"random triples at 3k-3 in {generic_hits}/100 draws; "
        "subcode triples <= 2k+2 in 100/100",
    )


def test_criterion_5_scheme_round_trip():
    """200 fresh (key, message, error) triples decrypt; decoder matches a
    brute-force nearest-codeword oracle exhaustively on a tiny instance."""
    for i in range(200):
        rng = np.random.default_rng(600 + i)
        pk, sk = scheme.keygen(GF16, 15, 6, rng)
        msg = rng.integers(0, 16, 6, dtype=np.int64)
        z = scheme.encrypt(pk, msg, rng)
        assert np.array_equal(scheme.decrypt(sk, z), msg)

    f = GF5
    p = grs.GrsParams(f, np.array([0, 1, 2, 3]), np.array([1, 2, 1, 3]), 2)
    assert p.t == 1
    gen = p.generator
    codewords = [
        la.matmul(f, np.array(m, dtype=np.int64), gen)
        for m in itertools.product(range(5), repeat=2)
    ]
    errors = [np.zeros(4, dtype=np.int64)]
    for pos in range(4):
        for val in range(1, 5):
            e = np.zeros(4, dtype=np.int64)
            e[pos] = val
            errors.append(e)
    for cw in codewords:
        for e in errors:
            r = f.add(cw, e)
            dists = [int(np.count_nonzero(f.sub(r, c))) for c in codewords]
            nearest = int(np.argmin(dists))
            out = decode_word(p, r)
            assert out is not None
            assert np.array_equal(out[0], codewords[nearest])
            assert np.array_equal(out[1], e)
    _report(5, "200/200 round trips; decoder exhaustively matches brute force")


def test_criterion_6_low_rate_attack(low_rate_campaign):
    ok = sum(r["code_ok"] and all(r["pair_ok"][:20]) for r in low_rate_campaign)
    trials = [r["stats"].outer_trials for r in low_rate_campaign]
    mean_trials = statistics.mean(trials)
    assert ok == N_ATTACKS, f"only {ok}/{N_ATTACKS} attacks fully verified"
    assert 16**3 / 3 <= mean_trials <= 3 * 16**3, f"mean outer trials {mean_trials}"
    _report(
        6,
        f"{ok}/{N_ATTACKS} low-rate attacks verified, mean outer trials "
        f"{mean_trials:.0f} in [1365, 12288]",
    )


def test_criterion_7_dual_branch_attack(dual_campaign):
    """Dual-branch keys are recovered and decrypt their first 20 ciphertexts.

    At (15, 9) the public code is not uniquely decodable at distance t, so a
    ciphertext may decrypt to another plaintext whose codeword is a genuine
    tie at distance exactly t; nothing closer or farther passes."""
    ok = sum(
        r["code_ok"] and _correct_or_tied(r["pair_ok"][:20], r["pair_tied"][:20])
        for r in dual_campaign
    )
    ties = sum(sum(r["pair_tied"][:20]) for r in dual_campaign)
    assert ok == N_ATTACKS, f"only {ok}/{N_ATTACKS} dual attacks fully verified"
    branches = {r["stats"].branch for r in dual_campaign}
    assert branches == {Branch.HIGH_RATE_DUAL}
    _report(
        7,
        f"{ok}/{N_ATTACKS} dual-branch attacks verified "
        f"({ties}/{20 * N_ATTACKS} ciphertexts genuinely tied at distance t)",
    )


def test_criterion_8_dead_interval(tmp_path):
    for k in (7, 8):
        pub = tmp_path / f"pub{k}.key"
        sec = tmp_path / f"sec{k}.key"
        rc = main(
            ["keygen", "--p", "2", "--m", "4", "--poly", "19", "--n", "15",
             "--k", str(k), "--seed", "1", "--out-pub", str(pub), "--out-sec", str(sec)]
        )
        assert rc == 0
        rc = main(["attack", "--pub", str(pub), "--out", str(tmp_path / f"rk{k}")])
        assert rc == 3, f"k={k} should exit NotApplicable"
    _report(8, "attack exits NotApplicable (3) for k in {7, 8} at n=15")


def test_criterion_9_pair_validity(low_rate_campaign, dual_campaign):
    total = 0
    for run in low_rate_campaign + dual_campaign:
        f = run["pk"].field
        rk = run["rk"]
        assert la.matmul(f, rk.a0, rk.lam0) != int(f.neg(1))
        # The pair route raises DecryptionFailure unless the masking map
        # carries the recovered code onto the public code.
        scheme._pair_decryptor(rk, run["pk"])
        total += 1
    _report(9, f"masking pair valid on {total}/{total} successful attacks")


def test_criterion_10_oracle_equivalence(low_rate_campaign, dual_campaign):
    """Both routes return the same plaintext on every ciphertext, and that is
    the encrypted one or a genuine tie at distance exactly t."""
    keys = ties = 0
    for run in low_rate_campaign + dual_campaign:
        assert all(run["agree"]), "recovered and legitimate decryption disagree"
        assert _correct_or_tied(run["legit_ok"], run["legit_tied"])
        assert _correct_or_tied(run["pair_ok"], run["pair_tied"])
        keys += 1
        ties += sum(run["pair_tied"])
    _report(
        10,
        f"decrypt_with_pair agrees with legitimate decrypt on "
        f"{N_CIPHERTEXTS} ciphertexts for all {keys} recovered keys "
        f"({ties}/{N_CIPHERTEXTS * keys} genuinely tied at distance t)",
    )


def test_criterion_11_stretch_gf32_dual():
    pk, sk = scheme.keygen(GF32, 31, 24, np.random.default_rng(9000))
    rk, st = atk.recover_key(pk, AttackConfig(seed=9001))
    assert grs.code(rk.grs) == grs.code(scheme.masked_params(sk))
    assert st.wall_time < 7200
    rng = np.random.default_rng(9002)
    for _ in range(5):
        msg = rng.integers(0, 32, 24, dtype=np.int64)
        z = scheme.encrypt(pk, msg, rng)
        assert np.array_equal(atk.decrypt_with_pair(rk, pk, z), msg)
    _report(
        11,
        f"stretch dual attack at GF(32), n=31, k=24 in {st.wall_time:.0f}s "
        f"({st.outer_trials} outer trials)",
    )
