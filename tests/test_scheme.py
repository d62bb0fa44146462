"""Keygen invariants, encryption, and legitimate decryption."""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from grs_squarebreak import attack, fileio, grs, linalg as la, scheme
from grs_squarebreak.codes import code_from_generator
from grs_squarebreak.gf import GF, FieldError
from grs_squarebreak.scheme import DecryptionFailure, InvalidDimensions


@pytest.fixture(scope="module")
def keypair16():
    f = pytest.importorskip("grs_squarebreak.gf").GF(2, 4, 19)
    rng = np.random.default_rng(42)
    pk, sk = scheme.keygen(f, 15, 6, rng)
    return f, pk, sk


def permutation(perm: np.ndarray) -> np.ndarray:
    """Pi with Pi[i, perm[i]] = 1, built independently of keygen."""
    n = len(perm)
    pi = np.zeros((n, n), dtype=np.int64)
    pi[np.arange(n), perm] = 1
    return pi


class TestKeygen:
    def test_dimension_validation(self, gf16, rng):
        with pytest.raises(InvalidDimensions):
            scheme.keygen(gf16, 15, 15, rng)
        with pytest.raises(InvalidDimensions):
            scheme.keygen(gf16, 17, 6, rng)

    def test_public_code_unwinds_to_secret(self, keypair16):
        """G_pub Q spans the secret code, for Q = Pi + alpha^T beta."""
        f, pk, sk = keypair16
        q_mat = f.add(permutation(sk.perm), f.mul(sk.alpha[:, None], sk.beta))
        r1, _ = la.rref(f, la.matmul(f, pk.g_pub, q_mat))
        r2, _ = la.rref(f, sk.grs.generator)
        assert np.array_equal(r1, r2)

    def test_rank_one_mask(self, keypair16):
        f, pk, sk = keypair16
        r = f.mul(sk.alpha[:, None], sk.beta)
        assert la.rank(f, r) == 1

    def test_mask_vectors_factor_r_pi_inverse(self, keypair16):
        f, pk, sk = keypair16
        pi_inv = la.inverse(f, permutation(sk.perm))
        lhs = la.matmul(f, f.mul(sk.alpha[:, None], sk.beta), pi_inv)
        assert np.array_equal(lhs, f.mul(sk.alpha[:, None], sk.a))

    def test_permutation_matrix(self, keypair16):
        """Pi has unit row and column sums and full rank."""
        f, pk, sk = keypair16
        pi = permutation(sk.perm)
        assert np.array_equal(pi.sum(axis=0), np.ones(sk.n))
        assert np.array_equal(pi.sum(axis=1), np.ones(sk.n))
        assert la.rank(f, pi) == sk.n

    def test_permutation_action(self, keypair16, rng):
        """(v Pi)[perm] = v."""
        f, pk, sk = keypair16
        pi = permutation(sk.perm)
        v = rng.integers(0, f.q, sk.n)
        assert np.array_equal(la.matmul(f, v, pi)[sk.perm], v)

    def test_p_inverse_closed_form(self, keypair16):
        """I - b^T a / (1 + <a,b>) really inverts I + b^T a."""
        f, pk, sk = keypair16
        n = sk.n
        eye = np.eye(n, dtype=np.int64)
        p_mat = f.add(eye, f.mul(sk.alpha[:, None], sk.a))
        denom_inv = f.inv(f.add(1, la.matmul(f, sk.a, sk.alpha)))
        closed = f.sub(eye, f.mul(denom_inv, f.mul(sk.alpha[:, None], sk.a)))
        assert np.array_equal(la.inverse(f, p_mat), closed)

    def test_lam_outside_dual_and_pub_differs(self, keypair16):
        f, pk, sk = keypair16
        c_params = scheme.masked_params(sk)
        c_code = grs.code(c_params)
        assert la.matmul(f, c_code.gen, sk.lam).any()  # lam not a parity check
        pub_code = code_from_generator(f, pk.g_pub)
        assert pub_code != c_code

    def test_intersection_dimension(self, keypair16):
        f, pk, sk = keypair16
        pub = code_from_generator(f, pk.g_pub)
        c_code = grs.code(scheme.masked_params(sk))
        inter = la.intersect_rowspaces(f, pub.gen, c_code.gen)
        assert inter.shape[0] == sk.k - 1

    def test_masking_structure_primal(self, keypair16):
        """Every public generator row is p + <lam, p> a for some p in C."""
        f, pk, sk = keypair16
        c_code = grs.code(scheme.masked_params(sk))
        p_mat = f.add(np.eye(sk.n, dtype=np.int64), f.mul(sk.alpha[:, None], sk.a))
        for g in pk.g_pub:
            p = la.matmul(f, g, p_mat)
            assert c_code.contains(p)
            assert np.array_equal(f.add(p, f.mul(la.matmul(f, sk.lam, p), sk.a)), g)

    def test_masking_structure_dual(self, keypair16):
        """Every dual public codeword is p + <p, a> b for some p in C-perp."""
        f, pk, sk = keypair16
        c_code = grs.code(scheme.masked_params(sk))
        c_perp = c_code.dual()
        pub_perp = code_from_generator(f, pk.g_pub).dual()
        p_mat = f.add(np.eye(sk.n, dtype=np.int64), f.mul(sk.alpha[:, None], sk.a))
        pt_inv = la.inverse(f, p_mat.T)
        for c in pub_perp.gen:
            p = la.matmul(f, c, pt_inv)
            assert c_perp.contains(p)
            assert np.array_equal(f.add(p, f.mul(la.matmul(f, p, sk.a), sk.alpha)), c)

    def test_pub_square_bound(self, keypair16):
        f, pk, sk = keypair16
        pub = code_from_generator(f, pk.g_pub)
        assert pub.square().k <= min(3 * sk.k - 1, sk.n)

    def test_deterministic(self, gf16):
        pk1, sk1 = scheme.keygen(gf16, 15, 6, np.random.default_rng(7))
        pk2, sk2 = scheme.keygen(gf16, 15, 6, np.random.default_rng(7))
        assert np.array_equal(pk1.g_pub, pk2.g_pub)
        assert np.array_equal(sk1.alpha, sk2.alpha)

    @pytest.mark.parametrize("kind", ["float", "out-of-range"])
    def test_public_key_entries_must_be_field_elements(self, keypair16, kind):
        """A public generator with a float entry used to be truncated, and
        an entry 16 at GF(16) kept until encryption raised a bare
        IndexError."""
        f, pk, sk = keypair16
        g = pk.g_pub + 0.7 if kind == "float" else pk.g_pub.copy()
        if kind == "out-of-range":
            g[1, 3] = 16
        refusal = "must hold integers" if kind == "float" else r"has entries outside \[0, 16\)"
        with pytest.raises(FieldError, match="public generator " + refusal):
            scheme.PublicKey(f, pk.n, pk.k, g)

    @pytest.mark.parametrize("kind", ["fewer-rows", "n-too-small", "one-dimensional", "n-above-q"])
    def test_public_key_dimensions_must_match_the_generator(self, keypair16, kind):
        """A generator whose shape is not (k, n), or dimensions no key can
        have, used to be accepted: encryption then raised a bare numpy
        error, and recover_key raised ZeroMatrix or a bare ValueError, or
        blamed a dead interval that the real (n, k) is not in."""
        f, pk, sk = keypair16
        n, k, g = {
            "fewer-rows": (15, 6, np.zeros((5, 15), dtype=np.int64)),
            "n-too-small": (14, 6, pk.g_pub),
            "one-dimensional": (15, 6, pk.g_pub[0]),
            "n-above-q": (17, 6, np.zeros((6, 17), dtype=np.int64)),
        }[kind]
        with pytest.raises(InvalidDimensions, match="public generator"):
            scheme.PublicKey(f, n, k, g)

    def test_public_key_dimensions_must_be_integers(self, keypair16, tmp_path):
        """Float dimensions used to be accepted: the key file's header then
        read n=15.0 k=6.0, which the reader refused, and encryption raised a
        bare TypeError.  They raise TypeError, as GF does; integers of numpy
        types are kept as ints."""
        f, pk, sk = keypair16
        with pytest.raises(TypeError):
            scheme.PublicKey(f, 15.0, 6.0, pk.g_pub)
        kept = scheme.PublicKey(f, np.int64(15), np.int32(6), pk.g_pub)
        assert (type(kept.n), type(kept.k)) == (int, int)
        fileio.save_public_key(tmp_path / "pub", kept)
        assert (fileio.load_public_key(tmp_path / "pub").n, kept.t) == (15, 4)

    @pytest.mark.parametrize("kind", ["float", "out-of-range", "length"])
    @pytest.mark.parametrize("part", ["a0", "lam0"])
    def test_recovered_key_entries_must_be_field_elements(self, keypair16, part, kind):
        """A masking pair with float entries used to be truncated and then
        decrypt, an entry 16 at GF(16) raised a bare IndexError on the first
        decryption, and a vector of another length than the code was
        accepted and refused only on the first decryption."""
        f, pk, sk = keypair16
        pair = {"a0": sk.a, "lam0": sk.lam}
        if kind == "float":
            pair[part] = pair[part] + 0.7
        elif kind == "out-of-range":
            pair[part] = pair[part].copy()
            pair[part][3] = 16
        else:
            pair[part] = pair[part][:-1]
        with pytest.raises(FieldError if kind != "length" else InvalidDimensions,
                           match={"float": f"{part} must hold integers",
                                  "out-of-range": rf"{part} has entries outside \[0, 16\)",
                                  "length": f"{part} must have length n=15"}[kind]):
            scheme.RecoveredKey(sk.masked, pair["a0"], pair["lam0"], None)


    @pytest.mark.parametrize("kind", ["float", "out-of-range"])
    def test_build_keypair_scrambler_must_hold_field_elements(self, keypair16, kind):
        """S + 0.25 used to be truncated to the same key, and an entry 17
        raised a bare IndexError."""
        f, pk, sk = keypair16
        s_mat = sk.s_mat + 0.25 if kind == "float" else sk.s_mat.copy()
        if kind == "out-of-range":
            s_mat[0, 1] = 17
        refusal = "must hold integers" if kind == "float" else r"has entries outside \[0, 16\)"
        with pytest.raises(FieldError, match="S " + refusal):
            scheme.build_keypair(f, sk.grs.x, sk.grs.y, s_mat, sk.perm, sk.alpha, sk.beta)

    @pytest.mark.parametrize("kind", ["float", "out-of-range", "length"])
    @pytest.mark.parametrize("part", ["alpha", "beta"])
    def test_build_keypair_mask_must_hold_n_field_elements(self, keypair16, part, kind):
        """A float alpha or beta used to be truncated to the same key, a
        beta entry -3 indexed the field's tables from their end, an alpha
        entry 40 raised a bare IndexError, and a vector of another length
        raised from inside the arithmetic, or not at all."""
        f, pk, sk = keypair16
        mask = {"alpha": sk.alpha.copy(), "beta": sk.beta.copy()}
        if kind == "float":
            mask[part] = mask[part] + 0.5
        elif kind == "out-of-range":
            mask[part][2] = 40 if part == "alpha" else -3
        else:
            mask[part] = np.append(mask[part], 1) if part == "beta" else mask[part][:-1]
        with pytest.raises(FieldError if kind != "length" else InvalidDimensions,
                           match={"float": f"{part} must hold integers",
                                  "out-of-range": rf"{part} has entries outside \[0, 16\)",
                                  "length": f"{part} must have length n=15"}[kind]):
            scheme.build_keypair(f, sk.grs.x, sk.grs.y, sk.s_mat, sk.perm, mask["alpha"],
                                 mask["beta"])

    @pytest.mark.parametrize("kind", ["float", "repeated", "out-of-range", "short"])
    def test_build_keypair_perm_must_be_a_permutation(self, keypair16, kind):
        """perm + 0.5 used to be truncated to the same key, and a repeated
        entry was refused as repeated evaluation points."""
        f, pk, sk = keypair16
        perm = {"float": lambda p: p + 0.5, "repeated": lambda p: np.where(p == 3, 4, p),
                "out-of-range": lambda p: np.where(p == 3, 15, p), "short": lambda p: p[p != 3]}
        with pytest.raises(InvalidDimensions, match=r"perm must be an integer permutation of 0\.\.14"):
            scheme.build_keypair(f, sk.grs.x, sk.grs.y, sk.s_mat, perm[kind](sk.perm), sk.alpha,
                                 sk.beta)


class TestEncrypt:
    def test_error_weight_exact(self, keypair16, rng):
        f, pk, sk = keypair16
        msg = rng.integers(0, 16, 6)
        c = scheme.encrypt(pk, msg, rng)
        diff = f.sub(c, la.matmul(f, msg, pk.g_pub))
        assert int(np.count_nonzero(diff)) == pk.t

    @pytest.mark.parametrize(
        "msg_len,error_len,message",
        [
            (5, None, "message length must be k=6"),
            (6, 14, "error length must be n=15"),
            (6, None, "encrypt needs an rng when no explicit error is given"),
        ],
        ids=["message-length", "error-length", "no-rng"],
    )
    def test_malformed_input_refused(self, keypair16, msg_len, error_len, message):
        f, pk, sk = keypair16
        error = None if error_len is None else np.zeros(error_len, dtype=np.int64)
        with pytest.raises(ValueError, match=message):
            scheme.encrypt(pk, np.zeros(msg_len, dtype=np.int64), error=error)

    def test_zero_error_hook(self, keypair16):
        f, pk, sk = keypair16
        msg = np.arange(6, dtype=np.int64)
        c = scheme.encrypt(pk, msg, error=np.zeros(15, dtype=np.int64))
        assert np.array_equal(c, la.matmul(f, msg, pk.g_pub))

    def test_zero_message_zero_error(self, keypair16):
        f, pk, sk = keypair16
        c = scheme.encrypt(pk, np.zeros(6, dtype=np.int64), error=np.zeros(15, dtype=np.int64))
        assert not c.any()


    @pytest.mark.parametrize("bad", [-1, 16])
    def test_entries_outside_field_refused(self, keypair16, bad):
        """A message or given error entry outside [0, 16) is refused, not
        wrapped (-1 used to encrypt as 15) nor left to a bare IndexError."""
        f, pk, sk = keypair16
        msg = np.zeros(6, dtype=np.int64)
        msg[0] = bad
        with pytest.raises(FieldError, match=r"message has entries outside \[0, 16\)"):
            scheme.encrypt(pk, msg, np.random.default_rng(0))
        error = np.zeros(15, dtype=np.int64)
        error[3] = bad
        with pytest.raises(FieldError, match=r"error has entries outside \[0, 16\)"):
            scheme.encrypt(pk, np.zeros(6, dtype=np.int64), error=error)

    @pytest.mark.parametrize(
        "first", [1.7, "1", 2**70], ids=["float", "string", "beyond-int64"]
    )
    def test_non_integer_message_refused(self, keypair16, first):
        """A message must be an integer array: 1.7 used to be truncated to 1
        without error, '1' parsed, and 2**70 raised OverflowError."""
        f, pk, sk = keypair16
        msg = [first, 0, 0, 0, 0, 0]
        with pytest.raises(FieldError, match="message must hold integers"):
            scheme.encrypt(pk, msg, np.random.default_rng(0))


class TestCanonicalChoice:
    """The pick among verified decryptions, on hand-built candidate lists."""

    @staticmethod
    def pick(candidates, t=3):
        outs = {
            tuple(scheme.canonical_choice(
                [(w, np.array(m, dtype=np.int64)) for w, m in order], t
            ).tolist())
            for order in itertools.permutations(candidates)
        }
        assert len(outs) == 1  # independent of candidate order
        return outs.pop()

    def test_weight_t_beats_lighter(self):
        assert self.pick([(2, (0, 0)), (3, (5, 5)), (0, (1, 1))]) == (5, 5)

    def test_lightest_when_no_weight_t(self):
        assert self.pick([(2, (3, 3)), (0, (9, 9)), (1, (1, 1))]) == (9, 9)

    def test_ties_at_t_break_lexicographically(self):
        assert self.pick([(3, (2, 1)), (3, (1, 7)), (1, (0, 0)), (3, (1, 9))]) == (1, 7)


def q_word_candidates(key, c, code, direction, to_plain):
    """The reference sweep: ``grs.decode_many`` on all q shifted words
    c - s direction at once, every locator from the elimination and none
    from the minors of the shift line, each decoded message mapped to a
    plaintext by to_plain and kept when its public codeword lies within t
    of c; the distinct (error weight, plaintext) pairs in shift order."""
    f = key.field
    msgs, ok = grs.decode_many(code, f.sub(c, f.mul(f.elements()[:, None], direction)))
    plain = la.matmul(f, msgs[ok], to_plain)
    weights = np.count_nonzero(f.sub(c, la.matmul(f, plain, key.g_pub)), axis=1)
    return list({m.tobytes(): (int(w), m) for w, m in zip(weights, plain) if w <= key.t}.values())


class TestDecrypt:
    def test_round_trip_many(self, keypair16):
        f, pk, sk = keypair16
        rng = np.random.default_rng(3)
        for _ in range(30):
            msg = rng.integers(0, 16, 6)
            assert np.array_equal(scheme.decrypt(sk, scheme.encrypt(pk, msg, rng)), msg)

    def test_zero_error_ciphertext(self, keypair16):
        f, pk, sk = keypair16
        msg = np.arange(6, dtype=np.int64)
        c = scheme.encrypt(pk, msg, error=np.zeros(15, dtype=np.int64))
        assert np.array_equal(scheme.decrypt(sk, c), msg)

    def test_gamma_zero_branch(self, keypair16, rng):
        """An error orthogonal to alpha makes the first gamma guess succeed."""
        f, pk, sk = keypair16
        msg = rng.integers(0, 16, 6)
        e = np.zeros(15, dtype=np.int64)
        e[0] = 1
        while la.matmul(f, e, sk.alpha) != 0:
            e = np.roll(e, 1)
            if e[0] == 1 and np.count_nonzero(e) == 1 and e.argmax() == 0:
                pytest.skip("alpha has full support for this key")
        c = scheme.encrypt(pk, msg, error=e)
        assert np.array_equal(scheme.decrypt(sk, c), msg)

    def test_too_many_errors_rejected_small_field(self, gf5):
        """t+1 errors never silently decrypt to the original plaintext."""
        pk, sk = scheme.keygen(gf5, 4, 2, np.random.default_rng(11))
        assert pk.t == 1
        f = gf5
        for msg in itertools.product(range(5), repeat=2):
            msg = np.array(msg, dtype=np.int64)
            base = scheme.encrypt(pk, msg, error=np.zeros(4, dtype=np.int64))
            for support in itertools.combinations(range(4), 2):
                e = np.zeros(4, dtype=np.int64)
                e[list(support)] = [1, 2]
                c = f.add(base, e)
                try:
                    out = scheme.decrypt(sk, c)
                except DecryptionFailure:
                    continue
                # a decode may land on a different codeword, never the true one
                assert not np.array_equal(out, msg)

    def test_sweep_memory_is_bounded(self):
        """Peak traced memory of one decryption at GF(4096) (60, 29) stays
        under 48 MiB: the 4096 shifted words are decoded in blocks, not in
        one stack (which peaks at about 85 MiB)."""
        f = GF(2, 12, 4179)
        pk, sk = scheme.keygen(f, 60, 29, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        msg = rng.integers(0, f.q, 29)
        z = scheme.encrypt(pk, msg, rng)
        tracemalloc.start()
        try:
            got = scheme.decrypt(sk, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, msg)
        assert peak < 48 * 2**20

    def test_sweep_memory_is_bounded_at_minors_radius(self):
        """The same bound at GF(4096) (26, 18), t = 4, where the 4096
        shifted words take their locators from maximal minors."""
        f = GF(2, 12, 4179)
        pk, sk = scheme.keygen(f, 26, 18, np.random.default_rng(0))
        assert sk.t <= grs._MINORS_MAX_T
        rng = np.random.default_rng(1)
        msg = rng.integers(0, f.q, 18)
        z = scheme.encrypt(pk, msg, rng)
        tracemalloc.start()
        try:
            got = scheme.decrypt(sk, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, msg)
        assert peak < 48 * 2**20

    @pytest.mark.parametrize(
        "field,n,k",
        [((2, 4, 19), 15, 6), ((2, 4, 19), 15, 9), ((5, 2, 32), 16, 6), ((5, 2, 32), 16, 7),
         ((17, 1, 0), 17, 8), ((7, 1, 0), 7, 2), ((3, 1, 0), 3, 1), ((2, 1, 0), 2, 1),
         ((2, 4, 19), 15, 1), ((2, 5, 37), 31, 13)],
        ids=["gf16-15-6", "gf16-15-9", "gf25-16-6", "gf25-16-7", "gf17-17-8", "gf7-7-2",
             "gf3-3-1", "gf2-2-1-t0", "gf16-15-1-t7", "gf32-31-13-t9"],
    )
    def test_both_decryptors_match_the_q_word_sweep(self, field, n, k):
        """The line decode (syndromes and minors along the shift line, tables
        of multiples) returns, for both decryptors, the candidate list of
        ``decode_many`` on all q shifted words followed by the plaintext map
        and the weight check, in the same order: on ciphertexts with errors
        of every weight 0..t, whose sent plaintext is always among the
        candidates, and on random words, which include ties at GF(3) and
        words with no candidate.  Past the minors' cap (t = 9 at GF(32))
        every word takes the elimination."""
        f = GF(*field)
        pk, sk = scheme.keygen(f, n, k, np.random.default_rng(n + k))
        rk = attack.RecoveredKey(sk.masked, sk.a, sk.lam, None)
        rng = np.random.default_rng(n * k)
        sent = [(rng.integers(0, f.q, k), w) for w in range(pk.t + 1) for _ in range(6)]
        words = [(scheme.encrypt(pk, m, error=scheme.random_error(f, n, w, rng)), (w, m.tolist()))
                 for m, w in sent]
        words += [(c, None) for c in rng.integers(0, f.q, (12, n))]
        ties = 0
        for c, truth in words:
            for route, dec in (
                (lambda: scheme.decrypt_candidates(sk, c), sk.decryptor),
                (lambda: attack.pair_candidates(rk, pk, c), scheme._pair_decryptor(rk, pk)),
            ):
                assert np.array_equal(dec.to_public.matrix,
                                      la.matmul(f, dec.to_plain.matrix, pk.g_pub))
                assert np.array_equal(dec.syndromes,
                                      la.matmul(f, dec.direction, dec.code.parity_checks_t))
                want = q_word_candidates(pk, c, dec.code, dec.direction, dec.to_plain.matrix)
                if not want:
                    with pytest.raises(DecryptionFailure):
                        route()
                    continue
                got = [(w, m.tolist()) for w, m in route()]
                assert got == [(w, m.tolist()) for w, m in want]
                assert truth is None or truth in got
                ties += len(got) > 1
        assert ties or f.q != 3

    @pytest.mark.parametrize(
        "field,n,k",
        [((7, 1, 0), 7, 2), ((7, 1, 0), 7, 3), ((2, 3, 11), 8, 2), ((2, 3, 11), 8, 3),
         ((3, 2, 10), 9, 3), ((3, 2, 10), 9, 4), ((11, 1, 0), 11, 4), ((13, 1, 0), 12, 3),
         ((17, 1, 0), 17, 1), ((19, 1, 0), 19, 2), ((23, 1, 0), 22, 3), ((2, 5, 37), 31, 1),
         ((2, 5, 37), 31, 2)],
        ids=["gf7-7-2", "gf7-7-3", "gf8-8-2", "gf8-8-3", "gf9-9-3", "gf9-9-4", "gf11-11-4",
             "gf13-12-3", "gf17-17-1-past-cap", "gf19-19-2-past-cap", "gf23-22-3-past-cap",
             "gf32-31-1-past-cap", "gf32-31-2-past-cap"],
    )
    def test_both_decryptors_return_the_brute_force_ball(self, field, n, k):
        """Ground truth for both decryptors: the candidate set of a word c
        is exactly the set of public codewords within t of c, found by
        trying all q^k plaintexts, and ``DecryptionFailure`` is raised
        exactly when that ball is empty.  Words: 20 uniform, 20 ``encrypt``
        outputs, and 20 codewords plus errors of weight 0..t.  The first
        eight points lie within the minors cap; the last five lie past it,
        where every shift's locator comes from ``linalg.batched_rref``."""
        f = GF(*field)
        pk, sk = scheme.keygen(f, n, k, np.random.default_rng(n * k + 1))
        assert (pk.t > grs._MINORS_MAX_T) == (f.q >= 17)
        rk = attack.RecoveredKey(sk.masked, sk.a, sk.lam, None)
        plain = np.array(list(itertools.product(range(f.q), repeat=k)), dtype=np.int64)
        public = la.matmul(f, plain, pk.g_pub)
        rng = np.random.default_rng(n + k)
        words = list(rng.integers(0, f.q, (20, n)))
        words += [scheme.encrypt(pk, rng.integers(0, f.q, k), rng) for _ in range(20)]
        words += [scheme.encrypt(pk, rng.integers(0, f.q, k),
                                 error=scheme.random_error(f, n, i % (pk.t + 1), rng))
                  for i in range(20)]
        for c in words:
            weights = np.count_nonzero(f.sub(c, public), axis=1)
            ball = {(int(w), tuple(m)) for w, m in zip(weights, plain.tolist()) if w <= pk.t}
            for route in (lambda: scheme.decrypt_candidates(sk, c),
                          lambda: attack.pair_candidates(rk, pk, c)):
                if not ball:
                    with pytest.raises(DecryptionFailure):
                        route()
                    continue
                assert {(w, tuple(m.tolist())) for w, m in route()} == ball

    @pytest.mark.parametrize("field,n,k", [((2, 4, 19), 15, 6), ((5, 2, 32), 16, 7)],
                             ids=["gf16-15-6", "gf25-16-7"])
    def test_blocks_shorter_than_the_minors_samples(self, monkeypatch, field, n, k):
        """Where 2^20 / ((t+1) n) is below the t+1 shifts the line's minors
        sample (as at GF(2^16) lengths past 2^20 / (t+1)^2), a block of the
        sweep still holds only that many words, as the minors are sampled
        before the blocks: with the bound shrunk to two words a block at
        these points, within the minors' cap, the sweep runs ceil(q/2)
        blocks, and both decryptors still return the candidate lists of
        the q-word sweep."""
        f = GF(*field)
        pk, sk = scheme.keygen(f, n, k, np.random.default_rng(n * k))
        assert 2 <= pk.t <= grs._MINORS_MAX_T
        monkeypatch.setattr(grs, "_SWEEP_BLOCK", 2 * (pk.t + 1) * n)
        blocks, decode = [], grs._decode

        def spy(p, syn, locator, heads):
            blocks.append(len(syn))
            return decode(p, syn, locator, heads)

        monkeypatch.setattr(grs, "_decode", spy)
        rk = attack.RecoveredKey(sk.masked, sk.a, sk.lam, None)
        rng = np.random.default_rng(n + k)
        words = [scheme.encrypt(pk, rng.integers(0, f.q, k), error=scheme.random_error(f, n, w, rng))
                 for w in range(pk.t + 1) for _ in range(3)]
        words += list(rng.integers(0, f.q, (6, n)))
        for c in words:
            for route, dec in (
                (lambda: scheme.decrypt_candidates(sk, c), sk.decryptor),
                (lambda: attack.pair_candidates(rk, pk, c), scheme._pair_decryptor(rk, pk)),
            ):
                want = q_word_candidates(pk, c, dec.code, dec.direction, dec.to_plain.matrix)
                blocks.clear()
                if not want:
                    with pytest.raises(DecryptionFailure):
                        route()
                else:
                    assert [(w, m.tolist()) for w, m in route()] == [(w, m.tolist()) for w, m in want]
                assert blocks == [2] * (f.q // 2) + [1] * (f.q % 2)

    def test_malformed_length(self, keypair16):
        f, pk, sk = keypair16
        with pytest.raises(Exception):
            scheme.decrypt(sk, np.zeros(14, dtype=np.int64))

    @pytest.mark.parametrize("bad", [-1, 16])
    def test_ciphertext_entries_outside_field_refused(self, keypair16, bad):
        """Both routes share ``Decryptor.candidates``, which refuses a
        ciphertext entry outside [0, 16)."""
        f, pk, sk = keypair16
        rk = attack.RecoveredKey(sk.masked, sk.a, sk.lam, None)
        c = scheme.encrypt(pk, np.arange(6, dtype=np.int64), np.random.default_rng(1))
        c[5] = bad
        with pytest.raises(FieldError, match=r"ciphertext has entries outside \[0, 16\)"):
            scheme.decrypt(sk, c)
        with pytest.raises(FieldError, match=r"ciphertext has entries outside \[0, 16\)"):
            attack.decrypt_with_pair(rk, pk, c)

    @pytest.mark.parametrize("kind", ["float", "string", "beyond-int64"])
    def test_non_integer_ciphertext_refused(self, keypair16, kind):
        """Both routes refuse a ciphertext that is not an integer array: a
        float one with a .5 entry used to be truncated, strings parsed, and
        2**70 raised OverflowError."""
        f, pk, sk = keypair16
        rk = attack.RecoveredKey(sk.masked, sk.a, sk.lam, None)
        c = scheme.encrypt(pk, np.arange(6, dtype=np.int64), np.random.default_rng(1)).tolist()
        if kind == "float":
            c = np.array(c, dtype=np.float64)
            c[5] += 0.5
        elif kind == "string":
            c = [str(x) for x in c]
        else:
            c[5] = 2**70
        for decrypt in (lambda: scheme.decrypt(sk, c), lambda: attack.decrypt_with_pair(rk, pk, c)):
            with pytest.raises(FieldError, match="ciphertext must hold integers"):
                decrypt()


class TestDecryptorLifetime:
    """The secret key's decryptor: built by its first decryption, reused by
    the later ones, and dropped with the key."""

    def test_keys_and_key_files_build_no_decryptor(self, gf16, monkeypatch, tmp_path):
        """keygen, ``build_keypair`` and the secret-key file reader build
        none, so key set-up never pays for one."""
        def refuse(*_):
            raise AssertionError("a decryptor was built outside decryption")

        monkeypatch.setattr(scheme, "Decryptor", refuse)
        pk, sk = scheme.keygen(gf16, 15, 6, np.random.default_rng(42))
        _, built = scheme.build_keypair(gf16, sk.grs.x, sk.grs.y, sk.s_mat, sk.perm, sk.alpha,
                                        sk.beta)
        fileio.save_secret_key(tmp_path / "sec", sk)
        _, read = fileio.load_secret_key(tmp_path / "sec")
        monkeypatch.undo()
        z = scheme.encrypt(pk, np.arange(6), np.random.default_rng(1))
        for key in (sk, built, read):
            assert "decryptor" not in vars(key)
            assert np.array_equal(scheme.decrypt(key, z), np.arange(6))

    def test_first_decryption_builds_it_and_later_ones_reuse_it(self, gf16, monkeypatch):
        built = []
        real = scheme.Decryptor

        def counted(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(scheme, "Decryptor", counted)
        pk, sk = scheme.keygen(gf16, 15, 6, np.random.default_rng(43))
        rng = np.random.default_rng(44)
        for _ in range(3):
            msg = rng.integers(0, 16, 6)
            assert np.array_equal(scheme.decrypt(sk, scheme.encrypt(pk, msg, rng)), msg)
            assert len(built) == 1 and sk.decryptor is built[0]

    def test_dropped_secret_keys_free_their_decryptors(self):
        """After 4 GF(1024) (60, 52) secret keys have decrypted and been
        dropped, less than 4 MiB stays allocated, as for the pair route's
        ``test_dropped_keys_free_their_tables``."""
        f = GF(2, 10, 1033)
        tracemalloc.start()
        try:
            for seed in range(4):
                rng = np.random.default_rng(seed)
                pk, sk = scheme.keygen(f, 60, 52, rng)
                msg = rng.integers(0, f.q, 52)
                assert np.array_equal(scheme.decrypt(sk, scheme.encrypt(pk, msg, rng)), msg)
                assert "decryptor" in vars(sk)
            del pk, sk
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 4 * 2**20
