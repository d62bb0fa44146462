"""Keygen invariants, encryption, and legitimate decryption."""

import itertools

import numpy as np
import pytest

from grs_squarebreak import attack, grs, linalg as la, scheme
from grs_squarebreak.codes import code_from_generator
from grs_squarebreak.gf import FieldError
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
        f, pk, sk = keypair16
        lhs = la.matmul(f, pk.g_pub, sk.q_mat)
        r1, _ = la.rref(f, lhs)
        r2, _ = la.rref(f, sk.g_sec)
        assert np.array_equal(r1, r2)

    def test_rank_one_mask(self, keypair16):
        f, pk, sk = keypair16
        r = f.mul(sk.alpha[:, None], sk.beta)
        assert la.rank(f, r) == 1
        assert np.array_equal(f.add(permutation(sk.perm), r), sk.q_mat)

    def test_mask_vectors_factor_r_pi_inverse(self, keypair16):
        f, pk, sk = keypair16
        pi_inv = la.inverse(f, permutation(sk.perm))
        lhs = la.matmul(f, f.mul(sk.alpha[:, None], sk.beta), pi_inv)
        assert np.array_equal(lhs, f.mul(sk.alpha[:, None], sk.a))

    def test_permutation_matrix(self, keypair16):
        """Q - alpha^T beta is Pi: unit row and column sums, full rank."""
        f, pk, sk = keypair16
        pi = f.sub(sk.q_mat, f.mul(sk.alpha[:, None], sk.beta))
        assert np.array_equal(pi, permutation(sk.perm))
        assert np.array_equal(pi.sum(axis=0), np.ones(sk.n))
        assert np.array_equal(pi.sum(axis=1), np.ones(sk.n))
        assert la.rank(f, pi) == sk.n

    def test_permutation_action(self, keypair16, rng):
        """(v Pi)[perm] = v for Pi = Q - alpha^T beta."""
        f, pk, sk = keypair16
        pi = f.sub(sk.q_mat, f.mul(sk.alpha[:, None], sk.beta))
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

    def test_malformed_length(self, keypair16):
        f, pk, sk = keypair16
        with pytest.raises(Exception):
            scheme.decrypt(sk, np.zeros(14, dtype=np.int64))

    @pytest.mark.parametrize("bad", [-1, 16])
    def test_ciphertext_entries_outside_field_refused(self, keypair16, bad):
        """Both routes share ``sweep_decrypt``, which refuses a ciphertext
        entry outside [0, 16)."""
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
