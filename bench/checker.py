"""Arithmetic of its own for checking the program's outputs.

Nothing here uses ``grs_squarebreak``'s field tables or linear algebra: the
field is rebuilt from (p, m, poly) by schoolbook polynomial multiplication
and reduction, and row reduction is a plain Gaussian elimination over those
tables.  The checks take the program's outputs as bare integer arrays.
"""

from __future__ import annotations

import numpy as np


class Field:
    """GF(p^m) as add/sub/mul tables, elements integer-encoded as base-p
    digit vectors (constant term least significant), the same encoding as
    the key files use."""

    def __init__(self, p: int, m: int, poly: int):
        self.p, self.m, self.q = p, m, p**m
        mod = _digits(poly, p, m + 1) if m > 1 else [0, 1]
        digits = [_digits(v, p, m) for v in range(self.q)]
        self.add_t = np.array(
            [[_undigits([(x + y) % p for x, y in zip(a, b)], p) for b in digits] for a in digits]
        )
        self.sub_t = np.array(
            [[_undigits([(x - y) % p for x, y in zip(a, b)], p) for b in digits] for a in digits]
        )
        self.mul_t = np.array(
            [[_undigits(_schoolbook_mod(a, b, mod, p, m), p) for b in digits] for a in digits]
        )
        inv = np.zeros(self.q, dtype=np.int64)
        for a in range(1, self.q):
            hits = np.nonzero(self.mul_t[a] == 1)[0]
            if hits.size != 1:
                raise ValueError(f"poly={poly} does not give a field: {a} has {hits.size} inverses")
            inv[a] = hits[0]
        self.inv_t = inv
        self.minus_one = int(self.sub_t[0, 1])

    def dot(self, u, v) -> int:
        acc = 0
        for a, b in zip(u, v):
            acc = int(self.add_t[acc, self.mul_t[a, b]])
        return acc

    def vecmat(self, v, g: np.ndarray) -> np.ndarray:
        acc = np.zeros(g.shape[1], dtype=np.int64)
        for coef, row in zip(v, g):
            acc = self.add_t[acc, self.mul_t[coef, row]]
        return acc

    def rref(self, rows) -> np.ndarray:
        """Reduced row echelon form with zero rows dropped."""
        a = np.array(rows, dtype=np.int64).reshape(-1, np.shape(rows)[-1])
        r = 0
        for c in range(a.shape[1]):
            nz = [i for i in range(r, a.shape[0]) if a[i, c]]
            if not nz:
                continue
            a[[r, nz[0]]] = a[[nz[0], r]]
            a[r] = self.mul_t[self.inv_t[a[r, c]], a[r]]
            for i in range(a.shape[0]):
                if i != r and a[i, c]:
                    a[i] = self.sub_t[a[i], self.mul_t[a[i, c], a[r]]]
            r += 1
            if r == a.shape[0]:
                break
        return a[:r]

    def rank(self, rows) -> int:
        return self.rref(rows).shape[0]

    def grs_generator(self, x, y, k: int) -> np.ndarray:
        """Rows y * x^i for i < k."""
        rows = [np.asarray(y, dtype=np.int64)]
        for _ in range(k - 1):
            rows.append(self.mul_t[rows[-1], np.asarray(x, dtype=np.int64)])
        return np.stack(rows)

    def distance(self, c, msg, g_pub: np.ndarray) -> int:
        """Hamming distance from c to the codeword msg * g_pub."""
        return int(np.count_nonzero(np.asarray(c) != self.vecmat(msg, g_pub)))


def _digits(v: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(v % p)
        v //= p
    return out


def _undigits(ds, p: int) -> int:
    v = 0
    for d in reversed(ds):
        v = v * p + d
    return v


def _schoolbook_mod(a, b, mod, p: int, m: int) -> list[int]:
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    lead_inv = pow(mod[m], p - 2, p)
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i] * lead_inv % p
        if c:
            for j in range(m + 1):
                prod[i - m + j] = (prod[i - m + j] - c * mod[j]) % p
    return prod[:m]


# -- checks -------------------------------------------------------------------
# Each returns None when the output is right and a reason string otherwise.


def check_recovered_key(F: Field, g_pub, secret_x, secret_y, perm, k: int, x, y, a0, lam0):
    """The recovered GRS code equals the masked secret code C_sec Pi^-1,
    <a0, lam0> != -1, and p -> p + <lam0, p> a0 maps a basis of the
    recovered code onto a rank-k subset of the public code."""
    perm = np.asarray(perm, dtype=np.int64)
    masked = F.grs_generator(np.asarray(secret_x)[perm], np.asarray(secret_y)[perm], k)
    recovered = F.grs_generator(x, y, k)
    if not np.array_equal(F.rref(masked), F.rref(recovered)):
        return "recovered GRS code differs from the masked secret code"
    if F.dot(a0, lam0) == F.minus_one:
        return "<a0, lam0> = -1"
    images = np.stack([F.add_t[row, F.mul_t[F.dot(lam0, row), a0]] for row in recovered])
    if F.rank(images) != k:
        return "images of the recovered basis are not of rank k"
    if F.rank(np.vstack([g_pub, images])) != k:
        return "images of the recovered basis leave the public code"
    return None


def check_decryption(F: Field, g_pub, t: int, c, sent, got, other):
    """``got`` decrypts ``c`` within distance t, agrees with the other
    route's ``other``, and is the plaintext sent or a genuine tie: a
    different plaintext whose codeword is also at distance exactly t."""
    if not np.array_equal(got, other):
        return "the two decryption routes disagree"
    d = F.distance(c, got, g_pub)
    if d > t:
        return f"codeword at distance {d} > t={t}"
    if np.array_equal(got, sent):
        return None
    if d < t:
        return f"another plaintext at distance {d} < t={t} passed off as a tie"
    return None


def self_test(F: Field, g_pub, secret_x, secret_y, perm, k: int, a, lam, rng) -> None:
    """Show that the checks reject what they must, on a real key with its
    true masking pair.  Raises AssertionError naming the first check that
    let a wrong output through or refused a right one."""
    g_pub = np.asarray(g_pub, dtype=np.int64)
    n = g_pub.shape[1]
    t = (n - k) // 2
    x = np.asarray(secret_x)[np.asarray(perm)]
    y = np.asarray(secret_y)[np.asarray(perm)]
    good = (x, y, np.asarray(a), np.asarray(lam))
    _expect(check_recovered_key(F, g_pub, secret_x, secret_y, perm, k, *good) is None,
            "the true masking pair is refused")
    bad_y = y.copy()
    bad_y[0] = F.mul_t[bad_y[0], 2 if F.q > 2 else 1]
    bad_a = good[2].copy()
    bad_a[0] = F.add_t[bad_a[0], 1]
    for bad in ((x, bad_y, good[2], good[3]), (x, y, bad_a, good[3])):
        _expect(check_recovered_key(F, g_pub, secret_x, secret_y, perm, k, *bad) is not None,
                "a corrupted recovered key passes")

    def word(msg, weight):
        e = np.zeros(n, dtype=np.int64)
        e[rng.choice(n, weight, replace=False)] = rng.integers(1, F.q, weight)
        return F.add_t[F.vecmat(msg, g_pub), e]

    sent = rng.integers(0, F.q, k)
    other = (sent + 1) % F.q
    c = word(sent, t)
    _expect(check_decryption(F, g_pub, t, c, sent, sent, sent) is None,
            "the sent plaintext is refused")
    _expect(check_decryption(F, g_pub, t, c, sent, sent, other) is not None,
            "disagreeing routes pass")
    far = word(other, t + 1)
    _expect(check_decryption(F, g_pub, t, far, sent, other, other) is not None,
            "a plaintext farther than t passes")
    tie = word(other, t)
    _expect(check_decryption(F, g_pub, t, tie, sent, other, other) is None,
            "a genuine tie at distance t is refused")
    close = word(other, t - 1)
    _expect(check_decryption(F, g_pub, t, close, sent, other, other) is not None,
            "a codeword strictly closer than t passes as a tie")


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(f"checker self-test: {what}")
