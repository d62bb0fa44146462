"""Small finite fields GF(p^m) with integer-encoded elements.

An element is an integer in [0, q) whose base-p digits are the coefficients
of its residue polynomial, constant term least significant (so 19 over GF(2)
encodes X^4 + X + 1).  All arithmetic methods accept plain ints or numpy
integer arrays and broadcast elementwise, which is what makes the linear
algebra on top of this module fast enough for the attack loops.

Fields are kept deliberately small (q <= 2^16): multiplication runs off
log/antilog tables built from a primitive element.  Fields of at most 1024
elements multiply, and in odd characteristic add and subtract, by one gather
from a q x q table; odd extension fields of that size also sum by a tree of
add-table gathers.
Nothing here is constant-time or suitable for production cryptography.
"""

from __future__ import annotations

import numpy as np


class FieldError(ValueError):
    """Base class for field construction problems."""


class NonPrimeCharacteristic(FieldError):
    pass


class ReducibleModulus(FieldError):
    pass


class DegreeMismatch(FieldError):
    pass


_MAX_Q = 1 << 16
_MAX_M = 16  # 2^m > _MAX_Q beyond this


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _digits(v: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(v % p)
        v //= p
    return out


def _undigits(ds: list[int], p: int) -> int:
    v = 0
    for d in reversed(ds):
        v = v * p + d
    return v


def _poly_deg(ds: list[int]) -> int:
    for i in range(len(ds) - 1, -1, -1):
        if ds[i]:
            return i
    return -1


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b over GF(p), coefficient lists little-endian."""
    a = list(a)
    db = _poly_deg(b)
    lead_inv = pow(b[db], p - 2, p)
    for i in range(_poly_deg(a), db - 1, -1):
        if a[i] == 0:
            continue
        c = (a[i] * lead_inv) % p
        for j in range(db + 1):
            a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return a[:db] if db > 0 else [0]


def _raw_mul(a: int, b: int, p: int, m: int, mod_digits: list[int]) -> int:
    """Product of two field elements without tables (used to build them)."""
    da = _digits(a, p, m)
    db = _digits(b, p, m)
    conv = [0] * (2 * m - 1)
    for i, ai in enumerate(da):
        if ai == 0:
            continue
        for j, bj in enumerate(db):
            conv[i + j] = (conv[i + j] + ai * bj) % p
    return _undigits(_poly_mod(conv, mod_digits, p), p)


def _raw_pow(a: int, e: int, p: int, m: int, mod_digits: list[int]) -> int:
    r = 1
    while e:
        if e & 1:
            r = _raw_mul(r, a, p, m, mod_digits)
        a = _raw_mul(a, a, p, m, mod_digits)
        e >>= 1
    return r


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class GF:
    """The finite field GF(p^m) defined by a monic irreducible modulus.

    For m == 1 the modulus argument is ignored and arithmetic is plain
    integer arithmetic mod p.  Instances are immutable and safe to share.
    """

    def __init__(self, p: int, m: int = 1, modulus: int = 0):
        # Bounds first: trial division and p**m are unbounded on untrusted input.
        if p > _MAX_Q:
            raise FieldError(f"characteristic p={p} exceeds supported bound {_MAX_Q}")
        if not _is_prime(p):
            raise NonPrimeCharacteristic(f"p={p} is not prime")
        if m < 1:
            raise DegreeMismatch(f"extension degree m={m} must be >= 1")
        if m > _MAX_M:
            raise FieldError(f"extension degree m={m} exceeds supported bound {_MAX_M}")
        q = p**m
        if q > _MAX_Q:
            raise FieldError(f"field size {q} exceeds supported bound {_MAX_Q}")
        self.p = p
        self.m = m
        self.q = q
        if m == 1:
            self.modulus = 0
            self._mod_digits = None
        else:
            mod_digits = _digits(modulus, p, m + 1)
            if not 0 <= modulus < p ** (m + 1) or mod_digits[m] != 1:
                raise DegreeMismatch(
                    f"modulus {modulus} does not encode a monic degree-{m} polynomial"
                )
            self._check_irreducible(mod_digits)
            self.modulus = modulus
            self._mod_digits = mod_digits
        self._build_tables()

    def _check_irreducible(self, mod_digits: list[int]) -> None:
        # Trial division by every monic polynomial of degree <= m/2 suffices:
        # a reducible polynomial has a factor of at most half its degree.
        p, m = self.p, self.m
        for d in range(1, m // 2 + 1):
            for low in range(p**d):
                divisor = _digits(low, p, d) + [1]
                if _poly_deg(_poly_mod(mod_digits, divisor, p)) < 0:
                    raise ReducibleModulus(
                        f"modulus is divisible by {_undigits(divisor, p)}"
                    )

    def _build_tables(self) -> None:
        p, m, q = self.p, self.m, self.q
        mod = self._mod_digits if m > 1 else [0, 1]
        exp = np.zeros(max(q - 1, 1), dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        if q == 2:
            exp[0] = 1
        else:
            g = self._find_primitive(mod)
            v = 1
            for i in range(q - 1):
                exp[i] = v
                log[v] = i
                v = _raw_mul(v, g, p, m, mod) if m > 1 else (v * g) % p
        self._exp = exp
        self._log = log
        inv = np.zeros(q, dtype=np.int64)
        inv[exp] = exp[(-(log[exp])) % (q - 1)] if q > 2 else 1
        self._inv = inv
        elems = np.arange(q, dtype=np.int64)
        # One-gather arithmetic for small fields (xor needs no table): the
        # attack loops are dominated by it, so this is worth q^2 memory.
        self._mul_table = self._add_table = self._sub_table = None
        if q <= 1024:
            self._mul_table = self.mul(elems[:, None], elems[None, :])
            if p != 2:
                self._add_table = self.add(elems[:, None], elems[None, :])
                self._sub_table = self.sub(elems[:, None], elems[None, :])

    def _find_primitive(self, mod: list[int]) -> int:
        p, m, q = self.p, self.m, self.q
        checks = [(q - 1) // r for r in _prime_factors(q - 1)]
        for g in range(2, q):
            if all(_raw_pow(g, e, p, m, mod) != 1 for e in checks):
                return g
        raise FieldError("no primitive element found")  # pragma: no cover

    # -- elementwise arithmetic ------------------------------------------

    def add(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self._add_table is not None:
            return self._add_table[np.asarray(a), np.asarray(b)]
        if self.m == 1:
            return (np.asarray(a) + b) % self.p
        return self._digitwise(a, b, lambda x, y: (x + y) % self.p)

    def sub(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self._sub_table is not None:
            return self._sub_table[np.asarray(a), np.asarray(b)]
        if self.m == 1:
            return (np.asarray(a) - b) % self.p
        return self._digitwise(a, b, lambda x, y: (x - y) % self.p)

    def neg(self, a):
        if self.p == 2:
            return np.asarray(a)
        return self.sub(0, a)  # row 0 of the sub table when there is one

    def _digitwise(self, a, b, op):
        a = np.asarray(a)
        b = np.asarray(b)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        scale = 1
        for _ in range(self.m):
            out += op(a % self.p, b % self.p) * scale
            a = a // self.p
            b = b // self.p
            scale *= self.p
        return out

    def mul(self, a, b):
        if self._mul_table is not None:
            return self._mul_table[np.asarray(a), np.asarray(b)]
        if self.m == 1:
            return (np.asarray(a) * b) % self.p
        a = np.asarray(a)
        b = np.asarray(b)
        prod = self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, prod)

    def inv(self, a):
        a = np.asarray(a)
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._inv[a]

    def inv0(self, a):
        """Inverse with the inv0(0) = 0 convention (no zero check); for inner
        loops whose pivots are nonzero by construction."""
        return self._inv[np.asarray(a)]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        """a**e for a non-negative integer exponent, elementwise in a."""
        a = np.asarray(a)
        if e == 0:
            return np.ones_like(a)
        r = self._exp[(self._log[a] * (e % (self.q - 1))) % (self.q - 1)]
        return np.where(a == 0, 0, r)

    # -- reductions -------------------------------------------------------

    def sum(self, arr, axis=-1):
        arr = np.asarray(arr)
        if self.p == 2:
            return np.bitwise_xor.reduce(arr, axis=axis)
        if self.m == 1:
            return arr.sum(axis=axis) % self.p
        if self._add_table is not None:
            # Pairwise halving: one table gather per level.
            arr = np.moveaxis(arr, axis, 0)
            if not len(arr):
                return np.zeros(arr.shape[1:], dtype=np.int64)
            while len(arr) > 1:
                h = len(arr) // 2
                head = self._add_table[arr[:h], arr[h : 2 * h]]
                if len(arr) % 2:
                    head[0] = self._add_table[head[0], arr[-1]]
                arr = head
            return arr[0].copy()
        out = 0
        scale = 1
        for i in range(self.m):
            out = out + ((arr // scale) % self.p).sum(axis=axis) % self.p * scale
            scale *= self.p
        return out

    def dot(self, u, v) -> int:
        """Standard inner product of two vectors."""
        return int(self.sum(self.mul(u, v), axis=-1))

    def elements(self) -> np.ndarray:
        """All q elements in increasing integer encoding, starting at 0."""
        return np.arange(self.q, dtype=np.int64)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.q}, poly={self.modulus})"
