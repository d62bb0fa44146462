"""Small finite fields GF(p^m) with integer-encoded elements.

An element is an integer in [0, q) whose base-p digits are the coefficients
of its residue polynomial, constant term least significant (so 19 over GF(2)
encodes X^4 + X + 1).  All arithmetic methods accept plain ints or numpy
integer arrays and broadcast elementwise, which is what makes the linear
algebra on top of this module fast enough for the attack loops.

Fields are kept deliberately small (q <= 2^16): multiplication runs off
log/antilog tables built from a primitive element.  The tables are built on
base-p digit rows, where multiplication by a field element is an m x m
matrix over GF(p): the antilog table of a candidate g doubles in length by
one product with the matrix of g^L, which is then squared.  The modulus is
checked by dividing it by every monic polynomial of degree at most m/2 at
once.  Fields of at most 1024 elements multiply, and in odd characteristic
add and subtract, by one gather from a q x q table; odd extension fields
sum by a tree of pairwise adds.  Two operands of fewer than 512 elements
each, as in most of the decoders' calls, are looked up by a 2-D gather at
[a, b]; when either has 512 or more (the attack's stacks), by one ``take``
at a*q + b from the flattened table, which costs two more ufunc calls but
far less per element.  So operands must be field elements: a flat index
is checked only as a whole, and an operand outside [0, q) can read another
entry instead of raising.  Input from outside the library is range-checked
before it gets here, by ``as_elements`` or by the key-file reader.  Prime
fields (m = 1) take the same paths, with one digit: only their sums are
plain integer arithmetic mod p.

Each field is built once per process while it is in use: ``GF(p, m,
modulus)`` returns the instance already alive for that triple (modulus 0
when m = 1), held in a weak-valued dictionary, so a run that reads a key's
public, secret and recovered files builds its field once, not once per
file.  There is no size knob: an entry goes when the last user of its field
does, and the next call builds it again.  Validation and the build run only
on a miss, so a refused modulus raises on every call.  Since one instance
is shared by every caller, its tables are read-only numpy arrays, and
pickle and copy return the live instance.

Nothing here is constant-time or suitable for production cryptography.
"""

from __future__ import annotations

import operator
import weakref

import numpy as np


class FieldError(ValueError):
    """Base class for field problems: a field that cannot be built, or a
    value that is not one of its elements."""


class NonPrimeCharacteristic(FieldError):
    pass


class ReducibleModulus(FieldError):
    pass


class DegreeMismatch(FieldError):
    pass


_MAX_Q = 1 << 16
_MAX_M = 16  # 2^m > _MAX_Q beyond this
_FLAT_MIN = 512  # operand size from which table lookups take the flat path
_FIELDS = weakref.WeakValueDictionary()  # (p, m, modulus) -> the live GF


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class GF:
    """The finite field GF(p^m) defined by a monic irreducible modulus.

    For m == 1 the modulus argument is ignored.  Instances are interned:
    while one is alive, ``GF`` returns it for the same (p, m, modulus)
    instead of building the tables again, and the weak reference lets it go
    with its last user.  Because every caller shares the one instance, its
    log, antilog, inverse and q x q tables are read-only: a write through
    one caller would change every other caller's arithmetic.
    """

    def __new__(cls, p: int, m: int = 1, modulus: int = 0):
        # Plain ints, so that the first caller's argument types (numpy ints,
        # or floats equal to them) do not pass to every later caller.
        p, m, modulus = map(operator.index, (p, m, modulus))
        key = (p, m, modulus if m > 1 else 0)
        f = _FIELDS.get(key)
        if f is None:
            f = super().__new__(cls)
            f._build(p, m, modulus)
            _FIELDS[key] = f
        return f

    def _build(self, p: int, m: int, modulus: int) -> None:
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
        self.modulus = modulus if m > 1 else 0
        if m > 1 and not p**m <= modulus < 2 * p**m:
            raise DegreeMismatch(
                f"modulus {modulus} does not encode a monic degree-{m} polynomial"
            )
        # The digits of the modulus below X^m (m == 1 works mod X: low = 0).
        low = self.modulus // p ** np.arange(m) % p
        if m > 1:
            self._check_irreducible(np.append(low, 1))
        self._build_tables(low)

    def _check_irreducible(self, mod: np.ndarray) -> None:
        # A reducible polynomial has a factor of at most half its degree, so
        # divide by every monic polynomial of each degree d <= m/2 at once:
        # one row of digits, little-endian, per divisor.
        p, m = self.p, self.m
        for d in range(1, m // 2 + 1):
            div = np.arange(p**d, 2 * p**d)[:, None] // p ** np.arange(d + 1) % p
            rem = np.repeat(mod[None], p**d, axis=0)
            for i in range(m, d - 1, -1):
                rem[:, i - d : i + 1] = (rem[:, i - d : i + 1] - rem[:, i, None] * div) % p
            hit = ~rem.any(axis=1)
            if hit.any():
                raise ReducibleModulus(f"modulus is divisible by {p**d + hit.argmax()}")

    def _build_tables(self, low: np.ndarray) -> None:
        p, m, q = self.p, self.m, self.q
        pw = p ** np.arange(m)
        # Multiplication as m x m matrices on digit rows.  Times X shifts the
        # digits up and folds the top one through X^m = -low; row i of times g
        # holds the digits of X^i g.
        times_x = np.vstack([np.eye(m, dtype=np.int64)[1:], -low % p])
        # The generator is the smallest g >= 2 (1 in GF(2)) whose first q-1
        # powers hit 1 only once; when m > 1, the g < p lie in GF(p)*, whose
        # order p-1 is smaller, so the scan starts at p.
        for g in range(p if m > 1 else min(2, q - 1), q):
            step = [g // pw % p]
            for _ in range(1, m):
                step.append(step[-1] @ times_x % p)
            step = np.array(step)
            powers = np.eye(1, m, dtype=np.int64)  # the digits of g^0
            while len(powers) < q - 1:  # g^0..g^(L-1), then g^0..g^(2L-1)
                powers = np.concatenate([powers, powers @ step % p])
                step = step @ step % p
            exp = powers[: q - 1] @ pw
            if np.count_nonzero(exp == 1) == 1:
                break
        else:
            raise FieldError("no primitive element found")  # pragma: no cover
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self._exp = exp
        self._log = log
        inv = np.zeros(q, dtype=np.int64)
        inv[exp] = exp[-log[exp] % (q - 1)]
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
        for table in (exp, log, inv, self._mul_table, self._add_table, self._sub_table):
            if table is not None:
                table.flags.writeable = False

    # -- elementwise arithmetic ------------------------------------------

    def _lookup(self, table, a, b):
        # The flat index is formed in int64: a*q can overflow a narrower dtype.
        a = np.asarray(a)
        b = np.asarray(b)
        if a.size < _FLAT_MIN and b.size < _FLAT_MIN:
            return table[a, b]
        return table.take(np.multiply(a, self.q, dtype=np.int64) + b)

    def add(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self._add_table is not None:
            return self._lookup(self._add_table, a, b)
        return self._digitwise(a, b, lambda x, y: (x + y) % self.p)

    def sub(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self._sub_table is not None:
            return self._lookup(self._sub_table, a, b)
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
            return self._lookup(self._mul_table, a, b)
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

    # -- reductions -------------------------------------------------------

    def sum(self, arr, axis=-1):
        arr = np.asarray(arr)
        if self.p == 2:
            return np.bitwise_xor.reduce(arr, axis=axis)
        if self.m == 1:
            return arr.sum(axis=axis) % self.p
        # Pairwise halving: one add per level.
        arr = np.moveaxis(arr, axis, 0)
        if not len(arr):
            return np.zeros(arr.shape[1:], dtype=np.int64)
        while len(arr) > 1:
            h = len(arr) // 2
            head = self.add(arr[:h], arr[h : 2 * h])
            if len(arr) % 2:
                head[0] = self.add(head[0], arr[-1])
            arr = head
        return arr[0].copy()

    def elements(self) -> np.ndarray:
        """All q elements in increasing integer encoding, starting at 0."""
        return np.arange(self.q, dtype=np.int64)

    def as_elements(self, v, what: str) -> np.ndarray:
        """v as an int64 array, refused with FieldError unless it holds
        integers in [0, q): the check on caller-supplied vectors."""
        v = np.asarray(v)
        if not np.issubdtype(v.dtype, np.integer):
            raise FieldError(f"{what} must hold integers, got dtype {v.dtype}")
        if np.any((v < 0) | (v >= self.q)):
            raise FieldError(f"{what} has entries outside [0, {self.q})")
        return v.astype(np.int64, copy=False)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __reduce__(self):
        # pickle and copy hand back the live instance of the field.
        return GF, (self.p, self.m, self.modulus)

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.q}, poly={self.modulus})"
