"""Generalized Reed-Solomon codes as evaluation codes.

A GRS code is determined by pairwise-distinct evaluation points x, nonzero
column multipliers y and a dimension k: its codewords are
(y_1 p(x_1), ..., y_n p(x_n)) for polynomials p of degree < k.

This module provides the generator matrix, bounded-distance decoding up to
floor((n-k)/2) errors (Berlekamp-Welch: a syndrome system for the error
locator alone, then the error values at its roots in closed form;
``decode_many`` decodes a whole stack of words in lockstep, as the
decryption sweep does for its q shifted words, and ``decode`` is its
one-word form), the dual-code multiplier formula, and two reconstruction
routines used by the attack.  A ``GrsParams`` is read-only and builds its
key-fixed tables (the generator, the parity checks, the locator power rows
and the interpolation matrix) once, on first use, so decoding many words
under one key pays for them once.

The reconstruction routines:

* ``ss_recover``: given only a code known to be GRS, find some describing
  pair (x, y) (Sidelnikov-Shestakov style, via cross-ratios of the
  systematic generator).  The pair is never unique; only code equality is
  promised.
* ``recover_multipliers``: given candidate points x and a subcode, solve the
  linear system for column multipliers y placing the subcode inside
  GRS_k(x, y).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .codes import LinearCode, code_from_generator, star_rows
from .gf import GF
from .linalg import DimensionMismatch


class InvalidParams(ValueError):
    pass


class NotGrs(ValueError):
    """Reconstruction failed verification: the input is not (provably) GRS."""


@dataclass(eq=False, frozen=True)
class GrsParams:
    field: GF
    x: np.ndarray  # n pairwise-distinct evaluation points
    y: np.ndarray  # n nonzero column multipliers
    k: int

    def __post_init__(self):
        x = linalg.frozen(self.x)
        y = linalg.frozen(self.y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        n = x.shape[0]
        if y.shape != (n,):
            raise InvalidParams("x and y must have the same length")
        if n > self.field.q:
            raise InvalidParams(f"length {n} exceeds field size {self.field.q}")
        if not (1 <= self.k < n):
            raise InvalidParams(f"need 1 <= k < n, got k={self.k}, n={n}")
        if np.unique(x).size != n:
            raise InvalidParams("evaluation points must be pairwise distinct")
        if np.any(y == 0):
            raise InvalidParams("column multipliers must be nonzero")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def t(self) -> int:
        """Unique-decoding radius floor((n-k)/2)."""
        return (self.n - self.k) // 2

    # Key-fixed tables, built on first use (decoding needs all four, the
    # attack and key generation only the generator).  Like x and y they are
    # read-only, so no caller can make them disagree with the code.

    @cached_property
    def generator(self) -> np.ndarray:
        """k x n matrix with row i equal to y * x^i (componentwise powers)."""
        return linalg.frozen(_rows(self.field, self.y, self.x, self.k))

    @cached_property
    def parity_checks_t(self) -> np.ndarray:
        """n x (n-k) transposed parity checks of RS_k(x, 1): column l is
        z * x^l, z_i = 1 / prod_{j != i} (x_i - x_j)."""
        return linalg.frozen(_parity_checks(self.field, self.x, self.n - self.k).T)

    @cached_property
    def locator_rows(self) -> np.ndarray:
        """(t+1) x n matrix with row j equal to x^j: monic @ it evaluates
        degree-t locators at the points."""
        return linalg.frozen(_rows(self.field, np.ones(self.n, dtype=np.int64), self.x, self.t + 1))

    @cached_property
    def interpolation(self) -> np.ndarray:
        """k x k inverse of the Vandermonde matrix x_j^i on the first k
        points: the first k values of a word of RS_k(x, 1) times it give the
        word's coefficients."""
        f, k = self.field, self.k
        vandermonde = _rows(f, np.ones(k, dtype=np.int64), self.x[:k], k)
        return linalg.frozen(linalg.inverse(f, vandermonde))

    def __eq__(self, other):
        return (
            isinstance(other, GrsParams)
            and self.field == other.field
            and self.k == other.k
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
        )

    def __repr__(self):
        return f"GrsParams(n={self.n}, k={self.k}, field={self.field!r})"


def random_params(f: GF, n: int, k: int, rng: np.random.Generator) -> GrsParams:
    """Uniform distinct points, then uniform nonzero multipliers, in that
    order of draws from rng."""
    x = rng.permutation(f.q)[:n].astype(np.int64)
    y = rng.integers(1, f.q, n, dtype=np.int64)
    return GrsParams(f, x, y, k)


def _rows(f: GF, first: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """m x n matrix with row j equal to first * x^j (componentwise powers)."""
    rows = [np.asarray(first, dtype=np.int64)]
    for _ in range(m - 1):
        rows.append(f.mul(rows[-1], x))
    return np.stack(rows)


def code(p: GrsParams) -> LinearCode:
    return code_from_generator(p.field, p.generator)


def encode(p: GrsParams, msg: np.ndarray) -> np.ndarray:
    """msg G; raises FieldError unless msg holds integers in [0, q)."""
    msg = p.field.as_elements(msg, "message")
    if msg.shape != (p.k,):
        raise DimensionMismatch(f"message length must be k={p.k}")
    return linalg.matmul(p.field, msg, p.generator)


def decode_many(p: GrsParams, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Berlekamp-Welch bounded-distance decoding in syndrome form, of a
    stack of received words at once.

    Returns (msgs, ok): ok[i] tells whether a codeword u G lies within
    Hamming distance t = floor((n-k)/2) of words[i] (it is then unique), and
    msgs[i] is its message u (length k), or zero.  With s = r / y, the monic
    degree-t error locators E are the solutions of the n-k-t parity checks
    z x^j of RS_{k+t}(x, 1) on s E(x): an (n-k-t) x (t+1) Hankel system in
    the n-k syndromes syn of s.  A codeword within t makes the system
    consistent and is what every solution E leads to.

    When E has t roots x_j among x, the error values follow in closed form,
    for all such words and roots at once: with Q_j = E / (X - x_j) (by
    synthetic division), e_j = (sum_{l<t} Q_{j,l} syn_l) / (z_j Q_j(x_j)).
    This e has the first t syndromes of s, and both sequences obey E's
    recurrence, so e has all n-k of them: s - e is a word of RS_k(x, 1)
    within t of s, and its first k values times ``p.interpolation`` give
    the message.  Q_j(x_j) is the product of the x_j - x_i, never zero, so
    no characteristic needs the formal derivative.

    An error of weight w < t leaves E = locator * M free in a monic M of
    degree t-w, so when the solution is unique the codeword's error has
    weight exactly t and E is its locator: an E with fewer than t roots
    means there is none.  Only a word whose system is consistent with rank
    below t and whose E has fewer than t roots is left; it takes an erasure
    solve off E's roots, at n-t >= k places or more, which finds the
    codeword if there is one.  The checks, the syndromes, the Hankel solves,
    the locator values and the error values are shared over the stack.  The
    parity checks, the locator power rows, the interpolation matrix and the
    generator are tables of ``p``, built on its first decode and reused by
    every later one.

    The words must hold field elements, integers in [0, q): they are not
    checked here, since the decryption sweep calls this on every
    ciphertext after checking it once (``decode`` checks its word).
    """
    f, k, n, t = p.field, p.k, p.n, p.t
    r = np.asarray(words, dtype=np.int64)
    if r.ndim != 2 or r.shape[1] != n:
        raise DimensionMismatch(f"received words must have length n={n}")
    s = f.div(r, p.y)
    syn = linalg.matmul(f, s, p.parity_checks_t)
    hankel = syn[:, np.arange(n - k - t)[:, None] + np.arange(t + 1)[None, :]]
    sol, consistent, rank = linalg.batched_solve_right(
        f, hankel[:, :, :t], f.neg(hankel[:, :, t])
    )
    monic = np.hstack([sol, np.ones((r.shape[0], 1), dtype=np.int64)])
    loc = linalg.matmul(f, monic, p.locator_rows)
    roots = np.count_nonzero(loc == 0, axis=1)
    msgs = np.zeros((r.shape[0], k), dtype=np.int64)
    ok = consistent & (roots == t)

    full = np.nonzero(ok)[0]
    e_loc, e_syn, word = monic[full], syn[full], s[full]
    pos = np.nonzero(loc[full] == 0)[1].reshape(full.size, t)  # the roots, row by row
    xj = p.x[pos]
    # Synthetic division E / (X - x_j) from the top coefficient down, with
    # Horner's rule for Q_j(x_j) and the sum over syn riding along.
    quot = at_root = num = np.zeros_like(xj)
    for l in range(t, 0, -1):
        quot = f.add(e_loc[:, l, None], f.mul(quot, xj))  # coefficient l-1 of Q_j
        at_root = f.add(f.mul(at_root, xj), quot)
        num = f.add(num, f.mul(quot, e_syn[:, l - 1, None]))
    rows = np.arange(full.size)[:, None]
    z = p.parity_checks_t[pos, 0]
    word[rows, pos] = f.sub(word[rows, pos], f.div(num, f.mul(at_root, z)))
    msgs[full] = linalg.matmul(f, word[:, :k], p.interpolation)

    g = p.generator
    for i in np.nonzero(consistent & (rank < t) & (roots < t))[0]:
        keep = loc[i] != 0
        msg = linalg.solve_right(f, g[:, keep].T, r[i, keep])
        if msg is not None:
            msgs[i], ok[i] = msg, True
    return msgs, ok


def decode(p: GrsParams, received: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Bounded-distance decoding of one word (see ``decode_many``).

    Returns (codeword, error) when some codeword lies within Hamming distance
    t of the received word, else None.  Raises FieldError unless the word
    holds integers in [0, q).
    """
    r = p.field.as_elements(received, "received word")
    msgs, ok = decode_many(p, r[None, :])
    if not ok[0]:
        return None
    cw = encode(p, msgs[0])
    return cw, p.field.sub(r, cw)


def _pairwise_products(f: GF, x: np.ndarray) -> np.ndarray:
    """v_i = prod_{j != i} (x_i - x_j)."""
    diffs = f.sub(x[:, None], x[None, :])
    np.fill_diagonal(diffs, 1)
    acc = diffs[:, 0]
    for col in diffs.T[1:]:
        acc = f.mul(acc, col)
    return acc


def _parity_checks(f: GF, x: np.ndarray, m: int) -> np.ndarray:
    """m x n matrix with row l equal to z * x^l, z_i = 1 / prod_{j != i}
    (x_i - x_j): a generator of the dual of RS_{n-m}(x, 1)."""
    return _rows(f, f.inv(_pairwise_products(f, x)), x, m)


def dual_params(p: GrsParams) -> GrsParams:
    """Describing pair of the dual code: GRS_k(x, y)^perp = GRS_{n-k}(x, z)
    with z_i = 1 / (y_i prod_{j != i} (x_i - x_j))."""
    f = p.field
    z = f.inv(f.mul(p.y, _pairwise_products(f, p.x)))
    return GrsParams(f, p.x.copy(), z, p.n - p.k)


def recover_multipliers(x: np.ndarray, k: int, sub: LinearCode) -> np.ndarray | None:
    """Column multipliers y (all nonzero) with sub a subcode of GRS_k(x, y).

    The reciprocals u_i = 1/y_i satisfy a linear system: for every generator
    row c of sub and every parity check h of the plain evaluation code on x,
    sum_i h_i c_i u_i = 0.  Returns None when the kernel of that system
    contains no everywhere-nonzero vector.
    """
    f = sub.field
    x = np.asarray(x, dtype=np.int64)
    n = x.shape[0]
    if sub.n != n or not (1 <= k < n) or sub.k > k or np.unique(x).size != n:
        raise InvalidParams("points, subcode and dimension are inconsistent")
    kernel = linalg.right_kernel(f, star_rows(f, sub.gen, _parity_checks(f, x, n - k)))
    if kernel.shape[0] == 0:
        return None
    for row in kernel:
        if not np.any(row == 0):
            return f.inv(row)
    if kernel.shape[0] > 1:
        mix = np.random.default_rng(0)  # deterministic local search
        for _ in range(256):
            u = linalg.matmul(f, mix.integers(0, f.q, kernel.shape[0]), kernel)
            if not np.any(u == 0):
                return f.inv(u)
    return None


def _grs_from_points(c: LinearCode, x: np.ndarray) -> GrsParams | None:
    """Finish a reconstruction: solve multipliers for given points, verify."""
    y = recover_multipliers(x, c.k, c)
    if y is None:
        return None
    params = GrsParams(c.field, x, y, c.k)
    if code(params) == c:
        return params
    return None


def _recover_via_ratios(c: LinearCode) -> GrsParams | None:
    """Core point recovery for 2 <= k <= n-2.

    In systematic form [I | A] w.r.t. the pivot columns, every entry of A is
    nonzero for a genuine GRS code and row ratios A[0,j]/A[i,j] are Moebius
    images of the unknown points.  Pinning the first two information points
    to 0 and 1 and one redundancy point to a trial value v makes all other
    points solvable from cross-ratios; a bad v (one that pushes a point to
    infinity) shows up as a division by zero or a collision and is skipped.
    For a GRS code with n <= q some v passes: the projective line has a
    point off the support, and some v in 2..q-1 sends it to infinity.
    """
    f, n, k, piv = c.field, c.n, c.k, c.pivots
    rest = [j for j in range(n) if j not in piv]
    a = c.gen[:, rest]
    if np.any(a == 0):
        return None
    u = f.div(a[0], a[1])
    w = f.div(u, u[0])
    va = f.div(a[0][None, :], a)  # va[i, j] = A[0,j] / A[i,j]
    for v in range(2, f.q):
        d = f.div(v, f.sub(v, 1))
        s = f.div(w, d)
        if np.any(s == 1):
            continue
        xr = f.inv(f.sub(1, s))  # points of the redundancy columns; xr[0] == v
        x = np.empty(n, dtype=np.int64)
        x[piv[0]] = 0
        x[piv[1]] = 1
        x[rest] = xr
        if k >= 3:
            ratio = f.div(va[2:, 0], va[2:, 1])
            rho = f.mul(ratio, f.div(xr[0], xr[1]))
            if np.any(rho == 1):
                continue
            xi = f.div(f.sub(f.mul(rho, xr[1]), xr[0]), f.sub(rho, 1))
            x[np.asarray(piv[2:], dtype=np.int64)] = xi
        if np.unique(x).size != n:
            continue
        params = _grs_from_points(c, x)
        if params is not None:
            return params
    return None


def ss_recover(c: LinearCode) -> GrsParams:
    """Some describing pair (x, y) of a GRS code given only the code.

    Raises NotGrs when no consistent pair survives verification (callers use
    this as the signal that an attack guess was wrong).  The output is one
    representative of the Moebius orbit of valid pairs, pinned at x[info_0]=0,
    x[info_1]=1.
    """
    f, n, k = c.field, c.n, c.k
    if n > f.q or k >= n:
        raise NotGrs(f"no GRS code with k={k}, n={n} over {f!r}")
    if k == 1:
        row = c.gen[0]
        if np.any(row == 0):
            raise NotGrs("a 1-dimensional GRS code has full support")
        return GrsParams(f, f.elements()[:n], row.copy(), 1)
    if k == n - 1:
        # The dual is 1-dimensional: describe it as GRS_1 and dualize back.
        h = linalg.right_kernel(f, c.gen)[0]
        if np.any(h == 0):
            raise NotGrs("dual generator has zero coordinates")
        params = dual_params(GrsParams(f, f.elements()[:n], h, 1))
        if code(params) == c:
            return params
        raise NotGrs("dual-route reconstruction failed verification")
    params = _recover_via_ratios(c)
    if params is None:
        raise NotGrs("cross-ratio reconstruction failed verification")
    return params
