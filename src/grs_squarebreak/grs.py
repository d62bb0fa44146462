"""Generalized Reed-Solomon codes as evaluation codes.

A GRS code is determined by pairwise-distinct evaluation points x, nonzero
column multipliers y and a dimension k: its codewords are
(y_1 p(x_1), ..., y_n p(x_n)) for polynomials p of degree < k.

This module provides the generator matrix, bounded-distance decoding up to
floor((n-k)/2) errors (Berlekamp-Welch: the least-degree error locator E
from a syndrome system, the error values e_j = W(x_j) / (z_j E'(x_j)),
with E'(x_j) != 0 in any characteristic as E's roots are distinct, and a
syndrome check; ``decode_many`` decodes a stack of words in lockstep, as
the decryption sweep does for its q shifted words, ``decode`` one word),
the dual-code multiplier formula, and two reconstruction routines used by
the attack.  A ``GrsParams`` is read-only and builds its key-fixed tables
(the generator, the dual's generator as parity checks, the locator power
rows, the interpolation matrix, the Hankel index of the locator system and
the 0/1 matrix that forms W) once, on first use, for every decode.  Its
power rows and the dual's multipliers are a fixed number of array steps on
the field's log/antilog tables (``GF.pow``, ``GF.prod``).

The reconstruction routines:

* ``ss_recover``: given only a code known to be GRS, find some describing
  pair (x, y) (Sidelnikov-Shestakov style, via cross-ratios of the
  systematic generator).  The pair is never unique; only code equality is
  promised.
* ``recover_multipliers``: given candidate points x and a subcode, read
  column multipliers y placing the subcode inside GRS_k(x, y) off the RREF
  of the subcode plus x times it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .codes import LinearCode, code_from_generator
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

    # Key-fixed tables, built on first use (``decode_many`` reads all six,
    # ``decode`` and the attack and key generation only the generator).  Like
    # x and y they are read-only, so no caller can make them disagree with
    # the code.

    @cached_property
    def generator(self) -> np.ndarray:
        """k x n matrix with row i equal to y * x^i (componentwise powers)."""
        return linalg.frozen(_rows(self.field, self.y, self.x, self.k))

    @cached_property
    def parity_checks_t(self) -> np.ndarray:
        """n x (n-k) transposed parity checks: the dual code's generator,
        column l equal to z * x^l (see ``dual_params``)."""
        return linalg.frozen(dual_params(self).generator.T)

    @cached_property
    def locator_rows(self) -> np.ndarray:
        """(t+1) x n matrix with row j equal to x^j: monic @ it evaluates
        degree-t locators at the points."""
        return linalg.frozen(_rows(self.field, np.ones(self.n, dtype=np.int64), self.x, self.t + 1))

    @cached_property
    def hankel_index(self) -> np.ndarray:
        """(n-k-t) x (t+1) matrix with entry (j, l) equal to j + l: the n-k
        syndromes taken at it form the locator system."""
        return linalg.frozen(np.arange(self.n - self.k - self.t)[:, None] + np.arange(self.t + 1))

    @cached_property
    def w_select(self) -> np.ndarray:
        """(t+1) t x t 0/1 matrix: the products E_i syn_l, flattened to row
        i t + l, times it give W_p = sum_l E_{l+p+1} syn_l."""
        t = self.t
        select = np.arange(t + 1)[:, None, None] == np.add.outer(np.arange(t), np.arange(1, t + 1))
        return linalg.frozen(select.reshape((t + 1) * t, t))

    @cached_property
    def interpolation(self) -> np.ndarray:
        """k x k inverse of the generator on the first k points: a
        codeword's first k values times it give the codeword's message."""
        return linalg.frozen(linalg.inverse(self.field, self.generator[:, : self.k]))

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
    return f.mul(first, f.pow(x, np.arange(m)[:, None]))


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
    msgs[i] is its message u (length k), or zero.  A word r is decoded in
    its own coordinates: the error locators E of degree at most t solve the
    first n-k-t rows z x^j of the dual's generator, the parity checks of
    GRS_{k+t}(x, y), on r E(x), an (n-k-t) x (t+1) Hankel system in the n-k
    syndromes syn of r.  Each word takes its least degree monic solution E:
    after one RREF on the system's first t columns, E has a 1 at the first
    column d without a pivot (or at t) and minus RREF column d at the pivots
    before it.  If a codeword lies within t, with error e, every solution
    vanishes on e's support (e E lies in GRS_{k+t}(x, y) and has weight at
    most t < n-k-t+1), so E is e's locator, with d roots.

    For every word whose E has d roots x_j, the error values follow in
    closed form, e_j = W(x_j) / (z_j E'(x_j)) with W_p = sum_l E_{l+p+1}
    syn_l and E'_p = (p+1) E_{p+1}, the formal derivative: for Q_j =
    E / (X - x_j) they are sum_{l<t} Q_{j,l} syn_l and Q_j(x_j).  E has d
    distinct roots, so E'(x_j), the product of the x_j - x_i over the
    others, is never zero, even where some (p+1) E_{p+1} vanishes mod p.
    The word is accepted only when e has all n-k syndromes of r; that
    rejects every word with no codeword within t, whatever its E.  Then
    r - e is a codeword, and its first k values times ``p.interpolation``
    give the message.  Every step is one operation over the whole stack, on
    tables of ``p`` built on its first decode.

    The words must hold field elements, integers in [0, q): they are not
    checked here, since the decryption sweep calls this on every
    ciphertext after checking it once (``decode`` checks its word).
    """
    f, k, n, t = p.field, p.k, p.n, p.t
    r = np.asarray(words, dtype=np.int64)
    if r.ndim != 2 or r.shape[1] != n:
        raise DimensionMismatch(f"received words must have length n={n}")
    syn = linalg.matmul(f, r, p.parity_checks_t)
    hankel = syn[:, p.hankel_index]
    table = linalg.batched_rref(f, hankel, t)
    # d: the first zero row of the table, where its diagonal (1 at a pivot)
    # first reads 0, or t.  E is minus column d of the table (zero at the
    # pivots past d) with a 1 at d.
    d = np.logical_and.accumulate(np.diagonal(table, axis1=1, axis2=2), axis=1).sum(axis=1)
    every = np.arange(r.shape[0])
    monic = np.zeros((r.shape[0], t + 1), dtype=np.int64)
    monic[:, :t] = f.neg(table[every, :, d])
    monic[every, d] = 1
    root = linalg.matmul(f, monic, p.locator_rows) == 0
    keep = np.nonzero(np.count_nonzero(root, axis=1) == d)[0]

    # W from the products E_i syn_l by a 0/1 matrix, then W and E' at every point.
    terms = f.mul(monic[keep, :, None], syn[keep, None, :t]).reshape(keep.size, (t + 1) * t)
    coef_w = linalg.matmul(f, terms, p.w_select)
    coef_d = f.mul(np.arange(1, t + 1) % f.p, monic[keep, 1:])
    vals = linalg.matmul(f, np.concatenate([coef_w, coef_d]), p.locator_rows[:t])
    at_w, at_d = vals[: keep.size], vals[keep.size :]
    err = np.where(root[keep], f.mul(at_w, f.inv0(f.mul(at_d, p.parity_checks_t[:, 0]))), 0)
    good = np.all(linalg.matmul(f, err, p.parity_checks_t) == syn[keep], axis=1)
    keep = keep[good]
    msgs = np.zeros((r.shape[0], k), dtype=np.int64)
    msgs[keep] = linalg.matmul(f, f.sub(r[keep, :k], err[good, :k]), p.interpolation)
    ok = np.zeros(r.shape[0], dtype=bool)
    ok[keep] = True
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


def _pairwise_products(f: GF, x: np.ndarray, among: np.ndarray) -> np.ndarray:
    """v_j = prod (x_j - x_i) over the indices i != j in among."""
    diffs = f.sub(x[:, None], x[among][None, :])
    diffs[among, np.arange(among.size)] = 1
    return f.prod(diffs, axis=1)


def dual_params(p: GrsParams) -> GrsParams:
    """Describing pair of the dual code: GRS_k(x, y)^perp = GRS_{n-k}(x, z)
    with z_i = 1 / (y_i prod_{j != i} (x_i - x_j))."""
    f = p.field
    z = f.inv(f.mul(p.y, _pairwise_products(f, p.x, np.arange(p.n))))
    return GrsParams(f, p.x.copy(), z, p.n - p.k)


def recover_multipliers(x: np.ndarray, k: int, sub: LinearCode) -> np.ndarray | None:
    """Column multipliers y, all nonzero and scaled to y[n-1] = 1, with sub a
    subcode of GRS_k(x, y); None when there are none.

    y is read off one echelon form c.  When sub.k == k, c is sub.  Otherwise
    c = sub + x * sub: for sub = y V with V a hyperplane of the polynomials
    of degree < k it is GRS_{k+1}(x, y), and for V = h P_{<k-1} it is
    GRS_k(x, y h), which still contains sub.  Row i of the RREF [I | A] of
    GRS_m(x, y) is y L_i(x) / y[P_i], with L_i the Lagrange basis on the
    pivot points P.  So row 0 gives y / y[P_0] on the free columns, and one
    free column r gives y[P_i] = y[r] L_i(x_r) / A[i, r].  The y so read is
    returned only if sub meets every parity check of GRS_k(x, y).
    """
    f = sub.field
    x = np.asarray(x, dtype=np.int64)
    n = x.shape[0]
    if sub.n != n or not (1 <= k < n) or sub.k > k or np.unique(x).size != n:
        raise InvalidParams("points, subcode and dimension are inconsistent")
    c = sub if sub.k == k else code_from_generator(f, np.vstack([sub.gen, f.mul(sub.gen, x)]))
    piv = np.asarray(c.pivots)
    free = np.setdiff1d(np.arange(n), piv)
    if free.size == 0 or not (c.gen[0, free].all() and c.gen[:, free[0]].all()):
        return None
    # ell[j] is prod_i (x_j - x_{P_i}) at a free j and prod_{l != i}
    # (x_{P_i} - x_{P_l}) at P_i, so L_i(x_j) = ell[j] / ((x_j - x_{P_i}) ell[P_i]).
    ell = _pairwise_products(f, x, piv)
    r = free[0]
    y = np.empty(n, dtype=np.int64)
    y[free] = f.div(f.mul(c.gen[0, free], f.mul(f.sub(x[free], x[piv[0]]), ell[piv[0]])), ell[free])
    y[piv] = f.div(f.mul(y[r], ell[r]), f.mul(c.gen[:, r], f.mul(f.sub(x[r], x[piv]), ell[piv])))
    y = f.div(y, y[n - 1])
    return None if linalg.matmul(f, sub.gen, GrsParams(f, x, y, k).parity_checks_t).any() else y


def _cross_ratio_points(c: LinearCode):
    """Candidate points x of a code with 2 <= k <= n-2.

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
        return
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
        if np.unique(x).size == n:
            yield x


def ss_recover(c: LinearCode) -> GrsParams:
    """Some describing pair (x, y) of a GRS code given only the code.

    For k = 1 and k = n-1 any n distinct points describe a GRS code, and
    otherwise its cross-ratios give candidates.  ``recover_multipliers``
    reads y for each and keeps it only if c lies in GRS_k(x, y), which with
    equal dimensions means equality.  Raises NotGrs when no candidate passes
    (callers use this as the signal that an attack guess was wrong).  The
    pair is never unique; for 2 <= k <= n-2 it is pinned at x[info_0]=0,
    x[info_1]=1.
    """
    f, n, k = c.field, c.n, c.k
    if n > f.q or k >= n:
        raise NotGrs(f"no GRS code with k={k}, n={n} over {f!r}")
    for x in [f.elements()[:n]] if k in (1, n - 1) else _cross_ratio_points(c):
        y = recover_multipliers(x, k, c)
        if y is not None:
            return GrsParams(f, x, y, k)
    raise NotGrs("no candidate points describe the code")
