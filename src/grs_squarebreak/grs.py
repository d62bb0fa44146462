"""Generalized Reed-Solomon codes as evaluation codes.

A GRS code is determined by pairwise-distinct evaluation points x, nonzero
column multipliers y and a dimension k: its codewords are
(y_1 p(x_1), ..., y_n p(x_n)) for polynomials p of degree < k.

This module provides the generator matrix, bounded-distance decoding up to
floor((n-k)/2) errors (Berlekamp-Welch: an error locator E from a syndrome
system, the error values e_j = W(x_j) / (z_j E'(x_j)), with E'(x_j) != 0
in any characteristic as E's roots are distinct, and a syndrome check;
``decode_many`` decodes a stack of words in lockstep, each E the least
degree locator from one elimination, ``decode`` one word, and
``decode_line`` the decryption sweep's q words c - s d, whose syndromes
and locator minors it takes along the line in s: E is a multiple of the
locator from the maximal minors at the shifts 0..t, sampled once before
the sweep's memory-bounded blocks, or the elimination's where they vanish
or t is past a cap), the dual-code multiplier formula, and two
reconstruction routines used by the attack.  A ``GrsParams`` is read-only
and builds its key-fixed tables (the generator, the dual's generator as
parity checks, the Hankel index of the locator system, and the matrices
the decoder multiplies by: the parity checks, the locator power rows,
through which it evaluates E, W and E' alike, the interpolation matrix
and the Lagrange matrix of the shift line, each a ``linalg.Fixed``) once,
on first use; only a decode builds the decoder's matrices.  Its power
rows and the dual's multipliers are a fixed number of array steps on the
field's log/antilog tables (``GF.pow``, ``GF.prod``).

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

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .codes import LinearCode, code_from_generator
from .gf import GF
from .linalg import DimensionMismatch


# Largest t whose locators come from maximal minors (``_line_minors``): on
# the shift line their cost does not grow with q, the elimination's does,
# and they were faster at every t <= 7 measured, but tied or lost at t = 8
# and 9 for some q <= 64 (the crossover table is in CHANGES.md).
_MINORS_MAX_T = 7

# Entries, at most, in a block of ``decode_line``'s words (their Hankel
# stack has (t+1) n entries per word or fewer).
_SWEEP_BLOCK = 1 << 20


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
        x, y, k = np.asarray(self.x), np.asarray(self.y), operator.index(self.k)
        if x.ndim != 1 or y.shape != x.shape:
            raise InvalidParams(f"x and y must be vectors of the same length, got shapes {x.shape} "
                                f"and {y.shape}")
        n = len(x)
        why = dimension_error(self.field, n, k)
        if why:
            raise InvalidParams(why)
        object.__setattr__(self, "k", k)
        x = linalg.frozen(self.field.as_elements(x, "evaluation points"))
        y = linalg.frozen(self.field.as_elements(y, "column multipliers"))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
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

    # Key-fixed tables, built on first use (a decode reads them all, key
    # generation and the attack only the generator and the parity checks).
    # Like x and y they are read-only, so no caller can make them disagree
    # with the code.  The matrices the decoder multiplies by are
    # ``linalg.Fixed``: each builds its table of multiples when it is made,
    # on the first decode, so key generation, key files and the attack's
    # many short-lived codes never pay for one.  The locator rows are the
    # one table the decoder evaluates polynomials at the points by.

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
    def _syndromes(self) -> linalg.Fixed:
        """``parity_checks_t``, for the decoder: words @ it are their n-k
        syndromes."""
        return linalg.Fixed(self.field, self.parity_checks_t)

    @cached_property
    def locator_rows(self) -> linalg.Fixed:
        """(t+1) x n matrix with row j equal to x^j: a locator's
        coefficients @ it evaluate it at the points."""
        return linalg.Fixed(self.field, _rows(self.field, np.ones(self.n, dtype=np.int64), self.x,
                                              self.t + 1))

    @cached_property
    def hankel_index(self) -> np.ndarray:
        """(n-k-t) x (t+1) matrix with entry (j, l) equal to j + l: the n-k
        syndromes taken at it form the locator system."""
        return linalg.frozen(np.arange(self.n - self.k - self.t)[:, None] + np.arange(self.t + 1))

    @cached_property
    def interpolation(self) -> linalg.Fixed:
        """k x k inverse of the generator on the first k points: a
        codeword's first k values times it give the codeword's message."""
        return linalg.Fixed(self.field, linalg.inverse(self.field, self.generator[:, : self.k]))

    @cached_property
    def _lagrange(self) -> linalg.Fixed:
        """The (t+1) x q Lagrange matrix L of the nodes 0..t: for
        polynomials of degree at most t given by their values v at the
        nodes, v L holds their values at every element.  With V the
        (t+1) x (t+1) matrix of the nodes' powers (row j holds u^j) and P
        that of every element's, the coefficients are v V^-1, so L =
        V^-1 P."""
        f, t = self.field, self.t
        power = _rows(f, np.ones(f.q, dtype=np.int64), f.elements(), t + 1)
        return linalg.Fixed(f, linalg.matmul(f, linalg.inverse(f, power[:, : t + 1]), power))

    def __eq__(self, other):
        return (
            isinstance(other, GrsParams)
            and self.field is other.field
            and self.k == other.k
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
        )

    def __repr__(self):
        return f"GrsParams(n={self.n}, k={self.k}, field={self.field!r})"


def dimension_error(f: GF, n: int, k: int) -> str | None:
    """Why no GRS code, and so no key, has length n and dimension k over f
    (the rule 1 <= k < n <= q), or None when one can."""
    return None if 1 <= k < n <= f.q else f"dimensions n={n} k={k} need 1 <= k < n <= q={f.q}"


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
    syndromes syn of r.  If a codeword lies within t, with error e, every
    solution vanishes on e's support (e E lies in GRS_{k+t}(x, y) and has
    weight at most t < n-k-t+1), and e's locator is one.

    Each word's E is its least degree monic solution: after one
    ``linalg.batched_rref`` of the stack of the words' systems, on their
    first t columns, E has a 1 at the first column d without a pivot (or at
    t) and minus RREF column d at the pivots before it, and e's weight is d.
    (``decode_line`` takes most of its locators from maximal minors
    instead; see ``_line_minors``.)

    For every word whose E has d roots x_j, the error values follow in
    closed form, e_j = W(x_j) / (z_j E'(x_j)) with W_p = sum_l E_{l+p+1}
    syn_l and E'_p = (p+1) E_{p+1}, the formal derivative: for Q_j =
    E / (X - x_j) they are sum_{l<t} Q_{j,l} syn_l and Q_j(x_j).  E has d
    distinct roots, so E'(x_j), the product of the x_j - x_i over the
    others, is never zero, even where some (p+1) E_{p+1} vanishes mod p.
    W and E' have degree below t: their coefficients are formed for the
    kept words only, W's by one gather of E at the Hankel index, and one
    product by ``p.locator_rows``, the powers the root test reads, gives
    both at every point.  The word is accepted only when e has all n-k
    syndromes of r; that rejects every word with no codeword within t,
    whatever its E.  Then r - e is a codeword, and its first k values
    times ``p.interpolation`` give the message.  Every step is one
    operation over the whole stack.  The products by key tables are
    ``linalg.Fixed`` products, off tables of multiples built on ``p``'s
    first decode where they fit linalg's bound.

    The words must hold field elements, integers in [0, q): they are not
    checked here (``decode`` checks its word, and the decryption sweep its
    ciphertext before ``decode_line``).
    """
    n, t = p.n, p.t
    r = np.asarray(words, dtype=np.int64)
    if r.ndim != 2 or r.shape[1] != n:
        raise DimensionMismatch(f"received words must have length n={n}")
    syn = p._syndromes.product(r)
    keep, found = _decode(p, syn, np.zeros((len(r), t + 1), dtype=np.int64), lambda i: r[i, : p.k])
    msgs = np.zeros((len(r), p.k), dtype=np.int64)
    msgs[keep] = found
    ok = np.zeros(len(r), dtype=bool)
    ok[keep] = True
    return msgs, ok


def decode_line(p: GrsParams, c: np.ndarray, d: np.ndarray, syn_d: np.ndarray) -> np.ndarray:
    """The messages of the words c - s d, for s in GF(q) in increasing
    order, that lie within t of the code (see ``decode_many``): the
    decryption sweep's q shifted words, decoded as one line.

    The syndromes are affine in s, syn(c) - s syn(d), from one product of
    c with the parity checks and from syn_d, d's n-k syndromes, which the
    caller keeps with d.  They are formed once, block by block, and each
    shift's locator comes from the maximal minors along the line
    (``_line_minors``, sampled at the shifts 0..t before the sweep), or
    from the elimination.  The words go through ``_decode`` in blocks of at
    most 2^20 / ((t+1) n) words (at least one), which bounds the memory
    whatever q is, and c - s d is formed only at the shifts it accepts.
    c and d must hold field elements (unchecked, as for ``decode_many``).
    """
    f, k, t = p.field, p.k, p.t
    syn_c = p._syndromes.product(c[None])[0]
    shifts = f.elements()
    minors = _line_minors(p, f.sub(syn_c, f.mul(shifts[: t + 1, None], syn_d)))
    block = max(1, _SWEEP_BLOCK // ((t + 1) * p.n))
    found = []
    for start in range(0, f.q, block):
        s = shifts[start : start + block]
        syn = f.sub(syn_c, f.mul(s[:, None], syn_d))
        if minors is None:
            locator = np.zeros((len(s), t + 1), dtype=np.int64)
        else:
            locator = minors[:, start : start + block].T.copy()
        found.append(_decode(p, syn, locator, lambda i: f.sub(c[:k], f.mul(s[i, None], d[:k])))[1])
    return np.concatenate(found)


def _line_minors(p: GrsParams, samples: np.ndarray) -> np.ndarray | None:
    """(t+1) x q matrix whose column s holds the signed maximal minors of
    the first t rows of the Hankel system of the syndromes syn_c - s syn_d,
    which those rows annihilate, from samples, that line's syndromes at
    the t+1 shifts 0..t; None when t exceeds ``_MINORS_MAX_T``, where the
    Laplace expansion's (t+1) 2^t products per system cost more than the
    elimination, which every shift then takes.

    When the word at s has an error e of weight t, those rows are V^T D U
    with V the invertible t x t Vandermonde matrix of e's points, D the
    nonzero e_j z_j and U their powers 0..t, so they have rank t and the
    minors are a nonzero multiple of e's locator, of degree t; the scale
    cancels from the error values, so they need no monic step.  A shift
    whose minors all vanish (e of weight below t, or no codeword within t
    and rank below t) takes its least degree locator in ``_decode``.  Each
    row is affine in s, so each minor is a polynomial in s of degree at
    most t: ``linalg.batched_minors`` expands them at the t+1 sample shifts
    only, and one product with the key's Lagrange matrix
    (``GrsParams._lagrange``) gives them at every s.
    """
    f, t = p.field, p.t
    if t > _MINORS_MAX_T:
        return None
    return p._lagrange.product(linalg.batched_minors(f, samples[:, p.hankel_index[:t]]).T)


def _decode(p: GrsParams, syn: np.ndarray, locator: np.ndarray,
            heads) -> tuple[np.ndarray, np.ndarray]:
    """The decoder body shared by ``decode_many`` and ``decode_line``, on a
    stack of words given by their syndromes and their locators (a zero row
    where a word takes its least degree locator instead; the rows are
    overwritten).  heads(i) gives the first k values of the words at the
    indices i.  Returns (keep, msgs): the indices of the words within t,
    increasing, and their messages."""
    f, k, t = p.field, p.k, p.t
    degree = t
    rest = (~locator.any(axis=1)).nonzero()[0]
    if rest.size:
        degree = np.full(len(syn), t)
        locator[rest], degree[rest] = _least_locator(f, syn[rest][:, p.hankel_index], t)
    root = p.locator_rows.product(locator) == 0
    keep = (root.sum(axis=1) == degree).nonzero()[0]

    # W and E' of the kept words, t+1 coefficients each (the last zero), at
    # every point by one product.  tail holds E_1..E_t and t+1 zeros; the
    # Hankel index's first t rows, transposed, gather E_{p+l+1} from it at
    # (p, l), so W_p = sum_l E_{p+l+1} syn_l, and E'_p = (p+1) E_{p+1}.
    # z, the parity checks' column 0, scales E' at the points.
    m, syn = keep.size, syn[keep]
    tail = np.zeros((m, 2 * t + 1), dtype=np.int64)
    tail[:, :t] = locator[keep, 1:]
    coef = np.concatenate([f.sum(f.mul(tail[:, p.hankel_index[:t].T], syn[:, None, :t]), axis=2),
                           f.mul(tail[:, : t + 1], np.arange(1, t + 2) % f.p)])
    at = p.locator_rows.product(coef)
    err = np.where(root[keep], f.mul(at[:m], f.inv0(f.mul(p.parity_checks_t[:, 0], at[m:]))), 0)
    good = (p._syndromes.product(err) == syn).all(axis=1)
    keep = keep[good]
    return keep, p.interpolation.product(f.sub(heads(keep), err[good, :k]))


def _least_locator(f: GF, hankel: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Each Hankel system's least degree monic solution and its degree d,
    from one RREF on the system's first t columns: 1 at the first column d
    without a pivot (or at t), minus RREF column d at the pivots before it."""
    table = linalg.batched_rref(f, hankel, t)
    # d: the first zero row of the table, where its diagonal (1 at a pivot)
    # first reads 0, or t.  Past d the pivots' entries of column d are zero.
    d = np.logical_and.accumulate(np.diagonal(table, axis1=1, axis2=2), axis=1).sum(axis=1)
    every = np.arange(len(hankel))
    monic = np.zeros((len(hankel), t + 1), dtype=np.int64)
    monic[:, :t] = f.neg(table[every, :, d])
    monic[every, d] = 1
    return monic, d


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
    if sub.n != n or dimension_error(f, n, k) or sub.k > k or np.unique(x).size != n:
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
    if dimension_error(f, n, k):
        raise NotGrs(f"no GRS code with k={k}, n={n} over {f!r}")
    for x in [f.elements()[:n]] if k in (1, n - 1) else _cross_ratio_points(c):
        y = recover_multipliers(x, k, c)
        if y is not None:
            return GrsParams(f, x, y, k)
    raise NotGrs("no candidate points describe the code")
