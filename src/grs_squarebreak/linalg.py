"""Dense linear algebra over GF(q).

Matrices are plain 2-D numpy int64 arrays whose entries are field elements
of an accompanying :class:`~grs_squarebreak.gf.GF` instance; vectors are 1-D
arrays.  Functions never mutate their inputs.  Row reduction uses the first
nonzero pivot scanning top-to-bottom, left-to-right, so every canonical form
here is deterministic.  A pivot row is zero left of its pivot, so each
Gauss-Jordan step updates the columns from the pivot on.  ``batched_rref``
eliminates a stack row by row, rows in place, and returns each matrix's
reduced rows by pivot column, a zero row where a column has no pivot.
``batched_minors`` gives the kernel of a stack of r x (r+1) matrices of
rank r with no elimination, as their signed maximal minors.

``matmul`` is the one product, with numpy's rules for ``@``: a 1-D left
operand is a row and a 1-D right operand a column, and that axis is dropped
from the result.  The left operand may be a stack, whose rows all share the
right operand; the right operand is one vector or one matrix, and a stack
there is refused.  Its memory bound: output rows go in blocks of at most
2^22 products, or one row.  A matrix that many products share, as the
decoder's key tables or the attack's [I | A] generator, is a ``Fixed``:
made on its owner's first product, it builds the table of its rows'
multiples, when that has at most 2^20 entries, off which products read.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .gf import GF


class DimensionMismatch(ValueError):
    pass


class SingularMatrix(ValueError):
    pass


def as_matrix(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got shape {a.shape}")
    return a


def frozen(a) -> np.ndarray:
    """A read-only C-ordered int64 copy of a: for key material and the
    tables built from it, which stay valid only while nobody writes to it."""
    out = np.array(a, dtype=np.int64, order="C")
    out.flags.writeable = False
    return out


def rref(f: GF, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form with zero rows dropped.

    Returns (R, pivots) where pivots lists the strictly increasing pivot
    columns; R has len(pivots) rows.  A pivot row is zero left of its
    pivot, so each step updates only the columns from the pivot on.
    """
    m = np.array(a, dtype=np.int64)
    nrows, ncols = m.shape
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        row = f.mul(m[r, c:], f.inv0(m[r, c]))  # nonzero: found by np.nonzero
        hit = m[:, c].nonzero()[0]  # row r too, which the update zeroes
        m[hit, c:] = f.sub(m[hit, c:], f.mul(m[hit, c, None], row))
        m[r, c:] = row
        pivots.append(c)
    return m[: len(pivots)], pivots


def rank(f: GF, a: np.ndarray) -> int:
    return len(rref(f, a)[1])


def batched_rank(f: GF, mats: np.ndarray) -> np.ndarray:
    """Ranks of a stack of equally-shaped matrices, eliminated in lockstep.

    Row by row: each row, once reduced by the pivot rows above it, is zero
    or pivots on its first nonzero column, which it then clears from the
    rows below (a zero row has inverse 0 and clears nothing), so the rank
    is the number of nonzero rows left.  One pass with whole-stack vector
    operations is far cheaper than per-matrix elimination when thousands
    of small rank tests are needed (the attack's rank test).
    """
    m = np.array(mats, dtype=np.int64)
    if m.ndim != 3:
        raise DimensionMismatch(f"expected a stack of matrices, got shape {m.shape}")
    nmat, nrows, ncols = m.shape
    every = np.arange(nmat)
    for r in range(nrows - 1 if ncols else 0):
        row = m[:, r]
        nz = row != 0
        lo = int(np.argmax(nz.any(axis=0)))  # row r is zero left of lo in every matrix
        c = np.argmax(nz[:, lo:], axis=1)
        below = m[:, r + 1 :, lo:]
        fac = f.mul(below[every, :, c], f.inv0(row[every, lo + c])[:, None])
        below[...] = f.sub(below, f.mul(fac[:, :, None], row[:, None, lo:]))
    return (m != 0).any(axis=2).sum(axis=1)


def right_kernel(f: GF, a: np.ndarray) -> np.ndarray:
    """Basis (full-rank matrix, one row per basis vector) of {x : a x^T = 0}.

    Returns a (cols - rank) x cols matrix; 0 rows when a has full column rank.
    """
    r, pivots = rref(f, a)
    ncols = r.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    k = np.zeros((len(free), ncols), dtype=np.int64)
    k[range(len(free)), free] = 1
    k[:, pivots] = f.neg(r[:, free].T)
    return k


def matmul(f: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b by numpy's rules for ``@``, with a vector or a matrix on the
    right (see the module docstring)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if b.ndim > 2:
        raise DimensionMismatch(f"the right operand must be a vector or a matrix, not {b.shape}")
    if min(a.ndim, b.ndim) < 1 or a.shape[-1] != len(b):
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    rows, inner, cols = math.prod(a.shape[:-1]), len(b), math.prod(b.shape[1:])
    if a.ndim == b.ndim == 2 and rows * inner * cols <= 1 << 22:
        return f.sum(f.mul(a[:, :, None], b), axis=1)  # one block, direct
    lhs, rhs = a.reshape(rows, inner), b.reshape(inner, cols)
    block = max(1, (1 << 22) // max(1, inner * cols))
    parts = [f.sum(f.mul(lhs[i : i + block, :, None], rhs), axis=1)
             for i in range(0, max(1, rows), block)]
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return out.reshape(a.shape[:-1] + b.shape[1:])


class Fixed:
    """A read-only matrix b that many products share: ``product(a)`` is
    ``matmul(f, a, b)`` for a 2-D a.  Making one builds the table of the
    multiples of b's rows, row m q + x holding x * b[m], unless it would
    have more than 2^20 entries (then the table is None and every product
    is ``matmul``), and with it the read-only column ``_offsets`` of the
    first rows m q of the terms m < len(b); so its owner makes it on its
    first product.  Off the table, a product takes one row gather per entry
    of a, at the entries plus the offsets, instead of one lookup per
    product.  The gather is term-major, (inner, rows, cols), so the sum
    adds whole contiguous (rows, cols) slabs; it is one block, whose rows
    the caller bounds (the decoder by its sweep blocks)."""

    def __init__(self, f: GF, b: np.ndarray):
        self.field = f
        self.matrix = b = frozen(as_matrix(b))
        self._table = self._offsets = None
        if f.q * b.size <= 1 << 20:
            table = f.mul(b[:, None, :], f.elements()[:, None]).reshape(len(b) * f.q, b.shape[1])
            table.flags.writeable = False
            self._table, self._offsets = table, frozen((np.arange(len(b)) * f.q)[:, None])

    def product(self, a: np.ndarray) -> np.ndarray:
        f, table = self.field, self._table
        a = np.asarray(a, dtype=np.int64)
        if a.ndim != 2 or a.shape[1] != len(self.matrix):
            raise DimensionMismatch(f"cannot multiply {a.shape} by {self.matrix.shape}")
        if table is None:
            return matmul(f, a, self.matrix)
        return f.sum(table.take(a.T + self._offsets, axis=0), axis=0)


def inverse(f: GF, a: np.ndarray) -> np.ndarray:
    """The inverse of a square matrix a, from one RREF of [a | I], which
    pivots on exactly the first n columns when a has rank n; raises
    SingularMatrix otherwise."""
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionMismatch("inverse needs a square matrix")
    r, pivots = rref(f, np.hstack([a, np.eye(n, dtype=np.int64)]))
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return r[:, n:]


def batched_rref(f: GF, mats: np.ndarray, ncols: int | None = None) -> np.ndarray:
    """Gauss-Jordan elimination of a stack of equally-shaped matrices in
    lockstep, pivoting on their first ``ncols`` columns (default: all).

    Row by row, rows in place: each row, reduced by the pivot rows before
    it, is scaled to 1 at its first nonzero column among the first ``ncols``
    (by inv0(0) = 0, to zero, when there is none), which is then cleared
    from every other row, from the stack's leftmost pivot on (the row is
    zero left of its pivot; a zero row subtracts nothing).  Each row costs a
    few whole-stack operations, or one check when it has no pivot in any
    matrix (as past the rank of every matrix).  Returns the (nmat, ncols,
    cols) table of the reduced rows by pivot: row c of table i is the row of
    mats[i] that pivots on column c, or zero when none does, so its nonzero
    rows, in order, are ``rref(f, mats[i])`` on the pivoting columns.
    """
    m = np.array(mats, dtype=np.int64)
    if m.ndim != 3:
        raise DimensionMismatch(f"expected a stack of matrices, got shape {m.shape}")
    ncols = m.shape[2] if ncols is None else ncols
    every = np.arange(len(m))
    for r in range(m.shape[1]):
        nz = m[:, r, :ncols] != 0
        if not nz.any():  # no pivot in any matrix: the row only goes to zero
            m[:, r] = 0
            continue
        c = nz.argmax(axis=1)  # 0 where a matrix has no pivot: there row r scales to 0
        lo = nz.any(axis=0).argmax()  # the stack's leftmost pivot
        row = f.mul(m[:, r, lo:], f.inv0(m[every, r, c])[:, None])
        m[:, :, lo:] = f.sub(m[:, :, lo:], f.mul(m[every, :, c, None], row[:, None]))
        m[:, r, lo:] = row  # which the update zeroed
    # A pivot row's first nonzero column is its pivot; a row without one is
    # zero, and goes to a spare last row, dropped at the end.
    nz = np.concatenate([m[:, :, :ncols] != 0, np.ones((*m.shape[:2], 1), dtype=bool)], axis=2)
    table = np.zeros((len(m), ncols + 1, m.shape[2]), dtype=np.int64)
    table[every[:, None], np.argmax(nz, axis=2)] = m
    return table[:, :ncols]


def batched_right_kernel(f: GF, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``right_kernel`` of each matrix of a stack, in lockstep.

    Returns (kern, nullity): kern has shape (nmat, d, ncols) with d the
    largest nullity in the stack; kern[i, :nullity[i]] is, row for row,
    ``right_kernel(f, mats[i])``, and the rows below are zero.  With T the
    ``batched_rref`` table, whose diagonal is 1 at a pivot column and 0 at a
    free one, row j of I - T^T is the kernel row of a free column j and zero
    at a pivot column j.
    """
    table = batched_rref(f, mats)
    free = np.diagonal(table, axis1=1, axis2=2) == 0
    nullity = np.count_nonzero(free, axis=1)
    # Free columns first; a pivot column j after them gives e_j - e_j = 0.
    order = np.argsort(~free, axis=1, kind="stable")[:, : nullity.max(initial=0)]
    cols = np.take_along_axis(table, order[:, None, :], axis=2).transpose(0, 2, 1)
    return f.sub(np.eye(table.shape[1], dtype=np.int64)[order], cols), nullity


def batched_minors(f: GF, mats: np.ndarray) -> np.ndarray:
    """Signed maximal minors of a stack of r x (r+1) matrices: entry c of
    row i is (-1)^c det(mats[i] without column c), the generalized cross
    product, which every row of mats[i] annihilates.  It spans the right
    kernel when mats[i] has rank r and is zero otherwise.

    Laplace expansion along the rows: the minors of the first L rows on
    every L-subset of columns are sums of entries of row L-1 times minors
    of the first L-1 rows, four whole-stack operations per row, for
    (r+1) 2^r products per matrix in all (see ``_laplace_plan``).
    """
    m = np.asarray(mats, dtype=np.int64)
    if m.ndim != 3 or m.shape[2] != m.shape[1] + 1:
        raise DimensionMismatch(f"expected a stack of r x (r+1) matrices, got shape {m.shape}")
    plan = _laplace_plan(m.shape[1])
    if not plan:
        return np.ones((len(m), 1), dtype=np.int64)  # the empty determinant
    signed = np.concatenate([m, f.neg(m)], axis=2)  # column j + r+1 holds -m[:, :, j]
    minors = signed[:, 0, plan[0][0][:, 0]]  # level 1: entries times the empty minor 1
    for row, (entries, rest) in enumerate(plan[1:], 1):
        minors = f.sum(f.mul(signed[:, row, entries], minors[:, rest]), axis=2)
    return minors


@functools.lru_cache(maxsize=None)
def _laplace_plan(r: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Read-only index tables of ``batched_minors`` for r x (r+1) matrices,
    one pair (entries, rest) of (subsets, L) tables per level L = 1..r.

    Level L lists the L-subsets S of the columns (the last level by the
    column each leaves out).  S's minor on the first L rows is the sum over
    positions p of [m | -m] at row L-1, column entries[S, p], times the
    level L-1 minor at rest[S, p], of the subset S without S[p] (level 0 is
    the empty minor 1).  The Laplace sign (-1)^(L-1+p), and on the last
    level the sign (-1)^c of the minor leaving out column c, select the -m
    half.
    """
    cols = r + 1
    plan, levels = [], [()]
    for size in range(1, r + 1):
        if size == r:  # by the column left out, with that column's sign
            subsets = [(tuple(j for j in range(cols) if j != c), c % 2) for c in range(cols)]
        else:
            subsets = [(s, 0) for s in itertools.combinations(range(cols), size)]
        where = {s: i for i, s in enumerate(levels)}
        entries = [[j + cols * ((size - 1 + p + sign) % 2) for p, j in enumerate(s)]
                   for s, sign in subsets]
        rest = [[where[s[:p] + s[p + 1 :]] for p in range(size)] for s, _ in subsets]
        plan.append((frozen(entries), frozen(rest)))
        levels = [s for s, _ in subsets]
    return tuple(plan)


def intersect_rowspaces(f: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Basis of rowspace(a) & rowspace(b), via duals:
    (A^perp + B^perp)^perp = A & B."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch("row spaces live in different ambient spaces")
    ka = right_kernel(f, a)
    kb = right_kernel(f, b)
    return right_kernel(f, np.vstack([ka, kb]))


def reduce_row(
    f: GF, r: np.ndarray, pivots: list[int] | tuple[int, ...], v: np.ndarray
) -> np.ndarray:
    """Residual of v, one vector or a stack (..., n), after elimination
    against an RREF basis (r, pivots): v - v[pivots] r, since r is the
    identity on its pivot columns.  It is zero exactly when v lies in the
    row space."""
    v = np.asarray(v, dtype=np.int64)
    coef = v[..., np.asarray(pivots, dtype=np.int64)]
    return f.sub(v, matmul(f, coef, r))


def random_matrix(f: GF, rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, f.q, size=(rows, cols), dtype=np.int64)


def random_invertible_pair(f: GF, k: int, rng: np.random.Generator):
    """Uniform invertible k x k matrix by rejection sampling, and its
    inverse: each draw's rank test is the elimination that inverts it."""
    if k < 1:
        raise DimensionMismatch("k must be >= 1")
    for _ in range(1000):
        m = random_matrix(f, k, k, rng)
        try:
            return m, inverse(f, m)
        except SingularMatrix:
            pass
    raise RuntimeError("rejection sampling failed to find an invertible matrix")
