"""Dense linear algebra over GF(q).

Matrices are plain 2-D numpy int64 arrays whose entries are field elements
of an accompanying :class:`~grs_squarebreak.gf.GF` instance; vectors are 1-D
arrays.  Functions never mutate their inputs.  Row reduction uses the first
nonzero pivot scanning top-to-bottom, left-to-right, so every canonical form
here is deterministic.  The lockstep eliminations of stacks go row by row,
rows in place; ``batched_rref`` then returns each matrix's reduced rows
indexed by pivot column, a zero row standing for a column without a pivot.

``matmul`` is the one product, with numpy's rules for ``@``: a 1-D left
operand is a row and a 1-D right operand a column, and that axis is dropped
from the result.  The left operand may be a stack, whose rows all share the
right operand; the right operand is one vector or one matrix, and a stack
there is refused.  Its memory bound: output rows go in blocks of at most
2^22 products, or one row.  Two 2-D operands with fewer rows than 4q, as in
the decoders, are one ``mul`` and one ``sum``.  A block of at least 4q rows
reads its products off a table of the multiples of the right operand's
rows, gathered term-major: the products of term m for every row form one
contiguous (rows, cols) slab, and the sum adds slabs.
"""

from __future__ import annotations

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
    columns; R has len(pivots) rows.
    """
    m = np.array(a, dtype=np.int64)
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = f.mul(m[r], f.inv0(m[r, c]))  # nonzero: found by np.nonzero
        col = m[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            m[hit] = f.add(m[hit], f.mul(f.neg(col[hit])[:, None], m[r][None, :]))
        pivots.append(c)
        r += 1
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
    if a.ndim == b.ndim == 2 and rows < 4 * f.q and rows * inner * cols <= 1 << 22:
        return f.sum(f.mul(a[:, :, None], b), axis=1)  # one block, direct
    lhs, rhs = a.reshape(rows, inner), b.reshape(inner, cols)
    block = max(1, (1 << 22) // max(1, inner * cols))
    # At least 4q rows per block read their products off a table whose row
    # m*q + x is x * rhs[m], built once at a quarter of the block's products
    # or less: one row gather per lhs entry replaces one table lookup per
    # product.  The gather is term-major, (inner, rows, cols), so the sum
    # reduces whole contiguous (rows, cols) slabs.
    table = None
    if 4 * f.q <= min(block, len(lhs)):
        table = f.mul(rhs[:, None, :], f.elements()[:, None]).reshape(inner * f.q, cols)
        offsets = (np.arange(inner) * f.q)[:, None]
    parts = []
    for i in range(0, max(1, len(lhs)), block):
        if table is not None:
            prods = table.take(lhs[i : i + block].T + offsets, axis=0)
            parts.append(f.sum(prods, axis=0))
        else:
            parts.append(f.sum(f.mul(lhs[i : i + block, :, None], rhs), axis=1))
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return out.reshape(a.shape[:-1] + b.shape[1:])


def inverse(f: GF, a: np.ndarray) -> np.ndarray:
    a = as_matrix(a)
    if a.shape[1] != a.shape[0]:
        raise DimensionMismatch("inverse needs a square matrix")
    inv = _inverse_or_none(f, a)
    if inv is None:
        raise SingularMatrix("matrix is not invertible")
    return inv


def _inverse_or_none(f: GF, a: np.ndarray) -> np.ndarray | None:
    """The inverse of a square matrix a, or None when a is singular: one
    RREF of [a | I], which pivots on exactly the first n columns when a has
    rank n."""
    n = a.shape[0]
    r, pivots = rref(f, np.hstack([a, np.eye(n, dtype=np.int64)]))
    return r[:, n:] if pivots == list(range(n)) else None


def batched_rref(f: GF, mats: np.ndarray, ncols: int | None = None) -> np.ndarray:
    """Gauss-Jordan elimination of a stack of equally-shaped matrices in
    lockstep, pivoting on their first ``ncols`` columns (default: all).

    Row by row, rows in place: each row, reduced by the pivot rows before
    it, is scaled to 1 at its first nonzero column among the first ``ncols``
    (by inv0(0) = 0, to zero, when there is none), which is then cleared
    from every other row.  Each row costs a few whole-stack operations, or
    one check when it has no pivot in any matrix (as past the rank of every
    matrix).  Returns the (nmat, ncols, cols) table of the reduced rows by
    pivot: row c of table i is the row of mats[i] that pivots on column c,
    or zero when none does, so its nonzero rows, in order, are
    ``rref(f, mats[i])`` on the pivoting columns.
    """
    m = np.array(mats, dtype=np.int64)
    if m.ndim != 3:
        raise DimensionMismatch(f"expected a stack of matrices, got shape {m.shape}")
    ncols = m.shape[2] if ncols is None else ncols
    every = np.arange(len(m))
    for r in range(m.shape[1]):
        row = m[:, r]
        nz = row[:, :ncols] != 0
        if not nz.any():  # no pivot in any matrix: the row only goes to zero
            row[...] = 0
            continue
        c = np.argmax(nz, axis=1)
        row[...] = f.mul(row, f.inv0(row[every, c])[:, None])
        fac = m[every, :, c]
        fac[:, r] = 0
        m[...] = f.sub(m, f.mul(fac[:, :, None], row[:, None, :]))
    # A pivot row stays zero left of its pivot (later pivot rows reach it
    # there by a factor 0), so its pivot is its first nonzero column; a row
    # without one is zero, and goes to a spare last row, dropped at the end.
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
        inv = _inverse_or_none(f, m)
        if inv is not None:
            return m, inv
    raise RuntimeError("rejection sampling failed to find an invertible matrix")
