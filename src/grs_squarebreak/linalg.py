"""Dense linear algebra over GF(q).

Matrices are plain 2-D numpy int64 arrays whose entries are field elements
of an accompanying :class:`~grs_squarebreak.gf.GF` instance; vectors are 1-D
arrays.  Functions never mutate their inputs.  Row reduction uses the first
nonzero pivot scanning top-to-bottom, left-to-right, so every canonical form
here is deterministic.

``matmul`` is the one product, with numpy's rules for ``@``: a 1-D left
operand is a row and a 1-D right operand a column, that axis is dropped from
the result, and the leading axes of stacked operands broadcast.  Its memory
bound: output rows go in blocks of at most 2^22 products, or one row.
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
    if m.ndim != 2:
        m = m.reshape(1, -1)
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

    All matrices share one column schedule; each keeps its own pivot-row
    counter.  One pass over the columns with whole-batch vector operations is
    far cheaper than per-matrix elimination when thousands of small rank
    tests are needed (the attack's rank test).  Every matrix is eliminated
    at every column, in place on the live block: rows from the lowest
    counter down, columns right of the current one, a plain slice of the
    stack.  A matrix with no pivot in the column has zero factors on its
    live rows, and its pivot move copies a row onto itself.  A pivot row is
    lifted out rather than swapped up, since rows above a counter are never
    read again, and its inverse goes into the row factors rather than into
    the row.
    """
    m = np.array(mats, dtype=np.int64)
    if m.ndim != 3:
        raise DimensionMismatch(f"expected a stack of matrices, got shape {m.shape}")
    nmat, nrows, ncols = m.shape
    rowptr = np.zeros(nmat, dtype=np.int64)
    every = np.arange(nmat)
    rowidx = np.arange(nrows)
    for c in range(ncols):
        lo = int(rowptr.min(initial=nrows))
        if lo == nrows:
            break
        eligible = (rowidx[None, lo:] >= rowptr[:, None]) & (m[:, lo:, c] != 0)
        hit = eligible.any(axis=1)
        pr = lo + np.argmax(eligible, axis=1)
        rp = np.where(hit, rowptr, pr)
        piv_inv = f.inv0(m[every, pr, c])
        piv_row = m[every, pr, c + 1 :]
        # The row at the counter (zero in column c unless it is the pivot
        # row itself) takes the pivot row's slot; rows up to the counter are
        # then dead, so their factors need not be masked.  Without a pivot
        # every live row is zero in column c, so it gets a zero factor.
        m[every, pr, c:] = m[every, rp, c:]
        fac = f.mul(m[:, lo:, c], piv_inv[:, None])
        live = m[:, lo:, c + 1 :]
        live[...] = f.sub(live, f.mul(fac[:, :, None], piv_row[:, None, :]))
        rowptr += hit
    return rowptr


def right_kernel(f: GF, a: np.ndarray) -> np.ndarray:
    """Basis (full-rank matrix, one row per basis vector) of {x : a x^T = 0}.

    Returns a (cols - rank) x cols matrix; 0 rows when a has full column rank.
    """
    a = np.asarray(a, dtype=np.int64)
    ncols = a.shape[1] if a.ndim == 2 else a.shape[0]
    r, pivots = rref(f, a.reshape(-1, ncols))
    free = [c for c in range(ncols) if c not in pivots]
    k = np.zeros((len(free), ncols), dtype=np.int64)
    k[range(len(free)), free] = 1
    k[:, pivots] = f.neg(r[:, free].T)
    return k


def matmul(f: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b by numpy's rules for ``@`` (see the module docstring)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    lhs = a.reshape(1, -1) if a.ndim == 1 else a
    rhs = b.reshape(-1, 1) if b.ndim == 1 else b
    if min(a.ndim, b.ndim) < 1 or lhs.shape[-1] != rhs.shape[-2]:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    (rows, inner), cols = lhs.shape[-2:], rhs.shape[-1]
    # One output row per row of lhs's broadcast stack: a 2-D rhs serves
    # them all, a stacked one is gathered row by row.
    lead, stack = lhs.shape[:-2], None
    if rhs.ndim > 2:
        lead = np.broadcast_shapes(lead, rhs.shape[:-2])
        lhs = np.broadcast_to(lhs, (*lead, rows, inner))
        stack = np.broadcast_to(rhs, (*lead, inner, cols)).reshape(math.prod(lead), inner, cols)
    lhs = lhs if lhs.ndim == 2 else lhs.reshape(math.prod(lead) * rows, inner)
    block = max(1, (1 << 22) // max(1, inner * cols))
    parts = []
    for i in range(0, max(1, len(lhs)), block):
        right = rhs if stack is None else stack[np.arange(i, min(i + block, len(lhs))) // rows]
        parts.append(f.sum(f.mul(lhs[i : i + block, :, None], right), axis=1))
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return out if a.ndim == b.ndim == 2 else out.reshape(
        lead + (rows,) * (a.ndim > 1) + (cols,) * (b.ndim > 1))


def inverse(f: GF, a: np.ndarray) -> np.ndarray:
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionMismatch("inverse needs a square matrix")
    aug = np.hstack([a, np.eye(n, dtype=np.int64)])
    r, pivots = rref(f, aug)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return r[:, n:]


def solve_right(f: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Some x with a @ x^T = b, or None; free variables are set to zero."""
    a = as_matrix(a)
    b = np.asarray(b, dtype=np.int64)
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch("right-hand side length mismatch")
    aug = np.hstack([a, b[:, None]])
    r, pivots = rref(f, aug)
    ncols = a.shape[1]
    if pivots and pivots[-1] == ncols:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    x[pivots] = r[:, ncols]
    return x


def batched_rref(
    f: GF, mats: np.ndarray, ncols: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Jordan elimination of a stack of equally-shaped matrices in
    lockstep, pivoting on their first ``ncols`` columns (default: all).

    Returns (m, rank, pivcol): row r < rank[i] of m[i] is a pivot row with
    its pivot in column pivcol[i, r], and the rows below are zero on the
    pivoting columns.  With every column pivoting, m[i, :rank[i]] and
    pivcol[i, :rank[i]] are ``rref(f, mats[i])``, as the RREF is unique.
    One shared column schedule, each matrix with its own pivot-row counter,
    so a stack of many small matrices costs a few whole-stack operations
    per column.
    """
    m = np.array(mats, dtype=np.int64)
    if m.ndim != 3:
        raise DimensionMismatch(f"expected a stack of matrices, got shape {m.shape}")
    nmat, nrows, width = m.shape
    if ncols is None:
        ncols = width
    rank = np.zeros(nmat, dtype=np.int64)
    pivcol = np.zeros((nmat, nrows), dtype=np.int64)
    rowidx = np.arange(nrows)
    for c in range(ncols):
        eligible = (rowidx[None, :] >= rank[:, None]) & (m[:, :, c] != 0)
        bi = np.nonzero(eligible.any(axis=1))[0]
        if not bi.size:
            continue
        rp = rank[bi]
        pr = np.argmax(eligible[bi], axis=1)
        piv = f.mul(m[bi, pr, c:], f.inv0(m[bi, pr, c])[:, None])
        m[bi, pr, c:] = m[bi, rp, c:]
        fac = m[bi, :, c]
        fac[np.arange(bi.size), rp] = 0
        m[bi, :, c:] = f.sub(m[bi, :, c:], f.mul(fac[:, :, None], piv[:, None, :]))
        m[bi, rp, c:] = piv
        pivcol[bi, rp] = c
        rank[bi] += 1
    return m, rank, pivcol


def batched_right_kernel(f: GF, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``right_kernel`` of each matrix of a stack, in lockstep.

    Returns (kern, nullity): kern has shape (nmat, d, ncols) with d the
    largest nullity in the stack; kern[i, :nullity[i]] is, row for row,
    ``right_kernel(f, mats[i])``, and the rows below are zero.
    """
    m, rank, pivcol = batched_rref(f, mats)
    nmat, nrows, ncols = m.shape
    nullity = ncols - rank
    d = int(nullity.max(initial=0))
    mat = np.arange(nmat)[:, None]
    # Rows past the rank point at the spare last column, dropped below.
    at = np.where(np.arange(nrows) < rank[:, None], pivcol, ncols)
    ispiv = np.zeros((nmat, ncols + 1), dtype=bool)
    ispiv[mat, at] = True
    free = np.argsort(ispiv[:, :ncols], axis=1, kind="stable")[:, :d]  # free columns first
    # Kernel row j: 1 at free column free[j], -R[r, free[j]] at each pivot.
    kern = np.zeros((nmat, d, ncols + 1), dtype=np.int64)
    rows = np.arange(nrows)[None, :, None]
    kern[mat[:, :, None], np.arange(d)[:, None], at[:, None, :]] = f.neg(
        m[mat[:, :, None], rows, free[:, None, :]]
    ).transpose(0, 2, 1)
    kern[mat, np.arange(d), free] = 1
    kern[np.arange(d) >= nullity[:, None]] = 0
    return kern[:, :, :ncols], nullity


def batched_solve_right(
    f: GF, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve a stack of systems a[i] @ x^T = b[i] in lockstep.

    Returns (x, consistent, rank): where consistent[i], x[i] is the solution
    ``solve_right`` returns (free variables zero; it is the only solution
    supported on the pivot columns, so any elimination order finds it), and
    rank[i] is the rank of a[i].  One ``batched_rref`` of the augmented
    matrices, pivoting on a's columns.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 3 or b.shape != a.shape[:2]:
        raise DimensionMismatch(f"cannot solve a stack {a.shape} against {b.shape}")
    nmat, nrows, ncols = a.shape
    m, rank, pivcol = batched_rref(f, np.concatenate([a, b[:, :, None]], axis=2), ncols)
    live = np.arange(nrows)[None, :] < rank[:, None]
    consistent = ~np.any(~live & (m[:, :, ncols] != 0), axis=1)
    x = np.zeros((nmat, ncols + 1), dtype=np.int64)
    # Rows past the rank point at the spare last column, dropped below.
    np.put_along_axis(x, np.where(live, pivcol, ncols), np.where(live, m[:, :, ncols], 0), axis=1)
    return x[:, :ncols], consistent, rank


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


def random_invertible(f: GF, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform invertible k x k matrix by rejection sampling."""
    if k < 1:
        raise DimensionMismatch("k must be >= 1")
    for _ in range(1000):
        m = random_matrix(f, k, k, rng)
        if rank(f, m) == k:
            return m
    raise RuntimeError("rejection sampling failed to find an invertible matrix")


def permutation_matrix(perm: np.ndarray) -> np.ndarray:
    """Matrix P with P[i, perm[i]] = 1, so (v @ P)[perm[i]] = v[i]."""
    perm = np.asarray(perm, dtype=np.int64)
    n = perm.shape[0]
    p = np.zeros((n, n), dtype=np.int64)
    p[np.arange(n), perm] = 1
    return p
