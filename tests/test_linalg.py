"""Linear algebra over GF(q): canonical forms, kernels, solves, sampling."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grs_squarebreak import linalg as la
from grs_squarebreak.gf import GF
from grs_squarebreak.linalg import DimensionMismatch, SingularMatrix


class TestRref:
    def test_identity_fixed(self, gf7):
        eye = np.eye(3, dtype=np.int64)
        r, piv = la.rref(gf7, eye)
        assert np.array_equal(r, eye) and piv == [0, 1, 2]

    def test_zero_matrix(self, gf7):
        r, piv = la.rref(gf7, np.zeros((2, 4), dtype=np.int64))
        assert r.shape == (0, 4) and piv == []

    def test_rank_one_pair(self, gf7):
        # second row is inv(2) times the first
        r, piv = la.rref(gf7, np.array([[2, 4], [1, 2]]))
        assert r.tolist() == [[1, 2]] and piv == [0]

    def test_idempotent(self, gf16, rng):
        for _ in range(20):
            m = la.random_matrix(gf16, 5, 8, rng)
            r1, p1 = la.rref(gf16, m)
            r2, p2 = la.rref(gf16, r1)
            assert np.array_equal(r1, r2) and p1 == p2

    def test_invariant_under_row_scrambling(self, gf16, rng):
        g = la.random_matrix(gf16, 4, 9, rng)
        s = la.random_invertible_pair(gf16, 4, rng)[0]
        r1, _ = la.rref(gf16, g)
        r2, _ = la.rref(gf16, la.matmul(gf16, s, g))
        if la.rank(gf16, g) == 4:
            assert np.array_equal(r1, r2)


def rref_loop(f, a, ncols=None):
    """Reference Gauss-Jordan, one entry at a time by scalar field
    operations: each of the first ncols columns (default: all) pivots on
    its first nonzero entry at or below the next pivot row, which is scaled
    to 1 and cleared from every other row.  Returns (R, pivots), the rows
    without a pivot dropped."""
    m = [[int(x) for x in row] for row in np.asarray(a)]
    width = np.shape(a)[1]
    pivots = []
    for c in range(width if ncols is None else ncols):
        r = len(pivots)
        below = [i for i in range(r, len(m)) if m[i][c]]
        if not below:
            continue
        m[r], m[below[0]] = m[below[0]], m[r]
        inv = int(f.inv(m[r][c]))
        m[r] = [int(f.mul(inv, x)) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                fac = m[i][c]
                m[i] = [int(f.sub(x, f.mul(fac, y))) for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return np.array(m[: len(pivots)], dtype=np.int64).reshape(len(pivots), width), pivots


def degenerate(f, rows, cols, rng):
    """A random rows x cols matrix with a zero row, a repeated row, the sum
    of two rows and a zero column, its rows shuffled."""
    m = la.random_matrix(f, rows, cols, rng)
    m[0] = 0
    m[1] = m[2]
    m[3] = f.add(m[4], m[5])
    m[:, rng.integers(cols)] = 0
    return m[rng.permutation(rows)]


def square_step(f, k, n, rng):
    """One step of ``LinearCode.square``: the RREF of a random k x n code
    over a block of its star products, which repeats a product and holds
    a zero row."""
    g = la.random_matrix(f, k, n, rng)
    i, j = np.triu_indices(k)
    block = f.mul(g[i], g[j])
    return np.vstack([la.rref(f, g)[0], block, block[:1], np.zeros((1, n), dtype=np.int64)])


REF_CASES = {
    "wide": lambda f, rng: la.random_matrix(f, 5, 11, rng),
    "tall": lambda f, rng: la.random_matrix(f, 11, 5, rng),
    "degenerate-wide": lambda f, rng: degenerate(f, 7, 10, rng),
    "degenerate-tall": lambda f, rng: degenerate(f, 10, 7, rng),
    "square-step": lambda f, rng: square_step(f, 4, 12, rng),
    "square-step-short": lambda f, rng: square_step(f, 3, 5, rng),
}


@pytest.mark.parametrize("f", [GF(7), GF(2, 4, 19), GF(5, 2, 32), GF(3, 7, 2198)],
                         ids=["GF7", "GF16", "GF25", "GF3^7"])
@pytest.mark.parametrize("case", REF_CASES)
def test_rref_matches_a_reference_elimination(f, case, rng):
    """``rref`` against the entry-by-entry loop, on dense wide and tall
    matrices, on matrices with zero, repeated and dependent rows and a
    zero column, and on ``square``-style stacks of an RREF block over new
    rows."""
    for _ in range(4):
        a = REF_CASES[case](f, rng)
        r, pivots = la.rref(f, a)
        want, want_pivots = rref_loop(f, a)
        assert pivots == want_pivots and np.array_equal(r, want)


class TestRankKernel:
    def test_identity_rank(self, gf16):
        assert la.rank(gf16, np.eye(6, dtype=np.int64)) == 6

    def test_outer_product_rank_one(self, gf16, rng):
        u = rng.integers(1, 16, 7)
        v = rng.integers(1, 16, 9)
        assert la.rank(gf16, la.matmul(gf16, u[:, None], v[None, :])) == 1

    def test_even_weight_kernel(self, gf2):
        k = la.right_kernel(gf2, np.array([[1, 1]]))
        assert k.tolist() == [[1, 1]]

    def test_full_column_rank_kernel_empty(self, gf7):
        assert la.right_kernel(gf7, np.eye(4, dtype=np.int64)).shape == (0, 4)

    def test_kernel_annihilates(self, gf16, rng):
        for _ in range(20):
            m = la.random_matrix(gf16, 4, 10, rng)
            k = la.right_kernel(gf16, m)
            assert k.shape[0] == 10 - la.rank(gf16, m)
            if k.shape[0]:
                assert not la.matmul(gf16, m, k.T).any()
                assert la.rank(gf16, k) == k.shape[0]

    def test_batched_rank_matches(self, gf16, gf7, rng):
        for f in (gf16, gf7):
            mats = rng.integers(0, f.q, size=(12, 6, 8))
            expected = [la.rank(f, m) for m in mats]
            assert la.batched_rank(f, mats).tolist() == expected


# GF(3^7) lies above the table bound, so it adds by Zech logarithms.
RANK_FIELDS = [GF(7), GF(2, 4, 19), GF(5, 2, 32), GF(3, 7, 2198)]
RANK_IDS = ["GF7", "GF16", "GF25", "GF3^7"]


class TestBatchedRank:
    @pytest.mark.parametrize("f", RANK_FIELDS, ids=RANK_IDS)
    @pytest.mark.parametrize(
        "shape", [(6, 8), (9, 4), (5, 5), (1, 7), (7, 1)],
        ids=["wide", "tall", "square", "row", "column"],
    )
    def test_planted_ranks(self, f, shape, rng):
        """One stack mixes every rank from 0 to min(shape), so the row
        counters of its matrices drift apart; some matrices also get a zero
        column."""
        rows, cols = shape
        mats = []
        for r in range(min(shape) + 1):
            for _ in range(6):
                left = la.random_matrix(f, rows, r, rng)
                mats.append(la.matmul(f, left, la.random_matrix(f, r, cols, rng)))
        mats = np.stack(mats)
        mats[np.arange(0, len(mats), 4), :, rng.integers(0, cols, (len(mats) + 3) // 4)] = 0
        mats = mats[rng.permutation(len(mats))]
        expected = [la.rank(f, m) for m in mats]
        assert set(expected) == set(range(min(shape) + 1))
        assert la.batched_rank(f, mats).tolist() == expected

    @pytest.mark.parametrize("f", RANK_FIELDS, ids=RANK_IDS)
    @pytest.mark.parametrize("shape", [(5, 9), (9, 5)], ids=["wide", "tall"])
    def test_counters_finish_apart(self, f, shape, rng):
        """Matrices whose rank is reached in the first columns (full row rank
        for the wide shape) share a stack with matrices that are zero there
        and still live in the last columns, all-zero matrices and random
        ones."""
        rows, cols = shape
        r, lead = min(shape), max(cols - rows, 2)
        early = [np.hstack([la.random_invertible_pair(f, rows, rng)[0][:, :r],
                            la.random_matrix(f, rows, cols - r, rng)]) for _ in range(8)]
        late = [np.hstack([np.zeros((rows, lead), dtype=np.int64),
                           la.random_invertible_pair(f, rows, rng)[0][:, : cols - lead]]) for _ in range(8)]
        zero = [np.zeros(shape, dtype=np.int64)] * 4
        rand = [la.random_matrix(f, rows, cols, rng) for _ in range(4)]
        mats = np.stack(early + late + zero + rand)
        mats = mats[rng.permutation(len(mats))]
        expected = [la.rank(f, m) for m in mats]
        assert expected.count(r) >= 8 and expected.count(cols - lead) >= 8
        assert expected.count(0) == 4
        assert la.batched_rank(f, mats).tolist() == expected

    @pytest.mark.parametrize("f", RANK_FIELDS, ids=RANK_IDS)
    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (7, 3), (6, 6), (3, 0)])
    def test_single_matrix(self, f, shape, rng):
        for m in (np.zeros(shape, dtype=np.int64), la.random_matrix(f, *shape, rng)):
            assert la.batched_rank(f, m[None]).tolist() == [la.rank(f, m)]

    @pytest.mark.parametrize("f", RANK_FIELDS, ids=RANK_IDS)
    def test_row_dependent_only_after_reduction(self, f, rng):
        """Rows 0 and 1 pivot on columns 0 and 1; row 2 = row 0 + row 1 is
        nonzero on both and only vanishes once both pivot rows have been
        subtracted.  A fourth, random row keeps its pivot."""
        mats = []
        for _ in range(12):
            r0 = np.concatenate([[1], la.random_matrix(f, 1, 5, rng)[0]])
            r1 = np.concatenate([[0, 1], la.random_matrix(f, 1, 4, rng)[0]])
            mats.append(np.stack([r0, r1, f.add(r0, r1), la.random_matrix(f, 1, 6, rng)[0]]))
        mats = np.stack(mats)
        expected = [la.rank(f, m) for m in mats]
        assert all(e == la.rank(f, m[[0, 1, 3]]) for e, m in zip(expected, mats))
        assert la.batched_rank(f, mats).tolist() == expected
        assert la.batched_rank(f, mats[:, :3]).tolist() == [2] * 12

    @pytest.mark.parametrize("f", RANK_FIELDS, ids=RANK_IDS)
    def test_rows_zero_from_the_start(self, f, rng):
        """Zero rows first, in the middle and last, and whole zero matrices,
        in one stack with random matrices."""
        mats = la.random_matrix(f, 16 * 5, 6, rng).reshape(16, 5, 6)
        mats[0:4, 0] = 0
        mats[4:8, 2] = 0
        mats[8:12, 4] = 0
        mats[12:14, :3] = 0
        mats[14] = 0
        expected = [la.rank(f, m) for m in mats]
        assert expected[14] == 0 and max(expected[:14]) == 5 - 1
        assert la.batched_rank(f, mats).tolist() == expected

    @pytest.mark.parametrize("f", RANK_FIELDS, ids=RANK_IDS)
    def test_input_not_mutated(self, f, rng):
        mats = la.random_matrix(f, 8 * 4, 5, rng).reshape(8, 4, 5)
        before = mats.copy()
        la.batched_rank(f, mats)
        assert np.array_equal(mats, before)

    @pytest.mark.parametrize("f", RANK_FIELDS, ids=RANK_IDS)
    def test_empty_stack(self, f):
        ranks = la.batched_rank(f, np.zeros((0, 3, 4), dtype=np.int64))
        assert ranks.shape == (0,)


class TestBatchedKernel:
    """The lockstep Gauss-Jordan (``batched_rref``) and its kernel view
    against ``rref`` and ``right_kernel``, matrix by matrix."""

    SHAPES = ((1, 6), (3, 7), (7, 3), (5, 5), (6, 1), (0, 4))

    @staticmethod
    def planted_stack(f, rows, cols, rng):
        """Matrices of every rank from zero to full, three of each."""
        mats = []
        for r in range(min(rows, cols) + 1):
            for _ in range(3):
                m = np.zeros((rows, cols), dtype=np.int64)
                if r:
                    m = la.matmul(f, la.random_matrix(f, rows, r, rng), la.random_matrix(f, r, cols, rng))
                mats.append(m)
        return np.stack(mats)

    @pytest.mark.parametrize("f", [GF(2, 4, 19), GF(5, 2, 32), GF(7)], ids=["GF16", "GF25", "GF7"])
    def test_kernel_rows_match_right_kernel(self, f, rng):
        for rows, cols in self.SHAPES:
            mats = self.planted_stack(f, rows, cols, rng)
            kern, nullity = la.batched_right_kernel(f, mats)
            assert kern.shape == (len(mats), int(nullity.max()), cols)
            for m, basis, d in zip(mats, kern, nullity, strict=True):
                want = la.right_kernel(f, m)
                assert d == want.shape[0]
                assert np.array_equal(basis[:d], want)
                assert not basis[d:].any()

    @pytest.mark.parametrize("f", [GF(2, 4, 19), GF(5, 2, 32), GF(7)], ids=["GF16", "GF25", "GF7"])
    def test_rref_matches(self, f, rng):
        """Pivoting on every column, and on the first ncols < width only
        (a random block to the right of the planted one): row c of each
        table is the reduced row that pivots on column c, so the nonzero
        rows, in order, are ``rref`` of the planted block on the pivoting
        columns, and every other row is zero, the extra columns included.
        Includes a block with no pivoting column, a stack checked against
        the reference elimination, and an empty stack."""
        for rows, cols in (*self.SHAPES, (4, 0)):
            for extra in (0, 2):
                left = self.planted_stack(f, rows, cols, rng)
                mats = np.concatenate([left, rng.integers(0, f.q, (len(left), rows, extra))], axis=2)
                tables = la.batched_rref(f, mats, cols if extra else None)
                assert tables.shape == (len(mats), cols, cols + extra)
                for m, table in zip(left, tables, strict=True):
                    want, want_piv = la.rref(f, m)
                    live = table.any(axis=1)
                    assert np.nonzero(live)[0].tolist() == want_piv
                    assert np.array_equal(table[live][:, :cols], want)
        # Matrices that pivot at different columns (matrix i is zero on its
        # first i % 4 columns), rows zero on the first ncols columns but not
        # after them, and a row equal to another on the first ncols: each
        # table, extra columns included, is the reference elimination
        # pivoting on those columns, row c holding the row that pivots on c.
        ncols, extra = 6, 3
        mats = rng.integers(0, f.q, (12, 5, ncols + extra))
        for i, m in enumerate(mats):
            m[:, : i % 4] = 0
        mats[::3, 1, :ncols] = 0
        mats[1::3, 4, :ncols] = mats[1::3, 2, :ncols]
        mats[2, :, :ncols] = 0
        tables = la.batched_rref(f, mats, ncols)
        for m, table in zip(mats, tables, strict=True):
            want, want_piv = rref_loop(f, m, ncols)
            assert np.array_equal(table[want_piv], want)
            assert not np.delete(table, want_piv, axis=0).any()
        tables = la.batched_rref(f, np.zeros((0, 3, 4), dtype=np.int64), 2)
        assert tables.shape == (0, 2, 4)

    def test_empty_stack(self, gf7):
        kern, nullity = la.batched_right_kernel(gf7, np.zeros((0, 3, 4), dtype=np.int64))
        assert kern.shape == (0, 0, 4) and nullity.shape == (0,)


def leibniz_det(f, m):
    """Independent reference: the sum over permutations of signed products."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        term = 1
        for i, j in enumerate(perm):
            term = f.mul(term, m[i, j])
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total = f.add(total, f.neg(term) if inversions % 2 else term)
    return int(total)


MINOR_FIELDS = [GF(2), GF(7), GF(2, 4, 19), GF(5, 2, 32), GF(3, 7, 2198)]
MINOR_IDS = ["GF2", "GF7", "GF16", "GF25", "GF3^7"]


class TestBatchedMinors:
    """``batched_minors`` of r x (r+1) stacks against ``right_kernel`` and
    against determinants by the Leibniz formula."""

    @pytest.mark.parametrize("f", MINOR_FIELDS, ids=MINOR_IDS)
    def test_spans_the_kernel_at_full_rank(self, f, rng):
        """Every rank from 0 to r (three planted matrices each) and random
        matrices: at rank r the minors are a nonzero multiple of the one
        kernel row, below it they are zero."""
        for r in range(7):
            planted = TestBatchedKernel.planted_stack(f, r, r + 1, rng)
            mats = np.concatenate([planted, rng.integers(0, f.q, (20, r, r + 1))])
            minors = la.batched_minors(f, mats)
            assert minors.shape == (len(mats), r + 1)
            for m, v in zip(mats, minors, strict=True):
                kern = la.right_kernel(f, m)
                if len(kern) == 1:
                    lead = np.nonzero(kern[0])[0][0]
                    scale = f.div(v[lead], kern[0, lead])
                    assert np.array_equal(f.mul(scale, kern[0]), v) and v.any()
                else:
                    assert not v.any()

    @pytest.mark.parametrize("f", MINOR_FIELDS, ids=MINOR_IDS)
    def test_signed_minors_equal_leibniz(self, f, rng):
        for r in range(5):
            mats = rng.integers(0, f.q, (6, r, r + 1))
            minors = la.batched_minors(f, mats)
            for m, v in zip(mats, minors, strict=True):
                want = [leibniz_det(f, np.delete(m, c, axis=1)) for c in range(r + 1)]
                assert v.tolist() == [x if c % 2 == 0 else int(f.neg(x)) for c, x in enumerate(want)]

    def test_small_shapes(self, gf7):
        """r = 0 gives the empty determinant 1, r = 1 the row's
        perpendicular (m01, -m00), and an empty stack no rows."""
        assert la.batched_minors(gf7, np.zeros((3, 0, 1), dtype=np.int64)).tolist() == [[1]] * 3
        assert la.batched_minors(gf7, np.array([[[2, 5]], [[0, 3]]])).tolist() == [[5, 5], [3, 0]]
        assert la.batched_minors(gf7, np.zeros((0, 3, 4), dtype=np.int64)).shape == (0, 4)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 3), (2, 3, 5)])
    def test_shape_refused(self, gf7, shape):
        with pytest.raises(DimensionMismatch, match=r"r x \(r\+1\)"):
            la.batched_minors(gf7, np.ones(shape, dtype=np.int64))


class TestInverse:
    def test_round_trip(self, gf16, rng):
        m = la.random_invertible_pair(gf16, 5, rng)[0]
        mi = la.inverse(gf16, m)
        assert np.array_equal(la.matmul(gf16, m, mi), np.eye(5, dtype=np.int64))

    def test_singular_raises(self, gf7):
        with pytest.raises(SingularMatrix):
            la.inverse(gf7, np.array([[1, 2], [2, 4]]))

    @pytest.mark.parametrize("a", [[[1, 2, 3], [4, 5, 6]], [1, 2]], ids=["non-square", "1-D"])
    def test_non_square_raises(self, gf7, a):
        with pytest.raises(DimensionMismatch):
            la.inverse(gf7, np.array(a))


@pytest.mark.parametrize("shape", [(3, 3), (3,), (2, 2, 2, 2)])
@pytest.mark.parametrize("fn", [la.batched_rank, la.batched_rref])
def test_batched_eliminations_need_a_stack(gf7, fn, shape):
    with pytest.raises(DimensionMismatch, match="stack of matrices"):
        fn(gf7, np.ones(shape, dtype=np.int64))


class TestIntersect:
    def test_self_intersection(self, gf16, rng):
        a = la.random_matrix(gf16, 3, 8, rng)
        inter = la.intersect_rowspaces(gf16, a, a)
        r, _ = la.rref(gf16, a)
        ri, _ = la.rref(gf16, inter)
        assert np.array_equal(r, ri)

    def test_complementary_axes(self, gf7):
        e1 = np.array([[1, 0]])
        e2 = np.array([[0, 1]])
        assert la.intersect_rowspaces(gf7, e1, e2).shape == (0, 2)

    def test_mismatch(self, gf7):
        with pytest.raises(DimensionMismatch):
            la.intersect_rowspaces(gf7, np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64))


def matmul_loop(f, a, b):
    """Reference: a @ b for 2-D a and b, one inner index at a time."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for j in range(a.shape[1]):
        out = f.add(out, f.mul(a[:, j, None], b[j]))
    return out


MATMUL_FIELDS = [GF(2, 4, 19), GF(5, 2, 32), GF(7)]
MATMUL_IDS = ["GF16", "GF25", "GF7"]


class TestMatmul:
    @pytest.mark.parametrize("f", MATMUL_FIELDS, ids=MATMUL_IDS)
    def test_vector_operands(self, f, rng):
        """A 1-D left operand is a row, a 1-D right one a column, and that
        axis is dropped: two vectors give a 0-d inner product."""
        a = la.random_matrix(f, 4, 6, rng)
        u, v, w = rng.integers(0, f.q, 4), rng.integers(0, f.q, 6), rng.integers(0, f.q, 6)
        assert np.array_equal(la.matmul(f, a, v), matmul_loop(f, a, v[:, None])[:, 0])
        assert np.array_equal(la.matmul(f, u, a), matmul_loop(f, u[None, :], a)[0])
        dot = la.matmul(f, v, w)
        assert dot.shape == () and dot == matmul_loop(f, v[None, :], w[:, None])[0, 0]

    @pytest.mark.parametrize("f", MATMUL_FIELDS, ids=MATMUL_IDS)
    def test_stacks(self, f, rng):
        """A stack on the left shares the right matrix or vector; a stack on
        the right is refused, whatever the left operand."""
        a = rng.integers(0, f.q, (5, 3, 4))
        b = la.random_matrix(f, 4, 6, rng)
        want = np.stack([matmul_loop(f, m, b) for m in a])
        assert np.array_equal(la.matmul(f, a, b), want)
        v = rng.integers(0, f.q, 4)
        want_v = np.stack([matmul_loop(f, m, v[:, None])[:, 0] for m in a])
        assert np.array_equal(la.matmul(f, a, v), want_v)
        bs = rng.integers(0, f.q, (5, 4, 6))
        for left in (la.random_matrix(f, 3, 4, rng), v, a):
            with pytest.raises(DimensionMismatch, match="vector or a matrix"):
                la.matmul(f, left, bs)

    @pytest.mark.parametrize("f", MATMUL_FIELDS, ids=MATMUL_IDS)
    def test_empty_row_stack(self, f, rng):
        k, n = 6, 15
        got = la.matmul(f, np.zeros((0, 3, k), dtype=np.int64), la.random_matrix(f, k, n, rng))
        assert got.shape == (0, 3, n)

    def test_two_row_blocks(self, rng, monkeypatch):
        """3000 x 40 @ 40 x 40 is 4.8M products, more than one block of at
        most 2^22: the rows go in two blocks."""
        f = GF(2, 4, 19)
        calls = []
        real_sum = GF.sum

        def counted_sum(self, arr, axis=-1):
            calls.append(arr.shape)
            return real_sum(self, arr, axis)

        # Patch the class: f is the one shared GF(16), and the class patch
        # is what monkeypatch undoes exactly.
        monkeypatch.setattr(GF, "sum", counted_sum)
        a = la.random_matrix(f, 3000, 40, rng)
        b = la.random_matrix(f, 40, 40, rng)
        got = la.matmul(f, a, b)
        monkeypatch.undo()
        assert "sum" not in vars(f)  # the shared field is left as it was
        assert len(calls) == 2 and all(np.prod(shape) <= 1 << 22 for shape in calls)
        assert np.array_equal(got, matmul_loop(f, a, b))

    @pytest.mark.parametrize("f", MATMUL_FIELDS, ids=MATMUL_IDS)
    @pytest.mark.parametrize("extra", [-1, 0, 3], ids=["below-4q", "at-4q", "above-4q"])
    def test_multiples_table(self, f, extra, rng, monkeypatch):
        """``matmul`` builds no table of multiples at any number of rows:
        below, at and above 4q rows it multiplies entry by entry, one
        ``f.mul`` on rows x inner x cols elements.  The rows of a stacked
        left operand count together, and a vector right operand is one
        column."""
        rows = 4 * f.q + extra
        a = rng.integers(0, f.q, (rows, 5))
        b = la.random_matrix(f, 5, 3, rng)
        v = rng.integers(0, f.q, 5)
        sizes = []
        real_mul = GF.mul

        def counted_mul(self, x, y):
            sizes.append(np.broadcast(np.asarray(x), np.asarray(y)).size)
            return real_mul(self, x, y)

        monkeypatch.setattr(GF, "mul", counted_mul)
        got = la.matmul(f, a, b)
        got_stack = la.matmul(f, a.reshape(rows, 1, 5), b)
        got_v = la.matmul(f, a, v)
        monkeypatch.undo()
        assert "mul" not in vars(f)  # the shared field is left as it was
        assert np.array_equal(got, matmul_loop(f, a, b))
        assert np.array_equal(got_stack[:, 0], got)
        assert np.array_equal(got_v, matmul_loop(f, a, v[:, None])[:, 0])
        assert sizes == [rows * 5 * 3] * 2 + [rows * 5]

    @pytest.mark.parametrize("f", MATMUL_FIELDS, ids=MATMUL_IDS)
    @pytest.mark.parametrize("rows", [0, 1, 3, 40])
    def test_table_product(self, f, rows, rng):
        """A ``Fixed`` product off its table of multiples, at any number of
        rows, equals the reference loop, also after a write into the
        caller's matrix; the offsets of the terms' first rows come with the
        table, read-only.  The table is None past 2^20 entries, and the
        product is then ``matmul``'s.  The left operand is one 2-D array."""
        b = la.random_matrix(f, 7, 5, rng)
        fixed = la.Fixed(f, b)
        want_b = b.copy()
        b[:] = 0
        a = rng.integers(0, f.q, (rows, 7))
        assert np.array_equal(fixed.product(a), matmul_loop(f, a, want_b))
        assert fixed._table.shape == (7 * f.q, 5)
        assert fixed._offsets.tolist() == [[m * f.q] for m in range(7)]
        assert not fixed._offsets.flags.writeable
        wide = rng.integers(0, f.q, (1, (1 << 20) // f.q + 1))
        past = la.Fixed(f, wide)
        assert past._table is None
        assert np.array_equal(past.product(a[:, :1]), la.matmul(f, a[:, :1], wide))
        for bad in (a[:, :6], a[:, :1], a.reshape(rows, 1, 7), np.zeros(7, dtype=np.int64)):
            with pytest.raises(DimensionMismatch):
                fixed.product(bad)

    @pytest.mark.parametrize(
        "a_shape,b_shape",
        [((2, 3), (4, 2)), ((3,), (4, 2)), ((2, 3), (4,)), ((3,), (4,)), ((5, 2, 3), (4, 2)),
         ((2, 3), (5, 4, 2)), ((5, 2, 3), (5, 4, 2))],
        ids=["matrix", "row", "column", "vectors", "stack-matrix", "matrix-stack", "stacks"],
    )
    def test_inner_dimension_mismatch(self, gf7, a_shape, b_shape):
        with pytest.raises(DimensionMismatch):
            la.matmul(gf7, np.zeros(a_shape, dtype=np.int64), np.zeros(b_shape, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(MATMUL_FIELDS))
def test_one_block_matches_the_other_paths(data, f):
    """Two 2-D operands are multiplied in one block, directly; the result
    equals the blocked path (a stack of one on the left), the ``Fixed``
    product off the table of multiples (on the rows repeated to 4q or
    more), the reference loop, and, row by row and column by column, the
    1-D forms.  Covers 0 rows, 0 inner, and 4q-1 and 4q rows."""
    q4 = 4 * f.q
    rows = data.draw(st.sampled_from([0, 1, q4 - 1, q4]) | st.integers(0, q4), label="rows")
    inner = data.draw(st.integers(0, 6), label="inner")
    cols = data.draw(st.integers(0, 5), label="cols")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    a = rng.integers(0, f.q, (rows, inner))
    b = rng.integers(0, f.q, (inner, cols))
    got = la.matmul(f, a, b)
    assert got.shape == (rows, cols)
    assert np.array_equal(got, matmul_loop(f, a, b))
    assert np.array_equal(la.matmul(f, a[None], b)[0], got)
    tall = np.tile(a, (q4 // max(rows, 1) + 1, 1))
    assert np.array_equal(la.Fixed(f, b).product(tall)[:rows], got)
    stack = np.stack([a, rng.integers(0, f.q, (rows, inner))])
    assert np.array_equal(la.matmul(f, stack, b)[0], got)
    for i in range(min(rows, 3)):
        assert np.array_equal(la.matmul(f, a[i], b), got[i])
    for j in range(min(cols, 3)):
        assert np.array_equal(la.matmul(f, a, b[:, j]), got[:, j])


def reduce_row_loop(f, r, pivots, v):
    """Reference: eliminate one pivot at a time."""
    v = np.array(v, dtype=np.int64)
    for i, pc in enumerate(pivots):
        if v[pc]:
            v = f.sub(v, f.mul(v[pc], r[i]))
    return v


class TestReduceRow:
    @pytest.mark.parametrize("f", [GF(2, 4, 19), GF(5, 2, 32), GF(7)], ids=["GF16", "GF25", "GF7"])
    @pytest.mark.parametrize("dim", [0, 1, 4, 7])
    def test_matches_loop(self, f, dim, rng):
        """Rows inside and outside the span and zero rows, one at a time and
        as stacks of one and two axes, against the pivot-by-pivot loop; an
        empty basis (dim 0) leaves every row as it is."""
        n = 9
        r, piv = la.rref(f, la.random_matrix(f, dim, n, rng))
        inside = la.matmul(f, la.random_matrix(f, 6, len(piv), rng), r)
        outside = la.random_matrix(f, 6, n, rng)
        vs = np.vstack([inside, outside, np.zeros((2, n), dtype=np.int64)])
        want = np.stack([reduce_row_loop(f, r, piv, v) for v in vs])
        assert not want[:6].any() and want[6:12].any()
        if not piv:
            assert np.array_equal(want, vs)
        for v, w in zip(vs, want):
            assert np.array_equal(la.reduce_row(f, r, piv, v), w)
        assert np.array_equal(la.reduce_row(f, r, piv, vs), want)
        assert np.array_equal(la.reduce_row(f, r, tuple(piv), vs.reshape(2, 7, n)),
                              want.reshape(2, 7, n))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.integers(1, 5),
    st.sampled_from([GF(5), GF(2, 4, 19)]),
)
def test_dimension_formula(seed, da, db, f):
    """dim(A & B) = dim A + dim B - dim(A + B) on random subspaces."""
    rng = np.random.default_rng(seed)
    n = 8
    a = la.random_matrix(f, da, n, rng)
    b = la.random_matrix(f, db, n, rng)
    dim_a = la.rank(f, a)
    dim_b = la.rank(f, b)
    dim_sum = la.rank(f, np.vstack([a, b]))
    dim_inter = la.intersect_rowspaces(f, a, b).shape[0]
    assert dim_inter == dim_a + dim_b - dim_sum


class TestRandomSampling:
    def test_invertible_always_full_rank(self, gf2, rng):
        for k in (1, 2, 5):
            m, mi = la.random_invertible_pair(gf2, k, rng)
            assert la.rank(gf2, m) == k
            assert np.array_equal(la.matmul(gf2, m, mi), np.eye(k, dtype=np.int64))

    def test_invertible_needs_positive_size(self, gf2, rng):
        with pytest.raises(DimensionMismatch, match="k must be >= 1"):
            la.random_invertible_pair(gf2, 0, rng)

    def test_invertible_reproducible(self, gf16):
        m1 = la.random_invertible_pair(gf16, 4, np.random.default_rng(99))[0]
        m2 = la.random_invertible_pair(gf16, 4, np.random.default_rng(99))[0]
        assert np.array_equal(m1, m2)
