"""Linear algebra over GF(q): canonical forms, kernels, solves, sampling."""

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
        s = la.random_invertible(gf16, 4, rng)
        r1, _ = la.rref(gf16, g)
        r2, _ = la.rref(gf16, la.matmul(gf16, s, g))
        if la.rank(gf16, g) == 4:
            assert np.array_equal(r1, r2)


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


# GF(3^7) lies above the table bound, so it adds digit-wise.
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
        early = [np.hstack([la.random_invertible(f, rows, rng)[:, :r],
                            la.random_matrix(f, rows, cols - r, rng)]) for _ in range(8)]
        late = [np.hstack([np.zeros((rows, lead), dtype=np.int64),
                           la.random_invertible(f, rows, rng)[:, : cols - lead]]) for _ in range(8)]
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
        (a random block to the right of the planted one): on the pivoting
        columns the pivot rows are ``rref`` of the planted block and the rows
        past its rank are zero.  Includes a block with no pivoting column
        and an empty stack."""
        for rows, cols in (*self.SHAPES, (4, 0)):
            for extra in (0, 2):
                left = self.planted_stack(f, rows, cols, rng)
                mats = np.concatenate([left, rng.integers(0, f.q, (len(left), rows, extra))], axis=2)
                red, ranks, pivcol = la.batched_rref(f, mats, cols if extra else None)
                for m, r, d, piv in zip(left, red, ranks, pivcol, strict=True):
                    want, want_piv = la.rref(f, m)
                    assert np.array_equal(r[:d, :cols], want)
                    assert piv[:d].tolist() == want_piv
                    assert not r[d:, :cols].any()
                    if not extra:
                        assert not r[d:].any()
        red, ranks, pivcol = la.batched_rref(f, np.zeros((0, 3, 4), dtype=np.int64), 2)
        assert red.shape == (0, 3, 4) and ranks.shape == (0,) and pivcol.shape == (0, 3)

    def test_empty_stack(self, gf7):
        kern, nullity = la.batched_right_kernel(gf7, np.zeros((0, 3, 4), dtype=np.int64))
        assert kern.shape == (0, 0, 4) and nullity.shape == (0,)


class TestInverse:
    def test_round_trip(self, gf16, rng):
        m = la.random_invertible(gf16, 5, rng)
        mi = la.inverse(gf16, m)
        assert np.array_equal(la.matmul(gf16, m, mi), np.eye(5, dtype=np.int64))

    def test_singular_raises(self, gf7):
        with pytest.raises(SingularMatrix):
            la.inverse(gf7, np.array([[1, 2], [2, 4]]))


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
        """A stack against a 2-D matrix or a vector, a matrix or a vector
        against a stack, and two stacks whose leading axes broadcast."""
        a = rng.integers(0, f.q, (5, 3, 4))
        b = la.random_matrix(f, 4, 6, rng)
        want = np.stack([matmul_loop(f, m, b) for m in a])
        assert np.array_equal(la.matmul(f, a, b), want)
        v = rng.integers(0, f.q, 4)
        want_v = np.stack([matmul_loop(f, m, v[:, None])[:, 0] for m in a])
        assert np.array_equal(la.matmul(f, a, v), want_v)
        bs = rng.integers(0, f.q, (5, 4, 6))
        c = la.random_matrix(f, 3, 4, rng)
        assert np.array_equal(la.matmul(f, c, bs), np.stack([matmul_loop(f, c, m) for m in bs]))
        want_row = np.stack([matmul_loop(f, v[None, :], m)[0] for m in bs])
        assert np.array_equal(la.matmul(f, v, bs), want_row)
        left = rng.integers(0, f.q, (2, 1, 3, 4))
        got = la.matmul(f, left, bs)
        assert got.shape == (2, 5, 3, 6)
        for i in range(2):
            for j in range(5):
                assert np.array_equal(got[i, j], matmul_loop(f, left[i, 0], bs[j]))

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
        """Against one right operand, 4q rows or more read their products off
        the table of multiples, one ``f.mul`` on q x inner x cols elements;
        fewer rows multiply entry by entry.  The rows of a stacked left
        operand count together, and a vector right operand is one column."""
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
        per_call = [f.q * 5 * 3, f.q * 5 * 3, f.q * 5] if extra >= 0 else [rows * 5 * 3] * 2 + [rows * 5]
        assert sizes == per_call

    @pytest.mark.parametrize(
        "a_shape,b_shape",
        [((2, 3), (4, 2)), ((3,), (4, 2)), ((2, 3), (4,)), ((3,), (4,)), ((5, 2, 3), (4, 2)),
         ((2, 3), (5, 4, 2)), ((5, 2, 3), (5, 4, 2))],
        ids=["matrix", "row", "column", "vectors", "stack-matrix", "matrix-stack", "stacks"],
    )
    def test_inner_dimension_mismatch(self, gf7, a_shape, b_shape):
        with pytest.raises(DimensionMismatch):
            la.matmul(gf7, np.zeros(a_shape, dtype=np.int64), np.zeros(b_shape, dtype=np.int64))


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
            m = la.random_invertible(gf2, k, rng)
            assert la.rank(gf2, m) == k

    def test_invertible_reproducible(self, gf16):
        m1 = la.random_invertible(gf16, 4, np.random.default_rng(99))
        m2 = la.random_invertible(gf16, 4, np.random.default_rng(99))
        assert np.array_equal(m1, m2)
