"""Codes, duality, star products and the square-code distinguisher."""

import tracemalloc

import numpy as np
import pytest

from grs_squarebreak import grs, linalg as la
from grs_squarebreak.codes import (
    FullSpaceDual,
    ZeroMatrix,
    code_from_generator,
    distinguish,
    random_code,
)
from grs_squarebreak.gf import GF
from grs_squarebreak.linalg import DimensionMismatch


class TestCanonicalization:
    def test_identity_full_space(self, gf7):
        c = code_from_generator(gf7, np.eye(3, dtype=np.int64))
        assert c.k == c.n == 3

    def test_dependent_rows_collapse(self, gf7):
        c = code_from_generator(gf7, np.array([[1, 2, 3], [2, 4, 6]]))
        assert c.k == 1

    def test_two_bases_same_value(self, gf16, rng):
        g = la.random_matrix(gf16, 3, 8, rng)
        while la.rank(gf16, g) != 3:
            g = la.random_matrix(gf16, 3, 8, rng)
        s = la.random_invertible_pair(gf16, 3, rng)[0]
        assert code_from_generator(gf16, g) == code_from_generator(gf16, la.matmul(gf16, s, g))

    def test_zero_matrix_rejected(self, gf7):
        with pytest.raises(ZeroMatrix):
            code_from_generator(gf7, np.zeros((2, 4), dtype=np.int64))

    def test_contains(self, gf16, rng):
        c = random_code(gf16, 3, 9, rng)
        assert c.contains(np.zeros(9, dtype=np.int64))
        for row in c.gen:
            assert c.contains(row)
        v = rng.integers(0, 16, 9)
        expected = la.rank(gf16, np.vstack([c.gen, v[None, :]])) == c.k
        assert c.contains(v) == expected
        with pytest.raises(DimensionMismatch):
            c.contains(np.zeros(5, dtype=np.int64))


class TestDual:
    def test_repetition_code(self, gf7):
        rep = code_from_generator(gf7, np.ones((1, 5), dtype=np.int64))
        d = rep.dual()
        assert d.k == 4
        assert not la.matmul(gf7, d.gen, rep.gen.T).any()

    def test_involution(self, gf16, rng):
        c = random_code(gf16, 4, 10, rng)
        assert c.dual().dual() == c

    def test_full_space_dual_raises(self, gf7):
        c = code_from_generator(gf7, np.eye(2, dtype=np.int64))
        with pytest.raises(FullSpaceDual):
            c.dual()

    def test_grs_dual_square_dimension(self, gf16, rng):
        # dual of GRS_k has a square of dimension min(2(n-k)-1, n)
        for k in (4, 6, 10):
            p = grs.random_params(gf16, 15, k, rng)
            d = grs.code(p).dual()
            assert d.square().k == min(2 * (15 - k) - 1, 15)


class TestStarProduct:
    def test_componentwise_vectors(self, gf7):
        assert gf7.mul(np.array([1, 2, 3]), np.array([2, 0, 1])).tolist() == [2, 0, 3]

    def test_all_ones_is_identity(self, gf16, rng):
        c = random_code(gf16, 4, 12, rng)
        ones = code_from_generator(gf16, np.ones((1, 12), dtype=np.int64))
        assert c.star(ones) == c

    def test_grs_degrees_add(self, gf16, rng):
        p3 = grs.random_params(gf16, 15, 3, rng)
        p2 = grs.GrsParams(gf16, p3.x, p3.y, 2)
        prod = grs.code(p3).star(grs.code(p2))
        assert prod.k == 4  # k1 + k2 - 1

    def test_dimension_bound(self, gf16, rng):
        for _ in range(20):
            a = random_code(gf16, rng.integers(1, 4), 10, rng)
            b = random_code(gf16, rng.integers(1, 4), 10, rng)
            assert a.star(b).k <= a.k * b.k

    def test_commutative_and_monotone(self, gf16, rng):
        a = random_code(gf16, 2, 10, rng)
        b = random_code(gf16, 3, 10, rng)
        assert a.star(b) == b.star(a)
        bigger = code_from_generator(
            gf16, np.vstack([a.gen, la.random_matrix(gf16, 1, 10, rng)])
        )
        prod_small = a.star(b)
        prod_big = bigger.star(b)
        for row in prod_small.gen:
            assert prod_big.contains(row)

    def test_mismatch(self, gf16, gf7, rng):
        a = random_code(gf16, 2, 8, rng)
        b = random_code(gf16, 2, 9, rng)
        with pytest.raises(DimensionMismatch):
            a.star(b)


class TestSquare:
    def test_grs_square_exact_law(self, gf16, rng):
        for k in (2, 4, 6, 8):
            p = grs.random_params(gf16, 15, k, rng)
            sq = grs.code(p).square()
            if 2 * k - 1 < 15:
                expected = grs.code(grs.GrsParams(gf16, p.x, gf16.mul(p.y, p.y), 2 * k - 1))
            else:  # the law saturates: degree-2k-2 evaluations fill the space
                expected = code_from_generator(gf16, np.eye(15, dtype=np.int64))
            assert sq == expected

    @pytest.mark.parametrize("f", [GF(2, 4, 19), GF(5, 2, 32)], ids=["GF16", "GF25"])
    def test_square_equals_self_star(self, f, rng):
        """The i <= j products span the same code as all k^2 products."""
        for k in range(1, 8):
            c = random_code(f, k, 15, rng)
            assert c.square() == c.star(c)

    @pytest.mark.parametrize(
        "f", [GF(2, 4, 19), GF(5, 2, 32), GF(17)], ids=["GF16", "GF25", "GF17"]
    )
    def test_blocks_equal_the_one_shot_rref(self, f, rng):
        """Random and GRS codes of length 15 with k up to 12, so k(k+1)/2
        exceeds n from k = 5 on and the products fill several blocks; a GRS
        code of k < 8 never spans n and is ranked block after block."""
        for k in range(1, 13):
            for c in (random_code(f, k, 15, rng), grs.code(grs.random_params(f, 15, k, rng))):
                i, j = np.triu_indices(k)
                r, pivots = la.rref(f, f.mul(c.gen[i], c.gen[j]))
                sq = c.square()
                assert np.array_equal(sq.gen, r) and sq.pivots == tuple(pivots)

    @pytest.mark.parametrize(
        "gen, dim, limit",
        [
            (np.random.default_rng(0).integers(0, 2, (200, 400)), 400, 32),
            # Zero on half the coordinates: the square never spans n, so all
            # 30 blocks of the 7140 products are ranked.
            (np.hstack([np.random.default_rng(1).integers(0, 2, (120, 120)),
                        np.zeros((120, 120), dtype=np.int64)]), 120, 8),
        ],
        ids=["random-200x400", "half-support-120x240"],
    )
    def test_memory_is_bounded_by_n(self, gen, dim, limit):
        """Peak traced memory of ``square`` on GF(2) codes with thousands of
        products stays within ``limit`` MiB; one matrix of all the products
        peaks at 217 MiB and 39 MiB."""
        c = code_from_generator(GF(2), gen)
        tracemalloc.start()
        try:
            sq = c.square()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sq.k == dim
        assert peak < limit * 2**20

    def test_k1_square_dim1(self, gf16, rng):
        p = grs.random_params(gf16, 15, 1, rng)
        assert grs.code(p).square().k == 1

    def test_random_square_dim_majority(self, gf16):
        # random k=3 codes square to C(4,2) = 6 in the majority of draws
        hits = 0
        for seed in range(100):
            c = random_code(gf16, 3, 15, np.random.default_rng(seed))
            hits += c.square().k == 6
        assert hits > 50


class TestDistinguish:
    def test_grs6_nongeneric(self, gf16, rng):
        rep = distinguish(grs.code(grs.random_params(gf16, 15, 6, rng)))
        assert (rep.square_dim, rep.generic_dim, rep.verdict) == (11, 15, "NonGeneric")
        assert rep.dual_square_dim is None

    def test_random_code_generic(self, gf16):
        verdicts = [
            distinguish(random_code(gf16, 6, 15, np.random.default_rng(seed))).verdict
            for seed in range(12)
        ]
        assert verdicts.count("Generic") >= 10

    def test_k1_generic(self, gf16, rng):
        rep = distinguish(random_code(gf16, 1, 8, rng))
        assert rep.square_dim == rep.generic_dim == 1
        assert rep.verdict == "Generic"

    def test_high_rate_dual_side(self, gf16, rng):
        rep = distinguish(grs.code(grs.random_params(gf16, 15, 10, rng)))
        assert rep.verdict == "Generic"  # primal square saturates at n
        assert rep.dual_square_dim == 2 * (15 - 10) - 1 == 9
        assert rep.dual_generic_dim == 15
        assert rep.dual_verdict == "NonGeneric"
