"""The key-recovery pipeline, tested against secret-key oracles."""

import numpy as np
import pytest

from grs_squarebreak import attack as atk
from grs_squarebreak import grs, linalg as la, scheme
from grs_squarebreak.attack import (
    AttackConfig,
    AttackStats,
    Branch,
    NotApplicable,
    TrialBudgetExceeded,
)
from grs_squarebreak.codes import code_from_generator, random_code, star_rows
from grs_squarebreak.gf import GF
from grs_squarebreak.scheme import DecryptionFailure

from conftest import genuine_tie


@pytest.fixture(scope="module")
def gf16m():
    return GF(2, 4, 19)


@pytest.fixture(scope="module")
def low_rate_key(gf16m):
    pk, sk = scheme.keygen(gf16m, 15, 6, np.random.default_rng(42))
    return pk, sk


@pytest.fixture(scope="module")
def low_rate_attack(gf16m, low_rate_key):
    pk, sk = low_rate_key
    rk, st = atk.recover_key(pk, AttackConfig(seed=7))
    return rk, st


@pytest.fixture(scope="module")
def dual_key(gf16m):
    pk, sk = scheme.keygen(gf16m, 15, 9, np.random.default_rng(5))
    return pk, sk


@pytest.fixture(scope="module")
def dual_attack(gf16m, dual_key):
    pk, sk = dual_key
    rk, st = atk.recover_key(pk, AttackConfig(seed=11))
    return rk, st


def true_shared_subcode(f, pk, sk):
    pub = code_from_generator(f, pk.g_pub)
    c_code = grs.code(scheme.masked_params(sk))
    return code_from_generator(f, la.intersect_rowspaces(f, pub.gen, c_code.gen))


class TestApplicability:
    @pytest.mark.parametrize(
        "n,k,expected",
        [
            (15, 6, Branch.LOW_RATE),
            (15, 9, Branch.HIGH_RATE_DUAL),
            (15, 7, None),
            (15, 8, None),
            (31, 9, Branch.LOW_RATE),
            (31, 24, Branch.HIGH_RATE_DUAL),
            (15, 5, None),  # 2k+2 < n but k < 6: rank-test gap empty
        ],
    )
    def test_branch_table(self, n, k, expected):
        assert atk.applicable_branch(n, k) == expected


class TestRankTestBounds:
    def test_forced_triples_stay_bounded(self, gf16m, low_rate_key):
        """Triples drawn inside the true shared subcode never exceed 2k+2."""
        f = gf16m
        pk, sk = low_rate_key
        sub = true_shared_subcode(f, pk, sk)
        pub = code_from_generator(f, pk.g_pub)
        rng = np.random.default_rng(0)
        for _ in range(50):
            zs = la.matmul(f, la.random_matrix(f, 3, sub.k, rng), sub.gen)
            rows = f.mul(zs[:, None, :], pub.gen[None, :, :]).reshape(-1, 15)
            assert la.rank(f, rows) <= 2 * sk.k + 2

    def test_random_triples_bounded_by_3k_minus_3(self, gf16m, low_rate_key):
        f = gf16m
        pk, sk = low_rate_key
        pub = code_from_generator(f, pk.g_pub)
        rng = np.random.default_rng(1)
        for _ in range(50):
            zs = la.matmul(f, la.random_matrix(f, 3, sk.k, rng), pub.gen)
            rows = f.mul(zs[:, None, :], pub.gen[None, :, :]).reshape(-1, 15)
            assert la.rank(f, rows) <= min(3 * sk.k - 3, 15)

    def test_random_triples_typical_value_uncapped(self):
        """At GF(32), n=31, k=9 the generic span hits 3k-3 = 24 most draws."""
        f = GF(2, 5, 37)
        pk, sk = scheme.keygen(f, 31, 9, np.random.default_rng(2))
        pub = code_from_generator(f, pk.g_pub)
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(30):
            zs = la.matmul(f, la.random_matrix(f, 3, 9, rng), pub.gen)
            rows = f.mul(zs[:, None, :], pub.gen[None, :, :]).reshape(-1, 31)
            hits += la.rank(f, rows) == 24
        assert hits >= 27

    def test_product_containment_with_secret_mask(self, gf16m, low_rate_key):
        """For z_i in the shared subcode, every z_i * g_j lies inside
        square(C) + <z_1 * a> + <z_2 * a> + <z_3 * a>."""
        f = gf16m
        pk, sk = low_rate_key
        sub = true_shared_subcode(f, pk, sk)
        pub = code_from_generator(f, pk.g_pub)
        c_sq = grs.code(scheme.masked_params(sk)).square()
        rng = np.random.default_rng(4)
        for _ in range(10):
            zs = la.matmul(f, la.random_matrix(f, 3, sub.k, rng), sub.gen)
            space = np.vstack([c_sq.gen, f.mul(zs, sk.a[None, :])])
            space_code_rank = la.rank(f, space)
            rows = f.mul(zs[:, None, :], pub.gen[None, :, :]).reshape(-1, 15)
            assert la.rank(f, np.vstack([space, rows])) == space_code_rank


# (field, n, k, keygen seed, attacked side): the code each point's rank test
# runs on, the public code or (for the rate-9/15 key) its dual.  The GF(16)
# key of seed 69 is the public code with RREF pivots (0, 1, 2, 3, 4, 6), not
# 0..k-1 as at every other point: ``triple_ranks`` must reorder its columns.
PIVOT_GAP_SEED = 69
RANK_POINTS = [
    ((2, 4, 19), 15, 6, 42, "primal"),
    ((2, 4, 19), 15, 6, PIVOT_GAP_SEED, "primal"),
    ((2, 4, 19), 15, 9, 5, "dual"),
    ((5, 2, 32), 16, 6, 5, "primal"),
    ((17,), 16, 6, 3, "primal"),
    ((2, 5, 37), 31, 9, 2, "primal"),
]


@pytest.fixture(
    scope="module",
    params=RANK_POINTS,
    ids=["GF16-15-6", "GF16-15-6-gap", "GF16-15-9-dual", "GF25-16-6", "GF17-16-6", "GF32-31-9"],
)
def rank_point(request):
    field, n, k, seed, side = request.param
    f = GF(*field)
    pk, sk = scheme.keygen(f, n, k, np.random.default_rng(seed))
    target = code_from_generator(f, pk.g_pub)
    hidden = scheme.masked_params(sk)
    if side == "dual":
        target, hidden = target.dual(), grs.dual_params(hidden)
    assert (target.pivots == tuple(range(target.k))) == (seed != PIVOT_GAP_SEED)
    sub = code_from_generator(f, la.intersect_rowspaces(f, target.gen, grs.code(hidden).gen))
    assert sub.k == target.k - 1
    return f, target, sub


def triples(f, code, coeffs):
    """Codewords coeffs (b, 3, k) times the code's RREF generator; on the
    pivot columns they read back the coefficients."""
    return f.sum(f.mul(coeffs[:, :, :, None], code.gen[None, None, :, :]), axis=2)


class TestTripleRanks:
    """``triple_ranks`` (Schur complement, with a full fallback) against the
    rank of all the products z_i * g_j."""

    @staticmethod
    def full_ranks(f, code, zs):
        return la.batched_rank(f, star_rows(f, zs, code.gen)).tolist()

    @staticmethod
    def schur_share(code, zs):
        return (zs[:, :, list(code.pivots)] != 0).all(axis=2).any(axis=1).mean()

    def test_random_triples_with_forced_fallbacks(self, rank_point):
        f, pub, _sub = rank_point
        rng = np.random.default_rng(0)
        coeffs = rng.integers(0, f.q, (120, 3, pub.k))
        # A pivot coordinate zero in all three members leaves no z_a.
        coeffs[np.arange(0, 120, 3), :, rng.integers(0, pub.k, 40)] = 0
        zs = triples(f, pub, coeffs)
        assert 0 < self.schur_share(pub, zs) < 1
        assert atk.triple_ranks(pub, zs).tolist() == self.full_ranks(f, pub, zs)

    def test_subcode_triples(self, rank_point):
        f, pub, sub = rank_point
        rng = np.random.default_rng(1)
        zs = triples(f, sub, rng.integers(0, f.q, (60, 3, sub.k)))
        ranks = atk.triple_ranks(pub, zs).tolist()
        assert ranks == self.full_ranks(f, pub, zs)
        assert max(ranks) <= 2 * pub.k + 2

    def test_all_schur_batch(self, rank_point):
        f, pub, _sub = rank_point
        rng = np.random.default_rng(2)
        zs = triples(f, pub, rng.integers(1, f.q, (60, 3, pub.k)))
        assert self.schur_share(pub, zs) == 1
        assert atk.triple_ranks(pub, zs).tolist() == self.full_ranks(f, pub, zs)

    def test_all_fallback_batch(self, rank_point):
        f, pub, _sub = rank_point
        rng = np.random.default_rng(3)
        coeffs = rng.integers(0, f.q, (60, 3, pub.k))
        coeffs[np.arange(60), :, rng.integers(0, pub.k, 60)] = 0
        zs = triples(f, pub, coeffs)
        assert self.schur_share(pub, zs) == 0
        assert atk.triple_ranks(pub, zs).tolist() == self.full_ranks(f, pub, zs)

    def test_member_sum_replaces_the_fallback(self, rank_point, monkeypatch):
        """Member i is zero on pivot i (i < 3) and nonzero on the others, so
        no member is nonzero on every pivot; where z0 + z1 vanishes on a
        pivot, z1 is scaled there by 2 (not 1, so the sum is nonzero), which
        makes z0 + z1 pivot-complete.  No triple is ranked in full, and the
        caller's stack is left as it was."""
        f, pub, _sub = rank_point
        k = pub.k
        rng = np.random.default_rng(5)
        coeffs = rng.integers(1, f.q, (60, 3, k))
        coeffs[:, [0, 1, 2], [0, 1, 2]] = 0
        clash = f.add(coeffs[:, 0], coeffs[:, 1]) == 0
        coeffs[:, 1][clash] = f.mul(coeffs[:, 1][clash], 2)
        zs = triples(f, pub, coeffs)
        before = zs.copy()
        assert self.schur_share(pub, zs) == 0
        assert (f.add(zs[:, 0], zs[:, 1])[:, list(pub.pivots)] != 0).all()
        shapes = []
        real_rank = la.batched_rank

        def spy(f, mats):
            shapes.append(np.shape(mats))
            return real_rank(f, mats)

        monkeypatch.setattr(atk.linalg, "batched_rank", spy)
        ranks = atk.triple_ranks(pub, zs).tolist()
        monkeypatch.undo()
        assert ranks == self.full_ranks(f, pub, zs)
        assert shapes and all(s[1] == 2 * k - 3 for s in shapes)
        assert np.array_equal(zs, before)

    def test_dependent_members(self, rank_point):
        """Member b a multiple of z_a, z_c = z_a + z_b, both other members
        multiples of z_a, and z_c with one ratio to z_a on the first and the
        last pivot: the weights of the z_b * z_c relation then vanish in
        part, everywhere (both blocks are zero), or on the first row."""
        f, pub, _sub = rank_point
        k = pub.k
        rng = np.random.default_rng(4)
        coeffs = rng.integers(0, f.q, (120, 3, k))
        coeffs[:, 0] = rng.integers(1, f.q, (120, k))  # z_a is member 0
        scale = rng.integers(0, f.q, (120, 2, 1))
        coeffs[:30, 1] = f.mul(scale[:30, 0], coeffs[:30, 0])
        coeffs[30:60, 2] = f.add(coeffs[30:60, 0], coeffs[30:60, 1])
        coeffs[60:90, 1:] = f.mul(scale[60:90], coeffs[60:90, None, 0])
        ratio = f.div(coeffs[90:, 2, k - 1], coeffs[90:, 0, k - 1])
        coeffs[90:, 2, 0] = f.mul(ratio, coeffs[90:, 0, 0])
        zs = triples(f, pub, coeffs)
        ranks = atk.triple_ranks(pub, zs).tolist()
        assert ranks == self.full_ranks(f, pub, zs)
        assert set(ranks[60:90]) == {k}


class TestFindSharedSubcode:
    def test_matches_secret_intersection(self, gf16m, low_rate_key):
        f = gf16m
        pk, sk = low_rate_key
        pub = code_from_generator(f, pk.g_pub)
        found = atk.find_shared_subcode(pub, AttackConfig(), np.random.default_rng(21))
        assert found == true_shared_subcode(f, pk, sk)

    def test_pivots_not_leading(self, gf16m):
        """The search draws, ranks and solves in the column order
        [pivots | free] and maps the subcode back through the public
        generator.  The counters are pinned: the order changes no draw or
        decision."""
        f = gf16m
        pk, sk = scheme.keygen(f, 15, 6, np.random.default_rng(PIVOT_GAP_SEED))
        pub = code_from_generator(f, pk.g_pub)
        assert pub.pivots != tuple(range(6))
        stats = AttackStats()
        found = atk.find_shared_subcode(pub, AttackConfig(), np.random.default_rng(21), stats)
        assert found == true_shared_subcode(f, pk, sk)
        assert (stats.outer_trials, stats.inner_trials, stats.restarts) == (739, 11, 51)

    def test_not_applicable_for_small_k(self, gf16m, rng):
        pub = code_from_generator(gf16m, la.random_matrix(gf16m, 4, 15, rng))
        with pytest.raises(NotApplicable):
            atk.find_shared_subcode(pub, AttackConfig(), rng)

    def test_budget_exhaustion(self, gf16m, low_rate_key):
        pk, _sk = low_rate_key
        pub = code_from_generator(gf16m, pk.g_pub)
        with pytest.raises(TrialBudgetExceeded):
            atk.find_shared_subcode(
                pub, AttackConfig(max_outer_trials=5), np.random.default_rng(1)
            )


# (field, n, k, keygen seed): n - (2k+2) = 1 at (15, 6), so a subcode triple
# leaves a single form there; two forms at (16, 6), more at length 31.
SOLVE_POINTS = [
    ((2, 4, 19), 15, 6, 42),
    ((2, 4, 19), 15, 6, PIVOT_GAP_SEED),
    ((5, 2, 32), 16, 6, 5),
    ((17,), 16, 6, 3),
    ((2, 5, 37), 31, 9, 2),
    ((2, 5, 37), 31, 12, 2),
]


@pytest.fixture(
    scope="module",
    params=SOLVE_POINTS,
    ids=["GF16-15-6", "GF16-15-6-gap", "GF25-16-6", "GF17-16-6", "GF32-31-9", "GF32-31-12"],
)
def solve_point(request):
    field, n, k, seed = request.param
    f = GF(*field)
    pk, sk = scheme.keygen(f, n, k, np.random.default_rng(seed))
    return f, code_from_generator(f, pk.g_pub), true_shared_subcode(f, pk, sk)


# Odd characteristic at (15, 6), where a subcode triple leaves one form:
# (field, keygen seed).  Not in SOLVE_POINTS, since a few subcode triples
# there span fewer than 2k+2 dimensions and break the kernel-sum law.
ODD_POINTS = [((17,), 3), ((5, 2, 32), 5)]
ODD_IDS = ["GF17-15-6", "GF25-15-6"]


def kernel_sum_dims(f, pub, zs):
    """Check ``kernel_sums`` of the triples zs against a reference built one
    triple and one form at a time with right_kernel and rref: the forms, and
    the sum of their kernels as a table indexed by pivot column.  Returns
    the dimensions of the sums."""
    k = pub.k
    squares = star_rows(f, pub.gen, pub.gen)
    sums, forms = atk.kernel_sums(pub, zs)
    assert sums.shape == (len(zs), k, k)
    dims = []
    for zs_i, table, forms_i in zip(zs, sums, forms, strict=True):
        perp = la.right_kernel(f, star_rows(f, zs_i, pub.gen))
        want_forms = la.matmul(f, perp, squares.T).reshape(-1, k, k)
        assert np.array_equal(forms_i[: len(perp)], want_forms) and not forms_i[len(perp) :].any()
        kernels = [la.right_kernel(f, m) for m in want_forms if m.any()]
        want, want_piv = la.rref(f, np.vstack(kernels)) if kernels else (table[:0], [])
        live = table.any(axis=1)
        assert np.nonzero(live)[0].tolist() == want_piv
        assert np.array_equal(table[live], want)
        dims.append(len(want_piv))
    return np.array(dims)


class TestSolveSubcode:
    def test_subcode_triples_return_the_subcode(self, solve_point):
        f, pub, sub = solve_point
        rng = np.random.default_rng(0)
        for _ in range(20):
            zs = la.matmul(f, la.random_matrix(f, 3, sub.k, rng), sub.gen)
            assert atk.solve_subcode(pub, zs, AttackStats()) == sub

    def test_random_triples_yield_no_subcode(self, solve_point):
        """No candidate from a random public triple obeys the square law, so
        the linear solve is also the filter for false rank-test passes."""
        f, pub, _sub = solve_point
        rng = np.random.default_rng(1)
        for _ in range(200):
            zs = la.matmul(f, la.random_matrix(f, 3, pub.k, rng), pub.gen)
            assert atk.solve_subcode(pub, zs, AttackStats()) is None

    def test_kernel_sums_match_reference(self, solve_point):
        """The lockstep kernel sums of 20 subcode triples and 200 random
        public triples match the reference; every triple the search
        rejects on its kernel sum leaves inner_trials unchanged."""
        f, pub, sub = solve_point
        k = pub.k
        rng = np.random.default_rng(2)
        zs = np.concatenate([
            triples(f, sub, rng.integers(0, f.q, (20, 3, sub.k))),
            triples(f, pub, rng.integers(0, f.q, (200, 3, k))),
        ])
        dims = kernel_sum_dims(f, pub, zs)
        assert set(dims[:20].tolist()) <= {k - 1, k - 2}
        rejected = 0
        for zs_i, d in zip(zs, dims, strict=True):
            if d not in (k - 1, k - 2):
                rejected += 1
                stats = AttackStats()
                assert atk.solve_subcode(pub, zs_i, stats) is None
                assert stats.inner_trials == 0
        assert rejected > 0

    @pytest.mark.parametrize("field,seed", ODD_POINTS, ids=ODD_IDS)
    def test_kernel_sums_match_reference_in_odd_characteristic(self, field, seed):
        """At (15, 6) in odd characteristic the lockstep kernel sums of 100
        subcode triples and 200 random public triples match the reference.
        The law (dimension k-1 or k-2) holds for the independent subcode
        triples whose products span 2k+2; the others may sum to less."""
        f = GF(*field)
        pk, sk = scheme.keygen(f, 15, 6, np.random.default_rng(seed))
        pub, sub = code_from_generator(f, pk.g_pub), true_shared_subcode(f, pk, sk)
        k = pub.k
        rng = np.random.default_rng(3)
        inside = triples(f, sub, rng.integers(0, f.q, (100, 3, sub.k)))
        zs = np.concatenate([inside, triples(f, pub, rng.integers(0, f.q, (200, 3, k)))])
        dims = kernel_sum_dims(f, pub, zs)[:100]
        spans = la.batched_rank(f, star_rows(f, inside, pub.gen))
        lawful = (la.batched_rank(f, inside) == 3) & (spans == 2 * k + 2)
        assert lawful.sum() > 50
        assert set(dims[lawful].tolist()) <= {k - 1, k - 2}

    @pytest.mark.parametrize("field,seed", ODD_POINTS, ids=ODD_IDS)
    def test_isotropic_line_in_odd_characteristic(self, field, seed):
        """At (15, 6) an independent subcode triple whose products span 2k+2
        leaves one rank-2 form, whose kernel is a hyperplane of the subcode
        (dimension k-2); one isotropic line of a complement completes it.
        In odd characteristic the cross terms of v^T M v do not cancel, so
        a test on the diagonal terms alone finds the wrong lines."""
        f = GF(*field)
        pk, sk = scheme.keygen(f, 15, 6, np.random.default_rng(seed))
        pub, sub = code_from_generator(f, pk.g_pub), true_shared_subcode(f, pk, sk)
        k = pub.k
        zs = triples(f, sub, np.random.default_rng(0).integers(0, f.q, (100, 3, sub.k)))
        spans = la.batched_rank(f, star_rows(f, zs, pub.gen))
        zs = zs[(la.batched_rank(f, zs) == 3) & (spans == 2 * k + 2)][:20]
        assert len(zs) == 20
        sums, _forms = atk.kernel_sums(pub, zs)
        assert sums.any(axis=2).sum(axis=1).tolist() == [k - 2] * 20
        for zs_i in zs:
            assert atk.solve_subcode(pub, zs_i, AttackStats()) == sub


@pytest.mark.parametrize(
    "field,n,k,seed", [((2, 4, 19), 15, 6, 42), ((5, 2, 32), 16, 6, 5)], ids=["GF16", "GF25"]
)
def test_empty_stack_of_triples(field, n, k, seed):
    """An empty batch of triples gives empty products and empty kernel sums."""
    f = GF(*field)
    pk, _sk = scheme.keygen(f, n, k, np.random.default_rng(seed))
    pub = code_from_generator(f, pk.g_pub)
    zs = np.zeros((0, 3, n), dtype=np.int64)
    assert star_rows(f, zs, pub.gen).shape == (0, 3 * k, n)
    sums, forms = atk.kernel_sums(pub, zs)
    assert sums.shape == (0, k, k) and len(forms) == 0


class TestRecoverSecretGrs:
    def test_reconstructs_hidden_code(self, gf16m, low_rate_key):
        f = gf16m
        pk, sk = low_rate_key
        sub = true_shared_subcode(f, pk, sk)
        assert sub.square().k == 2 * sk.k - 1
        params = atk.recover_secret_grs(sub, sk.k)
        assert grs.code(params) == grs.code(scheme.masked_params(sk))

    def test_char2_sqrt_shortcut_agrees(self, gf16m, low_rate_key):
        """The multipliers read off the subcode square to multipliers of the
        subcode's square: GRS_{2k-1}(x, y^2) is sub.square()."""
        f = gf16m
        pk, sk = low_rate_key
        sub = true_shared_subcode(f, pk, sk)
        sq_params = grs.ss_recover(sub.square())
        y_solve = grs.recover_multipliers(sq_params.x, sk.k, sub)
        assert y_solve is not None
        squared = grs.GrsParams(f, sq_params.x, f.mul(y_solve, y_solve), 2 * sk.k - 1)
        assert grs.code(squared) == sub.square()

    def test_reconstructs_hidden_code_at_paper_scale(self):
        """GF(256), n = 255, k = 60: the shared subcode of keygen seed 0
        gives back the hidden code."""
        f = GF(2, 8, 285)
        pk, sk = scheme.keygen(f, 255, 60, np.random.default_rng(0))
        params = atk.recover_secret_grs(true_shared_subcode(f, pk, sk), sk.k)
        assert grs.code(params) == grs.code(scheme.masked_params(sk))

    def test_wrong_subcode_rejected(self, gf16m, rng):
        f = gf16m
        g = la.random_matrix(f, 5, 15, rng)
        while la.rank(f, g) != 5:
            g = la.random_matrix(f, 5, 15, rng)
        with pytest.raises(grs.NotGrs):
            atk.recover_secret_grs(code_from_generator(f, g), 6)

    @pytest.mark.parametrize("k,dim", [(7, 5), (9, 8)], ids=["dim-below-k-1", "2k-1-above-n"])
    def test_subcode_of_the_wrong_dimension_rejected(self, gf16m, low_rate_key, rng, k, dim):
        """Only a (k-1)-dimensional subcode of a code with 2k-1 <= n can come
        from GRS_k: the true 5-dimensional subcode is refused at k = 7, and
        an 8-dimensional code at k = 9 (2k-1 = 17 > n = 15)."""
        f = gf16m
        pk, sk = low_rate_key
        sub = true_shared_subcode(f, pk, sk) if dim == 5 else random_code(f, dim, 15, rng)
        with pytest.raises(grs.NotGrs, match=f"subcode of dimension {dim} cannot come from k={k}"):
            atk.recover_secret_grs(sub, k)


class TestRecoverValidPair:
    def test_constructed_pair_is_valid(self, gf16m, low_rate_key):
        f = gf16m
        pk, sk = low_rate_key
        pub = code_from_generator(f, pk.g_pub)
        c_code = grs.code(scheme.masked_params(sk))
        a0, lam0, inter = atk.recover_valid_pair(pub, c_code)
        assert la.matmul(f, a0, lam0) == 0  # orthogonal by construction, != -1
        assert atk.pair_is_valid(pub, c_code, a0, lam0)
        assert la.rank(f, inter) == pk.k - 1
        assert all(pub.contains(row) and c_code.contains(row) for row in inter)

    def test_skips_kernel_rows_orthogonal_to_p1(self, gf7):
        """With c = <e0, e3 + e4> and pub = <e0, e1>, p1 = e3 + e4 and
        p2 = e1; the first kernel row of [e0; p2 - p1] is e2, orthogonal to
        p1, so lam0 must come from a later row."""
        f = gf7
        e = np.eye(5, dtype=np.int64)
        p1 = f.add(e[3], e[4])
        c = code_from_generator(f, np.stack([e[0], p1]))
        pub = code_from_generator(f, e[:2])
        kernel = la.right_kernel(f, np.stack([e[0], f.sub(e[1], p1)]))
        assert la.matmul(f, kernel[0], p1) == 0
        a0, lam0, _ = atk.recover_valid_pair(pub, c)
        assert la.matmul(f, a0, lam0) == 0
        assert atk.pair_is_valid(pub, c, a0, lam0)

    def test_precondition_rejects_wrong_code(self, gf16m, low_rate_key, rng):
        f = gf16m
        pk, _sk = low_rate_key
        pub = code_from_generator(f, pk.g_pub)
        other = code_from_generator(f, la.random_matrix(f, 6, 15, rng))
        with pytest.raises(atk.PreconditionViolated):
            atk.recover_valid_pair(pub, other)

    def test_precondition_rejects_the_public_code_itself(self, gf16m, low_rate_key):
        pub = code_from_generator(gf16m, low_rate_key[0].g_pub)
        with pytest.raises(atk.PreconditionViolated, match="need c != pub"):
            atk.recover_valid_pair(pub, pub)

    @pytest.mark.parametrize("f", [GF(7), GF(5, 2, 32)], ids=["GF7", "GF25"])
    def test_pair_with_product_minus_one_is_invalid(self, f, rng):
        """With c = pub and lam0 a parity check of pub the masking map fixes
        c, so the pair passes every image check; it is still invalid at
        <a0, lam0> = -1, where the map is singular, and valid at +1."""
        pub = random_code(f, 3, 7, rng)
        lam0 = pub.dual().gen[0]
        j = np.flatnonzero(lam0)[0]
        a0 = np.zeros(7, dtype=np.int64)
        a0[j] = f.inv(lam0[j])
        assert la.matmul(f, a0, lam0) == 1
        assert atk.pair_is_valid(pub, pub, a0, lam0)
        a0[j] = f.neg(a0[j])
        assert la.matmul(f, a0, lam0) == f.neg(1)
        assert not atk.pair_is_valid(pub, pub, a0, lam0)


class TestEndToEnd:
    def test_low_rate_recovers_hidden_code(self, gf16m, low_rate_key, low_rate_attack):
        pk, sk = low_rate_key
        rk, st = low_rate_attack
        assert st.branch == Branch.LOW_RATE
        assert grs.code(rk.grs) == grs.code(scheme.masked_params(sk))
        assert rk.shared_subcode == true_shared_subcode(gf16m, pk, sk)

    def test_low_rate_decrypts(self, gf16m, low_rate_key, low_rate_attack):
        pk, sk = low_rate_key
        rk, _ = low_rate_attack
        rng = np.random.default_rng(31)
        for _ in range(20):
            msg = rng.integers(0, 16, pk.k)
            z = scheme.encrypt(pk, msg, rng)
            for got in (atk.decrypt_with_pair(rk, pk, z), scheme.decrypt(sk, z)):
                assert np.array_equal(got, msg) or genuine_tie(pk, z, got)

    def test_dual_branch_recovers_and_decrypts(self, gf16m, dual_key, dual_attack):
        pk, sk = dual_key
        rk, st = dual_attack
        assert st.branch == Branch.HIGH_RATE_DUAL
        assert grs.code(rk.grs) == grs.code(scheme.masked_params(sk))
        assert rk.shared_subcode.k == pk.k - 1
        rng = np.random.default_rng(37)
        for _ in range(20):
            msg = rng.integers(0, 16, pk.k)
            z = scheme.encrypt(pk, msg, rng)
            got = atk.decrypt_with_pair(rk, pk, z)
            assert np.array_equal(got, msg) or genuine_tie(pk, z, got)

    @pytest.mark.parametrize(
        "field,n,k,branch",
        [
            ((17,), 16, 6, Branch.LOW_RATE),
            ((5, 2, 32), 16, 6, Branch.LOW_RATE),
            ((17,), 17, 11, Branch.HIGH_RATE_DUAL),
        ],
        ids=["GF17", "GF25", "GF17-17-11"],
    )
    def test_odd_characteristic_recovers_and_decrypts(self, field, n, k, branch):
        """Both branches in odd characteristic; elsewhere only GF(16) keys
        run the dual one."""
        f = GF(*field)
        pk, sk = scheme.keygen(f, n, k, np.random.default_rng(90))
        rk, st = atk.recover_key(pk, AttackConfig(seed=91))
        assert st.branch == branch
        assert grs.code(rk.grs) == grs.code(scheme.masked_params(sk))
        rng = np.random.default_rng(92)
        for _ in range(10):
            msg = rng.integers(0, f.q, pk.k)
            z = scheme.encrypt(pk, msg, rng)
            got = atk.decrypt_with_pair(rk, pk, z)
            assert np.array_equal(got, scheme.decrypt(sk, z))
            assert np.array_equal(got, msg) or genuine_tie(pk, z, got)

    def test_pair_validity_invariants(self, gf16m, low_rate_key, low_rate_attack):
        f = gf16m
        pk, _sk = low_rate_key
        rk, _ = low_rate_attack
        pub = code_from_generator(f, pk.g_pub)
        assert la.matmul(f, rk.a0, rk.lam0) != int(f.neg(1))
        assert atk.pair_is_valid(pub, grs.code(rk.grs), rk.a0, rk.lam0)

    def test_dead_interval(self, gf16m):
        for k in (7, 8):
            pk, _sk = scheme.keygen(gf16m, 15, k, np.random.default_rng(k))
            with pytest.raises(NotApplicable, match="dead interval"):
                atk.recover_key(pk)

    def test_rank_deficient_public_generator_refused(self, gf16m, low_rate_key):
        pk, _sk = low_rate_key
        g = np.array(pk.g_pub)
        g[5] = g[4]
        with pytest.raises(atk.PreconditionViolated, match="public generator is not full rank"):
            atk.recover_key(scheme.PublicKey(gf16m, 15, 6, g))

    def test_budget_exceeded(self, gf16m, low_rate_key):
        pk, _sk = low_rate_key
        with pytest.raises(TrialBudgetExceeded):
            atk.recover_key(pk, AttackConfig(max_outer_trials=3, seed=0))

    def test_deterministic_given_seed(self, gf16m, low_rate_key, low_rate_attack):
        pk, _sk = low_rate_key
        rk1, st1 = low_rate_attack
        rk2, st2 = atk.recover_key(pk, AttackConfig(seed=7))
        assert np.array_equal(rk1.a0, rk2.a0)
        assert np.array_equal(rk1.lam0, rk2.lam0)
        assert rk1.grs == rk2.grs
        assert st1.outer_trials == st2.outer_trials

    def test_signal_free_square_detected(self, gf16m):
        """A rare key whose dual square dimension shrinks to 2k+2 leaves the
        rank test without a distinguishing gap; the attack reports that
        instead of burning its whole budget."""
        f = gf16m
        pk, _sk = scheme.keygen(f, 15, 9, np.random.default_rng(3006))
        dual_sq = code_from_generator(f, pk.g_pub).dual().square()
        assert dual_sq.k == 14  # == 2(n-k)+2: every triple passes the test
        with pytest.raises(NotApplicable, match="no distinguishing gap"):
            atk.recover_key(pk, AttackConfig(seed=0))

    def test_non_grs_code_with_a_grs_square_is_not_applicable(self, gf16m):
        """A GRS generator with column 3 zeroed has rank 6 and a square of
        dimension 11 = 2k-1 without being GRS: the direct recovery fails,
        and the attack reports NotApplicable chained from that NotGrs."""
        f = gf16m
        g = np.array(grs.random_params(f, 15, 6, np.random.default_rng(0)).generator)
        g[:, 3] = 0
        pub = code_from_generator(f, g)
        assert (pub.k, pub.square().k) == (6, 11)
        with pytest.raises(NotApplicable, match="squares like a GRS code") as info:
            atk.recover_key(scheme.PublicKey(f, 15, 6, g), AttackConfig(seed=0))
        assert isinstance(info.value.__cause__, grs.NotGrs)

    def test_degenerate_mask_falls_back_to_direct_recovery(self, gf16m):
        """lam in C-perp makes the public code itself GRS; the attack then
        skips the sampling loop and still decrypts."""
        f = gf16m
        rng = np.random.default_rng(51)
        n, k = 15, 6
        params = grs.random_params(f, n, k, rng)
        s_mat = la.random_invertible_pair(f, k, rng)[0]
        perm = rng.permutation(n).astype(np.int64)
        c_gen = params.generator[:, perm]
        c_perp = la.right_kernel(f, c_gen)
        while True:
            alpha = la.matmul(f, rng.integers(0, 16, c_perp.shape[0]), c_perp)
            beta = rng.integers(0, 16, n, dtype=np.int64)
            if not alpha.any() or not beta.any():
                continue
            try:
                pk, sk = scheme.build_keypair(f, params.x, params.y, s_mat, perm, alpha, beta)
                break
            except scheme.InvalidDimensions:
                continue
        # the mask direction is a parity check of C, so C_pub == C
        pub = code_from_generator(f, pk.g_pub)
        c_code = grs.code(scheme.masked_params(sk))
        assert pub == c_code
        rk, st = atk.recover_key(pk, AttackConfig(seed=1))
        assert st.outer_trials == 0
        assert rk.shared_subcode is None
        assert not rk.lam0.any()
        for _ in range(5):
            msg = rng.integers(0, 16, k)
            z = scheme.encrypt(pk, msg, rng)
            assert np.array_equal(atk.decrypt_with_pair(rk, pk, z), msg)


class TestSeededCounters:
    """The draws and decisions of seeded attacks, pinned as (outer trials,
    inner trials, restarts) on four benchmark keys: a change that moves
    them changes the algorithm."""

    @pytest.mark.parametrize(
        "field,n,k,keygen_seed,attack_seed,counters",
        [
            ((2, 4, 19), 15, 6, 1000, 2000, (1659, 12, 120)),
            ((2, 4, 19), 15, 9, 3020, 4000, (2392, 24, 178)),
            ((5, 2, 32), 16, 6, 5000, 6000, (47504, 5, 85)),
            ((5, 2, 32), 16, 6, 5002, 6002, (15983, 1, 33)),
        ],
        ids=["GF16-15-6", "GF16-15-9", "GF25-16-6-5000", "GF25-16-6"],
    )
    def test_counters_and_recovered_code(self, field, n, k, keygen_seed, attack_seed, counters):
        f = GF(*field)
        pk, sk = scheme.keygen(f, n, k, np.random.default_rng(keygen_seed))
        rk, st = atk.recover_key(pk, AttackConfig(seed=attack_seed))
        assert (st.outer_trials, st.inner_trials, st.restarts) == counters
        assert grs.code(rk.grs) == grs.code(scheme.masked_params(sk))

    @pytest.mark.parametrize(
        "site,failure",
        [
            ("recover_secret_grs", grs.NotGrs("forced")),
            ("recover_valid_pair", atk.PreconditionViolated("forced")),
            ("pair_is_valid", False),
        ],
        ids=["not-grs", "precondition", "invalid-pair"],
    )
    @pytest.mark.parametrize(
        "k,keygen_seed,attack_seed,counters",
        [(6, 1000, 2000, (7988, 56, 556)), (9, 3020, 4000, (11672, 124, 826))],
        ids=["GF16-15-6", "GF16-15-9"],
    )
    def test_back_half_failure_restarts_search(
        self, monkeypatch, site, failure, k, keygen_seed, attack_seed, counters
    ):
        """One failure of a step after the search, whichever step fails,
        counts one restart and sends the search on to its next subcode; the
        key it then recovers is the true one."""
        f = GF(2, 4, 19)
        pk, sk = scheme.keygen(f, 15, k, np.random.default_rng(keygen_seed))
        original = getattr(atk, site)
        failed = []

        def fail_once(*args):
            if failed:
                return original(*args)
            failed.append(site)
            if isinstance(failure, Exception):
                raise failure
            return failure

        monkeypatch.setattr(atk, site, fail_once)
        rk, st = atk.recover_key(pk, AttackConfig(seed=attack_seed))
        assert failed == [site]
        assert (st.outer_trials, st.inner_trials, st.restarts) == counters
        assert grs.code(rk.grs) == grs.code(scheme.masked_params(sk))


class TestDecryptWithPair:
    @pytest.mark.parametrize("k", [6, 9])
    def test_true_pair_matches_secret_decryption(self, gf16m, k):
        """With the true masking pair, decrypt_with_pair returns exactly what
        scheme.decrypt returns: both routes feed the same candidate set to
        the shared sweep's canonical choice."""
        pk, sk = scheme.keygen(gf16m, 15, k, np.random.default_rng(70 + k))
        rk = atk.RecoveredKey(scheme.masked_params(sk), sk.a, sk.lam, None)
        rng = np.random.default_rng(80 + k)
        for _ in range(40):
            z = scheme.encrypt(pk, rng.integers(0, 16, k), rng)
            assert np.array_equal(atk.decrypt_with_pair(rk, pk, z), scheme.decrypt(sk, z))

    @pytest.mark.parametrize(
        "field,n,k,seed",
        [((2, 4, 19), 15, 6, 42), ((2, 4, 19), 15, 9, 3020), ((5, 2, 32), 16, 6, 5000)],
        ids=["GF16-15-6", "GF16-15-9", "GF25-16-6"],
    )
    def test_routes_return_the_same_candidate_set(self, field, n, k, seed):
        """scheme.decrypt_candidates and pair_candidates with the true pair
        give the same candidates as sets, or both fail: on weight-t
        ciphertexts, on the tied ciphertext 6 of the dual campaign's first key
        (keygen seed 3020), and on random vectors."""
        f = GF(*field)
        pk, sk = scheme.keygen(f, n, k, np.random.default_rng(seed))
        rk = atk.RecoveredKey(scheme.masked_params(sk), sk.a, sk.lam, None)
        rng = np.random.default_rng(seed + 1)
        words = [scheme.encrypt(pk, rng.integers(0, f.q, k), rng) for _ in range(15)]
        words += [rng.integers(0, f.q, n) for _ in range(10)]
        if seed == 3020:
            words.append(np.array([14, 2, 9, 4, 14, 10, 6, 0, 5, 1, 8, 9, 15, 13, 12]))

        def candidate_set(route, *args):
            try:
                return {(w, tuple(m.tolist())) for w, m in route(*args)}
            except DecryptionFailure:
                return set()

        sizes = []
        for z in words:
            secret = candidate_set(scheme.decrypt_candidates, sk, z)
            assert candidate_set(atk.pair_candidates, rk, pk, z) == secret
            sizes.append(len(secret))
        assert min(sizes[:15]) >= 1
        assert not any(sizes[15:25])
        if seed == 3020:
            assert sizes[25] == 2

    @pytest.mark.parametrize("k", [6, 9])
    def test_pair_that_misses_the_public_code_is_refused(self, gf16m, k):
        """A pair with lam0 = 0 maps the hidden code to itself, not onto the
        public code; pair_candidates refuses it on every ciphertext, before
        decoding, instead of decrypting the few whose decoded codeword
        happens to lie in the public code, and again on each later call with
        the same pair: a refusal is not kept as a map.  recover_key never
        returns such a pair (pair_is_valid rejects it)."""
        pk, sk = scheme.keygen(gf16m, 15, k, np.random.default_rng(42))
        bad = atk.RecoveredKey(scheme.masked_params(sk), sk.a, np.zeros_like(sk.lam), None)
        assert not atk.pair_is_valid(code_from_generator(gf16m, pk.g_pub),
                                     grs.code(bad.grs), bad.a0, bad.lam0)
        rng = np.random.default_rng(43)
        for _ in range(100):
            z = scheme.encrypt(pk, rng.integers(0, 16, k), rng)
            with pytest.raises(DecryptionFailure, match="does not carry the recovered code"):
                atk.pair_candidates(bad, pk, z)

    def test_wrong_pair_refused_after_true_pair_decrypts(self, gf16m):
        """Maps are kept per (recovered key, public key): the true pair's map
        on a public key does not serve a wrong pair on the same public key,
        whichever of the two is used first."""
        pk, sk = scheme.keygen(gf16m, 15, 9, np.random.default_rng(45))
        z = scheme.encrypt(pk, np.arange(9), np.random.default_rng(46))
        for wrong_first in (False, True):
            good = atk.RecoveredKey(scheme.masked_params(sk), sk.a, sk.lam, None)
            bad = atk.RecoveredKey(scheme.masked_params(sk), sk.a, np.zeros_like(sk.lam), None)
            if wrong_first:
                with pytest.raises(DecryptionFailure):
                    atk.pair_candidates(bad, pk, z)
            assert np.array_equal(atk.decrypt_with_pair(good, pk, z), scheme.decrypt(sk, z))
            with pytest.raises(DecryptionFailure):
                atk.pair_candidates(bad, pk, z)

    def test_keys_do_not_share_maps(self, gf16m):
        """Two keys of one shape, used in turn: each recovered key decrypts
        under its own public key, and is refused under the other's."""
        keys = [scheme.keygen(gf16m, 15, 6, np.random.default_rng(seed)) for seed in (47, 48)]
        rks = [atk.RecoveredKey(scheme.masked_params(sk), sk.a, sk.lam, None) for _, sk in keys]
        rng = np.random.default_rng(49)
        for _ in range(5):
            for (pk, sk), rk, (other_pk, _) in zip(keys, rks, keys[::-1]):
                z = scheme.encrypt(pk, rng.integers(0, 16, 6), rng)
                assert np.array_equal(atk.decrypt_with_pair(rk, pk, z), scheme.decrypt(sk, z))
                with pytest.raises(DecryptionFailure, match="does not carry the recovered code"):
                    atk.pair_candidates(rk, other_pk, z)

    @pytest.mark.parametrize(
        "field,n,k",
        [((17,), 16, 6), ((17,), 17, 9), ((13,), 12, 4), ((3, 2, 17), 8, 3), ((7,), 7, 2),
         ((3, 6, 734), 16, 6), ((31, 2, 962), 20, 8)],
        ids=["GF17-16-6", "GF17-17-9", "GF13-12-4", "GF9-8-3", "GF7-7-2",
             "GF729-16-6", "GF961-20-8"],
    )
    def test_odd_characteristic_routes_agree(self, field, n, k):
        """Over odd-characteristic fields, prime and extension, both routes
        return one candidate set for every weight-t ciphertext, and it holds
        the sent plaintext at weight t.  Over GF(729) and GF(961) the
        decoder's field sums take chunk rounds."""
        f = GF(*field)
        for seed in range(3):
            pk, sk = scheme.keygen(f, n, k, np.random.default_rng(seed))
            rk = atk.RecoveredKey(scheme.masked_params(sk), sk.a, sk.lam, None)
            rng = np.random.default_rng(100 + seed)
            for _ in range(40):
                msg = rng.integers(0, f.q, k)
                z = scheme.encrypt(pk, msg, rng)
                secret = {(w, tuple(m.tolist())) for w, m in scheme.decrypt_candidates(sk, z)}
                assert {(w, tuple(m.tolist())) for w, m in atk.pair_candidates(rk, pk, z)} == secret
                assert (pk.t, tuple(msg.tolist())) in secret

    def test_key_arrays_are_read_only_copies(self, gf16m):
        """The arrays the pair route's map is built from cannot change under
        it: writes into them raise, and writes into the arrays the keys were
        built from do not reach them."""
        pk, sk = scheme.keygen(gf16m, 15, 6, np.random.default_rng(52))
        a0, lam0, g_pub = sk.a.copy(), sk.lam.copy(), pk.g_pub.copy()
        rk = atk.RecoveredKey(scheme.masked_params(sk), a0, lam0, None)
        pub = scheme.PublicKey(gf16m, 15, 6, g_pub)
        z = scheme.encrypt(pk, np.arange(6), np.random.default_rng(53))
        expect = atk.decrypt_with_pair(rk, pub, z)
        for table in (rk.a0, rk.lam0, pub.g_pub):
            with pytest.raises(ValueError):
                table.flat[0] = 1
        lam0[:] = 0
        g_pub[0] = 0
        assert np.array_equal(atk.decrypt_with_pair(rk, pub, z), expect)
        fresh = atk.RecoveredKey(scheme.masked_params(sk), a0, lam0, None)
        with pytest.raises(DecryptionFailure, match="does not carry the recovered code"):
            atk.pair_candidates(fresh, pk, z)

    def test_second_ciphertext_rebuilds_no_table(self, gf16m, monkeypatch):
        """Once a key has decrypted, later ciphertexts under it build none of
        the key-fixed tables: not the decoder's (generator, parity checks,
        locator powers) and not the pair route's map.  The parity checks are
        built once, by keygen, which tests each mask against them."""
        calls = {}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((grs, "_rows"), (grs, "dual_params"), (scheme, "mask")):
            counted(module, name)
        pk, sk = scheme.keygen(gf16m, 15, 6, np.random.default_rng(50))
        rk = atk.RecoveredKey(scheme.masked_params(sk), sk.a, sk.lam, None)
        rng = np.random.default_rng(51)
        assert calls["dual_params"] == 1
        calls.clear()
        for round_ in range(3):
            z = scheme.encrypt(pk, rng.integers(0, 16, 6), rng)
            scheme.decrypt(sk, z)
            atk.decrypt_with_pair(rk, pk, z)
            if round_ == 0:
                assert set(calls) == {"_rows", "mask"}
                calls.clear()
        assert calls == {}

    def test_zero_error_ciphertext(self, gf16m, low_rate_key, low_rate_attack):
        pk, _sk = low_rate_key
        rk, _ = low_rate_attack
        msg = np.arange(6, dtype=np.int64)
        z = scheme.encrypt(pk, msg, error=np.zeros(15, dtype=np.int64))
        assert np.array_equal(atk.decrypt_with_pair(rk, pk, z), msg)

    def test_random_vector_fails(self, gf16m, low_rate_key, low_rate_attack):
        pk, _sk = low_rate_key
        rk, _ = low_rate_attack
        rng = np.random.default_rng(61)
        failures = 0
        for _ in range(10):
            z = rng.integers(0, 16, 15)
            try:
                atk.decrypt_with_pair(rk, pk, z)
            except DecryptionFailure:
                failures += 1
        assert failures >= 9
