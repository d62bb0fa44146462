"""Evaluation codes: generators, decoding, duals, parameter recovery."""

import itertools
import tracemalloc

import numpy as np
import pytest

from grs_squarebreak import grs, linalg as la
from grs_squarebreak.codes import code_from_generator, random_code, star_rows
from grs_squarebreak.gf import GF, FieldError
from grs_squarebreak.grs import GrsParams, InvalidParams, NotGrs


class TestParams:
    def test_duplicate_points_rejected(self, gf5):
        with pytest.raises(InvalidParams):
            GrsParams(gf5, np.array([0, 1, 1, 3]), np.ones(4, dtype=np.int64), 2)

    def test_zero_multiplier_rejected(self, gf5):
        with pytest.raises(InvalidParams):
            GrsParams(gf5, np.array([0, 1, 2, 3]), np.array([1, 0, 1, 1]), 2)

    def test_length_exceeding_field(self, gf5):
        with pytest.raises(InvalidParams):
            GrsParams(gf5, np.arange(6), np.ones(6, dtype=np.int64), 2)

    def test_bad_dimension(self, gf5):
        with pytest.raises(InvalidParams):
            GrsParams(gf5, np.arange(4), np.ones(4, dtype=np.int64), 4)

    def test_length_mismatch_rejected(self, gf5):
        with pytest.raises(InvalidParams, match="same length"):
            GrsParams(gf5, np.arange(4), np.ones(3, dtype=np.int64), 2)

    @pytest.mark.parametrize("x,k", [(np.arange(15)[:, None], 1), (np.arange(15)[:, None], 6),
                                     (np.array(3), 6)], ids=["column-k1", "column-k6", "scalar"])
    def test_points_must_be_a_vector(self, gf16, x, k):
        """A column of points used to be accepted, with a 15 x 15 generator
        at k = 1 and a bare numpy ValueError at k = 6, and a single point
        raised a bare IndexError."""
        with pytest.raises(InvalidParams, match="same length"):
            GrsParams(gf16, x, np.ones(15, dtype=np.int64), k)

    def test_dimension_must_be_an_integer(self, gf16):
        """k = 6.0 used to be accepted, and the generator then raised a bare
        IndexError; it raises TypeError, as GF does, and a numpy integer is
        kept as an int."""
        x, y = np.arange(15), np.ones(15, dtype=np.int64)
        with pytest.raises(TypeError):
            GrsParams(gf16, x, y, 6.0)
        p = GrsParams(gf16, x, y, np.int64(6))
        assert type(p.k) is int and p.generator.shape == (6, 15)

    @pytest.mark.parametrize("kind", ["float", "out-of-range"])
    def test_entries_must_be_field_elements(self, gf16, kind):
        """A float point or multiplier used to be truncated, and a point 40
        at GF(16) was kept until its first use raised a bare IndexError."""
        x, y = np.arange(15), np.ones(15, dtype=np.int64)
        refusal = "must hold integers" if kind == "float" else r"has entries outside \[0, 16\)"
        bad_x = x + 0.5 if kind == "float" else np.append(x[:-1], 40)
        with pytest.raises(FieldError, match="evaluation points " + refusal):
            GrsParams(gf16, bad_x, y, 6)
        bad_y = y + 0.5 if kind == "float" else np.append(y[:-1], 16)
        with pytest.raises(FieldError, match="column multipliers " + refusal):
            GrsParams(gf16, x, bad_y, 6)

    @pytest.mark.parametrize(
        "field,n,k", [("gf16", 15, 6), ("gf16", 15, 9), ("gf7", 6, 1), ("gf9", 9, 3)]
    )
    def test_tables_are_dual_generator_and_inverse(self, request, field, n, k):
        """The parity checks are the dual code's generator, so the code
        meets them, and the interpolation matrix inverts the generator on
        the first k points."""
        f = request.getfixturevalue(field)
        p = grs.random_params(f, n, k, np.random.default_rng(n + k))
        assert np.array_equal(p.parity_checks_t, grs.dual_params(p).generator.T)
        assert not la.matmul(f, p.generator, p.parity_checks_t).any()
        eye = la.matmul(f, p.generator[:, :k], p.interpolation.matrix)
        assert np.array_equal(eye, np.eye(k, dtype=np.int64))

    def test_points_multipliers_and_tables_are_read_only(self, gf16, rng):
        """Every key table, and every matrix the decoder multiplies by, the
        Lagrange matrix of the shift line included, with its table of
        multiples and that table's offsets."""
        p = grs.random_params(gf16, 15, 6, rng)
        fixed = decoder_matrices(p)
        assert all(m._table is not None for m in fixed)
        for table in (p.x, p.y, p.generator, p.parity_checks_t, p.hankel_index,
                      *(m.matrix for m in fixed), *(m._table for m in fixed),
                      *(m._offsets for m in fixed)):
            with pytest.raises(ValueError):
                table.flat[0] = 1

    @pytest.mark.parametrize("field,n,k", [((2, 4, 19), 15, 6), ((2, 4, 19), 15, 9),
                                           ((5, 2, 32), 16, 6), ((3, 3, 34), 26, 8)])
    def test_tables_of_multiples_hold_every_product(self, field, n, k):
        """Row m q + x of the table of multiples of each matrix the decoder
        multiplies by, the Lagrange matrix included, is x times row m of
        the matrix; the parity checks' is that of ``parity_checks_t``."""
        f = GF(*field)
        p = grs.random_params(f, n, k, np.random.default_rng(n * k))
        assert np.array_equal(p._syndromes.matrix, p.parity_checks_t)
        for fixed in decoder_matrices(p):
            b = fixed.matrix
            want = np.array([[f.mul(x, row) for x in range(f.q)] for row in b]).reshape(-1, b.shape[1])
            assert np.array_equal(fixed._table, want)

    def test_no_table_past_the_bound(self, gf16):
        """No table of multiples has more than 2^20 entries: at GF(4096)
        (60, 29) a decode builds none and multiplies directly, and the
        Lagrange matrices of GF(4096) (t = 0 and t = 4) have no table.  At
        GF(16) a 16 x 4096 matrix has a table of exactly 2^20 entries; one
        more column, none."""
        f = GF(2, 12, 4179)
        p = grs.random_params(f, 60, 29, np.random.default_rng(0))
        words, msgs = noisy_codewords(f, p, 3, p.t, np.random.default_rng(1))
        got, ok = grs.decode_many(p, words)
        assert ok.all() and np.array_equal(got, msgs)
        assert all(fixed._table is None for fixed in decoder_matrices(p))
        for k in (59, 51):
            assert grs.random_params(f, 60, k, np.random.default_rng(k))._lagrange._table is None
        assert la.Fixed(gf16, np.ones((16, 4096), dtype=np.int64))._table.size == 1 << 20
        assert la.Fixed(gf16, np.ones((16, 4097), dtype=np.int64))._table is None

    def test_caller_arrays_are_copied(self, gf16, rng):
        """Writing into the arrays a GrsParams was built from changes neither
        its decodes so far (tables already built) nor its first decode after
        the write (tables built from then on)."""
        x = rng.permutation(16)[:15]
        y = rng.integers(1, 16, 15)
        decoded, fresh = GrsParams(gf16, x, y, 6), GrsParams(gf16, x, y, 6)
        errors = np.zeros((10, 15), dtype=np.int64)
        for e in errors:
            e[rng.choice(15, 4, replace=False)] = rng.integers(1, 16, 4)
        cws = la.matmul(gf16, rng.integers(0, 16, (10, 6)), decoded.generator)
        words = np.vstack([gf16.add(cws, errors), rng.integers(0, 16, (10, 15))])
        msgs, ok = grs.decode_many(decoded, words)
        assert ok[:10].all() and not ok[10:].all()
        x[[0, 1]] = x[[1, 0]]
        y[:] = 1
        for p in (decoded, fresh):
            again = grs.decode_many(p, words)
            assert np.array_equal(again[0], msgs) and np.array_equal(again[1], ok)


class TestGenerator:
    def test_rs2_over_gf5(self, gf5):
        p = GrsParams(gf5, np.array([0, 1, 2, 3]), np.ones(4, dtype=np.int64), 2)
        assert p.generator.tolist() == [[1, 1, 1, 1], [0, 1, 2, 3]]

    def test_multiplier_scales_columns(self, gf5):
        p = GrsParams(gf5, np.array([0, 1, 2, 3]), np.array([2, 1, 1, 1]), 2)
        assert p.generator.tolist() == [[2, 1, 1, 1], [0, 1, 2, 3]]

    def test_vandermonde_full_rank(self, gf7, rng):
        p = grs.random_params(gf7, 6, 5, rng)
        assert la.rank(gf7, p.generator) == 5

    def test_encode_matches_poly_eval(self, gf16, rng):
        p = grs.random_params(gf16, 15, 6, rng)
        msg = rng.integers(0, 16, 6)
        cw = grs.encode(p, msg)
        # Horner oracle
        expect = []
        for xi, yi in zip(p.x, p.y):
            acc = 0
            for coef in msg[::-1]:
                acc = gf16.add(gf16.mul(acc, int(xi)), int(coef))
            expect.append(gf16.mul(int(yi), acc))
        assert cw.tolist() == [int(v) for v in expect]


# Binary, prime and odd extension fields, and GF(3^7) above the 1024-element
# table bound.
ROW_FIELDS = [GF(2), GF(7), GF(2, 4, 19), GF(5, 2, 32), GF(3, 6, 734), GF(3, 7, 2198)]
ROW_IDS = ["GF2", "GF7", "GF16", "GF25", "GF729", "GF3^7"]


class TestRowsAndPairwiseProducts:
    """``_rows`` and ``_pairwise_products`` against the loops they replace:
    one ``mul`` per row, and one per point."""

    @pytest.mark.parametrize("f", ROW_FIELDS, ids=ROW_IDS)
    def test_rows_equal_repeated_products(self, f, rng):
        n = min(f.q, 16)
        x = rng.integers(0, f.q, n)
        x[0] = 0  # 0^0 = 1 in row 0
        first = rng.integers(0, f.q, n)
        for m in (0, 1, 2, n):
            want = [first]
            for _ in range(m - 1):
                want.append(f.mul(want[-1], x))
            assert grs._rows(f, first, x, m).tolist() == [r.tolist() for r in want[:m]]

    @pytest.mark.parametrize("f", ROW_FIELDS, ids=ROW_IDS)
    def test_pairwise_products_equal_a_loop(self, f, rng):
        n = min(f.q, 16)
        x = rng.permutation(f.q)[:n]
        for among in (np.arange(n), np.sort(rng.permutation(n)[: n // 2]), np.arange(1)):
            want = []
            for j in range(n):
                acc = 1
                for i in among:
                    if i != j:
                        acc = f.mul(acc, f.sub(x[j], x[i]))
                want.append(int(acc))
            assert grs._pairwise_products(f, x, among).tolist() == want


def all_codewords(f, p):
    """Every codeword, one per row, for tiny parameters."""
    msgs = np.array(list(itertools.product(range(f.q), repeat=p.k)), dtype=np.int64)
    return la.matmul(f, msgs, p.generator)


def brute_force_nearest(codewords, words, chunk=2048):
    """Exhaustive nearest-codeword oracle for a stack of words over a field
    of at most 256 elements: the first closest codeword of each and its
    Hamming distance."""
    best = np.zeros(len(words), dtype=np.int64)
    dist = np.zeros(len(words), dtype=np.int64)
    w8, c8 = words.astype(np.uint8), codewords.astype(np.uint8)
    for i in range(0, len(words), chunk):
        d = np.zeros((len(w8[i : i + chunk]), len(c8)), dtype=np.uint8)
        for j in range(words.shape[1]):
            d += w8[i : i + chunk, j, None] != c8[None, :, j]
        best[i : i + chunk], dist[i : i + chunk] = d.argmin(axis=1), d.min(axis=1)
    return codewords[best], dist


def decoder_matrices(p):
    """The matrices the decoder multiplies by, each a ``linalg.Fixed``: the
    parity checks, the locator rows, and the interpolation and Lagrange
    matrices."""
    return [p._syndromes, p.locator_rows, p.interpolation, p._lagrange]


def noisy_codewords(f, p, count, weight, rng):
    """count random codewords of p, each plus an error of the given weight,
    and their messages."""
    msgs = rng.integers(0, f.q, (count, p.k))
    errors = np.zeros((count, p.n), dtype=np.int64)
    for e in errors:
        e[rng.choice(p.n, weight, replace=False)] = rng.integers(1, f.q, weight)
    return f.add(la.matmul(f, msgs, p.generator), errors), msgs


def spy(monkeypatch, *names):
    """Record each call of the named linalg functions, as (name, args), then
    run it."""
    calls = []
    for name in names:
        real = getattr(la, name)

        def wrapper(*args, name=name, real=real):
            calls.append((name, args))
            return real(*args)

        monkeypatch.setattr(la, name, wrapper)
    return calls


class TestDecode:
    def test_codeword_decodes_to_itself(self, gf16, rng):
        p = grs.random_params(gf16, 15, 6, rng)
        cw = grs.encode(p, rng.integers(0, 16, 6))
        out = grs.decode(p, cw)
        assert out is not None
        assert np.array_equal(out[0], cw) and not out[1].any()

    def test_random_errors_within_radius(self, gf16, rng):
        p = grs.random_params(gf16, 15, 6, rng)
        assert p.t == 4
        for _ in range(25):
            cw = grs.encode(p, rng.integers(0, 16, 6))
            e = np.zeros(15, dtype=np.int64)
            pos = rng.choice(15, 4, replace=False)
            e[pos] = rng.integers(1, 16, 4)
            out = grs.decode(p, gf16.add(cw, e))
            assert out is not None
            assert np.array_equal(out[0], cw)
            assert np.array_equal(out[1], e)

    @pytest.mark.parametrize(
        "field,x,y,k,t",
        [
            ("gf5", [0, 1, 2, 3], [1, 2, 1, 3], 2, 1),
            ("gf5", [0, 1, 2, 3, 4], [1, 2, 1, 3, 4], 1, 2),
            ("gf5", [0, 1, 2, 3, 4], [4, 1, 3, 2, 2], 2, 1),
            ("gf5", [4, 2, 0, 1], [1, 2, 1, 3], 3, 0),
            ("gf9", [0, 1, 3, 5, 8], [1, 4, 2, 7, 3], 1, 2),
            ("gf9", [0, 1, 3, 5, 8], [1, 4, 2, 7, 3], 2, 1),
            ("gf9", [0, 1, 3, 5, 8], [1, 4, 2, 7, 3], 3, 1),
            ("gf7", [0, 1, 2, 3, 4, 5], [3, 1, 6, 2, 5, 4], 2, 2),
            ("gf7", [0, 1, 2, 3, 4, 5, 6], [2, 5, 1, 1, 3, 6, 4], 1, 3),
        ],
        ids=["n4-k2", "n5-k1-t2", "n5-k2-spare-check", "n4-k3-t0",
             "gf9-n5-k1", "gf9-n5-k2", "gf9-n5-k3", "gf7-n6-k2-t2", "gf7-n7-k1-t3"],
    )
    def test_exhaustive_against_brute_force(self, request, field, x, y, k, t):
        """Every received word against the oracle, in stacked calls of at
        most 2^16 words: over GF(5) t = 2, a spare parity check when n-k is
        odd, and t = 0, where the locator system has no unknowns; over
        GF(9), an odd extension field, k = 1..3; over GF(7), t = 2 and
        t = 3, where errors of every weight up to t meet both locator
        routes.  Over GF(5) every word is also decoded on its own."""
        f = request.getfixturevalue(field)
        p = GrsParams(f, np.array(x), np.array(y), k)
        assert p.t == t
        codewords = all_codewords(f, p)
        words = np.indices((f.q,) * p.n, dtype=np.uint8).reshape(p.n, -1).T  # every word
        parts = [grs.decode_many(p, words[i : i + (1 << 16)]) for i in range(0, len(words), 1 << 16)]
        msgs, ok = (np.concatenate(a) for a in zip(*parts, strict=True))
        assert msgs.shape == (len(words), k) and ok.shape == (len(words),)
        nearest, dist = brute_force_nearest(codewords, words)
        within = dist <= t
        assert np.array_equal(ok, within)
        assert np.array_equal(la.matmul(f, msgs[within], p.generator), nearest[within])
        assert not msgs[~within].any()
        if field == "gf5":
            for r, near, d in zip(words, nearest, dist, strict=True):
                out = grs.decode(p, r)
                if d <= t:
                    assert out is not None and np.array_equal(out[0], near)
                else:
                    assert out is None

    @pytest.mark.parametrize("k", [6, 9])
    def test_weight_t_words_take_no_solve(self, gf16, monkeypatch, k):
        """Words at distance exactly t decode in closed form: once the key's
        tables are built, no scalar ``rref`` runs."""
        p = grs.random_params(gf16, 15, k, np.random.default_rng(k))
        words, msgs = noisy_codewords(gf16, p, 200, p.t, np.random.default_rng(k + 1))
        grs.decode_many(p, words[:1])  # builds the key's tables
        calls = spy(monkeypatch, "rref")
        got, ok = grs.decode_many(p, words)
        assert calls == []
        assert ok.all() and np.array_equal(got, msgs)

    @pytest.mark.parametrize(
        "field,n,k,seed,heavy",
        [((2, 4, 19), 15, 3, 3, 40), ((2, 4, 19), 15, 6, 21, 100), ((2, 4, 19), 15, 9, 24, 100),
         ((5, 2, 32), 16, 6, 22, 100), ((2, 5, 37), 31, 13, 25, 40)],
        ids=["gf16-15-3", "gf16-15-6", "gf16-15-9", "gf25-16-6", "gf32-31-13-past-cap"],
    )
    def test_large_radius_takes_the_elimination(self, monkeypatch, field, n, k, seed, heavy):
        """``decode_many`` takes every word's least degree locator from one
        elimination of the whole stack, within the line's minors cap and
        past it (t = 9 over GF(32)): words at distance t and at every w < t
        reach ``batched_rref`` as one stack of their Hankel systems, in
        order, and every word decodes to its message."""
        f = GF(*field)
        rng = np.random.default_rng(seed)
        p = grs.random_params(f, n, k, rng)
        assert (p.t <= grs._MINORS_MAX_T) == (n != 31)
        words, sent = noisy_codewords(f, p, heavy, p.t, rng)
        light, light_sent = zip(*(noisy_codewords(f, p, 10, w, rng) for w in range(p.t)),
                                strict=True)
        words = np.vstack([words[:heavy // 2], *light, words[heavy // 2 :]])
        sent = np.vstack([sent[:heavy // 2], *light_sent, sent[heavy // 2 :]])
        calls = spy(monkeypatch, "batched_rref")
        msgs, ok = grs.decode_many(p, words)
        assert ok.all() and np.array_equal(msgs, sent)
        [(name, (_, stack, ncols))] = calls
        syn = la.matmul(f, words, p.parity_checks_t)
        assert name == "batched_rref" and ncols == p.t
        assert np.array_equal(stack, syn[:, p.hankel_index])

    @pytest.mark.parametrize(
        "field,n,k,within",
        [((2, 4, 19), 15, 6, True), ((5, 2, 32), 16, 6, True), ((2, 8, 285), 30, 20, True),
         ((2, 4, 19), 15, 3, True), ((2, 4, 19), 15, 1, True), ((3, 3, 34), 26, 10, False),
         ((2, 5, 37), 31, 13, False)],
        ids=["gf16-15-6", "gf25-16-6", "gf256-30-20", "gf16-15-3", "gf16-15-1-t7",
             "gf27-26-10-t8-past-cap", "gf32-31-13-past-cap"],
    )
    def test_minors_run_on_the_shift_line_only(self, monkeypatch, field, n, k, within):
        """Up to the minors' cap, t = 7 whatever q (t = 5 at GF(256), 6 and
        7 at GF(16)), ``decode_line`` calls ``batched_minors`` once per
        line, on the Hankel systems of the t+1 shifts 0..t, and
        ``decode_many`` never calls it; past the cap (t = 8 at GF(27), 9 at
        GF(32)) neither does, and ``_line_minors`` gives None."""
        f = GF(*field)
        rng = np.random.default_rng(n + k)
        p = grs.random_params(f, n, k, rng)
        assert within == (p.t <= grs._MINORS_MAX_T)
        words, sent = noisy_codewords(f, p, 20, p.t, rng)
        d = rng.integers(0, f.q, n)
        c = f.add(words[0], f.mul(3, d))  # the word at shift 3 is words[0]
        calls = spy(monkeypatch, "batched_minors")
        msgs, ok = grs.decode_many(p, words)
        assert calls == []
        assert ok.all() and np.array_equal(msgs, sent)
        syn_c, syn_d = la.matmul(f, np.array((c, d)), p.parity_checks_t)
        got = grs.decode_line(p, c, d, syn_d)
        assert any(np.array_equal(m, sent[0]) for m in got)
        syn = f.sub(syn_c, f.mul(f.elements()[: p.t + 1, None], syn_d))
        if not within:
            assert calls == [] and grs._line_minors(p, syn) is None
            return
        [(name, (_, stack))] = calls
        assert name == "batched_minors" and stack.shape == (p.t + 1, p.t, p.t + 1)
        assert np.array_equal(stack, syn[:, p.hankel_index[: p.t]])

    @pytest.mark.parametrize("field,n,k", [("gf7", 7, 1), ("gf9", 9, 2), ("gf16", 15, 3)])
    def test_degenerate_words_decode_in_closed_form(self, request, monkeypatch, field, n, k):
        """A codeword leaves the locator system all zero (rank 0 < t), and
        a word at distance w < t leaves it rank w: each takes its least
        degree locator, of degree w, with no scalar ``rref``, and every word
        agrees with the oracle."""
        f = request.getfixturevalue(field)
        rng = np.random.default_rng(n)
        p = grs.random_params(f, n, k, rng)
        assert p.t >= 2
        words = np.vstack([noisy_codewords(f, p, 10, w, rng)[0] for w in range(p.t + 2)])
        grs.decode_many(p, words[:1])  # builds the key's tables
        calls = spy(monkeypatch, "rref")
        msgs, ok = grs.decode_many(p, words)
        assert calls == []
        nearest, dist = brute_force_nearest(all_codewords(f, p), words)
        assert np.array_equal(ok, dist <= p.t)
        assert np.array_equal(la.matmul(f, msgs[ok], p.generator), nearest[ok])
        assert not msgs[~ok].any()

    @pytest.mark.parametrize(
        "field,n,k",
        [((3, 2, 10), 9, 3), ((3, 2, 10), 9, 1), ((3, 3, 34), 26, 2), ((2, 3, 11), 8, 2)],
        ids=["gf9-n9-k3", "gf9-n9-k1", "gf27-n26-k2", "gf8-n8-k2"],
    )
    def test_radius_past_the_characteristic(self, field, n, k):
        """At t >= p a locator of degree p or more has a formal derivative
        whose coefficient p E_p vanishes: the error values, read through
        E', still agree with the oracle on noisy codewords of every weight
        from 0 to t+1 and on random words."""
        f = GF(*field)
        rng = np.random.default_rng(n + k)
        p = grs.random_params(f, n, k, rng)
        assert p.t >= f.p
        words = np.vstack([noisy_codewords(f, p, 20, w, rng)[0] for w in range(p.t + 2)]
                          + [rng.integers(0, f.q, (40, n))])
        msgs, ok = grs.decode_many(p, words)
        nearest, dist = brute_force_nearest(all_codewords(f, p), words)
        assert np.array_equal(ok, dist <= p.t)
        assert ok[: 20 * (p.t + 1)].all()
        assert np.array_equal(la.matmul(f, msgs[ok], p.generator), nearest[ok])
        assert not msgs[~ok].any()

    @pytest.mark.parametrize(
        "field,n,k",
        [((2, 4, 19), 15, 6), ((2, 4, 19), 15, 9), ((2, 5, 37), 31, 24), ((17, 1, 0), 17, 8),
         ((7, 1, 0), 7, 2), ((5, 2, 32), 16, 6), ((3, 3, 34), 26, 16), ((2, 4, 19), 15, 13)],
        ids=["gf16-15-6", "gf16-15-9", "gf32-31-24", "gf17-17-8", "gf7-7-2", "gf25-16-6",
             "gf27-26-16", "gf16-15-13-t1"],
    )
    def test_line_minors_equal_the_minors_of_every_shift(self, field, n, k):
        """The minors of the line of syndromes syn_c - s syn_d, interpolated
        from t+1 shifts, equal ``batched_minors`` on the Hankel systems of
        all q shifts: in characteristic 2, odd prime and odd extension
        fields, with syn_d zero and with rank-deficient samples too."""
        f = GF(*field)
        rng = np.random.default_rng(n + k)
        p = grs.random_params(f, n, k, rng)
        assert p.t <= grs._MINORS_MAX_T
        lagrange = p._lagrange.matrix
        assert np.array_equal(lagrange[:, : p.t + 1], np.eye(p.t + 1, dtype=np.int64))
        lines = [rng.integers(0, f.q, (2, n - k)) for _ in range(4)]
        lines.append((lines[0][0], np.zeros(n - k, dtype=np.int64)))
        lines.append((np.zeros(n - k, dtype=np.int64), lines[1][1]))
        for syn_c, syn_d in lines:
            syn = f.sub(syn_c, f.mul(f.elements()[:, None], syn_d))
            want = la.batched_minors(f, syn[:, p.hankel_index[: p.t]])
            assert np.array_equal(grs._line_minors(p, syn[: p.t + 1]).T, want)

    def test_empty_stack(self, gf16):
        p = grs.random_params(gf16, 15, 6, np.random.default_rng(0))
        msgs, ok = grs.decode_many(p, np.zeros((0, 15), dtype=np.int64))
        assert msgs.shape == (0, 6) and ok.shape == (0,)

    def test_t0_in_closed_form(self, gf16, monkeypatch):
        """At k = n-1 (t = 0) the error is zero: a word decodes exactly when
        its one syndrome is zero, with no solve."""
        p = grs.random_params(gf16, 15, 14, np.random.default_rng(1))
        assert p.t == 0
        rng = np.random.default_rng(2)
        sent = rng.integers(0, 16, (20, 14))
        words = np.vstack([la.matmul(gf16, sent, p.generator), rng.integers(0, 16, (200, 15))])
        grs.decode_many(p, words[:1])  # builds the key's tables
        calls = spy(monkeypatch, "rref")
        msgs, ok = grs.decode_many(p, words)
        assert calls == []
        assert ok[:20].all() and np.array_equal(msgs[:20], sent)
        member = [grs.code(p).contains(w) for w in words]
        assert np.array_equal(ok, member) and not msgs[~ok].any()

    def test_decode_memory_is_bounded(self):
        """Peak traced memory of one decode of a weight-t word at GF(4096)
        (400, 200), t = 100, stays under 16 MiB: W and E' are t+1
        coefficients evaluated through the locator rows, not products by
        a (t+1) t x n table (which peaks at about 98 MiB)."""
        f = GF(2, 12, 4179)
        p = grs.random_params(f, 400, 200, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        err = np.zeros(p.n, dtype=np.int64)
        err[rng.choice(p.n, p.t, replace=False)] = rng.integers(1, f.q, p.t)
        word = f.add(la.matmul(f, rng.integers(0, f.q, p.k), p.generator), err)
        tracemalloc.start()
        try:
            got = grs.decode(p, word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is not None and np.array_equal(got[1], err)
        assert peak < 16 * 2**20

    def test_beyond_radius_fails(self, gf16, rng):
        p = grs.random_params(gf16, 15, 13, rng)  # t = 1
        cw = grs.encode(p, rng.integers(0, 16, 13))
        e = np.zeros(15, dtype=np.int64)
        pos = rng.choice(15, 2, replace=False)
        e[pos] = rng.integers(1, 16, 2)
        out = grs.decode(p, gf16.add(cw, e))
        assert out is None or int(np.count_nonzero(out[1])) <= 1

    @pytest.mark.parametrize("bad", [-1, 16, 1.7], ids=["negative", "q", "float"])
    def test_non_elements_refused(self, gf16, rng, bad):
        """encode and the one-word decode take only field elements: -1 used
        to encode as 15, 1.7 as 1, and 16 raised a bare IndexError."""
        p = grs.random_params(gf16, 15, 6, rng)
        with pytest.raises(FieldError, match="message"):
            grs.encode(p, [bad, 0, 0, 0, 0, 0])
        with pytest.raises(FieldError, match="received word"):
            grs.decode(p, [bad] + [0] * 14)

    def test_wrong_lengths_refused(self, gf16, rng):
        p = grs.random_params(gf16, 15, 6, rng)
        with pytest.raises(la.DimensionMismatch, match="message length"):
            grs.encode(p, np.zeros(5, dtype=np.int64))
        for words in (np.zeros(15, dtype=np.int64), np.zeros((2, 14), dtype=np.int64),
                      np.zeros((1, 2, 15), dtype=np.int64)):
            with pytest.raises(la.DimensionMismatch, match="length n=15"):
                grs.decode_many(p, words)


class TestDualParams:
    def test_matches_kernel_dual(self, gf16, gf7, rng):
        for f, n in ((gf16, 15), (gf7, 6)):
            for k in (1, 2, n // 2, n - 1):
                p = grs.random_params(f, n, k, rng)
                assert grs.code(grs.dual_params(p)) == grs.code(p).dual()

    def test_square_of_dual_dimension(self, gf16, rng):
        p = grs.random_params(gf16, 15, 11, rng)
        d = grs.dual_params(p)
        assert grs.code(d).square().k == 2 * (15 - 11) - 1


class TestSsRecover:
    def test_round_trip_many(self, gf16, gf32):
        """At each seed's length, a code of random dimension, and codes of
        dimension 2 (no information point past the two pinned ones) and 3."""
        count = 0
        for f in (gf16, gf32):
            for seed in range(25):
                rng = np.random.default_rng(seed)
                n = int(rng.integers(8, f.q))
                for k in (int(rng.integers(2, min(n - 1, 12))), 2, 3):
                    p = grs.random_params(f, n, k, rng)
                    c = grs.code(p)
                    rec = grs.ss_recover(c)
                    assert grs.code(rec) == c
                    count += 1
        assert count == 150

    def test_k1(self, gf16, rng):
        p = grs.random_params(gf16, 10, 1, rng)
        c = grs.code(p)
        rec = grs.ss_recover(c)
        assert rec.k == 1 and grs.code(rec) == c

    def test_k_equals_n_minus_1(self, gf16, rng):
        p = grs.random_params(gf16, 12, 11, rng)
        c = grs.code(p)
        rec = grs.ss_recover(c)
        assert grs.code(rec) == c

    def test_random_codes_rejected(self, gf16):
        rejected = 0
        for seed in range(10):
            c = random_code(gf16, 5, 15, np.random.default_rng(seed))
            try:
                rec = grs.ss_recover(c)
                assert grs.code(rec) == c  # would mean the random code IS GRS
            except NotGrs:
                rejected += 1
        assert rejected >= 9

    def test_full_space_rejected(self, gf7):
        with pytest.raises(NotGrs):
            grs.ss_recover(code_from_generator(gf7, np.eye(4, dtype=np.int64)))

    def test_k1_with_a_zero_coordinate_rejected(self, gf16):
        """A 1-dimensional code is GRS only with full support."""
        row = np.arange(1, 11, dtype=np.int64)
        row[5] = 0
        with pytest.raises(NotGrs):
            grs.ss_recover(code_from_generator(gf16, row[None, :]))

    def test_k_equals_n_minus_1_with_a_zero_in_the_dual_rejected(self, gf16):
        """An (n-1)-dimensional code is GRS only when its dual has full support."""
        h = np.arange(1, 13, dtype=np.int64)
        h[3] = 0
        c = code_from_generator(gf16, la.right_kernel(gf16, h[None, :]))
        assert c.k == 11 and c.dual() == code_from_generator(gf16, h[None, :])
        with pytest.raises(NotGrs):
            grs.ss_recover(c)


class TestRecoverMultipliers:
    def test_full_code_as_subcode(self, gf16, gf7, rng):
        for f, n, k in ((gf16, 15, 6), (gf7, 7, 3)):
            p = grs.random_params(f, n, k, rng)
            c = grs.code(p)
            y = grs.recover_multipliers(p.x, k, c)
            assert y is not None
            assert grs.code(GrsParams(f, p.x, y, k)) == c

    def test_rank_one_subcode(self, gf16, rng):
        p = grs.random_params(gf16, 15, 4, rng)
        sub = code_from_generator(gf16, p.y[None, :])  # y * x^0
        y = grs.recover_multipliers(p.x, 4, sub)
        assert y is not None
        big = grs.code(GrsParams(gf16, p.x, y, 4))
        assert big.contains(p.y)

    @pytest.mark.parametrize("seed", range(4))
    def test_local_search_when_no_basis_row_is_nonzero(self, gf16, seed):
        """Over GF(16) at n=15, with a the one point off the support, the
        subcode {y p(x) : p(a) = 0} of GRS_6(x, y) lies in GRS_6(x, y (x-a) / l(x))
        for every l of degree <= 1: a 2-dimensional multiplier kernel whose
        RREF basis rows both have a zero.  The subcode is GRS_5(x, y (x-a)),
        so with x times it it spans GRS_6(x, y (x-a)), whose multipliers are
        those of the constant l, nonzero on x."""
        f, n, k = gf16, 15, 6
        p = grs.random_params(f, n, k, np.random.default_rng(seed))
        a = int(np.setdiff1d(f.elements(), p.x)[0])
        ya = f.mul(p.y, f.sub(p.x, a))
        sub = grs.code(GrsParams(f, p.x, ya, k - 1))
        checks = grs.dual_params(GrsParams(f, p.x, np.ones(n, dtype=np.int64), k)).generator
        kernel = la.right_kernel(f, star_rows(f, sub.gen, checks))
        assert kernel.shape[0] == 2 and all((row == 0).any() for row in kernel)
        y = grs.recover_multipliers(p.x, k, sub)
        assert y is not None and y.all()
        got = grs.code(GrsParams(f, p.x, y, k))
        assert got in (grs.code(p), grs.code(GrsParams(f, p.x, ya, k)))
        assert all(got.contains(row) for row in sub.gen)

    def test_codim1_subcode_recovers_code(self, gf16, rng):
        p = grs.random_params(gf16, 15, 6, rng)
        c = grs.code(p)
        # a random hyperplane section of the code
        lam = rng.integers(0, 16, 15)
        weights = la.matmul(gf16, c.gen, lam)
        while not weights.any():
            lam = rng.integers(0, 16, 15)
            weights = la.matmul(gf16, c.gen, lam)
        coeff_kernel = la.right_kernel(gf16, weights[None, :])
        sub = code_from_generator(gf16, la.matmul(gf16, coeff_kernel, c.gen))
        assert sub.k == 5
        y = grs.recover_multipliers(p.x, 6, sub)
        assert y is not None
        big = grs.code(GrsParams(gf16, p.x, y, 6))
        for row in sub.gen:
            assert big.contains(row)

    @pytest.mark.parametrize("field,n", [((5, 2, 32), 16), ((17,), 17)], ids=["GF25", "GF17"])
    @pytest.mark.parametrize("seed", range(3))
    def test_whole_code_and_hyperplane_give_the_true_multipliers(self, field, n, seed):
        """In odd characteristic, the whole GRS_6 code and a random
        codimension-1 subcode of it both give the true y, scaled to
        y[n-1] = 1."""
        f, k = GF(*field), 6
        rng = np.random.default_rng(seed)
        p = grs.random_params(f, n, k, rng)
        c = grs.code(p)
        sub = code_from_generator(f, la.matmul(f, la.random_matrix(f, k - 1, k, rng), c.gen))
        assert sub.k == k - 1
        want = f.div(p.y, p.y[n - 1])
        for code in (c, sub):
            assert np.array_equal(grs.recover_multipliers(p.x, k, code), want)

    @pytest.mark.parametrize(
        "points,sub_shape,k",
        [(14, (6, 15), 6), ("repeated", (6, 15), 6), (15, (3, 14), 6), (15, (6, 15), 5),
         (15, (6, 15), 0), (15, (6, 15), 15)],
        ids=["points-length", "repeated-points", "subcode-length", "subcode-too-big",
             "k-zero", "k-n"],
    )
    def test_inconsistent_inputs_refused(self, gf16, points, sub_shape, k):
        p = grs.random_params(gf16, 15, 6, np.random.default_rng(0))
        sub = code_from_generator(gf16, p.generator[: sub_shape[0], : sub_shape[1]])
        x = np.concatenate([p.x[:14], p.x[:1]]) if points == "repeated" else p.x[:points]
        with pytest.raises(InvalidParams, match="inconsistent"):
            grs.recover_multipliers(x, k, sub)

    @pytest.mark.parametrize("seed", range(3))
    def test_subcode_on_permuted_points_refused(self, gf16, seed):
        """On the points permuted, neither the code nor a codimension-1
        subcode of it lies in any GRS_6(x, .): no multipliers come back."""
        f, n, k = gf16, 15, 6
        rng = np.random.default_rng(seed)
        p = grs.random_params(f, n, k, rng)
        c = grs.code(p)
        sub = code_from_generator(f, c.gen[1:])
        x = p.x[rng.permutation(n)]
        assert grs.recover_multipliers(x, k, c) is None
        assert grs.recover_multipliers(x, k, sub) is None
