"""Field arithmetic tests, checked against exhaustive table oracles."""

import copy
import gc
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grs_squarebreak import gf as gf_module, linalg as la
from grs_squarebreak.gf import (
    GF,
    DegreeMismatch,
    FieldError,
    NonPrimeCharacteristic,
    ReducibleModulus,
)


def slow_poly_mul_mod(a: int, b: int, p: int, m: int, modulus: int) -> int:
    """Independent reference multiplier: digit convolution + long division."""
    def digs(v, width):
        return [(v // p**i) % p for i in range(width)]

    da, db = digs(a, m), digs(b, m)
    conv = [0] * (2 * m - 1)
    for i in range(m):
        for j in range(m):
            conv[i + j] = (conv[i + j] + da[i] * db[j]) % p
    mod = digs(modulus, m + 1)
    for i in range(len(conv) - 1, m - 1, -1):
        c = conv[i]
        if c:
            for j in range(m + 1):
                conv[i - m + j] = (conv[i - m + j] - c * mod[j]) % p
    return sum(d * p**i for i, d in enumerate(conv[:m]))


class TestConstruction:
    def test_gf16_standard_modulus(self):
        f = GF(2, 4, 19)
        assert (f.p, f.m, f.q) == (2, 4, 16)

    def test_prime_field_ignores_modulus(self):
        f = GF(7, 1, 12345)
        assert f.modulus == 0 and f.q == 7

    def test_reducible_modulus_rejected(self):
        # X^2 + X = X(X + 1)
        with pytest.raises(ReducibleModulus):
            GF(2, 2, 6)

    def test_non_prime_characteristic(self):
        with pytest.raises(NonPrimeCharacteristic):
            GF(6)

    @pytest.mark.parametrize("p, m", [(2**61 - 1, 1), (3, 100000), (3, 11)])
    def test_oversized_field_rejected_at_once(self, p, m):
        """The bounds on p and m come before the trial division of p and the
        power p**m, which would take unbounded time on a huge key-file
        header; 3^11 passes both and is refused by the bound on q."""
        start = time.perf_counter()
        with pytest.raises(FieldError):
            GF(p, m)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "p, m, modulus, factor",
        [(2, 4, 21, 7), (3, 4, 113, 10)],
        ids=["(X^2+X+1)^2", "(X^2+1)(X^2+X+2)"],
    )
    def test_factor_of_half_degree_rejected(self, p, m, modulus, factor):
        """The smallest factor has degree m/2, the last degree trial division
        tries; the message names the smallest monic factor."""
        with pytest.raises(ReducibleModulus, match=f"divisible by {factor}$"):
            GF(p, m, modulus)

    def test_largest_field_builds_fast(self):
        """A key-file header may ask for GF(2^16), so building it must not
        cost seconds."""
        start = time.perf_counter()
        GF(2, 16, 69643)
        assert time.perf_counter() - start < 1.0

    def test_non_monic_modulus(self):
        with pytest.raises(DegreeMismatch):
            GF(2, 4, 7)  # degree 2, not 4

    def test_negative_modulus_rejected(self):
        # -1 has base-2 digits 1, 1, 1 and would pass for X^2 + X + 1 (= 7)
        with pytest.raises(DegreeMismatch):
            GF(2, 2, -1)

    def test_equality_and_hash(self):
        assert GF(2, 4, 19) == GF(2, 4, 19)
        assert GF(2, 4, 19) != GF(2, 4, 25)
        assert hash(GF(5)) == hash(GF(5))


class TestInterning:
    """One instance per live field: key files, the CLI and the benchmark
    call GF again for every file they read."""

    def test_same_field_is_one_instance(self):
        assert GF(2, 4, 19) is GF(2, 4, 19)
        assert GF(7, 1, 12345) is GF(7)
        assert GF(2, 4, 19) is not GF(2, 4, 25)
        f = GF(np.int64(5), np.int64(2), np.int64(32))
        assert f is GF(5, 2, 32) and type(f.p) is int and type(f.modulus) is int
        with pytest.raises(TypeError):
            GF(5.0, 2, 32)

    @pytest.mark.parametrize(
        "args", [(2, 4, 19), (5, 2, 32), (2, 11, 2053)], ids=["GF16", "GF25", "GF2048"]
    )
    def test_tables_are_read_only(self, args):
        """A write through one caller would change every caller's field."""
        f = GF(*args)
        tables = [f._exp, f._log, f._inv, f._mul_table, f._add_table, f._sub_table]
        assert tables[3] is not None or f.q > 1024
        for table in tables:
            if table is not None:
                with pytest.raises(ValueError, match="read-only"):
                    table.flat[1] = 0

    def test_refused_modulus_raises_on_every_call(self):
        """Nothing of a refused build is kept, not even while the first
        refusal's traceback, and the half-built instance in it, is alive."""
        with pytest.raises(ReducibleModulus) as first:
            GF(2, 2, 6)
        for _ in range(2):
            with pytest.raises(ReducibleModulus):
                GF(2, 2, 6)
        assert (2, 2, 6) not in gf_module._FIELDS
        assert first.type is ReducibleModulus

    def test_pickle_and_copy_return_the_live_instance(self):
        f = GF(3, 2, 10)
        assert pickle.loads(pickle.dumps(f)) is f
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        assert copy.deepcopy([f, f])[1] is f

    def test_rebuilt_after_its_last_reference_goes(self, monkeypatch):
        builds = []
        real = GF._build

        def counted(self, *args):
            builds.append(args)
            real(self, *args)

        monkeypatch.setattr(GF, "_build", counted)
        gc.collect()
        assert (2, 5, 41) not in gf_module._FIELDS
        f = GF(2, 5, 41)  # X^5 + X^3 + 1, used by no other test
        assert GF(2, 5, 41) is f and len(builds) == 1
        del f
        gc.collect()
        assert (2, 5, 41) not in gf_module._FIELDS
        assert GF(2, 5, 41).q == 32 and len(builds) == 2

    def test_patched_method_is_shared_and_undone_cleanly(self, gf16, monkeypatch):
        """A method patched on the class reaches every caller's field, and
        monkeypatch's undo leaves the shared instance as it was."""
        monkeypatch.setattr(GF, "mul", lambda self, a, b: 0)
        assert GF(2, 4, 19).mul(3, 5) == 0
        monkeypatch.undo()
        assert "mul" not in vars(gf16) and gf16.mul(3, 5) == 15


class TestArithmetic:
    def test_gf7_products(self, gf7):
        assert gf7.mul(3, 5) == 1
        assert gf7.inv(3) == 5
        assert gf7.inv(1) == 1

    def test_gf16_table_against_slow_oracle(self, gf16):
        for a in range(16):
            for b in range(16):
                assert gf16.mul(a, b) == slow_poly_mul_mod(a, b, 2, 4, 19)

    @pytest.mark.parametrize(
        "p, m, modulus", [(2, 11, 2053), (3, 7, 2198), (2, 16, 69643)],
        ids=["GF2^11", "GF3^7", "GF2^16"],
    )
    def test_large_field_against_slow_oracle(self, p, m, modulus, rng):
        """Fields above the 1024-element table bound multiply through
        log/antilog tables; their antilog table lists every nonzero element
        once."""
        f = GF(p, m, modulus)
        assert sorted(f._exp.tolist()) == list(range(1, f.q))
        a = rng.integers(0, f.q, 300)
        b = rng.integers(0, f.q, 300)
        assert f.mul(a, b).tolist() == [
            slow_poly_mul_mod(int(x), int(y), p, m, modulus) for x, y in zip(a, b)
        ]

    def test_gf16_known_product(self, gf16):
        # X * (X^3 + 1) = X^4 + X = 1 mod X^4 + X + 1
        assert gf16.mul(2, 9) == 1
        assert gf16.inv(2) == 9

    def test_absorbing_zero(self, gf16, gf7):
        elems = gf16.elements()
        assert not gf16.mul(elems, 0).any()
        assert not gf7.mul(gf7.elements(), 0).any()

    def test_inverse_of_zero_raises(self, gf16):
        with pytest.raises(ZeroDivisionError):
            gf16.inv(0)

    def test_gf9_oracle(self):
        f = GF(3, 2, 10)  # X^2 + 1
        for a in range(9):
            for b in range(9):
                assert f.mul(a, b) == slow_poly_mul_mod(a, b, 3, 2, 10)
        nz = f.elements()[1:]
        assert np.all(f.mul(nz, f.inv(nz)) == 1)

    def test_enumerate(self, gf2, gf7, gf16):
        assert gf2.elements().tolist() == [0, 1]
        assert gf7.elements().tolist() == list(range(7))
        e16 = gf16.elements()
        assert e16[0] == 0 and e16[-1] == 15 and len(e16) == 16


def schoolbook_add(a: int, b: int, p: int, m: int, sign: int = 1) -> int:
    """Independent reference for a + sign * b: digit by digit mod p."""
    return sum(
        ((a // p**i) % p + sign * ((b // p**i) % p)) % p * p**i for i in range(m)
    )


class TestAddSub:
    @pytest.mark.parametrize(
        "f", [GF(3, 2, 10), GF(5, 2, 32), GF(3, 3, 34)], ids=["GF9", "GF25", "GF27"]
    )
    def test_every_pair_against_schoolbook(self, f):
        a, b = np.meshgrid(f.elements(), f.elements(), indexing="ij")
        p, m = f.p, f.m
        assert f.add(a, b).tolist() == [
            [schoolbook_add(x, y, p, m) for y in range(f.q)] for x in range(f.q)
        ]
        assert f.sub(a, b).tolist() == [
            [schoolbook_add(x, y, p, m, -1) for y in range(f.q)] for x in range(f.q)
        ]
        assert f.neg(f.elements()).tolist() == [
            schoolbook_add(0, y, p, m, -1) for y in range(f.q)
        ]

    def test_sampled_pairs_above_table_bound(self, rng):
        """GF(3^7) has more than 1024 elements, so it adds digit-wise."""
        f = GF(3, 7, 2198)  # X^7 + X^2 + 2
        assert f.q > 1024
        a = rng.integers(0, f.q, 500)
        b = rng.integers(0, f.q, 500)
        assert f.add(a, b).tolist() == [schoolbook_add(x, y, 3, 7) for x, y in zip(a, b)]
        assert f.sub(a, b).tolist() == [schoolbook_add(x, y, 3, 7, -1) for x, y in zip(a, b)]
        assert f.neg(a).tolist() == [schoolbook_add(0, x, 3, 7, -1) for x in a]

    @pytest.mark.parametrize("p", [1031, 65521])
    def test_prime_field_above_table_bound(self, p, rng):
        """Prime fields of more than 1024 elements have no tables: they add
        digit-wise with one digit, multiply through log/antilog tables and
        sum as integers mod p."""
        f = GF(p)
        assert f._mul_table is None and f._add_table is None
        a = rng.integers(0, p, 500)
        b = rng.integers(0, p, 500)
        pairs = [(int(x), int(y)) for x, y in zip(a, b)]
        assert f.add(a, b).tolist() == [schoolbook_add(x, y, p, 1) for x, y in pairs]
        assert f.sub(a, b).tolist() == [schoolbook_add(x, y, p, 1, -1) for x, y in pairs]
        assert f.neg(a).tolist() == [schoolbook_add(0, x, p, 1, -1) for x, _ in pairs]
        assert f.mul(a, b).tolist() == [slow_poly_mul_mod(x, y, p, 1, 0) for x, y in pairs]
        nz = a[a != 0]
        assert f.inv(nz).tolist() == [pow(int(x), p - 2, p) for x in nz]
        rows = a.reshape(20, 25)
        assert f.sum(rows, axis=1).tolist() == schoolbook_sum(rows, 1, p, 1).tolist()


def schoolbook_sum(arr: np.ndarray, axis: int, p: int, m: int) -> np.ndarray:
    """Independent reference for a field sum along an axis: each base-p
    digit summed mod p."""
    moved = np.moveaxis(arr, axis, -1)
    out = np.zeros(moved.shape[:-1], dtype=np.int64)
    for idx in np.ndindex(out.shape):
        vals = [int(v) for v in moved[idx]]
        out[idx] = sum(sum(v // p**i % p for v in vals) % p * p**i for i in range(m))
    return out


SUM_FIELDS = [GF(3, 2, 10), GF(5, 2, 32), GF(3, 3, 34), GF(3, 7, 2198)]
SUM_IDS = ["GF9", "GF25", "GF27", "GF3^7"]
# Every odd extension field with add tables (q <= 1024), each with its
# smallest irreducible modulus, as (p, m, modulus).
ODD_EXTENSIONS = [
    (3, 2, 10), (3, 3, 34), (3, 4, 86), (3, 5, 250), (3, 6, 734),
    (5, 2, 27), (5, 3, 131), (5, 4, 627), (7, 2, 50), (7, 3, 345),
    (11, 2, 122), (13, 2, 171), (17, 2, 292), (19, 2, 362), (23, 2, 530),
    (29, 2, 843), (31, 2, 962),
]


class TestSum:
    @pytest.mark.parametrize("f", SUM_FIELDS, ids=SUM_IDS)
    @pytest.mark.parametrize(
        "shape", [(0,), (1,), (7,), (3, 5), (0, 4), (1, 6), (2, 3, 4), (4, 1, 5), (3, 0, 2)]
    )
    def test_every_axis_against_schoolbook(self, f, shape, rng):
        arr = rng.integers(0, f.q, shape)
        for axis in range(len(shape)):
            got = f.sum(arr, axis=axis)
            assert np.shape(got) == shape[:axis] + shape[axis + 1 :]
            assert np.asarray(got).tolist() == schoolbook_sum(arr, axis, f.p, f.m).tolist()

    @pytest.mark.parametrize(
        "field", ODD_EXTENSIONS, ids=[f"GF{p**m}" for p, m, _ in ODD_EXTENSIONS]
    )
    def test_odd_extension_fields_with_tables(self, field, rng):
        """Odd extension fields with add tables sum as integers: on every
        axis, and on axes of ``_most``, ``_most + 1`` and ``3 _most + 2``
        terms, where chunk rounds run.  Every digit of q - 1 is p - 1, so a
        sum of more than ``_most`` of it carries unless chunked.  The two
        tables are read-only and hold at most 2^18 entries."""
        f = GF(*field)
        most = f._most
        for shape in [(2, 3, 4), (most, 2), (2, most + 1), (3 * most + 2,), (3, 3 * most + 2, 2)]:
            for arr in (rng.integers(0, f.q, shape), np.full(shape, f.q - 1)):
                for axis in range(len(shape)):
                    got = f.sum(arr, axis=axis)
                    assert np.asarray(got).tolist() == schoolbook_sum(arr, axis, f.p, f.m).tolist()
        for table in (f._spread, f._back):
            assert table.size <= 1 << 18
            with pytest.raises(ValueError):
                table[0] = 1

    @pytest.mark.parametrize("f", SUM_FIELDS, ids=SUM_IDS)
    def test_length_one_axis_returns_a_copy(self, f):
        arr = np.array([[1, 2, 3]])
        f.sum(arr, axis=0)[0] = 0
        assert arr.tolist() == [[1, 2, 3]]

    @pytest.mark.parametrize("f", SUM_FIELDS, ids=SUM_IDS)
    @pytest.mark.parametrize("length", [0, 1, 2, 5, 16])
    def test_dot(self, f, length, rng):
        u = rng.integers(0, f.q, length)
        v = rng.integers(0, f.q, length)
        want = schoolbook_sum(f.mul(u, v), 0, f.p, f.m)
        assert la.matmul(f, u, v) == int(want)


# Prime, binary, odd extension fields with tables, and GF(3^7) above the
# 1024-element table bound, which multiplies off log/antilog tables only.
PROD_FIELDS = [GF(2), GF(7), GF(2, 4, 19), GF(5, 2, 32), GF(3, 6, 734), GF(3, 7, 2198)]
PROD_IDS = ["GF2", "GF7", "GF16", "GF25", "GF729", "GF3^7"]


def schoolbook_prod(f, arr: np.ndarray, axis: int) -> np.ndarray:
    """Reference product along an axis: one ``mul`` per factor, from 1."""
    moved = np.moveaxis(arr, axis, -1)
    out = np.ones(moved.shape[:-1], dtype=np.int64)
    for idx in np.ndindex(out.shape):
        for v in moved[idx]:
            out[idx] = f.mul(out[idx], v)
    return out


class TestProdPow:
    @pytest.mark.parametrize("f", PROD_FIELDS, ids=PROD_IDS)
    @pytest.mark.parametrize(
        "shape", [(0,), (1,), (7,), (3, 5), (0, 4), (1, 6), (2, 3, 4), (4, 1, 5), (3, 0, 2)]
    )
    def test_prod_on_every_axis_against_schoolbook(self, f, shape, rng):
        """Zeros included: about one entry in four is 0, so some products
        are 0 and some not; an empty axis gives 1."""
        arr = np.where(rng.random(shape) < 0.25, 0, rng.integers(1, f.q, shape))
        for axis in range(len(shape)):
            got = f.prod(arr, axis=axis)
            assert np.shape(got) == shape[:axis] + shape[axis + 1 :]
            assert np.asarray(got).tolist() == schoolbook_prod(f, arr, axis).tolist()

    @pytest.mark.parametrize("f", PROD_FIELDS, ids=PROD_IDS)
    def test_pow_against_repeated_products(self, f, rng):
        """Exponents 0 to 2q, past the order q - 1 of the group, on 0, 1
        and sampled elements, broadcast both ways; 0^0 = 1."""
        a = np.concatenate([[0, 1], rng.integers(2, f.q, 6)]) if f.q > 2 else np.array([0, 1])
        exps = np.unique(np.concatenate([np.arange(4), [f.q - 2, f.q - 1, f.q, 2 * f.q]]))
        want = np.ones((len(exps), len(a)), dtype=np.int64)
        for i, e in enumerate(exps):
            for _ in range(e):
                want[i] = f.mul(want[i], a)
        assert f.pow(a, exps[:, None]).tolist() == want.tolist()
        assert f.pow(a[:, None], exps).tolist() == want.T.tolist()
        assert f.pow(0, 0) == 1 and f.pow(0, 3) == 0


FIELDS = [GF(2), GF(5), GF(7), GF(2, 4, 19), GF(3, 2, 10), GF(2, 5, 37)]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(FIELDS))
def test_field_axioms(data, f):
    a = data.draw(st.integers(0, f.q - 1))
    b = data.draw(st.integers(0, f.q - 1))
    c = data.draw(st.integers(0, f.q - 1))
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    assert f.sub(a, b) == f.add(a, f.neg(b))
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([GF(2, 4, 19), GF(2, 5, 37), GF(2)]))
def test_frobenius_char2(data, f):
    a = data.draw(st.integers(0, f.q - 1))
    b = data.draw(st.integers(0, f.q - 1))
    lhs = f.mul(f.add(a, b), f.add(a, b))
    rhs = f.add(f.mul(a, a), f.mul(b, b))
    assert lhs == rhs


GATHER_FIELDS = [GF(2), GF(7), GF(3, 2, 10), GF(2, 4, 19), GF(5, 2, 32)]
BIG = gf_module._FLAT_MIN + 100  # one operand this size takes the flat path


def gather_operands(case, q, rng):
    """Operands a, b for ``case``, and whether they reach the flat path."""

    def draw(*shape):
        return rng.integers(0, q, shape)

    if case == "small":
        return draw(40), draw(40), False
    if case == "broadcast-small":
        return draw(4, 1, 5), draw(1, 3, 5), False
    if case == "large":
        return draw(BIG), draw(BIG), True
    if case == "broadcast-large":
        return draw(BIG, 1), draw(1, 3), True
    if case == "0d-left":
        return np.asarray(rng.integers(0, q)), draw(BIG), True
    if case == "0d-right":
        return draw(2, BIG), int(rng.integers(0, q)), True
    if case == "uint8":
        return draw(BIG).astype(np.uint8), draw(BIG).astype(np.uint8), True
    if case == "sliced":
        return draw(3 * BIG)[::3], draw(2 * BIG)[1::2], True
    assert case == "moveaxis"
    return np.moveaxis(draw(BIG, 2, 3), 0, -1), draw(1, 3, BIG)[:, :, ::-1], True


@pytest.mark.parametrize(
    "case",
    ["small", "broadcast-small", "large", "broadcast-large", "0d-left", "0d-right",
     "uint8", "sliced", "moveaxis"],
)
@pytest.mark.parametrize("f", GATHER_FIELDS, ids=["GF2", "GF7", "GF9", "GF16", "GF25"])
def test_vectorized_matches_scalar(f, case, rng):
    """Table lookups on arrays (the flat path from ``_FLAT_MIN`` elements on,
    the 2-D gather below) equal, element for element, the lookups on 0-d
    operands, which always take the 2-D gather."""
    a, b, flat = gather_operands(case, f.q, rng)
    assert (max(np.size(a), np.size(b)) >= gf_module._FLAT_MIN) == flat
    pairs = np.broadcast_arrays(a, b)
    for op in (f.mul, f.add, f.sub):
        got = op(a, b)
        assert got.shape == pairs[0].shape
        want = [op(int(x), int(y)) for x, y in zip(pairs[0].flat, pairs[1].flat)]
        assert got.ravel().tolist() == want


def test_dot_and_sum(gf16, gf5):
    assert la.matmul(gf16, [1, 2, 3], [1, 1, 1]) == 1 ^ 2 ^ 3
    assert la.matmul(gf5, [1, 2, 3], [1, 1, 1]) == (1 + 2 + 3) % 5
    f9 = GF(3, 2, 10)
    arr = np.array([[4, 4], [1, 1]])
    assert f9.sum(arr, axis=1).tolist() == [f9.add(4, 4), f9.add(1, 1)]
