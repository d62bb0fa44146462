"""Linear codes as canonical row spaces, duality, and the square-code
distinguisher.

A LinearCode stores the RREF of its generator, so two equal codes compare
equal as values.  The star (Schur) product of two codes is the span of all
componentwise products of basis rows; its dimension is the distinguishing
statistic: a random k-dimensional code squares to dimension about
min(k(k+1)/2, n), an evaluation code of the Reed-Solomon family to 2k-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .gf import GF
from .linalg import DimensionMismatch


class ZeroMatrix(ValueError):
    pass


class FullSpaceDual(ValueError):
    pass


@dataclass(eq=False, frozen=True)
class LinearCode:
    field: GF
    gen: np.ndarray  # canonical RREF generator, k x n
    pivots: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.gen.shape[1]

    @property
    def k(self) -> int:
        return self.gen.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.field == other.field
            and self.gen.shape == other.gen.shape
            and np.array_equal(self.gen, other.gen)
        )

    def __repr__(self):
        return f"LinearCode(n={self.n}, k={self.k}, field={self.field!r})"

    def contains(self, v) -> bool:
        v = np.asarray(v, dtype=np.int64)
        if v.shape != (self.n,):
            raise DimensionMismatch(f"vector length {v.shape} != n={self.n}")
        return not linalg.reduce_row(self.field, self.gen, self.pivots, v).any()

    def dual(self) -> "LinearCode":
        if self.k == self.n:
            raise FullSpaceDual("the dual of the full space is the zero code")
        return code_from_generator(self.field, linalg.right_kernel(self.field, self.gen))

    def star(self, other: "LinearCode") -> "LinearCode":
        """Span of all componentwise products of codewords of self and other."""
        if self.field != other.field or self.n != other.n:
            raise DimensionMismatch("star product needs codes of equal length and field")
        return code_from_generator(self.field, star_rows(self.field, self.gen, other.gen))

    def square(self) -> "LinearCode":
        """The star product of the code with itself, spanned by the
        k(k+1)/2 products g_i * g_j with i <= j (the product commutes).
        They are formed and ranked in blocks of at most n rows on top of
        the running RREF, so no more than 2n rows are held at once, and
        diagonal by diagonal (j - i = 0, 1, ...), so a generic code spans
        all n coordinates in its first blocks, where the ranking stops."""
        f, n = self.field, self.n
        i, j = np.triu_indices(self.k)
        by_diagonal = np.argsort(j - i, kind="stable")
        i, j = i[by_diagonal], j[by_diagonal]
        r, pivots = self.gen[:0], []
        for s in range(0, len(i), n):
            block = f.mul(self.gen[i[s : s + n]], self.gen[j[s : s + n]])
            r, pivots = linalg.rref(f, np.vstack([r, block]))
            if len(pivots) == n:
                break
        return LinearCode(f, r, tuple(pivots))


def star_rows(f: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All componentwise products a_i * b_j of the rows of a (..., r, n) and
    b (..., s, n), i-major: row i*s + j of the (..., r*s, n) result is
    a_i * b_j.  Leading batch axes broadcast."""
    prods = f.mul(a[..., :, None, :], b[..., None, :, :])
    return prods.reshape(*prods.shape[:-3], prods.shape[-3] * prods.shape[-2], prods.shape[-1])


def code_from_generator(f: GF, g) -> LinearCode:
    """Canonicalize a (possibly redundant) generator matrix into a code."""
    return _code(f, *linalg.rref(f, g))


def _code(f: GF, r: np.ndarray, pivots: list[int]) -> LinearCode:
    if not pivots:
        raise ZeroMatrix("generator spans only the zero vector")
    return LinearCode(f, r, tuple(pivots))


def random_code(f: GF, k: int, n: int, rng: np.random.Generator) -> LinearCode:
    """Uniform k-dimensional code of length n (rank-k rejection sampling):
    each draw's rank test is the elimination that canonicalizes it."""
    for _ in range(1000):
        r, pivots = linalg.rref(f, linalg.random_matrix(f, k, n, rng))
        if len(pivots) == k:
            return _code(f, r, pivots)
    raise RuntimeError("failed to sample a full-rank generator")


@dataclass(frozen=True)
class DistinguishReport:
    square_dim: int
    generic_dim: int
    verdict: str  # "NonGeneric" | "Generic"
    dual_square_dim: int | None = None
    dual_generic_dim: int | None = None
    dual_verdict: str | None = None


def _verdict(square_dim: int, generic_dim: int) -> str:
    # Ties report Generic: only a strictly abnormal dimension is exploitable.
    return "NonGeneric" if square_dim < generic_dim else "Generic"


def distinguish(c: LinearCode) -> DistinguishReport:
    """Compare dim of the square code against the generic expectation.

    For k > n/2 the square saturates at n, so the report also carries the
    same statistic for the dual code, where the signal reappears.
    """
    n, k = c.n, c.k
    square_dim = c.square().k
    generic_dim = min(k * (k + 1) // 2, n)
    dual_square = dual_generic = dual_verdict = None
    if 2 * k > n and k < n:
        d = c.dual()
        dual_square = d.square().k
        dual_generic = min((n - k) * (n - k + 1) // 2, n)
        dual_verdict = _verdict(dual_square, dual_generic)
    return DistinguishReport(
        square_dim=square_dim,
        generic_dim=generic_dim,
        verdict=_verdict(square_dim, generic_dim),
        dual_square_dim=dual_square,
        dual_generic_dim=dual_generic,
        dual_verdict=dual_verdict,
    )
