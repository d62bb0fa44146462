"""The rank-one-masked McEliece variant over GRS codes.

Key generation hides a secret GRS generator G_sec behind
G_pub = S^-1 G_sec Q^-1 where Q = Pi + R, Pi a permutation matrix and
R = alpha^T beta a rank-one matrix.

Writing a = beta Pi^-1, the masking matrix satisfies
Q = (I + alpha^T a) Pi, and with lam = -alpha / (1 + <a, alpha>) every public
codeword is p + <lam, p> a (``mask``) for some p in the permuted secret code
C = C_sec Pi^-1.
Key generation resamples (alpha, beta) until Q is invertible, lam is not a
parity check of C, and the public code differs from C; these keys are the
honest ones, and also exactly the ones the square-code attack targets.

Decryption needs only that shape, so the secret key and any masking pair
(a0, lam0) carrying a GRS code C onto C_pub decrypt alike (``Decryptor``): a
ciphertext is p + <lam, p> a + e, so for one of the q values of s, c - s a is
p + e, which the GRS decoder in C corrects; one k x k matrix maps messages to
plaintexts, S for the secret key, and for a ``RecoveredKey`` the T with
phi(G_C) = T G_pub, phi the pair's masking map, read off one rref of
[G_pub^T | phi(G_C)^T] (``pair_candidates`` refuses a pair whose phi does
not carry C onto C_pub).  A key's ``Decryptor``, built on its first
decryption from C, the direction and the maps from messages of C to
plaintexts and to public codewords, and from nothing of the key's type,
goes with the key: a ``SecretKey`` holds its own, a ``RecoveredKey`` one
per public key.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import grs, linalg
from .codes import LinearCode
from .gf import GF
from .linalg import DimensionMismatch


class InvalidDimensions(ValueError):
    pass


class ResampleExhausted(RuntimeError):
    pass


class DecryptionFailure(RuntimeError):
    pass


@dataclass(eq=False, frozen=True)
class PublicKey:
    field: GF
    n: int
    k: int
    g_pub: np.ndarray  # k x n, rank k

    def __post_init__(self):
        for name in ("n", "k"):  # a float raises TypeError, as in GF
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        # A read-only copy: the pair route keeps a map built from it.
        g_pub = self.field.as_elements(self.g_pub, "public generator")
        why = grs.dimension_error(self.field, self.n, self.k)
        if why or g_pub.shape != (self.k, self.n):
            raise InvalidDimensions(f"public generator of shape {g_pub.shape} for n={self.n} "
                                    f"k={self.k}: {why or 'need shape (k, n)'}")
        object.__setattr__(self, "g_pub", linalg.frozen(g_pub))

    @property
    def t(self) -> int:
        """Error weight budget floor((n-k)/2)."""
        return (self.n - self.k) // 2


@dataclass(eq=False, frozen=True)
class SecretKey:
    grs: grs.GrsParams  # the secret GRS code C_sec
    s_mat: np.ndarray  # k x k invertible scrambler
    perm: np.ndarray  # permutation as an index array; Pi[i, perm[i]] = 1
    alpha: np.ndarray  # Q = Pi + alpha^T beta
    beta: np.ndarray
    a: np.ndarray  # beta permuted so that R Pi^-1 = alpha^T a
    lam: np.ndarray  # -alpha / (1 + <a, alpha>)
    g_pub: np.ndarray  # the PublicKey's read-only generator
    masked: grs.GrsParams  # C = C_sec Pi^-1, the code decryption decodes in

    def __post_init__(self):
        # Read-only copies, as every key keeps: its decryptor reads S and a.
        for name in ("s_mat", "perm", "alpha", "beta", "a", "lam"):
            object.__setattr__(self, name, linalg.frozen(getattr(self, name)))

    @property
    def field(self) -> GF:
        return self.grs.field

    @property
    def n(self) -> int:
        return self.grs.n

    @property
    def k(self) -> int:
        return self.grs.k

    @property
    def t(self) -> int:
        return (self.n - self.k) // 2

    @cached_property
    def decryptor(self) -> Decryptor:
        """The key's decryptor, built on its first decryption (not by
        keygen or the key-file reader) and dropped with the key: C, the
        direction a, S as the plaintext map, which sends C's message m S^-1
        back to the plaintext m, and S G_pub as the public map."""
        return Decryptor(self.masked, self.a, self.s_mat,
                         linalg.matmul(self.field, self.s_mat, self.g_pub))


@dataclass(eq=False, frozen=True)
class RecoveredKey:
    grs: grs.GrsParams  # the hidden GRS code C (equivalently C_sec Pi^-1)
    a0: np.ndarray
    lam0: np.ndarray
    shared_subcode: LinearCode | None  # C_pub & C, dimension k-1 (None in the
    # degenerate branch where the public code is itself GRS)

    def __post_init__(self):
        # Read-only copies: pair_candidates keeps a decryptor built from
        # them, per public key, for as long as both the key and this pair
        # are alive.
        for name in ("a0", "lam0"):
            v = _mask_vector(self.grs.field, getattr(self, name), name, self.grs.n)
            object.__setattr__(self, name, linalg.frozen(v))
        object.__setattr__(self, "_pair_maps", weakref.WeakKeyDictionary())


def _mask_vector(f: GF, v, name: str, n: int) -> np.ndarray:
    """A mask vector (alpha, beta, a0, lam0) as n field elements: FieldError
    unless it holds them, InvalidDimensions unless it has length n."""
    v = f.as_elements(v, name)
    if v.shape != (n,):
        raise InvalidDimensions(f"{name} must have length n={n}, got shape {v.shape}")
    return v


def masked_params(sk: SecretKey) -> grs.GrsParams:
    """Describing pair of C = C_sec Pi^-1 (the permuted secret code)."""
    return sk.masked


def mask(f: GF, gen: np.ndarray, a: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The masking map p -> p + <lam, p> a applied to each row p of gen."""
    return f.add(gen, f.mul(linalg.matmul(f, gen, lam)[:, None], a))


def build_keypair(
    f: GF,
    x: np.ndarray,
    y: np.ndarray,
    s_mat: np.ndarray,
    perm: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
) -> tuple[PublicKey, SecretKey]:
    """Assemble a keypair from explicit components (no honesty resampling).

    Raises FieldError unless S, x, y, alpha and beta hold field elements,
    and InvalidDimensions when perm is not an integer permutation of
    0..n-1, alpha or beta does not have length n, or Q = Pi + alpha^T beta
    is singular.  Used by key-file loading, and by tests that need
    degenerate keys.
    """
    s_mat = f.as_elements(s_mat, "S")
    k = s_mat.shape[0]
    params = grs.GrsParams(f, np.asarray(x), np.asarray(y), k)
    n = params.n
    perm = np.asarray(perm)
    if perm.dtype.kind not in "iu" or not np.array_equal(np.sort(perm), np.arange(n)):
        raise InvalidDimensions(f"perm must be an integer permutation of 0..{n - 1}")
    alpha, beta = _mask_vector(f, alpha, "alpha", n), _mask_vector(f, beta, "beta", n)
    perm = perm.astype(np.int64)
    masked = grs.GrsParams(f, params.x[perm], params.y[perm], k)
    return _assemble(params, masked, perm, s_mat, linalg.inverse(f, s_mat), alpha, beta)


def _assemble(params: grs.GrsParams, masked: grs.GrsParams, perm, s_mat, s_inv, alpha, beta):
    """``build_keypair`` from its mask-independent parts: C_sec, C =
    C_sec Pi^-1, Pi, S and S^-1."""
    f = params.field
    a = beta[perm]
    denom = int(f.add(1, linalg.matmul(f, a, alpha)))
    if denom == 0:
        raise InvalidDimensions("Q = Pi + alpha^T beta is singular")
    lam = f.mul(f.neg(f.inv(denom)), alpha)
    # Q^-1 = Pi^-1 (I + lam^T a), so G_sec Q^-1 = mask(G_C, a, lam).
    g_pub = linalg.matmul(f, s_inv, mask(f, masked.generator, a, lam))
    pk = PublicKey(f, params.n, params.k, g_pub)
    sk = SecretKey(params, s_mat, perm, alpha, beta, a, lam, pk.g_pub, masked)
    return pk, sk


# Mask draws before keygen gives up on the parameters.
_MAX_RESAMPLE = 1000


def keygen(f: GF, n: int, k: int, rng: np.random.Generator) -> tuple[PublicKey, SecretKey]:
    """Generate an honest keypair.

    Draws x, y, S, Pi once, then resamples the rank-one mask (alpha, beta)
    until Q is invertible, lam is not orthogonal to the permuted secret code,
    and the public code differs from it.  A bounded retry count turns
    pathological parameter choices into a loud error instead of a hang.
    S and S^-1 come from one elimination per draw of S, and C, its generator
    and its parity checks are built once, before the first mask draw.
    """
    why = grs.dimension_error(f, n, k)
    if why:
        raise InvalidDimensions(why)
    params = grs.random_params(f, n, k, rng)
    s_mat, s_inv = linalg.random_invertible_pair(f, k, rng)
    perm = rng.permutation(n).astype(np.int64)
    masked = grs.GrsParams(f, params.x[perm], params.y[perm], k)

    def nonzero_vec() -> np.ndarray:
        while True:
            v = rng.integers(0, f.q, n, dtype=np.int64)
            if v.any():
                return v

    for _ in range(_MAX_RESAMPLE):
        alpha = nonzero_vec()
        beta = nonzero_vec()
        try:
            pk, sk = _assemble(params, masked, perm, s_mat, s_inv, alpha, beta)
        except InvalidDimensions:
            continue  # singular Q
        if not linalg.matmul(f, masked.generator, sk.lam).any():
            continue  # lam orthogonal to C: degenerate, public code equals C
        if not linalg.matmul(f, sk.a, masked.parity_checks_t).any():
            continue  # a in C: the public code p + <lam, p> a coincides with C
        return pk, sk
    raise ResampleExhausted(f"no acceptable mask after {_MAX_RESAMPLE} samples")


def random_error(f: GF, n: int, weight: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform error vector of exact Hamming weight ``weight``."""
    e = np.zeros(n, dtype=np.int64)
    support = rng.choice(n, size=weight, replace=False)
    e[support] = rng.integers(1, f.q, weight, dtype=np.int64)
    return e


def encrypt(
    pk: PublicKey,
    msg: np.ndarray,
    rng: np.random.Generator | None = None,
    error: np.ndarray | None = None,
) -> np.ndarray:
    """c = m G_pub + e with e of weight exactly t (or a caller-provided e).

    Raises FieldError when m or a given e is not an integer array with
    entries in [0, q)."""
    f = pk.field
    msg = f.as_elements(msg, "message")
    if msg.shape != (pk.k,):
        raise DimensionMismatch(f"message length must be k={pk.k}")
    if error is None:
        if rng is None:
            raise ValueError("encrypt needs an rng when no explicit error is given")
        error = random_error(f, pk.n, pk.t, rng)
    else:
        error = f.as_elements(error, "error")
        if error.shape != (pk.n,):
            raise DimensionMismatch(f"error length must be n={pk.n}")
    return f.add(linalg.matmul(f, msg, pk.g_pub), error)


def canonical_choice(candidates: list[tuple[int, np.ndarray]], t: int) -> np.ndarray:
    """Order-independent pick among verified (error weight, plaintext)
    decryptions: weight exactly t first, then the smallest weight, ties
    broken by the lexicographically smallest plaintext.

    The masking can push the public code's minimum distance below 2t+1, so a
    weight-t ciphertext occasionally sits within distance t of two public
    codewords.  ``encrypt`` draws its error with weight exactly t, so a
    candidate at a smaller distance cannot be the plaintext that produced
    such a ciphertext; lighter candidates win only when no weight-t candidate
    exists, as for a caller-supplied zero error.  Both decryption routes (the
    secret key's sweep and a recovered masking pair's) surface exactly the
    same candidate set, and this rule makes them return identical results.
    """
    return min(candidates, key=lambda c: (c[0] != t, c[0], tuple(c[1].tolist())))[1]


class Decryptor:
    """What decryption under one key needs of the key, built from C, d,
    ``to_plain`` and ``to_public`` and nothing of the key's type: the code
    C the shifted words are decoded in, the sweep's direction d and its n-k
    syndromes, and two ``linalg.Fixed`` maps from messages of C, to_plain
    (k x k) to plaintexts and to_public (to_plain G_pub) to public
    codewords.  Its arrays are read-only.  A ``SecretKey`` builds its own on
    its first decryption (S and S G_pub), the pair route one per recovered
    key and public key on their first (T and phi(G_C); ``pair_candidates``),
    and each goes with its key."""

    def __init__(self, code: grs.GrsParams, direction: np.ndarray, to_plain: np.ndarray,
                 to_public: np.ndarray):
        f = code.field
        self.code = code
        self.direction = linalg.frozen(direction)
        self.syndromes = linalg.frozen(linalg.matmul(f, self.direction, code.parity_checks_t))
        self.to_plain, self.to_public = linalg.Fixed(f, to_plain), linalg.Fixed(f, to_public)

    def candidates(self, c: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """The shift sweep shared by both decryptors.

        Decodes c - s d in C for every s in GF(q) as one line
        (``grs.decode_line``: the syndromes of every shift follow from
        syn(c) and syn(d), the locator minors from t+1 of them, and the
        words are decoded in blocks of 2^20 / ((t + 1) n)), keeps the
        decoded messages whose public codewords, by ``to_public``, lie
        within t of c, and maps those to plaintexts by ``to_plain``.
        Returns the distinct verified (error weight, plaintext) candidates,
        in shift order; raises DecryptionFailure when there is none, and
        FieldError unless c is an integer array with entries in [0, q).
        """
        f = self.code.field
        c = f.as_elements(c, "ciphertext")
        if c.shape != (self.code.n,):
            raise DimensionMismatch(f"ciphertext length must be n={self.code.n}")
        msgs = grs.decode_line(self.code, c, self.direction, self.syndromes)
        weights = np.count_nonzero(f.sub(c, self.to_public.product(msgs)), axis=1)
        near = weights <= self.code.t
        plain = self.to_plain.product(msgs[near])
        candidates = {m.tobytes(): (int(w), m) for w, m in zip(weights[near], plain)}
        if not candidates:
            raise DecryptionFailure("no shift produced a consistent decoding")
        return list(candidates.values())


def decrypt_candidates(sk: SecretKey, c: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The sweep of the secret key's decryptor: for c = m G_pub + e, the
    word c - s a at s = <e - c, alpha> is m S^-1 G_sec Pi^-1 + e, decoded
    in C."""
    return sk.decryptor.candidates(c)


def decrypt(sk: SecretKey, c: np.ndarray) -> np.ndarray:
    """The canonical choice among ``decrypt_candidates``."""
    return canonical_choice(decrypt_candidates(sk, c), sk.t)


def _pair_decryptor(rk: RecoveredKey, pub: PublicKey) -> Decryptor:
    """The decryptor of the pair under pub: C, a0, T and phi(G_C), which
    equals T G_pub as the rref that gives T shows (see the module docstring).
    A pair is refused unless C has pub's field, length and dimension (the
    pair has C's length) and T is invertible, so phi carries C onto C_pub.
    Kept on rk, weakly keyed by pub (hashed by identity) and holding no
    reference to it, so it goes with either key; a refused pair raises and
    keeps nothing, so it is refused again on every call."""
    dec = rk._pair_maps.get(pub)
    if dec is None:
        f, n, k, c = pub.field, pub.n, pub.k, rk.grs
        if c.field is not f or (c.n, c.k) != (n, k):
            raise DecryptionFailure("the recovered code has another field, length or dimension")
        images = mask(f, c.generator, rk.a0, rk.lam0)
        r, pivots = linalg.rref(f, np.hstack([pub.g_pub.T, images.T]))
        if pivots != list(range(k)):
            raise DecryptionFailure("the masking pair does not carry the recovered code into C_pub")
        if linalg.rank(f, r[:, k:]) != k:
            raise DecryptionFailure("the masking pair does not carry the recovered code onto C_pub")
        dec = rk._pair_maps[pub] = Decryptor(c, rk.a0, r[:, k:].T, images)
    return dec


def pair_candidates(rk: RecoveredKey, pub: PublicKey, z: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Decrypt using only public data and a recovered key: the candidate set
    of ``decrypt_candidates``, from the pair's decryptor (built by the first
    call on a key pair, reused by later ones).  Raises DecryptionFailure
    when C differs from C_pub in field, length or dimension, or phi does not
    carry C onto C_pub.
    """
    return _pair_decryptor(rk, pub).candidates(z)


def decrypt_with_pair(rk: RecoveredKey, pub: PublicKey, z: np.ndarray) -> np.ndarray:
    """The canonical choice among ``pair_candidates``: it agrees with
    ``decrypt`` even for ambiguous ciphertexts."""
    return canonical_choice(pair_candidates(rk, pub, z), pub.t)
