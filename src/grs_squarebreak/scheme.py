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

Decryption needs only that shape, so the secret key and a recovered pair
(a0, lam0) decrypt alike (``sweep_decrypt``): a ciphertext is
p + <lam, p> a + e, so for one of the q values of s, c - s a is p + e, which
the GRS decoder in C corrects; one k x k matrix maps messages to plaintexts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grs, linalg
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
        # A read-only copy: the pair route keeps a map built from it.
        object.__setattr__(self, "g_pub", linalg.frozen(self.g_pub))

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
    g_pub: np.ndarray
    masked: grs.GrsParams  # C = C_sec Pi^-1, the code decryption decodes in

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

    Raises InvalidDimensions when Q = Pi + alpha^T beta is singular.  Used by
    key-file loading, and by tests that need degenerate keys.
    """
    k = s_mat.shape[0]
    params = grs.GrsParams(f, np.asarray(x), np.asarray(y), k)
    perm = np.asarray(perm, dtype=np.int64)
    masked = grs.GrsParams(f, params.x[perm], params.y[perm], k)
    return _assemble(params, masked, perm, s_mat, linalg.inverse(f, s_mat), alpha, beta)


def _assemble(params: grs.GrsParams, masked: grs.GrsParams, perm, s_mat, s_inv, alpha, beta):
    """``build_keypair`` from its mask-independent parts: C_sec, C =
    C_sec Pi^-1, Pi, S and S^-1."""
    f = params.field
    alpha = np.asarray(alpha, dtype=np.int64)
    beta = np.asarray(beta, dtype=np.int64)
    a = beta[perm]
    denom = int(f.add(1, linalg.matmul(f, a, alpha)))
    if denom == 0:
        raise InvalidDimensions("Q = Pi + alpha^T beta is singular")
    lam = f.mul(f.neg(f.inv(denom)), alpha)
    # Q^-1 = Pi^-1 (I + lam^T a), so G_sec Q^-1 = mask(G_C, a, lam).
    g_pub = linalg.matmul(f, s_inv, mask(f, masked.generator, a, lam))
    pk = PublicKey(f, params.n, params.k, g_pub)
    sk = SecretKey(params, np.asarray(s_mat), perm, alpha, beta, a, lam, g_pub, masked)
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
    if not (1 <= k < n):
        raise InvalidDimensions(f"need 1 <= k < n, got k={k}, n={n}")
    if n > f.q:
        raise InvalidDimensions(f"need n <= q, got n={n}, q={f.q}")
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


def error_weight(f: GF, g_pub: np.ndarray, c: np.ndarray, msg: np.ndarray) -> int:
    """Hamming distance from c to the public codeword msg G_pub."""
    return int(np.count_nonzero(f.sub(c, linalg.matmul(f, msg, g_pub))))


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


# Entries, at most, in a sweep block's shifted words and in its Hankel stack.
_SWEEP_BLOCK = 1 << 20


def sweep_decrypt(
    key: PublicKey | SecretKey, c: np.ndarray, code: grs.GrsParams,
    direction: np.ndarray, to_plain: np.ndarray,
) -> list[tuple[int, np.ndarray]]:
    """The shift sweep shared by both decryptors.

    Decodes c - s * direction in ``code`` for every s in GF(q), by blocks of
    2^20 / ((t + 1) n) words (``grs.decode_many``), maps the decoded messages
    (coefficients in ``code.generator``) to plaintexts by the k x k matrix
    ``to_plain``, and keeps those whose public codeword lies within t of c.
    Returns the distinct verified (error weight, plaintext) candidates, in
    shift order; raises DecryptionFailure when there is none, and FieldError
    unless c is an integer array with entries in [0, q).
    """
    f = key.field
    c = f.as_elements(c, "ciphertext")
    if c.shape != (key.n,):
        raise DimensionMismatch(f"ciphertext length must be n={key.n}")
    block = max(1, _SWEEP_BLOCK // ((key.t + 1) * key.n))
    found = []
    for start in range(0, f.q, block):
        shifts = f.elements()[start : start + block]
        msgs, ok = grs.decode_many(code, f.sub(c, f.mul(shifts[:, None], direction)))
        found.append(msgs[ok])
    plain = linalg.matmul(f, np.concatenate(found), to_plain)
    weights = np.count_nonzero(f.sub(c[None, :], linalg.matmul(f, plain, key.g_pub)), axis=1)
    candidates = {m.tobytes(): (int(w), m) for w, m in zip(weights, plain) if w <= key.t}
    if not candidates:
        raise DecryptionFailure("no shift produced a consistent decoding")
    return list(candidates.values())


def decrypt_candidates(sk: SecretKey, c: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``sweep_decrypt`` with the secret key: for c = m G_pub + e, the word
    c - s a at s = <e - c, alpha> is m S^-1 G_sec Pi^-1 + e, decoded in C."""
    return sweep_decrypt(sk, c, sk.masked, sk.a, sk.s_mat)


def decrypt(sk: SecretKey, c: np.ndarray) -> np.ndarray:
    """The canonical choice among ``decrypt_candidates``."""
    return canonical_choice(decrypt_candidates(sk, c), sk.t)
