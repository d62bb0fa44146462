"""Key-recovery attack on the rank-one-masked GRS McEliece variant.

The public code C_pub is not GRS, but it hides the codimension-1 subcode
C & <lam>^perp of a GRS code C: exactly the public codewords fixed by the
rank-one masking.  Squares betray it: star products z * g_j with all z_i in
the hidden subcode span at most 2k+2 dimensions, against 3k-3 for generic
triples.  Phase 1 draws random triples (about q^3) until one passes that
rank test.  The public generator is in RREF, so in the column order
[pivots | free], in which phase 1 draws and ranks, it is exactly [I | A]: a
drawn codeword is its coefficients followed by their product with A.  One
member z_a nonzero on every pivot column makes its k products independent,
and the test reduces to the rank of a Schur complement: the 2k rows
z_i * g_j - w_ij z_a * g_j of the other two members z_i, with
w_ij = z_i[p_j] / z_a[p_j] at pivot column p_j, zero on the pivots.  Three
of its rows always depend on the rest, since z_a * z_b, z_a * z_c and
z_b * z_c each expand in two ways, so a (2k-3) x (n-k) matrix is ranked.
Without such a member, a sum of two or three members that is one takes a
member's place: the span of the products stays the same.
Phase 2 solves for the subcode linearly, since it is totally isotropic for
z * z' modulo the span of the triple's products, and keeps a candidate only if
it obeys the square-code law dim = 2k-1.  Its front half (the forms of each
triple and the sum of their kernels) runs in lockstep over every triple of a
batch that passes the rank test, so the false passes, frequent when n is
close to 2k+2, are mostly rejected there by a few whole-stack eliminations
before any candidate is built.  Squaring the subcode yields a full GRS
code of dimension 2k-1 whose describing pair is recoverable, after which a
valid masking pair (a0, lam0) with

    phi(p) = p + <lam0, p> a0  mapping  C  onto  C_pub

is built without any sampling: phi must fix the shared subcode C & C_pub
and send one codeword p1 of C outside C_pub to one codeword p2 of C_pub
outside C, so lam0 is a vector orthogonal to the subcode and to p2 - p1 but
not to p1, and a0 is (p2 - p1) / <lam0, p1>.  The attack ends there, at the
``scheme.RecoveredKey``: ``scheme.pair_candidates`` decrypts any ciphertext
with it.

Rates above 1/2 are handled by running the same machinery on the dual code
(which carries the same structure with the roles of the two mask vectors
swapped); dimensions k in the dead interval [(n-2)/2, (n+2)/2], or with
fewer than 6 dimensions on the attacked side, admit neither branch.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np

from . import grs, linalg, scheme
from .codes import LinearCode, code_from_generator, star_rows
from .scheme import PublicKey
from .scheme import RecoveredKey, decrypt_with_pair, pair_candidates  # noqa: F401 (re-exported)


class NotApplicable(RuntimeError):
    pass


class TrialBudgetExceeded(RuntimeError):
    pass


class PreconditionViolated(RuntimeError):
    pass


class Branch(enum.Enum):
    LOW_RATE = "low-rate"
    HIGH_RATE_DUAL = "high-rate-dual"


# The rank-test gap 3k-3 > 2k+2 needs k >= 6 on the attacked side.
_MIN_DIM = 6


@dataclass
class AttackConfig:
    max_outer_trials: int | None = None  # default: 100 * q^3
    # Anything np.random.default_rng takes: an int, or a Generator, which the
    # attack then draws from in place, continuing its stream.
    seed: int | np.random.Generator | None = None


@dataclass
class AttackStats:
    outer_trials: int = 0  # phase-1 triples drawn
    inner_trials: int = 0  # candidate subcodes checked against the square law
    restarts: int = 0
    branch: Branch | None = None
    wall_time: float = 0.0


def applicable_branch(n: int, k: int) -> Branch | None:
    if 2 * k + 2 < n and k >= _MIN_DIM:
        return Branch.LOW_RATE
    if 2 * k > n + 2 and n - k >= _MIN_DIM:
        return Branch.HIGH_RATE_DUAL
    return None


def not_applicable_reason(n: int, k: int) -> str:
    """Why ``applicable_branch(n, k)`` is None."""
    if 2 * k + 2 < n:
        return f"the rank test needs k >= {_MIN_DIM}, got k={k} for n={n}"
    if 2 * k > n + 2:
        return f"the rank test on the dual needs n-k >= {_MIN_DIM}, got n-k={n - k}"
    return f"k={k} lies in the dead interval [{(n - 2) / 2:g}, {(n + 2) / 2:g}] for n={n}"


_BATCH = 256


def _pivots_first(code: LinearCode) -> np.ndarray:
    """The column order [pivots | free] of ``code``, in which its RREF
    generator reads [I | A]."""
    piv = np.asarray(code.pivots, dtype=np.int64)
    return np.concatenate([piv, np.delete(np.arange(code.n), piv)])


def triple_ranks(pub: LinearCode, zs: np.ndarray) -> np.ndarray:
    """Rank of the products z_i * g_j of each triple in a batch zs (b, 3, n),
    equal to ``batched_rank(star_rows(zs, pub.gen))``.

    ``pub.gen`` is [I | A] on its pivot columns P, so a codeword z is
    sum_j z[p_j] g_j.  The members are read, in a copy, in the column order
    [P | free], where the generator is exactly [I | A], so pivot and free
    columns are slices.  When some member z_a is nonzero on every column of P
    (the first such, with the other members z_b and z_c after it in cyclic
    order), its products z_a * g_j have rank k, and eliminating z_i * g_j
    (i = b, c) against them leaves, with w_ij = z_i[p_j] / z_a[p_j], the
    rows S_ij = z_i * g_j - w_ij z_a * g_j, zero on P and equal to
    A[j, l] (z_i[l] - w_ij z_a[l]) on a free column l: the rank is k plus
    the rank of these 2k rows.  Expanding z_a * z_b, z_a * z_c and z_b * z_c
    in two ways gives

        sum_j z_a[p_j] S_bj = 0,   sum_j z_a[p_j] S_cj = 0,
        sum_j z_c[p_j] S_bj = sum_j z_b[p_j] S_cj.

    So row k-1 of each block depends on the others, as z_a[p_{k-1}] != 0.
    Substituted into the third relation, that leaves the weight
    z_a[p_j] (w_cj - w_c,k-1) on S_bj and z_a[p_j] (w_bj - w_b,k-1) on S_cj
    (j < k-1), and the first row with a nonzero weight is a combination of
    the rest; with none, z_b and z_c are multiples of z_a and every S_ij is
    zero.  A (2k-3) x (n-k) matrix is ranked, which is why the generic rank
    at (16, 6) is k+9, not k+10.  A triple with no such z_a trades member 0
    (in the copy) for the first of z0 + z1, z0 + z2, z0 + z1 + z2 that is
    one, which spans the same products; the rare rest are ranked in full.
    """
    f, k = pub.field, pub.k
    order = _pivots_first(pub)
    zs = np.asarray(zs)[:, :, order]
    gen = pub.gen[:, order]
    full = (zs[:, :, :k] != 0).all(axis=2)
    lack = np.nonzero(~full.any(axis=1))[0]
    s01 = f.add(zs[lack, 0], zs[lack, 1])
    sums = np.stack([s01, f.add(zs[lack, 0], zs[lack, 2]), f.add(s01, zs[lack, 2])], axis=1)
    sum_full = (sums[:, :, :k] != 0).all(axis=2)
    hit = sum_full.any(axis=1)
    zs[lack[hit], 0] = sums[hit, np.argmax(sum_full[hit], axis=1)]
    full[lack[hit], 0] = True
    schur = full.any(axis=1)
    ranks = np.empty(len(zs), dtype=np.int64)
    if not schur.all():
        ranks[~schur] = linalg.batched_rank(f, star_rows(f, zs[~schur], gen))
    if schur.any():
        # z_a first, then the other two members.
        sel = np.nonzero(schur)[0]
        t = zs[sel[:, None], (np.argmax(full[sel], axis=1)[:, None] + np.arange(3)) % 3]
        b = len(t)
        w = f.mul(t[:, 1:, :k], f.inv0(t[:, :1, :k]))  # w_bj, w_cj
        # Rows j < k-1 of S_b and S_c; row k-1 depends on them.
        zi, za = t[:, 1:, None, k:], t[:, :1, None, k:]
        mats = f.mul(gen[:-1, k:], f.sub(zi, f.mul(w[:, :, :-1, None], za)))
        mats = mats.reshape(b, 2 * k - 2, pub.n - k)
        # The first row with a nonzero weight in the z_b * z_c relation is
        # dropped (its slot takes the last row); with none, all rows are zero.
        weighted = w[:, ::-1, :-1] != w[:, ::-1, -1:]
        drop = np.argmax(weighted.reshape(b, 2 * k - 2), axis=1)
        mats[np.arange(b), drop] = mats[:, -1]
        ranks[schur] = k + linalg.batched_rank(f, mats[:, :-1])
    return ranks


def kernel_sums(pub: LinearCode, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The front half of phase 2 for a stack of triples zs (b, 3, n) of
    ``pub``, in lockstep.

    With W the span of a triple's products z_i * g_j, each p in W^perp gives
    the symmetric form M_p = G diag(p) G^T, reading z * z' mod W in
    coefficient space.  Returns (sums, forms): sums[i] is the
    ``batched_rref`` table (k, k) of the sum of the kernels of triple i's
    nonzero forms, whose nonzero rows are its RREF basis, and forms[i] holds
    its forms M_p for a basis of W^perp, padded with zero forms.
    """
    f, k = pub.field, pub.k
    perp, _ = linalg.batched_right_kernel(f, star_rows(f, zs, pub.gen))
    squares = star_rows(f, pub.gen, pub.gen)
    forms = linalg.matmul(f, perp, squares.T).reshape(*perp.shape[:2], k, k)
    nonzero = forms.any(axis=(2, 3))
    kern, _ = linalg.batched_right_kernel(f, forms[nonzero])
    kernels = np.zeros((*nonzero.shape, kern.shape[1], k), dtype=np.int64)
    kernels[nonzero] = kern
    stacked = kernels.reshape(len(zs), kernels.shape[1] * kernels.shape[2], k)
    return linalg.batched_rref(f, stacked), forms


def _subcode_from(pub: LinearCode, front: tuple, i: int, stats: AttackStats) -> LinearCode | None:
    """The back half of phase 2: the subcode that triple i of the
    ``kernel_sums`` result ``front`` points to, or None.  Each candidate is
    an inner trial; a kernel sum of dimension other than k-1 or k-2 yields
    none."""
    f, k, gen = pub.field, pub.k, pub.gen
    table, forms = front[0][i], front[1][i]
    pivot = table.any(axis=1)
    basis = table[pivot]
    if len(basis) == k - 1:
        candidates = [basis]
    elif len(basis) == k - 2:
        # The q+1 lines of the complement spanned by the two free unit vectors.
        a, b = np.nonzero(~pivot)[0]
        lines = np.zeros((f.q + 1, k), dtype=np.int64)
        lines[:, a] = np.append(f.elements(), 1)
        lines[: f.q, b] = 1
        # v^T M_p v, the sum of M_p[i, j] v_i v_j over all i and j, for every line and form.
        outer = f.mul(lines[:, :, None], lines[:, None, :]).reshape(f.q + 1, k * k)
        values = linalg.matmul(f, outer, forms.reshape(len(forms), k * k).T)
        candidates = [np.vstack([basis, v]) for v in lines[~values.any(axis=1)]]
    else:
        return None
    for cand in candidates:
        stats.inner_trials += 1
        subcode = code_from_generator(f, linalg.matmul(f, cand, gen))
        if subcode.k == k - 1 and subcode.square().k == 2 * k - 1:
            return subcode
    return None


def solve_subcode(pub: LinearCode, zs: np.ndarray, stats: AttackStats) -> LinearCode | None:
    """Phase 2 of the search for one triple zs of ``pub`` passing the rank
    test: the shared subcode it points to, solved linearly, or None.

    A triple inside the subcode makes it totally isotropic for every form
    M_p of ``kernel_sums``, whose form is then
    t(x) l_p(y) + l_p(x) t(y) + w_p t(x) t(y) with ker t the subcode; so the
    kernels of the nonzero M_p sum to the subcode, or, for a single rank-2
    form (n - dim W = 1), to a hyperplane of it that one isotropic line of a
    complement completes.  That holds when the triple's products span 2k+2
    dimensions: a subcode triple whose products span less can give another
    sum, and is then rejected.  Each candidate is an inner trial, kept only
    if it has dimension k-1 and a square of dimension 2k-1.  This is the
    one-triple case of the lockstep search in ``find_shared_subcode``.
    """
    return _subcode_from(pub, kernel_sums(pub, zs[None]), 0, stats)


def find_shared_subcode(
    pub: LinearCode,
    cfg: AttackConfig,
    rng: np.random.Generator,
    stats: AttackStats | None = None,
) -> LinearCode:
    """Locate the codimension-1 subcode of ``pub`` lying inside the hidden
    GRS code.

    Phase 1 draws triples z_1, z_2, z_3 from pub, in batches of ``_BATCH``,
    until the span of all z_i * g_j (ranked by ``triple_ranks``) has
    dimension <= 2k+2 and the triple is independent; each draw is an outer
    trial.  Phases 1 and 2 work on pub with its columns in the order
    [pivots | free], where its generator is [I | A], so a triple is drawn as
    its coefficients and their product with A.  Ranks and independence do
    not depend on the order, nor does the span of the forms G diag(p) G^T of
    ``kernel_sums``, which live in coefficient space; ``_subcode_from`` maps
    candidates through pub's own generator.  Within one call the batch size
    only sets how far ahead the rng is read; but a call that returns drops
    the rest of its batch, so when ``recover_key`` rejects the subcode and
    calls again, the batch size also decides which triples that restart
    skips.  At desk scale the generic
    span saturates at n with a margin of very few dimensions over the
    threshold, so false triples pass too; phase 2 finds no subcode for them,
    which counts a restart.

    Phase 2 is ``solve_subcode`` for every passing triple, split in two.
    Its front half, the triples' independence and their ``kernel_sums``,
    runs once per batch in lockstep for all passing triples; the passing
    triples are then walked in draw order, each first counted and checked
    against the budget.  A dependent triple is skipped, a kernel sum of
    dimension other than k-1 or k-2 counts a restart without an inner
    trial, and the rest go through the candidate stage one by one.  The
    draws and decisions are those of calling ``solve_subcode`` per triple.
    """
    f, n, k = pub.field, pub.n, pub.k
    if applicable_branch(n, k) is not Branch.LOW_RATE:
        raise NotApplicable(f"rank test needs 2k+2 < n and k >= {_MIN_DIM} (k={k}, n={n})")
    if stats is None:
        stats = AttackStats()
    budget = cfg.max_outer_trials if cfg.max_outer_trials is not None else 100 * f.q**3
    threshold = 2 * k + 2
    ordered = LinearCode(f, pub.gen[:, _pivots_first(pub)], tuple(range(k)))
    a = linalg.Fixed(f, ordered.gen[:, k:])

    while True:
        drawn = stats.outer_trials
        coeffs = linalg.random_matrix(f, _BATCH, 3 * k, rng).reshape(_BATCH, 3, k)
        free = a.product(coeffs.reshape(3 * _BATCH, k)).reshape(_BATCH, 3, n - k)
        zbatch = np.concatenate([coeffs, free], axis=2)
        ranks = triple_ranks(ordered, zbatch)
        passing = np.nonzero(ranks <= threshold)[0]
        if passing.size:
            independent = linalg.batched_rank(f, zbatch[passing]) == 3
            front = kernel_sums(ordered, zbatch[passing])
        for i, idx in enumerate(passing):
            stats.outer_trials = drawn + int(idx) + 1
            if stats.outer_trials > budget:
                raise TrialBudgetExceeded(f"no suitable triple within {budget} draws")
            if not independent[i]:
                continue
            subcode = _subcode_from(pub, front, i, stats)
            if subcode is not None:
                return subcode
            stats.restarts += 1
        stats.outer_trials = drawn + _BATCH
        if stats.outer_trials > budget:
            raise TrialBudgetExceeded(f"no suitable triple within {budget} draws")


def recover_secret_grs(shared: LinearCode, k: int) -> grs.GrsParams:
    """Reconstruct the hidden GRS code from its recovered codim-1 subcode.

    The square of the subcode equals the full GRS code of dimension 2k-1 on
    the same points; recover its describing pair, then read the multipliers
    of dimension k off the RREF of the subcode plus x times it
    (``grs.recover_multipliers``, which checks that they contain the
    subcode).  Raises NotGrs when any step fails (i.e. the subcode guess was
    wrong).
    """
    f, n = shared.field, shared.n
    if shared.k != k - 1 or 2 * k - 1 > n:
        raise grs.NotGrs(f"subcode of dimension {shared.k} cannot come from k={k}")
    sq = shared.square()
    if sq.k != 2 * k - 1:
        raise grs.NotGrs(f"square has dimension {sq.k}, expected {2 * k - 1}")
    sq_params = grs.ss_recover(sq)
    y = grs.recover_multipliers(sq_params.x, k, shared)
    if y is None:
        raise grs.NotGrs("no GRS_k code on the square's points contains the subcode")
    return grs.GrsParams(f, sq_params.x, y, k)


def recover_valid_pair(
    pub: LinearCode, c: LinearCode
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A masking pair (a0, lam0) carrying c onto pub, with <a0, lam0> = 0,
    and a generator matrix of the shared subcode pub & c.

    With p1 the first generator row of c outside pub, p2 the first of pub
    outside c and d = p2 - p1, lam0 is the first kernel row of the shared
    subcode and d with <lam0, p1> != 0, and a0 = d / <lam0, p1>.  The map
    p -> p + <lam0, p> a0 then fixes pub & c and sends p1 to p2, so it
    carries c = (pub & c) + <p1> onto pub = (pub & c) + <p2>.  Such a lam0
    exists because p1 lies outside span(pub & c, d).  Raises
    PreconditionViolated unless dim(pub & c) = k-1, which means c is not the
    hidden code.
    """
    f, k = pub.field, pub.k
    if pub == c or c.k != k:
        raise PreconditionViolated("need c != pub of the same dimension")
    inter = linalg.intersect_rowspaces(f, pub.gen, c.gen)
    if inter.shape[0] != k - 1:
        raise PreconditionViolated(f"dim(pub & c) = {inter.shape[0]}, expected {k - 1}")
    p1 = next(row for row in c.gen if not pub.contains(row))
    p2 = next(row for row in pub.gen if not c.contains(row))
    d = f.sub(p2, p1)
    kernel = linalg.right_kernel(f, np.vstack([inter, d]))
    lam0 = next(row for row in kernel if linalg.matmul(f, row, p1) != 0)
    return f.div(d, linalg.matmul(f, lam0, p1)), lam0, inter


def pair_is_valid(pub: LinearCode, c: LinearCode, a0: np.ndarray, lam0: np.ndarray) -> bool:
    """Check <a0, lam0> != -1 and that the masking map ``scheme.mask``,
    p -> p + <lam0, p> a0, maps a basis of c into pub with full rank.

    Stricter than the pair route's refusal (``scheme.pair_candidates``),
    which asks only that the map carry c onto pub: a pair at
    <a0, lam0> = -1 whose map does so is rejected here and still decrypts
    there."""
    f = pub.field
    if linalg.matmul(f, a0, lam0) == f.neg(1):
        return False
    images = scheme.mask(f, c.gen, a0, lam0)
    if linalg.reduce_row(f, pub.gen, pub.pivots, images).any():
        return False
    return linalg.rank(f, images) == c.k


def recover_key(
    pub: PublicKey, cfg: AttackConfig | None = None
) -> tuple[RecoveredKey, AttackStats]:
    """Full key recovery from the public key alone.

    Returns the recovered key together with trial statistics.  Raises
    NotApplicable when neither branch applies (``not_applicable_reason``)
    or the square of the attacked code rules the attack out, and
    TrialBudgetExceeded when the configured trial cap runs out.
    """
    if cfg is None:
        cfg = AttackConfig()
    rng = np.random.default_rng(cfg.seed)
    f, n, k = pub.field, pub.n, pub.k
    pub_code = code_from_generator(f, pub.g_pub)
    if pub_code.k != k:
        raise PreconditionViolated("public generator is not full rank")

    branch = applicable_branch(n, k)
    if branch is None:
        raise NotApplicable(not_applicable_reason(n, k))

    stats = AttackStats(branch=branch)
    start = time.perf_counter()

    if branch == Branch.LOW_RATE:
        target = pub_code
    else:
        target = pub_code.dual()
    k_target = target.k
    target_square_dim = target.square().k

    if target_square_dim <= 2 * k_target - 1:
        # lam in C^perp: the public code *is* the hidden GRS code, so recover
        # it directly and use the identity masking pair.
        try:
            params = grs.ss_recover(pub_code)
        except grs.NotGrs as e:
            raise NotApplicable(f"public code squares like a GRS code but is not one: {e}") from e
        a0 = np.zeros(n, dtype=np.int64)
        a0[0] = 1
        rk = RecoveredKey(params, a0, np.zeros(n, dtype=np.int64), None)
        stats.wall_time = time.perf_counter() - start
        return rk, stats

    if target_square_dim <= 2 * k_target + 2:
        # Rare shrinkage of the square (mask vector inside a low-degree
        # evaluation subcode): every triple then passes the rank test and the
        # sampling search carries no signal, so fail loudly instead of
        # burning the whole trial budget on noise.
        raise NotApplicable(
            f"square of the attacked code has dimension {target_square_dim} "
            f"<= 2k+2 = {2 * k_target + 2}: no distinguishing gap"
        )
    while True:
        shared = find_shared_subcode(target, cfg, rng, stats)
        # A wrong subcode fails one of these steps; the search then goes on.
        try:
            params = recover_secret_grs(shared, k_target)
            if branch == Branch.HIGH_RATE_DUAL:
                params = grs.dual_params(params)
            # The pair carries C onto C_pub by construction (recover_valid_pair).
            a0, lam0, inter = recover_valid_pair(pub_code, grs.code(params))
        except (grs.NotGrs, PreconditionViolated):
            stats.restarts += 1
            continue
        stats.wall_time = time.perf_counter() - start
        return RecoveredKey(params, a0, lam0, code_from_generator(f, inter)), stats
