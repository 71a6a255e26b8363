"""Closed-form efficiency characterizations for block-perturbed matrices.

Covers the 2-block chain conditions, the 3-by-3 chain, extension of an
efficient block head by bounded tail entries, the union-over-j route for
3-block matrices, and the constant-block sufficient class -- each paired in
the tests with the digraph verdict it must agree with.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import InputError, InternalError, PreconditionError
from .efficiency import is_efficient
from .matrix import (
    BlockPerturbedForm,
    MonomialSimilarity,
    ReciprocalMatrix,
    Scalar,
    Vector,
    block_matrix,
    canonical_form,
    check_positive_scalar,
    check_positive_vector,
    float_view,
    is_exact_scalar,
    validate_reciprocal,
)


# ---------------------------------------------------------------------------
# Parameterized matrix families.  The paper reads a 3-block with a13 >= 1 and
# C_s(x) with x >= 1; the other orientation reverses the block's indices.


@dataclass(frozen=True)
class TwoBlockMatrix:
    """S(x): entries (1,2) -> x, (2,1) -> 1/x, all else 1."""

    x: Scalar
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise InputError("two-block form needs n >= 3")
        object.__setattr__(self, "x", check_positive_scalar(self.x, "x"))

    def matrix(self) -> ReciprocalMatrix:
        return block_matrix(validate_reciprocal([[1, self.x], [1 / self.x, 1]]), self.n)


@dataclass(frozen=True)
class ThreeBlockMatrix:
    """A_n(B) with a 3-by-3 perturbed block B."""

    block: ReciprocalMatrix
    n: int

    def __post_init__(self):
        if self.block.n != 3:
            raise InputError("block must be 3-by-3")
        if self.n < 4:
            raise InputError("three-block form needs n >= 4")

    def matrix(self) -> ReciprocalMatrix:
        return block_matrix(self.block, self.n)

    def normalize(self) -> Tuple["ThreeBlockMatrix", MonomialSimilarity]:
        """This form on its a13 >= 1 orientation (the block's indices reversed,
        B[(2, 1, 0)], when a13 < 1) and the permutation taking its vectors
        there: the head reversed and the tail kept, or the identity."""
        if self.block[0, 2] >= 1:
            return self, MonomialSimilarity.identity(self.n)
        perm = (2, 1, 0) + tuple(range(3, self.n))
        return (ThreeBlockMatrix(self.block.submatrix(perm[:3]), self.n),
                MonomialSimilarity.permutation(perm))


@dataclass(frozen=True)
class ConstantBlockMatrix:
    """A_n(C_s(x)) where C_s(x) has every above-diagonal entry equal to x."""

    x: Scalar
    s: int
    n: int

    def __post_init__(self):
        if self.s < 2:
            raise InputError("constant block needs s >= 2")
        if self.n < self.s:
            raise InputError("need n >= s")
        object.__setattr__(self, "x", check_positive_scalar(self.x, "x"))

    def block(self) -> ReciprocalMatrix:
        rows = [
            [self.x if j > i else (1 / self.x if j < i else 1) for j in range(self.s)]
            for i in range(self.s)
        ]
        return validate_reciprocal(rows)

    def matrix(self) -> ReciprocalMatrix:
        return block_matrix(self.block(), self.n)


# ---------------------------------------------------------------------------
# Chain characterizations


def two_block_is_efficient(S: TwoBlockMatrix, w: Sequence[Scalar]) -> bool:
    """Chain test: w_2 <= w_3..w_n <= w_1 <= x*w_2, or all reversed."""
    w = check_positive_vector(w, S.n)
    x = S.x
    asc = all(w[1] <= w[i] <= w[0] for i in range(2, S.n)) and w[0] <= x * w[1]
    desc = all(w[1] >= w[i] >= w[0] for i in range(2, S.n)) and w[0] >= x * w[1]
    return asc or desc


def three_by_three_is_efficient(B: ReciprocalMatrix, w: Sequence[Scalar]) -> bool:
    """Chain test for an arbitrary 3-by-3 reciprocal matrix."""
    if B.n != 3:
        raise InputError("need a 3-by-3 matrix")
    w = check_positive_vector(w, 3)
    a12, a13, a23 = B[0, 1], B[0, 2], B[1, 2]
    asc = a23 * w[2] <= w[1] <= w[0] / a12 <= (a13 / a12) * w[2]
    desc = a23 * w[2] >= w[1] >= w[0] / a12 >= (a13 / a12) * w[2]
    return asc or desc


# ---------------------------------------------------------------------------
# Extending efficient block heads: every family's efficient vectors are a head
# efficient for the block (for A_{s+1}(B) on a union route) and a tail in
# [min(head), max(head)].  _within tests that tail, _extend draws it.


def _within(w: Sequence[Scalar], head: Sequence[Scalar], indices: Iterable[int]) -> bool:
    """Every w[i], i in indices, lies in [min(head), max(head)]."""
    lo, hi = min(head), max(head)
    return all(lo <= w[i] <= hi for i in indices)


def lcompl_membership(form: BlockPerturbedForm, w: Sequence[Scalar]) -> bool:
    """Given w[0:s] efficient for the block, w is efficient for A_n(B) iff
    every tail entry lies in [min(head), max(head)]."""
    w = check_positive_vector(w, form.n)
    head = w[: form.s]
    if not is_efficient(form.block, head).efficient:
        raise PreconditionError("w[0:s] is not efficient for the perturbed block")
    return _within(w, head, range(form.s, form.n))


@dataclass(frozen=True)
class GeneratedVector:
    """One generated efficient vector with its provenance: the head it
    extends and, for 3-block vectors, the tail permutation applied."""

    vector: Vector
    seed_head: Vector
    permutation: Optional[tuple] = None

    @property
    def tail_bounds(self) -> tuple:
        """The interval every tail entry was drawn from."""
        return min(self.seed_head), max(self.seed_head)


def _sample_in(lo, hi, rng: random.Random):
    # endpoints drawn with positive probability so boundary ties are exercised
    if lo == hi:
        return lo
    u = rng.random()
    if u < 0.1:
        return lo
    if u < 0.2:
        return hi
    if isinstance(lo, Fraction):
        return lo + (hi - lo) * Fraction(rng.randint(1, 9999), 10000)
    return lo + (hi - lo) * rng.uniform(0.0001, 0.9999)


def _extend(head: Vector, n: int, rng: random.Random) -> Vector:
    """head followed by n - len(head) draws from [min(head), max(head)]."""
    lo, hi = min(head), max(head)
    return head + tuple(_sample_in(lo, hi, rng) for _ in range(n - len(head)))


def _stream(draw_head: Callable[[], Vector], n: int, rng: random.Random,
            count: Optional[int]) -> Iterator[GeneratedVector]:
    """count head-plus-tail vectors, each head from draw_head(); count=None
    is unbounded and count <= 0 yields nothing."""
    for _ in itertools.repeat(None) if count is None else range(count):
        head = draw_head()
        yield GeneratedVector(_extend(head, n, rng), head)


def two_block_sample(
    S: TwoBlockMatrix, rng: random.Random, count: Optional[int] = None
) -> Iterator[GeneratedVector]:
    """Stream of chain vectors for S(x), normalized to w_2 = 1.

    w_1 is drawn between w_2 and x*w_2 and the tail between w_1 and w_2, so
    every emitted vector passes two_block_is_efficient.
    """
    one = S.x ** 0
    ends = sorted((one, S.x))
    for g in _stream(lambda: (_sample_in(*ends, rng), one), S.n, rng, count):
        if not two_block_is_efficient(S, g.vector):
            raise InternalError(f"two-block sampler produced non-chain vector {g.vector}")
        yield g


def lcompl_sample(
    form: BlockPerturbedForm,
    head: Sequence[Scalar],
    rng: random.Random,
    count: Optional[int] = None,
) -> Iterator[GeneratedVector]:
    """Stream of efficient extensions of an efficient block head; the head
    is checked here, before the first draw."""
    head = check_positive_vector(head, form.s)
    if not is_efficient(form.block, head).efficient:
        raise PreconditionError("head is not efficient for the perturbed block")
    return _stream(lambda: head, form.n, rng, count)


def tail_permute(
    form: BlockPerturbedForm, w: Sequence[Scalar], perm: Sequence[int]
) -> Vector:
    """Permute the tail entries; efficiency for A_n(B) is preserved."""
    w = check_positive_vector(w, form.n)
    t = form.n - form.s
    if sorted(perm) != list(range(t)):
        raise InputError(f"{perm!r} is not a permutation of the {t} tail positions")
    tail = w[form.s :]
    new_tail = [None] * t
    for i in range(t):
        new_tail[perm[i]] = tail[i]
    return w[: form.s] + tuple(new_tail)


# ---------------------------------------------------------------------------
# 3-block: union over E(A, {1,2,3,j})


def union_route_member(head_form: ReciprocalMatrix, w: Sequence[Scalar], j: int) -> bool:
    """Route j >= s (0-based) of the union characterization, with head_form
    the (s+1)-by-(s+1) matrix A_{s+1}(B): (w_0, ..., w_{s-1}, w_j) is
    efficient for it and every other tail entry lies within its min/max."""
    s = head_form.n - 1
    sub = tuple(w[:s]) + (w[j],)
    if not is_efficient(head_form, sub).efficient:
        return False
    return _within(w, sub, (i for i in range(s, len(w)) if i != j))


def three_block_membership(
    A: ThreeBlockMatrix, w: Sequence[Scalar]
) -> Tuple[bool, Optional[int]]:
    """Membership via the union route: w is efficient iff for some j >= 3
    (0-based) the 4-subvector (w_0, w_1, w_2, w_j) is efficient for the
    4-by-4 leading form and all other tail entries lie within its min/max.
    Returns the smallest witness j."""
    w = check_positive_vector(w, A.n)
    A4 = block_matrix(A.block, 4)
    for j in range(3, A.n):
        if union_route_member(A4, w, j):
            return True, j
    return False, None


def three_block_generate(
    A: ThreeBlockMatrix,
    four_vectors: Iterable[Sequence[Scalar]],
    rng: random.Random,
) -> Iterator[GeneratedVector]:
    """Extend certified efficient 4-vectors to full efficient vectors.

    Each seed is filtered through the 4-by-4 digraph test, extended by tail
    entries inside its min/max bounds, and finished with a random tail
    permutation.
    """
    A4 = block_matrix(A.block, 4)
    form = canonical_form(A.block, A.n)
    for seed in four_vectors:
        seed = check_positive_vector(seed, 4)
        if not is_efficient(A4, seed).efficient:
            continue
        w = _extend(seed, A.n, rng)
        perm = list(range(A.n - 3))
        rng.shuffle(perm)
        yield GeneratedVector(tail_permute(form, w, perm), seed, tuple(perm))


def two_block_full_set_check(S: TwoBlockMatrix, w: Sequence[Scalar]) -> bool:
    """Cross-validate the chain test against the {1,2,j} route for every j.

    Each j must individually reproduce the chain verdict; a disagreement is
    an implementation bug, not a verdict.
    """
    if S.n < 4:
        raise InputError("full-set cross-check needs n >= 4")
    w = check_positive_vector(w, S.n)
    chain = two_block_is_efficient(S, w)
    S3 = TwoBlockMatrix(S.x, 3).matrix()
    for j in range(2, S.n):
        ok = union_route_member(S3, w, j)
        if ok != chain:
            raise InternalError(
                f"route j={j} gives {ok}, chain gives {chain} for w={w!r}"
            )
    return chain


# ---------------------------------------------------------------------------
# Constant-block class


def constant_block_class_check(M: ConstantBlockMatrix, w: Sequence[Scalar]) -> bool:
    """Sufficient (not necessary) conditions for efficiency on A_n(C_s(x)).

    On the x >= 1 orientation, with h = w[0:s]: h_3 <= h_1/x <= h_2 <= x*h_3,
    then (1/x)*min(h_3..h_{i-1}) <= h_i <= h_1/x for i = 4..s (for s = 2:
    h_1 = x*h_2, on floats to a relative 1e-12), and the tail entries within
    [min(h), max(h)].  For x < 1 the test reads C_s(1/x) with h reversed.
    """
    w = check_positive_vector(w, M.n)
    x, h = M.x, w[: M.s]
    if x < 1:
        x, h = 1 / x, h[::-1]
    if M.s == 2:
        # 2-by-2 block is consistent; efficient heads are column multiples
        if is_exact_scalar(h[0]) and is_exact_scalar(x):
            head_ok = h[1] * x == h[0]
        else:
            h0, h1, xf = float_view((h[0], h[1], x), "w_1, w_2 or x").tolist()
            head_ok = abs(h1 * xf / h0 - 1.0) <= 1e-12
    else:
        head_ok = h[2] <= h[0] / x <= h[1] <= x * h[2] and all(
            min(h[2:i]) / x <= h[i] <= h[0] / x for i in range(3, M.s))
    return head_ok and _within(w, h, range(M.s, M.n))


def constant_block_sample(
    M: ConstantBlockMatrix, rng: random.Random, count: Optional[int] = None
) -> Iterator[GeneratedVector]:
    """Stream of vectors from the constant-block sufficient class; s >= 3 is
    checked here, before the first draw.

    Every emitted vector passes constant_block_class_check and hence the
    digraph test.  Heads are drawn for C_s(x) on its x >= 1 orientation,
    C_s(1/x) when x < 1, and then reversed when x < 1.
    """
    if M.s < 3:
        raise InputError("class sampler needs block size s >= 3")
    x = M.x if M.x >= 1 else 1 / M.x
    one = x ** 0
    u = one / x  # = w_1 / x

    def draw_head():
        w3 = _sample_in(u / x, u, rng)
        w = [one, _sample_in(u, x * w3, rng), w3]
        for _ in range(3, M.s):
            w.append(_sample_in(min(w[2:]) / x, u, rng))
        return tuple(w if M.x >= 1 else w[::-1])

    return _stream(draw_head, M.n, rng, count)
