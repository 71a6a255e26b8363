"""Closed-form efficiency characterizations for block-perturbed matrices.

Covers the 2-block chain conditions, the 3-by-3 cycles, extension of an
efficient block head by bounded tail entries, the union-over-j route for
3-block matrices, and the constant-block sufficient class.  Each reads edges
of G(A, w) by build_digraph's rule; the tests pair each with is_efficient.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import InputError, InternalError, PreconditionError
from .efficiency import TOL_EDGE, build_digraph, form_is_efficient, is_efficient
from .matrix import (
    BlockPerturbedForm,
    MonomialSimilarity,
    ReciprocalMatrix,
    Scalar,
    Vector,
    block_matrix,
    check_index,
    check_integer,
    check_permutation,
    check_positive_scalar,
    check_positive_vector,
)


# ---------------------------------------------------------------------------
# Parameterized matrix families: each is the form A_n(B) of its block B, with
# an identity back map.  The paper reads a 3-block with a13 >= 1 and C_s(x)
# with x >= 1; the form's oriented() reads it so.


_ONE = Fraction(1)


class ConstantBlockMatrix(BlockPerturbedForm):
    """A_n(C_s(x)) where C_s(x) has every above-diagonal entry equal to x."""

    def __init__(self, x: Scalar, s: int, n: int):
        s, n = check_integer(s, "s"), check_integer(n, "n")
        if s < 2:
            raise InputError("constant block needs s >= 2")
        if n < s:
            raise InputError("need n >= s")
        # reciprocal by construction, so built unchecked, as block_matrix builds
        # A_n(B); row i is i copies of 1/x, then 1, then x: a window on one line
        x = check_positive_scalar(x, "x")
        exact = type(x) is Fraction
        one, inv = (_ONE, Fraction(x.denominator, x.numerator)) if exact else (1.0, 1 / x)
        line = (inv,) * (s - 1) + (one,) + (x,) * (s - 1)
        rows = tuple([line[s - 1 - i : 2 * s - 1 - i] for i in range(s)])
        super().__init__(ReciprocalMatrix(rows, exact), n, MonomialSimilarity.identity(n))

    @property
    def x(self) -> Scalar:
        return self.block[0, 1]


class TwoBlockMatrix(ConstantBlockMatrix):
    """S(x) = A_n(C_2(x)): entries (1,2) -> x, (2,1) -> 1/x, all else 1."""

    def __init__(self, x: Scalar, n: int):
        if check_integer(n, "n") < 3:
            raise InputError("two-block form needs n >= 3")
        super().__init__(x, 2, n)


class ThreeBlockMatrix(BlockPerturbedForm):
    """A_n(B) with a 3-by-3 perturbed block B."""

    def __init__(self, block: ReciprocalMatrix, n: int):
        if block.n != 3:
            raise InputError("block must be 3-by-3")
        n = check_integer(n, "n")
        if n < 4:
            raise InputError("three-block form needs n >= 4")
        super().__init__(block, n, MonomialSimilarity.identity(n))

    def normalize(self) -> Tuple[BlockPerturbedForm, MonomialSimilarity]:
        """oriented() and its back map, a head reversal or the identity (its own inverse)."""
        form = self.oriented()
        return form, form.back_map


# ---------------------------------------------------------------------------
# Chain characterizations


def two_block_is_efficient(S: TwoBlockMatrix, w: Sequence[Scalar]) -> bool:
    """Chain test: w_1 between w_2 and x*w_2, and w_3..w_n between w_1 and w_2.
    On floats, form_is_efficient: the tolerant edge relation is not
    transitive, so a chain of tolerant ties is no chain."""
    w = S.weights(w)
    if type(w[0]) is not Fraction:
        return form_is_efficient(S, w)
    return _chain(S, w)


def _chain(S: TwoBlockMatrix, w: Vector) -> bool:
    """The chain, w as S.weights returns it: the verdict on exact input, and on
    floats the bounds two_block_sample draws in."""
    return _within(w, (w[1], S.x * w[1]), (0,)) and _within(w, w[:2], range(2, S.n))


def three_by_three_is_efficient(B: ReciprocalMatrix, w: Sequence[Scalar]) -> bool:
    """A strong semicomplete digraph has a Hamiltonian cycle (Camion), so
    G(B, w) is strongly connected iff it has 1->2->3->1 (the chain
    a23*w3 <= w2 <= w1/a12 <= (a13/a12)*w3) or the reverse cycle."""
    if B.n != 3:
        raise InputError("need a 3-by-3 matrix")
    G = build_digraph(B, w)
    return G.has_cycle((0, 1, 2)) or G.has_cycle((0, 2, 1))


# ---------------------------------------------------------------------------
# Extending efficient block heads: every family's efficient vectors are a head
# efficient for the block (for A_{s+1}(B) on a union route) and a tail in
# [min(head), max(head)].  _within tests that tail, _extend draws it.


def _within(w: Sequence[Scalar], head: Sequence[Scalar], indices: Iterable[int]) -> bool:
    """Every w[i], i in indices, lies in [min(head), max(head)]: the edge rule
    with a = 1, written as build_digraph writes it on a float vector (w as
    BlockPerturbedForm.weights returns it)."""
    lo, hi = min(head), max(head)
    if type(w[0]) is not Fraction:
        return all(w[i] / lo >= 1.0 - TOL_EDGE and hi / w[i] >= 1.0 - TOL_EDGE for i in indices)
    return all(lo <= w[i] <= hi for i in indices)


def lcompl_membership(form: BlockPerturbedForm, w: Sequence[Scalar]) -> bool:
    """Given w[0:s] efficient for the block, w is efficient for A_n(B) iff
    every tail entry lies in [min(head), max(head)].  On floats,
    form_is_efficient, as in two_block_is_efficient."""
    w = form.weights(w)
    head = w[: form.s]
    if not is_efficient(form.block, head).efficient:
        raise PreconditionError("w[0:s] is not efficient for the perturbed block")
    if type(w[0]) is not Fraction:
        return form_is_efficient(form, w)
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
    is unbounded and count <= 0 yields nothing.  count is checked at the call."""
    rounds = itertools.repeat(None) if count is None else range(check_integer(count, "count"))
    heads = (draw_head() for _ in rounds)
    return (GeneratedVector(_extend(head, n, rng), head) for head in heads)


def two_block_sample(
    S: TwoBlockMatrix, rng: random.Random, count: Optional[int] = None
) -> Iterator[GeneratedVector]:
    """Stream of chain vectors for S(x), normalized to w_2 = 1.

    w_1 is drawn between w_2 and x*w_2 and the tail between w_1 and w_2, and
    every emitted vector is checked against that chain, on floats too, so the
    form_verdict that generate certifies with is a second, independent test.
    """
    one = S.x ** 0
    ends = sorted((one, S.x))
    for g in _stream(lambda: (_sample_in(*ends, rng), one), S.n, rng, count):
        if not _chain(S, S.weights(g.vector)):
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
    check_permutation(perm, form.n - form.s, "tail positions")
    return w[: form.s] + tuple(v for _, v in sorted(zip(perm, w[form.s :])))


# ---------------------------------------------------------------------------
# 3-block: union over E(A, {1,2,3,j})


def _route(head_form: ReciprocalMatrix, w: Vector, j: int) -> bool:
    """union_route_member on A_{s+1}(B), w as form.weights returns it and a checked j."""
    s = head_form.n - 1
    sub = w[:s] + (w[j],)
    if not is_efficient(head_form, sub).efficient:
        return False
    return _within(w, sub, (i for i in range(s, len(w)) if i != j))


def union_route_member(form: BlockPerturbedForm, w: Sequence[Scalar], j: int) -> bool:
    """Route j >= s (0-based) of the union characterization of A_n(B):
    (w_0, ..., w_{s-1}, w_j) is efficient for A_{s+1}(B) and every other tail
    entry lies within its min/max."""
    w = form.weights(w)
    return _route(block_matrix(form.block, form.s + 1), w,
                  check_index(j, range(form.s, form.n), "j"))


def three_block_membership(
    A: ThreeBlockMatrix, w: Sequence[Scalar]
) -> Tuple[bool, Optional[int]]:
    """Membership via the union route: w is efficient iff for some j >= 3
    (0-based) the 4-subvector (w_0, w_1, w_2, w_j) is efficient for the
    4-by-4 leading form and all other tail entries lie within its min/max.
    Returns the smallest witness j.  A route that holds proves efficiency on
    floats too; with none, tolerant ties need not chain, so a float w is
    decided by form_is_efficient, and a True comes with no witness (None)."""
    w = A.weights(w)
    A4 = block_matrix(A.block, 4)
    for j in range(3, A.n):
        if _route(A4, w, j):
            return True, j
    return type(w[0]) is not Fraction and form_is_efficient(A, w), None


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
    for seed in four_vectors:
        seed = check_positive_vector(seed, 4)
        if not is_efficient(A4, seed).efficient:
            continue
        w = _extend(seed, A.n, rng)
        perm = list(range(A.n - 3))
        rng.shuffle(perm)
        yield GeneratedVector(tail_permute(A, w, perm), seed, tuple(perm))


# ---------------------------------------------------------------------------
# Constant-block class


def constant_block_class_check(M: ConstantBlockMatrix, w: Sequence[Scalar]) -> bool:
    """Sufficient (not necessary) conditions for efficiency on A_n(C_s(x)).

    Read on M.oriented(), as edges of G(C_s(x), h) with h the head in its
    coordinates: the cycle 1->3->2->1 (1->2->1 at s = 2), and for i = 4..s
    the edge 1->i and an edge i->k with 3 <= k < i; then the tail entries
    within [min(h), max(h)].
    """
    form = M.oriented()
    h = form.from_input(w)  # a family map moves only the head
    G = build_digraph(form.block, h[: M.s])
    head_ok = G.has_cycle((0, 2, 1) if M.s > 2 else (0, 1)) and all(
        G.has_edge(0, i) and any(G.has_edge(i, k) for k in range(2, i))
        for i in range(3, M.s))
    return head_ok and _within(h, h[: M.s], range(M.s, M.n))


def constant_block_sample(
    M: ConstantBlockMatrix, rng: random.Random, count: Optional[int] = None
) -> Iterator[GeneratedVector]:
    """Stream of vectors from the constant-block sufficient class; s >= 3 is
    checked here, before the first draw.

    Every emitted vector passes constant_block_class_check and hence the
    digraph test.  Heads are drawn for the block of M.oriented(), C_s(1/x)
    when x < 1, and then reversed when that form is reversed.
    """
    if M.s < 3:
        raise InputError("class sampler needs block size s >= 3")
    form = M.oriented()
    x = form.block[0, 1]
    one = x ** 0
    u = one / x  # = w_1 / x

    def draw_head():
        w3 = _sample_in(u / x, u, rng)
        w = [one, _sample_in(u, x * w3, rng), w3]
        for _ in range(3, M.s):
            w.append(_sample_in(min(w[2:]) / x, u, rng))
        return tuple(w if form is M else w[::-1])

    return _stream(draw_head, M.n, rng, count)
