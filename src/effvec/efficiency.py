"""Digraph-based Pareto efficiency test and certificates.

A weight vector w is efficient for a reciprocal matrix A exactly when the
digraph G(A, w) -- edge i->j iff w_i/w_j >= a_ij -- is strongly connected.
Inefficiency comes with a constructive certificate: a source component S of
the condensation, scaled down by the extremal feasible factor, yields a
vector that strictly dominates w.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import InputError, PreconditionError
from .io import scalar_repr
from .matrix import (
    BlockPerturbedForm,
    ReciprocalMatrix,
    Scalar,
    Vector,
    block_matrix,
    check_index,
    check_positive_vector,
    float_view,
)

#: one-sided relative tolerance for the edge rule on the float backend;
#: deliberately favors edge inclusion so boundary ties never disconnect
TOL_EDGE = 1e-9
#: relative slack of dominance_compare on the float backend, in its "equal"
#: test and in the per-pair comparison of errors
TOL_DOMINANCE = 1e-12

_FLOAT_MAX = np.finfo(float).max
_FLOAT_EXP_MAX = np.finfo(float).maxexp  # m * 2**1024 is finite for m < 1

V_DOMINATES = "v_dominates"
W_DOMINATES = "w_dominates"
EQUAL = "equal"
INCOMPARABLE = "incomparable"


@dataclass(frozen=True, eq=False)
class ComparisonDigraph:
    """G(A, w): for every ordered pair at least one direction is present.
    has_edge(i, j) tests i -> j in O(1); score holds the Landau scores, out-
    minus in-degree, that strongly_connected_components cuts; adj, the read-only
    n-by-n bool array with adj[i, j] iff i -> j, is build()'s, made on first read."""

    has_edge: Callable[[int, int], bool]
    score: tuple
    build: Callable[[], np.ndarray]

    @classmethod
    def _of_adj(cls, adj: np.ndarray) -> "ComparisonDigraph":
        """The digraph whose adjacency array is adj, made read-only; build returns it."""
        adj.flags.writeable = False
        return cls(lambda i, j: bool(adj[i, j]),
                   tuple((adj.sum(axis=1) - adj.sum(axis=0)).tolist()), lambda: adj)

    @property
    def n(self) -> int:
        return len(self.score)

    @cached_property
    def adj(self) -> np.ndarray:
        return self.build()

    @cached_property
    def succ(self) -> tuple:
        """succ[i] = frozenset of j with edge i -> j."""
        return tuple(frozenset(np.flatnonzero(row).tolist()) for row in self.adj)

    def has_cycle(self, cycle: Sequence[int]) -> bool:
        """True iff consecutive edges of the closed walk are all present."""
        m = len(cycle)
        return all(self.has_edge(cycle[k], cycle[(k + 1) % m]) for k in range(m))


def build_digraph(A: ReciprocalMatrix, w: Sequence[Scalar]) -> ComparisonDigraph:
    """Edge i->j iff w_i/w_j >= a_ij (float backend: >= a_ij*(1 - TOL_EDGE))."""
    return _digraph(A, A.weights(w))


def _integers(w: Vector) -> list:
    """Exact w scaled by the lcm L of its denominators: integers W_i = w_i * L,
    with the ratios of w.  O(n) gcds; W_i has at most bits(numerator of w_i)
    plus the bits of all of w's denominators."""
    L = math.lcm(*(x.denominator for x in w))
    return [x.numerator * (L // x.denominator) for x in w]


def _digraph(A: ReciprocalMatrix, w: Vector) -> ComparisonDigraph:
    """G(A, w), w as A.weights returns it, with its adj built."""
    if type(w[0]) is Fraction:  # w_i/w_j >= p_ij/q_ij iff W_i * q_ij >= p_ij * W_j
        W = _integers(w)
        adj = np.array([[Wi * q >= p * Wj for p, q, Wj in zip(P, Q, W)]
                        for Wi, P, Q in zip(W, *A.ratios)], dtype=bool)
    else:
        w = np.array(w)
        with np.errstate(over="ignore"):  # w_i/w_j = inf is an edge, as it should be
            adj = w[:, None] / w[None, :] >= A.array * (1.0 - TOL_EDGE)
    np.fill_diagonal(adj, False)
    return ComparisonDigraph._of_adj(adj)


def strongly_connected_components(G: ComparisonDigraph) -> list:
    """Strong components of the semicomplete G, sink first, as sorted tuples,
    cut from its Landau scores: a k-set's score sum is edges leaving minus edges
    entering, at most k(n-k), with equality iff it heads the condensation; such
    a set outscores the rest."""
    score, n = G.score, G.n
    order = sorted(range(n), key=score.__getitem__, reverse=True)  # stable
    comps = []
    start = total = 0
    for k, v in enumerate(order, 1):
        total += score[v]
        if total == k * (n - k):
            comps.append(tuple(sorted(order[start:k])))
            start = k
    return comps[::-1]


def is_strongly_connected(G: ComparisonDigraph):
    """(connected?, component list, source component or None)."""
    comps = strongly_connected_components(G)
    return len(comps) == 1, comps, None if len(comps) == 1 else comps[-1]


@dataclass(frozen=True)
class EfficiencyVerdict:
    components: tuple  # strong components of digraph, sink first
    digraph: ComparisonDigraph
    dominator: Optional[Vector] = None

    @property
    def efficient(self) -> bool:
        return len(self.components) == 1

    @property
    def source_set(self) -> Optional[tuple]:
        """The source component of the condensation, or None when efficient."""
        return None if self.efficient else self.components[-1]

    @property
    def status(self) -> str:
        return "efficient" if self.efficient else "inefficient"

    def to_dict(self, *, edges: bool = False) -> dict:
        """JSON-ready verdict, O(n); vertices are numbered from 1.  edges=True
        adds G(A, w)'s O(n^2) edge_list, after scc_partition."""
        d = {
            "status": self.status,
            "scc_partition": [[v + 1 for v in c] for c in self.components],
        }
        if edges:
            ids = list(range(1, self.digraph.n + 1))
            d["edge_list"] = [
                (i, j) for i, row in zip(ids, self.digraph.adj) for j in compress(ids, row.tolist())
            ]
        if not self.efficient:
            d["source_set"] = [v + 1 for v in self.source_set]
            d["dominator"] = [scalar_repr(x) for x in self.dominator]
        return d


def construct_dominating_vector(
    A: ReciprocalMatrix, w: Sequence[Scalar], source_set: Iterable[int]
) -> Vector:
    """Scale the source component down by the extremal feasible factor.

    With S a source component of a non-strongly-connected G(A, w) we have
    w_i/w_j > a_ij strictly for i in S, j outside; t = max a_ij*w_j/w_i < 1
    and v = w with S scaled by t leaves within-group errors unchanged and
    strictly shrinks every cross error.
    """
    return _dominator(A, A.weights(w), source_set)


def _dominator(A: ReciprocalMatrix, w: Vector, source_set: Iterable[int]) -> Vector:
    """construct_dominating_vector, w as A.weights returns it."""
    S = frozenset(source_set)
    n = A.n
    if not S or len(S) >= n:
        raise PreconditionError(f"source set {sorted(S)!r} must be nonempty and proper")
    exact = type(w[0]) is Fraction
    if exact:
        # t = max p_ij W_j / (q_ij W_i) as num/den, cross-multiplied; on a tie
        # the larger (i, j) wins, as in a max over (t, i, j)
        W, (P, Q) = _integers(w), A.ratios
        outside = [j for j in range(n) if j not in S]
        num, den, i, j = -1, 1, None, None
        for k in sorted(S):
            p, q, Wk = P[k], Q[k], W[k]
            for m in outside:
                x, y = p[m] * W[m], q[m] * Wk
                if x * den >= num * y:
                    num, den, i, j = x, y, k, m
        t = Fraction(num, den)
    else:
        w = np.array(w)
        inside = np.array(sorted(S))
        outside = np.delete(np.arange(n), inside)
        a = _cross_block(A, inside, outside)
        cand = a * w[outside] / w[inside, None]
        p, q = np.unravel_index(np.argmax(cand), cand.shape)
        t, i, j = cand[p, q], inside[p], outside[q]
    if not t < 1:
        raise PreconditionError(f"edge {j}->{i} enters the claimed source set (ratio {t})")
    if exact:
        return tuple(w[i] * t if i in S else w[i] for i in range(n))
    scaled = w[inside] * t  # t < 1, so only an underflow to 0.0 can spoil it
    if scaled.min() > 0:
        w[inside] = scaled
        return tuple(w.tolist())
    return _rescaled_dominator(a, w, inside, outside)


def _cross_block(A: ReciprocalMatrix, inside: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """A's float entries at rows inside and columns outside, both ascending: on
    an A_n(B) that records B, ones with B's in the head corner, not the n-by-n array."""
    if A.block is None:
        return A.array[np.ix_(inside, outside)]
    k, m = np.searchsorted(inside, A.block.n), np.searchsorted(outside, A.block.n)
    a = np.ones((len(inside), len(outside)))
    a[:k, :m] = A.block.array[np.ix_(inside[:k], outside[:m])]
    return a


def _rescaled_dominator(a: np.ndarray, w: np.ndarray, inside, outside) -> Vector:
    """The float dominator when w_i * t underflows to 0.0, a A's cross block: t
    and v carried as mantissa and exponent (m * 2**e), then scaled by the power of
    two that centres v's exponents on 0, or that puts its largest entry just below
    the float maximum when centring would overflow.  v's ratios lie between w's and
    A's, so v fits wherever w does; the raise guards rounding at the subnormal end."""
    m, e = np.frexp(w)
    am, ae = np.frexp(a)
    cm, ce = np.frexp(am * m[outside] / m[inside, None])  # a_ij w_j / w_i = cm * 2**ce
    ce += ae + e[outside] - e[inside, None]
    # the largest factor: the highest exponent, then the largest mantissa
    p, q = np.unravel_index(np.argmax(np.where(ce == ce.max(), cm, 0.0)), cm.shape)
    m[inside] *= cm[p, q]
    e[inside] += ce[p, q]
    m, de = np.frexp(m)
    e += de
    lo, hi = int(e.min()), int(e.max())
    v = np.ldexp(m, e + min(-((lo + hi) // 2), _FLOAT_EXP_MAX - hi))
    if not v.min() > 0:
        raise InputError(
            f"the dominator's entries span 2**{hi - lo}, more than a float vector can hold"
        )
    return tuple(v.tolist())


def is_efficient(A: ReciprocalMatrix, w: Sequence[Scalar]) -> EfficiencyVerdict:
    """Full verdict: strong connectivity witness, or source set + dominator."""
    w = A.weights(w)
    return _verdict(_digraph(A, w), lambda: A, w)


def form_verdict(form: BlockPerturbedForm, w: Sequence[Scalar]) -> EfficiencyVerdict:
    """is_efficient(form.matrix(), w), w in the form's coordinates, from the
    Landau scores of G(A_n(B), w) without building it.

    Head pairs read B by build_digraph's rule.  Every pair with a tail end has
    a = 1, so a vertex's edges to and from those partners are a prefix and a
    suffix of their sorted values, counted by bisection with the same
    predicate: a tolerant float tie counts in both directions, as in
    build_digraph.  O(s^2 + n log n) time and O(s^2 + n) memory, plus
    O(|S| (n - |S|)) of both for an inefficient verdict's dominator.  Its
    digraph's has_edge is the same test; its adj is built, O(n^2), when read.
    """
    w = form.weights(w)  # as form.matrix().weights(w) reads it
    return _verdict(_form_digraph(form, w), form.matrix, w)


def _verdict(G: ComparisonDigraph, matrix: Callable[[], ReciprocalMatrix], w: Vector):
    """The verdict on G = G(A, w): its components, and for an inefficient one
    the dominator, which alone reads A = matrix()."""
    comps = tuple(strongly_connected_components(G))
    if len(comps) == 1:
        return EfficiencyVerdict(comps, G)
    return EfficiencyVerdict(comps, G, _dominator(matrix(), w, comps[-1]))


def form_is_efficient(form: BlockPerturbedForm, w: Sequence[Scalar]) -> bool:
    """form_verdict(form, w).efficient in O(s^2 + n log n) on every w: the
    components alone, with no dominator.  The float closed forms call it."""
    return len(strongly_connected_components(_form_digraph(form, form.weights(w)))) == 1


def _form_digraph(form: BlockPerturbedForm, w: Vector) -> ComparisonDigraph:
    """G(A_n(B), w), w as form.weights returns it: its edge test and scores;
    adj is _digraph's on form.matrix(), built when read."""
    s, n = form.s, form.n
    exact = type(w[0]) is Fraction
    if exact:  # w_i/w_j >= p/q iff W_i * q >= p * W_j
        x = _integers(w)
        P, Q = form.block.ratios

        def edge(i, j):  # i -> j in G(A_n(B), w): a = p/q on the head, 1 elsewhere
            p, q = (P[i][j], Q[i][j]) if i < s and j < s else (1, 1)
            return i != j and x[i] * q >= p * x[j]
    else:
        x, c, b = w, 1.0 - TOL_EDGE, form.block.array.tolist()

        def edge(i, j):
            a = b[i][j] if i < s and j < s else 1.0
            return i != j and x[i] / x[j] >= a * c
    score = [0] * n
    for i in range(s):
        for j in range(i + 1, s):
            if exact:
                d = edge(i, j) - edge(j, i)
            else:  # edge's test inline: on a small form the calls cost more than the rest
                d = (x[i] / x[j] >= b[i][j] * c) - (x[j] / x[i] >= b[j][i] * c)
            score[i] += d
            score[j] -= d
    if not exact and n == s + 1:  # one tail vertex, as in the Perron verdict's A_{s+1}(B):
        t = x[s]  # its pairs tested one by one, as the head's, with a = 1
        for i in range(s):
            d = (x[i] / t >= c) - (t / x[i] >= c)
            score[i] += d
            score[s] -= d
        return ComparisonDigraph(edge, tuple(score), lambda: _digraph(form.matrix(), w).adj)
    # a head vertex meets a = 1 on the tail, a tail vertex on every vertex (its
    # pair with itself counts once each way)
    for pool, vertices in ((x[s:], range(s)), (x, range(s, n))):
        up = sorted(pool)
        if exact:  # edges v -> k where x_k <= x_v, k -> v where x_k >= x_v
            for v in vertices:
                score[v] += bisect_right(up, x[v]) + bisect_left(up, x[v]) - len(up)
            continue
        down = up[::-1]  # x_k / x_v rises along up, x_v / x_k along down
        for v in vertices:
            xv = x[v]
            score[v] += bisect_left(up, c, key=xv.__rtruediv__) - bisect_left(down, c, key=xv.__truediv__)
    return ComparisonDigraph(edge, tuple(score), lambda: _digraph(form.matrix(), w).adj)


def dominance_compare(
    A: ReciprocalMatrix, w: Sequence[Scalar], v: Sequence[Scalar]
) -> str:
    """Entry-wise comparison of approximation errors |a_ij - v_i/v_j|.

    The errors depend only on the ratios v_i/v_j, so v is compared as given;
    scalar multiples compare as "equal".  On floats a pair counts as worse or
    better only beyond TOL_DOMINANCE * max(a_ij, w_i/w_j, v_i/v_j), the slack
    of the "equal" test: scaling a set of entries moves the ratios inside it in
    the last bit, and a ratio far above a_ij carries that rounding into the error.
    On floats, where v and w share more than half their entries, only the rows and
    columns of the others are compared: a pair of shared entries is neither worse nor better.
    """
    n = A.n
    w, v = A.weights(w), A.weights(v)
    v_le = w_le = True
    if type(w[0]) is Fraction and type(v[0]) is Fraction:
        W, V = _integers(w), _integers(v)
        if all(a * W[0] == b * V[0] for a, b in zip(V, W)):
            return EQUAL
        # with a_ij = p/q, the errors at (i, j) are x/(q V_j) and y/(q W_j), and
        # at (j, i) x/(p V_i) and y/(p W_i), for x = |p V_j - q V_i|, y = |p W_j - q W_i|
        for i, (P, Q, Vi, Wi) in enumerate(zip(*A.ratios, V, W)):
            for p, q, Vj, Wj in zip(P[i + 1:], Q[i + 1:], V[i + 1:], W[i + 1:]):
                x, y = abs(p * Vj - q * Vi), abs(p * Wj - q * Wi)
                gaps = (x * Wj - y * Vj, x * Wi - y * Vi)  # the signs of ev - ew
                v_le = v_le and max(gaps) <= 0
                w_le = w_le and min(gaps) >= 0
            if not (v_le or w_le):
                break
    else:
        w, v = float_view(w, "vector entry ({})"), float_view(v, "vector entry ({})")
        # ratios past the floats are inf or 0, and inf/inf or inf - inf NaN: a NaN
        # ratio is never "equal", and a NaN gap is neither worse nor better
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            r = v / w
            if (np.abs(r / r[0] - 1.0) <= TOL_DOMINANCE).all():
                return EQUAL
            # blocks of ~64k cells; a pair of entries equal in v and w has gap 0 or NaN
            changed = np.flatnonzero(v != w)
            step = max(1, 2**16 // n)
            if 2 * len(changed) < n:
                wide = max(1, 2**16 // len(changed))
                blocks = [(changed[lo : lo + step], slice(None)) for lo in range(0, len(changed), step)]
                blocks += [(slice(lo, lo + wide), changed) for lo in range(0, n, wide)]
            else:
                blocks = [(slice(lo, lo + step), slice(None)) for lo in range(0, n, step)]
            for rows, cols in blocks:
                a = A.array[rows, cols]
                rv, rw = v[rows, None] / v[cols], w[rows, None] / w[cols]
                gap = np.abs(a - rv) - np.abs(a - rw)
                # capped, so a ratio that overflows to inf still counts as worse
                slack = np.minimum(TOL_DOMINANCE * np.maximum(np.maximum(a, rv), rw), _FLOAT_MAX)
                v_le = v_le and not (gap > slack).any()
                w_le = w_le and not (gap < -slack).any()
                if not (v_le or w_le):
                    break
    if v_le:
        return V_DOMINATES
    if w_le:
        return W_DOMINATES
    return INCOMPARABLE


# ---------------------------------------------------------------------------
# Extension of efficient subvectors


@dataclass(frozen=True)
class ExtensionInterval:
    lo: Scalar
    hi: Scalar


def extension_interval(
    A: ReciprocalMatrix, w_minus_k: Sequence[Scalar], k: int
) -> ExtensionInterval:
    """Closed interval of w_k values extending an efficient subvector.

    w_minus_k must be efficient for A(k); the extension w is efficient iff
    lo <= w_k <= hi with lo/hi the min/max of w_i / a_ik over i != k.
    """
    k = check_index(k, range(A.n), "k")
    w_minus_k = check_positive_vector(w_minus_k, A.n - 1)
    if not is_efficient(A.delete(k), w_minus_k).efficient:
        raise PreconditionError(
            f"subvector is not efficient for A({k}); the interval rule does not apply"
        )
    col = A.column(k)  # a float A's array column: its n^2 entries are not built
    ratios = [x / a for x, a in zip(w_minus_k, col[:k] + col[k + 1:])]
    return ExtensionInterval(min(ratios), max(ratios))


def subvector_efficiency_profile(
    A: ReciprocalMatrix, w: Sequence[Scalar]
) -> frozenset:
    """Indices i with w(i) efficient for A(i).  Every efficient w with
    n >= 4 has at least two."""
    w = check_positive_vector(w, A.n)
    return frozenset(
        i for i in range(A.n) if is_efficient(A.delete(i), w[:i] + w[i + 1 :]).efficient
    )


def equal_tail_reduce(form, w: Sequence[Scalar]):
    """Delete one of two equal tail entries of the canonical pair (A_n(B), w).

    Efficiency of the reduced pair is equivalent to that of the original.
    Returns (A, w) unchanged when the tail has no equal pair.
    """
    w = check_positive_vector(w, form.n)
    for p in range(form.s, form.n):
        for q in range(p + 1, form.n):
            if w[p] == w[q]:
                # A_n(B) without tail index p is A_{n-1}(B)
                return block_matrix(form.block, form.n - 1), w[:p] + w[p + 1 :]
    return form.matrix(), w
