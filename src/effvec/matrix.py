"""Reciprocal pairwise-comparison matrices.

A reciprocal matrix is a positive square matrix with a_ji = 1/a_ij.  Two
numeric backends are supported: exact rationals (``fractions.Fraction``,
the default for all combinatorial logic, so that boundary ties are decided
exactly) and binary floats with explicit tolerances.  A matrix whose
entries are all Fraction/int is "exact"; any float entry demotes the whole
matrix to the float backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, InputError

Scalar = Union[int, Fraction, float]
Vector = tuple  # positive weight vector, entries are Scalars

#: relative tolerance for a_ij * a_ji == 1 on the float backend
TOL_RECIP = 1e-12
#: relative tolerance for consistency triples on the float backend
TOL_CONS = 1e-9


def is_exact_scalar(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def float_view(values, label: str) -> np.ndarray:
    """values (a vector or a grid) as a float64 array.  A nonzero value that
    overflows or rounds to 0.0 as a float is an InputError naming the first
    such value in row-major order as label.format(*its index)."""
    try:
        if len(values) and isinstance(values[0], (tuple, list)):
            # rows of Python numbers: numpy's nested-sequence reader is slow on Fractions
            a = np.fromiter(chain.from_iterable(values), float).reshape(len(values), -1)
        else:
            a = np.asarray(values, dtype=float)
        if a.all():
            return a
    except OverflowError:
        pass
    for index, x in np.ndenumerate(np.array(values, dtype=object)):
        try:
            zero = float(x) == 0.0 != x
        except OverflowError as exc:
            raise InputError(f"{label.format(*index)} too large for a float: {exc}") from exc
        if zero:
            raise InputError(f"{label.format(*index)} rounds to 0.0 as a float")
    return a


def check_positive_scalar(x: Scalar, name: str) -> Scalar:
    """The one parameter check: x positive and finite, as a Fraction if exact,
    else a float whose reciprocal is finite too (the matrices built from x
    hold 1/x)."""
    if not 0 < x < math.inf:
        raise InputError(f"{name} must be positive and finite, got {x}")
    if is_exact_scalar(x):
        return Fraction(x)
    x = float(x)
    if 1 / x == math.inf:
        raise InputError(f"{name} must have a finite reciprocal, got {x}")
    return x


def check_positive_vector(w: Sequence[Scalar], n: int) -> Vector:
    """The one weight-vector check: n entries, each positive and finite.
    A vector of ints and Fractions comes back as Fractions, any other as
    floats."""
    if len(w) != n:
        raise DimensionMismatch(f"vector size {len(w)} != {n}")
    if n == 0:
        raise InputError("empty vector")
    for x in w:
        if not 0 < x < math.inf:
            raise InputError(f"vector entry {x!r} is not positive and finite")
    if all(map(is_exact_scalar, w)):
        return tuple(x if type(x) is Fraction else Fraction(x) for x in w)
    return tuple(float_view(w, "vector entry").tolist())


@dataclass(frozen=True)
class ReciprocalMatrix:
    """Validated reciprocal matrix.  Immutable.

    Outside input goes through validate_reciprocal.  Derived matrices
    (submatrix, delete, to_float, block_matrix, the blocks of canonical
    forms) are built from validated parts and are not checked again.
    block_matrix records B on the A_n(B) it returns, and the float view
    is built from B's; B takes no part in equality, hash or repr.
    """

    entries: tuple
    exact: bool
    _block: Optional["ReciprocalMatrix"] = field(
        default=None, init=False, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def submatrix(self, keep: Sequence[int]) -> "ReciprocalMatrix":
        """Principal submatrix A[keep] (order of `keep` is preserved)."""
        rows = tuple(tuple(self.entries[i][j] for j in keep) for i in keep)
        return ReciprocalMatrix(rows, self.exact)

    def delete(self, i: int) -> "ReciprocalMatrix":
        """Principal submatrix A(i), deleting row and column i."""
        keep = [k for k in range(self.n) if k != i]
        return self.submatrix(keep)

    def to_float(self) -> "ReciprocalMatrix":
        if not self.exact:
            return self
        out = ReciprocalMatrix(tuple(map(tuple, self.array.tolist())), False)
        out.__dict__["array"] = self.array  # fill the cached property
        return out

    def as_lists(self) -> list:
        return [list(r) for r in self.entries]

    @cached_property
    def array(self) -> np.ndarray:
        """The entries as a read-only float64 array, built at most once.
        An exact entry outside the positive floats is an InputError.  An
        A_n(B) from block_matrix is ones with B's view in the leading
        corner: s^2 conversions, not n^2."""
        if self._block is None:
            a = float_view(self.entries, "entry ({},{})")
        else:
            s = self._block.n
            a = np.ones((self.n, self.n))
            a[:s, :s] = self._block.array
        a.flags.writeable = False
        return a

    def weights(self, w: Sequence[Scalar]):
        """w through check_positive_vector(w, n), on the backend the kernels
        use for the pair: Fractions when A and w are exact, else a float64
        array."""
        w = check_positive_vector(w, self.n)
        if self.exact and type(w[0]) is Fraction:
            return w
        return float_view(w, "vector entry")


def validate_reciprocal(grid: Sequence[Sequence[Scalar]]) -> ReciprocalMatrix:
    """Validate a square grid of positive entries as a reciprocal matrix.

    Exact entries must satisfy a_ij * a_ji == 1 exactly; on the float
    backend the product may deviate by TOL_RECIP and a_ji is then
    renormalized to exactly 1/a_ij.  Mixed exact/float grids are promoted
    to the float backend.
    """
    n = len(grid)
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    for r in grid:
        if len(r) != n:
            raise InputError("grid is not square")
    if not all(is_exact_scalar(x) for r in grid for x in r):
        # float backend, on the array; errors name the first bad entry in row-major order
        a = float_view(grid, "entry")
        for i, j in np.argwhere(~(a > 0))[:1]:
            raise InputError(f"entry ({i},{j}) = {float(a[i, j])!r} is not positive")
        bad = np.abs(a * a.T - 1.0) > TOL_RECIP
        np.fill_diagonal(bad, a.diagonal() != 1)
        for i, j in np.argwhere(np.triu(bad))[:1]:
            if i == j:
                raise InputError(f"diagonal entry ({i},{i}) = {float(a[i, i])!r} != 1")
            raise InputError(f"a[{i}][{j}] * a[{j}][{i}] = {float(a[i, j] * a[j, i])} "
                                       f"deviates from 1 beyond {TOL_RECIP}")
        with np.errstate(over="ignore"):
            a = np.where(np.tri(n, k=-1, dtype=bool), 1.0 / a.T, a)
        A = ReciprocalMatrix(tuple(map(tuple, a.tolist())), False)
        a.flags.writeable = False
        A.__dict__["array"] = a  # fill the cached property
        return A
    rows = [[Fraction(x) for x in r] for r in grid]
    for i in range(n):
        for j in range(n):
            if not rows[i][j] > 0:
                raise InputError(f"entry ({i},{j}) = {rows[i][j]!r} is not positive")
    for i in range(n):
        if rows[i][i] != 1:
            raise InputError(f"diagonal entry ({i},{i}) = {rows[i][i]!r} != 1")
        for j in range(i + 1, n):
            prod = rows[i][j] * rows[j][i]
            if prod != 1:
                raise InputError(f"a[{i}][{j}] * a[{j}][{i}] = {prod} != 1")
    return ReciprocalMatrix(tuple(tuple(r) for r in rows), True)


def consistent_from_vector(w: Sequence[Scalar]) -> ReciprocalMatrix:
    """The consistent matrix w * w^(-T), i.e. a_ij = w_i / w_j."""
    w = check_positive_vector(w, len(w))
    return validate_reciprocal([[wi / wj for wj in w] for wi in w])


def is_consistent(A: ReciprocalMatrix) -> bool:
    """True iff a_ij == a_i0 * a_0j for every pair (exact backend: exactly),
    i.e. K_0 is empty; then a_ij * a_jk == a_ik for every triple.  O(n^2),
    stopping at the first bad pair."""
    return _reference_block(A, 0, 0) is not None


# ---------------------------------------------------------------------------
# Monomial similarities


@dataclass(frozen=True)
class MonomialSimilarity:
    """A positive diagonal scaling D followed by a permutation P.

    Applied to a matrix this computes P D A D^{-1} P^T; applied to a vector,
    P D w.  ``perm[i]`` is the image position of index i.
    """

    diag: tuple
    perm: tuple

    @property
    def n(self) -> int:
        return len(self.diag)

    def __post_init__(self):
        if len(self.perm) != len(self.diag):
            raise DimensionMismatch("diag and perm sizes differ")
        if sorted(self.perm) != list(range(len(self.perm))):
            raise InputError(f"perm {self.perm!r} is not a permutation")
        for d in self.diag:
            if not d > 0:
                raise InputError(f"diagonal entry {d!r} is not positive")

    @classmethod
    def identity(cls, n: int) -> "MonomialSimilarity":
        return cls(tuple([1] * n), tuple(range(n)))

    @classmethod
    def permutation(cls, perm: Sequence[int]) -> "MonomialSimilarity":
        return cls(tuple([1] * len(perm)), tuple(perm))

    @classmethod
    def scaling(cls, diag: Sequence[Scalar]) -> "MonomialSimilarity":
        return cls(tuple(diag), tuple(range(len(diag))))

    def inverse(self) -> "MonomialSimilarity":
        n = self.n
        inv_perm = [0] * n
        for i, p in enumerate(self.perm):
            inv_perm[p] = i
        inv_diag = [None] * n
        for i in range(n):
            inv_diag[self.perm[i]] = 1 / Fraction(self.diag[i]) \
                if is_exact_scalar(self.diag[i]) else 1.0 / self.diag[i]
        return MonomialSimilarity(tuple(inv_diag), tuple(inv_perm))


def apply_similarity(A: ReciprocalMatrix, M: MonomialSimilarity) -> ReciprocalMatrix:
    """P D A D^{-1} P^T.  Preserves reciprocity and efficiency status."""
    if M.n != A.n:
        raise DimensionMismatch(f"matrix size {A.n} vs similarity size {M.n}")
    n = A.n
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[M.perm[i]][M.perm[j]] = M.diag[i] * A[i, j] / M.diag[j]
    return validate_reciprocal(out)


def transform_vector(M: MonomialSimilarity, w: Sequence[Scalar]) -> Vector:
    """P D w, the vector matching apply_similarity on the matrix side."""
    w = check_positive_vector(w, M.n)
    out = [None] * M.n
    for i in range(M.n):
        out[M.perm[i]] = M.diag[i] * w[i]
    return tuple(out)


# ---------------------------------------------------------------------------
# Block-perturbed canonical form A_n(B)


@dataclass(frozen=True)
class BlockPerturbedForm:
    """Canonical form A_n(B): block B in the leading s-by-s corner, 1s elsewhere.

    back_map is the monomial similarity that maps the canonical matrix back
    to the matrix it was derived from.
    """

    block: ReciprocalMatrix
    n: int
    back_map: MonomialSimilarity

    @property
    def s(self) -> int:
        return self.block.n

    def matrix(self) -> ReciprocalMatrix:
        """The canonical matrix A_n(B)."""
        return block_matrix(self.block, self.n)


def canonical_form(B: ReciprocalMatrix, n: int) -> BlockPerturbedForm:
    """Wrap an already-canonical A_n(B) (identity back map)."""
    return BlockPerturbedForm(B, n, MonomialSimilarity.identity(n))


def block_matrix(B: ReciprocalMatrix, n: int) -> ReciprocalMatrix:
    """Build A_n(B): B as leading principal block, all other entries 1.

    B is already validated, so no entry is checked again.  The rows share
    one tail and one all-ones row: O(s*n) references.  The matrix records B
    for its float view."""
    s = B.n
    if n < s:
        raise InputError(f"n = {n} smaller than block size {s}")
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    one = Fraction(1) if B.exact else 1.0
    tail = (one,) * (n - s)
    rows = tuple(B.row(i) + tail for i in range(s)) + ((one,) * n,) * (n - s)
    A = ReciprocalMatrix(rows, B.exact)
    object.__setattr__(A, "_block", B)
    return A


def is_block_perturbation(
    A: ReciprocalMatrix, K: Iterable[int]
) -> Optional[BlockPerturbedForm]:
    """The form of A with block K, which is one iff K_r lies inside K for r the
    smallest index outside K; else None.  None too on floats when a block
    entry or its reciprocal leaves the floats: A has no float form.  O(n^2)."""
    K = sorted(set(K))
    n = A.n
    if not K or len(K) >= n:
        raise InputError(f"K must be a nonempty proper subset of 0..{n - 1}")
    if K[0] < 0 or K[-1] >= n:
        raise InputError(f"K {K!r} out of range for n = {n}")
    rest = sorted(set(range(n)).difference(K))
    K_r = _reference_block(A, rest[0], len(K))
    return _block_form(A, K, rest) if K_r is not None and K_r <= set(K) else None


def _block_form(A: ReciprocalMatrix, K: list, rest: list) -> Optional[BlockPerturbedForm]:
    """The form with block K, where K_r lies inside K for r = rest[0] (K and
    rest ascending, splitting 0..n-1).  Scaling by column r leaves 1s outside
    B_pq = a_{K_p K_q} * a_{K_q r} / a_{K_p r}; the back map permutes by K + rest
    and scales by column r in that order.  None if a float B_pq leaves the floats."""
    s, col_r = len(K), A.column(rest[0])
    one = Fraction(1) if A.exact else 1.0
    rows = [[one] * s for _ in range(s)]
    for p in range(s):
        for q in range(p + 1, s):
            x = A[K[p], K[q]] * col_r[K[q]] / col_r[K[p]]
            if not 0 < x < math.inf or 1 / x == math.inf:
                return None
            rows[p][q], rows[q][p] = x, 1 / x
    order = tuple(K + rest)
    back = MonomialSimilarity(tuple(col_r[i] for i in order), order)
    return BlockPerturbedForm(ReciprocalMatrix(tuple(map(tuple, rows)), A.exact), A.n, back)


@dataclass(frozen=True)
class DetectedBlock:
    form: BlockPerturbedForm

    @property
    def K(self) -> tuple:
        """The input indices that the back map sends to the block, ascending."""
        return self.form.back_map.perm[: self.form.s]


def _reference_block(A: ReciprocalMatrix, r: int, limit: int) -> Optional[set]:
    """K_r: endpoints of the pairs (i, j) with a_ij != a_ir * a_rj, or None
    once it grows past `limit` members.  Pairs through r hold exactly on
    both backends (a_rr = 1), so r is never a member.  On floats a product
    a_ir * a_rj that underflows to 0 is a bad pair, as one that overflows is."""
    n = A.n
    row_r = A.row(r)
    K: set = set()
    for i in range(n):
        row_i, a_ir = A.row(i), A[i, r]
        for j in range(i + 1, n):
            p = a_ir * row_r[j]
            if A.exact:
                bad = row_i[j] != p
            else:
                bad = p == 0.0 or abs(row_i[j] / p - 1.0) > TOL_CONS
            if bad:
                K.add(i)
                K.add(j)
                if len(K) > limit:
                    return None
                if len(K) == n - 1:
                    return K
    return K


def detect_minimal_block(A: ReciprocalMatrix) -> Optional[DetectedBlock]:
    """Smallest index set K (lexicographic tie-break) making A a block perturbation.

    K is a block iff K contains K_r for some (then every) r outside K, so each
    minimal block is K_r for every r outside it.  A block of size m misses one
    of the indices 0..m, hence scanning r = 0, 1, ... while r <= |best| finds
    them all; once 2|K_r| < n, K_r is the unique minimum.  O(n^3) at worst.
    A consistent A gives K = (0,).  Returns None only on floats: near tol,
    where K_r for two references r can disagree, and when the block's
    canonical entries leave the float range (see is_block_perturbation).
    """
    n = A.n
    best = sorted(_reference_block(A, 0, n - 1))
    # agree: the references r scanned so far whose K_r is best.  best only falls
    # in (size, indices) order, to at or below every K_r scanned, so a scanned
    # K_r lies inside the final K iff it is best (K_r is never {0}).
    agree, r = {0}, 1
    while 2 * len(best) >= n and r <= len(best):
        K = _reference_block(A, r, len(best))
        K = None if K is None else sorted(K)
        if K is not None and (len(K), K) < (len(best), best):
            best, agree = K, set()
        if K == best:
            agree.add(r)
        r += 1
    K = best or [0]
    rest = sorted(set(range(n)).difference(K))
    if rest[0] < r:  # scanned: always, unless K_0 is empty and K = (0,) reads K_1
        form = _block_form(A, K, rest) if rest[0] in agree else None
    else:
        form = is_block_perturbation(A, K)
    return None if form is None else DetectedBlock(form)


# ---------------------------------------------------------------------------
# Geometric means


def geometric_mean_vector(A: ReciprocalMatrix, cols: Iterable[int]) -> Vector:
    """Entry-wise geometric mean of the selected columns (always efficient).

    A single column is returned as-is on its native backend; genuine means
    involve k-th roots and are computed in floats.
    """
    cols = sorted(set(cols))
    if not cols:
        raise InputError("need at least one column")
    if cols[0] < 0 or cols[-1] >= A.n:
        raise InputError(f"column subset {cols!r} out of range for n = {A.n}")
    if len(cols) == 1:
        return A.column(cols[0])
    a, k = A.array, len(cols)
    return tuple(math.exp(sum(math.log(a[i, j]) for j in cols) / k) for i in range(A.n))
