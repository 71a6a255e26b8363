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
import operator
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
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


_EXACT_TYPES, _FRACTION = frozenset((int, Fraction)), frozenset((Fraction,))
#: the truth values, which no intake takes as numbers (int and float accept them)
_BOOLS = frozenset((bool, np.bool_))


def _all_exact(values: Sequence) -> bool:
    """all(map(is_exact_scalar, values)), with plain ints and Fractions told
    by their type alone."""
    return _EXACT_TYPES.issuperset(map(type, values)) or all(map(is_exact_scalar, values))


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
    if is_exact_scalar(x):  # finite, with its sign on the numerator
        if not x.numerator > 0:
            raise InputError(f"{name} must be positive and finite, got {x}")
        return x if type(x) is Fraction else Fraction(x)
    if type(x) in _BOOLS:
        raise InputError(f"{name} must be a number, got {x!r}")
    if not 0 < x < math.inf:
        raise InputError(f"{name} must be positive and finite, got {x}")
    x = float(x)
    if 1 / x == math.inf:
        raise InputError(f"{name} must have a finite reciprocal, got {x}")
    return x


def check_size(w: Sequence, n: int) -> None:
    """The one vector-length check."""
    if len(w) != n:
        raise DimensionMismatch(f"vector size {len(w)} != {n}")


def check_integer(i, name: str) -> int:
    """The one size and count check: i an integer, numpy's too (it has
    __index__; a float such as 5.0 has not), but not a bool, as an int."""
    if type(i) is bool or not hasattr(type(i), "__index__"):
        raise InputError(f"{name} = {i!r} is not an integer")
    return operator.index(i)


def check_index(i, indices: range, name: str) -> int:
    """The one index check: i an integer by check_integer's rule, in indices."""
    if type(i) is bool or not (hasattr(type(i), "__index__") and operator.index(i) in indices):
        raise InputError(f"{name} = {i!r} is not an integer in [{indices.start}, {indices.stop})")
    return operator.index(i)


def check_permutation(perm, n: int, what: str) -> None:
    """The one permutation check: perm holds each of 0..n-1 once, each an
    integer by check_index's rule (numpy's too); what names the n positions."""
    try:
        ok = bool not in map(type, perm) and sorted(map(operator.index, perm)) == list(range(n))
    except TypeError:
        ok = False
    if not ok:
        raise InputError(f"{perm!r} is not a permutation of the {n} {what}")


def check_positive_vector(w: Sequence[Scalar], n: int) -> Vector:
    """The one weight-vector check: n entries, each positive and finite.
    A vector of ints and Fractions comes back as Fractions, any other as
    floats; a bool entry is an InputError."""
    check_size(w, n)
    if n == 0:
        raise InputError("empty vector")
    exact = _all_exact(w)
    if not exact and not _BOOLS.isdisjoint(map(type, w)):
        bad = next(x for x in w if type(x) in _BOOLS)
        raise InputError(f"vector entry {bad!r} is not a number")
    for x in w:
        # an exact entry is finite and has its sign on the numerator
        if not (x.numerator > 0 if exact else 0 < x < math.inf):
            raise InputError(f"vector entry {x!r} is not positive and finite")
    if not exact:
        return tuple(float_view(w, "vector entry ({})").tolist())
    if type(w) is tuple and _FRACTION.issuperset(map(type, w)):
        return w  # immutable, and already what the kernels read
    return tuple(x if type(x) is Fraction else Fraction(x) for x in w)


def _pair_vector(w: Sequence[Scalar], n: int, exact: bool) -> Vector:
    """check_positive_vector(w, n) for a pair whose matrix is exact or not: Fractions
    when both are exact, else floats.  Kernels test type(w[0]) is Fraction."""
    w = check_positive_vector(w, n)
    if exact or type(w[0]) is not Fraction:
        return w
    return tuple(float_view(w, "vector entry ({})").tolist())


class ReciprocalMatrix:
    """Validated reciprocal matrix.  Immutable.

    An exact matrix holds its entries, rows of Fractions.  A float matrix
    from validate_reciprocal, to_float, submatrix or delete is its read-only
    float64 array; `entries`, its rows as tuples of Python floats, is built
    from that array on its first read (by the readers of single entries,
    equality, hash and repr), at most once.  Equality, hash and repr are those of
    (entries, exact).

    Outside input goes through validate_reciprocal.  Derived matrices
    (submatrix, delete, to_float, block_matrix, the blocks of canonical
    forms) are built from validated parts and are not checked again.
    block_matrix records B as `block` (None on other matrices), and its float
    view and ratios are built from B's; B takes no part in equality, hash or repr.
    """

    block: Optional["ReciprocalMatrix"] = None

    def __init__(self, entries: tuple, exact: bool):
        self.__dict__.update(entries=entries, exact=exact, n=len(entries))

    @classmethod
    def _of_array(cls, a: np.ndarray) -> "ReciprocalMatrix":
        """The float matrix that is a, a validated read-only float64 array."""
        A = cls.__new__(cls)
        A.__dict__.update(array=a, exact=False, n=len(a))
        return A

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.entries, self.exact) == (other.entries, other.exact)

    def __hash__(self):
        return hash((self.entries, self.exact))

    def __repr__(self):
        return f"{type(self).__qualname__}(entries={self.entries!r}, exact={self.exact!r})"

    @cached_property
    def entries(self) -> tuple:
        """The rows of a float matrix that is its array, built on first read."""
        return tuple(map(tuple, self.array.tolist()))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        if "entries" in self.__dict__:
            return tuple(r[j] for r in self.entries)
        return tuple(self.array[:, j].tolist())  # a float matrix that is its array

    def submatrix(self, keep: Sequence[int]) -> "ReciprocalMatrix":
        """Principal submatrix A[keep] (order of `keep` is preserved).  On
        floats, the matrix that is a read-only slice of the array; on exact
        input it slices the parent's ratios too, when the parent holds them."""
        if not self.exact:
            a = self.array[np.ix_(keep, keep)]
            a.flags.writeable = False
            return ReciprocalMatrix._of_array(a)
        grids = (self.entries, *self.__dict__.get("ratios", ()))
        rows, *ratios = [tuple(tuple(g[i][j] for j in keep) for i in keep) for g in grids]
        B = ReciprocalMatrix(rows, True)
        if ratios:
            B.__dict__["ratios"] = tuple(ratios)
        return B

    def delete(self, i: int) -> "ReciprocalMatrix":
        """Principal submatrix A(i), deleting row and column i."""
        keep = [k for k in range(self.n) if k != i]
        return self.submatrix(keep)

    def to_float(self) -> "ReciprocalMatrix":
        if not self.exact:
            return self
        return ReciprocalMatrix._of_array(self.array)

    def as_lists(self) -> list:
        return [list(r) for r in self.entries]

    @cached_property
    def array(self) -> np.ndarray:
        """The entries as a read-only float64 array, built at most once.
        An exact entry outside the positive floats is an InputError.  An
        A_n(B) from block_matrix is ones with B's view in the leading
        corner: s^2 conversions, not n^2."""
        if self.block is None:
            a = float_view(self.entries, "entry ({},{})")
        else:
            s = self.block.n
            a = np.ones((self.n, self.n))
            a[:s, :s] = self.block.array
        a.flags.writeable = False
        return a

    @cached_property
    def ratios(self) -> tuple:
        """(P, Q) for an exact matrix: integer rows with a_ij = P[i][j] / Q[i][j]
        in lowest terms, Q positive, built at most once.  An A_n(B) from
        block_matrix shares B's rows and one all-ones row, as its entries do."""
        if self.block is not None:
            (P, Q), tail = self.block.ratios, (1,) * (self.n - self.block.n)
            ones = ((1,) * self.n,) * (self.n - self.block.n)
            return (tuple(r + tail for r in P) + ones, tuple(r + tail for r in Q) + ones)
        return _split(self.entries)

    def weights(self, w: Sequence[Scalar]) -> Vector:
        """w through check_positive_vector(w, n), as a tuple of Fractions when
        A and w are both exact, else of floats."""
        return _pair_vector(w, self.n, self.exact)


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
    if not all(map(_all_exact, grid)):
        # float backend, on the array; errors name the first bad entry in row-major order
        _reject_bools(grid)
        a = float_view(grid, "entry ({},{})")
        if not (a > 0).all():
            i, j = np.argwhere(~(a > 0))[0]
            raise InputError(f"entry ({i},{j}) = {float(a[i, j])!r} is not positive")
        bad = a * a.T
        bad -= 1.0
        bad = np.abs(bad, out=bad) > TOL_RECIP
        np.fill_diagonal(bad, a.diagonal() != 1)
        if bad.any():
            i, j = np.argwhere(np.triu(bad))[0]
            if i == j:
                raise InputError(f"diagonal entry ({i},{i}) = {float(a[i, i])!r} != 1")
            raise InputError(f"a[{i}][{j}] * a[{j}][{i}] = {float(a[i, j] * a[j, i])} "
                                       f"deviates from 1 beyond {TOL_RECIP}")
        out = np.empty((n, n))  # row-major: 1.0 / a.T alone would be column-major
        with np.errstate(over="ignore"):
            np.divide(1.0, a.T, out=out)  # a_ji := 1/a_ij below the diagonal
        np.copyto(out, a, where=np.tri(n, dtype=bool).T)  # a's own entries on and above it
        out.flags.writeable = False
        return ReciprocalMatrix._of_array(out)
    rows = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in r) for r in grid)
    P, Q = ratios = _split(rows)
    for i in range(n):
        for j in range(n):
            if not P[i][j] > 0:
                raise InputError(f"entry ({i},{j}) = {rows[i][j]!r} is not positive")
    # in lowest terms with positive denominators, a_ij * a_ji = 1 iff p_ji = q_ij and q_ji = p_ij
    for i in range(n):
        if P[i][i] != 1 or Q[i][i] != 1:
            raise InputError(f"diagonal entry ({i},{i}) = {rows[i][i]!r} != 1")
        for j in range(i + 1, n):
            if P[j][i] != Q[i][j] or Q[j][i] != P[i][j]:
                raise InputError(f"a[{i}][{j}] * a[{j}][{i}] = {rows[i][j] * rows[j][i]} != 1")
    A = ReciprocalMatrix(rows, True)
    A.__dict__["ratios"] = ratios  # fill the cached property
    return A


def _reject_bools(grid) -> None:
    """InputError naming the first bool cell of a grid bound for the float
    backend, whose float_view reads True as 1.0: an array by its dtype, Python
    cells by their types (an all-exact row has none)."""
    dtype = getattr(grid, "dtype", None)
    if dtype is not None and dtype != object:
        if dtype == bool:
            raise InputError(f"entry (0,0) = {grid[0][0]!r} is not a number")
        return
    for i, r in enumerate(grid):
        if not _BOOLS.isdisjoint(map(type, r)):
            j = next(j for j, x in enumerate(r) if type(x) in _BOOLS)
            raise InputError(f"entry ({i},{j}) = {r[j]!r} is not a number")


def _split(rows) -> tuple:
    """(P, Q): the numerator rows and the denominator rows of exact entries."""
    pairs = [tuple(zip(*(x.as_integer_ratio() for x in r))) for r in rows]
    return tuple(zip(*pairs))


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
        check_permutation(self.perm, len(self.perm), "indices")
        for d in self.diag:
            if type(d) in _BOOLS:
                raise InputError(f"diagonal entry {d!r} is not a number")
            if not 0 < d < math.inf:
                raise InputError(f"diagonal entry {d!r} is not positive and finite")

    @classmethod
    def _unchecked(cls, diag: tuple, perm: tuple) -> "MonomialSimilarity":
        """The similarity (diag, perm), built without __post_init__'s check:
        for parts already known to be a permutation and positive finite scalars."""
        M = object.__new__(cls)
        M.__dict__.update(diag=diag, perm=perm)
        return M

    @classmethod
    @lru_cache(maxsize=16)
    def identity(cls, n: int) -> "MonomialSimilarity":
        """The identity on n indices, built unchecked.  It is immutable, so one
        per n is shared (the families take it on every construction)."""
        return cls._unchecked((1,) * n, tuple(range(n)))

    @classmethod
    def scaling(cls, diag: Sequence[Scalar]) -> "MonomialSimilarity":
        return cls(tuple(diag), tuple(range(len(diag))))

    def inverse(self) -> "MonomialSimilarity":
        n = self.n
        inv_perm = [0] * n
        for i, p in enumerate(self.perm):
            inv_perm[p] = i
        inv_diag = [None] * n
        for d, p in zip(self.diag, self.perm):
            inv_diag[p] = _reciprocal(d)
        return MonomialSimilarity(tuple(inv_diag), tuple(inv_perm))


def _reciprocal(d: Scalar) -> Scalar:
    """1/d for a similarity's diagonal entry: a Fraction when d is exact."""
    return 1 / Fraction(d) if is_exact_scalar(d) else 1.0 / d


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

    def reversed(self) -> "BlockPerturbedForm":
        """This form with B's indices reversed and a back map that reverses the
        head first, so both map back onto one matrix.  Its own inverse."""
        s, d, p = self.s, self.back_map.diag, self.back_map.perm
        back = MonomialSimilarity._unchecked(d[s - 1::-1] + d[s:], p[s - 1::-1] + p[s:])
        return BlockPerturbedForm(self.block.submatrix(range(s - 1, -1, -1)), self.n, back)

    def oriented(self) -> "BlockPerturbedForm":
        """This form on the paper's orientation, block[0, s-1] >= 1 (a13 >= 1 for
        a 3-block, x >= 1 for C_s(x)): itself, or reversed() when it is < 1."""
        return self if self.block[0, self.s - 1] >= 1 else self.reversed()

    def weights(self, w: Sequence[Scalar]) -> Vector:
        """w read for the pair (A_n(B), w), as matrix().weights(w) reads it."""
        return _pair_vector(w, self.n, self.block.exact)

    def from_input(self, w: Sequence[Scalar]) -> Vector:
        """weights(w), from the coordinates of the matrix the back map leads to
        into this form's: entry k = w[perm[k]] / diag[k].  An exact unit diag[k]
        keeps w[perm[k]], as multiplying by Fraction(1) would."""
        w = self.weights(w)
        return tuple(w[p] if d == 1 and is_exact_scalar(d) else _reciprocal(d) * w[p]
                     for d, p in zip(self.back_map.diag, self.back_map.perm))


def canonical_form(B: ReciprocalMatrix, n: int) -> BlockPerturbedForm:
    """Wrap an already-canonical A_n(B) (identity back map); n >= s, as in
    block_matrix."""
    n = check_integer(n, "n")
    if n < B.n:
        raise InputError(f"n = {n} smaller than block size {B.n}")
    return BlockPerturbedForm(B, n, MonomialSimilarity.identity(n))


def block_matrix(B: ReciprocalMatrix, n: int) -> ReciprocalMatrix:
    """Build A_n(B): B as leading principal block, all other entries 1.

    B is already validated, so no entry is checked again.  The rows share
    one tail and one all-ones row: O(s*n) references.  The matrix records B
    as its block."""
    s, n = B.n, check_integer(n, "n")
    if n < s:
        raise InputError(f"n = {n} smaller than block size {s}")
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    one = Fraction(1) if B.exact else 1.0
    tail = (one,) * (n - s)
    rows = tuple(B.row(i) + tail for i in range(s)) + ((one,) * n,) * (n - s)
    A = ReciprocalMatrix(rows, B.exact)
    A.__dict__["block"] = B
    return A


def is_block_perturbation(
    A: ReciprocalMatrix, K: Iterable[int]
) -> Optional[BlockPerturbedForm]:
    """The form of A with block K, which is one iff K_r lies inside K for r the
    smallest index outside K; else None.  None too on floats when a block
    entry or its reciprocal leaves the floats: A has no float form.  O(n^2)."""
    n = A.n
    K = sorted({check_index(k, range(n), "K index") for k in K})
    if not K or len(K) >= n:
        raise InputError(f"K must be a nonempty proper subset of 0..{n - 1}")
    rest = sorted(set(range(n)).difference(K))
    K_r = _reference_block(A, rest[0], len(K))
    return _block_form(A, K, rest) if K_r is not None and K_r <= set(K) else None


def _block_form(A: ReciprocalMatrix, K: list, rest: list) -> Optional[BlockPerturbedForm]:
    """The form with block K, where K_r lies inside K for r = rest[0] (K and
    rest ascending, splitting 0..n-1).  Scaling by column r leaves 1s outside
    B_pq = a_{K_p K_q} * a_{K_q r} / a_{K_p r}; the back map permutes by K + rest
    and scales by column r in that order.  None if a float B_pq leaves the floats."""
    s, col_r, order = len(K), A.column(rest[0]), tuple(K + rest)
    if A.exact:
        B = _exact_block(A, K, rest[0])
    else:
        rows = [[1.0] * s for _ in range(s)]
        for p in range(s):
            for q in range(p + 1, s):
                x = A[K[p], K[q]] * col_r[K[q]] / col_r[K[p]]
                if not 0 < x < math.inf or 1 / x == math.inf:
                    return None
                rows[p][q], rows[q][p] = x, 1 / x
        B = ReciprocalMatrix(tuple(map(tuple, rows)), False)
    # column r of a validated matrix: positive and finite, so no check again
    back = MonomialSimilarity._unchecked(tuple(col_r[i] for i in order), order)
    return BlockPerturbedForm(B, A.n, back)


def _exact_block(A: ReciprocalMatrix, K: list, r: int) -> ReciprocalMatrix:
    """_block_form's B on an exact A, in integers from A.ratios: B_pq is
    p_{K_p K_q} p_{K_q r} q_{K_p r} / (q_{K_p K_q} q_{K_q r} p_{K_p r}), reduced
    by one gcd, and B_qp its mirror; each becomes a Fraction once.  B gets
    those ratios, and its float view as p / q when every p and q is below
    2**53 (then exactly float(Fraction(p, q))); past that the view is built
    on first read, which raises if an entry leaves the floats."""
    s, (P, Q) = len(K), A.ratios
    p_r, q_r = [P[k][r] for k in K], [Q[k][r] for k in K]
    num, den = [[1] * s for _ in range(s)], [[1] * s for _ in range(s)]
    one = Fraction(1)
    rows = [[one] * s for _ in range(s)]
    bits = 1  # the bitwise or of every p and q
    for p in range(s):
        P_p, Q_p = P[K[p]], Q[K[p]]
        for q in range(p + 1, s):
            x = P_p[K[q]] * p_r[q] * q_r[p]
            y = Q_p[K[q]] * q_r[q] * p_r[p]
            g = math.gcd(x, y)
            x, y = x // g, y // g
            num[p][q] = den[q][p] = x
            den[p][q] = num[q][p] = y
            rows[p][q], rows[q][p] = Fraction(x, y), Fraction(y, x)
            bits |= x | y
    B = ReciprocalMatrix(tuple(map(tuple, rows)), True)
    B.__dict__["ratios"] = (tuple(map(tuple, num)), tuple(map(tuple, den)))
    if bits < 2**53:
        a = np.divide(num, den, dtype=float)
        a.flags.writeable = False
        B.__dict__["array"] = a
    return B


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
    if A.exact:  # cross-multiplied: p_ij * q_ir * q_rj != p_ir * p_rj * q_ij
        P, Q = A.ratios
        p_r, q_r = P[r], Q[r]

        def bad_in(i: int) -> list:
            p, q = P[i], Q[i]
            p_ir, q_ir = p[r], q[r]
            return [j for j in range(i + 1, n) if p[j] * q_ir * q_r[j] != p_ir * p_r[j] * q[j]]
    else:
        row_r = A.row(r)

        def bad_in(i: int) -> list:
            row_i = A.row(i)
            a_ir = row_i[r]
            return [j for j in range(i + 1, n)
                    if (p := a_ir * row_r[j]) == 0.0 or abs(row_i[j] / p - 1.0) > TOL_CONS]
    K: set = set()
    for i in range(n):
        bad = bad_in(i)
        if bad:
            K.add(i)
            K.update(bad)
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
    A consistent A gives K = (0,), formed from r = 1; on exact input with no
    scan of K_1, as K_0 = {} makes every K_r empty.  Returns None only on
    floats: near tol, where K_r for two references r can disagree, and when
    the block's canonical entries leave the float range (see
    is_block_perturbation).

    On exact input only the references r inside best are scanned, since one
    outside reads best again.  Proof: best = K_f with f outside best, and
    exact K_r is a block for every r.  An r outside the block best has
    K_r inside best; f lies outside best, so outside K_r, and the block K_r
    contains K_f = best.  So K_r = best, and the form is built from
    r = rest[0] without a scan.  Floats scan every r <= |best|: there K_r
    can disagree near TOL_CONS.
    """
    n = A.n
    best = sorted(_reference_block(A, 0, n - 1))
    # found: the reference whose scan set best.  best only falls in (size,
    # indices) order, so an earlier scan with the final K would have set it
    # first; found is outside its own K_r, so rest[0] <= found, and a scanned
    # rest[0] reads the final K iff it is found.
    found, r = 0, 1
    while 2 * len(best) >= n and r <= len(best):
        if not A.exact or r in best:  # an exact r outside best reads best again
            K = _reference_block(A, r, len(best))
            if K is not None and (len(K), sorted(K)) < (len(best), best):
                best, found = sorted(K), r
        r += 1
    if not best:  # K = (0,), a block iff K_1 is empty, as it is on exact input
        best = [0]
        if r == 1 and not A.exact and _reference_block(A, 1, 0) is not None:
            found = 1  # K_0 was empty, so the loop did not scan K_1
    rest = sorted(set(range(n)).difference(best))
    form = _block_form(A, best, rest) if A.exact or rest[0] == found else None
    return None if form is None else DetectedBlock(form)


# ---------------------------------------------------------------------------
# Geometric means


def geometric_mean_vector(A: ReciprocalMatrix, cols: Iterable[int]) -> Vector:
    """Entry-wise geometric mean of the selected columns (always efficient).

    A single column is returned as-is on its native backend; genuine means
    involve k-th roots and are computed in floats.
    """
    cols = sorted({check_index(j, range(A.n), "column") for j in cols})
    if not cols:
        raise InputError("need at least one column")
    if len(cols) == 1:
        return A.column(cols[0])
    a, k = A.array, len(cols)
    return tuple(math.exp(sum(math.log(a[i, j]) for j in cols) / k) for i in range(A.n))
