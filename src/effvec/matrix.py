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


_EXACT_TYPES, _FRACTION, _FLOAT = frozenset((int, Fraction)), frozenset((Fraction,)), frozenset((float,))
#: the truth values, which no intake takes as numbers (int and float accept them)
_BOOLS = frozenset((bool, np.bool_))
#: rows per panel of float validation, and a panel's diagonal block on and above its diagonal
_PANEL = 64
_UPPER = ~np.tri(_PANEL, k=-1, dtype=bool)


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
    if (_FRACTION if exact else _FLOAT).issuperset(map(type, w)):
        return w if type(w) is tuple else tuple(w)  # checked above: what the kernels read
    if not exact:
        return tuple(float_view(w, "vector entry ({})").tolist())
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

    An exact matrix holds its entries, rows of Fractions, but for the block
    of exact detection, which is its integer ratios.  A float matrix from
    validate_reciprocal, to_float, submatrix or delete is its read-only
    float64 array.  An A_n(B) from block_matrix is B, recorded as `block`
    (None on other matrices), and n.  The entries of a matrix that is its
    ratios, its array or its block, rows of Fractions or of Python floats,
    are built on their first read (by the readers of single entries,
    equality, hash and repr), at most once.  Equality, hash and repr are
    those of (entries, exact); B takes no part in them.

    Outside input goes through validate_reciprocal.  Derived matrices
    (submatrix, delete, to_float, block_matrix, the blocks of canonical
    forms) are built from validated parts and are not checked again.
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

    @classmethod
    def _of_ratios(cls, ratios: tuple) -> "ReciprocalMatrix":
        """The exact matrix whose ratios are (P, Q), validated and in lowest terms."""
        A = cls.__new__(cls)
        A.__dict__.update(ratios=ratios, exact=True, n=len(ratios[0]))
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
        """The rows of a matrix that is its ratios, its array or its block, built
        on first read; an A_n(B)'s are B's, with tails of 1s (_with_tail)."""
        if self.block is not None:
            return self._with_tail(self.block.entries, Fraction(1) if self.exact else 1.0)
        if self.exact:
            return tuple(tuple(map(Fraction, p, q)) for p, q in zip(*self.ratios))
        return tuple(map(tuple, self.array.tolist()))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        if self.exact or "entries" in self.__dict__ or self.block is not None:
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
        exact matrix's view is p / q over its ratios: int true division rounds
        correctly, so each is float(Fraction(p, q)) bit for bit.  An A_n(B)
        from block_matrix is ones with B's view in the leading corner: s^2
        conversions, not n^2."""
        if self.block is not None:
            s = self.block.n
            a = np.ones((self.n, self.n))
            a[:s, :s] = self.block.array
        elif self.exact:
            a = self._ratio_view()
        else:
            a = float_view(self.entries, "entry ({},{})")
        a.flags.writeable = False
        return a

    def _ratio_view(self) -> np.ndarray:
        """The float view of an exact matrix, p / q over its ratios."""
        n, (P, Q) = self.n, self.ratios
        try:
            a = np.fromiter(map(operator.truediv, chain.from_iterable(P), chain.from_iterable(Q)),
                            float, n * n)
            if a.all():
                return a.reshape(n, n)
        except OverflowError:
            pass
        return float_view(self.entries, "entry ({},{})")  # raises, naming the first such entry

    @cached_property
    def ratios(self) -> tuple:
        """(P, Q) for an exact matrix: integer rows with a_ij = P[i][j] / Q[i][j]
        in lowest terms, Q positive, built at most once; an A_n(B)'s are B's,
        with tails of 1s (_with_tail)."""
        if self.block is not None:
            return tuple(self._with_tail(rows, 1) for rows in self.block.ratios)
        return _split(self.entries)

    def _with_tail(self, rows: tuple, one) -> tuple:
        """B's rows as those of A_n(B): each with one shared tail of `one`s, then
        one shared row of n `one`s, n - s times: O(s*n) references."""
        tail = (one,) * (self.n - len(rows))
        return tuple(r + tail for r in rows) + ((one,) * self.n,) * len(tail)

    def weights(self, w: Sequence[Scalar]) -> Vector:
        """w through check_positive_vector(w, n), as a tuple of Fractions when
        A and w are both exact, else of floats."""
        return _pair_vector(w, self.n, self.exact)


def validate_reciprocal(grid: Sequence[Sequence[Scalar]]) -> ReciprocalMatrix:
    """Validate a square grid of positive entries as a reciprocal matrix.

    Exact entries must satisfy a_ij * a_ji == 1 exactly; on the float
    backend the product may deviate by TOL_RECIP and a_ji is then
    renormalized to exactly 1/a_ij.  Mixed exact/float grids are promoted
    to the float backend.  A float grid is checked and copied in panels of
    64 rows, each with one contiguous copy of the matching column panel,
    which gives both the products a_ij * a_ji and the reciprocals below the
    diagonal; an error names the first bad entry in row-major order.
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
        out = np.empty((n, n))
        with np.errstate(over="ignore"):
            for lo in range(0, n, _PANEL):
                hi = min(lo + _PANEL, n)
                t = np.ascontiguousarray(a[:, lo:hi].T)  # a_ji for the panel's rows i
                bad = a[lo:hi, lo:] * t[:, lo:]
                bad -= 1.0
                # a bad pair below the diagonal is bad in its mirror above it, which comes first
                bad = np.abs(bad, out=bad) > TOL_RECIP
                np.fill_diagonal(bad, a.diagonal()[lo:hi] != 1)
                if bad.any():
                    i, j = np.argwhere(bad)[0] + lo
                    if i == j:
                        raise InputError(f"diagonal entry ({i},{i}) = {float(a[i, i])!r} != 1")
                    raise InputError(f"a[{i}][{j}] * a[{j}][{i}] = {float(a[i, j] * a[j, i])} "
                                     f"deviates from 1 beyond {TOL_RECIP}")
                np.divide(1.0, t[:, :hi], out=out[lo:hi, :hi])  # a_ij := 1/a_ji below the diagonal
                np.copyto(out[lo:hi, lo:hi], a[lo:hi, lo:hi], where=_UPPER[:hi - lo, :hi - lo])
                out[lo:hi, hi:] = a[lo:hi, hi:]  # a's own entries on and above it
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

    B is already validated, so no entry is checked again.  The matrix is B,
    recorded as its block, and n: its entries, ratios and float view are
    built from B's on first read, its rows in O(s*n) references."""
    s, n = B.n, check_integer(n, "n")
    if n < s:
        raise InputError(f"n = {n} smaller than block size {s}")
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    A = ReciprocalMatrix.__new__(ReciprocalMatrix)
    A.__dict__.update(block=B, exact=B.exact, n=n)
    return A


def is_block_perturbation(A: ReciprocalMatrix, K: Iterable[int]) -> Optional[BlockPerturbedForm]:
    """The form of A with block K, which is one iff every row outside K is a_ir
    times row r, the first index outside K; else None.  None too on floats when
    a block entry or its reciprocal leaves the floats (no float form).  O(n^2)."""
    n = A.n
    K = sorted({check_index(k, range(n), "K index") for k in K})
    if not K or len(K) >= n:
        raise InputError(f"K must be a nonempty proper subset of 0..{n - 1}")
    rest = sorted(set(range(n)).difference(K))
    r = rest[0]
    if A.exact:  # row i = a_ir row r, cross-multiplied in integers; columns of rest below i hold
        P, Q = A.ratios
        p_r, q_r = P[r], Q[r]
        for i in rest[1:]:
            p, q, p_ir, q_ir = P[i], Q[i], P[i][r], Q[i][r]
            if [j for j in chain(K, range(i + 1, n))
                    if p[j] * q_ir * q_r[j] != p_ir * p_r[j] * q[j]]:
                return None
    elif not _multiples(A.array, rest[1:], r).all():
        return None
    return _block_form(A, K)


def _multiples(a: np.ndarray, rows: Sequence[int], r: int) -> np.ndarray:
    """Whether each row i in rows of the float array a is a_ir times row r,
    |a_ij / (a_ir a_rj) - 1| <= TOL_CONS for every j (a_ir a_rj = 0 or inf fails)."""
    with np.errstate(divide="ignore", over="ignore"):
        d = a[rows] / np.multiply.outer(a[rows, r], a[r])
    d -= 1.0
    return (np.abs(d, out=d) <= TOL_CONS).all(axis=1)


def _block_form(A: ReciprocalMatrix, K: list) -> Optional[BlockPerturbedForm]:
    """The form with block K (ascending), where every row outside K is a multiple
    of row r, the first index outside K.  Scaling by column r leaves 1s outside
    B_pq = a_{K_p K_q} a_{K_q r} / a_{K_p r}; the back map permutes by K + rest and
    scales by column r in that order.  None if a float B_pq or 1 / B_pq leaves the floats."""
    rest = sorted(set(range(A.n)).difference(K))
    col_r, order = A.column(rest[0]), tuple(K + rest)
    if A.exact:
        B = _exact_block(A, K, rest[0])
    else:
        c = A.array[K, rest[0]]
        with np.errstate(divide="ignore", over="ignore"):
            b = np.triu(A.array[np.ix_(K, K)] * c / c[:, None], 1)
            b += np.tril(1.0 / b.T, -1) + np.eye(len(K))
        if not np.isfinite(b).all():
            return None
        b.flags.writeable = False
        B = ReciprocalMatrix._of_array(b)
    # column r of a validated matrix: positive and finite, so no check again
    back = MonomialSimilarity._unchecked(tuple(col_r[i] for i in order), order)
    return BlockPerturbedForm(B, A.n, back)


def _exact_block(A: ReciprocalMatrix, K: list, r: int) -> ReciprocalMatrix:
    """_block_form's B on an exact A, in integers from A.ratios: B_pq is
    p_{K_p K_q} p_{K_q r} q_{K_p r} / (q_{K_p K_q} q_{K_q r} p_{K_p r}), reduced
    by one gcd, and B_qp its mirror.  B is those ratios: its Fractions and its
    float view are built from them on first read."""
    s, (P, Q) = len(K), A.ratios
    p_r, q_r = [P[k][r] for k in K], [Q[k][r] for k in K]
    num, den = [[1] * s for _ in range(s)], [[1] * s for _ in range(s)]
    for p in range(s):
        P_p, Q_p = P[K[p]], Q[K[p]]
        for q in range(p + 1, s):
            x = P_p[K[q]] * p_r[q] * q_r[p]
            y = Q_p[K[q]] * q_r[q] * p_r[p]
            g = math.gcd(x, y)
            x, y = x // g, y // g
            num[p][q] = den[q][p] = x
            den[p][q] = num[q][p] = y
    return ReciprocalMatrix._of_ratios((tuple(map(tuple, num)), tuple(map(tuple, den))))


@dataclass(frozen=True)
class DetectedBlock:
    form: BlockPerturbedForm

    @property
    def K(self) -> tuple:
        """The input indices that the back map sends to the block, ascending."""
        return self.form.back_map.perm[: self.form.s]


def detect_minimal_block(A: ReciprocalMatrix) -> Optional[DetectedBlock]:
    """Smallest index set K (lexicographic tie-break) making A a block perturbation:
    the complement of the largest class of proportional rows (of two of one size,
    the one with the larger least index); K = (0,) when one class holds every row.
    Exact rows are keyed by their reduced rows, which proportional rows and only
    they share: n gcds a row, O(n^2).  Float proportionality within TOL_CONS is not
    transitive, so a float K goes through is_block_perturbation (None if it fails)."""
    n = A.n
    if A.exact:
        classes = {}  # by reduced row, the rows that have it
        for i, (p, q) in enumerate(zip(*A.ratios)):
            classes.setdefault(_reduced_row(p, q), []).append(i)
        classes = classes.values()
    else:
        classes = _float_classes(A.array)
    best = max(classes, key=lambda c: (len(c), min(c)))
    K = sorted(set(range(n)).difference(best)) or [0]
    form = _block_form(A, K) if A.exact else is_block_perturbation(A, K)
    return None if form is None else DetectedBlock(form)


def _reduced_row(p: tuple, q: tuple) -> tuple:
    """The exact row p / q divided by its first entry: a_ij / a_i0 =
    p_ij q_i0 / (q_ij p_i0) for every j, each in lowest terms, flattened.  Rows
    are proportional iff their reduced rows are equal."""
    p_0, q_0, key = p[0], q[0], []
    for p_j, q_j in zip(p, q):
        x, y = p_j * q_0, q_j * p_0
        g = math.gcd(x, y)
        key.append(x // g)
        key.append(y // g)
    return tuple(key)


def _float_classes(a: np.ndarray) -> list:
    """Classes of proportional rows of the float array a.  In the order of
    sum_j log(a_ij / a_i0), where proportional rows lie within 2 n TOL_CONS (2
    TOL_CONS a term), a row no class took starts one and takes its multiples
    among the later rows within 4 n TOL_CONS; a row taken twice merges two."""
    n = len(a)
    key = np.log(a).sum(axis=1) - n * np.log(a[:, 0])
    order = np.argsort(key, kind="stable")
    end = np.searchsorted(key[order], key[order] + 4 * n * TOL_CONS, side="right").tolist()
    label = np.arange(n)  # per position of the order: the position that started its class
    for p in range(n):
        if label[p] == p and end[p] > p + 1:  # a row no class took, with rows in its window
            seg = label[p + 1:end[p]]
            taken = _multiples(a, order[p + 1:end[p]], order[p])
            merged = seg[taken & (seg < p)]
            if merged.size:
                label[np.isin(label, merged)] = p
            seg[taken] = p
    by_class = np.argsort(label, kind="stable")
    return np.split(order[by_class], np.flatnonzero(np.diff(label[by_class])) + 1)


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
