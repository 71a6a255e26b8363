import itertools
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effvec import (
    TOL_CONS,
    BlockPerturbedForm,
    MonomialSimilarity,
    ReciprocalMatrix,
    apply_similarity,
    block_matrix,
    canonical_form,
    detect_minimal_block,
    geometric_mean_vector,
    is_block_perturbation,
    is_efficient,
    perron,
    perron_efficiency_via_submatrix,
    transform_vector,
    validate_reciprocal,
)
from effvec import matrix
from effvec.errors import DimensionMismatch, InputError
from effvec.fixtures import B3, B_SCALED, CC, D_SCALED, EX20

from conftest import consistent_matrix, rand_frac, rand_reciprocal, rand_similarity, rand_vector


class TestValidate:
    def test_all_ones(self):
        A = validate_reciprocal([[1, 1, 1]] * 3)
        assert A.n == 3 and A.exact

    def test_reference_matrix_valid(self):
        assert CC.n == 4
        assert CC[1, 0] == F(1, 2)

    def test_reciprocity_violation(self):
        with pytest.raises(InputError, match=r"a\[0\]\[1\] \* a\[1\]\[0\] = 6 != 1"):
            validate_reciprocal([[1, 2], [3, 1]])

    def test_bad_diagonal(self):
        with pytest.raises(InputError, match=r"diagonal entry \(0,0\)"):
            validate_reciprocal([[2, 2], [F(1, 2), 1]])

    def test_nonpositive(self):
        with pytest.raises(InputError, match=r"entry \(0,1\) = .* is not positive"):
            validate_reciprocal([[1, -2], [F(-1, 2), 1]])

    def test_not_square(self):
        with pytest.raises(InputError, match="grid is not square"):
            validate_reciprocal([[1, 2, 3], [F(1, 2), 1, 1]])

    def test_too_small(self):
        with pytest.raises(InputError, match="need n >= 2, got 1"):
            validate_reciprocal([[1]])

    def test_float_normalization(self):
        # a21 off by < 1e-12 relative is accepted and snapped to 1/a12
        A = validate_reciprocal([[1.0, 3.0], [(1 / 3) * (1 + 1e-13), 1.0]])
        assert not A.exact
        assert A[1, 0] == 1.0 / 3.0

    def test_float_violation(self):
        with pytest.raises(InputError, match="deviates from 1 beyond"):
            validate_reciprocal([[1.0, 3.0], [0.34, 1.0]])

    def test_mixed_promotes_to_float(self):
        A = validate_reciprocal([[1, 0.5], [2, 1]])
        assert not A.exact

    def test_mixed_exact_entry_beyond_floats(self):
        with pytest.raises(InputError, match=r"^entry \(1,0\) too large for a float"):
            validate_reciprocal([[1, 5e-324], [1 / F(5e-324), 1]])


class TestConsistency:
    """A matrix is consistent iff its minimal block is K = (0,)."""

    def test_all_ones(self):
        assert detect_minimal_block(validate_reciprocal([[1] * 4] * 4)).K == (0,)

    def test_ratio_matrix(self):
        assert detect_minimal_block(consistent_matrix((1, 2, 4))).K == (0,)

    def test_reference_matrix_not(self):
        # a12 * a23 = 1 != 3 = a13
        assert detect_minimal_block(CC).K != (0,)

    def test_n2_always(self):
        assert detect_minimal_block(validate_reciprocal([[1, 7], [F(1, 7), 1]])).K == (0,)


class TestSimilarity:
    def test_identity(self):
        M = MonomialSimilarity.identity(4)
        assert apply_similarity(CC, M).entries == CC.entries

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_unchecked_identity_equals_checked(self, n):
        M, checked = MonomialSimilarity.identity(n), MonomialSimilarity((1,) * n, tuple(range(n)))
        assert M == checked and hash(M) == hash(checked) and repr(M) == repr(checked)

    @pytest.mark.parametrize("perm", [(0.0, 1.0), (1, 1), (0, 2), ("0", "1")],
                             ids=["floats", "repeat", "out-of-range", "strings"])
    def test_perm_is_a_permutation(self, perm):
        with pytest.raises(InputError, match=r"^\(.*\) is not a permutation of the 2 indices$"):
            MonomialSimilarity((1, 1), perm)

    def test_size_mismatches(self):
        with pytest.raises(DimensionMismatch, match="^diag and perm sizes differ$"):
            MonomialSimilarity((1, 1), (0, 1, 2))
        with pytest.raises(DimensionMismatch, match="^matrix size 3 vs similarity size 4$"):
            apply_similarity(B3, MonomialSimilarity.identity(4))

    def test_numpy_int_perm(self):
        M = MonomialSimilarity((2, 1), tuple(np.array([1, 0])))
        assert transform_vector(M, (3, 5)) == (5, 6)

    def test_scaled_block_recovers_reference(self):
        inv = MonomialSimilarity.scaling(tuple(1 / d for d in D_SCALED))
        assert apply_similarity(B_SCALED, inv).entries == CC.entries

    def test_vector_transport(self):
        M = MonomialSimilarity.scaling(D_SCALED)
        assert transform_vector(M, (15, 8, 8, 12)) == (15, 16, 32, 24)

    @pytest.mark.parametrize("d", [float("inf"), float("nan"), 0.0, -1])
    def test_diagonal_positive_finite(self, d):
        with pytest.raises(InputError, match=r"^diagonal entry .* is not positive and finite$"):
            MonomialSimilarity.scaling((d, 1.0))

    def test_inverse_round_trip(self, rng):
        for _ in range(20):
            A = rand_reciprocal(5, rng)
            M = rand_similarity(5, rng)
            B = apply_similarity(A, M)
            assert apply_similarity(B, M.inverse()).entries == A.entries

    @given(st.integers(0, 2**30))
    @settings(max_examples=50, deadline=None)
    def test_similarity_preserves_reciprocity(self, seed):
        r = random.Random(seed)
        A = rand_reciprocal(r.randint(2, 6), r)
        M = rand_similarity(A.n, r)
        B = apply_similarity(A, M)  # validate_reciprocal runs inside
        assert B.exact
        for i in range(A.n):
            for j in range(A.n):
                assert B[i, j] * B[j, i] == 1


def test_block_matrix_sizes():
    with pytest.raises(InputError, match="^n = 2 smaller than block size 3$"):
        block_matrix(B3, 2)
    with pytest.raises(InputError, match="^need n >= 2, got 1$"):
        block_matrix(B3.submatrix([0]), 1)


def test_canonical_form_sizes():
    """canonical_form rejects an n below the block size, as block_matrix does."""
    with pytest.raises(InputError, match="^n = 2 smaller than block size 3$"):
        canonical_form(B3, 2)
    assert canonical_form(B3, 3).n == 3


@pytest.mark.parametrize("w", [(3, 2, 1), (F(3), F(2, 7), F(1)), (3.0, 0.5, 1.0),
                               (3, 0.5, F(1)), np.array([3.0, 0.5, 1.0])],
                         ids=["ints", "fractions", "floats", "mixed", "array"])
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_one_vector_shape(backend, w):
    """A matrix and its form read a vector alike: a tuple, of Fractions when
    the matrix and w are both exact, else of floats."""
    A = B3 if backend == "exact" else validate_reciprocal(B3.array.tolist())
    got = A.weights(w)
    assert got == canonical_form(A, A.n).weights(w)
    assert type(got) is tuple
    exact = A.exact and all(type(x) in (int, F) for x in w)
    assert set(map(type, got)) == {F if exact else float}


def test_recorded_block():
    """block_matrix records B as its matrix's read-only block; every other
    matrix has None."""
    A = block_matrix(B3, 5)
    assert A.block is B3 and canonical_form(B3, 5).matrix().block is B3
    with pytest.raises(FrozenInstanceError):
        A.block = None
    others = (B3, validate_reciprocal(B3.array.tolist()), A.submatrix(range(4)),
              validate_reciprocal(A.as_lists()))
    assert [M.block for M in others] == [None] * 4


class TestBlockPerturbation:
    def test_consistent_trivial_block(self):
        A = consistent_matrix((1, 2, 4, 8))
        form = is_block_perturbation(A, {0})
        assert form is not None
        assert form.block.n == 1 or form.block.entries == ((F(1),),)

    def test_six_dim_block(self):
        A = block_matrix(B3, 6)
        form = is_block_perturbation(A, {0, 1, 2})
        assert form is not None
        assert form.block.entries == B3.entries

    def test_back_map_exact_round_trip(self, rng):
        for _ in range(10):
            A0 = block_matrix(rand_reciprocal(3, rng), 7)
            M = rand_similarity(7, rng)
            A = apply_similarity(A0, M)
            K = sorted(M.perm[i] for i in range(3))
            form = is_block_perturbation(A, K)
            assert form is not None
            assert apply_similarity(form.matrix(), form.back_map).entries == A.entries

    def test_not_a_block_perturbation(self):
        # inconsistency straddles the complement of K
        assert is_block_perturbation(EX20, {0, 1, 2}) is None

    def test_bad_subset(self):
        with pytest.raises(InputError, match="K must be a nonempty proper subset"):
            is_block_perturbation(CC, set())
        with pytest.raises(InputError, match="K must be a nonempty proper subset"):
            is_block_perturbation(CC, {0, 1, 2, 3})


def reference_block_form(A, K, tol=TOL_CONS):
    """The block form by its definition: scale by the reciprocal column of the
    smallest index r outside K, permute K to the front, and require 1s
    outside the block."""
    K = sorted(K)
    n, s = A.n, len(K)
    order = K + [i for i in range(n) if i not in K]
    r = order[s]
    M = MonomialSimilarity(tuple(1 / A[i, r] for i in range(n)),
                           tuple(order.index(i) for i in range(n)))
    Acan = apply_similarity(A, M)
    for i in range(n):
        for j in range(n):
            if i < s and j < s:
                continue
            if Acan[i, j] != 1 if A.exact else abs(Acan[i, j] - 1.0) > tol:
                return None
    return BlockPerturbedForm(Acan.submatrix(range(s)), n, M.inverse())


def triple_consistent(A, tol=TOL_CONS):
    """Consistency by its definition: a_ij * a_jk == a_ik for every triple."""
    for i, j, k in itertools.product(range(A.n), repeat=3):
        lhs = A[i, j] * A[j, k]
        if lhs != A[i, k] if A.exact else abs(lhs / A[i, k] - 1.0) > tol:
            return False
    return True


def brute_force_block(A):
    """Smallest K, lexicographic among equal sizes, that reference_block_form accepts."""
    for size in range(1, A.n):
        for K in itertools.combinations(range(A.n), size):
            if reference_block_form(A, K) is not None:
                return K
    return None


def coarse_reciprocal(n, rng):
    """Entries from {1/2, 1, 2}: small blocks often hide partly consistent rows."""
    rows = [[F(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rng.choice((F(1, 2), F(1), F(2)))
            rows[j][i] = 1 / rows[i][j]
    return validate_reciprocal(rows)


def scrambled_block(n, s, rng):
    """A_n(B) for a random s-by-s B under a random monomial similarity."""
    B = (coarse_reciprocal if rng.random() < 0.5 else rand_reciprocal)(s, rng)
    return apply_similarity(block_matrix(B, n), rand_similarity(n, rng))


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_block_form_matches_reference(backend):
    rng = random.Random(29)
    accepted = rejected = 0
    for _ in range(60):
        n = rng.randint(3, 8)
        A = scrambled_block(n, rng.randint(2, n - 1), rng)
        if backend == "float":
            A = A.to_float()
        for size in range(1, n):
            K = sorted(rng.sample(range(n), size))
            form, ref = is_block_perturbation(A, K), reference_block_form(A, K)
            assert (form is None) == (ref is None)
            if form is None:
                rejected += 1
                continue
            accepted += 1
            r = form.back_map.perm[form.s]  # the back map is column r, block first
            assert form.back_map.diag == tuple(A[i, r] for i in form.back_map.perm)
            if A.exact:
                assert form == ref
                assert apply_similarity(form.matrix(), form.back_map).entries == A.entries
            else:
                for x, y in zip(sum(form.block.entries, ()), sum(ref.block.entries, ())):
                    assert x == pytest.approx(y, rel=1e-12)
    assert accepted >= 50 and rejected >= 50


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_consistency_matches_triple_definition(backend):
    """Detection finds the 1-block K = (0,) iff the matrix is consistent
    (K_0 is empty).  Float inputs are exact rationals: consistent ones are
    off by rounding only, inconsistent ones by far more than TOL_CONS, so
    detection answers on every one."""
    rng = random.Random(31)
    verdicts = []
    for _ in range(120):
        n = rng.randint(2, 7)
        kind = rng.randrange(3)
        if kind == 0:
            A = consistent_matrix(rand_vector(n, rng))
        elif kind == 1:
            A = coarse_reciprocal(n, rng)
        else:
            A = scrambled_block(n + 1, rng.randint(2, n), rng)
        if backend == "float":
            A = A.to_float()
        verdicts.append(detect_minimal_block(A).K == (0,))
        assert verdicts[-1] == triple_consistent(A)
    assert 20 <= sum(verdicts) <= 100


class TestDetectMinimalBlock:
    def test_consistent(self):
        d = detect_minimal_block(consistent_matrix((1, 2, 3)))
        assert d is not None and len(d.K) == 1

    def test_four_block(self):
        d = detect_minimal_block(EX20)
        assert d.K == (0, 1, 2, 3)

    def test_scrambled_three_block(self, rng):
        for _ in range(5):
            B = rand_reciprocal(3, rng)
            if triple_consistent(B):
                continue
            A = apply_similarity(block_matrix(B, 6), rand_similarity(6, rng))
            d = detect_minimal_block(A)
            assert d is not None and len(d.K) == 3

    def test_exact_minimal_large_n(self, rng):
        for n in (9, 10):
            B = rand_reciprocal(3, rng)
            assert not triple_consistent(B)
            A = apply_similarity(block_matrix(B, n), rand_similarity(n, rng))
            d = detect_minimal_block(A)
            assert d.K == brute_force_block(A)
            assert apply_similarity(d.form.matrix(), d.form.back_map).entries == A.entries

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_matches_brute_force(self, backend):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(3, 8)
            s = rng.randint(2, n - 1)
            B = (coarse_reciprocal if rng.random() < 0.5 else rand_reciprocal)(s, rng)
            A = apply_similarity(block_matrix(B, n), rand_similarity(n, rng))
            if backend == "float":
                A = A.to_float()
            d = detect_minimal_block(A)
            assert d is not None and d.K == brute_force_block(A)
            assert d.form == is_block_perturbation(A, d.K)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_detection_takes_the_largest_class(backend):
    """K is the complement of the largest class of proportional rows: a block
    of under n/2 indices that misses 0, and K = (0,) on a consistent matrix."""
    M = MonomialSimilarity((F(2), F(1, 3), F(5), F(1), F(7, 2), F(3, 4), F(9)),
                           (3, 5, 6, 0, 1, 2, 4))
    A = apply_similarity(block_matrix(B3, 7), M)
    C = consistent_matrix((1, 2, 3, 5))
    if backend == "float":
        A, C = A.to_float(), C.to_float()
    assert detect_minimal_block(A).K == (3, 5, 6)
    assert detect_minimal_block(C).K == (0,)


def test_references_that_disagree_near_tolerance():
    """Float entries off consistency by about TOL_CONS: row 2 is a multiple
    of every row, rows 0 and 1 are not multiples of each other, nor is row 3
    of either.  Proportionality is not transitive here, so there is no
    form."""
    A = validate_reciprocal([
        [1.0, 0.16976933086389143, 0.10264874680107239, 0.08005786012277413],
        [5.890345416992464, 1.0, 0.6046365747719847, 0.47156844896075495],
        [9.741960142367299, 1.6538860560612154, 1.0, 0.779920482399282],
        [12.490965889750644, 2.120582923229502, 1.2821819949178457, 1.0]])
    assert detect_minimal_block(A) is None
    assert is_block_perturbation(A, (0,)) is None


def test_underflowing_product_is_not_proportional():
    """A float product a_ir * a_rj that underflows to 0 fails the test "row i
    is a_ir times row r": a_12 = 0.5 against a_10 * a_02 = 1e-200 * 1e-200."""
    A = validate_reciprocal([[1, 1e200, 1e-200], [1e-200, 1, 0.5], [1e200, 2, 1]])
    assert A.array[1, 0] * A.array[0, 2] == 0.0
    assert is_block_perturbation(A, (2,)) is None


@pytest.mark.parametrize("rows", [
    [[1, 1e-200, 1], [1e200, 1, 1e-200], [1, 1e200, 1]],    # B_01 underflows to 0.0
    [[1, 1e200, 1e-200], [1e-200, 1, 0.5], [1e200, 2, 1]],  # B_01 overflows to inf
    [[1, 1e-160, 1], [1e160, 1, 1e-150], [1, 1e150, 1]],    # 1/B_01 overflows
], ids=["underflow", "overflow", "reciprocal-overflow"])
def test_block_entry_beyond_floats_has_no_form(rows):
    """A canonical float block entry (or its reciprocal) that leaves the
    float range gives no form, and so no detected block."""
    A = validate_reciprocal(rows)
    assert is_block_perturbation(A, (0, 1)) is None
    assert detect_minimal_block(A) is None


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_form_coordinates(backend):
    """reversed() reverses the block, maps back onto the same matrix and is
    its own inverse; from_input is the back map's inverse on vectors, so the
    verdict on A with w is the verdict on either form with w carried over."""
    rng = random.Random(53)
    verdicts = []
    for _ in range(60):
        n = rng.randint(3, 8)
        A = scrambled_block(n, rng.randint(2, n - 1), rng)
        w = A.column(0) if rng.random() < 0.5 else rand_vector(n, rng)
        if backend == "float":
            A, w = A.to_float(), tuple(map(float, w))
        form = detect_minimal_block(A).form
        rev = form.reversed()
        assert (rev.block, rev.n) == (form.block.submatrix(range(form.s - 1, -1, -1)), form.n)
        assert apply_similarity(rev.matrix(), rev.back_map).entries == \
            apply_similarity(form.matrix(), form.back_map).entries
        assert rev.reversed() == form
        verdicts.append(is_efficient(A, w).efficient)
        for f in (form, rev):
            v = f.from_input(w)
            assert v == transform_vector(f.back_map.inverse(), w)
            assert is_efficient(f.matrix(), v).efficient == verdicts[-1]
    assert 10 <= sum(verdicts) <= 50


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_oriented(backend):
    """oriented() is the form itself when block[0, s-1] >= 1 and reversed()
    when it is < 1; its block has [0, s-1] >= 1, and it is its own oriented()."""
    rng = random.Random(59)
    flips = 0
    for _ in range(60):
        n = rng.randint(3, 8)
        A = scrambled_block(n, rng.randint(2, n - 1), rng)
        form = detect_minimal_block(A if backend == "exact" else A.to_float()).form
        flipped = form.block[0, form.s - 1] < 1
        flips += flipped
        oriented = form.oriented()
        assert (oriented == form.reversed()) if flipped else (oriented is form)
        assert oriented.block[0, form.s - 1] >= 1 and oriented.oriented() is oriented
    assert 10 <= flips <= 50


def test_exact_submatrix_slices_held_ratios():
    """An exact submatrix slices the ratios its parent holds, equal to a fresh
    split, so a reversed detected block holds them; a parent that holds none
    passes none on."""
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(3, 8)
        form = detect_minimal_block(scrambled_block(n, rng.randint(2, n - 1), rng)).form
        block = form.reversed().block
        assert "ratios" in block.__dict__
        assert block.ratios == ReciprocalMatrix(block.entries, True).ratios  # split afresh
    plain = ReciprocalMatrix(B3.entries, True)
    assert "ratios" not in plain.submatrix((2, 0)).__dict__


def _wide_entry(rng, kinds=4):
    """An exact entry inside the floats: single digits, a numerator or
    denominator past 2**53, or (the fourth kind) one near either end of the
    float range."""
    kind = rng.randrange(kinds)
    if kind == 0:
        x = F(rng.randint(1, 9), rng.randint(1, 9))
    elif kind == 1:
        x = F(rng.randrange(2**53, 2**90), rng.randrange(1, 2**60))
    elif kind == 2:
        x = F(3 ** rng.randint(34, 200), 2 ** rng.randint(40, 300))
    else:
        x = F(2) ** rng.randint(1000, 1023) * F(rng.randint(1, 2**52), 2**52)
    return x if rng.random() < 0.5 else 1 / x


class TestExactFloatView:
    """An exact matrix's array is p / q over its ratios: float_view of its
    Fractions, bit for bit, and the same InputError for an entry past the floats."""

    @staticmethod
    def view(A):
        return matrix.float_view(A.entries, "entry ({},{})")

    def test_bit_identical(self):
        rng = random.Random(67)
        big = 0
        for _ in range(300):
            n = rng.randint(2, 7)
            rows = [[F(1)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = x = _wide_entry(rng)
                    rows[j][i] = 1 / x
            A = validate_reciprocal(rows)
            assert A.array.tobytes() == self.view(A).tobytes() and not A.array.flags.writeable
            big += max(map(max, A.ratios[1])) >= 2**53
        assert big >= 200

    @pytest.mark.parametrize("x", [F(2) ** 1024, F(10**400, 3), F(1, 10**400), F(3, 2**1080)],
                             ids=["2^1024", "1e400", "1e-400", "subnormal-underflow"])
    def test_past_the_floats(self, x):
        """The first entry in row-major order that leaves the floats is named,
        in float_view's words: (1,2) = x, before its reciprocal at (2,1)."""
        A = validate_reciprocal([[1, 2, 1], [F(1, 2), 1, x], [1, 1 / x, 1]])
        with pytest.raises(InputError) as ref:
            self.view(A)
        with pytest.raises(InputError) as got:
            A.array
        assert str(got.value) == str(ref.value) and str(got.value).startswith("entry (1,2) ")

    def test_detected_block(self):
        """The block exact detection builds holds its ratios only: its view,
        made on first read, is float_view of its Fractions bit for bit."""
        rng = random.Random(71)
        big = 0
        for _ in range(100):
            n = rng.randint(3, 8)
            s = rng.randint(2, n - 1)
            rows = [[F(1)] * s for _ in range(s)]
            for i in range(s):
                for j in range(i + 1, s):
                    rows[i][j] = x = _wide_entry(rng, 3) if rng.random() < 0.5 else rand_frac(rng)
                    rows[j][i] = 1 / x
            A = apply_similarity(block_matrix(validate_reciprocal(rows), n), rand_similarity(n, rng))
            B = detect_minimal_block(A).form.block
            assert "entries" not in B.__dict__ and "array" not in B.__dict__
            assert B.array.tobytes() == self.view(B).tobytes()
            big += max(map(max, B.ratios[0] + B.ratios[1])) >= 2**53
        assert big >= 30


class TestBlockMatrixView:
    """block_matrix(B, n).array is ones with B.array in the leading corner."""

    @staticmethod
    def blocks():
        rng = random.Random(43)
        for s in (2, 3, 5):
            B = rand_reciprocal(s, rng)
            yield B
            yield B.to_float()

    @pytest.mark.parametrize("extra", [0, 1, None], ids=["n=s", "n=s+1", "n=64"])
    def test_bit_identical(self, extra):
        for B in self.blocks():
            A = block_matrix(B, 64 if extra is None else B.n + extra)
            ref = matrix.float_view(A.entries, "entry ({},{})")
            assert A.array.dtype == ref.dtype and A.array.shape == ref.shape
            assert A.array.tobytes() == ref.tobytes()
            assert not A.array.flags.writeable

    def test_equality_hash_repr(self):
        for B in self.blocks():
            A = block_matrix(B, 7)
            plain = ReciprocalMatrix(A.entries, A.exact)
            assert A == plain and hash(A) == hash(plain) and repr(A) == repr(plain)
            assert A != block_matrix(B, 8)

    def test_to_float(self):
        for B in self.blocks():
            A = block_matrix(B, 9)
            assert A.to_float().entries == tuple(tuple(map(float, r)) for r in A.entries)
            assert not A.to_float().exact

    def test_converts_only_the_block(self, monkeypatch):
        """The exact view divides p / q over a matrix's ratios: for A_512(B)
        that runs on B's 4-by-4 ratios once, and no Fraction is converted."""
        B = rand_reciprocal(4, random.Random(47))
        A, seen, ratio_view = block_matrix(B, 512), [], ReciprocalMatrix._ratio_view

        def counting(M):
            seen.append(M.n)
            return ratio_view(M)

        monkeypatch.setattr(ReciprocalMatrix, "_ratio_view", counting)
        monkeypatch.setattr(F, "__float__", lambda x: pytest.fail("a Fraction converted"))
        assert A.array.shape == (512, 512)
        assert seen == [B.n]

    def test_perron_route_builds_no_rows(self):
        """A_n(B) of a detected block, which holds its ratios only, goes through
        perron and the (s+1) verdict without building its rows or B's."""
        rng = random.Random(73)
        for _ in range(40):
            n = rng.randint(3, 8)
            form = detect_minimal_block(scrambled_block(n, rng.randint(2, n - 1), rng)).form
            A = form.matrix()
            perron_efficiency_via_submatrix(form, perron(A))
            assert "entries" not in A.__dict__ and "entries" not in A.block.__dict__

    @staticmethod
    def eager_rows(B, n):
        """The rows of A_n(B) as block_matrix once built them: B's rows with one
        shared tail of 1s, then one shared all-ones row."""
        one = F(1) if B.exact else 1.0
        tail = (one,) * (n - B.n)
        return tuple(B.row(i) + tail for i in range(B.n)) + ((one,) * n,) * (n - B.n)

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_rows_on_first_read_match_eager_rows(self, backend):
        """Every reader of a fresh A_n(B), s = 1..5 and n = s..s+3, sees what it
        sees on the matrix of the eagerly built rows."""
        rng = random.Random(79)
        readers = {
            "entries": lambda M: M.entries, "eq": lambda M: M, "hash": hash, "repr": repr,
            "row": lambda M: [M.row(i) for i in range(M.n)],
            "column": lambda M: [M.column(j) for j in range(M.n)],
            "submatrix": lambda M: M.submatrix(range(M.n - 1, -1, -2)),
            "as_lists": lambda M: M.as_lists(),
        }
        for s in range(1, 6):
            B = B3.submatrix([0]) if s == 1 else rand_reciprocal(s, rng)
            B = B if backend == "exact" else B.to_float()
            for n in range(max(s, 2), s + 4):
                ref = ReciprocalMatrix(self.eager_rows(B, n), B.exact)
                for name, read in readers.items():
                    assert read(block_matrix(B, n)) == read(ref), (s, n, name)


class TestGeometricMean:
    def test_single_column(self):
        assert geometric_mean_vector(CC, [2]) == CC.column(2)

    def test_consistent_multiple_of_column(self):
        A = consistent_matrix((1, 2, 4))
        g = geometric_mean_vector(A, [0, 1, 2])
        ratios = [gi / float(c) for gi, c in zip(g, A.column(0))]
        assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=1e-12)

    def test_all_columns_efficient(self):
        g = geometric_mean_vector(CC, range(4))
        assert is_efficient(CC.to_float(), g).efficient

    def test_empty(self):
        with pytest.raises(InputError, match="need at least one column"):
            geometric_mean_vector(CC, [])


def test_consistency_iff_rank_one_reconstruction(rng):
    for _ in range(30):
        A = rand_reciprocal(4, rng)
        recon = consistent_matrix(A.column(0))
        assert (detect_minimal_block(A).K == (0,)) == (recon.entries == A.entries)
