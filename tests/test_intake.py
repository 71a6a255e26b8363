"""Every public function that takes a weight vector checks it through
matrix.check_positive_vector, on both backends: a wrong length is a
DimensionMismatch worded "vector size a != b", and an entry that is not
positive and finite is an InputError.  Values beyond the floats are
InputErrors too, never a bare OverflowError.  Index arguments go through
matrix.check_index, sizes and counts through matrix.check_integer.  A bool,
Python's or numpy's, is no number to any of them."""

import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest

from effvec import (
    ConstantBlockMatrix,
    GridSpec,
    MonomialSimilarity,
    ThreeBlockMatrix,
    TwoBlockMatrix,
    block_matrix,
    build_digraph,
    canonical_form,
    constant_block_class_check,
    constant_block_sample,
    construct_dominating_vector,
    dominance_compare,
    equal_tail_reduce,
    extension_interval,
    geometric_mean_vector,
    grid_dominator_search,
    is_block_perturbation,
    is_efficient,
    lcompl_membership,
    lcompl_sample,
    subvector_efficiency_profile,
    tail_permute,
    three_block_generate,
    three_block_membership,
    three_block_sufficient,
    three_by_three_is_efficient,
    transform_vector,
    two_block_is_efficient,
    two_block_sample,
    union_route_member,
    validate_reciprocal,
)
from effvec import matrix
from effvec.errors import DimensionMismatch, InputError
from effvec.fixtures import B3, CC, three_block_from_triple


def backend(exact):
    """(A, x, B) on one backend: the 4-by-4 CC, a 2-block parameter and the
    3-by-3 leading block of CC."""
    if exact:
        return CC, F(2), B3
    return validate_reciprocal(CC.array.tolist()), 2.0, validate_reciprocal(B3.array.tolist())


def rng():
    return random.Random(0)


# name -> (size the function needs, call(w)) for a backend
def calls(exact):
    A, x, B = backend(exact)
    form = canonical_form(B, 5)
    tbm = ThreeBlockMatrix(B, 5)
    ones = (1,) * A.n
    return {
        "build_digraph": (4, lambda w: build_digraph(A, w)),
        "is_efficient": (4, lambda w: is_efficient(A, w)),
        "construct_dominating_vector": (4, lambda w: construct_dominating_vector(A, w, [0])),
        "dominance_compare-w": (4, lambda w: dominance_compare(A, w, ones)),
        "dominance_compare-v": (4, lambda w: dominance_compare(A, ones, w)),
        "extension_interval": (3, lambda w: extension_interval(A, w, 3)),
        "subvector_efficiency_profile": (4, lambda w: subvector_efficiency_profile(A, w)),
        "equal_tail_reduce": (5, lambda w: equal_tail_reduce(form, w)),
        "transform_vector": (4, lambda w: transform_vector(
            MonomialSimilarity.scaling((x,) * 4), w)),
        "two_block_is_efficient": (4, lambda w: two_block_is_efficient(TwoBlockMatrix(x, 4), w)),
        "three_by_three_is_efficient": (3, lambda w: three_by_three_is_efficient(B, w)),
        "lcompl_membership": (5, lambda w: lcompl_membership(form, w)),
        "three_block_membership": (5, lambda w: three_block_membership(tbm, w)),
        "union_route_member": (5, lambda w: union_route_member(tbm, w, 3)),
        "constant_block_class_check-s2": (4, lambda w: constant_block_class_check(
            ConstantBlockMatrix(x, 2, 4), w)),
        "constant_block_class_check-s3": (4, lambda w: constant_block_class_check(
            ConstantBlockMatrix(x, 3, 4), w)),
        "tail_permute": (5, lambda w: tail_permute(form, w, (1, 0))),
        "lcompl_sample-head": (3, lambda w: lcompl_sample(form, w, rng())),
        "three_block_generate-seed": (4, lambda w: next(three_block_generate(tbm, [w], rng()))),
        "grid_dominator_search-w": (4, lambda w: grid_dominator_search(A, w, GridSpec(ones))),
        "grid_dominator_search-base": (4, lambda w: grid_dominator_search(A, ones, GridSpec(w))),
    }


NAMES = list(calls(True))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("name", NAMES)
class TestWeightVectorIntake:
    def test_wrong_length(self, name, exact):
        n, call = calls(exact)[name]
        one = 1 if exact else 1.0
        for size in (n - 1, n + 1):
            with pytest.raises(DimensionMismatch, match=rf"^vector size {size} != {n}$"):
                call((one,) * size)

    @pytest.mark.parametrize("bad", [0, -1, float("inf")], ids=["zero", "negative", "inf"])
    def test_bad_entry(self, name, exact, bad):
        n, call = calls(exact)[name]
        w = (1 if exact else 1.0,) * n
        for k in (0, n - 1):
            with pytest.raises(InputError, match="is not positive and finite"):
                call(w[:k] + (bad,) + w[k + 1:])

    @pytest.mark.parametrize("bad", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_bool_entry(self, name, exact, bad):
        """A bool entry is no number, though int and float would read True as 1."""
        n, call = calls(exact)[name]
        w = (1 if exact else 1.0,) * n
        message = rf"^vector entry {re.escape(repr(bad))} is not a number$"
        for k in (0, n - 1):
            with pytest.raises(InputError, match=message):
                call(w[:k] + (bad,) + w[k + 1:])


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("w, efficient", [((3, 2, 1, 2), True), ((1, 1, 1, 8), False)],
                         ids=["efficient", "inefficient"])
def test_one_check_per_verdict(monkeypatch, exact, w, efficient):
    """is_efficient checks w once and hands the result to the digraph and
    dominator kernels."""
    check, seen = matrix.check_positive_vector, []

    def counting(w, n):
        seen.append(n)
        return check(w, n)

    monkeypatch.setattr(matrix, "check_positive_vector", counting)
    A = backend(exact)[0]
    assert is_efficient(A, w if exact else tuple(map(float, w))).efficient == efficient
    assert seen == [4]


@pytest.mark.parametrize("x, kept", [(3, F(3)), (F(1, 3), F(1, 3)), (2.5, 2.5)])
def test_family_parameter_intake(x, kept):
    """Family parameters are stored as check_positive_scalar returns them."""
    for M in (TwoBlockMatrix(x, 4), ConstantBlockMatrix(x, 3, 4)):
        assert M.x == kept and type(M.x) is type(kept)


@pytest.mark.parametrize("x", [5e-324, 1e-310])
def test_family_parameter_reciprocal_finite(x):
    """A float parameter whose reciprocal overflows is rejected by name."""
    for make in (lambda: TwoBlockMatrix(x, 4), lambda: ConstantBlockMatrix(x, 3, 4)):
        with pytest.raises(InputError, match=f"^x must have a finite reciprocal, got {x}$"):
            make()


class TestIntegerIntake:
    """A size or a count is an integer by check_index's rule (numpy's too, a
    float such as 5.0 not); anything else is an InputError that names it.
    Before, each raised a bare TypeError, or (GridSpec's m) built a grid that
    raised one later."""

    CALLS = {
        "ConstantBlockMatrix-s": ("s", lambda k: ConstantBlockMatrix(2, k, 5)),
        "ConstantBlockMatrix-n": ("n", lambda k: ConstantBlockMatrix(2, 3, k)),
        "TwoBlockMatrix": ("n", lambda k: TwoBlockMatrix(2, k)),
        "ThreeBlockMatrix": ("n", lambda k: ThreeBlockMatrix(B3, k)),
        "block_matrix": ("n", lambda k: block_matrix(B3, k)),
        "canonical_form": ("n", lambda k: canonical_form(B3, k)),
        "GridSpec": ("m", lambda k: GridSpec((3, 2, 1), m=k)),
        "two_block_sample": ("count", lambda k: list(two_block_sample(
            TwoBlockMatrix(2, 5), rng(), k))),
        "lcompl_sample": ("count", lambda k: list(lcompl_sample(
            canonical_form(B3, 5), B3.column(0), rng(), k))),
        "constant_block_sample": ("count", lambda k: list(constant_block_sample(
            ConstantBlockMatrix(2, 3, 5), rng(), k))),
    }

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("bad", [5.0, 4.5, "5", F(5), True, np.True_])
    def test_not_an_integer(self, name, bad):
        arg, call = self.CALLS[name]
        with pytest.raises(InputError, match=rf"^{arg} = {re.escape(repr(bad))} is not an integer$"):
            call(bad)

    @pytest.mark.parametrize("name", CALLS)
    def test_numpy_integer(self, name):
        assert self.CALLS[name][1](np.int64(5)) == self.CALLS[name][1](5)

    def test_sizes_are_ints(self):
        M = ConstantBlockMatrix(2, np.int64(3), np.int64(5))
        assert type(M.s) is int and type(M.n) is int
        assert type(block_matrix(B3, np.int64(5)).n) is int

    def test_count_checked_when_called(self):
        """A sampler that is a plain function checks its count at the call;
        None is still unbounded."""
        with pytest.raises(InputError, match="^count = 2.0 is not an integer$"):
            lcompl_sample(canonical_form(B3, 5), B3.column(0), rng(), 2.0)
        stream = constant_block_sample(ConstantBlockMatrix(2, 3, 5), rng(), None)
        assert len([next(stream) for _ in range(50)]) == 50


@pytest.mark.parametrize("bad", [True, np.True_], ids=["bool", "numpy-bool"])
@pytest.mark.parametrize("call, message", [
    (lambda b: TwoBlockMatrix(b, 4), "x must be a number, got {}"),
    (lambda b: three_block_from_triple(2, 3, b), "a23 must be a number, got {}"),
    (lambda b: MonomialSimilarity((2, b), (0, 1)), "diagonal entry {} is not a number"),
    (lambda b: MonomialSimilarity((1, 2), (b, 0)), r"\(.*\) is not a permutation of the 2 indices"),
    (lambda b: tail_permute(canonical_form(B3, 5), (1,) * 5, [0, b]),
     r"\[0, .*\] is not a permutation of the 2 tail positions"),
], ids=["scalar", "block-entry", "similarity-diagonal", "similarity-perm", "tail-perm"])
def test_bool_is_not_a_number(call, message, bad):
    """A bool parameter is an InputError, as a bool cell is to parse_scalar,
    though int and float would read True as 1."""
    with pytest.raises(InputError, match="^" + message.format(re.escape(repr(bad))) + "$"):
        call(bad)


@pytest.mark.parametrize("grid, cell", [
    ([[True, 2], [0.5, 1]], "(0,0) = True"),
    ([[True, True], [True, True]], "(0,0) = True"),
    ([[1, 2.0, 1], [0.5, 1, 1], [1, np.True_, 1]], "(2,1) = np.True_"),
    (np.array([[True, True], [True, True]]), "(0,0) = np.True_"),
    (np.array([[1, 2.0], [0.5, True]], dtype=object), "(1,1) = True"),
], ids=["list", "all-bool-list", "numpy-bool-cell", "bool-array", "object-array"])
def test_validate_rejects_bool_cells(grid, cell):
    """A bool cell of a grid bound for the float backend is no entry 1.0."""
    with pytest.raises(InputError, match="^" + re.escape(f"entry {cell} is not a number") + "$"):
        validate_reciprocal(grid)


def test_validate_float_grids_without_bools():
    """An exact grid with int cells, a float64 array and a mixed list grid
    are read as before."""
    assert validate_reciprocal([[1, 2], [F(1, 2), 1]]).exact
    for grid in (np.array([[1.0, 2.0], [0.5, 1.0]]), [[1, 2.0], [F(1, 2), 1]]):
        assert validate_reciprocal(grid).entries == ((1.0, 2.0), (0.5, 1.0))


class TestDominatorInput:
    @pytest.mark.parametrize("w", [(-3, 2, 1, 2), (0, 2, 1, 2)])
    def test_non_positive_exact_weight(self, w):
        with pytest.raises(InputError, match="is not positive and finite"):
            construct_dominating_vector(CC, w, [0])


BIG = 10 ** 400  # an exact value beyond the floats


class TestBeyondFloats:
    def test_geometric_mean(self):
        A = validate_reciprocal([[1, BIG, 1], [F(1, BIG), 1, 1], [1, 1, 1]])
        with pytest.raises(InputError, match=r"entry \(0,1\) too large for a float"):
            geometric_mean_vector(A, [0, 1])

    def test_geometric_mean_arithmetic(self):
        expected = tuple(math.exp((math.log(float(CC[i, 0])) + math.log(float(CC[i, 2]))) / 2)
                         for i in range(4))
        assert geometric_mean_vector(CC, [0, 2]) == expected

    @pytest.mark.parametrize("entry, message", [(BIG, "too large for a float"),
                                                (F(1, BIG), "rounds to 0.0")],
                             ids=["overflow", "underflow"])
    def test_block_matrix(self, entry, message):
        """An exact A_n(B) with an entry beyond the floats builds and gets an
        exact verdict; its float view raises as the entry-wise conversion does."""
        B = validate_reciprocal([[1, entry, 1], [1 / F(entry), 1, 1], [1, 1, 1]])
        A = block_matrix(B, 6)
        assert A.exact and is_efficient(A, A.column(0)).efficient
        assert not is_efficient(A, (1, 1, 1, 1, 1, 2)).efficient
        with pytest.raises(InputError) as expected:
            matrix.float_view(A.entries, "entry ({},{})")
        with pytest.raises(InputError, match=rf"^entry \(0,1\) {message}") as raised:
            A.array
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("x, w", [(BIG, (1.0, 2.0, 1.5)), (2.0, (BIG, 2, 1)),
                                      (2.0, (F(1, BIG), 2, 1))],
                             ids=["x", "vector-overflow", "vector-underflow"])
    def test_constant_block_two_by_two(self, x, w):
        """The s = 2 class reads the digraph of C_2(x): a float x or head takes
        the float backend, where an exact x beyond the floats fails in the
        block's float view and an exact head entry in the vector's."""
        with pytest.raises(InputError, match="for a float|rounds to 0.0"):
            constant_block_class_check(ConstantBlockMatrix(x, 2, 3), w)

    def test_closed_forms_on_a_float_block(self):
        """The 3-by-3 cycles and the constant class read an exact vector on a
        float block in floats, as build_digraph does."""
        B = validate_reciprocal(B3.array.tolist())
        with pytest.raises(InputError, match=r"vector entry \(0\) too large for a float"):
            three_by_three_is_efficient(B, (BIG, 2, 1))
        with pytest.raises(InputError, match=r"vector entry \(0\) too large for a float"):
            constant_block_class_check(ConstantBlockMatrix(2.0, 3, 4), (BIG, 2, 1, 1))


class TestBlockShape:
    def test_one_role(self):
        B2 = validate_reciprocal([[1, 2], [F(1, 2), 1]])
        with pytest.raises(InputError, match="3-by-3"):
            ThreeBlockMatrix(B2, 5)
        with pytest.raises(InputError, match="3-by-3"):
            three_by_three_is_efficient(B2, (1, 1, 1))
        with pytest.raises(InputError, match="3-by-3"):
            three_block_sufficient(B2)


class TestIndexIntake:
    """An index argument is an integer, numpy's too, in range; anything else
    is an InputError that names it."""

    CALLS = {
        "K index": lambda i: is_block_perturbation(CC, [i]),
        "column": lambda i: geometric_mean_vector(CC, [i, 1]),
        "k": lambda i: extension_interval(CC, B3.column(0), i),
    }

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("i", [1.5, 0.5, -1, 4, 7, "1", True, np.True_])
    def test_bad_index(self, name, i):
        with pytest.raises(InputError,
                           match=rf"^{name} = {re.escape(repr(i))} is not an integer in \[0, 4\)$"):
            self.CALLS[name](i)

    def test_numpy_index(self):
        K = [np.int64(0), np.int64(1), np.int64(2)]
        assert is_block_perturbation(CC, K) == is_block_perturbation(CC, [0, 1, 2])
        assert geometric_mean_vector(CC, [np.int64(2)]) == CC.column(2)
        assert extension_interval(CC, B3.column(0), np.int64(3)) == \
            extension_interval(CC, B3.column(0), 3)
