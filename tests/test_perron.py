import random
import re
from fractions import Fraction as F

import pytest

from effvec import (
    ConstantBlockMatrix,
    ThreeBlockMatrix,
    block_matrix,
    consistent_from_vector,
    constant_block_perron_check,
    is_efficient,
    perron,
    perron_efficiency_via_submatrix,
    perron_tail_structure,
    three_block_sufficient,
    validate_reciprocal,
)
from effvec.errors import InputError, NoConvergence, PreconditionError
from effvec.perron import STALL_ITER
from effvec.fixtures import B3, CC, canonical_form, three_block_from_triple

from conftest import rand_reciprocal


@pytest.mark.parametrize("rows", [
    [[1, 1e-200, 1], [1e200, 1, 1e-200], [1, 1e200, 1]],
    [[1, 1e200, 1e-200], [1e-200, 1, 0.5], [1e200, 2, 1]],
    [[1, 1e100, 1], [1e-100, 1, 1], [1, 1, 1]],
    [[1, 1e300, 1], [1e-300, 1, 1], [1, 1, 1]],
], ids=["1e200-cycle", "1e200-pair", "x=1e100", "x=1e300"])
def test_stalled_iteration_stops_early(rows):
    """Other eigenvalues nearly as large as the Perron root: the residual
    never falls below 1, and perron gives up once it stops improving."""
    with pytest.raises(NoConvergence) as exc:
        perron(validate_reciprocal(rows))
    assert int(re.search(r"in (\d+) steps", str(exc.value))[1]) <= 2 * STALL_ITER


class TestPerron:
    def test_consistent_eigenpair(self):
        A = consistent_from_vector((1, 2, 4, 8))
        r = perron(A)
        assert r.lam == pytest.approx(4.0, abs=1e-10)
        assert r.residual <= 1e-12
        # eigenvector proportional to the defining vector, last entry 1
        assert r.w == pytest.approx((1 / 8, 2 / 8, 4 / 8, 1.0), abs=1e-10)

    def test_lambda_at_least_n(self, rng):
        for _ in range(20):
            A = rand_reciprocal(4, rng)
            r = perron(A)
            assert r.lam >= 4.0 - 1e-10

    def test_residual_small(self):
        r = perron(CC)
        assert r.residual <= 1e-12 and r.w[-1] == 1.0


class TestTailStructure:
    def test_equal_tail(self, rng):
        for _ in range(10):
            form = canonical_form(rand_reciprocal(3, rng), 7)
            r = perron(form.matrix())
            assert perron_tail_structure(form, r).ok and form.n > form.s + 1

    def test_vacuous(self):
        """A tail of one entry, or of none, has no pair to compare."""
        for n in (3, 4):
            form = canonical_form(B3, n)
            assert perron_tail_structure(form, perron(form.matrix())).ok and form.n <= form.s + 1


class TestSubmatrixVerdict:
    def test_agrees_with_full(self, rng):
        for _ in range(20):
            form = canonical_form(rand_reciprocal(3, rng), 7)
            A = form.matrix()
            r = perron(A)
            sub = perron_efficiency_via_submatrix(form, r)
            full = is_efficient(A.to_float(), r.w)
            assert sub.efficient == full.efficient


class TestThreeBlockConditions:
    def test_either_orientation(self):
        """A block with a13 < 1 gives the result of its reversal, which has a13 > 1:
        the reversals of a cond1, cond2, cond3 and unmatched block, and a float one."""
        cases = [((F(1, 3), F(1, 4), F(1, 2)), "cond1"), ((2, F(1, 8), F(1, 2)), "cond2"),
                 ((F(1, 2), F(1, 3), 2), "cond3"), ((F(1, 2), F(2, 17), F(1, 2)), None),
                 ((0.5, 0.25, 3.0), "cond3")]
        for triple, matched in cases:
            B = three_block_from_triple(*triple)
            rev = B.submatrix((2, 1, 0))
            assert B[0, 2] < 1 < rev[0, 2]
            assert three_block_sufficient(B) == three_block_sufficient(rev)
            assert three_block_sufficient(B).a13 == rev[0, 2]
            assert three_block_sufficient(B).matched == matched

    def test_condition_labels(self):
        assert three_block_sufficient(three_block_from_triple(2, 4, 3)).matched == "cond1"
        assert (
            three_block_sufficient(three_block_from_triple(2, 8, F(1, 2))).matched
            == "cond2"
        )
        assert (
            three_block_sufficient(three_block_from_triple(F(1, 2), 8, 2)).matched
            == "cond3"
        )
        assert three_block_sufficient(three_block_from_triple(2, F(17, 2), 2)).matched is None

    @pytest.mark.parametrize("bad", [0, F(-2), 0.0, float("inf"), float("nan")])
    def test_triple_must_be_positive_finite(self, bad):
        for i, name in enumerate(("a12", "a13", "a23")):
            triple = [F(2), F(8), F(2)]
            triple[i] = bad
            with pytest.raises(InputError, match=f"{name} must be positive and finite"):
                three_block_from_triple(*triple)

    def test_matched_implies_efficient(self, rng):
        hits = 0
        while hits < 30:
            a12 = F(rng.randint(1, 9), rng.randint(1, 9))
            a13 = F(rng.randint(1, 9))
            a23 = F(rng.randint(1, 9), rng.randint(1, 9))
            B = three_block_from_triple(a12, a13, a23)
            if three_block_sufficient(B).matched is None:
                continue
            hits += 1
            n = rng.choice([4, 5, 6])
            A = block_matrix(B, n)
            r = perron(A)
            assert is_efficient(A.to_float(), r.w).efficient


class TestConstantBlockPerron:
    def test_always_efficient(self, rng):
        for _ in range(20):
            x = F(rng.randint(1, 9), rng.randint(1, 9))
            s = rng.randint(2, 5)
            n = rng.randint(s + 1, s + 4)
            verdict = constant_block_perron_check(ConstantBlockMatrix(x, s, n))
            assert verdict.efficient

    def test_requires_tail(self):
        with pytest.raises(PreconditionError, match="need n > s"):
            constant_block_perron_check(ConstantBlockMatrix(F(2), 3, 3))
