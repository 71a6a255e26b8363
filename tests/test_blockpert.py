import random
from fractions import Fraction as F
from itertools import islice

import pytest

from effvec import (
    ConstantBlockMatrix,
    ThreeBlockMatrix,
    TwoBlockMatrix,
    constant_block_class_check,
    constant_block_sample,
    is_efficient,
    lcompl_membership,
    lcompl_sample,
    tail_permute,
    three_block_generate,
    three_block_membership,
    three_by_three_is_efficient,
    transform_vector,
    two_block_full_set_check,
    two_block_is_efficient,
    two_block_sample,
    validate_reciprocal,
)
from effvec.errors import DimensionMismatch, InputError, PreconditionError
from effvec.fixtures import B3, canonical_form, three_block_from_triple

from conftest import rand_frac, rand_reciprocal, rand_vector


def assert_head_plus_tail(g, s):
    """The sampler contract: tail_bounds is [min, max] of the seed head, and
    every entry from the block size s onward lies in it."""
    assert g.tail_bounds == (min(g.seed_head), max(g.seed_head))
    lo, hi = g.tail_bounds
    assert all(lo <= v <= hi for v in g.vector[s:])


def reversed_head(w, s):
    """w with its first s entries reversed and the rest kept."""
    return tuple(w[s - 1::-1]) + tuple(w[s:])


class TestTwoBlock:
    def test_matrix_shape(self):
        A = TwoBlockMatrix(F(3), 4).matrix()
        assert A[0, 1] == 3 and A[1, 0] == F(1, 3) and A[2, 3] == 1

    def test_chain_examples(self):
        S = TwoBlockMatrix(F(3), 4)
        assert two_block_is_efficient(S, (3, 1, 2, 2))  # 1 <= 2,2 <= 3 <= 3*1
        assert two_block_is_efficient(S, (3, 1, 1, 3))  # endpoints allowed
        assert not two_block_is_efficient(S, (4, 1, 2, 2))  # w1 > x*w2
        assert not two_block_is_efficient(S, (3, 1, 4, 2))  # w3 above w1

    def test_reversed_chain(self):
        S = TwoBlockMatrix(F(1, 3), 4)
        assert two_block_is_efficient(S, (1, 3, 2, 2))

    def test_chain_matches_digraph(self, rng):
        for _ in range(300):
            S = TwoBlockMatrix(rand_frac(rng), 5)
            w = rand_vector(5, rng)
            assert two_block_is_efficient(S, w) == is_efficient(S.matrix(), w).efficient

    def test_full_set_route_agrees(self, rng):
        for _ in range(100):
            S = TwoBlockMatrix(rand_frac(rng), 5)
            two_block_full_set_check(S, rand_vector(5, rng))

    @pytest.mark.parametrize("x", [F(3), F(1, 3), 0.5])
    def test_sampler_emits_efficient(self, rng, x):
        S = TwoBlockMatrix(x, 6)
        for g in two_block_sample(S, rng, 50):
            assert two_block_is_efficient(S, g.vector)
            assert is_efficient(S.matrix(), g.vector).efficient
            assert_head_plus_tail(g, 2)
        assert list(two_block_sample(S, rng, 0)) == []
        assert list(two_block_sample(S, rng, -3)) == []

    def test_bad_sizes(self):
        with pytest.raises(InputError, match="two-block form needs n >= 3"):
            TwoBlockMatrix(F(2), 2)
        for x in (F(0), -2, float("inf"), float("nan")):
            with pytest.raises(InputError, match="x must be positive and finite"):
                TwoBlockMatrix(x, 4)
        with pytest.raises(DimensionMismatch, match="vector size 3 != 4"):
            two_block_is_efficient(TwoBlockMatrix(F(2), 4), (1, 2, 3))


class TestThreeByThree:
    def test_known_pair(self):
        assert not three_by_three_is_efficient(B3, (3, 2, 1))
        col = tuple(B3.column(0))
        assert three_by_three_is_efficient(B3, col)

    def test_matches_digraph(self, rng):
        for _ in range(300):
            B = rand_reciprocal(3, rng)
            w = rand_vector(3, rng)
            assert three_by_three_is_efficient(B, w) == is_efficient(B, w).efficient


class TestLcompl:
    def test_tail_in_bounds(self, rng):
        form = canonical_form(B3, 6)
        head = tuple(B3.column(0))  # (1, 1/2, 1/3): efficient for B3
        w = head + (F(1, 2), F(1), F(1, 3))
        assert lcompl_membership(form, w)
        assert is_efficient(form.matrix(), w).efficient

    def test_tail_out_of_bounds(self):
        form = canonical_form(B3, 6)
        head = tuple(B3.column(0))
        w = head + (F(1, 2), F(2), F(1, 3))  # 2 > max(head) = 1
        assert not lcompl_membership(form, w)
        assert not is_efficient(form.matrix(), w).efficient

    def test_head_must_be_efficient(self):
        form = canonical_form(B3, 6)
        with pytest.raises(PreconditionError, match=r"w\[0:s\] is not efficient"):
            lcompl_membership(form, (3, 2, 1, 2, 2, 2))

    def test_matches_digraph(self, rng):
        form = canonical_form(B3, 6)
        A = form.matrix()
        checked = 0
        while checked < 100:
            w = rand_vector(6, rng)
            if not is_efficient(B3, w[:3]).efficient:
                continue
            checked += 1
            assert lcompl_membership(form, w) == is_efficient(A, w).efficient

    def test_sampler_emits_efficient(self, rng):
        form = canonical_form(B3, 7)
        A = form.matrix()
        head = tuple(B3.column(1))
        for g in lcompl_sample(form, head, rng, count=50):
            assert g.seed_head == head
            assert is_efficient(A, g.vector).efficient
            assert_head_plus_tail(g, 3)
        assert list(lcompl_sample(form, head, rng, count=0)) == []

    def test_sampler_rejects_bad_head(self, rng):
        form = canonical_form(B3, 6)
        with pytest.raises(PreconditionError, match="head is not efficient"):
            next(lcompl_sample(form, (3, 2, 1), rng))

    def test_sampler_checks_head_when_called(self, rng):
        """The head is checked by the call itself, before any draw."""
        form = canonical_form(B3, 5)
        state = rng.getstate()
        with pytest.raises(PreconditionError, match="head is not efficient"):
            lcompl_sample(form, (3, 2, 1), rng)
        with pytest.raises(DimensionMismatch, match="vector size 2 != 3"):
            lcompl_sample(form, (3, 2), rng, count=0)
        assert rng.getstate() == state


class TestTailPermute:
    def test_preserves_efficiency(self, rng):
        form = canonical_form(B3, 7)
        A = form.matrix()
        head = tuple(B3.column(2))
        for g in lcompl_sample(form, head, rng, count=30):
            perm = list(range(4))
            rng.shuffle(perm)
            v = tail_permute(form, g.vector, perm)
            assert sorted(v[3:]) == sorted(g.vector[3:])
            assert is_efficient(A, v).efficient

    def test_bad_perm(self):
        form = canonical_form(B3, 6)
        with pytest.raises(InputError, match="is not a permutation of the 3 tail positions"):
            tail_permute(form, (1, 1, 1, 1, 1, 1), (0, 0, 1))


class TestThreeBlockUnion:
    def test_witness_indices(self):
        # u efficient only through j = 4 (1-based): witness 3 (0-based)
        A = ThreeBlockMatrix(B3, 6)
        ok, j = three_block_membership(A, (13, 8, 7, 12, 7, 7))
        assert ok and j == 3
        ok, j = three_block_membership(A, (13, 8, 7, 7, 12, 7))
        assert ok and j == 4
        w = (13, 8, 7, 20, 7, 7)  # 20 exceeds every head entry
        assert not is_efficient(A.matrix(), w).efficient
        ok, j = three_block_membership(A, w)
        assert not ok and j is None

    def test_matches_digraph(self, rng):
        for _ in range(200):
            A = ThreeBlockMatrix(rand_reciprocal(3, rng), 6)
            w = rand_vector(6, rng)
            ok, j = three_block_membership(A, w)
            assert ok == is_efficient(A.matrix(), w).efficient
            if ok:
                sub = (w[0], w[1], w[2], w[j])
                assert is_efficient(
                    ThreeBlockMatrix(A.block, 4).matrix(), sub
                ).efficient

    def test_generate_self_certifies(self, rng):
        A = ThreeBlockMatrix(B3, 7)
        M = A.matrix()
        seeds = [(13, 8, 7, 12), (13, 8, 7, 7), (3, 2, 1, 2)]
        out = list(three_block_generate(A, seeds, rng))
        assert len(out) == 2  # (3,2,1,2) seed fails the 4-by-4 test for B3
        for g in out:
            assert is_efficient(M, g.vector).efficient
            assert sorted(g.permutation) == [0, 1, 2, 3]
            assert_head_plus_tail(g, 3)
        assert list(three_block_generate(A, [], rng)) == []  # no seeds, no vectors

    def test_normalize(self, rng):
        """normalize reads a 3-block with a13 >= 1, its indices reversed
        exactly when a13 < 1, and maps vectors by reversing their head."""
        flips = 0
        for _ in range(60):
            A = ThreeBlockMatrix(rand_reciprocal(3, rng), rng.randint(4, 7))
            An, sim = A.normalize()
            assert An.block[0, 2] >= 1 and An.n == A.n
            flipped = A.block[0, 2] < 1
            flips += flipped
            assert An.block == (A.block.submatrix((2, 1, 0)) if flipped else A.block)
            w = rand_vector(A.n, rng)
            assert transform_vector(sim, w) == (reversed_head(w, 3) if flipped else w)
        assert 10 <= flips <= 50


class TestConstantBlock:
    def test_block_entries(self):
        C = ConstantBlockMatrix(F(3), 3, 5)
        B = C.block()
        assert B[0, 1] == B[0, 2] == B[1, 2] == 3
        assert C.matrix()[3, 4] == 1

    def test_class_implies_efficiency(self, rng):
        for _ in range(20):
            x = F(rng.randint(1, 9))
            s = rng.randint(3, 5)
            n = rng.randint(s, s + 3)
            M = ConstantBlockMatrix(x, s, n)
            A = M.matrix()
            for g in constant_block_sample(M, rng, count=20):
                assert constant_block_class_check(M, g.vector)
                assert is_efficient(A, g.vector).efficient
                assert_head_plus_tail(g, s)
            assert list(constant_block_sample(M, rng, count=0)) == []

    def test_class_membership_examples(self):
        M = ConstantBlockMatrix(F(2), 3, 5)
        # w3 <= w1/x <= w2 <= x*w3 with w1 = 4: w3 <= 2 <= w2 <= 2*w3
        assert constant_block_class_check(M, (4, 2, 2, 3, 2))
        assert not constant_block_class_check(M, (4, 5, 2, 3, 2))  # w2 > x*w3
        assert not constant_block_class_check(M, (4, 2, 2, 5, 2))  # tail high

    def test_reversed_orientation(self, rng):
        M = ConstantBlockMatrix(F(1, 2), 3, 5)
        A = M.matrix()
        for g in constant_block_sample(M, rng, count=20):
            assert constant_block_class_check(M, g.vector)
            assert is_efficient(A, g.vector).efficient
            assert_head_plus_tail(g, 3)
        assert list(constant_block_sample(M, rng, count=0)) == []

    def test_sampler_checks_s_when_called(self, rng):
        """s >= 3 is checked by the call itself, before any draw."""
        state = rng.getstate()
        for count in (None, 0, 1):
            with pytest.raises(InputError, match="class sampler needs block size s >= 3"):
                constant_block_sample(ConstantBlockMatrix(2, 2, 4), rng, count)
        assert rng.getstate() == state

    def test_bad_parameters(self):
        with pytest.raises(InputError, match="constant block needs s >= 2"):
            ConstantBlockMatrix(F(2), 1, 4)
        with pytest.raises(InputError, match="need n >= s"):
            ConstantBlockMatrix(F(2), 4, 3)
        for x in (F(0), -2, float("inf"), float("nan")):
            with pytest.raises(InputError, match="x must be positive and finite"):
                ConstantBlockMatrix(x, 3, 4)

    def test_s2_head_is_column_multiple(self):
        M = ConstantBlockMatrix(F(3), 2, 4)
        assert constant_block_class_check(M, (3, 1, 2, 2))
        assert not constant_block_class_check(M, (3, 2, 2, 2))

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_orientation_is_head_reversal(self, backend):
        """C_s(x) is C_s(1/x) with the block's indices reversed, so the class
        check on C_s(x) equals the check on C_s(1/x) with the head reversed and
        the tail kept; both sides of x = 1, sampled members and random vectors.
        A float x is drawn so that 1/(1/x) == x: only then are both families
        held exactly."""
        rng = random.Random(61)
        verdicts = []
        while len(verdicts) < 1500:
            s = rng.randint(2, 6)
            n = rng.randint(s, s + 3)
            if backend == "exact":
                x = rand_frac(rng)
                vectors = [rand_vector(n, rng) for _ in range(4)]
            else:
                x = 9.0 ** rng.uniform(-1, 1)
                if 1 / (1 / x) != x:
                    continue
                vectors = [tuple(rng.uniform(0.1, 10) for _ in range(n)) for _ in range(4)]
            M, R = ConstantBlockMatrix(x, s, n), ConstantBlockMatrix(1 / x, s, n)
            if s == 2:  # efficient heads are the column multiples (x*c, c)
                c = vectors[0][1]
                vectors.append((x * c, c) + (c,) * (n - 2))
            else:
                vectors += [g.vector for g in constant_block_sample(M, rng, 4)]
            for w in vectors:
                verdicts.append(constant_block_class_check(M, w))
                assert verdicts[-1] == constant_block_class_check(R, reversed_head(w, s))
        assert 300 <= sum(verdicts) <= 1200


#: float library streams, seed 0, three vectors each: the float counterpart
#: of test_io_cli.GENERATE_PINNED, which pins exact streams through the CLI
FLOAT_STREAMS_PINNED = {
    "2block": [
        (2.1368542180895718, 1.0, 1.2944054150064679,
         1.460372697414333, 1.3448670729944758, 1.6632013736674955),
        (1.7570288776693401, 1.0, 1.5721268781769968,
         1.1896783092315377, 1.7439238894050968, 1.6829047866851512),
        (2.094678672865715, 1.0, 1.7487023421933854,
         1.1103228855785787, 1.6687006642394286, 2.0580212190469593),
    ],
    "constant": [
        (0.24335907593251782, 0.3418966748943315, 0.5177621660025872,
         1.0, 0.47288766160244294, 0.6847571832974682, 0.6252250956295169),
        (0.3954394353751267, 0.3413807303959342, 0.5136151845838481,
         1.0, 0.9355116348872023, 0.8220317090452444, 0.7918414929824278),
        (0.3890723693125594, 0.1841874562784205, 0.43693816386616047,
         1.0, 0.8900585446770539, 0.8408894864950777, 0.1957221415827509),
    ],
    "lcompl": [
        (1.0, 0.5, 0.3333333333333333,
         0.8386018747064763, 0.5059766446286031, 0.6033021004152828),
        (1.0, 0.5, 0.3333333333333333,
         0.5355680423558078, 0.7222435753647601, 0.6697906122974846),
        (1.0, 0.5, 0.3333333333333333,
         0.8371686955442617, 0.5003708267294453, 0.9884592792949638),
    ],
    "3block": [
        (1.0, 0.5714285714285714, 0.3333333333333333, 1.0, 0.8, 0.4444318641043443),
        (4.0, 1.3333333333333333, 0.5, 1.1428571428571428, 3.3942241732155107, 4.0),
        (1.3333333333333333, 1.0, 1.0, 1.0, 1.1180290163471922, 1.0465350642037918),
    ],
}


def float_streams():
    B = validate_reciprocal(B3.array.tolist())
    rng = random.Random(0)
    seeds = iter(lambda: tuple(rng.randint(1, 9) / rng.randint(1, 9) for _ in range(4)), None)
    tbm = ThreeBlockMatrix(three_block_from_triple(2.0, 8.0, 2.0), 6)
    return {
        "2block": two_block_sample(TwoBlockMatrix(2.5, 6), random.Random(0), 3),
        "constant": constant_block_sample(ConstantBlockMatrix(0.4, 4, 7), random.Random(0), 3),
        "lcompl": lcompl_sample(canonical_form(B, 6), B.column(0), random.Random(0), 3),
        "3block": islice(three_block_generate(tbm, seeds, rng), 3),
    }


@pytest.mark.parametrize("name", FLOAT_STREAMS_PINNED)
def test_float_stream_pinned(name):
    got = [g.vector for g in float_streams()[name]]
    assert got == FLOAT_STREAMS_PINNED[name]
    assert all(type(v) is float for w in got for v in w)
