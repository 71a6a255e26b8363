import importlib
import math
import random
import re
import time
from fractions import Fraction as F

import numpy as np
import pytest

from effvec import (
    TOL_PERRON,
    ConstantBlockMatrix,
    PerronResult,
    ReciprocalMatrix,
    ThreeBlockMatrix,
    block_matrix,
    canonical_form,
    constant_block_perron_check,
    is_efficient,
    perron,
    perron_efficiency_via_submatrix,
    perron_tail_structure,
    three_block_sufficient,
    validate_reciprocal,
)
from effvec.errors import DimensionMismatch, InputError, NoConvergence, PreconditionError
from effvec.io import parse_matrix_text
from effvec.matrix import float_view
from effvec.perron import MAX_QUOTIENT, STALL_ITER
from effvec.fixtures import B3, CC, three_block_from_triple

from conftest import consistent_matrix, rand_reciprocal


@pytest.mark.parametrize("rows", [
    [[1, 1e-200, 1], [1e200, 1, 1e-200], [1, 1e200, 1]],
    [[1, 1e200, 1e-200], [1e-200, 1, 0.5], [1e200, 2, 1]],
    [[1, 1e100, 1], [1e-100, 1, 1], [1, 1, 1]],
    [[1, 1e300, 1], [1e-300, 1, 1], [1, 1, 1]],
    [[1, 1e20, 1, 1, 1], [1e-20, 1, 1, 1, 1]] + [[1] * 5] * 3,
], ids=["1e200-cycle", "1e200-pair", "x=1e100", "x=1e300", "x=1e20-n5"])
def test_stalled_iteration_stops_early(rows):
    """Other eigenvalues nearly as large as the Perron root: the residual
    stays near 1, and perron gives up once it stops improving or, as at
    x = 1e20 where it falls by about 1e-12 a step, once the last STALL_ITER
    steps' rate could not reach TOL_PERRON within MAX_ITER."""
    with pytest.raises(NoConvergence) as exc:
        perron(validate_reciprocal(rows))
    assert int(re.search(r"in (\d+) steps", str(exc.value))[1]) <= 2 * STALL_ITER


OVERFLOWING_BLOCK = [[1, 1e300, 1e-300], [1e-300, 1, 1e300], [1e300, 1e-300, 1]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("read", [True, False], ids=["from-text", "block_matrix"])
def test_iterate_past_the_floats_stops_at_once(read):
    """On this A_4(B) the quotient's R q overflows, and read from a file it
    records no block: power iteration runs, and its iterate overflows at
    step 2.  perron stops there, warning nothing."""
    if read:
        A = parse_matrix_text("1,1e300,1e-300,1\n1e-300,1,1e300,1\n1e300,1e-300,1,1\n1,1,1,1\n")
        assert A.block is None
    else:
        A = block_matrix(validate_reciprocal(OVERFLOWING_BLOCK), 4)
    with pytest.raises(NoConvergence, match=r"^power iteration left the floats in \d+ steps$") as exc:
        perron(A)
    assert int(re.search(r"in (\d+) steps", str(exc.value))[1]) <= 3


def full_residual(A, r):
    """The relative residual of (A, w) from the n-by-n array, as power iteration reads it."""
    w = np.array(r.w)
    return float(np.max(np.abs(A.array @ w - r.lam * w) / (r.lam * w)))


def lognormal_block(s, sigma, rng):
    rows = [[1.0] * s for _ in range(s)]
    for i in range(s):
        for j in range(i + 1, s):
            rows[i][j] = x = math.exp(rng.gauss(0.0, sigma))
            rows[j][i] = 1 / x
    return validate_reciprocal(rows)


class TestQuotientRoute:
    """perron on an A_n(B) that records B solves the (s+1)-by-(s+1) quotient."""

    def test_agrees_with_power_iteration(self):
        """300 float blocks: the same entries without a recorded block go through
        power iteration; the pairs agree and so do both verdicts."""
        rng = random.Random(22)
        for _ in range(300):
            s = rng.randint(2, 6)
            n = rng.choice((s + 1, s + 2, 64, 300))
            B = lognormal_block(s, rng.choice((0.3, 1.2, 3.0)), rng)
            A = block_matrix(B, n)
            r, p = perron(A), perron(ReciprocalMatrix(A.entries, False))
            assert r.iterations == 0 < p.iterations
            assert r.lam == pytest.approx(p.lam, rel=1e-9)
            assert r.w == pytest.approx(p.w, rel=1e-9)
            assert full_residual(A, r) < TOL_PERRON
            assert is_efficient(A, r.w).efficient == is_efficient(A, p.w).efficient
            form = canonical_form(B, n)
            assert (perron_efficiency_via_submatrix(form, r).efficient
                    == perron_efficiency_via_submatrix(form, p).efficient)

    def test_never_builds_the_full_array(self):
        A = block_matrix(B3, 300)
        r = perron(A)
        assert "array" not in A.__dict__ and r.iterations == 0
        assert set(r.w[3:]) == {1.0}

    @pytest.mark.parametrize("x", [1e20, 1e100])
    @pytest.mark.parametrize("n", [5, 64])
    def test_stalled_blocks_answer(self, x, n):
        """Power iteration stalls on these entries (see
        test_stalled_iteration_stops_early); their quotient does not."""
        A = block_matrix(validate_reciprocal([[1, x, 1], [1 / x, 1, 1], [1, 1, 1]]), n)
        r = perron(A)
        assert r.iterations == 0 and r.residual < TOL_PERRON
        assert full_residual(A, r) < TOL_PERRON

    def test_power_iteration_otherwise(self):
        """No tail (n == s) and a quotient larger than MAX_QUOTIENT iterate."""
        rng = random.Random(3)
        big = lognormal_block(MAX_QUOTIENT, 0.3, rng)
        for A in (block_matrix(B3, 3), block_matrix(big, MAX_QUOTIENT + 2)):
            r = perron(A)
            assert r.iterations > 0 and r.residual < TOL_PERRON
        assert perron(block_matrix(lognormal_block(MAX_QUOTIENT - 1, 0.3, rng),
                                   MAX_QUOTIENT + 2)).iterations == 0

    #: a 5-block whose quotient at n = 7 has a second real, positive eigenvalue
    #: (about 2.6): its eigenpair has a residual near 0 and a vector of mixed signs
    SECOND_REAL = ((151.726, 3.69, 0.012, 1.485), (12.447, 0.01, 0.071), (26.62, 1.241),
                   (2.927,))

    @pytest.mark.parametrize("eig", ["raises", "negative_value", "second_pair", "inaccurate",
                                     "nan_value", "underflow"])
    def test_rejected_eig_falls_back(self, monkeypatch, eig):
        """An eig that fails, or whose pair is not positive or misses
        TOL_PERRON, leaves the answer to power iteration.  The residual
        alone would accept the first two pairs: with lam < 0 or some q_i < 0
        a term of its maximum is negative.  A NaN among the values, and a
        root so small that lam * q_i underflows to 0, are rejected without
        an error."""
        true_eig = np.linalg.eig

        def bad_eig(R):
            if eig == "raises":
                raise np.linalg.LinAlgError("no convergence")
            values, vectors = true_eig(R)
            if eig == "negative_value":  # the Perron vector, still first, with -lam
                return values - 2 * values.real.max(), vectors
            if eig == "second_pair":  # the Perron root demoted below the rest
                values = values.copy()
                values[np.argmax(values.real)] = values.real.min() - 1
                return values, vectors
            if eig == "nan_value":
                values = values.copy()
                values[-1] = np.nan
                return values, vectors
            if eig == "underflow":  # lam the least subnormal, the rest -1; q_0 = 1/4
                k = np.argmax(values.real)
                values, vectors = np.full_like(values, -1), vectors.copy()
                values[k] = 5e-324
                vectors[0, k] = vectors[-1, k] / 4
                return values, vectors
            return values * (1 + 1e-9), vectors

        if eig == "second_pair":
            rows = [[1.0] * 5 for _ in range(5)]
            for i, upper in enumerate(self.SECOND_REAL):
                for j, x in enumerate(upper, i + 1):
                    rows[i][j], rows[j][i] = x, 1 / x
            A = block_matrix(validate_reciprocal(rows), 7)
        else:
            A = block_matrix(B3, 64)
        want = perron(ReciprocalMatrix(A.entries, False))
        monkeypatch.setattr(np.linalg, "eig", bad_eig)
        assert perron(A) == want


def numpy_quotient_pair(b, m):
    """The quotient route with its pick, checks and residual on numpy arrays,
    as it read before they moved to Python floats: the reference for it."""
    s = len(b)
    R = np.empty((s + 1, s + 1))
    R[:s, :s] = b
    R[:s, s] = R[s, s] = m
    R[s, :s] = 1.0
    try:
        values, vectors = np.linalg.eig(R)
    except np.linalg.LinAlgError:
        return None
    k = int(np.argmax(values.real))
    lam = float(values[k].real)
    q = (vectors[:, k] / vectors[s, k]).real
    if not (lam > 0 and np.isfinite(lam) and np.isfinite(q).all() and (q > 0).all()):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.max(np.abs(R @ q - lam * q) / (lam * q)))
    if not residual < TOL_PERRON:
        return None
    return PerronResult(lam, tuple(q[:s].tolist()) + (1.0,) * m, residual, 0)


def exact_copy(B):
    """The exact block whose entries above the diagonal are B's, as Fractions."""
    return validate_reciprocal([[F(x) if i <= j else 1 / F(B[j, i]) for j, x in enumerate(r)]
                                for i, r in enumerate(B.entries)])


def parity_blocks():
    """2100 seeded (block, m): for m = 1, 2, 60, 250 in turn 490 blocks, and
    140 for m = 10^6, whose n-entry vectors cost the most; s = 2..8, log-normal
    sigma 0.3, 1.2, 3, every other block exact.  Then C_s(x) exact and float,
    x above and below 1, as built and on its oriented() form, which the Perron
    check reads."""
    rng = random.Random(34)
    for m, count in ((1, 490), (2, 490), (60, 490), (250, 490), (10**6, 140)):
        for k in range(count):
            B = lognormal_block(2 + k % 7, (0.3, 1.2, 3.0)[k // 7 % 3], rng)
            yield (exact_copy(B) if k % 2 else B), m
    for x in (F(7, 2), F(2, 7), 3.5, 2 / 7, F(10**9, 3), F(3, 10**9)):
        for s in range(2, 9):
            C = ConstantBlockMatrix(x, s, s + 1)
            yield C.block, s + 3
            yield C.oriented().block, s + 3
    # blocks whose pair is rejected: R q past the floats, and entries near them
    for rows in (OVERFLOWING_BLOCK, [[1, 1e300, 1e300], [1e-300, 1, 1e300], [1e-300, 1e-300, 1]]):
        for m in (1, 60):
            yield validate_reciprocal(rows), m


class TestQuotientParity:
    """The quotient route and the (s+1) verdict give what the numpy route gave."""

    def test_pairs_and_verdicts_match(self):
        quotient_pair = importlib.import_module("effvec.perron")._quotient_pair
        residual_gap = 0.0
        for B, m in parity_blocks():
            assert B.array.tobytes() == float_view(B.entries, "entry ({},{})").tobytes()
            want = numpy_quotient_pair(float_view(B.entries, "entry ({},{})"), m)
            got = quotient_pair(B.array, m)
            assert (got is None) == (want is None)
            if want is None:
                continue
            # both tails are (1.0,) * m
            assert got.lam == want.lam and got.w[:B.n + 1] == want.w[:B.n + 1]
            assert len(got.w) == len(want.w) == B.n + m
            if got.residual != want.residual:
                residual_gap = max(residual_gap, abs(got.residual / want.residual - 1))
            form, s = canonical_form(B, B.n + m), B.n
            verdict = perron_efficiency_via_submatrix(form, got)
            full = is_efficient(block_matrix(B, s + 1), got.w[:s + 1])
            adj = full.digraph.adj
            assert verdict.components == full.components
            assert verdict.digraph.score == tuple((adj.sum(axis=1) - adj.sum(axis=0)).tolist())
            assert all(verdict.digraph.has_edge(i, j) == adj[i, j]
                       for i in range(s + 1) for j in range(s + 1))
            assert verdict.dominator == full.dominator
        assert residual_gap == 0.0

    def test_order_63_is_not_slower(self):
        """At s + 1 = 63 the scalar residual of the quotient route costs no more
        than the numpy one: median of 30 interleaved calls within 15 %."""
        quotient_pair = importlib.import_module("effvec.perron")._quotient_pair
        b = lognormal_block(62, 1.2, random.Random(63)).array
        assert quotient_pair(b, 60) == numpy_quotient_pair(b, 60)
        times = {quotient_pair: [], numpy_quotient_pair: []}
        for _ in range(30):
            for f in times:
                start = time.perf_counter()
                f(b, 60)
                times[f].append(time.perf_counter() - start)
        got, want = (sorted(times[f])[15] for f in times)
        assert got <= 1.15 * want


class TestPerron:
    def test_consistent_eigenpair(self):
        A = consistent_matrix((1, 2, 4, 8))
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

    def test_vector_holds_python_floats(self):
        """As every other vector the library returns: no numpy scalars."""
        for A in (CC, CC.to_float(), block_matrix(B3, 6), block_matrix(B3.to_float(), 4),
                  ConstantBlockMatrix(F(3), 4, 9).matrix()):
            assert all(type(x) is float for x in perron(A).w)


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


def test_perron_result_of_another_size():
    """A Perron pair of A_5(B) does not describe A_6(B)."""
    r, form = perron(block_matrix(B3, 5)), canonical_form(B3, 6)
    for check in (perron_tail_structure, perron_efficiency_via_submatrix):
        with pytest.raises(DimensionMismatch, match=r"^vector size 5 != 6$"):
            check(form, r)


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

    def test_reversed_orientation(self):
        """For x < 1 the check reads C_s(x) with its block's indices reversed,
        which on Fractions is C_s(1/x) entry for entry."""
        for x, s, n in ((F(1, 3), 4, 7), (F(2, 5), 3, 4), (F(1, 9), 2, 5)):
            got = constant_block_perron_check(ConstantBlockMatrix(x, s, n))
            want = constant_block_perron_check(ConstantBlockMatrix(1 / x, s, n))
            assert got.components == want.components
            assert (got.digraph.adj == want.digraph.adj).all()

    def test_requires_tail(self):
        with pytest.raises(PreconditionError, match="need n > s"):
            constant_block_perron_check(ConstantBlockMatrix(F(2), 3, 3))
