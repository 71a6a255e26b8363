"""The exact kernels compare integer numerators and denominators; these tests
hold them to the Fraction formulas they replace, written out below, on seeded
corpora: power-of-two and single-digit-ratio grids (many ties), int cells
mixed with Fractions, entries like 2**200/3**150, and vectors whose
denominators are pairwise coprime, so that scaling w to integers multiplies
them all together."""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from effvec import (
    apply_similarity,
    block_matrix,
    build_digraph,
    construct_dominating_vector,
    detect_minimal_block,
    dominance_compare,
    is_efficient,
    strongly_connected_components,
    validate_reciprocal,
)
from effvec import matrix
from effvec.efficiency import EQUAL, INCOMPARABLE, V_DOMINATES, W_DOMINATES, ComparisonDigraph
from effvec.errors import InputError, PreconditionError

from conftest import rand_frac, rand_similarity

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
HUGE = F(2**200, 3**150)


# ---------------------------------------------------------------------------
# the Fraction formulas


def ref_adjacency(A, w):
    n = A.n
    return [[i != j and w[i] >= A[i, j] * w[j] for j in range(n)] for i in range(n)]


def ref_verdict(A, w):
    """(components, dominator or None) by the Fraction edge rule and the max
    over (t, i, j) of a_ij w_j / w_i on the source component."""
    G = ComparisonDigraph(np.array(ref_adjacency(A, w), dtype=bool))
    comps = tuple(strongly_connected_components(G))
    if len(comps) == 1:
        return comps, None
    S, n = comps[-1], A.n
    t, _, _ = max((A[i, j] * w[j] / w[i], i, j) for i in S for j in range(n) if j not in S)
    return comps, tuple(w[i] * t if i in S else w[i] for i in range(n))


def ref_dominance(A, w, v):
    if all(a * w[0] == b * v[0] for a, b in zip(v, w)):
        return EQUAL
    v_le = w_le = True
    for i, row in enumerate(A.entries):
        for j, a in enumerate(row):
            if i != j:
                gap = abs(a - v[i] / v[j]) - abs(a - w[i] / w[j])
                v_le = v_le and gap <= 0
                w_le = w_le and gap >= 0
    return V_DOMINATES if v_le else W_DOMINATES if w_le else INCOMPARABLE


def ref_reference_block(A, r, limit):
    n = A.n
    K = set()
    for i in range(n):
        for j in range(i + 1, n):
            if A[i, j] != A[i, r] * A[r, j]:
                K.update((i, j))
                if len(K) > limit:
                    return None
                if len(K) == n - 1:
                    return K
    return K


def ref_validate_error(grid):
    n = len(grid)
    rows = [[F(x) for x in r] for r in grid]
    for i in range(n):
        for j in range(n):
            if not rows[i][j] > 0:
                return f"entry ({i},{j}) = {rows[i][j]!r} is not positive"
    for i in range(n):
        if rows[i][i] != 1:
            return f"diagonal entry ({i},{i}) = {rows[i][i]!r} != 1"
        for j in range(i + 1, n):
            prod = rows[i][j] * rows[j][i]
            if prod != 1:
                return f"a[{i}][{j}] * a[{j}][{i}] = {prod} != 1"
    return None


# ---------------------------------------------------------------------------
# corpora


def pow2(rng, lo, hi):
    return F(2) ** rng.randint(lo, hi)


def int_or_inverse(rng):
    """An int above the diagonal, read back as 1/int below it, or the other way."""
    k = rng.randint(1, 5)
    return k if rng.random() < 0.5 else F(1, k)


def huge(rng):
    return HUGE ** rng.choice((-1, 1)) * rand_frac(rng)


def inverse(x):
    """1/x, as an int when it is whole."""
    y = 1 / F(x)
    return y.numerator if y.denominator == 1 else y


def reciprocal_rows(n, entry):
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = x = entry()
            rows[j][i] = inverse(x)
    return rows


def coprime_vector(n, rng):
    primes = rng.sample(PRIMES, n)
    return tuple(F(rng.randint(1, 50), p) for p in primes)


def vectors(A, rng, make):
    """Random vectors from make(), columns of A (efficient, with ties) and
    columns with one entry pushed out of range (inefficient)."""
    n = A.n
    out = [make() for _ in range(3)]
    for _ in range(2):
        col = list(A.column(rng.randrange(n)))
        out.append(tuple(col))
        k = rng.randrange(n)
        col[k] = col[k] * rng.choice((F(1, 8), 8, HUGE))
        out.append(tuple(col))
    return out


def corpus(seed=20261019, per_kind=30):
    """(kind, A, vectors) triples, seeded."""
    rng = random.Random(seed)
    kinds = {
        "pow2": (lambda: pow2(rng, -3, 3), lambda n: tuple(pow2(rng, -2, 2) for _ in range(n))),
        "digits": (lambda: rand_frac(rng), lambda n: tuple(rand_frac(rng) for _ in range(n))),
        "mixed": (lambda: int_or_inverse(rng),
                  lambda n: tuple(rng.choice((rng.randint(1, 4), rand_frac(rng))) for _ in range(n))),
        "huge": (lambda: huge(rng), lambda n: tuple(huge(rng) for _ in range(n))),
        "coprime": (lambda: rand_frac(rng), lambda n: coprime_vector(n, rng)),
    }
    out = []
    for kind, (entry, vector) in kinds.items():
        for _ in range(per_kind):
            n = rng.randint(2, 9)
            A = validate_reciprocal(reciprocal_rows(n, entry))
            out.append((kind, A, vectors(A, rng, lambda: vector(n))))
    return out


def scrambled_blocks(seed=7, count=60):
    """Scrambled exact A_n(B), B drawn from the corpus's entry kinds."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        s, n = rng.randint(2, 4), rng.randint(5, 9)
        entry = (lambda: pow2(rng, -3, 3), lambda: rand_frac(rng), lambda: huge(rng))[t % 3]
        B = validate_reciprocal(reciprocal_rows(s, entry))
        out.append(apply_similarity(block_matrix(B, n), rand_similarity(n, rng)))
    return out


CORPUS = corpus()


# ---------------------------------------------------------------------------


def test_split_is_lowest_terms():
    B = CORPUS[0][1]
    for A in (B, block_matrix(B, B.n + 3), B.submatrix(range(B.n - 1, -1, -1))):
        P, Q = A.ratios
        for i in range(A.n):
            for j in range(A.n):
                assert (P[i][j], Q[i][j]) == (A[i, j].numerator, A[i, j].denominator)
                assert type(P[i][j]) is int and type(Q[i][j]) is int


def test_digraph_and_verdict_match_fractions():
    inefficient = 0
    for kind, A, ws in CORPUS:
        for w in ws:
            wf = tuple(map(F, w))
            assert build_digraph(A, w).adj.tolist() == ref_adjacency(A, wf), (kind, w)
            comps, dominator = ref_verdict(A, wf)
            verdict = is_efficient(A, w)
            assert verdict.components == comps, (kind, w)
            assert verdict.dominator == dominator, (kind, w)
            if dominator is not None:
                assert all(type(x) is F for x in verdict.dominator)
                inefficient += 1
    assert inefficient >= 100


def test_dominator_on_any_set_matches_fractions():
    """On a set that is not a source component the error names the pair that
    attains max a_ij w_j / w_i, the larger (i, j) among ties."""
    rng = random.Random(5)
    refused = 0
    for kind, A, ws in CORPUS:
        for w in ws:
            wf = tuple(map(F, w))
            S = rng.sample(range(A.n), rng.randint(1, A.n - 1))
            t, i, j = max((A[i, j] * wf[j] / wf[i], i, j)
                          for i in S for j in range(A.n) if j not in S)
            if t < 1:
                assert construct_dominating_vector(A, w, S) == tuple(
                    x * t if k in S else x for k, x in enumerate(wf))
                continue
            with pytest.raises(PreconditionError) as exc:
                construct_dominating_vector(A, w, S)
            assert str(exc.value) == f"edge {j}->{i} enters the claimed source set (ratio {t})"
            refused += 1
    assert refused >= 100


def test_dominance_matches_fractions_on_every_outcome():
    seen = set()
    rng = random.Random(3)
    for kind, A, ws in CORPUS:
        for w in ws:
            wf = tuple(map(F, w))
            c = rng.choice((F(3, 7), HUGE, 5))
            others = [tuple(x * c for x in w), ws[rng.randrange(len(ws))]]
            dominator = is_efficient(A, w).dominator
            if dominator is not None:
                others.append(dominator)
            for v in others:
                vf = tuple(map(F, v))
                for a, b, fa, fb in ((w, v, wf, vf), (v, w, vf, wf)):
                    got = dominance_compare(A, a, b)
                    assert got == ref_dominance(A, fa, fb), (kind, a, b)
                    seen.add(got)
    assert seen == {EQUAL, INCOMPARABLE, V_DOMINATES, W_DOMINATES}


def test_reference_block_and_detection_match_fractions(monkeypatch):
    matrices = [A for _, A, _ in CORPUS] + scrambled_blocks()
    for A in matrices:
        n = A.n
        for r in range(n):
            for limit in {1, n // 2, n - 1}:
                assert matrix._reference_block(A, r, limit) == ref_reference_block(A, r, limit)
    found = [detect_minimal_block(A) for A in matrices]
    monkeypatch.setattr(matrix, "_reference_block", ref_reference_block)
    assert found == [detect_minimal_block(A) for A in matrices]
    assert sum(d.form.s < A.n - 1 for d, A in zip(found, matrices)) >= 50


def bad_grids(rng):
    """Grids that break one rule each, in int and Fraction cells."""
    out = []
    for _ in range(40):
        n = rng.randint(2, 5)
        entry = rng.choice((lambda: rand_frac(rng), lambda: int_or_inverse(rng), lambda: huge(rng)))
        rows = reciprocal_rows(n, entry)
        i, j = rng.sample(range(n), 2)
        fault = rng.randrange(5)
        if fault == 0:
            rows[i][j] = rng.choice((0, -1, F(-2, 3), F(0)))
        elif fault == 1:
            rows[i][i] = rng.choice((2, F(1, 2), 5))
        elif fault == 2:
            rows[i][j] = rows[i][j] * rng.choice((2, F(2, 3), F(1, 7)))
        elif fault == 3:  # p_ji = q_ij, but q_ji != p_ij
            x = F(rows[i][j])
            rows[j][i] = F(x.denominator, x.numerator + 1)
        else:
            rows[i][j] = rows[j][i]  # the entry itself, not its reciprocal: fine only at 1
        out.append(rows)
    return out


def test_validate_errors_match_fractions():
    raised = 0
    for rows in bad_grids(random.Random(11)):
        expected = ref_validate_error(rows)
        if expected is None:
            assert validate_reciprocal(rows).entries == tuple(tuple(map(F, r)) for r in rows)
            continue
        with pytest.raises(InputError) as exc:
            validate_reciprocal(rows)
        assert str(exc.value) == expected
        raised += 1
    assert raised >= 30


@pytest.mark.parametrize("rows, message", [
    ([[1, 2], [F(1, 2), 0]], "entry (1,1) = Fraction(0, 1) is not positive"),
    ([[1, 2], [-1, 1]], "entry (1,0) = Fraction(-1, 1) is not positive"),
    ([[1, 2], [F(1, 2), 2]], "diagonal entry (1,1) = Fraction(2, 1) != 1"),
    ([[1, F(2, 3)], [F(3, 5), 1]], "a[0][1] * a[1][0] = 2/5 != 1"),
    ([[1, F(2, 3)], [F(5, 2), 1]], "a[0][1] * a[1][0] = 5/3 != 1"),
    ([[1, HUGE], [1 / HUGE + 1, 1]], f"a[0][1] * a[1][0] = {HUGE * (1 / HUGE + 1)} != 1"),
])
def test_validate_error_texts(rows, message):
    with pytest.raises(InputError) as exc:
        validate_reciprocal(rows)
    assert str(exc.value) == message
