"""Exact block detection builds its form from integer numerators and
denominators.  These tests hold detect_minimal_block and
is_block_perturbation to the reference-column formula written out below in
Fractions (in floats for float input), on seeded scrambles of A_n(B): B
with entries in {1/3, 1/2, 1, 2, 3}, so that smaller blocks and ties occur;
B with numerators beyond 2**53; and float scrambles.  A last test runs exact
detection with Fraction arithmetic and comparisons switched off."""

import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from effvec import (
    MonomialSimilarity,
    detect_minimal_block,
    is_block_perturbation,
    validate_reciprocal,
)

SMALL = (F(1, 3), F(1, 2), F(1), F(2), F(3))


def big(rng):
    """An entry whose numerator or denominator is past 2**53, inside the floats."""
    x = F(3 ** rng.randint(34, 60), 2 ** rng.randint(40, 90)) * rng.choice((1, 5, F(1, 7)))
    return x if rng.random() < 0.5 else 1 / x


def scrambled(rng, entry, n_range=(3, 9)):
    """(rows of P D A_n(B) D^-1 P^T, the input indices of B) for a random B
    of size 2..n-1 with entries from entry(), a random permutation P and a
    random positive diagonal D."""
    n = rng.randint(*n_range)
    s = rng.randint(2, n - 1)
    rows = [[F(1)] * n for _ in range(n)]
    for i in range(s):
        for j in range(i + 1, s):
            x = entry()
            rows[i][j], rows[j][i] = x, 1 / x
    perm = list(range(n))
    rng.shuffle(perm)
    d = [F(2) ** rng.randint(-3, 3) * rng.randint(1, 5) for _ in range(n)]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = d[i] * rows[i][j] / d[j]
    return out, sorted(perm[:s])


def corpus(seed, count, entry_of):
    rng = random.Random(seed)
    entry = entry_of(rng)
    return [scrambled(rng, entry) for _ in range(count)]


SMALL_CORPUS = corpus(20261019, 3000, lambda rng: lambda: rng.choice(SMALL))
BIG_CORPUS = corpus(53, 200, lambda rng: lambda: big(rng))


# ---------------------------------------------------------------------------
# the references


def ref_reference_block(rows, r):
    """K_r: endpoints of the pairs (i, j) with a_ij != a_ir * a_rj."""
    n = len(rows)
    return sorted({k for i in range(n) for j in range(n)
                   if rows[i][j] != rows[i][r] * rows[r][j] for k in (i, j)})


def ref_minimal_block(rows):
    """The smallest nonempty K_r, lexicographic among equal sizes; (0,) when
    every K_r is empty (a consistent matrix)."""
    blocks = [K for K in (ref_reference_block(rows, r) for r in range(len(rows))) if K]
    return min(blocks, key=lambda K: (len(K), K)) if blocks else [0]


def ref_form(rows, K):
    """(block rows, back map) by the reference-column formula with r the first
    index outside K: B_pq = a_{K_p K_q} * a_{K_q r} / a_{K_p r}, and B_qp its
    reciprocal on floats; the back map permutes by K + rest and scales by
    column r."""
    n, s = len(rows), len(K)
    rest = [i for i in range(n) if i not in K]
    r = rest[0]
    B = [[rows[0][0]] * s for _ in range(s)]  # a_00 = 1, on the input's backend
    for p in range(s):
        for q in range(p + 1, s):
            x = rows[K[p]][K[q]] * rows[K[q]][r] / rows[K[p]][r]
            B[p][q], B[q][p] = x, 1 / x
    order = tuple(K + rest)
    return tuple(map(tuple, B)), MonomialSimilarity(tuple(rows[i][r] for i in order), order)


def check_form(form, rows, K):
    """form is the reference form of rows with block K, entry for entry and
    bit for bit in its float view."""
    B_ref, back_ref = ref_form(rows, K)
    B = form.block
    assert form.n == len(rows) and B.exact == (type(rows[0][0]) is F)
    assert B.entries == B_ref and form.back_map == back_ref
    assert all(type(x) is type(rows[0][0]) for r in B.entries for x in r)
    assert all(type(x) is type(rows[0][0]) for x in form.back_map.diag)
    view = np.array([[float(x) for x in r] for r in B_ref])
    assert B.array.tobytes() == view.tobytes() and not B.array.flags.writeable
    if B.exact:
        assert B.ratios == (tuple(tuple(x.numerator for x in r) for r in B_ref),
                            tuple(tuple(x.denominator for x in r) for r in B_ref))


# ---------------------------------------------------------------------------


def test_detection_matches_fractions_on_small_entries():
    smaller = consistent = 0
    for rows, planted in SMALL_CORPUS:
        A = validate_reciprocal(rows)
        K = ref_minimal_block(rows)
        found = detect_minimal_block(A)
        assert found.K == tuple(K), rows
        check_form(found.form, rows, K)
        check_form(is_block_perturbation(A, planted), rows, planted)
        smaller += len(K) < len(planted)
        consistent += K == [0] and not ref_reference_block(rows, 0)
    assert smaller >= 300 and consistent >= 200


def test_detection_matches_fractions_past_two_to_the_53():
    late = 0
    for rows, planted in BIG_CORPUS:
        A = validate_reciprocal(rows)
        K = ref_minimal_block(rows)
        found = detect_minimal_block(A)
        assert found.K == tuple(K)
        P, Q = found.form.block.ratios
        late += max(map(max, P + Q)) >= 2**53
        assert "array" not in found.form.block.__dict__  # built from the ratios on first read
        check_form(found.form, rows, K)
        check_form(is_block_perturbation(A, planted), rows, planted)
    assert late >= 150


def test_float_detection_matches_the_float_formula():
    for rows, planted in SMALL_CORPUS[:500] + BIG_CORPUS[:100]:
        floats = [[float(x) for x in r] for r in rows]
        A = validate_reciprocal(floats)
        floats = [list(r) for r in A.entries]  # a_ji renormalized to 1/a_ij
        K = ref_minimal_block(rows)
        found = detect_minimal_block(A)
        assert found.K == tuple(K)
        check_form(found.form, floats, K)
        check_form(is_block_perturbation(A, planted), floats, planted)


def off_by_own_factor(n, rng):
    """The rows of a consistent matrix, a_ij = v_i / v_j, whose row i < n - 1
    is off at its last column by its own factor (i + 2) / (i + 1).  Every row
    but the last shares a_i1 / a_i0, and no two rows are proportional, so K
    is every index but the last."""
    v = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
    rows = [[F(a * d, b * c) for c, d in v] for a, b in v]
    for i in range(n - 1):
        f = F(i + 2, i + 1)
        rows[i][n - 1] *= f
        rows[n - 1][i] /= f
    return rows


def test_detection_when_no_two_rows_share_a_class():
    """At n = 128 every row is keyed by its whole reduced row, and no two rows
    share a key: K is every index but the last, with its form."""
    rows = off_by_own_factor(128, random.Random(128))
    found = detect_minimal_block(validate_reciprocal(rows))
    assert found.K == tuple(range(127))
    check_form(found.form, rows, list(range(127)))


def test_detection_is_quadratic_when_no_two_rows_share_a_class():
    """At n = 512 detection takes under a second (best of three): one key of n
    gcds per row, O(n^2).  Comparing each row with every earlier class that
    shares its a_i1 / a_i0, O(n) each, took about 10 s (2 vCPUs)."""
    A = validate_reciprocal(off_by_own_factor(512, random.Random(512)))
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        found = detect_minimal_block(A)
        seconds.append(time.perf_counter() - start)
    assert found.K == tuple(range(511)) and min(seconds) < 1.0


def test_exact_detection_does_no_fraction_arithmetic(monkeypatch):
    """Detection and recognition on exact input multiply, divide and compare
    Python ints only: Fractions are only constructed."""
    inputs = [validate_reciprocal(rows) for rows, _ in SMALL_CORPUS[:300] + BIG_CORPUS[:50]]
    expected = [detect_minimal_block(A) for A in inputs]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in exact detection")

    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__", "_richcmp"):
        monkeypatch.setattr(F, name, refuse)
    with pytest.raises(AssertionError):
        F(1, 2) * F(2, 3)
    got = [(detect_minimal_block(A), is_block_perturbation(A, range(A.n - 1))) for A in inputs]
    monkeypatch.undo()
    assert [found for found, _ in got] == expected
    assert all(form is not None for _, form in got)
