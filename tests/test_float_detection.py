"""Float block detection groups rows into classes of proportional rows on
the float array.  These tests hold it to exact detection on scrambled A_n(B)
at n = 64 and 256, with blocks both under and over n/2 indices, and to the
one-class-per-row answer on a generic log-normal matrix; neither detection
nor recognition builds a float matrix's per-entry rows."""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from effvec import detect_minimal_block, is_block_perturbation, validate_reciprocal

from test_exact_detection import SMALL, check_form


def scrambled_rows(rng, n, s):
    """Rows of P D A_n(B) D^-1 P^T for an s-by-s B with entries from SMALL,
    a random permutation P and a random diagonal D of small powers of 2."""
    B = [[F(1)] * s for _ in range(s)]
    for i in range(s):
        for j in range(i + 1, s):
            B[i][j] = rng.choice(SMALL)
            B[j][i] = 1 / B[i][j]
    perm = list(range(n))
    rng.shuffle(perm)
    d = [F(2) ** rng.randint(-3, 3) for _ in range(n)]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            a = B[i][j] if i < s and j < s else F(1)
            out[perm[i]][perm[j]] = a if d[i] == d[j] else d[i] * a / d[j]
    return out


CASES = [(n, s) for n in (64, 256) for s in (n // 8, 3 * n // 4)] + [(64, 5), (64, 40)]


@pytest.mark.parametrize("n,s", CASES)
def test_float_detection_matches_exact_detection(n, s):
    rows = scrambled_rows(random.Random(n * 1000 + s), n, s)
    exact = detect_minimal_block(validate_reciprocal(rows))
    check_form(exact.form, rows, list(exact.K))
    A = validate_reciprocal(np.array(rows, dtype=float))
    found = detect_minimal_block(A)
    assert found.K == exact.K and len(found.K) <= s
    check_form(found.form, [list(r) for r in A.entries], list(found.K))


def test_generic_matrix_has_one_class_per_row():
    """Every row its own class: K is the complement of the last index."""
    x = np.exp(np.random.default_rng(256).normal(size=256 * 255 // 2))
    upper, a = np.triu_indices(256, 1), np.ones((256, 256))
    a[upper], a.T[upper] = x, 1 / x
    assert detect_minimal_block(validate_reciprocal(a)).K == tuple(range(255))


def test_detection_reads_the_array_only():
    """Detection and recognition on a float matrix read its array: the
    per-entry rows stay unbuilt."""
    rows = scrambled_rows(random.Random(7), 64, 6)
    A = validate_reciprocal(np.array(rows, dtype=float))
    found = detect_minimal_block(A)
    assert is_block_perturbation(A, found.K) == found.form
    assert is_block_perturbation(A, found.K[1:]) is None
    assert "entries" not in A.__dict__
