import random
from fractions import Fraction as F

import pytest

from effvec import MonomialSimilarity, validate_reciprocal


def rand_frac(rng, lo=1, hi=9):
    return F(rng.randint(lo, hi), rng.randint(lo, hi))


def rand_reciprocal(n, rng):
    """Random exact reciprocal matrix with single-digit ratio entries."""
    rows = [[F(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rand_frac(rng)
            rows[i][j] = x
            rows[j][i] = 1 / x
    return validate_reciprocal(rows)


def consistent_matrix(w):
    """The consistent matrix with a_ij = w_i / w_j, for an exact w."""
    w = [F(x) for x in w]
    return validate_reciprocal([[wi / wj for wj in w] for wi in w])


def rand_vector(n, rng):
    return tuple(rand_frac(rng, 1, 12) for _ in range(n))


def rand_similarity(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    diag = tuple(rand_frac(rng) for _ in range(n))
    return MonomialSimilarity(diag, tuple(perm))


@pytest.fixture
def rng():
    return random.Random(20240824)
