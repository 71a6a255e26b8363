import itertools
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest

from effvec import oracle
from effvec import (
    GridSpec,
    exhaustive_small_equivalence,
    grid_dominator_search,
    is_efficient,
    dominance_compare,
    validate_reciprocal,
)
from effvec.efficiency import EQUAL, V_DOMINATES
from effvec.errors import DimensionMismatch, InputError
from effvec.fixtures import B3, CC
from effvec.oracle import random_pow2_instance

from conftest import rand_reciprocal, rand_vector


class TestGridSpec:
    def test_candidate_count(self):
        g = GridSpec((1, 1, 1), rho=2.0, m=6)
        assert g.candidate_count == 13 * 13

    def test_factor_symmetry(self):
        vals = GridSpec((1, 1), rho=2.0, m=3).factor_values()
        assert len(vals) == 7
        assert vals[0] == pytest.approx(0.5) and vals[-1] == pytest.approx(2.0)
        assert vals[3] == pytest.approx(1.0)

    def test_guard(self):
        ones = validate_reciprocal([[1] * 10] * 10)
        with pytest.raises(InputError, match="candidates exceed the 10000000 guard"):
            grid_dominator_search(ones, (1,) * 10, GridSpec((1,) * 10))
        with pytest.raises(DimensionMismatch, match="vector size 10 != 4"):
            grid_dominator_search(CC, (1, 1, 1, 1), GridSpec((1,) * 10))
        with pytest.raises(InputError, match="rho must exceed 1"):
            GridSpec((1, 1), rho=0.5)
        with pytest.raises(InputError, match="m must be >= 1"):
            GridSpec((1, 1), m=0)

    def test_integer_m_finite_rho(self):
        """m is an integer by check_integer's rule and rho is finite: before,
        m = 1.5 built a grid whose factors raised TypeError, and rho = inf one
        whose factors were 0 and inf."""
        for m in (1.5, 6.0, "6"):
            with pytest.raises(InputError, match=rf"^m = {re.escape(repr(m))} is not an integer$"):
                GridSpec((3, 2, 1), m=m)
        with pytest.raises(InputError, match="^rho must be finite, got inf$"):
            GridSpec((3, 2, 1), rho=float("inf"))
        assert GridSpec((1, 1), m=np.int64(3)).factor_values() == GridSpec((1, 1), m=3).factor_values()


class TestGridSearch:
    def test_finds_dominator_for_inefficient(self):
        w = (F(3), F(2), F(1))
        v = grid_dominator_search(B3, w, GridSpec(w, rho=2.0, m=6))
        assert v is not None
        assert dominance_compare(B3, w, v) == V_DOMINATES

    def test_silent_for_efficient(self):
        w = (F(3), F(2), F(1), F(2))
        assert grid_dominator_search(CC, w, GridSpec(w, rho=2.0, m=4)) is None

    def test_silent_for_efficient_far_from_one(self):
        """No lattice point dominates an efficient w with entries near 1e200,
        w itself included."""
        A = validate_reciprocal([[1, 2, 1], [0.5, 1, 1], [1, 1, 1]])
        w = (1e200,) * 3
        assert is_efficient(A, w).efficient
        assert grid_dominator_search(A, w, GridSpec(w)) is None

    def test_exact_verification(self):
        # returned dominator is exact when inputs are exact
        w = (F(3), F(2), F(1))
        v = grid_dominator_search(B3, w, GridSpec(w))
        assert all(isinstance(x, F) for x in v)

    def test_float_inputs(self):
        A = B3.to_float()
        w = (3.0, 2.0, 1.0)
        v = grid_dominator_search(A, w, GridSpec(w))
        assert v is not None and all(isinstance(x, float) for x in v)


def reference_candidates(A, w, g):
    """Brute-force prefilter: the lattice points in itertools.product order
    whose every error |a_ij - v_i/v_j|, on the full n-by-n float grid with the
    diagonal, is within w's with the oracle's slack, as the vectors the search
    verifies.  An entry v_i that overflows to inf or underflows to 0.0 makes
    v_i/v_i NaN and fails.  Also returns how many points pass every pair off
    the diagonal and fail on it."""
    n, exact = A.n, type(A.weights(w)[0]) is F
    w_arr, wf = (np.array([float(x) for x in u]) for u in (w, g.base))
    combos = [(1.0,) + c for c in itertools.product(g.factor_values(), repeat=n - 1)]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        budget = np.abs(A.array - w_arr[:, None] / w_arr[None, :]) * oracle._PREFILTER_REL \
            + oracle._PREFILTER_ABS
        V = wf * np.array(combos)
        fits = np.abs(A.array - V[:, :, None] / V[:, None, :]) <= budget
    passes = fits.reshape(len(combos), -1).all(axis=1)
    off_only = fits[:, ~np.eye(n, dtype=bool)].all(axis=1) & ~passes
    if exact:
        found = [tuple(F(b) * F(f) for b, f in zip(g.base, combos[k]))
                 for k in np.flatnonzero(passes)]
    else:
        found = [tuple(float(x) for x in V[k]) for k in np.flatnonzero(passes)]
    return found, int(off_only.sum())


def typed(v):
    return None if v is None else tuple((type(x), x) for x in v)


def parity_instances():
    """2,400 pairs with lattices: exact and float, n = 2..5, rho in {1.5, 2,
    3}, m = 1..3 (1..2 at n = 5), the base mostly w; the last 400 with
    entries near the ends of the floats, so that base_i * rho^(+-k/m)
    overflows to inf or underflows to 0.0."""
    rng = random.Random(71)
    ends = (1e300, 1e-300, 1e307, 1.7e308, 5e-324, 1e-323)
    for trial in range(2400):
        n = rng.randint(2, 5)
        m = rng.randint(1, 3 if n < 5 else 2)
        if rng.random() < 0.5:
            A, w = random_pow2_instance(n, rng)
        else:
            A, w = rand_reciprocal(n, rng), rand_vector(n, rng)
        if trial >= 2000:
            w = tuple(F(min(max(float(x) * rng.choice(ends), 5e-324), 1.7e308))
                      if rng.random() < 0.6 else x
                      for x in w)
        base = w if rng.random() < 0.8 else rand_vector(n, rng)
        if trial % 2:
            A, w, base = A.to_float(), tuple(map(float, w)), tuple(map(float, base))
        yield A, w, GridSpec(base, rng.choice((1.5, 2.0, 3.0)), m)


def test_prefilter_parity(monkeypatch):
    """The per-pair lattice prefilter keeps the brute-force reference's
    candidates, in the same order and of the same type, and the search
    returns the reference's first dominator."""
    beyond_floats = 0
    for A, w, g in parity_instances():
        expected, off_only = reference_candidates(A, w, g)
        beyond_floats += off_only
        seen = []
        monkeypatch.setattr(oracle, "dominance_compare",
                            lambda A, w, v: seen.append(v) or EQUAL)
        assert grid_dominator_search(A, w, g) is None
        monkeypatch.undo()
        assert list(map(typed, seen)) == list(map(typed, expected))
        first = next((v for v in expected if dominance_compare(A, w, v) == V_DOMINATES), None)
        assert typed(grid_dominator_search(A, w, g)) == typed(first)
    assert beyond_floats > 0


class TestPow2Instances:
    def test_exact_and_reciprocal(self):
        rng = random.Random(5)
        for _ in range(20):
            A, w = random_pow2_instance(4, rng)
            assert A.exact
            assert all(isinstance(x, F) for x in w)
            for i in range(4):
                for j in range(4):
                    assert A[i, j] * A[j, i] == 1


class TestEquivalence:
    def test_small_runs_clean(self):
        rng = random.Random(99)
        rep = exhaustive_small_equivalence(60, rng, n=3)
        assert rep.contradictions == []
        assert rep.efficient + rep.inefficient == 60
        assert rep.inefficient > 0 and rep.efficient > 0

    def test_n4_runs_clean(self):
        rng = random.Random(100)
        rep = exhaustive_small_equivalence(40, rng, n=4)
        assert rep.contradictions == []

    def test_contradiction_records(self, monkeypatch):
        """Each kind of contradiction, forced by stubbing the oracle, is recorded
        as its trial, kind and w as strings; a grid dominator of an efficient w
        adds the grid's v.  Seed 0 draws an efficient trial 0 and an
        inefficient trial 1."""
        monkeypatch.setattr(oracle, "grid_dominator_search", lambda A, w, g: (1, 2, 1))
        rep = exhaustive_small_equivalence(2, random.Random(0))
        assert (rep.efficient, rep.inefficient) == (1, 1)
        assert rep.contradictions == [
            {"trial": 0, "kind": "grid dominator for digraph-efficient vector",
             "w": ["2", "1/4", "1"], "v": ["1", "2", "1"]},
        ]
        monkeypatch.undo()
        # the grid search reads the same stub, so it finds no dominator either
        monkeypatch.setattr(oracle, "dominance_compare", lambda A, w, v: EQUAL)
        rep = exhaustive_small_equivalence(2, random.Random(0))
        assert rep.contradictions == [
            {"trial": 1, "kind": "constructed dominator fails dominance check",
             "w": ["1", "2", "1"]},
            {"trial": 1, "kind": "grid found no dominator for inefficient vector",
             "w": ["1", "2", "1"]},
        ]

    def test_report_round_trip(self):
        import json

        rng = random.Random(1)
        rep = exhaustive_small_equivalence(5, rng, n=3)
        d = rep.to_dict()
        json.dumps(d)
        assert d["trials"] == 5 and d["runtime_ms"] > 0
