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
