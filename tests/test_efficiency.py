import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effvec import (
    ConstantBlockMatrix,
    apply_similarity,
    block_matrix,
    build_digraph,
    canonical_form,
    consistent_from_vector,
    construct_dominating_vector,
    dominance_compare,
    equal_tail_reduce,
    extension_interval,
    is_efficient,
    is_strongly_connected,
    strongly_connected_components,
    subvector_efficiency_profile,
    transform_vector,
    validate_reciprocal,
)
from effvec.efficiency import EQUAL, INCOMPARABLE, V_DOMINATES, W_DOMINATES, ComparisonDigraph
from effvec.errors import DimensionMismatch, PreconditionError
from effvec.fixtures import A6_U, B3, CC, EX21, EX21_W

from conftest import rand_reciprocal, rand_similarity, rand_vector


class TestBuildDigraph:
    def test_all_ones_complete(self):
        G = build_digraph(validate_reciprocal([[1] * 3] * 3), (1, 1, 1))
        assert all(len(G.succ[i]) == 2 for i in range(3))

    def test_reference_strongly_connected(self):
        G = build_digraph(CC, (13, 8, 7, 12))
        assert is_strongly_connected(G)[0]

    def test_three_dim_not_connected(self):
        G = build_digraph(B3, (3, 2, 1))
        assert not is_strongly_connected(G)[0]

    def test_totality(self, rng):
        for _ in range(50):
            A = rand_reciprocal(5, rng)
            G = build_digraph(A, rand_vector(5, rng))
            for i in range(5):
                for j in range(5):
                    if i != j:
                        assert G.has_edge(i, j) or G.has_edge(j, i)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="vector size 3 != 4"):
            build_digraph(CC, (1, 2, 3))


class TestScc:
    def test_cycle(self):
        G = ComparisonDigraph(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=bool))
        assert G.succ == (frozenset({1}), frozenset({2}), frozenset({0}))
        assert len(strongly_connected_components(G)) == 1

    def test_single_edge(self):
        G = ComparisonDigraph(np.array([[0, 1], [0, 0]], dtype=bool))
        assert G.succ == (frozenset({1}), frozenset())
        ok, comps, source = is_strongly_connected(G)
        assert not ok and source == (0,)

    def test_boundary_tie_connected(self):
        # (3,2,1,2): ties w_2 = w_4 keep the digraph connected
        assert is_strongly_connected(build_digraph(CC, (3, 2, 1, 2)))[0]

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_matches_mutual_reachability(self, backend):
        """Power-of-two entries make w_i/w_j = a_ij ties (two-way edges) common."""
        rng = random.Random(11)
        cast = F if backend == "exact" else float
        split = 0
        for _ in range(1000):
            n = rng.randint(2, 9)
            rows = [[cast(1)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = cast(F(2) ** rng.randint(-2, 2))
                    rows[j][i] = 1 / rows[i][j]
            w = tuple(cast(F(2) ** rng.randint(-3, 3)) for _ in range(n))
            G = build_digraph(validate_reciprocal(rows), w)
            comps = reference_components(G)
            split += len(comps) > 1
            assert is_strongly_connected(G) == (
                len(comps) == 1, comps, None if len(comps) == 1 else comps[-1])
        assert 100 < split < 900


def reference_components(G):
    """Mutual-reachability classes as sorted tuples, sink first (fewest reachable)."""
    reach = []
    for v in range(G.n):
        seen, stack = {v}, [v]
        while stack:
            for u in G.succ[stack.pop()] - seen:
                seen.add(u)
                stack.append(u)
        reach.append(seen)
    comps = {tuple(u for u in sorted(reach[v]) if v in reach[u]) for v in range(G.n)}
    return sorted(comps, key=lambda c: len(reach[c[0]]))


class TestIsEfficient:
    def test_consistent_columns(self):
        A = consistent_from_vector((1, 2, 5))
        for j in range(3):
            assert is_efficient(A, A.column(j)).efficient

    def test_reference_pair(self):
        assert is_efficient(CC, (3, 2, 1, 2)).efficient
        assert not is_efficient(B3, (3, 2, 1)).efficient

    def test_seven_dim(self):
        assert is_efficient(EX21, EX21_W).efficient

    def test_inefficient_verdict_has_certificate(self):
        v = is_efficient(B3, (3, 2, 1))
        assert v.source_set is not None and v.dominator is not None
        assert dominance_compare(B3, (3, 2, 1), v.dominator) == V_DOMINATES

    def test_scale_invariance_exact(self, rng):
        for _ in range(30):
            A = rand_reciprocal(4, rng)
            w = rand_vector(4, rng)
            c = F(7, 3)
            assert (
                is_efficient(A, w).efficient
                == is_efficient(A, tuple(c * x for x in w)).efficient
            )


class TestDominance:
    def test_scalar_multiple_equal(self):
        assert dominance_compare(CC, (3, 2, 1, 2), (6, 4, 2, 4)) == EQUAL

    def test_efficient_never_dominated(self, rng):
        w = (3, 2, 1, 2)
        for _ in range(200):
            v = rand_vector(4, rng)
            assert dominance_compare(CC, w, v) != V_DOMINATES

    def test_symmetry(self, rng):
        for _ in range(50):
            A = rand_reciprocal(4, rng)
            w, v = rand_vector(4, rng), rand_vector(4, rng)
            a, b = dominance_compare(A, w, v), dominance_compare(A, v, w)
            assert {a, b} in (
                {EQUAL},
                {INCOMPARABLE},
                {V_DOMINATES, W_DOMINATES},
                {V_DOMINATES},  # equal-error, non-proportional edge case
            )

    def test_int_entries_compared_exactly(self):
        """int vectors on an exact matrix compare as Fractions: w_i / w_j on
        ints is a float, and A's errors are exact."""
        A = validate_reciprocal([[1, F(3, 2), 1], [F(2, 3), 1, 3], [1, F(1, 3), 1]])
        assert dominance_compare(A, (5, 5, 3), (3, 1, 1)) == W_DOMINATES
        assert dominance_compare(A, (F(5), F(5), F(3)), (F(3), F(1), F(1))) == W_DOMINATES

    def test_float_certificate_confirmed(self):
        """Errors are compared on the dominator as given, so the pairs it leaves
        unchanged keep bit-identical errors on the float backend."""
        rng = random.Random(5)
        for _ in range(20):
            n = 6
            rows = [[1.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = math.exp(rng.uniform(-math.log(9), math.log(9)))
                    rows[j][i] = 1 / rows[i][j]
            A = validate_reciprocal(rows)
            w = list(A.column(rng.randrange(n)))
            k = rng.randrange(n)
            w[k] = 1.5 * max(A[k, j] * w[j] for j in range(n))
            verdict = is_efficient(A, w)
            assert dominance_compare(A, w, verdict.dominator) == V_DOMINATES

    def test_float_two_vertex_source_set(self):
        """Scaling the source set {1, 2} by t = 0.4 moves w_1/w_2 = 3 in the
        last bit; that is rounding, not a worse error."""
        upper = {(0, 1): 2, (0, 2): F(1, 2), (0, 3): F(3, 2), (1, 2): 3, (1, 3): 2, (2, 3): F(1, 4)}
        rows = [[F(1)] * 4 for _ in range(4)]
        for (i, j), x in upper.items():
            rows[i][j], rows[j][i] = F(x), 1 / F(x)
        w = (F(1, 5), 3, 1, F(1, 5))
        for A, w in ((validate_reciprocal(rows), w),
                     (validate_reciprocal(rows).to_float(), tuple(map(float, w)))):
            verdict = is_efficient(A, w)
            assert verdict.source_set == (1, 2)
            assert dominance_compare(A, w, verdict.dominator) == V_DOMINATES

    def test_float_multi_vertex_source_sets(self):
        rng = random.Random(8)
        multi = 0
        for _ in range(300):
            n = rng.randint(4, 8)
            rows = [[1.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = math.exp(rng.uniform(-2, 2))
                    rows[j][i] = 1 / rows[i][j]
            A = validate_reciprocal(rows)
            w = [math.exp(rng.uniform(-2, 2)) for _ in range(n)]
            verdict = is_efficient(A, w)
            if verdict.efficient:
                continue
            multi += len(verdict.source_set) > 1
            assert dominance_compare(A, w, verdict.dominator) == V_DOMINATES
        assert multi >= 20

    @pytest.mark.parametrize("seed", [8, 14, 26])
    def test_float_ratio_far_from_entry(self, seed):
        """With log-normal w, w_i/w_j reaches ~1e5 * a_ij, and scaling the source
        set moves an error inside it by more than 1e-12 * a_ij: the slack is
        relative to the largest of a_ij, w_i/w_j and v_i/v_j."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(140, 210))
        x = np.exp(rng.uniform(-2, 2, (n, n)))
        A = validate_reciprocal(np.triu(x, 1) + np.triu(1 / x, 1).T + np.eye(n))
        w = np.exp(rng.normal(0, 4, n)).tolist()
        verdict = is_efficient(A, w)
        assert not verdict.efficient
        assert dominance_compare(A, w, verdict.dominator) == V_DOMINATES

    @pytest.mark.filterwarnings("error")
    def test_float_ratio_overflow(self):
        """v_1/v_2 overflows to inf, so the relative slack is inf too; v is still worse."""
        A = validate_reciprocal([[1.0, 2.0], [0.5, 1.0]])
        assert dominance_compare(A, (1.0, 1.0), (1e200, 1e-200)) == W_DOMINATES
        assert dominance_compare(A, (1e200, 1e-200), (1.0, 1.0)) == V_DOMINATES

    @pytest.mark.filterwarnings("error")
    def test_float_ratios_past_the_floats_warn_nothing(self):
        """v/w overflows to inf and r/r[0] is inf/inf: no numpy RuntimeWarning."""
        A = validate_reciprocal([[1.0, 2.0], [0.5, 1.0]])
        assert dominance_compare(A, (5e-324, 1.0), (1.0, 0.5)) == V_DOMINATES

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_float_equal_far_from_one(self, scale):
        """The "equal" test compares v_k/w_k with v_0/w_0; v_k * w_0 would
        overflow to inf (or underflow to 0) and make w dominate itself."""
        A = validate_reciprocal([[1.0, 2.0], [0.5, 1.0]])
        w = (scale, 2 * scale)
        assert dominance_compare(A, w, w) == EQUAL


class TestDominatingVector:
    def test_certificate(self):
        verdict = is_efficient(B3, (3, 2, 1))
        v = construct_dominating_vector(B3, (3, 2, 1), verdict.source_set)
        assert dominance_compare(B3, (3, 2, 1), v) == V_DOMINATES

    def test_strongly_connected_rejected(self):
        with pytest.raises(PreconditionError, match="enters the claimed source set"):
            construct_dominating_vector(CC, (3, 2, 1, 2), {0})

    @pytest.mark.parametrize("source", [(), (0, 1, 2)], ids=["empty", "full"])
    def test_source_set_proper(self, source):
        with pytest.raises(PreconditionError, match="must be nonempty and proper"):
            construct_dominating_vector(B3, (3, 2, 1), source)

    def test_random_certificates(self, rng):
        found = 0
        while found < 50:
            A = rand_reciprocal(4, rng)
            w = rand_vector(4, rng)
            verdict = is_efficient(A, w)
            if verdict.efficient:
                continue
            found += 1
            assert dominance_compare(A, w, verdict.dominator) == V_DOMINATES

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w", [(1e308, 1e-308), (5e-324, 1.0)])
    def test_float_underflow_keeps_ratios(self, w):
        """w_i * t underflows to 0.0: the dominator is (2, 1) at another power
        of two, and the package's own comparison confirms it."""
        A = validate_reciprocal([[1.0, 2.0], [0.5, 1.0]])
        v = is_efficient(A, w).dominator
        assert all(0 < x < math.inf for x in v) and v[0] == 2 * v[1]
        assert dominance_compare(A, w, v) == V_DOMINATES

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", range(8))
    def test_float_underflow_matches_exact(self, seed):
        """A source set about 2**1800 above the rest: every t underflows.  With
        power-of-two entries A is exactly reciprocal as Fractions, so the exact
        dominator of the same floats is the reference for every ratio."""
        r = random.Random(seed)
        n = r.randint(3, 7)
        rows = [[F(1)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = F(2) ** r.randint(-3, 3)
                rows[j][i] = 1 / rows[i][j]
        high = set(r.sample(range(n), r.randint(1, n - 1)))
        w = [r.uniform(1, 2) * 2.0 ** ((900 if i in high else -900) + r.randint(-40, 40))
             for i in range(n)]
        exact = is_efficient(validate_reciprocal(rows), tuple(map(F, w)))
        verdict = is_efficient(validate_reciprocal(rows).to_float(), w)
        assert verdict.components == exact.components and not verdict.efficient
        v, ref = verdict.dominator, exact.dominator
        assert all(0 < x < math.inf for x in v)
        assert all(abs(F(v[k]) * ref[0] / (F(v[0]) * ref[k]) - 1) <= 4e-16 for k in range(n))
        assert dominance_compare(validate_reciprocal(rows).to_float(), w, v) == V_DOMINATES


class TestExtension:
    def test_constant_block_intervals(self):
        # covered value-exactly in fixtures; here the equivalence itself
        C5 = ConstantBlockMatrix(F(3), 5, 5).matrix()
        w4 = (F(7), F(3), F(2), F(1))
        iv = extension_interval(C5, w4, 4)
        assert (iv.lo, iv.hi) == (F(1, 3), F(7, 3))
        assert iv.lo <= F(1, 3) <= iv.hi
        assert iv.lo <= F(7, 3) <= iv.hi
        assert not iv.lo <= F(7, 3) + F(1, 1000) <= iv.hi
        assert not iv.lo <= F(1, 3) - F(1, 1000) <= iv.hi

    def test_consistent_degenerate(self):
        A = consistent_from_vector((1, 2, 4, 8))
        sub = tuple(A.column(0)[i] for i in range(3))
        iv = extension_interval(A, sub, 3)
        assert iv.lo == iv.hi

    def test_precondition(self):
        with pytest.raises(PreconditionError, match=r"subvector is not efficient for A\(3\)"):
            extension_interval(CC, (3, 2, 1), 3)

    def test_interval_matches_digraph(self, rng):
        # endpoints in, ouside out, interior in -- against the full test
        checked = 0
        while checked < 30:
            A = rand_reciprocal(5, rng)
            w = rand_vector(4, rng)
            k = rng.randrange(5)
            if not is_efficient(A.delete(k), w).efficient:
                continue
            checked += 1
            iv = extension_interval(A, w, k)
            for wk, expect in [
                (iv.lo, True),
                (iv.hi, True),
                ((iv.lo + iv.hi) / 2, True),
                (iv.lo * F(99, 100), iv.lo == iv.hi and False or False),
                (iv.hi * F(101, 100), False),
            ]:
                if wk <= 0:
                    continue
                full = list(w)
                full.insert(k, wk)
                assert is_efficient(A, tuple(full)).efficient == (iv.lo <= wk <= iv.hi)


class TestProfile:
    def test_reference_profiles(self):
        prof = subvector_efficiency_profile(EX21, EX21_W)
        assert prof == frozenset({4, 5})

    def test_cardinality_bound(self, rng):
        # every efficient vector with n >= 4 has at least two efficient subvectors
        checked = 0
        while checked < 30:
            A = rand_reciprocal(5, rng)
            w = rand_vector(5, rng)
            if not is_efficient(A, w).efficient:
                continue
            checked += 1
            assert len(subvector_efficiency_profile(A, w)) >= 2


class TestEqualTailReduce:
    def test_reduces_equal_pair(self, rng):
        form = canonical_form(rand_reciprocal(3, rng), 5)
        w = rand_vector(3, rng) + (F(2), F(2))
        A2, w2 = equal_tail_reduce(form, w)
        assert A2.n == 4 and len(w2) == 4

    def test_verdicts_match(self):
        form = canonical_form(B3, 6)
        A = form.matrix()
        A2, w2 = equal_tail_reduce(form, A6_U)  # tail (12, 7, 7)
        assert len(w2) == 5
        assert is_efficient(A, A6_U).efficient == is_efficient(A2, w2).efficient

    def test_distinct_tail_identity(self, rng):
        form = canonical_form(rand_reciprocal(3, rng), 6)
        w = rand_vector(3, rng) + (F(2), F(3), F(5))
        A2, w2 = equal_tail_reduce(form, w)
        assert w2 == w and A2.n == 6


@given(st.integers(0, 2**30))
@settings(max_examples=60, deadline=None)
def test_similarity_invariance(seed):
    r = random.Random(seed)
    n = r.randint(3, 6)
    A = rand_reciprocal(n, r)
    w = rand_vector(n, r)
    M = rand_similarity(n, r)
    assert (
        is_efficient(A, w).efficient
        == is_efficient(apply_similarity(A, M), transform_vector(M, w)).efficient
    )


def test_verdict_json_round_trip():
    import json

    v = is_efficient(B3, (3, 2, 1))
    d = v.to_dict()
    assert d["status"] == "inefficient"
    assert d["source_set"] and d["dominator"]
    json.dumps(d)  # serializable
    v2 = is_efficient(CC, (3, 2, 1, 2))
    d2 = v2.to_dict()
    assert d2["status"] == "efficient" and "source_set" not in d2
    assert sorted(sum(d2["scc_partition"], [])) == [1, 2, 3, 4]
    for verdict, default in ((v, d), (v2, d2)):
        # the default report is the full one without its edge list, in the same order
        full = verdict.to_dict(edges=True)
        assert list(full)[:3] == ["status", "scc_partition", "edge_list"]
        assert list(default.items()) == [kv for kv in full.items() if kv[0] != "edge_list"]
