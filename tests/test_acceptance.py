"""End-to-end acceptance checks.

Each test prints exactly one [PASS]/[FAIL] line (outside pytest's capture)
summarizing the criterion it guards, then asserts it.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from effvec import (
    ConstantBlockMatrix,
    ThreeBlockMatrix,
    TwoBlockMatrix,
    apply_similarity,
    block_matrix,
    canonical_form,
    constant_block_perron_check,
    constant_block_sample,
    dominance_compare,
    equal_tail_reduce,
    GridSpec,
    exhaustive_small_equivalence,
    grid_dominator_search,
    is_efficient,
    lcompl_membership,
    perron,
    perron_tail_structure,
    subvector_efficiency_profile,
    three_block_generate,
    three_block_membership,
    three_block_sufficient,
    three_by_three_is_efficient,
    transform_vector,
    two_block_is_efficient,
    validate_reciprocal,
)
from effvec.efficiency import V_DOMINATES
from effvec.fixtures import reproduce_examples, reproduce_table1
from effvec.oracle import random_pow2_instance

from conftest import rand_frac, rand_reciprocal, rand_similarity, rand_vector


def sample_in(lo, hi, rng):
    """Exact point of [lo, hi] (lo < hi); each endpoint has probability 0.1,
    so boundary ties occur."""
    u = rng.random()
    if u < 0.1:
        return lo
    if u < 0.2:
        return hi
    return lo + (hi - lo) * F(rng.randint(1, 9999), 10000)


def report(capsys, name, ok, detail=""):
    with capsys.disabled():
        suffix = f"  ({detail})" if detail else ""
        print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    assert ok, f"{name}: {detail}"


def test_perron_verdict_table(capsys):
    """Eight n=6 Perron verdicts with witness cycles, residual <= 1e-12, < 1s."""
    t0 = time.perf_counter()
    checks = reproduce_table1()
    elapsed = time.perf_counter() - t0
    bad = [c.name for c in checks if not c.ok]
    ok = not bad and elapsed < 1.0
    report(
        capsys,
        "perron verdict table (8 rows, witness cycles, residual<=1e-12)",
        ok,
        f"{len(checks)} rows in {elapsed * 1000:.0f}ms" + (f"; failed: {bad}" if bad else ""),
    )


def test_worked_examples(capsys):
    """Every bundled worked instance reproduces exactly on the exact backend."""
    checks = reproduce_examples()
    bad = [c.name for c in checks if not c.ok]
    report(
        capsys,
        "worked-instance reproduction (exact backend)",
        not bad,
        f"{len(checks)} checks" + (f"; failed: {bad}" if bad else ""),
    )


def test_characterization_equivalences(capsys):
    """Closed-form tests agree with the digraph verdict: 1000 instances each."""
    rng = random.Random(61)
    mismatches = []

    for trial in range(1000):  # 2-block chain, n <= 7
        n = rng.randint(3, 7)
        S = TwoBlockMatrix(rand_frac(rng), n)
        w = rand_vector(n, rng)
        if two_block_is_efficient(S, w) != is_efficient(S.matrix(), w).efficient:
            mismatches.append(("2block", trial))

    for trial in range(1000):  # 3-by-3 chain
        B = rand_reciprocal(3, rng)
        w = rand_vector(3, rng)
        if three_by_three_is_efficient(B, w) != is_efficient(B, w).efficient:
            mismatches.append(("3x3", trial))

    for trial in range(1000):  # bounded-tail extension, s <= 4, n <= 8
        s = rng.randint(2, 4)
        n = rng.randint(s + 1, 8)
        B = rand_reciprocal(s, rng)
        form = canonical_form(B, n)
        head = None
        if rng.random() < 0.5:
            for _ in range(40):
                cand = rand_vector(s, rng)
                if is_efficient(B, cand).efficient:
                    head = cand
                    break
        if head is None:
            c = rng.randrange(s)
            scale = rand_frac(rng)
            head = tuple(scale * B[i, c] for i in range(s))
        # tails drawn wider than [min, max] so both verdicts occur
        lo, hi = min(head), max(head)
        tail = tuple(sample_in(lo / 2, hi * 2, rng) for _ in range(n - s))
        w = head + tail
        if lcompl_membership(form, w) != is_efficient(form.matrix(), w).efficient:
            mismatches.append(("bounded-tail", trial))

    for trial in range(1000):  # 3-block union route, n <= 8
        n = rng.randint(4, 8)
        A = ThreeBlockMatrix(rand_reciprocal(3, rng), n)
        w = rand_vector(n, rng)
        ok, _ = three_block_membership(A, w)
        if ok != is_efficient(A.matrix(), w).efficient:
            mismatches.append(("union-route", trial))

    report(
        capsys,
        "characterization/digraph equivalence (4 x 1000 instances)",
        not mismatches,
        f"{len(mismatches)} mismatches" if mismatches else "0 mismatches",
    )


def test_certificate_soundness(capsys):
    """Every inefficiency verdict carries a confirmed dominating vector."""
    rng = random.Random(62)
    inefficient = 0
    failures = 0
    trials = 0
    while inefficient < 5000:
        trials += 1
        n = rng.randint(3, 6)
        A = rand_reciprocal(n, rng)
        w = rand_vector(n, rng)
        verdict = is_efficient(A, w)
        if verdict.efficient:
            continue
        inefficient += 1
        if dominance_compare(A, w, verdict.dominator) != V_DOMINATES:
            failures += 1
    report(
        capsys,
        "dominating-vector certificates (5000 inefficient instances)",
        failures == 0,
        f"{inefficient} certificates from {trials} trials, {failures} failures",
    )


def test_grid_oracle_equivalence(capsys):
    """Digraph verdicts match the independent lattice dominator search: 500
    trials at n = 3 and at n = 4, 200 at n = 5 (13^4 = 28,561 candidates
    each), and an efficient w on the n = 7, m = 6 lattice of 13^6 =
    4,826,809 candidates, just under half the guard, where the search
    must come back empty-handed."""
    rng = random.Random(63)
    t0 = time.perf_counter()
    reps = [exhaustive_small_equivalence(trials, rng, n=n)
            for n, trials in ((3, 500), (4, 500), (5, 200))]
    while True:
        A, w = random_pow2_instance(7, rng)
        if is_efficient(A, w).efficient:
            break
    near_guard = grid_dominator_search(A, w, GridSpec(w, 2.0, 6))
    elapsed = time.perf_counter() - t0
    contradictions = [c for rep in reps for c in rep.contradictions]
    ok = not contradictions and near_guard is None and elapsed < 60.0
    report(
        capsys,
        "grid-oracle equivalence (500 trials at n=3 and n=4, 200 at n=5, "
        "one efficient n=7 lattice of 4,826,809 points)",
        ok,
        f"{len(contradictions)} contradictions, n=7 dominator {near_guard}, in {elapsed:.1f}s",
    )
    assert reps[2].efficient > 0 and reps[2].inefficient > 0


def test_three_block_sufficient_conditions(capsys):
    """Matched sufficient conditions always yield an efficient Perron vector."""
    vals = np.logspace(math.log10(1 / 9), math.log10(9), 20)
    matched = 0
    failures = 0
    for a12 in vals:
        for a13 in vals:
            for a23 in vals:
                B = validate_reciprocal(
                    [
                        [1.0, a12, a13],
                        [1 / a12, 1.0, a23],
                        [1 / a13, 1 / a23, 1.0],
                    ]
                )
                tbm, _ = ThreeBlockMatrix(B, 4).normalize()
                if three_block_sufficient(tbm.block).matched is None:
                    continue
                matched += 1
                for n in (4, 6, 8):
                    A = block_matrix(tbm.block, n)
                    r = perron(A)
                    if not is_efficient(A.to_float(), r.w).efficient:
                        failures += 1
    report(
        capsys,
        "three-block sufficient conditions imply Perron efficiency (20^3 grid, n in {4,6,8})",
        failures == 0,
        f"{matched} matched triples, {failures} failures",
    )


def test_constant_block_perron_and_class(capsys):
    """Constant-block Perron vectors efficient; class samples efficient; equal tails."""
    rng = random.Random(64)
    perron_fail = 0
    tail_fail = 0
    for _ in range(200):
        x = float(np.exp(rng.uniform(math.log(1 / 9), math.log(9))))
        s = rng.randint(2, 9)
        n = rng.randint(s + 1, 10)
        M = ConstantBlockMatrix(x, s, n)
        try:
            constant_block_perron_check(M)
        except Exception:
            perron_fail += 1
            continue
        form = canonical_form(ConstantBlockMatrix(max(x, 1 / x), s, n).block, n)
        r = perron(form.matrix())
        if not perron_tail_structure(form, r).ok:
            tail_fail += 1

    class_fail = 0
    produced = 0
    while produced < 1000:
        x = F(rng.randint(1, 9), rng.randint(1, 9))
        s = rng.randint(3, 6)
        n = rng.randint(s, s + 4)
        M = ConstantBlockMatrix(x, s, n)
        A = M.matrix()
        for g in constant_block_sample(M, rng, count=25):
            produced += 1
            if not is_efficient(A, g.vector).efficient:
                class_fail += 1

    ok = perron_fail == 0 and tail_fail == 0 and class_fail == 0
    report(
        capsys,
        "constant-block Perron efficiency (200 draws) and class soundness (1000 samples)",
        ok,
        f"perron failures={perron_fail}, tail failures={tail_fail}, "
        f"class failures={class_fail}",
    )


def test_invariance_properties(capsys):
    """Similarity invariance, subvector lower bound, equal-tail reduction."""
    rng = random.Random(65)

    sim_fail = 0
    for _ in range(500):
        n = rng.randint(3, 6)
        A = rand_reciprocal(n, rng)
        w = rand_vector(n, rng)
        M = rand_similarity(n, rng)
        if (
            is_efficient(A, w).efficient
            != is_efficient(apply_similarity(A, M), transform_vector(M, w)).efficient
        ):
            sim_fail += 1

    # every efficient vector (n >= 4) keeps >= 2 efficient (n-1)-subvectors
    profile_fail = 0
    produced = 0
    while produced < 1000:
        n = rng.randint(4, 7)
        tbm = ThreeBlockMatrix(rand_reciprocal(3, rng), n)
        A = tbm.matrix()
        seeds = (rand_vector(4, rng) for _ in range(200))
        for g in three_block_generate(tbm, seeds, rng):
            produced += 1
            if len(subvector_efficiency_profile(A, g.vector)) < 2:
                profile_fail += 1
            if produced >= 1000:
                break

    reduce_fail = 0
    for _ in range(500):
        s = rng.randint(2, 4)
        n = rng.randint(s + 2, s + 4)
        B = rand_reciprocal(s, rng)
        form = canonical_form(B, n)
        A = form.matrix()
        tail = [rand_frac(rng, 1, 6) for _ in range(n - s)]
        if rng.random() < 0.7:  # force a duplicate pair most of the time
            tail[rng.randrange(len(tail))] = tail[rng.randrange(len(tail))]
        w = rand_vector(s, rng) + tuple(tail)
        A2, w2 = equal_tail_reduce(form, w)
        if is_efficient(A, w).efficient != is_efficient(A2, w2).efficient:
            reduce_fail += 1

    ok = sim_fail == 0 and profile_fail == 0 and reduce_fail == 0
    report(
        capsys,
        "invariance properties (500 similarities, 1000 profiles, 500 reductions)",
        ok,
        f"similarity failures={sim_fail}, profile failures={profile_fail}, "
        f"reduction failures={reduce_fail}",
    )
