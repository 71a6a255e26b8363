"""Bundled worked instances with known verdicts.

These are the desk-checked matrices and vectors the test suite and the
`reproduce` subcommand replay: a 4-by-4 reference matrix with known
efficient vectors, 6- and 7-dimensional block-perturbed instances with
known subvector-efficiency profiles, the n=6 Perron efficiency table, and
the constant-block extension intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as F

from .blockpert import (ConstantBlockMatrix, ThreeBlockMatrix, three_block_membership,
                        union_route_member)
from .efficiency import extension_interval, is_efficient, subvector_efficiency_profile
from .matrix import (
    MonomialSimilarity,
    ReciprocalMatrix,
    apply_similarity,
    block_matrix,
    canonical_form,  # unused here; bench/ops.py imports it from this module
    check_positive_scalar,
    detect_minimal_block,
    validate_reciprocal,
)
from .perron import TOL_PERRON, perron, perron_efficiency_via_submatrix

# 4-by-4 reference matrix C with a fully described efficient set
CC = validate_reciprocal(
    [
        [1, 2, 3, 1],
        [F(1, 2), 1, F(1, 2), 1],
        [F(1, 3), 2, 1, 1],
        [1, 1, 1, 1],
    ]
)

# B with C = D^{-1} B D for D = diag(1, 2, 4, 2)
B_SCALED = validate_reciprocal(
    [
        [1, 1, F(3, 4), F(1, 2)],
        [1, 1, F(1, 4), 1],
        [F(4, 3), 4, 1, 2],
        [2, 1, F(1, 2), 1],
    ]
)
D_SCALED = (F(1), F(2), F(4), F(2))

# 3-by-3 perturbed block (leading principal block of CC)
B3 = CC.submatrix(range(3))

# 6-by-6 matrix A_6(B3)
A6 = block_matrix(B3, 6)
A6_U = (F(13), F(8), F(7), F(12), F(7), F(7))
A6_V = (F(13), F(8), F(7), F(7), F(12), F(7))

# 6-by-6 instance with a 4-by-4 perturbed block; no single j-route suffices
EX20 = validate_reciprocal(
    [
        [1, 5, 2, 3, 1, 1],
        [F(1, 5), 1, F(1, 2), 3, 1, 1],
        [F(1, 2), 2, 1, 2, 1, 1],
        [F(1, 3), F(1, 3), F(1, 2), 1, 1, 1],
        [1, 1, 1, 1, 1, 1],
        [1, 1, 1, 1, 1, 1],
    ]
)
EX20_W = (F(8), F(2), F(3), F(4), F(6), F(2))
EX20_V = (F(8), F(2), F(6), F(4), F(6), F(2))

# 7-by-7 instance with a 4-by-4 perturbed block and profile {5, 6} (1-based)
EX21 = validate_reciprocal(
    [
        [1, 2, 1, 3, 1, 1, 1],
        [F(1, 2), 1, F(1, 4), 1, 1, 1, 1],
        [1, 4, 1, 2, 1, 1, 1],
        [F(1, 3), 1, F(1, 2), 1, 1, 1, 1],
        [1, 1, 1, 1, 1, 1, 1],
        [1, 1, 1, 1, 1, 1, 1],
        [1, 1, 1, 1, 1, 1, 1],
    ]
)
EX21_W = (F(8), F(2), F(6), F(4), F(7), F(3), F(5))

# Perron efficiency table, n = 6: (a12, a13, a23, efficient, witness cycle 1-based)
TABLE1 = [
    (F(2), F(17, 2), F(2), False, None),
    (F(2), F(8), F(2), True, (1, 4, 3, 2)),
    (F(100), F(59, 10), F(1, 10), False, None),
    (F(90), F(59, 10), F(1, 10), True, (1, 4, 2, 3)),
    (F(1, 10), F(59, 10), F(140), False, None),
    (F(1, 10), F(59, 10), F(130), True, (1, 2, 4, 3)),
    (F(1, 2), F(8), F(2, 5), False, None),
    (F(1, 2), F(9), F(2, 5), True, (1, 2, 4, 3)),
]
TABLE1_N = 6


def three_block_from_triple(a12, a13, a23) -> ReciprocalMatrix:
    """The 3-by-3 reciprocal block with above-diagonal entries a12, a13, a23."""
    for name, a in (("a12", a12), ("a13", a13), ("a23", a23)):
        check_positive_scalar(a, name)
    return validate_reciprocal(
        [[1, a12, a13], [1 / F(a12), 1, a23], [1 / F(a13), 1 / F(a23), 1]]
    )


def table1_matrix(row: int) -> ThreeBlockMatrix:
    a12, a13, a23, _, _ = TABLE1[row]
    return ThreeBlockMatrix(three_block_from_triple(a12, a13, a23), TABLE1_N)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def reproduce_reference_pairs() -> list:
    """Efficient/inefficient vector pairs on the 4-by-4 reference matrix."""
    checks = []
    checks.append(
        Check(
            "reference (3,2,1,2) efficient",
            is_efficient(CC, (3, 2, 1, 2)).efficient,
        )
    )
    checks.append(
        Check(
            "reference (3,2,1) inefficient on leading 3-by-3",
            not is_efficient(B3, (3, 2, 1)).efficient,
        )
    )
    return checks


def reproduce_scaling_example() -> list:
    """Diagonal-similarity transport of efficient vectors."""
    checks = []
    inv = MonomialSimilarity.scaling(tuple(1 / d for d in D_SCALED))
    checks.append(
        Check("D^{-1} B D recovers the reference matrix",
              apply_similarity(B_SCALED, inv).entries == CC.entries)
    )
    checks.append(
        Check("(15,8,8,12) efficient for C", is_efficient(CC, (15, 8, 8, 12)).efficient)
    )
    checks.append(
        Check(
            "scaled image (15,16,32,24) efficient for B",
            is_efficient(B_SCALED, (15, 16, 32, 24)).efficient,
        )
    )
    return checks


def reproduce_extension_families() -> list:
    """Closed families of efficient extensions of the scaled block."""
    A7 = block_matrix(B_SCALED, 7)
    checks = []
    for w1 in (F(5), F(10), F(18)):
        head = (w1, F(8), F(24), F(10))
        ok = is_efficient(B_SCALED, head).efficient
        lo, hi = min(F(8), w1), F(24)
        for tail_val in (lo, (lo + hi) / 2, hi):
            w = head + (tail_val, lo, hi)
            ok = ok and is_efficient(A7, w).efficient
        checks.append(Check(f"family 1, w1={w1}: extensions efficient", ok))
    for w2 in (F(4), F(8), F(12)):
        head = (F(15), 2 * w2, F(32), F(24))
        ok = is_efficient(B_SCALED, head).efficient
        lo, hi = min(F(15), 2 * w2), F(32)
        for tail_val in (lo, (lo + hi) / 2, hi):
            w = head + (tail_val, hi, lo)
            ok = ok and is_efficient(A7, w).efficient
        checks.append(Check(f"family 2, w2={w2}: extensions efficient", ok))
    return checks


def reproduce_union_route() -> list:
    """The j-route membership sets genuinely differ across j."""
    tbm = ThreeBlockMatrix(B3, 6)
    A4 = block_matrix(B3, 4)
    checks = []
    ok, j = three_block_membership(tbm, A6_U)
    checks.append(Check("u efficient with witness j=4", ok and j == 3, f"j={j}"))
    checks.append(
        Check(
            "u not in the j=5,6 routes",
            not union_route_member(A4, A6_U, 4) and not union_route_member(A4, A6_U, 5),
        )
    )
    ok, j = three_block_membership(tbm, A6_V)
    checks.append(Check("v efficient with witness j=5", ok and j == 4, f"j={j}"))
    checks.append(
        Check(
            "v not in the j=4,6 routes",
            not union_route_member(A4, A6_V, 3) and not union_route_member(A4, A6_V, 5),
        )
    )
    checks.append(
        Check(
            "heads (13,8,7) not efficient for the block",
            not is_efficient(B3, A6_U[:3]).efficient,
        )
    )
    return checks


def reproduce_profiles() -> list:
    """Subvector-efficiency profiles of the 6- and 7-dimensional instances."""
    checks = []
    checks.append(Check("ex20 w efficient", is_efficient(EX20, EX20_W).efficient))
    prof = subvector_efficiency_profile(EX20, EX20_W)
    checks.append(
        Check("ex20 profile(w) == {3,4}", prof == frozenset({2, 3}), f"{sorted(prof)}")
    )
    checks.append(Check("ex20 v efficient", is_efficient(EX20, EX20_V).efficient))
    prof = subvector_efficiency_profile(EX20, EX20_V)
    checks.append(
        Check(
            "ex20 profile(v) == {3,4,6}",
            prof == frozenset({2, 3, 5}),
            f"{sorted(prof)}",
        )
    )
    checks.append(Check("ex21 w efficient", is_efficient(EX21, EX21_W).efficient))
    prof = subvector_efficiency_profile(EX21, EX21_W)
    checks.append(
        Check("ex21 profile == {5,6}", prof == frozenset({4, 5}), f"{sorted(prof)}")
    )
    checks.append(
        Check(
            "ex21 4-block head inefficient",
            not is_efficient(EX21.submatrix(range(4)), EX21_W[:4]).efficient,
        )
    )
    checks.append(
        Check(
            "ex20 minimal perturbed block is {1,2,3,4}",
            (lambda d: d is not None and d.K == (0, 1, 2, 3))(
                detect_minimal_block(EX20)
            ),
        )
    )
    return checks


def reproduce_intervals() -> list:
    """Extension intervals on C_5(3)."""
    C5 = ConstantBlockMatrix(F(3), 5, 5).matrix()
    checks = []
    iv = extension_interval(C5, (F(7), F(3), F(2), F(1)), 4)
    checks.append(
        Check(
            "interval for (7,3,2,1) is [1/3, 7/3]",
            (iv.lo, iv.hi) == (F(1, 3), F(7, 3)),
            f"[{iv.lo}, {iv.hi}]",
        )
    )
    iv = extension_interval(C5, (F(7), F(3), F(2), F(7, 3)), 4)
    checks.append(
        Check(
            "interval for (7,3,2,7/3) is [2/3, 7/3]",
            (iv.lo, iv.hi) == (F(2, 3), F(7, 3)),
            f"[{iv.lo}, {iv.hi}]",
        )
    )
    A8 = ConstantBlockMatrix(F(3), 5, 8).matrix()
    ok = True
    for w5 in (F(1, 3), F(1), F(7, 3)):
        head = (F(7), F(3), F(2), F(1), w5)
        lo, hi = min(F(1), w5), F(7)
        for t in (lo, (lo + hi) / 2, hi):
            ok = ok and is_efficient(A8, head + (t, hi, lo)).efficient
    checks.append(Check("8-dim constant-block extensions efficient", ok))
    return checks


def reproduce_table1() -> list:
    """All eight Perron verdicts plus witness cycles for the yes rows."""
    checks = []
    for row, (a12, a13, a23, expect, cycle) in enumerate(TABLE1):
        tbm = table1_matrix(row)
        r = perron(tbm.matrix())
        verdict = perron_efficiency_via_submatrix(tbm, r)
        label = f"table row ({a12}, {a13}, {a23})"
        ok = verdict.efficient == expect and r.residual <= TOL_PERRON
        detail = f"residual={r.residual:.2e}"
        if ok and cycle is not None:
            ok = verdict.digraph.has_cycle(tuple(c - 1 for c in cycle))
            detail += f", cycle {'->'.join(map(str, cycle))}"
        checks.append(
            Check(f"{label}: {'efficient' if expect else 'inefficient'}", ok, detail)
        )
    return checks


def reproduce_examples() -> list:
    return (
        reproduce_reference_pairs()
        + reproduce_scaling_example()
        + reproduce_extension_families()
        + reproduce_union_route()
        + reproduce_profiles()
        + reproduce_intervals()
    )


def reproduce_all() -> list:
    return reproduce_table1() + reproduce_examples()
