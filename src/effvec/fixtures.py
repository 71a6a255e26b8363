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
                        three_by_three_is_efficient, union_route_member)
from .efficiency import (equal_tail_reduce, extension_interval, is_efficient,
                         subvector_efficiency_profile)
from .matrix import (
    MonomialSimilarity,
    ReciprocalMatrix,
    apply_similarity,
    block_matrix,
    canonical_form,
    check_positive_scalar,
    detect_minimal_block,
    is_block_perturbation,
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


def _verdicts(*rows) -> list:
    """One check per (name, matrix, vector, expected efficiency) row, by
    is_efficient and, on a 3-by-3 matrix, by the paper's 3-by-3 description."""
    return [Check(name, is_efficient(A, w).efficient == expect
                  and (A.n != 3 or three_by_three_is_efficient(A, w) == expect))
            for name, A, w, expect in rows]


def _extensions(name: str, A: ReciprocalMatrix, heads, block=None) -> Check:
    """Every (head, ends) of heads, with ends the bounds lo and hi in some
    order, extends to vectors efficient for A: head, then t = lo, (lo + hi) / 2
    or hi, then ends.  Given block, each head is first checked efficient for it."""

    def extends(head, ends) -> bool:
        lo, hi = sorted(ends)
        return (block is None or is_efficient(block, head).efficient) and all(
            is_efficient(A, head + (t,) + ends).efficient for t in (lo, (lo + hi) / 2, hi))

    return Check(name, all(extends(head, ends) for head, ends in heads))


def reproduce_reference_pairs() -> list:
    """Efficient/inefficient vector pairs on the 4-by-4 reference matrix."""
    return _verdicts(
        ("reference (3,2,1,2) efficient", CC, (3, 2, 1, 2), True),
        ("reference (3,2,1) inefficient on leading 3-by-3", B3, (3, 2, 1), False),
        ("column 1 of the leading 3-by-3 efficient for it", B3, B3.column(0), True),
    )


def reproduce_scaling_example() -> list:
    """Diagonal-similarity transport of efficient vectors."""
    inv = MonomialSimilarity.scaling(tuple(1 / d for d in D_SCALED))
    return [
        Check("D^{-1} B D recovers the reference matrix",
              apply_similarity(B_SCALED, inv).entries == CC.entries)
    ] + _verdicts(
        ("(15,8,8,12) efficient for C", CC, (15, 8, 8, 12), True),
        ("scaled image (15,16,32,24) efficient for B", B_SCALED, (15, 16, 32, 24), True),
    )


def reproduce_extension_families() -> list:
    """Closed families of efficient extensions of the scaled block."""
    A7 = block_matrix(B_SCALED, 7)
    family1 = [(f"family 1, w1={x}", (x, F(8), F(24), F(10)), (min(F(8), x), F(24)))
               for x in (F(5), F(10), F(18))]
    family2 = [(f"family 2, w2={x}", (F(15), 2 * x, F(32), F(24)), (F(32), min(F(15), 2 * x)))
               for x in (F(4), F(8), F(12))]
    return [_extensions(f"{name}: extensions efficient", A7, [(head, ends)], B_SCALED)
            for name, head, ends in family1 + family2]


def reproduce_union_route() -> list:
    """The j-route membership sets genuinely differ across j."""
    tbm = ThreeBlockMatrix(B3, 6)
    checks = []
    # (name, vector, its smallest witness j, two routes j it is not in), j 1-based
    for name, w, witness, routes in (("u", A6_U, 4, (5, 6)), ("v", A6_V, 5, (4, 6))):
        ok, j = three_block_membership(tbm, w)
        checks.append(Check(f"{name} efficient with witness j={witness}",
                            ok and j + 1 == witness, f"j={j + 1}" if ok else "no witness"))
        checks.append(Check(f"{name} not in the j={routes[0]},{routes[1]} routes",
                            not any(union_route_member(tbm, w, k - 1) for k in routes)))
    # the equal-tail lemma: deleting one of two equal tail entries keeps the verdict
    u, v = (equal_tail_reduce(canonical_form(B3, 6), w) for w in (A6_U, A6_V))
    return checks + _verdicts(("heads (13,8,7) not efficient for the block", B3, A6_U[:3], False),
                              ("u without an equal tail entry efficient for A_5", *u, True),
                              ("v without an equal tail entry efficient for A_5", *v, True))


def reproduce_profiles() -> list:
    """Subvector-efficiency profiles of the 6- and 7-dimensional instances."""
    checks = []
    # (verdict label, profile label, matrix, vector, its profile 1-based)
    for label, profile, A, w, expect in (
        ("ex20 w", "ex20 profile(w)", EX20, EX20_W, (3, 4)),
        ("ex20 v", "ex20 profile(v)", EX20, EX20_V, (3, 4, 6)),
        ("ex21 w", "ex21 profile", EX21, EX21_W, (5, 6)),
    ):
        prof = sorted(k + 1 for k in subvector_efficiency_profile(A, w))
        checks += _verdicts((f"{label} efficient", A, w, True))
        checks.append(Check(f"{profile} == {{{','.join(map(str, expect))}}}",
                            prof == list(expect), f"{prof}"))
    checks += _verdicts(
        ("ex21 4-block head inefficient", EX21.submatrix(range(4)), EX21_W[:4], False))
    detected = detect_minimal_block(EX20)
    return checks + [Check("ex20 minimal perturbed block is {1,2,3,4}",
                           detected is not None and detected.K == (0, 1, 2, 3)),
                     Check("ex20 block perturbation on {1,2,3,4}, not on {1,2,3}",
                           detected is not None and is_block_perturbation(EX20, range(3)) is None
                           and is_block_perturbation(EX20, range(4)) == detected.form)]


def reproduce_intervals() -> list:
    """Extension intervals on C_5(3)."""
    C5 = ConstantBlockMatrix(F(3), 5, 5).matrix()
    checks = []
    for w, lo, hi in (((F(7), F(3), F(2), F(1)), F(1, 3), F(7, 3)),
                      ((F(7), F(3), F(2), F(7, 3)), F(2, 3), F(7, 3))):
        iv = extension_interval(C5, w, 4)
        checks.append(Check(f"interval for ({','.join(map(str, w))}) is [{lo}, {hi}]",
                            (iv.lo, iv.hi) == (lo, hi), f"[{iv.lo}, {iv.hi}]"))
    A8 = ConstantBlockMatrix(F(3), 5, 8).matrix()
    heads = [((F(7), F(3), F(2), F(1), x), (F(7), min(F(1), x))) for x in (F(1, 3), F(1), F(7, 3))]
    return checks + [_extensions("8-dim constant-block extensions efficient", A8, heads)]


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
