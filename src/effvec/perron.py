"""Perron eigenpair computation and efficiency results for block forms.

Power iteration from the all-ones start: the matrices are entry-wise positive,
so the dominant eigenpair is simple, and the residual checks every result.  It
fails, with NoConvergence, when other eigenvalues are nearly as large in modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .blockpert import ConstantBlockMatrix
from .efficiency import EfficiencyVerdict, is_efficient
from .errors import InputError, InternalError, NoConvergence, PreconditionError
from .matrix import BlockPerturbedForm, ReciprocalMatrix, block_matrix, canonical_form

TOL_PERRON = 1e-12
#: power-iteration steps before NoConvergence
MAX_ITER = 200_000
#: steps without a new smallest residual before NoConvergence
STALL_ITER = 10_000


@dataclass(frozen=True)
class PerronResult:
    lam: float
    w: tuple  # float entries, normalized so the last entry is 1
    residual: float
    iterations: int


def perron(A: ReciprocalMatrix) -> PerronResult:
    """Dominant eigenpair by power iteration from the all-ones vector, to relative
    residual TOL_PERRON; NoConvergence after MAX_ITER steps or STALL_ITER without progress."""
    M = A.array
    n = A.n
    v = np.ones(n)
    lam_prev = 0.0
    best, best_it = np.inf, 0
    for it in range(1, MAX_ITER + 1):
        u = M @ v
        lam = u.sum() / v.sum()
        residual = float(np.max(np.abs(u - lam * v) / (lam * v)))
        if residual < TOL_PERRON and abs(lam - lam_prev) < TOL_PERRON * lam:
            w = u / u[-1]
            return PerronResult(float(lam), tuple(w), residual, it)
        if residual < best:
            best, best_it = residual, it
        elif it - best_it >= STALL_ITER:
            break
        lam_prev = lam
        v = u / u[-1]
    raise NoConvergence(f"power iteration did not reach {TOL_PERRON} in {it} steps "
                        f"(smallest residual {best:.3g})")


@dataclass(frozen=True)
class TailStructure:
    ok: bool


def perron_tail_structure(form: BlockPerturbedForm, r: PerronResult) -> TailStructure:
    """Eigenvectors of A_n(B) have equal trailing n - s entries: their spread is
    at most 10 * TOL_PERRON relative to the largest (vacuous for n <= s + 1)."""
    tail = r.w[form.s :]
    hi = max(tail, default=0.0)
    return TailStructure(bool(hi - min(tail, default=hi) <= 10 * TOL_PERRON * hi))


def perron_efficiency_via_submatrix(
    form: BlockPerturbedForm, r: PerronResult
) -> EfficiencyVerdict:
    """Verdict from the leading (s+1)-by-(s+1) pair only; by the equal-tail
    structure it equals the full-matrix verdict."""
    if not perron_tail_structure(form, r).ok:
        raise PreconditionError("Perron tail entries are not equal within tolerance")
    return is_efficient(block_matrix(form.block, form.s + 1), r.w[: form.s + 1])


@dataclass(frozen=True)
class ThreeBlockPerronConditions:
    a12: float
    a13: float
    a23: float
    q: float
    matched: Optional[str]  # None | "cond1" | "cond2" | "cond3"


def three_block_sufficient(B: ReciprocalMatrix) -> ThreeBlockPerronConditions:
    """Sufficient conditions for the Perron eigenvector of A_n(B) to be efficient, every
    n >= 4.  They read B on its a13 >= 1 orientation: reversed, B[(2, 1, 0)], if a13 < 1."""
    if B.n != 3:
        raise InputError("need a 3-by-3 block")
    if B[0, 2] < 1:
        B = B.submatrix((2, 1, 0))
    a12, a13, a23 = B[0, 1], B[0, 2], B[1, 2]
    q = a13 - a23 * a12
    if a12 >= 1 and a23 >= 1 and q <= 0:
        matched = "cond1"
    elif a12 >= 1 and a23 <= 1 and q >= 0:
        matched = "cond2"
    elif a12 <= 1 and a23 >= 1 and q >= 0:
        matched = "cond3"
    else:
        matched = None
    return ThreeBlockPerronConditions(a12, a13, a23, q, matched)


def constant_block_perron_check(M: ConstantBlockMatrix) -> EfficiencyVerdict:
    """The Perron eigenvector of A_n(C_s(x)) is always efficient.

    On the x >= 1 orientation (C_s(1/x) when x < 1), asserts equal tails and
    the proof's witness cycle s+1 -> s -> ... -> 1 -> s+1 in the digraph of
    the leading (s+1)-pair verdict; a missing edge signals a bug.
    """
    if M.n <= M.s:
        raise PreconditionError("need n > s for the Perron check")
    Mn = ConstantBlockMatrix(M.x if M.x >= 1 else 1 / M.x, M.s, M.n)
    form = canonical_form(Mn.block(), Mn.n)
    verdict = perron_efficiency_via_submatrix(form, perron(form.matrix()))
    if not verdict.digraph.has_cycle(tuple(range(Mn.s, -1, -1))):  # s -> ... -> 0 -> s
        raise InternalError(
            f"witness cycle missing for x={M.x}, s={M.s}, n={M.n}"
        )
    return verdict
