"""Perron eigenpair computation and efficiency results for block forms.

The matrices are entry-wise positive, so the dominant eigenpair is simple, and
a relative residual below TOL_PERRON checks every result.  perron takes one of
two routes:

* An A_n(B) that records its block (block_matrix, form.matrix(), the families'
  .matrix()) with n > s and s + 1 <= MAX_QUOTIENT: its Perron vector has n - s
  equal tail entries, so its pair is that of the (s+1)-by-(s+1) quotient
  R_m = [[B, m 1], [1^T, m]], m = n - s, with the tail value repeated.  One
  eig of R_m, O(s^3 + n), and the n-by-n array is never built.
* Every other matrix, and a quotient pair that fails its checks: power
  iteration from the all-ones start, O(n^2) per step.  It fails, with
  NoConvergence, when other eigenvalues are nearly as large in modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blockpert import ConstantBlockMatrix
from .efficiency import EfficiencyVerdict, form_verdict
from .errors import InputError, InternalError, NoConvergence, PreconditionError
from .matrix import BlockPerturbedForm, ReciprocalMatrix, canonical_form, check_size

TOL_PERRON = 1e-12
#: power-iteration steps before NoConvergence
MAX_ITER = 200_000
#: steps without a new smallest residual before NoConvergence; also the window
#: over which the smallest residual's rate must promise TOL_PERRON by MAX_ITER
STALL_ITER = 10_000
#: largest quotient order s + 1 that perron solves directly
MAX_QUOTIENT = 64


@dataclass(frozen=True)
class PerronResult:
    lam: float
    w: tuple  # float entries, normalized so the last entry is 1
    residual: float
    iterations: int  # power-iteration steps; 0 when solved from the quotient


def perron(A: ReciprocalMatrix) -> PerronResult:
    """Dominant eigenpair to relative residual TOL_PERRON.

    An A_n(B) from block_matrix with n > s and s + 1 <= MAX_QUOTIENT is solved
    from its quotient (iterations == 0); the residual of the quotient pair is
    that of the n-by-n pair, since each head row of A w is a row of R_m q and
    every tail row equals the last one.  Otherwise, or if that pair is not
    positive with a residual below TOL_PERRON, power iteration from the
    all-ones vector; NoConvergence after MAX_ITER steps, after STALL_ITER
    without progress, or once the last STALL_ITER steps' progress, kept up,
    would not reach TOL_PERRON within MAX_ITER."""
    B = A.block
    if B is not None and B.n < A.n and B.n + 1 <= MAX_QUOTIENT:
        r = _quotient_pair(B.array, A.n - B.n)
        if r is not None:
            return r
    return _power_iteration(A.array)


def _quotient_pair(b: np.ndarray, m: int) -> Optional[PerronResult]:
    """The Perron pair of A_{s+m}(B) from R_m, b = B's float view, or None if
    eig's dominant pair is not positive or misses TOL_PERRON."""
    s = len(b)
    R = np.empty((s + 1, s + 1))
    R[:s, :s] = b
    R[:s, s] = R[s, s] = m
    R[s, :s] = 1.0
    try:
        values, vectors = np.linalg.eig(R)
    except np.linalg.LinAlgError:
        return None
    k = int(np.argmax(values.real))
    lam = float(values[k].real)
    q = (vectors[:, k] / vectors[s, k]).real
    if not (lam > 0 and np.isfinite(lam) and np.isfinite(q).all() and (q > 0).all()):
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # R q past the floats: rejected
        residual = float(np.max(np.abs(R @ q - lam * q) / (lam * q)))
    if not residual < TOL_PERRON:
        return None
    return PerronResult(lam, tuple(q[:s].tolist()) + (1.0,) * m, residual, 0)


def _power_iteration(M: np.ndarray) -> PerronResult:
    n = len(M)
    v = np.ones(n)
    lam_prev = 0.0
    best, best_it = np.inf, 0
    mark = np.inf  # best at the last multiple of STALL_ITER steps
    with np.errstate(over="ignore", invalid="ignore"):  # only in u and lam: checked below
        for it in range(1, MAX_ITER + 1):
            u = M @ v
            lam = u.sum() / v.sum()
            if not math.isfinite(lam):  # an entry of u is inf or NaN, or their sum overflows
                raise NoConvergence(f"power iteration left the floats in {it} steps")
            residual = float(np.max(np.abs(u - lam * v) / (lam * v)))
            if residual < TOL_PERRON and abs(lam - lam_prev) < TOL_PERRON * lam:
                w = u / u[-1]
                return PerronResult(float(lam), tuple(w.tolist()), residual, it)
            if residual < best:
                best, best_it = residual, it
            elif it - best_it >= STALL_ITER:
                break
            if it % STALL_ITER == 0:
                if _too_slow(mark, best, it):
                    break
                mark = best
            lam_prev = lam
            v = u / u[-1]
    raise NoConvergence(f"power iteration did not reach {TOL_PERRON} in {it} steps "
                        f"(smallest residual {best:.3g})")


def _too_slow(mark: float, best: float, it: int) -> bool:
    """At step it, a multiple of STALL_ITER: True if the smallest residual,
    falling from mark to best over the last STALL_ITER steps, would not reach
    TOL_PERRON within MAX_ITER at that geometric rate."""
    if not (TOL_PERRON < best < mark < np.inf):
        return False
    rate = math.log(best / mark) / STALL_ITER  # < 0: log residual per step
    return math.log(TOL_PERRON / best) / rate > MAX_ITER - it


@dataclass(frozen=True)
class TailStructure:
    ok: bool


def perron_tail_structure(form: BlockPerturbedForm, r: PerronResult) -> TailStructure:
    """Eigenvectors of A_n(B) have equal trailing n - s entries: their spread is
    at most 10 * TOL_PERRON relative to the largest (vacuous for n <= s + 1)."""
    check_size(r.w, form.n)
    tail = r.w[form.s :]
    hi = max(tail, default=0.0)
    return TailStructure(bool(hi - min(tail, default=hi) <= 10 * TOL_PERRON * hi))


def perron_efficiency_via_submatrix(
    form: BlockPerturbedForm, r: PerronResult
) -> EfficiencyVerdict:
    """Verdict from the leading (s+1)-by-(s+1) pair only, A_{s+1}(B) and
    r.w[:s+1], by form_verdict; by the equal-tail structure it equals the
    full-matrix verdict."""
    if not perron_tail_structure(form, r).ok:
        raise PreconditionError("Perron tail entries are not equal within tolerance")
    return form_verdict(canonical_form(form.block, form.s + 1), r.w[: form.s + 1])


@dataclass(frozen=True)
class ThreeBlockPerronConditions:
    a12: float
    a13: float
    a23: float
    q: float
    matched: Optional[str]  # None | "cond1" | "cond2" | "cond3"


def three_block_sufficient(B: ReciprocalMatrix) -> ThreeBlockPerronConditions:
    """Sufficient conditions for the Perron eigenvector of A_n(B) to be efficient, every
    n >= 4, read on the block of canonical_form(B, 3).oriented(), where a13 >= 1."""
    if B.n != 3:
        raise InputError("need a 3-by-3 block")
    B = canonical_form(B, 3).oriented().block
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

    On M.oriented(), C_s(1/x) when x < 1, asserts equal tails and the proof's
    witness cycle s+1 -> s -> ... -> 1 -> s+1 in the digraph of the leading
    (s+1)-pair verdict, edge by edge (its adj is not built); a missing edge
    signals a bug.
    """
    if M.n <= M.s:
        raise PreconditionError("need n > s for the Perron check")
    form = M.oriented()
    verdict = perron_efficiency_via_submatrix(form, perron(form.matrix()))
    if not verdict.digraph.has_cycle(tuple(range(M.s, -1, -1))):  # s -> ... -> 0 -> s
        raise InternalError(f"witness cycle missing for x={M.x}, s={M.s}, n={M.n}")
    return verdict
