"""Independent brute-force oracles for cross-validating the digraph test.

The grid search finitizes the dominance definition over a multiplicative
lattice around a base vector.  It is one-sided: finding a lattice point
that dominates proves inefficiency; finding none proves nothing.  Strong
connectivity remains the only efficiency proof.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .efficiency import V_DOMINATES, dominance_compare, is_efficient
from .errors import InputError
from .matrix import (
    ReciprocalMatrix,
    Scalar,
    Vector,
    check_integer,
    check_positive_vector,
    check_size,
    float_view,
    validate_reciprocal,
)

GRID_GUARD = 10_000_000
#: the float prefilter's relative and absolute slack on w's errors
_PREFILTER_REL, _PREFILTER_ABS = 1 + 1e-9, 1e-15


@dataclass(frozen=True)
class GridSpec:
    """Log-uniform lattice around a base point, first coordinate pinned.

    Per free coordinate the multipliers are rho**(k/m), k = -m..m; dominance
    is scale invariant so pinning coordinate 0 loses nothing.
    """

    base: Vector
    rho: float = 2.0
    m: int = 6

    def __post_init__(self):
        check_positive_vector(self.base, len(self.base))
        if not self.rho > 1:
            raise InputError(f"rho must exceed 1, got {self.rho}")
        if self.rho == math.inf:
            raise InputError(f"rho must be finite, got {self.rho}")
        if check_integer(self.m, "m") < 1:
            raise InputError(f"m must be >= 1, got {self.m}")

    @property
    def candidate_count(self) -> int:
        return (2 * self.m + 1) ** (len(self.base) - 1)

    def factor_values(self) -> list:
        return [self.rho ** (k / self.m) for k in range(-self.m, self.m + 1)]


def grid_dominator_search(
    A: ReciprocalMatrix, w: Sequence[Scalar], g: GridSpec
) -> Optional[Vector]:
    """First lattice point strictly dominating w, or None.

    A float prefilter keeps the points whose every error |a_ij - v_i/v_j| is
    within w's, with slack: one table per pair i < j over the pair's two
    factor indices, ANDed into one boolean lattice.  Survivors are verified
    exactly in C order of their factor indices (the float factors convert to
    rationals losslessly), so a returned vector is a true dominator and an
    efficient w can never produce one.
    """
    n = A.n
    w_kernel = A.weights(w)
    exact = type(w_kernel[0]) is Fraction
    w_arr = float_view(w_kernel, "vector entry ({})")
    check_size(g.base, n)
    wf = float_view(g.base, "vector entry ({})")
    if g.candidate_count > GRID_GUARD:
        raise InputError(
            f"{g.candidate_count} candidates exceed the {GRID_GUARD} guard"
        )
    Af, m, f = A.array, g.m, g.factor_values()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        budget = np.abs(Af - w_arr[:, None] / w_arr[None, :]) * _PREFILTER_REL + _PREFILTER_ABS
        # V[i, k] = base_i * factor_k; a value that overflows to inf or
        # underflows to 0.0 is NaN, which fails every test
        V = wf[:, None] * np.array(f)
        V[(V == 0) | (V == math.inf)] = math.nan
        fits = np.abs(Af[:, None, :, None] - V[:, :, None, None] / V) <= budget[:, None, :, None]
    # lattice axis i is coordinate i's factor index; coordinate 0 is pinned at f[m] = 1
    axes = [slice(m, m + 1)] + [slice(None)] * (n - 1)
    ok = np.ones([1] + [len(f)] * (n - 1), dtype=bool)
    for i, j in itertools.combinations(range(n), 2):
        table = fits[i, axes[i], j, axes[j]] & fits[j, axes[j], i, axes[i]].T
        shape = [1] * n
        shape[i], shape[j] = table.shape
        ok &= table.reshape(shape)
    for idx in np.flatnonzero(ok):
        ks = (m,) + np.unravel_index(idx, ok.shape)[1:]
        if exact:
            v = tuple(Fraction(b) * Fraction(f[k]) for b, k in zip(g.base, ks))
        else:
            v = tuple(V[range(n), ks].tolist())
        if dominance_compare(A, w, v) == V_DOMINATES:
            return v
    return None


@dataclass
class OracleReport:
    trials: int
    n: int
    efficient: int = 0
    inefficient: int = 0
    contradictions: list = field(default_factory=list)
    runtime_ms: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def random_pow2_instance(n: int, rng: random.Random):
    """Random exact instance with power-of-two entries and weights.

    Powers of two keep the arithmetic exact, produce plenty of boundary
    ties, and guarantee that whenever w is inefficient the grid (rho=2,
    m>=1) contains a dominating point: the source-component scaling factor
    is a power of two <= 1/2, so halving the source coordinates stays on
    the lattice.
    """
    rows = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = rng.randint(-3, 3)
            rows[i][j] = Fraction(2) ** e
            rows[j][i] = Fraction(2) ** (-e)
    w = tuple(Fraction(2) ** rng.randint(-2, 2) for _ in range(n))
    return validate_reciprocal(rows), w


def exhaustive_small_equivalence(trials: int, rng: random.Random, n: int = 3) -> OracleReport:
    """Cross-check digraph verdicts, constructed dominators, and grid search
    on the default lattice around w (rho = 2, m = 6).

    For each random instance: a digraph-inefficient verdict must carry a
    confirmed dominating vector AND the grid search must find a dominator;
    a digraph-efficient verdict must leave the grid empty-handed.  Any
    contradiction is fatal to the build.
    """
    t0 = time.perf_counter()
    report = OracleReport(trials=trials, n=n)

    def contradiction(kind: str, **vectors) -> None:
        # this trial's w, then any other vector named, as strings
        strings = {name: [str(x) for x in u] for name, u in {"w": w, **vectors}.items()}
        report.contradictions.append({"trial": trial, "kind": kind, **strings})

    for trial in range(trials):
        A, w = random_pow2_instance(n, rng)
        verdict = is_efficient(A, w)
        found = grid_dominator_search(A, w, GridSpec(w))
        if verdict.efficient:
            report.efficient += 1
            if found is not None:
                contradiction("grid dominator for digraph-efficient vector", v=found)
        else:
            report.inefficient += 1
            if dominance_compare(A, w, verdict.dominator) != V_DOMINATES:
                contradiction("constructed dominator fails dominance check")
            if found is None:
                contradiction("grid found no dominator for inefficient vector")
    report.runtime_ms = (time.perf_counter() - t0) * 1000.0
    return report
