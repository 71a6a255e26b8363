"""Seeded inputs for the three benchmark workloads.

Standard library only: importing this module must not import effvec or
numpy, so that the set-up probe can time ``import effvec`` on its own.

A workload's inputs are a fixed list of *rounds*.  Every round holds the
same sequence of op kinds and sizes with fresh random values, so a run that
stops at a round boundary always executes the workload's exact input mix.
Each op carries the verdict it must produce: known by construction, or
computed here by :func:`reference_efficient`, which shares no code with the
program.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction as F
from typing import NamedTuple, Optional

WORKLOADS = ("check-float-large", "sweep-exact-small", "perron-blocks")

#: per-size parameters; "smoke" runs every workload in a few seconds
SIZES = {
    "full": {
        "float_n": (128, 1024),
        "sweep_rounds": 40,
        "perron_rounds": 2,
        "perron_n": (64, 256),
        "setup_repeats": 9,
    },
    "smoke": {
        "float_n": (16, 32),
        "sweep_rounds": 2,
        "perron_rounds": 1,
        "perron_n": (12, 16),
        "setup_repeats": 1,
    },
}


class Op(NamedTuple):
    kind: str
    args: tuple
    #: verdict the op must report; None where the check is a cross-check only
    expect: Optional[bool]


def reference_efficient(rows, w) -> bool:
    """Independent efficiency test: G(A, w) strongly connected, exact arithmetic."""
    n = len(rows)
    succ = [[j for j in range(n) if j != i and w[i] >= rows[i][j] * w[j]] for i in range(n)]
    pred = [[i for i in range(n) if j in succ[i]] for j in range(n)]
    return _reaches_all(succ) and _reaches_all(pred)


def _reaches_all(adj) -> bool:
    seen = {0}
    todo = [0]
    while todo:
        for j in adj[todo.pop()]:
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return len(seen) == len(adj)


# ---------------------------------------------------------------------------
# scalar and matrix helpers (exact)


def digit_ratio(rng: random.Random) -> F:
    """p/q with single-digit p, q, never 1."""
    while True:
        p, q = rng.randint(1, 9), rng.randint(1, 9)
        if p != q:
            return F(p, q)


def pow2(rng: random.Random, lo: int, hi: int) -> F:
    return F(2) ** rng.randint(lo, hi)


def reciprocal_rows(n: int, entry) -> list:
    rows = [[F(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = entry()
            rows[i][j] = x
            rows[j][i] = 1 / x
    return rows


def block_rows(B: list, n: int) -> list:
    """A_n(B): B in the leading corner, 1 elsewhere."""
    s = len(B)
    return [[B[i][j] if i < s and j < s else F(1) for j in range(n)] for i in range(n)]


def constant_block_rows(x: F, s: int) -> list:
    return [[x if j > i else (1 / x if j < i else F(1)) for j in range(s)] for i in range(s)]


def two_block_rows(x: F, n: int) -> list:
    rows = [[F(1)] * n for _ in range(n)]
    rows[0][1], rows[1][0] = x, 1 / x
    return rows


def scramble(rows: list, diag: list, perm: list) -> list:
    """P D A D^-1 P^T: entry (perm[i], perm[j]) = d_i a_ij / d_j."""
    n = len(rows)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = diag[i] * rows[i][j] / diag[j]
    return out


def _vector_for(rng, rows, target: bool, factor) -> tuple:
    """A column of A, some entries multiplied by factor(); retried until the
    reference verdict equals target.  Columns give boundary ties."""
    n = len(rows)
    while True:
        k = rng.randrange(n)
        w = [rows[i][k] * (factor() if rng.random() < 2 / n else 1) for i in range(n)]
        if reference_efficient(rows, w) == target:
            return tuple(w)


def _random_vector(rng, rows, target: bool) -> tuple:
    n = len(rows)
    while True:
        w = tuple(F(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n))
        if reference_efficient(rows, w) == target:
            return w


# ---------------------------------------------------------------------------
# check-float-large


def float_case(rng: random.Random, n: int, efficient: bool) -> Op:
    """CSV text of a random float reciprocal matrix and of a vector.

    Efficient: a column k of A.  Inefficient: the column with one entry i
    scaled above max_j a_ij * w_j, which makes {i} a source component.
    """
    span = math.log(9.0)
    a = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = math.exp(rng.uniform(-span, span))
            a[i][j] = x
            a[j][i] = 1.0 / x
    k = rng.randrange(n)
    w = [a[i][k] for i in range(n)]
    if not efficient:
        i = (k + rng.randrange(1, n)) % n
        w[i] = max(a[i][j] * w[j] for j in range(n) if j != i) * rng.uniform(1.01, 2.0)
    text = "\n".join(",".join(map(repr, row)) for row in a)
    return Op("float_check", (text, ",".join(map(repr, w))), efficient)


def check_float_rounds(rng: random.Random, size: dict) -> list:
    """One round: 8 ops at the small n and 2 at the large n, half efficient."""
    small, large = size["float_n"]
    ops = []
    for n in (small, small, small, small, large) * 2:
        ops.append(float_case(rng, n, efficient=len(ops) % 2 == 0))
    return [ops]


# ---------------------------------------------------------------------------
# sweep-exact-small


def grid_case(rng, n: int, style: str, efficient: bool) -> Op:
    if style == "pow2":
        rows = reciprocal_rows(n, lambda: pow2(rng, -3, 3))
        factor = lambda: pow2(rng, -1, 1)  # noqa: E731
    else:
        rows = reciprocal_rows(n, lambda: digit_ratio(rng))
        factor = lambda: digit_ratio(rng)  # noqa: E731
    return Op("grid", (rows, _vector_for(rng, rows, efficient, factor)), efficient)


def oracle_case(rng, n: int, efficient: bool) -> Op:
    """Power-of-two instance: an inefficient w has a dominator on the rho=2 grid."""
    rows = reciprocal_rows(n, lambda: pow2(rng, -3, 3))
    while True:
        w = tuple(pow2(rng, -2, 2) for _ in range(n))
        if reference_efficient(rows, w) == efficient:
            return Op("oracle", (rows, w), efficient)


def two_block_case(rng, n: int, member: bool) -> Op:
    x = digit_ratio(rng)
    rows = two_block_rows(x, n)
    if member:
        # the chain w_2 <= w_3..w_n <= w_1 <= x w_2 (reversed when x < 1),
        # on a grid that hits both ends of each interval
        lo, hi = sorted((F(1), x))
        w1 = lo + (hi - lo) * F(rng.randint(0, 8), 8)
        lo, hi = sorted((F(1), w1))
        w = (w1, F(1)) + tuple(lo + (hi - lo) * F(rng.randint(0, 8), 8) for _ in range(n - 2))
    else:
        w = _random_vector(rng, rows, False)
    return Op("two_block", (x, n, w), reference_efficient(rows, w))


def three_block_case(rng, n: int, sampled: bool) -> Op:
    a12, a13, a23 = digit_ratio(rng), digit_ratio(rng), digit_ratio(rng)
    B = [[F(1), a12, a13], [1 / a12, F(1), a23], [1 / a13, 1 / a23, F(1)]]
    if sampled:
        seeds = [tuple(digit_ratio(rng) for _ in range(4)) for _ in range(3)]
        seeds.append(tuple(r[0] for r in block_rows(B, 4)))  # a column: always efficient
        return Op("three_block_sampled", (B, n, tuple(seeds), rng.getrandbits(32)), True)
    return Op("three_block", (B, n, _random_vector(rng, block_rows(B, n), False)), False)


def lcompl_case(rng, s: int, n: int, sampled: bool) -> Op:
    B = reciprocal_rows(s, lambda: digit_ratio(rng))
    k = rng.randrange(s)
    if sampled:
        return Op("lcompl_sampled", (B, n, k, rng.getrandbits(32)), True)
    head = [B[i][k] for i in range(s)]
    lo, hi = min(head), max(head)
    tail = [lo + (hi - lo) * F(rng.randint(0, 8), 8) for _ in range(n - s)]
    out = rng.randrange(n - s)
    tail[out] = hi * F(rng.randint(10, 19), 9) if rng.random() < 0.5 else lo * F(9, rng.randint(10, 19))
    w = tuple(head + tail)
    return Op("lcompl", (B, n, w), reference_efficient(block_rows(B, n), w))


def constant_block_case(rng, s: int, n: int, sampled: bool) -> Op:
    x = digit_ratio(rng)
    if sampled:
        return Op("constant_sampled", (x, s, n, rng.getrandbits(32)), True)
    rows = block_rows(constant_block_rows(x, s), n)
    return Op("constant", (x, s, n, _random_vector(rng, rows, False)), False)


def sweep_rounds(rng: random.Random, size: dict) -> list:
    """Each round: 8 grid ops (n = 3..9), 8 block-family ops, 8 oracle ops."""
    rounds = []
    for _ in range(size["sweep_rounds"]):
        ops = []
        for idx, n in enumerate((3, 4, 5, 6, 7, 8, 9, 6)):
            ops.append(grid_case(rng, n, ("pow2", "digit")[idx % 2], idx // 2 % 2 == 0))
        for member in (True, False):
            ops.append(two_block_case(rng, rng.randint(3, 12), member))
            ops.append(three_block_case(rng, rng.randint(4, 12), member))
            ops.append(lcompl_case(rng, 3 + member, rng.randint(5, 12), member))
            ops.append(constant_block_case(rng, rng.randint(3, 5), rng.randint(6, 12), member))
        for idx in range(8):
            ops.append(oracle_case(rng, 3 + idx % 2, idx // 2 % 2 == 0))
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------
# perron-blocks


def _inconsistent_block(rng, s: int) -> list:
    return reciprocal_rows(s, lambda: digit_ratio(rng))


def detect_case(rng, n: int, s: int) -> Op:
    """A_n(B) scrambled by a random monomial similarity."""
    B = _inconsistent_block(rng, s)
    perm = list(range(n))
    rng.shuffle(perm)
    diag = [pow2(rng, -2, 2) * rng.randint(1, 3) for _ in range(n)]
    return Op("detect", (scramble(block_rows(B, n), diag, perm), s), None)


def perron_rounds(rng: random.Random, size: dict) -> list:
    """Each round: 4 detection ops at n = 6..8, 6 block ops at the mid n,
    4 at the large n, and 4 constant-block ops at the mid n (a quarter of
    the large-n ops).  The median op falls in the middle of the mid-n block
    ops and the tail among the large ones, away from the detection ops,
    whose cost depends on where the scrambling put the block."""
    mid, large = size["perron_n"]
    rounds = []
    for _ in range(size["perron_rounds"]):
        ops = [detect_case(rng, n, s) for n, s in ((6, 3), (7, 4), (8, 5), (8, 3))]
        for n, s in ((mid, 3), (mid, 4), (mid, 5)) * 2 + tuple((large, s) for s in (3, 4, 5, 4)):
            ops.append(Op("block", (_inconsistent_block(rng, s), n), None))
        for _ in range(4):
            ops.append(Op("constant_perron", (digit_ratio(rng), 4, mid), True))
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def make_rounds(workload: str, seed: int, size: str = "full") -> list:
    build = {
        "check-float-large": check_float_rounds,
        "sweep-exact-small": sweep_rounds,
        "perron-blocks": perron_rounds,
    }[workload]
    return build(_rng(workload, seed), SIZES[size])


def smallest_op(workload: str, seed: int, index: int, size: str = "full") -> Op:
    """The workload's cheapest op kind, used as the set-up warm-up; each
    set-up sample `index` gets its own input."""
    rng = random.Random(f"{workload}:{seed}:setup{index}")
    if workload == "check-float-large":
        return float_case(rng, SIZES[size]["float_n"][0], True)
    if workload == "sweep-exact-small":
        return grid_case(rng, 3, "pow2", True)
    return detect_case(rng, 6, 3)


def digest(rounds: list) -> str:
    """sha256 over every op's kind, arguments and expected verdict."""
    h = hashlib.sha256()
    for ops in rounds:
        for op in ops:
            h.update(op.kind.encode())
            for arg in op.args:
                h.update(arg.encode() if isinstance(arg, str) else repr(arg).encode())
            h.update(repr(op.expect).encode())
    return "sha256:" + h.hexdigest()
