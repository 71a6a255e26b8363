"""One set-up sample, run in a fresh process by run.py.

Usage: python3 bench/setup_probe.py WORKLOAD SEED INDEX SIZE

Generates the workload's smallest input first (not timed), then times
``import effvec`` plus one warm-up op on that input and prints the
seconds at the reference speed (see speed.py).  Exits non-zero if the
warm-up op fails its check.
"""

import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import inputs  # noqa: E402  (standard library only)
import speed  # noqa: E402  (standard library only)

workload, seed, index, size = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
op = inputs.smallest_op(workload, seed, index, size)

before = speed.sample()
t0 = time.perf_counter()
import effvec  # noqa: E402,F401
import ops  # noqa: E402
from tracer import Direct  # noqa: E402

result = ops.run(Direct, op)
elapsed = time.perf_counter() - t0
after = speed.sample()

if not ops.check(op, result):
    sys.exit(f"warm-up {op.kind} op gave a wrong result")
print(repr(speed.scale(elapsed, before, after)))
