"""Spans around the benchmark's calls into effvec, kept in memory.

Every call an op makes into a public effvec function goes through
``t.call(layer, fn, *args, inner=...)``.  With :class:`Direct` (the
set-up probe, the untraced half of a traced run) and :class:`Scaled` (the
end-to-end run) that is a plain call.  With :class:`Tracer` (the traced
run) it records a span and then runs ``inner(t, result)``: trace-only work
that re-times, on the same inputs, the public functions the call runs
internally, and reads counters off the returned objects.  The re-timed
spans are children of the call's span, so the call's self time is its
duration minus theirs.  Time spent in ``inner`` is excluded from the op's
busy time.
"""

from __future__ import annotations

import gc
import json
from collections import Counter, defaultdict
from time import perf_counter

import speed

#: Scaled starts a new segment at a call boundary once the current one is this long
SEGMENT_S = 0.02


class Direct:
    """No tracing: calls go straight to the program."""

    tracing = False

    @staticmethod
    def call(layer, fn, *args, inner=None):
        return fn(*args)

    @staticmethod
    def op(kind, fn, *args):
        t0 = perf_counter()
        result = fn(*args)
        return result, perf_counter() - t0


class Scaled:
    """No tracing; an op's latency is scaled to the reference speed.

    The op's time is cut into segments at call boundaries, once a segment
    has lasted SEGMENT_S, and each segment is scaled by the speed samples
    taken at its two ends (see speed.py).  Long ops thus follow the speed
    changes that happen while they run; short ops get one segment.  The
    samples themselves are not timed.
    """

    tracing = False

    def __init__(self):
        #: unscaled seconds inside ops, all ops
        self.raw_s = 0.0
        self._scaled = 0.0
        self._sample = 0.0
        self._mark = 0.0

    def _cut(self, force=False):
        elapsed = perf_counter() - self._mark
        if elapsed < SEGMENT_S and not force:
            return
        after = speed.sample()
        self.raw_s += elapsed
        self._scaled += speed.scale(elapsed, self._sample, after)
        self._sample = after
        self._mark = perf_counter()

    def call(self, layer, fn, *args, inner=None):
        self._cut()
        result = fn(*args)
        self._cut()
        return result

    def op(self, kind, fn, *args):
        self._scaled = 0.0
        self._sample = speed.sample()
        self._mark = perf_counter()
        result = fn(*args)
        self._cut(force=True)
        return result, self._scaled


class Tracer:
    """Records spans [name, start, end, parent, op id, replay] and counters."""

    tracing = True

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.maxima: dict = defaultdict(float)
        self.op_busy: list = []
        self._stack: list = []
        self._op = None
        self._replay_depth = 0
        self._inner_s = 0.0
        self._gc_start = 0.0

    def call(self, layer, fn, *args, inner=None):
        rec = [layer, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op,
               self._replay_depth > 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            rec[1] = perf_counter()
            result = fn(*args)
            rec[2] = t1 = perf_counter()
            if inner is not None:
                self._replay_depth += 1
                try:
                    inner(self, result)
                finally:
                    self._replay_depth -= 1
                    if not self._replay_depth:
                        self._inner_s += perf_counter() - t1
            return result
        finally:
            self._stack.pop()

    def op(self, kind, fn, *args):
        """Run one op under a root span; returns (result, busy seconds)."""
        self._op = len(self.op_busy)
        self._inner_s = 0.0
        rec = [f"op.{kind}", 0.0, 0.0, None, self._op, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            rec[1] = perf_counter()
            result = fn(*args)
            rec[2] = perf_counter()
        finally:
            self._stack.pop()
        busy = rec[2] - rec[1] - self._inner_s
        self.op_busy.append(busy)
        return result, busy

    def count(self, name, value=1):
        self.counts[name] += value

    def peak(self, name, value):
        self.maxima[name] = max(self.maxima[name], value)

    # garbage-collector pauses, read through gc.callbacks
    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.counts["python.gc_pause_s"] += perf_counter() - self._gc_start
            self.counts["python.gc_collections"] += 1

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)

    def layer_times(self):
        """(busy, self, calls) per layer name; op root spans excluded."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        busy, own, calls = Counter(), Counter(), Counter()
        for idx, (name, start, end, parent, _, _) in enumerate(self.spans):
            if parent is None:
                continue
            busy[name] += end - start
            own[name] += end - start - child_s[idx]
            calls[name] += 1
        return busy, own, calls

    def write(self, path):
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, op, replay) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent, "op": op,
                                     "replay": replay}) + "\n")
