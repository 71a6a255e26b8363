"""effvec benchmark: one workload, one seed, one closed-loop client.

Usage (from the repository root):

    python3 bench/run.py --workload check-float-large --seed 1 --seconds 25 --trace 0

Runs the fixture correctness gate, then the workload's seed-determined op
list in order, one op at a time, in whole passes over the list, for about
--seconds (at least MIN_PASSES passes).  Each op's latency is its median
over the passes, scaled to a reference machine speed (see speed.py and
tracer.Scaled).  --trace 0 prints the end-to-end metrics; --trace 1 runs
the list untraced and then traced and prints the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The full record, with the
environment and the input digest, goes to bench/out/; traced runs also
write their spans there.  See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

#: every op of an end-to-end run runs at least this many times
MIN_PASSES = 3
#: op_tail_ms is this percentile of the per-op latencies
TAIL_PERCENTILE = 90


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed gate)."""


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "effvec", "__init__.py")):
        raise BenchError(f"effvec sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import effvec  # noqa: F401


def correctness_gate() -> int:
    from effvec import fixtures

    checks = fixtures.reproduce_all()
    bad = [c.name for c in checks if not c.ok]
    if bad:
        raise BenchError(f"fixture gate failed: {', '.join(bad)}")
    return len(checks)


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "gc_thresholds": list(gc.get_threshold()),
    }


# ---------------------------------------------------------------------------
# measurement


def setup_seconds(workload: str, seed: int, size: str, repeats: int) -> list:
    """Seconds of import effvec + one warm-up op, each sample in a fresh process."""
    samples = []
    for index in range(repeats):
        cmd = [sys.executable, os.path.join(BENCH, "setup_probe.py"), workload, str(seed),
               str(index), size]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed: {out.stderr.strip()}")
        samples.append(float(out.stdout.split()[-1]))
    return samples


class Measurement:
    def __init__(self, n_ops: int):
        #: per op of the list, its latencies over the passes (seconds)
        self.samples: list = [[] for _ in range(n_ops)]
        self.completed = 0
        self.attempted = 0
        self.failures: list = []
        self.passes = 0

    def latencies(self) -> list:
        """Per-op median latencies; an op that never completed has none."""
        return [statistics.median(xs) for xs in self.samples if xs]


def measure(op_list: list, t, seconds: float, min_passes: int = MIN_PASSES) -> Measurement:
    """Run the op list in order, in whole passes, keeping every op's
    latencies as `t` measures them.  After `min_passes` passes, no pass is
    started that the last pass's duration says would end after `seconds`."""
    import ops

    m = Measurement(len(op_list))
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for i, op in enumerate(op_list):
            m.attempted += 1
            result = None  # drop the previous op's output before timing the next
            try:
                result, latency = t.op(op.kind, ops.run, t, op)
                ok = ops.check(op, result)
            except Exception as exc:  # an op that raises is counted as failed
                m.failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            m.samples[i].append(latency)
            m.completed += 1
            if not ok:
                m.failures.append(f"{op.kind}: result does not match the expected verdict")
        m.passes += 1
        now = perf_counter()
        if m.passes >= min_passes and 2 * now - pass_start - start > seconds:
            return m


def percentile(xs: list, p: float) -> float:
    """Linear interpolation between closest ranks of sorted xs."""
    k = (len(xs) - 1) * p / 100
    lo, hi = math.floor(k), math.ceil(k)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def ops_per_s(latencies: list) -> float:
    """Ops per second of a client that runs the ops back to back."""
    return len(latencies) / sum(latencies) if latencies else 0.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(m: Measurement, setup: list, raw_s: float) -> tuple:
    """(metrics for the result line, details for the report); `raw_s` is
    the run's unscaled time inside ops."""
    lat = sorted(m.latencies())
    if not lat:
        raise BenchError("no op completed: " + "; ".join(m.failures[:3]))
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "ops_per_s": _metric(ops_per_s(lat), "ops/s"),
        "op_p50_ms": _metric(statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": _metric(percentile(lat, TAIL_PERCENTILE) * 1e3, "ms"),
        "rss_peak_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "fail_ratio": _metric(len(m.failures) / m.attempted, "1"),
        "ops_per_s_unscaled": _metric(_ratio(m.completed, raw_s), "ops/s"),
        "samples": {"setup_s": len(setup), "ops": len(lat), "passes": m.passes,
                    "latencies": m.completed},
        "op_tail_percentile": TAIL_PERCENTILE,
    }
    return metrics, details


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tr, untraced: Measurement, traced: Measurement) -> dict:
    """Per-layer metrics from the spans of `traced.passes` whole passes.

    Times and counts are per pass of the op list, so they compare across
    commits; ratios and means are over all calls.
    """
    busy, own, calls = tr.layer_times()
    c, p = tr.counts, traced.passes
    fast, slow = ops_per_s(untraced.latencies()), ops_per_s(traced.latencies())
    is_eff_calls = calls["efficiency.is_efficient"]
    m = {}
    for layer in ("io.parse_vector", "matrix.validate", "matrix.block_matrix", "matrix.detect",
                  "efficiency.build_digraph", "efficiency.scc", "efficiency.dominator",
                  "efficiency.dominance_compare", "efficiency.report", "blockpert.membership",
                  "blockpert.sampler", "perron.power", "perron.tail_check", "perron.sufficient",
                  "perron.constant_check", "oracle.grid"):
        m[f"{layer}.busy_s"] = _metric(busy[layer] / p, "s")
    for layer in ("io.parse_matrix", "efficiency.is_efficient", "perron.submatrix_verdict"):
        m[f"{layer}.self_s"] = _metric(own[layer] / p, "s")
    for layer in ("io.parse_matrix", "matrix.validate", "matrix.block_matrix", "matrix.detect",
                  "efficiency.is_efficient", "blockpert.membership", "perron.power", "oracle.grid"):
        m[f"{layer}.calls"] = _metric(calls[layer] / p, "count")
    m.update({
        "io.cells_per_s": _metric(_ratio(c["io.cells"], busy["io.parse_matrix"]), "1/s"),
        "efficiency.edges": _metric(c["efficiency.edges"] / p, "count"),
        "efficiency.components_mean": _metric(_ratio(c["efficiency.components"], is_eff_calls), "count"),
        "efficiency.inefficient_ratio": _metric(_ratio(c["efficiency.inefficient"], is_eff_calls), "1"),
        "efficiency.certificate_ok_ratio": _metric(
            _ratio(c["efficiency.certificate_ok"], calls["efficiency.dominance_compare"]), "1"),
        "efficiency.report.bytes": _metric(c["efficiency.report.bytes"] / p, "B"),
        "blockpert.sampler.yield_ratio": _metric(
            _ratio(c["blockpert.sampler.emitted"], c["blockpert.sampler.offered"]), "1"),
        "perron.iterations_mean": _metric(_ratio(c["perron.iterations"], calls["perron.power"]), "count"),
        "perron.residual_max": _metric(tr.maxima["perron.residual_max"], "1"),
        "oracle.grid.candidates_bound": _metric(c["oracle.grid.candidates"] / p, "count"),
        "oracle.grid.found_ratio": _metric(_ratio(c["oracle.grid.found"], calls["oracle.grid"]), "1"),
        "python.gc_pause_s": _metric(c["python.gc_pause_s"] / p, "s"),
        "python.gc_collections": _metric(c["python.gc_collections"] / p, "count"),
        "trace.attributed_ratio": _metric(_ratio(sum(own.values()), sum(tr.op_busy)), "1"),
        "trace.ops_per_s_untraced": _metric(fast, "ops/s"),
        "trace.ops_per_s_traced": _metric(slow, "ops/s"),
        "trace.overhead_ops_per_s": _metric(fast - slow, "ops/s"),
        "trace.spans": _metric(len(tr.spans) / p, "count"),
    })
    return m


# ---------------------------------------------------------------------------


def parse_args(argv):
    import inputs

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(inputs.SIZES), default="full",
                    help="'smoke' runs tiny inputs for the benchmark's self-test")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def run(args) -> dict:
    """Everything but printing; returns the full record."""
    import inputs

    _import_program()
    from tracer import Direct, Scaled, Tracer

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": environment(),
              "gate_checks": correctness_gate()}
    if not args.trace:
        setup = setup_seconds(args.workload, args.seed, args.size,
                              inputs.SIZES[args.size]["setup_repeats"])
    rounds = inputs.make_rounds(args.workload, args.seed, args.size)
    record["input_digest"] = inputs.digest(rounds)
    op_list = [op for ops in rounds for op in ops]
    record["ops_per_pass"] = len(op_list)
    # the inputs live for the whole run; keep them out of the program's
    # garbage collections
    gc.collect()
    gc.freeze()
    if args.trace:
        untraced = measure(op_list, Direct, args.seconds / 2, min_passes=1)
        with Tracer() as tr:
            traced = measure(op_list, tr, args.seconds / 2, min_passes=1)
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tr.write(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        record["metrics"] = per_layer(tr, untraced, traced)
        runs = (untraced, traced)
    else:
        scaled = Scaled()
        m = measure(op_list, scaled, args.seconds)
        record["metrics"], record["details"] = end_to_end(m, setup, scaled.raw_s)
        record["setup_samples"] = setup
        runs = (m,)
    record["attempted"] = sum(r.attempted for r in runs)
    record["failures"] = [f for r in runs for f in r.failures]
    return record


def report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}"
          f"  trace {record['trace']}  size {record['size']}")
    print("env " + json.dumps(record["env"]))
    print(f"input {record['input_digest']}  ({record['ops_per_pass']} ops per pass)")
    print(f"correctness gate: {record['gate_checks']} fixture checks passed")
    rows = dict(record["metrics"])
    if "details" in record:
        d = record["details"]
        rows["fail_ratio"] = d["fail_ratio"]
        print(f"samples: {d['samples']['ops']} ops, each the median of {d['samples']['passes']}"
              f" passes; {d['samples']['setup_s']} set-ups; op_tail_ms at"
              f" p{d['op_tail_percentile']}; times at the reference speed (speed.py);"
              f" unscaled ops/s {d['ops_per_s_unscaled']['value']:.6g}")
    for name, m in rows.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for f in record["failures"][:10]:
        print("FAILED " + f, file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        record = run(args)
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    report(record)
    failed = len(record["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": record["attempted"],
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
