"""Self-test of the benchmark at smoke size (a few seconds per workload).

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys
from argparse import Namespace

import pytest

import inputs
import run
from tracer import Direct

END_TO_END = ["setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "rss_peak_mb"]

PER_LAYER = [
    "io.parse_matrix.self_s", "io.parse_matrix.calls", "io.cells_per_s",
    "matrix.validate.busy_s", "matrix.validate.calls",
    "matrix.block_matrix.busy_s",
    "matrix.detect.busy_s", "matrix.detect.calls",
    "efficiency.build_digraph.busy_s", "efficiency.edges",
    "efficiency.scc.busy_s", "efficiency.components_mean",
    "efficiency.dominator.busy_s", "efficiency.inefficient_ratio",
    "efficiency.is_efficient.self_s", "efficiency.is_efficient.calls",
    "efficiency.dominance_compare.busy_s", "efficiency.certificate_ok_ratio",
    "efficiency.report.busy_s", "efficiency.report.bytes",
    "blockpert.membership.busy_s", "blockpert.membership.calls",
    "blockpert.sampler.busy_s", "blockpert.sampler.yield_ratio",
    "perron.power.busy_s", "perron.power.calls", "perron.iterations_mean", "perron.residual_max",
    "perron.submatrix_verdict.self_s", "perron.tail_check.busy_s", "perron.constant_check.busy_s",
    "oracle.grid.busy_s", "oracle.grid.calls", "oracle.grid.candidates_bound",
    "oracle.grid.found_ratio",
    "python.gc_pause_s", "python.gc_collections",
    "trace.overhead_ops_per_s",
]

run._import_program()
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def smoke(workload, trace):
    return run.run(Namespace(workload=workload, seed=7, seconds=1, trace=trace, size="smoke"))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    record = smoke(workload, 0)
    metrics = record["metrics"]
    assert record["failures"] == []
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for name in END_TO_END:
        assert metrics[name]["unit"] and metrics[name]["value"] > 0
    assert record["details"]["fail_ratio"] == {"value": 0.0, "unit": "1"}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_per_layer_metrics_emitted(workload):
    record = smoke(workload, 1)
    metrics = record["metrics"]
    assert record["failures"] == []
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for name in PER_LAYER:
        assert metrics[name]["unit"]
    # no layer's cost goes unattributed
    assert metrics["trace.attributed_ratio"]["value"] >= 0.9


def test_wrong_expected_verdict_counts_as_failure():
    rounds = inputs.make_rounds("check-float-large", 7, "smoke")
    op = rounds[0][0]
    rounds[0][0] = op._replace(expect=not op.expect)
    broken = op._replace(args=("1.0,2.0\n3.0,1.0", op.args[1]))  # not reciprocal: raises
    rounds[0].append(broken)
    m = run.measure(rounds[0], Direct, 0.001, min_passes=1)
    assert m.attempted == len(rounds[0])
    assert len(m.failures) == 2
    _, details = run.end_to_end(m, [1.0], 1.0)
    assert details["fail_ratio"]["value"] == 2 / m.attempted


def test_inputs_follow_the_seed():
    for workload in inputs.WORKLOADS:
        a = inputs.digest(inputs.make_rounds(workload, 3, "smoke"))
        assert a == inputs.digest(inputs.make_rounds(workload, 3, "smoke"))
        assert a != inputs.digest(inputs.make_rounds(workload, 4, "smoke"))


def _cli(cwd, *extra):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-exact-small", "--seed", "1",
         "--seconds", "1", "--trace", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_result_line():
    out = _cli(run.ROOT, "--size", "smoke")
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    out = _cli(tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
