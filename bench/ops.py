"""The benchmark's ops: user-level pipelines of public effvec calls.

Each op kind has a runner ``run_<kind>(t, *args)``, whose calls into
effvec go through the tracer ``t`` (see tracer.py), and a checker that
validates the result against the op's expected or cross-checked verdict.
Checkers run outside the timed op.  Layers are named after effvec modules.
"""

from __future__ import annotations

import json
import random
from operator import length_hint

from effvec import (
    ConstantBlockMatrix,
    GridSpec,
    ThreeBlockMatrix,
    TwoBlockMatrix,
    block_matrix,
    build_digraph,
    constant_block_class_check,
    constant_block_perron_check,
    constant_block_sample,
    construct_dominating_vector,
    detect_minimal_block,
    dominance_compare,
    grid_dominator_search,
    is_efficient,
    is_strongly_connected,
    lcompl_membership,
    lcompl_sample,
    perron,
    perron_efficiency_via_submatrix,
    perron_tail_structure,
    three_block_generate,
    three_block_membership,
    three_block_sufficient,
    two_block_is_efficient,
    validate_reciprocal,
)
from effvec.efficiency import V_DOMINATES
from effvec.fixtures import canonical_form
from effvec.io import parse_matrix_text, parse_vector_text

from inputs import block_rows, constant_block_rows, reference_efficient, scramble, two_block_rows

#: a Perron residual above this fails the op
RESIDUAL_MAX = 1e-9
#: relative rounding slack when checking a float dominator
FLOAT_SLACK = 1e-12


def dominates(a, w, v, slack) -> bool:
    """v's errors |a_ij - v_i/v_j| are nowhere worse than w's by more than
    slack * a_ij, and somewhere better by more than that.  Pairs of entries
    that v leaves unchanged have identical errors and are skipped."""
    better = False
    for i in (i for i in range(len(w)) if v[i] != w[i]):
        for j in range(len(w)):
            for p, q in ((i, j), (j, i)):
                if p == q:
                    continue
                tol = slack * a[p][q]
                ew, ev = abs(a[p][q] - w[p] / w[q]), abs(a[p][q] - v[p] / v[q])
                if ev > ew + tol:
                    return False
                better = better or ev < ew - tol
    return better


# ---------------------------------------------------------------------------
# traced calls shared by several ops; ``inner`` callbacks run only when tracing


def _revalidate(t, M):
    """Re-time the validate_reciprocal call a matrix constructor made."""
    t.call("matrix.validate", validate_reciprocal, M.as_lists())


def efficient(t, A, w):
    def inner(t, v):
        G = t.call("efficiency.build_digraph", build_digraph, A, w)
        t.call("efficiency.scc", is_strongly_connected, G)
        if not v.efficient:
            t.call("efficiency.dominator", construct_dominating_vector, A, w, v.source_set)
        t.count("efficiency.edges", sum(map(len, v.digraph.succ)))
        t.count("efficiency.components", len(v.components))
        t.count("efficiency.inefficient", not v.efficient)

    return t.call("efficiency.is_efficient", is_efficient, A, w, inner=inner)


def certificate(t, A, w, v):
    def inner(t, verdict):
        t.count("efficiency.certificate_ok", verdict == V_DOMINATES)

    return t.call("efficiency.dominance_compare", dominance_compare, A, w, v.dominator, inner=inner)


def block_form(t, build, *args):
    """Any A_n(B) constructor (block_matrix, form.matrix(), family.matrix())."""
    return t.call("matrix.block_matrix", build, *args, inner=_revalidate)


def sample(t, stream, offered=None, seeds=None):
    """First vector of a sampler stream.  Seeds offered are those the
    sampler consumed (three_block_generate filters them); otherwise one."""

    def inner(t, g):
        t.count("blockpert.sampler.emitted")
        t.count("blockpert.sampler.offered", 1 if seeds is None else len(seeds) - length_hint(offered))

    return t.call("blockpert.sampler", next, stream, inner=inner).vector


def perron_power(t, M):
    def inner(t, r):
        t.count("perron.iterations", r.iterations)
        t.peak("perron.residual_max", r.residual)

    return t.call("perron.power", perron, M, inner=inner)


def submatrix_verdict(t, form, r):
    def inner(t, v):
        t.call("perron.tail_check", perron_tail_structure, form, r)
        M = block_form(t, form.matrix)
        efficient(t, M.to_float().submatrix(range(form.s + 1)), r.w[: form.s + 1])

    return t.call("perron.submatrix_verdict", perron_efficiency_via_submatrix, form, r, inner=inner)


# ---------------------------------------------------------------------------
# check-float-large: the `effvec check --format json` pipeline


def _report(v):
    return json.dumps(v.to_dict())


def run_float_check(t, text, vtext):
    def parsed(t, A):
        _revalidate(t, A)
        t.count("io.cells", A.n * A.n)

    A = t.call("io.parse_matrix", parse_matrix_text, text, inner=parsed)
    w = t.call("io.parse_vector", parse_vector_text, vtext)
    v = efficient(t, A, w)
    cert = None if v.efficient else certificate(t, A, w, v)
    report = t.call("efficiency.report", _report, v,
                    inner=lambda t, s: t.count("efficiency.report.bytes", len(s)))
    return A, w, v, cert, report


def check_float_check(op, result):
    """Verdict as constructed, and a dominator that dominates.  The
    program's own dominance_compare is not required to agree: on floats it
    rescales the dominator first, and that rounding can turn a valid
    certificate "incomparable".  Its answers are counted in the traced run
    as efficiency.certificate_ok_ratio."""
    A, w, v, cert, report = result
    status = "efficient" if op.expect else "inefficient"
    return (v.efficient == op.expect and report.startswith(f'{{"status": "{status}"')
            and (v.efficient or dominates(A.entries, w, v.dominator, FLOAT_SLACK)))


# ---------------------------------------------------------------------------
# sweep-exact-small


def run_grid(t, rows, w):
    A = t.call("matrix.validate", validate_reciprocal, rows)
    v = efficient(t, A, w)
    return v, None if v.efficient else certificate(t, A, w, v)


def check_grid(op, result):
    v, cert = result
    rows, w = op.args
    return v.efficient == op.expect and (
        v.efficient or (cert == V_DOMINATES and dominates(rows, w, v.dominator, 0)))


def run_oracle(t, rows, w):
    A = t.call("matrix.validate", validate_reciprocal, rows)
    eff = efficient(t, A, w).efficient
    spec = GridSpec(w, 2.0, 6)

    def inner(t, found):
        t.count("oracle.grid.candidates", spec.candidate_count)
        t.count("oracle.grid.found", found is not None)

    found = t.call("oracle.grid", grid_dominator_search, A, w, spec, inner=inner)
    return eff, found


def check_oracle(op, result):
    eff, found = result
    return eff == op.expect and (found is None) == eff


def _membership(t, M, w, closed_form, *args):
    closed = t.call("blockpert.membership", closed_form, *args)
    return w, bool(closed), efficient(t, M, w).efficient


def _three_block_closed(tbm, w):
    return three_block_membership(tbm, w)[0]


def run_two_block(t, x, n, w):
    S = TwoBlockMatrix(x, n)
    return _membership(t, block_form(t, S.matrix), w, two_block_is_efficient, S, w)


def run_three_block(t, B, n, w):
    tbm = ThreeBlockMatrix(t.call("matrix.validate", validate_reciprocal, B), n)
    return _membership(t, block_form(t, tbm.matrix), w, _three_block_closed, tbm, w)


def run_three_block_sampled(t, B, n, seeds, rseed):
    tbm = ThreeBlockMatrix(t.call("matrix.validate", validate_reciprocal, B), n)
    offered = iter(seeds)
    w = sample(t, three_block_generate(tbm, offered, random.Random(rseed)), offered, seeds)
    return _membership(t, block_form(t, tbm.matrix), w, _three_block_closed, tbm, w)


def _lcompl_form(t, B, n):
    return canonical_form(t.call("matrix.validate", validate_reciprocal, B), n)


def run_lcompl(t, B, n, w):
    form = _lcompl_form(t, B, n)
    return _membership(t, block_form(t, form.matrix), w, lcompl_membership, form, w)


def run_lcompl_sampled(t, B, n, k, rseed):
    form = _lcompl_form(t, B, n)
    w = sample(t, lcompl_sample(form, form.block.column(k), random.Random(rseed), 1))
    return _membership(t, block_form(t, form.matrix), w, lcompl_membership, form, w)


def run_constant(t, x, s, n, w):
    C = ConstantBlockMatrix(x, s, n)
    return _membership(t, block_form(t, C.matrix), w, constant_block_class_check, C, w)


def run_constant_sampled(t, x, s, n, rseed):
    C = ConstantBlockMatrix(x, s, n)
    w = sample(t, constant_block_sample(C, random.Random(rseed), 1))
    return _membership(t, block_form(t, C.matrix), w, constant_block_class_check, C, w)


def _family_rows(op):
    """The op's matrix, built by the benchmark, for the independent check."""
    kind, args = op.kind, op.args
    if kind == "two_block":
        return two_block_rows(args[0], args[1])
    if kind.startswith("constant"):
        return block_rows(constant_block_rows(args[0], args[1]), args[2])
    return block_rows(args[0], args[1])


def check_family(op, result):
    """Closed form, digraph verdict and expected verdict agree.  The
    constant-block class is only sufficient, but every op here expects
    either a sampled member or an inefficient vector, so it must agree too.
    A sampled vector is also re-checked independently."""
    w, closed, eff = result
    return closed == eff == op.expect and reference_efficient(_family_rows(op), w) == op.expect


# ---------------------------------------------------------------------------
# perron-blocks: the `effvec perron` pipeline


def _sufficient(form):
    norm, _ = ThreeBlockMatrix(form.block, form.n).normalize()
    return three_block_sufficient(norm.block).matched


def run_detect(t, rows, s):
    A = t.call("matrix.validate", validate_reciprocal, rows)
    found = t.call("matrix.detect", detect_minimal_block, A)
    form = found.form
    M = block_form(t, form.matrix)
    r = perron_power(t, M)
    tail_ok = t.call("perron.tail_check", perron_tail_structure, form, r).ok
    v = submatrix_verdict(t, form, r)
    cond = t.call("perron.sufficient", _sufficient, form) if form.s == 3 else None
    return found, M, r, tail_ok, v.efficient, cond


def check_detect(op, result):
    """The block found maps back onto the input, is no larger than the
    planted one, and the Perron verdict matches the full-matrix test."""
    found, M, r, tail_ok, eff, cond = result
    rows, s = op.args
    back = found.form.back_map
    return (len(found.K) <= s
            and scramble(M.as_lists(), list(back.diag), list(back.perm)) == rows
            and tail_ok and r.residual < RESIDUAL_MAX
            and eff == is_efficient(M.to_float(), r.w).efficient
            and (cond is None or eff))


def run_block(t, B, n):
    Bm = t.call("matrix.validate", validate_reciprocal, B)
    M = block_form(t, block_matrix, Bm, n)
    r = perron_power(t, M)
    return M, r, submatrix_verdict(t, canonical_form(Bm, n), r).efficient


def check_block(op, result):
    M, r, eff = result
    return r.residual < RESIDUAL_MAX and eff == is_efficient(M.to_float(), r.w).efficient


def run_constant_perron(t, x, s, n):
    return t.call("perron.constant_check", constant_block_perron_check,
                  ConstantBlockMatrix(x, s, n)).efficient


def check_constant_perron(op, result):
    return result == op.expect


KINDS = {
    "float_check": (run_float_check, check_float_check),
    "grid": (run_grid, check_grid),
    "oracle": (run_oracle, check_oracle),
    "two_block": (run_two_block, check_family),
    "three_block": (run_three_block, check_family),
    "three_block_sampled": (run_three_block_sampled, check_family),
    "lcompl": (run_lcompl, check_family),
    "lcompl_sampled": (run_lcompl_sampled, check_family),
    "constant": (run_constant, check_family),
    "constant_sampled": (run_constant_sampled, check_family),
    "detect": (run_detect, check_detect),
    "block": (run_block, check_block),
    "constant_perron": (run_constant_perron, check_constant_perron),
}


def run(t, op):
    return KINDS[op.kind][0](t, *op.args)


def check(op, result) -> bool:
    return KINDS[op.kind][1](op, result)
