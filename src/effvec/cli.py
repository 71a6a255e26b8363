"""Command-line surface: check, perron, generate, reproduce.

Exit codes: 0 success (check: efficient), 1 inefficient / reproduction
mismatch, 2 any EffvecError, an unreadable file or a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import islice

from . import fixtures
from .blockpert import (
    ConstantBlockMatrix,
    ThreeBlockMatrix,
    TwoBlockMatrix,
    constant_block_sample,
    three_block_generate,
    two_block_sample,
)
from .efficiency import form_verdict, is_efficient
from .errors import EffvecError, InputError, InternalError
from .io import load_matrix, load_vector, parse_scalar, scalar_repr
from .matrix import detect_minimal_block
from .perron import perron, perron_tail_structure, three_block_sufficient


def _use_color() -> bool:
    return os.environ.get("EFFVEC_NO_COLOR") is None and sys.stdout.isatty()


def _paint(text: str, good: bool) -> str:
    if not _use_color():
        return text
    return f"\033[32m{text}\033[0m" if good else f"\033[31m{text}\033[0m"


def cmd_check(args) -> int:
    A = load_matrix(args.matrix, args.backend)
    w = load_vector(args.vector, args.backend)
    verdict = is_efficient(A, w)
    d = verdict.to_dict(edges=args.edges and args.format == "json")  # what every format prints
    if args.format == "json":
        print(json.dumps(d))
    elif args.format == "csv":
        print(f"status,{d['status']}")
        if not verdict.efficient:
            print("dominator," + ",".join(map(str, d["dominator"])))
    else:
        print(_paint(d["status"].upper(), verdict.efficient))
        print("components:", d["scc_partition"])
        if not verdict.efficient:
            print("source set:", d["source_set"])
            print("dominating vector:", " ".join(map(str, d["dominator"])))
    return 0 if verdict.efficient else 1


def cmd_perron(args) -> int:
    A = load_matrix(args.matrix, args.backend)
    r = perron(A)
    verdict = is_efficient(A, r.w)
    out = {
        "lambda": r.lam,
        "vector": list(r.w),
        "residual": r.residual,
        "structure_ok": None,
        "sufficient_condition": None,
        "block_indices": None,
    }
    # Block facts for n <= 8 only.  Detection is O(n^2), but at n = 1024 the
    # facts would add about 13-36 ms to a float run; ROADMAP item 3 lifts the
    # gate when `perron` solves from the detected block, which repays it.
    detected = detect_minimal_block(A) if A.n <= 8 else None
    if detected is not None:
        form = detected.form
        out["structure_ok"] = perron_tail_structure(form, replace(r, w=form.from_input(r.w))).ok
        out["block_indices"] = [i + 1 for i in detected.K]
        if form.s == 3:
            out["sufficient_condition"] = three_block_sufficient(form.block).matched
    out["verdict"] = verdict.to_dict(edges=args.edges)
    if args.format == "table":
        print(f"lambda   = {r.lam:.12g}")
        print(f"residual = {r.residual:.3e}")
        print("vector   =", " ".join(f"{x:.12g}" for x in r.w))
        if out["sufficient_condition"] is not None:
            print("matched sufficient condition:", out["sufficient_condition"])
        print("Perron vector:", _paint(verdict.status, verdict.efficient))
    else:
        print(json.dumps(out))
    return 0 if verdict.efficient else 1


def _three_block_seed_stream(rng):
    while True:
        yield tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4))


def _two_block_stream(args, rng):
    S = TwoBlockMatrix(parse_scalar(args.x), args.n)
    return S, two_block_sample(S, rng)


def _three_block_stream(args, rng):
    B = fixtures.three_block_from_triple(*map(parse_scalar, (args.a12, args.a13, args.a23)))
    tbm = ThreeBlockMatrix(B, args.n)
    return tbm, three_block_generate(tbm, _three_block_seed_stream(rng), rng)


def _constant_stream(args, rng):
    M = ConstantBlockMatrix(parse_scalar(args.x), args.s, args.n)
    return M, constant_block_sample(M, rng)


#: generate's families: the builder of (form, stream of GeneratedVector)
#: and the parameters it reads, each required, with its argparse type
_FAMILIES = {
    "2block": (_two_block_stream, {"--x": str}),
    "3block": (_three_block_stream, {"--a12": str, "--a13": str, "--a23": str}),
    "constant": (_constant_stream, {"--s": int, "--x": str}),
}


def cmd_generate(args) -> int:
    if args.count < 0:
        raise InputError(f"--count must be >= 0, got {args.count}")
    rng = random.Random(args.seed)
    form, stream = args.family_stream(args, rng)
    for g in islice(stream, args.count):
        # self-certify before emission, on the form: O(s^2 + n log n) per vector.
        # The only full verdict a vector meets: two_block_sample checks its draw
        # by the chain, three_block_generate its 4-vector seed.
        if not form_verdict(form, g.vector).efficient:
            raise InternalError(f"generated vector failed the digraph test: {g}")
        print(
            json.dumps(
                {
                    "vector": [scalar_repr(v) for v in g.vector],
                    "seed_head": [scalar_repr(v) for v in g.seed_head],
                    "tail_bounds": [scalar_repr(v) for v in g.tail_bounds],
                    "permutation": g.permutation,
                }
            )
        )
    return 0


#: reproduce's targets: the fixtures function that builds each one's checks
_TARGETS = {
    "table1": fixtures.reproduce_table1,
    "examples": fixtures.reproduce_examples,
    "all": fixtures.reproduce_all,
}


def cmd_reproduce(args) -> int:
    checks = _TARGETS[args.target]()
    failures = 0
    for c in checks:
        tag = _paint("PASS", True) if c.ok else _paint("FAIL", False)
        line = f"[{tag}] {c.name}"
        if c.detail:
            line += f"  ({c.detail})"
        print(line)
        failures += 0 if c.ok else 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="effvec",
        description="Pareto-efficient weight vectors for reciprocal matrices",
    )
    sub = p.add_subparsers(dest="command", required=True)
    # the options of the two commands that print a verdict
    verdict = argparse.ArgumentParser(add_help=False)
    verdict.add_argument("--backend", choices=["exact", "float"], default=None,
                         help="force a numeric backend (default: inferred from input)")
    verdict.add_argument("--edges", action="store_true",
                         help="add G(A, w)'s edge_list, O(n^2) pairs, to the JSON verdict")

    sp = sub.add_parser("check", parents=[verdict],
                        help="decide efficiency of a vector for a matrix")
    sp.add_argument("matrix")
    sp.add_argument("vector")
    sp.add_argument("--format", choices=["json", "csv", "table"], default="table")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("perron", parents=[verdict], help="Perron eigenpair and its efficiency")
    sp.add_argument("matrix")
    sp.add_argument("--format", choices=["json", "table"], default="table")
    sp.set_defaults(func=cmd_perron)

    sp = sub.add_parser("generate", help="stream certified efficient vectors")
    families = sp.add_subparsers(dest="family", required=True)
    for family, (stream, params) in _FAMILIES.items():
        # no abbreviations: `--s` must not pass for `--seed` where --s is foreign
        fp = families.add_parser(family, allow_abbrev=False)
        fp.add_argument("--n", type=int, required=True)
        for option, kind in params.items():
            fp.add_argument(option, type=kind, required=True)
        fp.add_argument("--count", type=int, default=10)
        fp.add_argument("--seed", type=int, default=0)
        fp.set_defaults(func=cmd_generate, family_stream=stream)

    sp = sub.add_parser("reproduce", help="replay bundled fixtures")
    sp.add_argument("target", choices=_TARGETS)
    sp.set_defaults(func=cmd_reproduce)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EffvecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
