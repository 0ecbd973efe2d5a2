"""Command-line surface.

Exit codes: 0 success, 1 domain error or unreadable/unwritable file (one
JSON line on stderr), 2 usage error.  All randomized commands require an
explicit --seed.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import fixtures_gen, oracle
from .acyclic_reduce import acyclic_reduce
from .degree4_lift import transform_delta4
from .errors import InternalInvariantError, KempeEdgeError, UnsupportedFamily
from .graph_core import (
    EdgeColoring,
    format_coloring,
    is_proper,
    read_coloring,
    read_graph,
    write_coloring,
    write_graph,
)
from .kempe_engine import apply_transcript, read_transcript, write_transcript
from .reductions import equalize
from .regular4_core import theorem_4_1_transform
from .vizing_reduce import reduce_to_delta_plus_one


def _fail(code: str, detail: str) -> int:
    sys.stderr.write(json.dumps({"error": code, "detail": detail}) + "\n")
    return 1


def _cmd_verify(args) -> int:
    g = read_graph(args.graph)
    f = read_coloring(args.coloring, g)
    if is_proper(g, f):
        print("proper")
        return 0
    print("not proper")
    return 1


def _cmd_transform(args) -> int:
    # vizing and acyclic only shrink the palette; the other modes need a target
    if args.mode in ("vizing", "acyclic"):
        if args.to:
            raise UnsupportedFamily(f"--to is not accepted by mode {args.mode}")
    elif not args.to:
        raise UnsupportedFamily(f"--to is required for mode {args.mode}")
    g = read_graph(args.graph)
    f = read_coloring(getattr(args, "from"), g)
    if args.mode == "vizing":
        result, tr = reduce_to_delta_plus_one(g, f)
    elif args.mode == "acyclic":
        result, tr = acyclic_reduce(g, f)
    else:
        target = read_coloring(args.to, g)
        if args.mode == "regular4":
            tr = theorem_4_1_transform(g, f, target)
        elif args.mode == "delta4" or (g.max_degree() == 4 and target.t == 4):
            tr = transform_delta4(g, f, target)
        else:
            tr = equalize(g, f, target)
        result = apply_transcript(g, f, tr)
        if result.colors != target.colors:
            raise InternalInvariantError("transform terminated off target")
        # the result keeps the start's palette; write it against the target
        # header so the files compare byte-equal
        result = result.with_palette(target.t)
    write_transcript(args.out, g, tr)
    if args.result:
        write_coloring(args.result, g, result)
    return 0


def _cmd_apply(args) -> int:
    g = read_graph(args.graph)
    f = read_coloring(args.coloring, g)
    tr = read_transcript(args.transcript, g)
    result = apply_transcript(g, f, tr, check=args.check)
    text = format_coloring(g, result)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_oracle(args) -> int:
    g = read_graph(args.graph)
    if args.oracle_cmd == "chi":
        chi, witness = oracle.chromatic_index(g)
        print(f"chi {chi}")
        sys.stdout.write(format_coloring(g, witness))
        return 0
    if args.oracle_cmd == "classes":
        report = oracle.kempe_classes(g, args.colors, cap=args.cap)
        print(f"colorings {report.total_colorings} classes {report.class_count}")
        for size in report.class_sizes:
            print(f"class-size {size}")
        return 0
    # same-class
    f = read_coloring(args.first, g)
    h = read_coloring(args.second, g)
    ok, tr = oracle.same_class(g, args.colors, f, h, cap=args.cap)
    print("same-class" if ok else "different-class")
    if ok and args.out:
        write_transcript(args.out, g, tr)
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    if args.family == "octahedron":
        write_graph(args.out, fixtures_gen.octahedron())
        return 0
    if args.family == "figure1":
        g = fixtures_gen.octahedron()
        write_graph(args.out, g)
        f, h = fixtures_gen.figure1_pair()
        if args.first:
            write_coloring(args.first, g, f)
        if args.second:
            write_coloring(args.second, g, h)
        return 0
    if args.family == "regular4":
        if args.n is None or args.seed is None:
            raise UnsupportedFamily("gen regular4 requires --n and --seed")
        g, witness = fixtures_gen.random_regular4_class1(args.n, args.seed)
        write_graph(args.out, g)
        if args.witness:
            write_coloring(args.witness, g, witness)
        return 0
    # overfull5
    write_graph(args.out, fixtures_gen.overfull_delta5())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kempe-edge",
        description="Certified Kempe-interchange transformations of edge colorings",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("verify", help="check that a coloring is proper")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--coloring", required=True)

    sp = sub.add_parser("transform", help="produce a transcript between colorings")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--from", required=True)
    sp.add_argument("--to")
    sp.add_argument("--out", required=True)
    sp.add_argument("--result", help="write the final coloring here")
    sp.add_argument(
        "--mode",
        choices=["auto", "vizing", "acyclic", "regular4", "delta4"],
        default="auto",
    )

    sp = sub.add_parser("apply", help="replay a transcript")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--coloring", required=True)
    sp.add_argument("--transcript", required=True)
    sp.add_argument("--out")
    sp.add_argument("--check", action="store_true")

    sp = sub.add_parser("oracle", help="exhaustive ground truth on small graphs")
    osub = sp.add_subparsers(dest="oracle_cmd", required=True)
    oc = osub.add_parser("chi")
    oc.add_argument("--graph", required=True)
    oc = osub.add_parser("classes")
    oc.add_argument("--graph", required=True)
    oc.add_argument("--colors", type=int, required=True)
    oc.add_argument(
        "--cap", type=int, default=oracle.DEFAULT_STATE_CAP,
        help="most colorings up to palette renaming (orbits) to enumerate",
    )
    oc = osub.add_parser("same-class")
    oc.add_argument("--graph", required=True)
    oc.add_argument("--colors", type=int, required=True)
    oc.add_argument("--first", required=True)
    oc.add_argument("--second", required=True)
    oc.add_argument("--out")
    oc.add_argument(
        "--cap", type=int, default=oracle.DEFAULT_STATE_CAP,
        help="most colorings the two search sides may store together",
    )

    sp = sub.add_parser("gen", help="write fixture instances")
    sp.add_argument("family", choices=["octahedron", "figure1", "regular4", "overfull5"])
    sp.add_argument("--out", required=True)
    sp.add_argument("--n", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--witness")
    sp.add_argument("--first")
    sp.add_argument("--second")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "verify": _cmd_verify,
        "transform": _cmd_transform,
        "apply": _cmd_apply,
        "oracle": _cmd_oracle,
        "gen": _cmd_gen,
    }[args.cmd]
    try:
        return handler(args)
    except KempeEdgeError as exc:
        return _fail(exc.code, exc.detail)
    except OSError as exc:
        return _fail("io_error", str(exc))


if __name__ == "__main__":
    sys.exit(main())
