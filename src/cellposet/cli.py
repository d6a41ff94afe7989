"""Command-line front end.

Exit codes: 0 on success, 1 when a check or reduction fails, 2 on usage or
input errors.  All JSON output uses sorted keys so runs are reproducible
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import constructions, reduction
from .checkers import check_manifold_h, check_rp_h, check_sphere_h
from .graphs import (ColoredGraph, graph_from_dict, graph_to_dot,
                     graph_to_json, validate_admissible)
from .homology import (betti_gf2, h_double_prime, is_homology_manifold,
                       validate_poset)
from .posets import (SimplicialPoset, f_vector, from_graph, h_vector,
                     is_pseudomanifold, poset_from_dict, poset_to_json)


def _emit(data) -> None:
    print(json.dumps(data, sort_keys=True, indent=2))


def _load_any(path: str) -> ColoredGraph | SimplicialPoset:
    try:
        data = json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    if isinstance(data, dict) and "edges" in data:
        return graph_from_dict(data)
    if isinstance(data, dict) and "cells" in data:
        return poset_from_dict(data)
    raise ValueError(f"{path}: neither a graph nor a poset JSON file")


def _load_poset(path: str) -> SimplicialPoset:
    obj = _load_any(path)
    return from_graph(obj) if isinstance(obj, ColoredGraph) else obj


def _write_out(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad integer vector {text!r}") from exc


def _invariants(p: SimplicialPoset) -> dict:
    f = f_vector(p)
    h = h_vector(f)
    betti = betti_gf2(p)
    return {
        "f": list(f),
        "h": list(h),
        "betti_gf2": list(betti),
        "h_double_prime": list(h_double_prime(h, betti)),
    }


def cmd_build(args) -> int:
    # files are written before anything is printed, so that a failed write
    # (exit 2) leaves stdout empty
    if args.target == "product-spheres":
        if args.reduce:
            g, steps = reduction.reduce_product_spheres(args.n, args.m)
            summary = {"vertices": len(g.vertices),
                       "steps": [s.to_dict() for s in steps]}
        else:
            g = constructions.product_spheres_graph(args.n, args.m)
            summary = {"vertices": len(g.vertices), "edges": len(g.edges)}
        _write_out(args.out, graph_to_json(g))
        _emit(summary)
        return 0
    if args.target == "rp":
        p = constructions.cross_polytope_quotient(args.n)
        summary = _invariants(p)
        _write_out(args.out, poset_to_json(p))
        _emit(summary)
        return 0
    # from-json: load, validate, summarize
    obj = _load_any(args.file)
    if isinstance(obj, ColoredGraph):
        violations = validate_admissible(obj)
        _emit({"kind": "graph", "d": obj.d, "vertices": len(obj.vertices),
               "edges": len(obj.edges), "admissible": not violations,
               "violations": violations})
        return 0 if not violations else 1
    violations = validate_poset(obj)
    _emit({"kind": "poset", "d": obj.d, "f": list(f_vector(obj)),
           "valid": not violations, "violations": violations})
    return 0 if not violations else 1


def cmd_invariants(args) -> int:
    _emit(_invariants(_load_poset(args.file)))
    return 0


def cmd_recognize(args) -> int:
    p = _load_poset(args.file)
    # first, before anything is printed: proves `p` simplicial or raises
    manifold = is_homology_manifold(p)
    _emit({"homology_manifold": manifold,
           "pseudomanifold": is_pseudomanifold(p)})
    return 0


def cmd_reduce(args) -> int:
    obj = _load_any(args.file)
    if not isinstance(obj, ColoredGraph):
        raise ValueError("reduce expects a graph JSON file")
    if args.schedule == "symbolic":
        if args.n is None or args.m is None:
            raise ValueError("--schedule symbolic requires --n and --m")
        final, steps = reduction.run_schedule(obj, args.n, args.m)
    else:
        if args.n is not None or args.m is not None:
            raise ValueError("--n and --m apply only to --schedule symbolic")
        final, steps = reduction.greedy_reduce(obj)
    # written before anything is printed, as in `cmd_build`
    _write_out(args.certificate, reduction.steps_to_json(steps))
    _write_out(args.out, graph_to_json(final))
    _emit({"vertices": len(final.vertices), "steps": len(steps)})
    return 0


def cmd_check(args) -> int:
    if args.kind == "sphere-h":
        result = check_sphere_h(_parse_vector(args.h))
    elif args.kind == "rp-h":
        result = check_rp_h(_parse_vector(args.h), args.n)
    else:
        result = check_manifold_h(_parse_vector(args.h), args.d)
    _emit(result.to_dict())
    return 0 if result.ok else 1


def cmd_export(args) -> int:
    obj = _load_any(args.file)
    if not isinstance(obj, ColoredGraph):
        raise ValueError("DOT export expects a graph JSON file")
    sys.stdout.write(graph_to_dot(obj))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cellposet",
        description="Cell decompositions of manifolds from colored graphs: "
                    "build, reduce, and check face-vector invariants.")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct graphs and posets")
    bsub = b.add_subparsers(dest="target", required=True)
    ps = bsub.add_parser("product-spheres", help="colored graph for S^n x S^m")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--m", type=int, required=True)
    ps.add_argument("--reduce", action="store_true",
                    help="cancel down to a minimal crystallization")
    ps.add_argument("--out", help="write the (final) graph JSON here")
    rp = bsub.add_parser("rp", help="cell decomposition of RP^(n-1)")
    rp.add_argument("--n", type=int, required=True)
    rp.add_argument("--out", help="write the poset JSON here")
    fj = bsub.add_parser("from-json", help="load and validate a JSON file")
    fj.add_argument("file")
    b.set_defaults(func=cmd_build)

    inv = sub.add_parser("invariants",
                         help="f, h, GF(2) Betti and h'' of a graph or poset")
    inv.add_argument("file")
    inv.set_defaults(func=cmd_invariants)

    rec = sub.add_parser("recognize",
                         help="whether a graph or poset is a GF(2) homology "
                              "manifold and a pseudomanifold")
    rec.add_argument("file")
    rec.set_defaults(func=cmd_recognize)

    red = sub.add_parser("reduce", help="cancel dipoles in a graph")
    red.add_argument("file")
    red.add_argument("--schedule", choices=("symbolic", "greedy"),
                     default="greedy")
    red.add_argument("--n", type=int)
    red.add_argument("--m", type=int)
    red.add_argument("--certificate", help="write the step certificate here")
    red.add_argument("--out", help="write the reduced graph JSON here")
    red.set_defaults(func=cmd_reduce)

    chk = sub.add_parser("check", help="decide h-vector characterizations")
    csub = chk.add_subparsers(dest="kind", required=True)
    cs = csub.add_parser("sphere-h")
    cs.add_argument("--h", required=True, help="comma-separated integers")
    cr = csub.add_parser("rp-h")
    cr.add_argument("--h", required=True)
    cr.add_argument("--n", type=int, required=True)
    cm = csub.add_parser("manifold-h")
    cm.add_argument("--h", required=True)
    cm.add_argument("--d", type=int, required=True)
    chk.set_defaults(func=cmd_check)

    exp = sub.add_parser("export", help="export a graph to DOT")
    exp.add_argument("file")
    exp.add_argument("--format", choices=("dot",), default="dot")
    exp.set_defaults(func=cmd_export)
    return p


def _join_vector_values(argv: list[str]) -> list[str]:
    """Rewrite ``--h V`` as ``--h=V`` when V starts with a minus sign and a
    digit: argparse reads a V such as "-1,0", which is no plain negative
    number, as an option and not as the value of --h."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--h" and re.match(r"-\d", arg):
            out[-1] = "--h=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _join_vector_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except reduction.CancellationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
