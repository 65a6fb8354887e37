"""Command-line frontend.

Usage:
    coxkit [--json] <subcommand> ...

Most subcommands take a group first: either a built-in corpus name (a2, b2,
g2, a1xa1, a3, b3, h3, dihedral_inf, affine_a2, hyperbolic_334) or the path
to a group file.  Words are whitespace-separated generator labels ("e" is the
identity when no generator is labelled e); coordinates are comma-separated
rationals (exact input only, decimal floats are rejected); generator subsets
are comma-separated labels, with "-" for the empty set.

Exit codes: 0 success, 1 domain error (error name on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import corpus
from .coxgroup import CoxeterSystem, load_group_file, order_of_product
from .errors import CoxeterError
from .parabolic import Parabolic, intersect, make
from .paraclose import ClosureQuery, pc
from .roots import Root, reflection_of_root, root_depths
from .titscone import DualPoint, locate


class UsageError(Exception):
    pass


def _load_group(token: str) -> CoxeterSystem:
    if token in corpus.NAMES and os.sep not in token:
        return corpus.load(token)
    if os.path.exists(token):
        try:
            return load_group_file(token)
        except OSError as exc:
            raise UsageError(f"cannot read group file {token!r}: {exc.strerror}")
    names = ", ".join(corpus.NAMES)
    raise UsageError(f"unknown group {token!r}: not a corpus name ({names}) "
                     "and no such file")


def _parse_rational(token: str) -> Fraction:
    token = token.strip()
    if "." in token:
        raise UsageError(f"decimal input not accepted (got {token!r}); "
                         "write rationals as p/q")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a rational number: {token!r}")


def _parse_coords(system: CoxeterSystem, text: str):
    text = text.strip()
    if text[:1] in "([" and text[-1:] in ")]":
        text = text[1:-1]
    parts = [p for p in text.split(",")]
    values = [_parse_rational(p) for p in parts]
    if len(values) != system.rank:
        raise UsageError(f"expected {system.rank} coordinates, got {len(values)}")
    return tuple(system.field.from_rational(q) for q in values)


def _parse_subset(system: CoxeterSystem, text: str):
    text = text.strip()
    if text in ("", "-"):
        return frozenset()
    return system.label_set(tok.strip() for tok in text.split(","))


def _count(text: str) -> int:
    """argparse type for a non-negative integer given in ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _parabolic_fields(p: Parabolic) -> dict:
    sys_ = p.system
    return {"representative": str(p.rep),
            "generators": sorted(sys_.labels[s] for s in p.gens),
            "rank": p.rank}


def _parabolic_lines(p: Parabolic) -> list[str]:
    sys_ = p.system
    return [f"representative: {p.rep}",
            f"generators: {sys_.format_gens(p.gens)}",
            f"rank: {p.rank}"]


# -- subcommand handlers ------------------------------------------------------
# Each handler takes the parsed arguments and the loaded group (None for a
# subcommand without one) and returns (result, lines, exit_code); result
# feeds the JSON "result" field, lines are the text-mode output.


def cmd_validate(args, system):
    matrix = [[("inf" if m == float("inf") else m) for m in row]
              for row in system.matrix]
    result = {"rank": system.rank, "labels": list(system.labels),
              "field_degree": system.field.degree, "matrix": matrix}
    lines = [f"rank: {system.rank}",
             f"labels: {' '.join(system.labels)}",
             f"field degree: {system.field.degree}"]
    return result, lines, 0


def cmd_normalize(args, system):
    g = system.element(args.word)
    return ({"word": str(g), "length": g.length}, [str(g)], 0)


def cmd_mult(args, system):
    g = system.element(args.left) * system.element(args.right)
    return ({"word": str(g), "length": g.length}, [str(g)], 0)


def cmd_length(args, system):
    g = system.element(args.word)
    return ({"length": g.length}, [str(g.length)], 0)


def cmd_roots(args, system):
    found = root_depths(system, args.depth)
    items = sorted(found.items(),
                   key=lambda kv: (kv[1], tuple(c.coeffs for c in kv[0].coords)))
    result = {"depth": args.depth, "count": len(items),
              "roots": [{"coords": [str(c) for c in r.coords], "depth": d}
                        for r, d in items]}
    lines = [f"positive roots through depth {args.depth}: {len(items)}"]
    lines += [f"{r}  depth {d}" for r, d in items]
    return result, lines, 0


def cmd_reflect(args, system):
    root = Root(system, _parse_coords(system, args.coords))
    refl = reflection_of_root(root)
    word = str(refl.element)
    return ({"word": word, "length": refl.element.length}, [word], 0)


def cmd_locate(args, system):
    point = DualPoint(system, _parse_coords(system, args.coords))
    loc = locate(point)
    result = {"element": str(loc.w),
              "generators": sorted(system.labels[s] for s in loc.gens),
              "point": [str(c) for c in loc.point.coords]}
    lines = [f"element: {loc.w}",
             f"generators: {system.format_gens(loc.gens)}",
             f"point: {loc.point}"]
    return result, lines, 0


def cmd_intersect(args, system):
    p1 = make(system.element(args.w1), _parse_subset(system, args.i1))
    p2 = make(system.element(args.w2), _parse_subset(system, args.i2))
    q = intersect(p1, p2)
    return _parabolic_fields(q), _parabolic_lines(q), 0


def cmd_pc(args, system):
    elements = [system.element(w) for w in args.words]
    res = pc(ClosureQuery(elements, args.radius))
    result = _parabolic_fields(res.closure)
    result["status"] = res.status.value
    lines = _parabolic_lines(res.closure)
    lines.append(f"status: {res.status.value.capitalize()}")
    return result, lines, 0


def cmd_verify(args, system):
    from .verify import SUITES, run_suites
    unknown = [name for name in args.suite or () if name not in SUITES]
    if unknown:
        raise UsageError(f"unknown suite {unknown[0]!r}; choose from "
                         + ", ".join(sorted(SUITES)))
    names = args.suite if args.suite else None
    results = run_suites(names)
    failed = [r for r in results if not r.passed]
    result = [{"suite": r.name, "checks": r.checks,
               "failures": r.failures, "passed": r.passed, "seconds": r.seconds}
              for r in results]
    lines = [r.summary() for r in results]
    for r in failed:
        lines += [f"  {msg}" for msg in r.failures[:20]]
    lines.append("all suites passed" if not failed
                 else f"FAILED: {len(failed)} suite(s)")
    return result, lines, 0 if not failed else 1


def cmd_oracle_compare(args, system):
    import random

    from .oracle import enumerate_group
    table = enumerate_group(system)
    rng = random.Random(0)
    bad = 0
    pairs = args.samples
    for _ in range(pairs):
        i = rng.randrange(table.order)
        j = rng.randrange(table.order)
        g = table.elements[i] * table.elements[j]
        if table.element_index(g) != table.mult(i, j):
            bad += 1
    inverse_ok = all(
        table.element_index(table.elements[i].inverse()) == table.inverse[i]
        for i in range(table.order))
    orders_ok = all(
        order_of_product(system, s, t) == system.matrix[s][t]
        for s in range(system.rank) for t in range(system.rank) if s != t)
    n_parabolics = len(table.parabolics())
    ok = bad == 0 and inverse_ok and orders_ok
    result = {"order": table.order, "samples": pairs, "mismatches": bad,
              "inverse_ok": inverse_ok, "orders_ok": orders_ok,
              "parabolics": n_parabolics}
    lines = [f"order: {table.order}",
             f"multiplication samples: {pairs}, mismatches: {bad}",
             f"inverse table: {'ok' if inverse_ok else 'FAIL'}",
             f"product orders: {'ok' if orders_ok else 'FAIL'}",
             f"parabolic subgroups: {n_parabolics}"]
    lines.append("oracle agrees" if ok else "ORACLE MISMATCH")
    return result, lines, 0 if ok else 1


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxkit",
        description="Exact computations in finitely generated Coxeter groups.")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON object instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_, group=True):
        p = sub.add_parser(name, help=help_)
        if group:
            p.add_argument("group", help="corpus name or group file path")
        p.set_defaults(handler=handler)
        return p

    add("validate", cmd_validate, "parse a group file and report its shape")

    p = add("normalize", cmd_normalize, "canonical word of an element")
    p.add_argument("word")

    p = add("mult", cmd_mult, "product of two elements, as a canonical word")
    p.add_argument("left")
    p.add_argument("right")

    p = add("length", cmd_length, "word length of the canonical form")
    p.add_argument("word")

    p = add("roots", cmd_roots, "positive roots by reflection depth")
    p.add_argument("--depth", type=_count, default=8)

    p = add("reflect", cmd_reflect,
            "canonical word of the reflection along a positive root")
    p.add_argument("coords", help="comma-separated rational root coordinates")

    p = add("locate", cmd_locate,
            "cell of a dual-space point under the chamber walk")
    p.add_argument("coords", help="comma-separated rational pairings")

    p = add("intersect", cmd_intersect,
            "intersection of two parabolic subgroups (w I, given separately)")
    p.add_argument("w1")
    p.add_argument("i1", help="comma-separated labels, - for the empty set")
    p.add_argument("w2")
    p.add_argument("i2", help="comma-separated labels, - for the empty set")

    p = add("pc", cmd_pc, "parabolic closure of a set of elements")
    p.add_argument("words", nargs="+")
    p.add_argument("--radius", type=_count, default=12,
                   help="bounds only the candidate scan of a group whose cone is not "
                        "classified, which tries the w with |w| <= radius (default 12)")

    p = add("verify", cmd_verify,
            "run the property suites over the built-in corpus", group=False)
    p.add_argument("--suite", action="append",
                   help="run one suite by name (repeatable); default: all")

    p = add("oracle-compare", cmd_oracle_compare,
            "cross-check the brute-force table against canonical arithmetic")
    p.add_argument("--samples", type=_count, default=500,
                   help="random product pairs to compare (default 500)")

    return parser


def _inputs_of(args) -> dict:
    skip = {"command", "handler", "json"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        system = _load_group(args.group) if "group" in args else None
        result, lines, code = args.handler(args, system)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CoxeterError as exc:
        name = type(exc).__name__
        print(f"{name}: {exc}", file=sys.stderr)
        if args.json:
            print(json.dumps({"command": args.command,
                              "inputs": _inputs_of(args),
                              "result": {"error": name, "message": str(exc)},
                              "status": "error"}))
        return 1
    if args.json:
        print(json.dumps({"command": args.command, "inputs": _inputs_of(args),
                          "result": result,
                          "status": "ok" if code == 0 else "failed"}))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
