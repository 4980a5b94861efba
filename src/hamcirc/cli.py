"""Command-line front end.

Exit codes: the certify command maps its verdict to 0 (Yes), 1 (No), or
2 (Unknown); verification commands exit 0 on pass and 1 on fail; usage and
input errors, and sizes over a budget, exit 3; any other exception is an
internal failure and exits 4.  Identical inputs always produce
byte-identical output.

Every size guard is a module constant.  The orbit closure of classify
exits 3 past minimize.ORBIT_CAP (100,000 words); certify runs no closure.
The quotient command uses the per-class synthesis; the enumeration builder
is the library-level oracle it is tested against.  A level over 500,000
quotient classes (quotients.QUOTIENT_BUDGET) exits 3, and so does a word
that needs minimization at rank 8 or more (automorphisms.MOVE_BUDGET).
Every such refusal is a words.BudgetExceeded.  The outerplanar command
sizes its top level, then certifies the word, warning when it is not a
Yes, and then runs the checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable

from .certifier import (
    VERDICT_NO,
    VERDICT_UNKNOWN,
    VERDICT_YES,
    certify,
    classify,
)
from .finite import build_finite_cayley, parse_spec
from .freeproduct import verify_circle_truncations
from .multigraph import check_enumeration_size, enumerate_hamiltonian_cycles
from .outerplanar import tree_generators, verify_outerplanar_quotient
from .quotients import build_quotient_local, check_quotient_budget, edge_tag
from .words import BudgetExceeded, ReducedWord
from .automorphisms import chain_moves

EXIT_USAGE = 3
EXIT_INTERNAL = 4
WRITE_SLICE = 1 << 18  # characters of DOT text encoded and written at a time


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for Unknown
        raise UsageError(message)


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=False))


def _write_dot(path: str, graph, highlight: Iterable[int] = ()) -> None:
    """Write ``graph.to_dot(highlight)`` to ``path``, opened first, in
    slices of WRITE_SLICE characters, so the text is never encoded whole."""
    with open(path, "w", encoding="utf-8") as fh:
        text = graph.to_dot(highlight=highlight)
        for lo in range(0, len(text), WRITE_SLICE):
            fh.write(text[lo : lo + WRITE_SLICE])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hamcirc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="decide the hamiltonian-circle property")
    p.add_argument("-n", "--rank", type=int, required=True)
    p.add_argument("word")
    p.add_argument("--max-level", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("quotient", help="build a truncation quotient, export DOT")
    p.add_argument("-n", "--rank", type=int, required=True)
    p.add_argument("-s", "--word", action="append", required=True)
    p.add_argument("-l", "--level", type=int, required=True)
    p.add_argument("--with-tree", action="store_true",
                   help="include the standard generators")
    p.add_argument("--dot", metavar="PATH")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cycletree", help="verify the cycle-tree circle truncations")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", "--depth", type=int, required=True)
    p.add_argument("--dot", metavar="PATH",
                   help="export the circle truncation at the deepest level")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify", help="canonical form under automorphisms")
    p.add_argument("-n", "--rank", type=int, required=True)
    p.add_argument("word")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("finite", help="count hamiltonian cycles of a finite Cayley graph")
    p.add_argument("spec", help="cyclic:8:1,2 or dihedral:10:a,b,aba")
    p.add_argument("--dot", metavar="PATH")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("outerplanar", help="check truncations for K4/K2,3 minors")
    p.add_argument("-n", "--rank", type=int, required=True)
    p.add_argument("-s", "--word", required=True)
    p.add_argument("-l", "--level", type=int, required=True)
    p.add_argument("--json", action="store_true")
    return parser


def _cmd_certify(args) -> int:
    word = ReducedWord.parse(args.word, args.rank)
    cert = certify(args.rank, word, max_level=args.max_level)
    if args.json:
        _emit_json(cert.to_json_dict())
    else:
        if cert.verdict == VERDICT_YES:
            tail = "unique" if cert.unique else "uniqueness not established"
            print(f"YES ({tail})")
            print(f"quotient cycles verified at levels {list(cert.checked_levels)}")
        elif cert.verdict == VERDICT_NO:
            print(f"NO ({cert.reason})")
        else:
            print(f"UNKNOWN ({cert.reason})")
        if cert.witness:
            print("witness: " + " ".join(chain_moves(cert.witness)))
        if cert.note:
            print(f"note: {cert.note}", file=sys.stderr)
    return {VERDICT_YES: 0, VERDICT_NO: 1, VERDICT_UNKNOWN: 2}[cert.verdict]


def _cmd_quotient(args) -> int:
    if args.level < 1:
        raise UsageError("level must be at least 1")
    n = args.rank
    words = [ReducedWord.parse(w, n) for w in args.word]
    gens = tree_generators(n) + words if args.with_tree else words
    q = build_quotient_local(n, gens, args.level)
    if args.dot:
        highlight = ()
        if args.with_tree:  # the s-edges, bold among the tree edges
            marks = {edge_tag(w) for w in words}
            highlight = (i for i, (_, _, tag) in enumerate(q.graph.edges) if tag in marks)
        _write_dot(args.dot, q.graph, highlight)
    doc = {
        "rank": n,
        "level": args.level,
        "generators": sorted(str(g) for g in q.gens),
        "vertices": q.graph.n_vertices,
        "edges": q.graph.n_edges,
        "is_cycle": q.graph.is_cycle(),
    }
    if args.json:
        _emit_json(doc)
    else:
        print(
            f"level {args.level}: {doc['vertices']} vertices, "
            f"{doc['edges']} edges, cycle: {'yes' if doc['is_cycle'] else 'no'}"
        )
    return 0


def _cmd_cycletree(args) -> int:
    if args.depth < 1:
        raise UsageError("depth must be at least 1")
    report = verify_circle_truncations(args.m, args.n, args.depth)
    if args.dot:
        _write_dot(args.dot, report.deepest_circle)
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        for r, count, cyc in zip(report.depths, report.class_counts, report.circle_is_cycle):
            print(f"depth {r}: cycle of length {count}: {'PASS' if cyc else 'FAIL'}")
        print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_classify(args) -> int:
    word = ReducedWord.parse(args.word, args.rank)
    form = classify(args.rank, word)
    if args.json:
        _emit_json(form.to_json_dict())
    else:
        print(form.kind or "None")
        if form.witness is not None:
            print("witness: " + " ".join(chain_moves(form.witness)))
    return 0


def _cmd_finite(args) -> int:
    spec = parse_spec(args.spec)
    check_enumeration_size(spec.size)  # the order is the vertex count
    graph = build_finite_cayley(spec)  # built once, for the count and the DOT
    count = len(enumerate_hamiltonian_cycles(graph))
    unique = count == 1
    if args.dot:
        _write_dot(args.dot, graph)
    if args.json:
        _emit_json({"spec": str(spec), "hamiltonian_cycles": count, "unique": unique})
    else:
        print(f"hamiltonian cycles: {count}, unique: {'yes' if unique else 'no'}")
    return 0


def _cmd_outerplanar(args) -> int:
    if args.level < 1:
        raise UsageError("level must be at least 1")
    word = ReducedWord.parse(args.word, args.rank)
    check_quotient_budget(args.rank, args.level)  # sized before certify runs
    verdict = certify(args.rank, word, max_level=1).verdict
    report = verify_outerplanar_quotient(args.rank, word, args.level)
    if verdict != VERDICT_YES:
        print(
            f"warning: certifier verdict is {verdict}, not Yes; checks run anyway",
            file=sys.stderr,
        )
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        for lv in report.levels:
            print(
                f"level {lv.level}: {lv.vertices} vertices, "
                f"outerplanar: {'yes' if lv.outerplanar else 'no'}, "
                f"circle is hamiltonian cycle: "
                f"{'yes' if lv.circle_is_ham_cycle else 'no'}"
            )
        print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


_DISPATCH = {
    "certify": _cmd_certify,
    "quotient": _cmd_quotient,
    "cycletree": _cmd_cycletree,
    "classify": _cmd_classify,
    "finite": _cmd_finite,
    "outerplanar": _cmd_outerplanar,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except (UsageError, ValueError, OSError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a failed check or any other fault of the code
        import traceback  # only a fault needs it; kept off the startup path

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
