"""Command line surface: analyze one graph, verify the regularity bounds
exhaustively, sweep the constructed families, and survey by matching number.

Exit status is 0 only when no verification failed and no error occurred;
failures are reported on stderr. A usage error exits 1, like any other error.
An internal cross-check failure (a bug, not bad input) exits with its own
status, 3, and an exhausted work budget (`BudgetExceededError`, the input is
too large for a bound) with 4.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .analysis import (
    CSV_HEADER,
    analyze,
    q5_csv_row,
    question5_sweep,
    run_families,
    verify_theorem,
)
from .ehrhart import BudgetExceededError
from .enumeration import MAX_N
from .graphs import make_family, parse_graph
from .polytope import InvariantViolationError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2
EXIT_BUG = 3
EXIT_BUDGET = 4


def _load_graph(args):
    if args.input and args.family:
        raise ValueError("give either --input or --family, not both")
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            return parse_graph(fh.read())
    if args.family:
        return make_family(args.family)
    raise ValueError("one of --input or --family is required")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def cmd_analyze(args) -> int:
    if args.qmax is not None and not args.toric:
        raise ValueError("--qmax bounds the toric analysis; give it with --toric")
    g = _load_graph(args)
    report = analyze(g, run_toric=args.toric, toric_qmax=args.qmax)
    payload = report.to_dict()
    if args.json:
        _write_json(args.json, payload)
    else:
        print(json.dumps(payload, indent=2))
    if report.verdict == "violated":
        print(f"bound violated: reg={report.reg} > bound={report.bound_used}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_verify_theorem(args) -> int:
    t0 = time.perf_counter()
    result = verify_theorem(args.nmax)
    violations = result.violations
    payload = {
        "n_max": args.nmax,
        "connected_graphs_checked": result.checked,
        "normal_graphs_verified": result.normal,
        "violations": [v.to_dict() for v in violations],
        "seconds": round(time.perf_counter() - t0, 3),
    }
    if args.json:
        _write_json(args.json, payload)
    print(
        f"checked {result.checked} connected graphs on <= {args.nmax} vertices "
        f"({result.normal} normal): {len(violations)} violation(s)"
    )
    if violations:
        for v in violations:
            print(f"violation: {v.to_dict()}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_families(args) -> int:
    rows = run_families(args.rmax, args.lmax)
    lines = [CSV_HEADER] + [row.csv_row() for row in rows]
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    print(
        "note: r in {0, 1} is logged as an unverified edge case of the construction, "
        "not swept",
        file=sys.stderr,
    )
    bad = [row for row in rows if not row.match]
    if bad:
        for row in bad:
            print(f"mismatch: {row.to_dict()}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_q5(args) -> int:
    summary = question5_sweep(args.m, args.nmax, toric_qmax=args.qmax)
    if args.csv:
        lines = [CSV_HEADER] + [q5_csv_row(r) for r in summary["rows"]]
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    public = {k: v for k, v in summary.items() if k != "rows"}
    print(json.dumps(public, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgering",
        description="Edge ring invariants: matchings, edge polytopes, and regularity bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze one graph")
    p_an.add_argument("--input", help="edge-list file: 'd m' header then 'i j' lines")
    p_an.add_argument("--family", help="family spec, e.g. complete(6) or two_triangles_path(2)")
    p_an.add_argument("--toric", action="store_true", help="also analyze the defining ideal")
    p_an.add_argument("--qmax", type=int, default=None, help="degree bound for toric analysis")
    p_an.add_argument("--json", help="write the report to this path")
    p_an.set_defaults(fn=cmd_analyze)

    p_vt = sub.add_parser("verify-theorem", help="exhaustively verify the regularity bounds")
    p_vt.add_argument("--nmax", type=int, required=True, help=f"largest vertex count (2..{MAX_N})")
    p_vt.add_argument("--json", help="write the verification report to this path")
    p_vt.set_defaults(fn=cmd_verify_theorem)

    p_fa = sub.add_parser("families", help="sweep the constructed families")
    p_fa.add_argument("--rmax", type=int, required=True, help="largest regularity target (>= 2)")
    p_fa.add_argument("--lmax", type=int, required=True, help="largest two-triangle path length")
    p_fa.add_argument("--csv", help="write rows to this path instead of stdout")
    p_fa.set_defaults(fn=cmd_families)

    p_q5 = sub.add_parser("q5", help="survey regularity by matching number (empirical)")
    p_q5.add_argument("--m", type=int, required=True, help="matching number bucket")
    p_q5.add_argument("--nmax", type=int, required=True, help=f"largest vertex count (2..{MAX_N})")
    p_q5.add_argument("--qmax", type=int, default=None, help="toric degree bound override")
    p_q5.add_argument("--csv", help="write per-graph rows to this path")
    p_q5.set_defaults(fn=cmd_q5)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage errors exit 2, the violation status
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except InvariantViolationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_BUG
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    raise SystemExit(main())
