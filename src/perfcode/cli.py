"""Command-line front end.

Subcommands: solve, check-class, square, verify-theorems, gen. All vertex
ids on the command-line surface are 1-based; stdout is byte-stable for
identical inputs and seeds (timings go to stderr). Exit codes: 0 success
/ affirmative, 1 I/O or parse error, 2 usage error, 3 negative answer
(no efficient dominating set / not a class member), 4 theorem
counterexample found.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .dimacs import DimacsError, parse_dimacs, write_dimacs
from .graph import square
from .recognition import CLASS_TAGS, class_membership
from .solver import DEFAULT_VERIFY_BUDGET, oracle_ed, solve, square_diagnostics
from .verify import THEOREM_IDS, TrialConfig, gen_random_chordal, gen_random_graph, run_campaign

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_NEGATIVE = 3
EXIT_COUNTEREXAMPLE = 4


class UsageError(Exception):
    """Semantically invalid flag combination or value; exits 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfcode",
        description="Weighted efficient domination via independent sets on graph squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="find a minimum-weight efficient dominating set")
    p_solve.add_argument("file", type=Path)
    p_solve.add_argument(
        "--weights",
        choices=("from-file", "unit"),
        default=None,
        help="weight source (default: from-file when the file has weights, else unit)",
    )
    p_solve.add_argument(
        "--force-path",
        choices=("oracle",),
        default=None,
        help="oracle: an enumeration of every e.d. without the square (no diagnostics); "
        "without it each component's square picks its route",
    )
    p_solve.add_argument("--json", action="store_true", help="machine-readable output")

    p_class = sub.add_parser("check-class", help="test membership in a supported graph class")
    p_class.add_argument("file", type=Path)
    p_class.add_argument("--class", dest="class_tag", required=True, choices=CLASS_TAGS)
    p_class.add_argument("--json", action="store_true")

    p_square = sub.add_parser("square", help="write the graph square in the same format")
    p_square.add_argument("file", type=Path)

    p_verify = sub.add_parser("verify-theorems", help="run an empirical theorem campaign")
    p_verify.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=0)
    p_verify.add_argument("--nmin", type=int, default=7)
    p_verify.add_argument("--nmax", type=int, default=14)
    p_verify.add_argument("--pmin", type=float, default=0.05)
    p_verify.add_argument("--pmax", type=float, default=0.95)
    p_verify.add_argument(
        "--exhaustive-n", type=int, default=None, help="also check every graph up to this size"
    )
    p_verify.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_VERIFY_BUDGET,
        help=f"max n for exponential searches (default: {DEFAULT_VERIFY_BUDGET})",
    )
    p_verify.add_argument("--json", action="store_true")

    p_gen = sub.add_parser("gen", help="generate a random graph file")
    p_gen.add_argument("--model", required=True, choices=("er", "chordal"))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument(
        "--p", type=float, default=0.5, help="edge probability (er) or clique fill (chordal)"
    )
    p_gen.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        handler = {
            "solve": _cmd_solve,
            "check-class": _cmd_check_class,
            "square": _cmd_square,
            "verify-theorems": _cmd_verify,
            "gen": _cmd_gen,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, DimacsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


def _load(path: Path):
    return parse_dimacs(path.read_text())


def _ids_1based(vertices) -> list[int]:
    return [v + 1 for v in vertices]


def _cmd_solve(args) -> int:
    gf = _load(args.file)
    weight_source = args.weights or ("from-file" if gf.weights is not None else "unit")
    if weight_source == "from-file":
        if gf.weights is None:
            raise ValueError(f"{args.file}: no weight lines, but --weights from-file requested")
        weights = gf.weights
    else:
        weights = tuple([1] * gf.graph.n)
    if args.force_path == "oracle":
        solution, diag = oracle_ed(gf.graph, weights), None
    else:
        solution = solve(gf.graph, weights)
        diag = asdict(square_diagnostics(gf.graph))
    if args.json:
        document = {
            "exists": solution.exists,
            "set": _ids_1based(solution.vertices) if solution.exists else None,
            "weight": solution.user_weight,
            "path": solution.path,
            "diagnostics": diag,
            "seed": None,
        }
        print(json.dumps(document))
    else:
        print(f"exists: {'yes' if solution.exists else 'no'}")
        print(f"set: {' '.join(map(str, _ids_1based(solution.vertices))) if solution.exists else '-'}")
        print(f"weight: {solution.user_weight if solution.user_weight is not None else '-'}")
        print(f"path: {solution.path}")
        for key in ("chordal", "hole_free", "odd_antihole_free"):
            value = None if diag is None else diag[key]
            text = "skipped" if value is None else ("yes" if value else "no")
            print(f"square {key.replace('_', '-')}: {text}")
    return EXIT_OK if solution.exists else EXIT_NEGATIVE


def _cmd_check_class(args) -> int:
    gf = _load(args.file)
    report = class_membership(gf.graph, args.class_tag)
    if args.json:
        document = {
            "class": report.class_tag,
            "member": report.member,
            "violations": [
                {"kind": w.kind, "vertices": _ids_1based(w.vertices)} for w in report.violations
            ],
        }
        print(json.dumps(document))
    else:
        print(f"class: {report.class_tag}")
        print(f"member: {'yes' if report.member else 'no'}")
        for witness in report.violations:
            print(f"violation: {witness.kind} {' '.join(map(str, _ids_1based(witness.vertices)))}")
    return EXIT_OK if report.member else EXIT_NEGATIVE


def _cmd_square(args) -> int:
    gf = _load(args.file)
    sys.stdout.write(write_dimacs(square(gf.graph), gf.weights))
    return EXIT_OK


def _counterexample_1based(record: dict) -> dict:
    out = dict(record)
    out["edges"] = [[u + 1, v + 1] for u, v in record["edges"]]
    for key in ("ed", "overlap", "dominators"):
        if key in out:
            out[key] = _ids_1based(out[key])
    if "witness" in out:
        kind, vertices = out["witness"]
        out["witness"] = [kind, _ids_1based(vertices)]
    return out


def _cmd_verify(args) -> int:
    try:
        config = TrialConfig(
            theorem=args.theorem,
            seed=args.seed,
            trials=args.trials,
            n_range=(args.nmin, args.nmax),
            p_range=(args.pmin, args.pmax),
            exhaustive_n=args.exhaustive_n,
            budget=args.budget,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report = run_campaign(config)
    report = replace(
        report, counterexamples=tuple(_counterexample_1based(r) for r in report.counterexamples)
    )
    print(json.dumps(report.to_document()) if args.json else report.to_text())
    print(f"wall clock: {report.wall_clock_s:.2f}s", file=sys.stderr)
    return EXIT_COUNTEREXAMPLE if report.counterexamples else EXIT_OK


def _cmd_gen(args) -> int:
    try:
        if args.model == "er":
            g = gen_random_graph(args.n, args.p, args.seed)
            comment = f"er n={args.n} p={args.p} seed={args.seed}"
        else:
            g = gen_random_chordal(args.n, args.p, args.seed)
            comment = f"chordal n={args.n} fill={args.p} seed={args.seed}"
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    sys.stdout.write(write_dimacs(g, comments=(comment,)))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
