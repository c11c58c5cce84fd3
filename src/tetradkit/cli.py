"""Command line front end for running scenario checks.

Exit status: 0 when every enabled check passes, 1 when any check fails or
any sample point errors, 2 for bad usage or an invalid scenario file.
"""

from __future__ import annotations

import argparse
import json
import sys

from .runner import CHECKS, RunnerError, emit_report, run_checks
from .scenarios import BUILTIN_NAMES, ScenarioError, builtin_scenario, load_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetradkit",
        description="Evaluate curvature, torsion, and conservation residuals "
        "for tetrad scenarios at seeded random points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser(
        "check",
        help="run residual checks over a scenario",
        description="Run the registered residual checks against a scenario "
        "file or a builtin scenario and report pass/fail per check.",
    )
    check.add_argument("scenario", nargs="?", help="path to a scenario JSON file")
    check.add_argument(
        "--builtin",
        metavar="NAME",
        help=f"use a builtin scenario instead of a file ({', '.join(BUILTIN_NAMES)})",
    )
    check.add_argument(
        "--dump",
        action="store_true",
        help="print the selected builtin scenario as JSON and exit",
    )
    check.add_argument(
        "--points", type=int, default=None, help="sample point count (default: scenario setting)"
    )
    check.add_argument(
        "--seed", type=int, default=None, help="sampling seed (default: scenario setting)"
    )
    check.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override one check tolerance; repeatable",
    )
    check.add_argument(
        "--checks",
        default=None,
        metavar="A,B,C",
        help="comma-separated subset of checks to run",
    )
    check.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="also write the report as JSON ('-' for standard output)",
    )
    check.add_argument(
        "--list-checks",
        action="store_true",
        help="list registered checks with defaults and exit",
    )
    check.add_argument(
        "--max-order",
        type=int,
        default=3,
        help="skip checks needing jets deeper than this order (default 3)",
    )
    return parser


def _parse_tolerances(pairs) -> dict[str, float]:
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise RunnerError(f"bad --tol argument {pair!r}; expected NAME=VALUE")
        try:
            out[name] = float(value)
        except ValueError:
            raise RunnerError(f"bad --tol value in {pair!r}; expected a number") from None
    return out


def _list_checks() -> str:
    lines = ["name                       order  default tolerance"]
    for check in CHECKS:
        lines.append(f"{check.name:26s} {check.required_order:5d}  {check.tolerance:.1e}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_checks:
        sys.stdout.write(_list_checks())
        return 0

    try:
        if args.builtin is not None:
            if args.scenario is not None:
                parser.error("give either a scenario file or --builtin, not both")
            scenario = builtin_scenario(args.builtin)
        elif args.scenario is not None:
            if args.dump:
                parser.error("--dump needs --builtin")
            scenario = load_scenario(args.scenario)
        else:
            parser.error("a scenario file or --builtin NAME is required")

        if args.dump:
            sys.stdout.write(json.dumps(scenario.document, indent=2) + "\n")
            return 0

        tolerances = _parse_tolerances(args.tol)
        checks = None
        if args.checks is not None:
            checks = [name.strip() for name in args.checks.split(",") if name.strip()]
        report = run_checks(
            scenario,
            points=args.points,
            seed=args.seed,
            tolerances=tolerances,
            checks=checks,
            max_order=args.max_order,
        )
    except (ScenarioError, RunnerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json_path == "-":
        emit_report(report, "json")
    else:
        emit_report(report, "text")
        if args.json_path is not None:
            emit_report(report, "json", args.json_path)
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
