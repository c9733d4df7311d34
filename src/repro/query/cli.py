"""Command line front end: ``python -m repro.query <command>``.

Two subcommands:

* ``check [paths] [--format json]`` — run the admission battery over join
  spec files (``*.sql``), with the same exit-code contract as
  ``python -m repro.analysis``: ``0`` for a clean run (every finding
  suppressed with an inline justification), ``1`` when unsuppressed
  findings or parse errors remain, ``2`` for usage errors.  The CI
  ``analysis`` job gates on it over ``examples/queries/`` and stores the
  JSON report as an artifact.
* ``plan FILE`` — compile one admitted spec and print its static
  :class:`~repro.query.plan.PlanReport` (state bound, match probability,
  per-batch cost).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.engine import format_findings, report_to_json

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (separate for help/usage tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.query",
        description=(
            "Query-plan static analysis: compile SQL-ish join specs to "
            "streaming-engine plans and reject anti-patterns (cross "
            "joins, unbounded inequality state, silent shed loss, float "
            "key literals, unparseable specs) before admission."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser(
        "check", help="run the admission rule battery over spec files"
    )
    check.add_argument(
        "paths",
        nargs="*",
        default=["examples/queries"],
        help="spec files or directories (default: examples/queries)",
    )
    check.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="report format (default: human)",
    )
    check.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the report to FILE instead of stdout",
    )
    check.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings in the human report",
    )
    check.add_argument(
        "--list-rules",
        action="store_true",
        help="print the admission rule catalogue and exit",
    )

    plan = commands.add_parser(
        "plan", help="compile one spec and print its static plan report"
    )
    plan.add_argument("file", help="the spec file to price")
    plan.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="report format (default: human)",
    )
    plan.add_argument(
        "--batch-size",
        type=int,
        default=512,
        help="assumed tuples per side per batch (default: 512)",
    )
    plan.add_argument(
        "--horizon",
        type=int,
        default=64,
        help="batches to simulate the window over (default: 64)",
    )
    return parser


def _run_check(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.query.rules import QueryAnalyzer, default_query_rules

    rules = default_query_rules()
    if args.list_rules:
        for rule in sorted(rules, key=lambda r: r.rule_id):
            print(f"{rule.rule_id}  {rule.name}: {rule.description}")
        return 0
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        parser.error(f"no such path(s): {', '.join(missing)}")
    analyzer = QueryAnalyzer(rules)
    report = analyzer.analyze_paths(args.paths)
    if args.format == "json":
        rendered = report_to_json(report, rules)
    else:
        rendered = format_findings(report, show_suppressed=args.show_suppressed)
        if not rendered.endswith("\n"):
            rendered += "\n"
    if args.output:
        Path(args.output).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    return 0 if report.ok else 1


def _run_plan(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.query.compiler import AdmissionError, CompileError, compile_sql
    from repro.query.parser import ParseError
    from repro.query.plan import estimate_plan, format_plan_report
    from repro.query.plan import plan_report_to_json

    path = Path(args.file)
    if not path.exists():
        parser.error(f"no such file: {args.file}")
    try:
        plan = compile_sql(path.read_text(encoding="utf-8"), path=str(path))
    except (ParseError, CompileError, AdmissionError) as error:
        sys.stderr.write(f"{error}\n")
        return 1
    report = estimate_plan(
        plan, batch_size=args.batch_size, horizon_batches=args.horizon
    )
    if args.format == "json":
        sys.stdout.write(plan_report_to_json(report))
    else:
        sys.stdout.write(format_plan_report(report) + "\n")
    return 0


def main(argv: "Sequence[str] | None" = None) -> int:
    """Run the front door; return the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":
        return _run_check(args, parser)
    return _run_plan(args, parser)
