"""Command-line front end: parse a dataset, solve, rank, and emit reports.

Subcommands
-----------
solve
    Solve the requested model family and print its score table. ``--model
    relational`` gives the overall/stage-1/stage-2 table, ``ccr`` the plain
    CCR column, ``both`` (default) both tables side by side.
compare
    Both tables plus the Spearman rank correlation between the overall and
    CCR rankings.
rank
    Rank columns only, scores omitted.
validate
    Parse and validate the dataset, print its dimensions, solve nothing.

Exit codes: 0 success, 2 usage errors (including an ``--out`` file that
cannot be written), 3 dataset errors (parse, validation, schema,
unreadable file), 4 solver failures. Diagnostics go to stderr, reports to
stdout or the ``--out`` file. Epsilon and stage priority default to SolverConfig's.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import SECTIONS, build_report
from .dataset_io import REPORT_FORMATS, load_dataset, parse_number, render_report
from .errors import ConfigurationError, DatasetFormatError, NetdeaError
from .models import SolverConfig, StagePriority, run_full_analysis

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SOLVER = 4


def _epsilon_value(text: str) -> float:
    try:
        return SolverConfig(epsilon=parse_number(text)).epsilon
    except (ValueError, ConfigurationError) as exc:
        raise argparse.ArgumentTypeError(f"invalid epsilon {text!r}: {exc}") from None


def _add_common_flags(parser: argparse.ArgumentParser, with_model: bool):
    parser.add_argument("--data", required=True, metavar="PATH",
                        help="dataset file (csv with id,name,x*,z*,y* header)")
    if with_model:
        parser.add_argument("--model", choices=sorted(["both", *SECTIONS]),
                            default="both", help="model family to report")
    parser.add_argument("--stage-priority", choices=[p.value for p in StagePriority],
                        default=SolverConfig.stage_priority.value, dest="stage_priority",
                        help="stage whose efficiency is maximized when "
                             "splitting the relational score (default %(default)s)")
    parser.add_argument("--epsilon", type=_epsilon_value, default=SolverConfig.epsilon,
                        help="lower bound on every multiplier weight (default %(default)g)")
    parser.add_argument("--format", choices=REPORT_FORMATS,
                        default="table", dest="output_format",
                        help="report format (default table)")
    parser.add_argument("--out", metavar="PATH", dest="output_path",
                        help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netdea",
        description="Two-stage relational network DEA efficiency solver.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    solve = sub.add_parser("solve", help="solve and print score tables")
    _add_common_flags(solve, with_model=True)

    compare = sub.add_parser(
        "compare", help="relational and CCR tables plus rank correlation"
    )
    _add_common_flags(compare, with_model=False)
    compare.set_defaults(model="both")

    rank = sub.add_parser("rank", help="print rank columns only")
    _add_common_flags(rank, with_model=True)

    validate = sub.add_parser("validate", help="check a dataset, solve nothing")
    validate.add_argument("--data", required=True, metavar="PATH",
                          help="dataset file to validate")
    return parser


def _plural(count: int, noun: str) -> str:
    return f"{count} {noun}" + ("" if count == 1 else "s")


def _run(args) -> int:
    try:
        data = load_dataset(args.data)
    except OSError as exc:
        print(f"netdea: cannot read data file: {exc}", file=sys.stderr)
        return EXIT_DATA
    if args.subcommand == "validate":
        line = ", ".join([
            _plural(data.n, "DMU"),
            _plural(data.m, "input"),
            _plural(data.p, "intermediate"),
            _plural(data.s, "output"),
        ])
        sys.stdout.write(line + "\n")
        return EXIT_OK

    cfg = SolverConfig(epsilon=args.epsilon, stage_priority=args.stage_priority)
    relational, ccr = run_full_analysis(data, cfg)
    report = build_report(relational, ccr, cfg)
    text = render_report(report, args.output_format,
                         sections=SECTIONS if args.model == "both" else [args.model],
                         include_rho=args.subcommand == "compare",
                         ranks_only=args.subcommand == "rank")
    if not args.output_path:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(args.output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"netdea: cannot write report to {args.output_path}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _describe(exc: Exception) -> str:
    if isinstance(exc, DatasetFormatError):
        where = []
        if exc.row is not None:
            where.append(f"row {exc.row}")
        if exc.column is not None:
            where.append(f"column {exc.column}")
        if exc.role is not None:
            where.append(f"role {exc.role}")
        location = f" ({', '.join(where)})" if where else ""
        return f"dataset error{location}: {exc}"
    return str(exc)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except NetdeaError as exc:
        print(f"netdea: {_describe(exc)}", file=sys.stderr)
        return EXIT_DATA if isinstance(exc, DatasetFormatError) else EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
