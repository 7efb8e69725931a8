"""Command-line front end: arguments, files and exit codes. Each report
is one library call on the JSON document the command reads.

Exit codes: 0 success, 1 usage or parse problem, 2 axiom/validation
failure under --strict-exit or a witness that does not replay, 3
infeasible search budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from .errors import BudgetError, MsslabError, ParseError
from .verdicts import DEFAULT_SEED, to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STRICT = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _common_flags(p, strict=True):
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"seed for sampled checks; defaults to the document's seed, then {DEFAULT_SEED}",
    )
    p.add_argument("--output", type=Path, default=None, help="write report here instead of stdout")
    if strict:
        p.add_argument(
            "--strict-exit",
            action="store_true",
            help="exit 2 when any check fails",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="msslab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for command, summary in (
        ("check-axioms", "verify the axiom battery of a configured structure"),
        ("validate", "deficits, validity grades, and compatibility of a clustering"),
        ("pipeline", "run the five-step investigation end to end"),
    ):
        p = sub.add_parser(command, help=summary)
        p.add_argument("config", type=Path)
        _common_flags(p)

    p = sub.add_parser("search", help="hunt for structures meeting/breaking named axioms")
    p.add_argument("spec", type=Path)
    _common_flags(p, strict=False)

    p = sub.add_parser("replay", help="re-evaluate every failing witness of a report")
    p.add_argument("config", type=Path)
    p.add_argument("report", type=Path)
    return parser


def _load_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: line {exc.lineno}: {exc.msg}")
    except ValueError as exc:
        # json raises a bare ValueError for an integer past the interpreter's digit limit
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = to_json(report)
    else:
        from .report import render_text  # only the text format reads it

        text = render_text(report)
    if args.output is None:
        sys.stdout.write(text)
        return
    # write once, atomically
    directory = args.output.parent if str(args.output.parent) else Path(".")
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".msslab-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, args.output)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise MsslabError(f"cannot write {args.output}: {exc.strerror or exc}") from exc


def _report(args, document) -> dict:
    """The command's report, one library call on the parsed document."""
    if args.command == "search":
        from .search import build_search, parse_spec  # only the search subcommand reads it

        return build_search(parse_spec(document), seed=args.seed)
    from .config import parse_config  # every command but search reads a config

    cfg = parse_config(document)
    if args.command == "pipeline":
        from .pipeline import run_pipeline  # only this subcommand reads it

        return run_pipeline(cfg, seed=args.seed)
    from .report import build_check_axioms, build_validate

    build = build_check_axioms if args.command == "check-axioms" else build_validate
    return build(cfg, seed=args.seed)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            from .config import parse_config
            from .witnesses import replay_failures  # only this subcommand reads it

            cfg = parse_config(_load_json(args.config))
            problems = replay_failures(cfg, _load_json(args.report))
            for problem in problems:
                print(f"msslab: {problem}", file=sys.stderr)
            return EXIT_STRICT if problems else EXIT_OK
        report = _report(args, _load_json(args.spec if args.command == "search" else args.config))
        _emit(report, args)
        if getattr(args, "strict_exit", False):
            from .report import has_failures  # every command with --strict-exit loaded it

            if has_failures(report):
                return EXIT_STRICT
        return EXIT_OK
    except BudgetError as exc:
        print(f"msslab: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ParseError as exc:
        print(f"msslab: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MsslabError as exc:
        print(f"msslab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
