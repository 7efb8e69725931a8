"""Command-line front end: arguments, files and exit codes. Each report
is one library call on the JSON document the command reads.

commands:
  check-axioms CONFIG   verify the axiom battery of a configured structure
  validate CONFIG       deficits, validity grades and compatibility of a clustering
  pipeline CONFIG       run the five-step investigation end to end
  search SPEC           hunt for structures meeting/breaking named axioms
  replay CONFIG REPORT  re-evaluate every failing witness of a report

flags, as --flag VALUE or --flag=VALUE and never abbreviated; replay takes none:
  --format json|text  the report format (default json)
  --seed S            seed for sampled checks; defaults to the document's seed, then 0
  --output FILE       write the report here, atomically, instead of to stdout
  --strict-exit       exit 2 when any check fails (not on search)

Exit codes: 0 success, 1 usage or parse problem, 2 axiom/validation
failure under --strict-exit or a witness that does not replay, 3
infeasible search budget.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import BudgetError, MsslabError, ParseError
from .verdicts import to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STRICT = 2
EXIT_BUDGET = 3

# Each command: the paths it reads, whether it takes ``REPORT_FLAGS`` and
# whether it takes --strict-exit.
COMMANDS = {
    "check-axioms": ("CONFIG", True, True),
    "validate": ("CONFIG", True, True),
    "pipeline": ("CONFIG", True, True),
    "search": ("SPEC", True, False),
    "replay": ("CONFIG REPORT", False, False),
}
# Each flag that takes a value, with its value's form.
REPORT_FLAGS = {"--format": "json|text", "--seed": "S", "--output": "FILE"}


class Args(NamedTuple):
    """A command line as ``main`` runs it."""

    command: str
    paths: tuple[Path, ...]
    format: str = "json"
    seed: Optional[int] = None
    output: Optional[Path] = None
    strict_exit: bool = False


class UsageError(Exception):
    """A command line that ``COMMANDS`` does not admit, with the command it
    names, if any, for the usage line."""

    def __init__(self, message, command=None):
        super().__init__(message)
        self.command = command


def _usage(command: Optional[str]) -> str:
    lines = []
    for name in [command] if command in COMMANDS else COMMANDS:
        paths, reports, strict = COMMANDS[name]
        flags = [f"[{flag} {form}]" for flag, form in REPORT_FLAGS.items()] if reports else []
        lines.append(" ".join([name, paths, *flags] + ["[--strict-exit]"] * strict))
    return "usage: msslab " + "\n       msslab ".join(lines) + "\n"


def parse_args(argv: list[str]) -> Args:
    """``argv`` read through ``COMMANDS``: the command, then its paths and
    flags in any order, each flag as ``--flag value`` or ``--flag=value``;
    ``--`` ends the flags. A command line it does not admit, an
    abbreviated flag included, is a ``UsageError`` naming the argument."""
    if not argv or argv[0] not in COMMANDS:
        got = f"unknown command {argv[0]!r}" if argv else "missing command"
        raise UsageError(f"{got}; expected one of {', '.join(COMMANDS)}")
    command, words = argv[0], iter(argv[1:])
    wanted, reports, strict = COMMANDS[command]
    wanted = wanted.split()
    paths, values = [], {}
    for word in words:
        if word == "--":
            paths += words
        elif word == "-" or not word.startswith("-"):
            paths.append(word)
        else:
            flag, given, value = word.partition("=")
            if flag == "--strict-exit" and strict:
                if given:
                    raise UsageError(f"argument {flag}: takes no value", command)
                value = True
            elif flag not in REPORT_FLAGS or not reports:
                raise UsageError(f"unrecognized argument {word}", command)
            elif not given:
                value = next(words, None)
                if value is None:
                    raise UsageError(f"argument {flag}: expected one value", command)
            values[flag[2:].replace("-", "_")] = value
    if len(paths) < len(wanted):
        raise UsageError(f"missing argument {' '.join(wanted[len(paths):])}", command)
    if len(paths) > len(wanted):
        raise UsageError(f"unrecognized argument {paths[len(wanted)]}", command)
    if values.get("format", "json") not in ("json", "text"):
        message = f"argument --format: expected json or text, got {values['format']!r}"
        raise UsageError(message, command)
    if "seed" in values:
        try:
            values["seed"] = int(values["seed"])
        except ValueError:
            message = f"argument --seed: expected an integer, got {values['seed']!r}"
            raise UsageError(message, command) from None
    if "output" in values:
        values["output"] = Path(values["output"])
    return Args(command, tuple(map(Path, paths)), **values)


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
    argv = sys.argv[1:] if argv is None else list(argv)
    flags = argv[: argv.index("--")] if "--" in argv else argv
    if "-h" in flags or "--help" in flags:
        sys.stdout.write(f"{_usage(argv[0])}\n{__doc__}")
        return EXIT_OK
    try:
        args = parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"{_usage(exc.command)}msslab: error: {exc}\n")
        return EXIT_USAGE
    try:
        if args.command == "replay":
            from .config import parse_config
            from .witnesses import replay_failures  # only this subcommand reads it

            config, report = args.paths
            cfg = parse_config(_load_json(config))
            problems = replay_failures(cfg, _load_json(report))
            for problem in problems:
                print(f"msslab: {problem}", file=sys.stderr)
            return EXIT_STRICT if problems else EXIT_OK
        report = _report(args, _load_json(args.paths[0]))
        _emit(report, args)
        if args.strict_exit:
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
