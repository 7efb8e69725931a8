"""Command-line front end.

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
from .verdicts import DEFAULT_SEED, provenance, to_json

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

    p = sub.add_parser("check-axioms", help="verify the axiom battery of a configured structure")
    p.add_argument("config", type=Path)
    _common_flags(p)

    p = sub.add_parser("validate", help="deficits, validity grades, and compatibility of a clustering")
    p.add_argument("config", type=Path)
    _common_flags(p)

    p = sub.add_parser("pipeline", help="run the five-step investigation end to end")
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


def _parse_search_spec(spec_data: dict, cli_seed):
    """The spec document as a ``SearchSpec``, which checks every field."""
    from .search import SearchSpec  # only the search subcommand reads it

    if not isinstance(spec_data, dict):
        raise ParseError("search spec must be a JSON object")
    unknown = set(spec_data) - set(SearchSpec._fields)
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}")
    if "n" not in spec_data:
        raise ParseError("missing required field", "n")
    seed = spec_data.get("seed")
    # The document's own seed is checked even where --seed overrides it; null is no seed.
    spec = SearchSpec(**{**spec_data, "seed": DEFAULT_SEED if seed is None else seed})
    return spec if cli_seed is None else spec._replace(seed=cli_seed)


def _structure_dict(s) -> dict:
    """The found structure as the search report lists it: names, not masks."""
    names = s.universe.names
    table = s.delta.table
    return {
        "universe": list(s.universe.elements),
        "granules": [list(names(g)) for g in s.granulation],
        "delta_kind": s.delta.kind,
        "delta_table": (
            sorted([list(names(m)) for m in triple] for triple in table)
            if table is not None
            else None
        ),
    }


def _search_report(spec_data: dict, cli_seed) -> dict:
    from .search import find_witness

    spec = _parse_search_spec(spec_data, cli_seed)
    found, examined = find_witness(spec)
    return {
        "command": "search",
        "provenance": provenance(spec.seed),
        "spec": {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in spec._asdict().items()
            if k != "seed"
        },
        "search": {
            "found": found is not None,
            "examined": examined,
            "structure": _structure_dict(found) if found is not None else None,
            "note": None if found is not None else "none within budget",
        },
    }


def _replay(cfg, report) -> int:
    from .witnesses import replay_failures  # only this subcommand reads it

    problems = replay_failures(cfg, report)
    for problem in problems:
        print(f"msslab: {problem}", file=sys.stderr)
    return EXIT_STRICT if problems else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "search":
            report = _search_report(_load_json(args.spec), args.seed)
            _emit(report, args)
            return EXIT_OK

        from .config import parse_config  # every command but search reads a config

        cfg = parse_config(_load_json(args.config))
        if args.command == "replay":
            return _replay(cfg, _load_json(args.report))
        from .report import build_check_axioms, build_validate, has_failures

        if args.command == "check-axioms":
            report = build_check_axioms(cfg, seed=args.seed)
        elif args.command == "validate":
            report = build_validate(cfg, seed=args.seed)
        else:
            from .pipeline import run_pipeline  # only this subcommand reads it

            report = run_pipeline(cfg, seed=args.seed)
        _emit(report, args)
        if getattr(args, "strict_exit", False) and has_failures(report):
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
