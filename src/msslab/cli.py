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

from .config import parse_config
from .delta import BUILTIN_DELTAS
from .errors import BudgetError, MsslabError, ParseError
from .pipeline import run_pipeline
from .report import (
    build_check_axioms,
    build_validate,
    has_failures,
    provenance,
    render_text,
    replay_failures,
    to_json,
)
from .search import SearchSpec, find_witness
from .structure import AXIOM_ORDER
from .verdicts import DEFAULT_SEED

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
        help="seed for sampled checks; defaults to the config seed, "
        f"then MSSLAB_SEED, then {DEFAULT_SEED}",
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


def _pick_seed(cli_seed, config_seed) -> int:
    if cli_seed is not None:
        return cli_seed
    if config_seed is not None:
        return config_seed
    env = os.environ.get("MSSLAB_SEED")
    if not env:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ParseError(f"expected an integer, got {env!r}", "MSSLAB_SEED") from None


def _emit(report: dict, args) -> None:
    text = to_json(report) if args.format == "json" else render_text(report)
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


# A search draws its predicate from a builtin or from a random table.
SEARCH_DELTAS = BUILTIN_DELTAS + ("extensional",)

# Each search-spec field: its default and what its value must be.
_SPEC_FIELDS = {
    "n": (None, _is_int, "an integer"),
    "family": ("relations", lambda v: isinstance(v, str), "a string"),
    "delta": ("E0", lambda v: v in SEARCH_DELTAS, f"one of {', '.join(SEARCH_DELTAS)}"),
    "required": ([], _is_names, "a list of axiom names"),
    "forbidden": ([], _is_names, "a list of axiom names"),
    "budget": (10_000, _is_int, "an integer"),
    "seed": (None, lambda v: v is None or _is_int(v), "an integer"),
    "density": (
        0.5,
        lambda v: (_is_int(v) or isinstance(v, float)) and 0 <= v <= 1,
        "a number in [0, 1]",
    ),
    "exhaustive": (True, lambda v: isinstance(v, bool), "true or false"),
}


def _parse_search_spec(spec_data: dict, cli_seed) -> SearchSpec:
    if not isinstance(spec_data, dict):
        raise ParseError("search spec must be a JSON object")
    unknown = set(spec_data) - set(_SPEC_FIELDS)
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}")
    if "n" not in spec_data:
        raise ParseError("missing required field", "n")
    fields = {}
    for name, (default, valid, expected) in _SPEC_FIELDS.items():
        fields[name] = spec_data.get(name, default)
        if not valid(fields[name]):
            raise ParseError(f"expected {expected}", name)
    for name in ("required", "forbidden"):
        unknown = sorted(set(fields[name]) - set(AXIOM_ORDER))
        if unknown:
            raise ParseError(f"expected axiom names, got unknown {unknown}", name)
    fields["seed"] = _pick_seed(cli_seed, fields["seed"])
    fields["required"] = tuple(fields["required"])
    fields["forbidden"] = tuple(fields["forbidden"])
    try:
        return SearchSpec(**fields)
    except MsslabError as exc:
        raise ParseError(str(exc))


def _structure_dict(s) -> dict:
    """The found structure as the search report lists it: names, not masks."""
    from_mask = s.universe.from_mask
    table = s.delta.table
    return {
        "universe": list(s.universe.elements),
        "granules": [sorted(g.members()) for g in s.granulation],
        "delta_kind": s.delta.kind,
        "delta_table": (
            sorted([sorted(from_mask(m).members()) for m in triple] for triple in table)
            if table is not None
            else None
        ),
    }


def _search_report(spec_data: dict, cli_seed) -> dict:
    spec = _parse_search_spec(spec_data, cli_seed)
    found, examined = find_witness(spec)
    return {
        "command": "search",
        "provenance": provenance(spec.seed),
        "spec": {
            "n": spec.n,
            "family": spec.family,
            "delta": spec.delta,
            "required": list(spec.required),
            "forbidden": list(spec.forbidden),
            "budget": spec.budget,
            "density": spec.density,
            "exhaustive": spec.exhaustive,
        },
        "search": {
            "found": found is not None,
            "examined": examined,
            "structure": _structure_dict(found) if found is not None else None,
            "note": None if found is not None else "none within budget",
        },
    }


def _replay(cfg, report) -> int:
    if not isinstance(report, dict):
        raise ParseError("report must be a JSON object")
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

        data = _load_json(args.config)
        cfg = parse_config(data)
        if args.command == "replay":
            return _replay(cfg, _load_json(args.report))
        seed = _pick_seed(args.seed, cfg.seed)
        if args.command == "check-axioms":
            report = build_check_axioms(cfg, seed=seed)
        elif args.command == "validate":
            report = build_validate(cfg, seed=seed)
        else:
            report = run_pipeline(cfg, seed=seed)
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
