"""Correctness gate: checks one CLI report against msslab's own oracles.

A report passes when it validates against the report schema, every
exhaustive verdict on an oracle-backed axiom agrees with
``oracles.o_claim``, deficits and compatibility rows agree with
``o_deficits`` and ``o_compatible``, every failing witness replays, and a
search answer matches an oracle recomputation over the same enumeration.
Pipeline reports are walked through ``steps.step5_investigate`` too.
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema

from msslab import oracles
from msslab.config import parse_config
from msslab.oracles import StructureDescription
from msslab.search import enumerate_structures
from msslab.structure import ADMISSIBILITY_AXIOMS, axiom_instance, replay
from msslab.validation import check_proposition
from msslab.verdicts import Verdict

from workloads import Workload, search_spec

PASSING = ("holds", "vacuous")


class Gate:
    def __init__(self, schema_path: Path):
        with open(schema_path, encoding="utf-8") as handle:
            self.validator = jsonschema.Draft202012Validator(json.load(handle))

    def check(self, workload: Workload, seed: int, report: dict) -> tuple[list[str], int]:
        """Problems found in the report, and the count of sampled verdicts
        that pass although the oracle says the axiom fails."""
        problems = [
            f"schema: {error.message} at {list(error.absolute_path)}"
            for error in self.validator.iter_errors(report)
        ]
        if report.get("command") != workload.command:
            problems.append(f"command is {report.get('command')!r}, not {workload.command!r}")
        if problems:
            return problems, 0
        if workload.command == "search":
            return _check_search(workload.document, seed, report["search"]), 0
        return _check_config(workload.document, report)


def _sections(report: dict):
    yield report
    steps = report.get("steps")
    if steps is not None:
        yield steps["step5_investigate"]


def _subsets(universe, witness):
    return tuple(universe.subset(part) for part in witness)


def _check_config(document: dict, report: dict) -> tuple[list[str], int]:
    cfg = parse_config(document)
    specs = {spec.name: spec for spec in cfg.deltas}
    problems: list[str] = []
    misses = 0
    for section in _sections(report):
        if "axioms" in section:
            found, missed = _check_axioms(cfg, specs, section["axioms"])
            problems += found
            misses += missed
        if "validation" in section:
            problems += _check_validation(cfg, specs, section["validation"])
    return problems, misses


def _check_axioms(cfg, specs, axioms: dict) -> tuple[list[str], int]:
    problems = []
    misses = 0
    groups = [(None, axioms["structural"])] + sorted(axioms["per_delta"].items())
    for name, verdicts in groups:
        s = cfg.structure(specs[name] if name else None)
        desc = StructureDescription.from_structure(s)
        label = f"per_delta[{name}]" if name else "structural"
        for v in verdicts:
            axiom, status, mode = v["axiom"], v["status"], v["mode"]
            if status == "fails":
                problems += _replay(s, v, label)
            if axiom not in oracles.ORACLE_AXIOMS or status not in PASSING + ("fails",):
                continue
            if mode == "exhaustive":
                if oracles.o_claim(desc, f"axiom:{axiom}") != (status in PASSING):
                    problems.append(f"{label}: {axiom} is {status} but the oracle disagrees")
            elif mode == "sampled" and status in PASSING:
                misses += not oracles.o_claim(desc, f"axiom:{axiom}")
    return problems, misses


def _replay(s, v: dict, label: str) -> list[str]:
    axiom = v["axiom"]
    if not v["witnesses"]:
        return [f"{label}: {axiom} fails without a witness"]
    witnesses = tuple(_subsets(s.universe, w) for w in v["witnesses"])
    if axiom in ADMISSIBILITY_AXIOMS:
        replayed = replay(s, Verdict(axiom, "fails", witnesses=witnesses))
    else:
        replayed = all(axiom_instance(s, axiom, args) is False for args in witnesses)
    return [] if replayed else [f"{label}: witness of {axiom} does not replay"]


def _as_set(names):
    return frozenset(names) if names is not None else None


def _check_validation(cfg, specs, validation: dict) -> list[str]:
    problems = []
    base = cfg.structure(None)
    granules = StructureDescription.from_structure(base).granules
    for row in validation["clusters"]:
        if row.get("status") == "deferred":
            continue
        cluster = frozenset(row["cluster"])
        expected = oracles.o_deficits(cluster, granules)
        if (_as_set(row["lower_deficit"]), _as_set(row["upper_deficit"])) != expected:
            problems.append(f"deficits of {sorted(cluster)} disagree with the oracle")
        if row["proposition"]["status"] == "fails":
            c = cfg.universe.subset(row["cluster"])
            if not check_proposition(c, base.ops, base.difference_policy).failed:
                problems.append(f"deficit-traceability witness {sorted(cluster)} does not replay")
    for row in validation["compatibility"]:
        s = cfg.structure(specs[row["delta"]])
        label = f"compatibility[{row['delta']}, {row['mode']}]"
        if row["compatible"] != (row["status"] != "fails"):
            problems.append(f"{label}: compatible flag contradicts status {row['status']}")
        if oracles.o_compatible(StructureDescription.from_structure(s), row["mode"]) != row["compatible"]:
            problems.append(f"{label}: disagrees with the oracle")
        if row["status"] == "fails":
            if not row["witnesses"]:
                problems.append(f"{label}: fails without a witness")
            for w in row["witnesses"]:
                if s.delta(*_subsets(cfg.universe, w)):
                    problems.append(f"{label}: witness {w} does not replay")
    return problems


def _check_search(document: dict, seed: int, answer: dict) -> list[str]:
    expected = oracle_search(document, seed)
    got = {"found": answer["found"], "examined": answer["examined"], "granules": None}
    if answer["found"]:
        got["granules"] = sorted(answer["structure"]["granules"])
    if got != expected:
        return [f"search answer {got} disagrees with the oracle's {expected}"]
    return []


def oracle_search(document: dict, seed: int) -> dict:
    """The first enumerated structure whose oracle verdicts meet the spec."""
    spec = search_spec(document, seed)
    examined = 0
    for s in enumerate_structures(spec):
        examined += 1
        desc = StructureDescription.from_structure(s)
        if all(not oracles.o_claim(desc, f"axiom:{a}") for a in spec.forbidden) and all(
            oracles.o_claim(desc, f"axiom:{a}") for a in spec.required
        ):
            granules = sorted(sorted(g) for g in desc.granules)
            return {"found": True, "examined": examined, "granules": granules}
    return {"found": False, "examined": examined, "granules": None}
