"""Report documents: building, canonical JSON serialization, text projection.

Reports are plain dicts serialized with sorted keys so that equal runs
diff cleanly; the text format is rendered from the finished dict and
never computed separately.
"""

from __future__ import annotations

import json
from typing import Optional

from . import __version__ as _version
from .config import LabConfig
from .errors import ParseError
from .structure import (
    ADMISSIBILITY_AXIOMS,
    LAWS,
    MssStructure,
    classify,
    replay,
    verify,
)
from .validation import check_compatibility, validate_clustering
from .verdicts import DEFAULT_SEED, FAILS, Verdict

# Laws checked once per structure, and those checked once per delta candidate.
STRUCTURAL_AXIOMS = tuple(a for a, law in LAWS.items() if not law.reads & {"delta", "gamma"})
PER_DELTA_AXIOMS = tuple(a for a, law in LAWS.items() if "delta" in law.reads)


def subset_names(subset) -> list[str]:
    return list(subset.members())


def verdict_dict(v: Verdict) -> dict:
    return {
        "axiom": v.axiom,
        "status": v.status,
        "witnesses": [[subset_names(part) for part in w] for w in v.witnesses],
        "instances_checked": v.instances_checked,
        "mode": v.mode,
        "seed": v.seed,
        "note": v.note,
    }


def partial_dict(p) -> Optional[list[str]]:
    return subset_names(p.value) if p.defined else None


def classification_dict(c) -> dict:
    return {
        "is_mss": c.is_mss,
        "is_strict": c.is_strict,
        "is_rough": c.is_rough,
        "is_gmss": c.is_gmss,
    }


def structure_summary(cfg: LabConfig) -> dict:
    return {
        "universe": list(cfg.universe.elements),
        "relation": (
            [list(p) for p in cfg.relation.named_pairs()] if cfg.relation else None
        ),
        "granules": (
            [subset_names(g) for g in cfg.granulation] if cfg.granulation else None
        ),
        "granulation_notes": list(cfg.granulation.notes) if cfg.granulation else [],
        "delta_candidates": [d.name for d in cfg.deltas],
        "sum": cfg.sum_mode,
        "clustering": (
            [list(names) for names in cfg.clustering_lists]
            if cfg.clustering_lists
            else None
        ),
        "reduct": list(cfg.reduct_keep) if cfg.reduct_keep else None,
    }


def provenance(seed: Optional[int]) -> dict:
    """Tool, version, and the seed sampled sweeps use (``DEFAULT_SEED`` for None)."""
    return {
        "tool": "msslab",
        "version": _version,
        "seed": DEFAULT_SEED if seed is None else seed,
    }


def axioms_section(cfg: LabConfig, *, seed: Optional[int]) -> dict:
    """Structural verdicts once, coherence and sum-interaction per candidate."""
    base = cfg.structure(None)
    structural_list = list(STRUCTURAL_AXIOMS)
    if base.granulation is not None:
        structural_list += list(ADMISSIBILITY_AXIOMS)
    structural = verify(base, structural_list, seed=seed)

    per_delta = {}
    classification = {}
    for spec in cfg.deltas:
        s = cfg.structure(spec)
        verdicts = verify(s, PER_DELTA_AXIOMS, seed=seed)
        per_delta[spec.name] = [verdict_dict(v) for v in verdicts]
        flags = classify(s, list(structural) + list(verdicts))
        classification[spec.name] = classification_dict(flags)

    section = {
        "structural": [verdict_dict(v) for v in structural],
        "per_delta": per_delta,
        "classification": classification,
    }
    if not cfg.deltas:
        section["note"] = "no delta candidates; coherence checks deferred"
    return section


def validation_section(cfg: LabConfig, *, seed: Optional[int]) -> dict:
    clustering = cfg.clustering()
    if clustering is None:
        raise ParseError("missing clustering input", "clustering")
    s = cfg.structure(None)
    section: dict = {}

    if s.ops is None:
        section["clusters"] = [
            {"cluster": list(names), "status": "deferred"}
            for names in cfg.clustering_lists
        ]
        section["clustering_grades"] = {"status": "deferred"}
        section["note"] = "approximation operators unbound; deficits and grades deferred"
    else:
        report = validate_clustering(clustering, s.ops)
        section["clusters"] = [
            {
                "cluster": subset_names(r.cluster),
                "lower_deficit": partial_dict(r.lower_deficit),
                "upper_deficit": partial_dict(r.upper_deficit),
                "lu_valid": r.grades.lu_valid,
                "l_pre_valid": r.grades.l_pre_valid,
                "u_pre_valid": r.grades.u_pre_valid,
                "proposition": verdict_dict(r.proposition),
            }
            for r in report.per_cluster
        ]
        section["clustering_grades"] = {
            "lu_valid": report.lu_valid,
            "l_pre_valid": report.l_pre_valid,
            "u_pre_valid": report.u_pre_valid,
        }
        section["note"] = report.note

    compat = []
    for spec in cfg.deltas:
        d = spec.build(cfg.universe, cfg.granulation)
        for mode_name in cfg.compatibility_modes:
            verdict = check_compatibility(clustering, d, mode_name)
            compat.append(
                {
                    "delta": spec.name,
                    "mode": mode_name,
                    "compatible": not verdict.failed,
                    "status": verdict.status,
                    "witnesses": [
                        [subset_names(part) for part in w] for w in verdict.witnesses
                    ],
                    "instances_checked": verdict.instances_checked,
                }
            )
    section["compatibility"] = compat
    return section


def build_check_axioms(cfg: LabConfig, *, seed: Optional[int], jobs: int = 1) -> dict:
    """The check-axioms report. ``jobs`` is accepted and ignored; it stays
    only because ``bench/traced.py`` passes ``jobs=1``."""
    return {
        "command": "check-axioms",
        "provenance": provenance(seed),
        "structure": structure_summary(cfg),
        "axioms": axioms_section(cfg, seed=seed),
    }


def build_validate(cfg: LabConfig, *, seed: Optional[int], jobs: int = 1) -> dict:
    """The validate report. ``jobs`` is accepted and ignored; it stays only
    because ``bench/traced.py`` passes ``jobs=1``."""
    return {
        "command": "validate",
        "provenance": provenance(seed),
        "structure": structure_summary(cfg),
        "validation": validation_section(cfg, seed=seed),
    }


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


def has_failures(report: dict) -> bool:
    """Any failing verdict anywhere in the document."""

    def walk(node):
        if isinstance(node, dict):
            if node.get("status") == "fails":
                return True
            return any(walk(v) for v in node.values())
        if isinstance(node, list):
            return any(walk(v) for v in node)
        return False

    return walk(report)


def _set_text(names) -> str:
    return "{" + ",".join(names) + "}"


def _verdict_line(out, v, label=None):
    witness = ""
    if v.get("witnesses"):
        first = v["witnesses"][0]
        witness = "  witness " + " ".join(_set_text(p) for p in first)
    note = f"  ({v['note']})" if v.get("note") else ""
    out(f"  {label or v['axiom']:<34} {v['status']:<12}{witness}{note}")


def _render_axioms(out, axioms):
    out("axioms:")
    for v in axioms.get("structural", []):
        _verdict_line(out, v)
    for name, verdicts in sorted(axioms.get("per_delta", {}).items()):
        out(f"axioms under {name}:")
        for v in verdicts:
            _verdict_line(out, v)
    for name, flags in sorted(axioms.get("classification", {}).items()):
        rendered = ", ".join(
            f"{key}={'deferred' if val is None else val}"
            for key, val in sorted(flags.items())
        )
        out(f"classification under {name}: {rendered}")
    if axioms.get("note"):
        out(f"  note: {axioms['note']}")


def _render_validation(out, validation):
    out("clusters:")
    for row in validation.get("clusters", []):
        cluster = _set_text(row["cluster"])
        if row.get("status") == "deferred":
            out(f"  {cluster:<20} deferred")
            continue
        lo = "undefined" if row["lower_deficit"] is None else _set_text(row["lower_deficit"])
        up = "undefined" if row["upper_deficit"] is None else _set_text(row["upper_deficit"])
        out(f"  {cluster:<20} lower-deficit {lo:<14} upper-deficit {up}")
        grades = ", ".join(
            f"{key}={row[key]}" for key in ("lu_valid", "l_pre_valid", "u_pre_valid")
        )
        out(f"    grades: {grades}")
        out(f"    proposition: {row['proposition']['status']}")
    grades = validation.get("clustering_grades", {})
    if grades:
        rendered = ", ".join(f"{key}={val}" for key, val in sorted(grades.items()))
        out(f"clustering grades: {rendered}")
    if validation.get("compatibility"):
        out("compatibility:")
        for row in validation["compatibility"]:
            _verdict_line(out, row, label=f"{row['delta']} under {row['mode']}")


def render_text(report: dict) -> str:
    """Human-readable projection of the finished JSON document."""
    lines = []
    out = lines.append
    out(f"msslab {report.get('command', 'report')}")
    prov = report.get("provenance", {})
    out(f"  version {prov.get('version')}, seed {prov.get('seed')}")

    structure = report.get("structure")
    if structure:
        out("structure:")
        out(f"  universe: {' '.join(structure['universe'])}")
        if structure.get("granules"):
            out(f"  granules: {', '.join(_set_text(g) for g in structure['granules'])}")
        if structure.get("clustering"):
            out(f"  clustering: {', '.join(_set_text(c) for c in structure['clustering'])}")
        if structure.get("reduct"):
            out(f"  reduct keeps: {' '.join(structure['reduct'])}")

    if report.get("axioms"):
        _render_axioms(out, report["axioms"])
    if report.get("validation"):
        _render_validation(out, report["validation"])

    steps = report.get("steps")
    if steps:
        for name in ("step1_assemble", "step2_reduct", "step3_clustering", "step4_bind"):
            if name in steps:
                out(f"{name}: {json.dumps(steps[name], sort_keys=True)}")
        investigate = steps.get("step5_investigate", {})
        if investigate.get("axioms"):
            _render_axioms(out, investigate["axioms"])
        if investigate.get("validation"):
            _render_validation(out, investigate["validation"])

    search = report.get("search")
    if search:
        out(f"search: found={search['found']} examined={search['examined']}")
        if search.get("structure"):
            out(f"  witness structure: {json.dumps(search['structure'], sort_keys=True)}")
        if search.get("note"):
            out(f"  {search['note']}")

    return "\n".join(lines) + "\n"


def replay_failures(cfg: LabConfig, report: dict) -> list[str]:
    """Re-evaluate every failing witness in a report; return unsound ones.

    Walks the report's own axiom verdicts and compatibility rows and, in a
    pipeline report, those under ``steps.step5_investigate``. A delta the
    config does not declare is a ``ParseError``.
    """
    problems = []
    specs = {spec.name: spec for spec in cfg.deltas}

    def spec_for(name: str):
        if name not in specs:
            raise ParseError(f"the report names delta {name!r}, which the config does not declare")
        return specs[name]

    def structure_for(name: Optional[str]) -> MssStructure:
        return cfg.structure(spec_for(name)) if name else cfg.structure(None)

    def subsets(witness):
        return tuple(cfg.universe.subset(part) for part in witness)

    def check(verdict: dict, delta_name: Optional[str], label: str):
        if verdict.get("status") != "fails":
            return
        if not verdict.get("witnesses"):
            problems.append(f"{label}: failing verdict without witness")
            return
        axiom = verdict["axiom"]
        witnesses = tuple(subsets(w) for w in verdict["witnesses"])
        if not replay(structure_for(delta_name), Verdict(axiom, FAILS, witnesses=witnesses)):
            problems.append(f"{label}: a witness of {axiom} does not replay")

    steps = report.get("steps", {})
    for section in (report, steps.get("step5_investigate", {})):
        axioms = section.get("axioms", {})
        for v in axioms.get("structural", []):
            check(v, None, "structural")
        for name, verdicts in axioms.get("per_delta", {}).items():
            for v in verdicts:
                check(v, name, f"per_delta[{name}]")

        for row in section.get("validation", {}).get("compatibility", []):
            if row.get("status") != "fails":
                continue
            d = spec_for(row["delta"]).build(cfg.universe, cfg.granulation)
            for w in row["witnesses"]:
                if d(*subsets(w)):
                    problems.append(f"compatibility[{row['delta']}]: witness does not violate")
    return problems
