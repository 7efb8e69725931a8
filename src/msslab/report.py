"""Report documents: building, canonical JSON serialization, text projection.

Reports are plain dicts serialized with sorted keys so that equal runs
diff cleanly; the text format is rendered from the finished dict and
never computed separately. ``document``, which writes every report's
command and provenance, and ``to_json`` are defined in ``verdicts``,
which the search command loads without this module.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional

from .errors import ParseError
from .laws import LAWS
from .structure import classify, verify
from .validation import GRADE_READS, ClusterGrades, check_compatibility, validate_clustering
from .verdicts import DEFERRED, Verdict, document, run_seed, to_json

if TYPE_CHECKING:  # annotations only
    from .config import LabConfig

# The laws checked once per delta candidate; every other law of ``verify``
# is checked once per structure.
PER_DELTA_AXIOMS = tuple(a for a, law in LAWS.items() if "delta" in law.reads)


def verdict_dict(v: Verdict) -> dict:
    """The verdict's fields, each witness as lists of element names."""
    return {**v._asdict(), "witnesses": [[list(part.members()) for part in w] for w in v.witnesses]}


def structure_summary(cfg: LabConfig) -> dict:
    g = cfg.base.granulation  # an empty granulation is falsy, yet given
    return {
        "universe": list(cfg.universe.elements),
        "relation": (
            [list(p) for p in cfg.relation.named_pairs()] if cfg.relation else None
        ),
        "granules": None if g is None else [list(cfg.universe.names(m)) for m in g],
        "granulation_notes": [] if g is None else list(g.notes),
        "delta_candidates": [d.name for d in cfg.deltas],
        "sum": getattr(cfg.base.sum, "mode", None),
        "clustering": cluster_names(cfg),
        "reduct": list(cfg.reduct_keep) if cfg.reduct_keep is not None else None,
    }


def cluster_names(cfg: LabConfig) -> Optional[list[list[str]]]:
    """The config's clusters, each as its element names."""
    if cfg.base.kappa is None:
        return None
    return [list(cfg.universe.names(mask)) for mask in cfg.base.kappa]


def axioms_section(cfg: LabConfig, *, seed: Optional[int]) -> dict:
    """Structural verdicts once, coherence and sum-interaction per candidate."""
    structural = [v for v in verify(cfg.base, seed=seed) if v.axiom not in PER_DELTA_AXIOMS]

    per_delta = {}
    classification = {}
    for spec in cfg.deltas:
        s = cfg.structure(spec)
        verdicts = verify(s, PER_DELTA_AXIOMS, seed=seed)
        per_delta[spec.name] = [verdict_dict(v) for v in verdicts]
        flags = classify(s, structural + verdicts)
        classification[spec.name] = flags._asdict()

    section = {
        "structural": [verdict_dict(v) for v in structural],
        "per_delta": per_delta,
        "classification": classification,
    }
    if not cfg.deltas:
        section["note"] = "no delta candidates; coherence checks deferred"
    return section


def validation_section(cfg: LabConfig) -> dict:
    s = cfg.base
    if s.kappa is None:
        raise ParseError("missing clustering input", "clustering")
    section: dict = {}

    unbound = GRADE_READS - s.bound_slots()
    if unbound:
        section["clusters"] = [
            {"cluster": names, "status": "deferred"} for names in cluster_names(cfg)
        ]
        section["clustering_grades"] = {"status": "deferred"}
        section["note"] = (
            "approximation operators unbound; deficits and grades deferred"
            if "l" in unbound
            else "cluster membership unbound; deficits, grades and compatibility deferred"
        )
    else:
        report = validate_clustering(s)
        section["clusters"] = [
            {
                "cluster": list(r.cluster.members()),
                "lower_deficit": list(r.lower_deficit.members()),
                "upper_deficit": (
                    None if r.upper_deficit is None else list(r.upper_deficit.members())
                ),
                **r.grades._asdict(),
                "proposition": verdict_dict(r.proposition),
            }
            for r in report.per_cluster
        ]
        section["clustering_grades"] = report.grades._asdict()
        section["note"] = "lu-validity is the two-sided fixpoint lower(C) = upper(C) = C"

    compat = []
    for spec in cfg.deltas:
        s = cfg.structure(spec)
        for mode_name in cfg.compatibility_modes:
            verdict = check_compatibility(s, mode_name)
            row = verdict_dict(verdict)
            compat.append(
                {
                    "delta": spec.name,
                    "mode": mode_name,
                    "compatible": None if verdict.status == DEFERRED else not verdict.failed,
                    **{key: row[key] for key in ("status", "witnesses", "instances_checked")},
                }
            )
    section["compatibility"] = compat
    return section


def build_check_axioms(cfg: LabConfig, *, seed: Optional[int], jobs: int = 1) -> dict:
    """The check-axioms report. ``jobs`` is accepted and ignored; it stays
    only because ``bench/traced.py`` passes ``jobs=1``."""
    seed = run_seed(seed, cfg.seed)
    axioms = axioms_section(cfg, seed=seed)
    return document("check-axioms", seed, structure=structure_summary(cfg), axioms=axioms)


def build_validate(cfg: LabConfig, *, seed: Optional[int], jobs: int = 1) -> dict:
    """The validate report. ``jobs`` is accepted and ignored; it stays only
    because ``bench/traced.py`` passes ``jobs=1``."""
    seed = run_seed(seed, cfg.seed)
    return document(
        "validate", seed, structure=structure_summary(cfg), validation=validation_section(cfg)
    )


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
    out(f"  {label or v['axiom']:<34} {v['status']:<12}{witness}{note}".rstrip())


def _pairs(row: dict) -> str:
    """``key=value`` for each entry, in the JSON's sorted key order."""
    return ", ".join(
        f"{key}={'deferred' if val is None else val}" for key, val in sorted(row.items())
    )


def _note(out, section):
    if section.get("note"):
        out(f"  note: {section['note']}")


def _render_section(out, section):
    """The axioms and validation of a report, or of its step 5."""
    axioms = section.get("axioms")
    if axioms:
        out("axioms:")
        for v in axioms.get("structural", []):
            _verdict_line(out, v)
        for name, verdicts in sorted(axioms.get("per_delta", {}).items()):
            out(f"axioms under {name}:")
            for v in verdicts:
                _verdict_line(out, v)
        for name, flags in sorted(axioms.get("classification", {}).items()):
            out(f"classification under {name}: {_pairs(flags)}")
        _note(out, axioms)
    validation = section.get("validation")
    if validation:
        out("clusters:")
        for row in validation.get("clusters", []):
            cluster = _set_text(row["cluster"])
            if row.get("status") == "deferred":
                out(f"  {cluster:<20} deferred")
                continue
            lo = "undefined" if row["lower_deficit"] is None else _set_text(row["lower_deficit"])
            up = "undefined" if row["upper_deficit"] is None else _set_text(row["upper_deficit"])
            out(f"  {cluster:<20} lower-deficit {lo:<14} upper-deficit {up}")
            out(f"    grades: {_pairs({key: row[key] for key in ClusterGrades._fields})}")
            out(f"    proposition: {row['proposition']['status']}")
        if validation.get("clustering_grades"):
            out(f"clustering grades: {_pairs(validation['clustering_grades'])}")
        if validation.get("compatibility"):
            out("compatibility:")
            for row in validation["compatibility"]:
                _verdict_line(out, row, label=f"{row['delta']} under {row['mode']}")
        _note(out, validation)


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
        if structure.get("granules") is not None:
            out(f"  granules: {', '.join(map(_set_text, structure['granules'])) or 'none'}")
        for note in structure.get("granulation_notes", []):
            out(f"  granulation note: {note}")
        if structure.get("clustering"):
            out(f"  clustering: {', '.join(_set_text(c) for c in structure['clustering'])}")
        if structure.get("reduct") is not None:
            out(f"  reduct keeps: {' '.join(structure['reduct']) or 'no slots'}")

    _render_section(out, report)

    steps = report.get("steps")
    if steps:
        for name in ("step1_assemble", "step2_reduct", "step3_clustering", "step4_bind"):
            if name in steps:
                out(f"{name}: {json.dumps(steps[name], sort_keys=True)}")
        _render_section(out, steps.get("step5_investigate", {}))

    search = report.get("search")
    if search:
        out(f"search: found={search['found']} examined={search['examined']}")
        if search.get("structure"):
            out(f"  witness structure: {json.dumps(search['structure'], sort_keys=True)}")
        _note(out, search)

    return "\n".join(lines) + "\n"
