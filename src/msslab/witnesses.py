"""Replay: re-evaluate every failing witness of a finished report.

Only ``msslab replay`` needs this, so it is kept out of the modules every
command imports.
"""

from __future__ import annotations

from typing import Optional

from .config import LabConfig, _mask
from .errors import ParseError, fields
from .laws import LAWS
from .structure import replay
from .validation import COMPATIBILITY_MODES, COMPATIBILITY_READS, _compat_instances
from .verdicts import FAILS, Verdict


def _expect(node, kind: type, field: str):
    if not isinstance(node, kind):
        name = {dict: "an object", list: "an array", str: "a string"}[kind]
        raise ParseError(f"must be {name}", field)
    return node


def replay_failures(cfg: LabConfig, report) -> list[str]:
    """Re-evaluate every failing witness in a report; return unsound ones.

    Walks the report's own axiom verdicts and compatibility rows and, in a
    pipeline report, those under ``steps.step5_investigate``, reading each
    witness part with the config's element reader. A report that is no
    object (``errors.fields``), a part it reads whose shape is not that of
    ``schemas/report.schema.json``, a delta the config does not declare
    (each ``per_delta`` key and each compatibility row's ``delta``), a
    witness element outside its universe, a failing row whose axiom names
    no law with a definition, or a failing law or compatibility row that
    reads a slot the config leaves unbound, is a ``ParseError`` naming the
    JSON path, as is a failing compatibility row's unknown ``mode``. A
    compatibility witness is replayed on the config's structure under its
    delta, so its reduct applies, and must be an instance of the mode.
    """
    problems = []
    specs = {spec.name: spec for spec in cfg.deltas}

    def failing(v, field: str, key: str) -> Optional[list]:
        """The witnesses of the row ``v`` when it fails, each a tuple of
        ``arity`` masks; None when it does not fail."""
        if _expect(v, dict, field).get("status") != "fails":
            return None
        name = _expect(v.get(key), str, f"{field}.{key}")
        # A compatibility witness is a triple; a law's has one subset per variable.
        arity = 3 if key == "delta" else getattr(LAWS.get(name), "arity", None)
        witnesses = []
        for i, w in enumerate(_expect(v.get("witnesses", []), list, f"{field}.witnesses")):
            at = f"{field}.witnesses[{i}]"
            # Every witness is an array, also of a law with no arity.
            if len(_expect(w, list, at)) != arity and arity is not None:
                raise ParseError(f"a witness of {name} must have {arity} subsets", at)
            masks = [_mask(cfg.universe, part, f"{at}[{j}]") for j, part in enumerate(w)]
            witnesses.append(tuple(masks))
        return witnesses

    def declared(delta_name, field: str) -> None:
        """Refuse a delta name that is no string the config declares."""
        if _expect(delta_name, str, field) not in specs:
            raise ParseError(f"names delta {delta_name!r}, which the config does not declare", field)

    def bound(delta_name: Optional[str], reads, name: str, field: str):
        """The config's structure under the declared delta ``delta_name``
        (None is no delta, and "" a name), refused when it leaves a slot of
        ``reads`` unbound."""
        s = cfg.structure(specs.get(delta_name))
        unbound = reads - s.bound_slots()
        if unbound:
            raise ParseError(
                f"{name} reads {sorted(unbound)}, which the config leaves unbound", field
            )
        return s

    def check(v, delta_name: Optional[str], field: str, label: str):
        witnesses = failing(v, field, "axiom")
        if witnesses is None:
            return
        law = LAWS.get(v["axiom"])
        if law is None or not law.defined:
            raise ParseError(f"{v['axiom']!r} names no law with a definition", f"{field}.axiom")
        if not witnesses:
            problems.append(f"{label}: failing verdict without witness")
            return
        s = bound(delta_name, law.reads, v["axiom"], field)
        subsets = tuple(tuple(map(cfg.universe.from_mask, w)) for w in witnesses)
        if not replay(s, Verdict(v["axiom"], FAILS, witnesses=subsets)):
            problems.append(f"{label}: a witness of {v['axiom']} does not replay")

    fields(report, "report")
    steps = _expect(report.get("steps", {}), dict, "steps")
    step5 = _expect(steps.get("step5_investigate", {}), dict, "steps.step5_investigate")
    for prefix, section in (("", report), ("steps.step5_investigate.", step5)):
        axioms = _expect(section.get("axioms", {}), dict, f"{prefix}axioms")
        field = f"{prefix}axioms.structural"
        for i, v in enumerate(_expect(axioms.get("structural", []), list, field)):
            check(v, None, f"{field}[{i}]", "structural")
        per_delta = _expect(axioms.get("per_delta", {}), dict, f"{prefix}axioms.per_delta")
        for name, verdicts in per_delta.items():
            field = f"{prefix}axioms.per_delta.{name}"
            declared(name, field)
            for i, v in enumerate(_expect(verdicts, list, field)):
                check(v, name, f"{field}[{i}]", f"per_delta[{name}]")

        validation = _expect(section.get("validation", {}), dict, f"{prefix}validation")
        field = f"{prefix}validation.compatibility"
        for i, row in enumerate(_expect(validation.get("compatibility", []), list, field)):
            declared(_expect(row, dict, f"{field}[{i}]").get("delta"), f"{field}[{i}].delta")
            witnesses = failing(row, f"{field}[{i}]", "delta")
            if witnesses is None:
                continue
            mode = row.get("mode")
            if mode not in COMPATIBILITY_MODES:
                raise ParseError(f"unsupported compatibility mode {mode!r}", f"{field}[{i}].mode")
            label = f"compatibility[{row['delta']}]"
            if not witnesses:
                problems.append(f"{label}: failing row without witness")
                continue
            s = bound(row["delta"], COMPATIBILITY_READS, "compatibility", f"{field}[{i}]")
            triples = set(_compat_instances(s.kappa, s.universe.size, mode))
            for w in witnesses:
                if s.delta.masked()(*w):
                    problems.append(f"{label}: witness does not violate")
                elif w not in triples:
                    problems.append(f"{label}: witness is not an instance of {mode}")
    return problems
