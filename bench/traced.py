"""Traced in-process run of one workload, in a fresh interpreter.

Calls the msslab layers in the order the CLI does and wraps each layer's
public functions from here, so nothing under src/ changes. Spans are kept
in memory and printed once, as one JSON object, when the run ends. A span
is [name, start, end, parent index, workload]; its name is the per-layer
metric its self time counts towards.

Calls made inside an opaque span (search enumeration and verification,
the proposition check) update counts but open no span of their own, so
their whole time stays with that span.

Usage: python3 traced.py WORKLOAD COMMAND INPUT.json SEED REPORT_OUT
"""

import json
import sys
import time
from contextlib import contextmanager

clock = time.perf_counter

# The 23 axioms that go through the quantifier sweep.
SWEPT_AXIOMS = (
    "PT1", "PT2", "G1", "G2", "G3", "G4", "G5", "UL1", "UL2", "UL3", "TB",
    "lclu", "i-coh", "n-coh", "i-coh-2", "strict-n-coh", "trans-1",
    "omega-star-com", "omega-id", "omega-asso",
    "delta-sum1", "delta-sum2", "delta-sum3",
)


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self.stack = []  # (span index, opaque)
        self.counts = {}

    @contextmanager
    def span(self, name: str, opaque: bool = False):
        if self.stack and self.stack[-1][1]:
            yield
            return
        parent = self.stack[-1][0] if self.stack else None
        index = len(self.spans)
        self.spans.append([name, clock(), None, parent, self.workload])
        self.stack.append((index, opaque))
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][2] = clock()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, owner, attr, name, *, after=None, opaque=False):
        """Replace ``owner.attr`` by a traced call; ``name`` may be a function
        of the call's arguments, returning None for calls left untraced."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            if span is None:
                result = original(*args, **kwargs)
            else:
                with self.span(span, opaque):
                    result = original(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, traced)


def install(tracer: Tracer) -> None:
    from msslab import config, report, search, structure, validation

    def axiom_span(s, axiom, **kwargs):
        if axiom in structure.ADMISSIBILITY_AXIOMS:
            return "structure.admissibility_s"
        return f"structure.verify_s.{axiom}" if axiom in SWEPT_AXIOMS else None

    def count_verdict(v):
        if v.axiom not in SWEPT_AXIOMS or v.mode not in ("exhaustive", "sampled"):
            return
        tracer.count(f"structure.instances.{v.axiom}", v.instances_checked)
        tracer.count(f"verdicts.{v.mode}_verdicts")
        if v.mode == "sampled":
            tracer.count("verdicts.sampled_instances", v.instances_checked)

    def count_assembly(_):
        tracer.count("structure.assemble_calls")

    def count_compat(v):
        tracer.count("validation.compat_instances", v.instances_checked)

    tracer.wrap(config.LabConfig, "structure", "structure.assemble_s", after=count_assembly)
    tracer.wrap(search, "assemble", "structure.assemble_s", after=count_assembly)
    tracer.wrap(structure, "check_axiom", axiom_span, after=count_verdict)
    tracer.wrap(report, "classify", "structure.classify_s")
    tracer.wrap(validation, "lower_deficit", "validation.deficits_s")
    tracer.wrap(validation, "upper_deficit", "validation.deficits_s")
    tracer.wrap(validation, "validity_grades", "validation.grades_s")
    tracer.wrap(validation, "check_proposition", "validation.proposition_s", opaque=True)
    tracer.wrap(report, "check_compatibility", "validation.compatibility_s", after=count_compat)


def run_config(tracer, command, path, seed, report_out):
    from msslab import config, pipeline, report

    with tracer.span("config.parse_s"):
        with open(path, encoding="utf-8") as handle:
            cfg = config.parse_config(json.load(handle))
    build = {
        "check-axioms": report.build_check_axioms,
        "validate": report.build_validate,
        "pipeline": pipeline.run_pipeline,
    }[command]
    with tracer.span("report.build_s"):
        document = build(cfg, seed=seed, jobs=1)
    with tracer.span("report.serialize_s"):
        text = report.to_json(document)
    tracer.count("report.bytes", len(text.encode("utf-8")))
    with open(report_out, "w", encoding="utf-8") as handle:
        handle.write(text)
    return None


def run_search(tracer, path, seed):
    from msslab import search, structure
    from msslab.oracles import StructureDescription

    from workloads import search_spec

    with tracer.span("config.parse_s"):
        with open(path, encoding="utf-8") as handle:
            spec = search_spec(json.load(handle), seed)
    axioms = list(spec.required) + list(spec.forbidden)
    stream = search.enumerate_structures(spec)
    examined = 0
    found = None
    while True:
        with tracer.span("search.enumerate_s", opaque=True):
            s = next(stream, None)
        if s is None:
            break
        examined += 1
        tracer.count("search.structures")
        with tracer.span("search.verify_s", opaque=True):
            verdicts = {v.axiom: v for v in structure.verify(s, axioms)}
        if all(verdicts[a].passed for a in spec.required) and all(
            verdicts[a].failed for a in spec.forbidden
        ):
            found = s
            break
    granules = None
    if found is not None:
        granules = sorted(sorted(g) for g in StructureDescription.from_structure(found).granules)
    return {"found": found is not None, "examined": examined, "granules": granules}


def main(workload, command, path, seed, report_out):
    tracer = Tracer(workload)
    with tracer.span("cli.import_s"):
        import msslab.cli  # noqa: F401  (what `python -m msslab` imports)
    install(tracer)
    if command == "search":
        answer = run_search(tracer, path, seed)
    else:
        answer = run_config(tracer, command, path, seed, report_out)
    json.dump({"spans": tracer.spans, "counts": tracer.counts, "answer": answer}, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5])
