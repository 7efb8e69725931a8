"""msslab benchmark: times the msslab CLI on fixed workloads and checks its reports.

Usage:
  python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

With --trace 0 it runs the CLI as a child process, one invocation at a
time from this one process (a closed loop with one client), until S
seconds have passed, and reports the end-to-end metrics. With --trace 1
it makes one untimed CLI invocation and then traced in-process runs of
the same work (bench/traced.py) for S seconds, and reports per-layer
metrics. Workloads are interleaved round-robin; a fixed pure-Python loop
is timed beside each round so that host-speed drift can be seen.

Every report is checked outside the timed region (bench/gate.py). The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; each metric is a median over the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from traced import SWEPT_AXIOMS
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SOURCE = ROOT / "src"
SCHEMA = ROOT / "schemas" / "report.schema.json"

clock = time.perf_counter

CHILD_TIMEOUT_S = 120
# Mean CPU seconds of one launch.py calibration chunk on a quiet host. The
# reported times are raw times rescaled to this CPU speed (see NOTES.md).
REFERENCE_CHUNK_S = 0.0002
MIN_SETUP_SAMPLES = 11
HOST_LOOP_ITERATIONS = 200_000

PREDICTED_TOP = {
    "paper-pipeline": "structure.verify_s.*",
    "n5-sampled": "structure.verify_s.*",
    "validate-n16": "validation.grades_s",
    "search-n3": "search.enumerate_s+search.verify_s",
}


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SOURCE), env.get("PYTHONPATH")) if p
    )
    return env


def launch(command: list[str], work_dir: Path) -> dict:
    """Run a command under bench/launch.py (one CPU, calibrated).

    Times ending in ``_s`` are rescaled to the reference CPU speed; the
    ``raw_`` ones are as measured."""
    out, err = work_dir / "child.out", work_dir / "child.err"
    try:
        done = subprocess.run(
            [sys.executable, "-S", str(BENCH / "launch.py"), str(CHILD_TIMEOUT_S),
             str(out), str(err), *command],
            env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 10,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{command[1:3]} timed out")
    if done.returncode != 0:
        raise ChildFailed(f"launcher exited {done.returncode}: {done.stderr.strip()[-400:]}")
    wall, cpu, rss_kib, code, chunk_s = done.stdout.split()
    factor = float(chunk_s) / REFERENCE_CHUNK_S
    return {
        "raw_wall_s": float(wall),
        "raw_cpu_s": float(cpu),
        "wall_s": float(wall) / factor,
        "cpu_s": float(cpu) / factor,
        "speed_factor": factor,
        "peak_rss_mb": int(rss_kib) / 1024,
        "exit": int(code),
        "stdout": out.read_text(),
        "stderr": err.read_text(errors="replace"),
    }


def host_loop() -> float:
    start = clock()
    total = 0
    for i in range(HOST_LOOP_ITERATIONS):
        total += i
    return clock() - start


def summary(values: list[float]) -> dict:
    """Median, quartiles, sample count and the highest percentile that has
    at least ten samples beyond it (None when there are too few)."""
    values = sorted(values)
    n = len(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n >= 2 else values * 3
    tail = None
    p = int(100 * (1 - 10 / n))
    if p > 50:
        tail = (p, statistics.quantiles(values, n=100)[p - 1])
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": n, "tail": tail}


def describe(name: str, unit: str, values: list[float]) -> str:
    s = summary(values)
    tail = f"  p{s['tail'][0]:g} {s['tail'][1]:.6g}" if s["tail"] else ""
    return (f"  {name:<36} {unit:<6} median {s['median']:.6g}  q1 {s['q1']:.6g}"
            f"  q3 {s['q3']:.6g}{tail}  n {s['n']}")


def swept_verdicts(report: dict) -> list[dict]:
    sections = [report]
    if "steps" in report:
        sections.append(report["steps"]["step5_investigate"])
    out = []
    for section in sections:
        axioms = section.get("axioms")
        if axioms is None:
            continue
        for v in axioms["structural"] + [v for vs in axioms["per_delta"].values() for v in vs]:
            if v["axiom"] in SWEPT_AXIOMS and v["mode"] in ("exhaustive", "sampled"):
                out.append(v)
    return out


def report_rates(report: dict, wall: float) -> dict:
    """Throughput and coverage read off a report, with their units; 0 where
    they do not apply."""
    swept = swept_verdicts(report)
    exhaustive = sum(v["mode"] == "exhaustive" for v in swept)
    search = report.get("search")
    return {
        "verdicts.instances_per_s": ("1/s", sum(v["instances_checked"] for v in swept) / wall),
        "verdicts.exhaustive_share": ("ratio", exhaustive / len(swept) if swept else 0.0),
        "search.structures_per_s": ("1/s", search["examined"] / wall if search else 0.0),
    }


class Run:
    def __init__(self, workloads, seed, seconds, work_dir, gate):
        self.workloads = workloads
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.gate = gate
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.inputs = {}
        for w in workloads:
            path = work_dir / f"{w.name}.input.json"
            path.write_text(json.dumps(w.document), encoding="utf-8")
            self.inputs[w.name] = path

    def fail(self, message: str) -> None:
        self.failed += 1
        self.notes.append(message)

    def child(self, w: Workload, *args) -> dict | None:
        """One calibrated child run; None when it could not be measured."""
        self.attempted += 1
        try:
            sample = launch([sys.executable, *map(str, args)], self.work_dir)
        except ChildFailed as exc:
            self.fail(f"{w.name}: {exc}")
            return None
        if sample["exit"] != 0:
            self.fail(f"{w.name}: {args[:3]} exited {sample['exit']}: {sample['stderr'][-400:]}")
        return sample

    def setup_sample(self, w: Workload) -> dict | None:
        return self.child(w, BENCH / "setup_child.py", w.command, self.inputs[w.name], self.seed)

    def invoke(self, w: Workload) -> dict | None:
        """One CLI invocation with the workload seed and otherwise default flags."""
        out = self.work_dir / f"{w.name}.report.json"
        out.unlink(missing_ok=True)
        sample = self.child(w, "-m", "msslab", w.command, self.inputs[w.name],
                            "--seed", self.seed, "--output", out)
        if sample is not None:
            sample["report"] = out.read_bytes() if sample["exit"] == 0 and out.exists() else None
        return sample

    def gate_reference(self, w: Workload, samples: list[dict]) -> tuple[dict | None, int]:
        """Gate the first report; later reports must repeat its bytes."""
        reports = [s["report"] for s in samples if s["report"] is not None]
        if not reports:
            return None, 0
        reference = reports[0]
        document = json.loads(reference)
        problems, misses = self.gate.check(w, self.seed, document)
        for problem in problems:
            self.notes.append(f"{w.name}: {problem}")
        for report in reports:
            if problems:
                self.failed += 1
            elif report != reference:
                self.fail(f"{w.name}: report bytes differ from the run's first report")
        return document, misses

    def rounds(self, step) -> None:
        """Call step(workload) round-robin until the run's seconds are spent."""
        deadline = clock() + self.seconds
        while True:
            for w in self.workloads:
                step(w)
            if clock() >= deadline:
                return

    def end_to_end(self) -> dict:
        setup = defaultdict(list)
        calls = defaultdict(list)
        loops = defaultdict(list)
        for w in self.workloads:
            self.setup_sample(w)  # warm-up: fills the bytecode cache, discarded

        def step(w):
            loops[w.name].append(host_loop())
            setup[w.name].append(self.setup_sample(w))
            calls[w.name].append(self.invoke(w))

        self.rounds(step)
        for w in self.workloads:
            while len(setup[w.name]) < MIN_SETUP_SAMPLES:
                setup[w.name].append(self.setup_sample(w))

        results = {}
        for w in self.workloads:
            samples = [s for s in calls[w.name] if s is not None]
            setups = [s for s in setup[w.name] if s is not None]
            report, _ = self.gate_reference(w, samples)
            series = {key: [s[key] for s in samples] for key in ("wall_s", "cpu_s", "peak_rss_mb")}
            series["setup_s"] = [s["wall_s"] for s in setups]
            extra = {
                "raw.wall_s": ("s", [s["raw_wall_s"] for s in samples]),
                "raw.cpu_s": ("s", [s["raw_cpu_s"] for s in samples]),
                "raw.setup_s": ("s", [s["raw_wall_s"] for s in setups]),
                "host.speed_factor": ("ratio", [s["speed_factor"] for s in samples + setups]),
                "host.loop_s": ("s", loops[w.name]),
            }
            if report is not None:
                for s in samples:
                    for key, (unit, value) in report_rates(report, s["wall_s"]).items():
                        extra.setdefault(key, (unit, []))[1].append(value)
            results[w.name] = (series, extra)
        return results

    def per_layer(self) -> dict:
        references = {w.name: self.invoke(w) for w in self.workloads}
        traces = defaultdict(list)
        loops = defaultdict(list)

        def step(w):
            loops[w.name].append(host_loop())
            out = self.work_dir / f"{w.name}.traced.json"
            out.unlink(missing_ok=True)
            sample = self.child(w, BENCH / "traced.py", w.name, w.command,
                                self.inputs[w.name], self.seed, out)
            if sample is not None and sample["exit"] == 0:
                sample.update(json.loads(sample["stdout"]))
                sample["report"] = out.read_bytes() if out.exists() else None
                traces[w.name].append(sample)

        self.rounds(step)

        results = {}
        for w in self.workloads:
            reference = references[w.name]
            if reference is None:
                results[w.name] = ({}, {})
                continue
            start = clock()
            report, misses = self.gate_reference(w, [reference])
            gate_s = clock() - start
            series = defaultdict(list)
            if report is not None:
                self.check_consistency(w, report, reference["report"], traces[w.name])
                for key, (_, value) in report_rates(report, reference["wall_s"]).items():
                    series[key].append(value)
            for traced in traces[w.name]:
                for key, value in layer_metrics(traced, reference["wall_s"]).items():
                    series[key].append(value)
            series["verdicts.sampled_misses"].append(misses)
            series["oracles.check_s"].append(gate_s)
            series["host.loop_s"] = loops[w.name]
            results[w.name] = (series, {})
            self.report_top_layer(w, series, traces[w.name])
        return results

    def check_consistency(self, w, report, reference_bytes, traces) -> None:
        """Traced runs must give the CLI's verdicts, rows and search answer."""
        for traced in traces:
            if w.command == "search":
                search = report["search"]
                expected = {
                    "found": search["found"],
                    "examined": search["examined"],
                    "granules": sorted(search["structure"]["granules"]) if search["found"] else None,
                }
                if traced["answer"] != expected:
                    self.fail(f"{w.name}: traced search answer {traced['answer']} != CLI {expected}")
            elif traced["report"] != reference_bytes:
                self.fail(f"{w.name}: traced report differs from the CLI report")

    def report_top_layer(self, w, series, traces) -> None:
        """Note the layer with the most self time. The per-axiom sweeps count
        as one layer, and so do search enumeration and verification."""
        if not traces:
            return
        names = {span[0] for traced in traces for span in traced["spans"]}
        groups = defaultdict(float)
        for name in names | {"trace.unattributed_s"}:
            group = name
            if name.startswith("structure.verify_s."):
                group = "structure.verify_s.*"
            elif name in ("search.enumerate_s", "search.verify_s"):
                group = "search.enumerate_s+search.verify_s"
            groups[group] += statistics.median(series[name])
        top = max(groups, key=groups.get)
        verdict = "match" if top == PREDICTED_TOP[w.name] else "MISMATCH"
        self.notes.append(
            f"{w.name}: top self-time layer {top} ({groups[top]:.4f} s),"
            f" predicted {PREDICTED_TOP[w.name]}: {verdict}"
        )


def layer_metrics(traced: dict, untraced_wall: float) -> dict:
    """Self time per span name, the counts, and the trace-quality figures.

    Times are rescaled by the traced run's speed factor, like the
    end-to-end ones, so that self times add up to ``trace.total_s``."""
    spans = traced["spans"]
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    metrics = defaultdict(float)
    for (name, *_), value in zip(spans, own):
        metrics[name] += value / traced["speed_factor"]
    metrics.update(traced["counts"])
    metrics["trace.total_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    metrics["trace.unattributed_s"] = traced["wall_s"] - sum(own) / traced["speed_factor"]
    metrics["host.speed_factor"] = traced["speed_factor"]
    return metrics


def metric_values(declared: list[dict], series: dict) -> dict:
    names = {m["name"] for m in declared}
    unknown = set(series) - names
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {
        m["name"]: {
            "value": statistics.median(series[m["name"]]) if series.get(m["name"]) else 0.0,
            "unit": m["unit"],
        }
        for m in declared
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SOURCE / "msslab" / "__init__.py", SCHEMA) if not p.is_file()]
    if missing:
        print(f"bench: cannot run, missing {[str(p) for p in missing]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from gate import Gate

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    workloads = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]

    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        run = Run(workloads, args.seed, args.seconds, work_dir, Gate(SCHEMA))
        results = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = {}
    for w in workloads:
        series, extra = results[w.name]
        print(f"workload {w.name} ({w.command}), seed {args.seed}")
        for m in declared:
            if series.get(m["name"]):
                print(describe(m["name"], m["unit"], series[m["name"]]))
        for name, (unit, values) in sorted(extra.items()):
            if values:
                print(describe(name, unit, values))
        values = metric_values(declared, series)
        if len(workloads) == 1:
            metrics = values
        else:
            metrics.update({f"{w.name}.{name}": v for name, v in values.items()})
    for note in run.notes:
        print(f"note: {note}")
    print(f"fail_ratio {run.failed / max(run.attempted, 1):.6g} ({run.failed} of {run.attempted})")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
