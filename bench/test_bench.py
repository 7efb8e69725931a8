"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import copy
import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from msslab.config import parse_config  # noqa: E402
from msslab.oracles import ORACLE_AXIOMS  # noqa: E402
from msslab.pipeline import run_pipeline  # noqa: E402
from msslab.report import to_json  # noqa: E402
from msslab.structure import ADMISSIBILITY_AXIOMS, axiom_instance  # noqa: E402

from gate import Gate  # noqa: E402
from run import SCHEMA, Run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 1


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_smoke_run_prints_every_metric_with_its_unit():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = run_bench(ROOT, "--workload", "paper-pipeline", "--seed", str(SEED),
                         "--seconds", "1", "--trace", trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in declared[key]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == units
        for name in units:
            assert NAME.fullmatch(name), name


def paper_report() -> dict:
    w = WORKLOADS["paper-pipeline"]
    return json.loads(to_json(run_pipeline(parse_config(w.document), seed=SEED)))


def failing_verdicts(report: dict):
    axioms = report["steps"]["step5_investigate"]["axioms"]
    for name, verdicts in sorted(axioms["per_delta"].items()):
        for v in verdicts:
            if v["status"] == "fails" and v["axiom"] not in ADMISSIBILITY_AXIOMS:
                yield name, v


def test_gate_counts_a_flipped_status_and_a_corrupted_witness(tmp_path):
    w = WORKLOADS["paper-pipeline"]
    cfg = parse_config(w.document)
    clean = paper_report()

    flipped = copy.deepcopy(clean)
    _, v = next((n, v) for n, v in failing_verdicts(flipped) if v["axiom"] in ORACLE_AXIOMS)
    v["status"], v["witnesses"] = "holds", []

    corrupted = copy.deepcopy(clean)
    name, v = next(failing_verdicts(corrupted))
    s = cfg.structure(next(spec for spec in cfg.deltas if spec.name == name))
    arity = len(v["witnesses"][0])
    harmless = next(
        args for args in itertools.product(cfg.universe.all_subsets(), repeat=arity)
        if axiom_instance(s, v["axiom"], args) is not False
    )
    v["witnesses"] = [[list(part.members()) for part in harmless]]

    run = Run([w], SEED, 0, tmp_path, Gate(SCHEMA))
    run.gate_reference(w, [{"report": to_json(clean).encode()}])
    assert run.failed == 0, run.notes
    for report in (flipped, corrupted):
        run.gate_reference(w, [{"report": to_json(report).encode()}])
    assert run.failed == 2, run.notes


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "search-n3", "--seed", str(SEED),
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
