import copy
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import msslab
import msslab.report
import msslab.structure
import msslab.witnesses
from msslab.config import parse_config
from msslab.report import render_text, to_json
from msslab.witnesses import replay_failures

FIXTURE = "examples/paper-example.json"
GOLDEN = Path(__file__).resolve().parent / "golden"
N5_CONFIG = "tests/golden/n5-config.json"
N6_CONFIG = "tests/golden/n6-config.json"
N7_CONFIG = "tests/golden/n7-config.json"


def run_cli(repo_root, *args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "msslab", *args],
        cwd=repo_root,
        capture_output=True,
        text=True,
        env=env,
    )


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_validate_reproduces_the_worked_example(repo_root):
    result = run_cli(repo_root, "validate", FIXTURE, "--seed", "7")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    rows = {tuple(r["cluster"]): r for r in report["validation"]["clusters"]}
    assert rows[("x2", "x4")]["lower_deficit"] == ["x1", "x2", "x3"]
    assert rows[("x2", "x4")]["upper_deficit"] == ["x1", "x2", "x3"]
    compat = {
        (r["delta"], r["mode"]): r["compatible"]
        for r in report["validation"]["compatibility"]
    }
    assert compat[("E0", "overlap-closer")] is True
    assert compat[("E1", "overlap-closer")] is True
    assert compat[("E2", "overlap-closer")] is False
    assert compat[("uE1", "overlap-closer")] is True


def test_check_axioms_report(repo_root):
    result = run_cli(repo_root, "check-axioms", FIXTURE, "--seed", "7")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    structural = {v["axiom"]: v["status"] for v in report["axioms"]["structural"]}
    for axiom in ("PT1", "PT2", "G1", "G5", "UL1", "UL3", "TB"):
        assert structural[axiom] == "holds"
    assert structural["clos1"] == "unspecified"
    per_delta = report["axioms"]["per_delta"]
    e1 = {v["axiom"]: v for v in per_delta["E1"]}
    assert e1["i-coh-2"]["status"] == "holds"
    assert e1["trans-1"]["status"] == "fails" and e1["trans-1"]["witnesses"]
    e0 = {v["axiom"]: v["status"] for v in per_delta["E0"]}
    assert e0["i-coh"] == "holds" and e0["i-coh-2"] == "fails"
    assert report["axioms"]["classification"]["E1"]["is_mss"] is False


def test_strict_exit_flags_failures(repo_root):
    result = run_cli(repo_root, "check-axioms", FIXTURE, "--strict-exit")
    assert result.returncode == 2


def test_byte_identical_reports(repo_root):
    first = run_cli(repo_root, "validate", FIXTURE, "--seed", "7")
    second = run_cli(repo_root, "validate", FIXTURE, "--seed", "7")
    assert first.stdout == second.stdout and first.returncode == 0


def test_failing_witnesses_replay_from_the_report(repo_root):
    result = run_cli(repo_root, "check-axioms", FIXTURE, "--seed", "7")
    report = json.loads(result.stdout)
    with open(repo_root / FIXTURE, encoding="utf-8") as handle:
        cfg = parse_config(json.load(handle))
    assert replay_failures(cfg, report) == []
    validate = json.loads(run_cli(repo_root, "validate", FIXTURE).stdout)
    assert replay_failures(cfg, validate) == []


def test_text_format_is_a_projection(repo_root):
    as_json = run_cli(repo_root, "validate", FIXTURE, "--seed", "7")
    as_text = run_cli(repo_root, "validate", FIXTURE, "--seed", "7", "--format", "text")
    assert as_text.returncode == 0
    rendered = render_text(json.loads(as_json.stdout))
    assert as_text.stdout == rendered
    assert "lower-deficit" in as_text.stdout
    assert "traceable" not in as_text.stdout


def test_parse_error_exit_codes(repo_root, tmp_path):
    missing_relation = write_config(
        tmp_path, {"universe": ["x1"], "granulation": "predecessor"}
    )
    result = run_cli(repo_root, "check-axioms", str(missing_relation))
    assert result.returncode == 1
    assert "parse error" in result.stderr

    undeclared = write_config(
        tmp_path,
        {"universe": ["x1"], "clustering": [["x9"]]},
        name="undeclared.json",
    )
    result = run_cli(repo_root, "validate", str(undeclared))
    assert result.returncode == 1
    assert "x9" in result.stderr

    unknown_field = write_config(
        tmp_path, {"universe": ["x1"], "flavour": "sour"}, name="unknown.json"
    )
    result = run_cli(repo_root, "check-axioms", str(unknown_field))
    assert result.returncode == 1

    gclue = write_config(
        tmp_path, {"universe": ["x1"], "compatibility_modes": ["gclue"]}, name="gclue.json"
    )
    result = run_cli(repo_root, "validate", str(gclue))
    assert result.returncode == 1
    assert "unsupported compatibility mode 'gclue'" in result.stderr


def test_usage_error_exit_code(repo_root):
    result = run_cli(repo_root, "frobnicate")
    assert result.returncode == 1
    result = run_cli(repo_root, "validate", FIXTURE, "--jobs", "4")
    assert result.returncode == 1 and "--jobs" in result.stderr


# Command lines run through main, with the exit code and the error each
# gives. CONFIG, SPEC, REPORT and OUT stand for files; the rest is literal.
COMMANDS = "check-axioms, validate, pipeline, search, replay"
ARGV_CASES = {
    "format": (["validate", "CONFIG", "--format", "text"], 0, None),
    "format=": (["validate", "CONFIG", "--format=text"], 0, None),
    "seed": (["validate", "CONFIG", "--seed", "-3"], 0, None),
    "seed=": (["validate", "CONFIG", "--seed=-3"], 0, None),
    "output": (["validate", "CONFIG", "--output", "OUT"], 0, None),
    "output=": (["validate", "CONFIG", "--output=OUT"], 0, None),
    "strict-exit": (["check-axioms", "CONFIG", "--strict-exit"], 2, None),
    "flags-first": (["check-axioms", "--strict-exit", "--format=text", "--seed", "3", "CONFIG"], 2, None),
    "search-flags": (["search", "--format", "text", "--seed=4", "SPEC", "--output", "OUT"], 0, None),
    "double-dash": (["validate", "--seed", "3", "--", "CONFIG"], 0, None),
    "bad-format": (
        ["validate", "CONFIG", "--format", "xml"],
        1,
        "argument --format: expected json or text, got 'xml'",
    ),
    "bad-seed": (["validate", "CONFIG", "--seed", "x"], 1, "argument --seed: expected an integer, got 'x'"),
    "bad-seed=": (["search", "SPEC", "--seed="], 1, "argument --seed: expected an integer, got ''"),
    "no-value": (["validate", "CONFIG", "--seed"], 1, "argument --seed: expected one value"),
    "missing-path": (["validate", "--format", "text"], 1, "missing argument CONFIG"),
    "missing-report": (["replay", "CONFIG"], 1, "missing argument REPORT"),
    "extra-path": (["pipeline", "CONFIG", "extra.json"], 1, "unrecognized argument extra.json"),
    "unknown-command": (["frobnicate", "CONFIG"], 1, f"unknown command 'frobnicate'; expected one of {COMMANDS}"),
    "no-command": ([], 1, f"missing command; expected one of {COMMANDS}"),
    "flag-for-command": (["--format", "text"], 1, f"unknown command '--format'; expected one of {COMMANDS}"),
    "unknown-flag": (["validate", "CONFIG", "--jobs", "4"], 1, "unrecognized argument --jobs"),
    "abbreviated": (["validate", "CONFIG", "--out", "OUT"], 1, "unrecognized argument --out"),
    "abbreviated=": (["validate", "CONFIG", "--form=text"], 1, "unrecognized argument --form=text"),
    "strict-exit=": (["validate", "CONFIG", "--strict-exit=yes"], 1, "argument --strict-exit: takes no value"),
    "search-strict-exit": (["search", "SPEC", "--strict-exit"], 1, "unrecognized argument --strict-exit"),
    "replay-format": (["replay", "CONFIG", "REPORT", "--format", "json"], 1, "unrecognized argument --format"),
    "replay-seed": (["replay", "CONFIG", "REPORT", "--seed=1"], 1, "unrecognized argument --seed=1"),
    "replay-output": (["replay", "--output", "OUT", "CONFIG", "REPORT"], 1, "unrecognized argument --output"),
    "replay-strict-exit": (["replay", "CONFIG", "REPORT", "--strict-exit"], 1, "unrecognized argument --strict-exit"),
    "-h": (["-h"], 0, None),
    "--help": (["search", "--help"], 0, None),
}


@pytest.mark.parametrize("case", ARGV_CASES)
def test_each_command_line_gives_its_exit_code_and_error(repo_root, tmp_path, capsys, case):
    from msslab.cli import main

    argv, code, error = ARGV_CASES[case]
    files = {
        "CONFIG": str(repo_root / FIXTURE),
        "SPEC": str(write_config(tmp_path, SEARCH_N3, "spec.json")),
        "REPORT": str(repo_root / "tests/golden/paper-pipeline.json"),
        "OUT": str(tmp_path / "out.txt"),
    }
    argv = [files.get(word, word.replace("OUT", files["OUT"])) for word in argv]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if case in ("-h", "--help"):
        assert out.startswith("usage: msslab ") and "never abbreviated" in out and not err
    elif error is None:
        assert not err and (out or (tmp_path / "out.txt").read_text(encoding="utf-8"))
    else:
        # a usage line for the command, then the error naming the argument
        assert err.startswith("usage: msslab ") and err.endswith(f"\nmsslab: error: {error}\n")
        assert not out


@pytest.mark.parametrize("flag, value", [("--format", "text"), ("--seed", "5"), ("--output", "OUT")])
def test_a_flag_reads_the_same_in_both_forms(repo_root, tmp_path, capsys, flag, value):
    from msslab.cli import main

    written = []
    for form in ([flag, value], [f"{flag}={value}"]):
        target = tmp_path / f"out-{len(written)}.json"
        argv = ["validate", str(repo_root / FIXTURE)] + [w.replace("OUT", str(target)) for w in form]
        assert main(argv) == 0
        written.append(capsys.readouterr().out or target.read_text(encoding="utf-8"))
    assert written[0] == written[1]


def test_config_without_delta_defers_coherence(repo_root, tmp_path):
    config = write_config(
        tmp_path,
        {
            "universe": ["x1", "x2"],
            "relation": {"pairs": [["x1", "x1"], ["x2", "x2"]]},
            "granulation": "predecessor",
        },
    )
    result = run_cli(repo_root, "check-axioms", str(config))
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["axioms"]["per_delta"] == {}
    assert "deferred" in report["axioms"]["note"]


def test_pipeline_command(repo_root):
    result = run_cli(repo_root, "pipeline", FIXTURE, "--seed", "7")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    steps = report["steps"]
    assert steps["step3_clustering"]["source"] == "external clustering ingested"
    assert "delta" in steps["step1_assemble"]["deferred_slots"]
    assert steps["step5_investigate"]["validation"]["compatibility"]


def test_pipeline_with_parthood_reduct(repo_root, tmp_path):
    config = write_config(
        tmp_path,
        {
            "universe": ["x1", "x2"],
            "relation": {"pairs": [["x1", "x1"], ["x2", "x2"]]},
            "granulation": "predecessor",
            "clustering": [["x1"]],
            "reduct": ["P"],
        },
    )
    result = run_cli(repo_root, "pipeline", str(config))
    assert result.returncode == 0
    report = json.loads(result.stdout)
    validation = report["steps"]["step5_investigate"]["validation"]
    assert validation["clusters"][0]["status"] == "deferred"


def test_search_command_reports_none_within_budget(repo_root, tmp_path):
    spec = write_config(
        tmp_path,
        {
            "n": 2,
            "family": "extensional-deltas",
            "required": ["strict-n-coh"],
            "forbidden": ["i-coh-2"],
            "budget": 200,
            "seed": 7,
        },
        name="spec.json",
    )
    result = run_cli(repo_root, "search", str(spec))
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["search"]["found"] is False
    assert report["search"]["note"] == "none within budget"
    assert report["search"]["examined"] == 200


def test_search_budget_exceeded_exit_code(repo_root, tmp_path):
    spec = write_config(
        tmp_path, {"n": 4, "family": "relations", "budget": 100}, name="big.json"
    )
    result = run_cli(repo_root, "search", str(spec))
    assert result.returncode == 3
    assert "budget" in result.stderr


@pytest.mark.parametrize(
    "document, count",
    [({"n": 120}, "2**14400"), ({"n": 14, "family": "granulations"}, "2**16383")],
)
def test_astronomical_search_counts_are_written_as_powers(repo_root, tmp_path, document, count):
    # In decimal these counts pass Python's 4300-digit conversion limit.
    result = run_cli(repo_root, "search", str(write_config(tmp_path, document)))
    assert result.returncode == 3
    assert result.stderr.startswith("msslab: budget exceeded: ")
    assert f"needs {count} structures" in result.stderr
    assert len(result.stderr) < 300


@pytest.mark.parametrize(
    "document",
    [{"n": 10, "family": "extensional-deltas"}, {"n": 10, "delta": "extensional"}],
)
def test_oversized_extensional_search_is_refused_before_drawing(repo_root, tmp_path, document):
    from msslab.errors import ParseError
    from msslab.search import build_search, parse_spec

    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        build_search(parse_spec(document), seed=0)
    # Drawing a table at n = 10 takes 2**30 draws, which would run for minutes.
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == "n: extensional tables admitted only for universes of size <= 6"
    result = run_cli(repo_root, "search", str(write_config(tmp_path, document)))
    assert result.returncode == 1
    assert result.stderr == f"msslab: parse error: {err.value}\n"


def test_search_finds_and_serializes_a_witness(repo_root, tmp_path):
    spec = write_config(
        tmp_path,
        {"n": 2, "delta": "E0", "required": ["i-coh"], "budget": 50},
        name="found.json",
    )
    result = run_cli(repo_root, "search", str(spec))
    report = json.loads(result.stdout)
    assert report["search"]["found"] is True
    assert report["search"]["structure"]["delta_kind"] == "E0"


def test_search_report_lists_members_in_universe_order():
    from msslab.search import build_search, parse_spec

    # At n = 10, "x10" sorts before "x2" as a string.
    document = {"n": 10, "delta": "E0", "required": ["UL1"], "budget": 1, "exhaustive": False}
    structure = build_search(parse_spec(document))["search"]["structure"]
    index = structure["universe"].index
    granules = structure["granules"]
    assert all(g == sorted(g, key=index) for g in granules)
    assert any(g != sorted(g) for g in granules)


def test_search_spec_errors_quote_the_value_as_written(repo_root, tmp_path):
    for document, message in (
        ({"n": [3]}, "n: expected an integer of at least 1, got [3]"),
        ({"n": 3, "required": ["nope"]}, "required: expected a list of axiom names, got ['nope']"),
        ({"n": 3, "forbidden": [1]}, "forbidden: expected a list of axiom names, got [1]"),
    ):
        result = run_cli(repo_root, "search", str(write_config(tmp_path, document)))
        assert result.returncode == 1
        assert result.stderr == f"msslab: parse error: {message}\n"


PAPER_CONFIG = json.loads((Path(__file__).resolve().parent.parent / FIXTURE).read_text())
# The search-n3 benchmark spec, which finds nothing.
SEARCH_N3 = {
    "n": 3,
    "delta": "E2",
    "required": ["i-coh-2", "strict-n-coh", "n-coh"],
    "forbidden": ["UL1", "UL2"],
}


@pytest.mark.parametrize(
    "command, document, field",
    [
        ("search", {"n": "3"}, "n"),
        ("search", {"n": True}, "n"),
        ("search", {"n": 2, "budget": "5"}, "budget"),
        ("search", {"n": 2, "required": "i-coh"}, "required"),
        ("search", {"n": 2, "forbidden": [1]}, "forbidden"),
        ("search", {"n": 2, "density": 2}, "density"),
        ("search", {"n": 2, "seed": "7"}, "seed"),
        ("search", {"n": 2, "exhaustive": "yes"}, "exhaustive"),
        ("check-axioms", {**PAPER_CONFIG, "reduct": "delta"}, "reduct"),
        ("validate", {**PAPER_CONFIG, "compatibility_modes": "overlap-closer"}, "compatibility_modes"),
        (
            "check-axioms",
            {**PAPER_CONFIG, "relation": {**PAPER_CONFIG["relation"], "closure": "reflexive"}},
            "relation.closure",
        ),
        ("search", {"n": 4, "required": ["no-such-law"]}, "required"),
        ("search", {"n": 2, "forbidden": ["i-coh", "trans1"]}, "forbidden"),
        ("search", {"n": 2, "delta": "E9"}, "delta"),
        ("check-axioms", {**PAPER_CONFIG, "seed": True}, "seed"),
        ("check-axioms", {**PAPER_CONFIG, "universe": "x1"}, "universe"),
    ],
)
def test_mistyped_fields_are_parse_errors(repo_root, tmp_path, command, document, field):
    result = run_cli(repo_root, command, str(write_config(tmp_path, document)))
    assert result.returncode == 1
    # the field is named and the value's type is rejected as a whole, not per character
    assert result.stderr.startswith(f"msslab: parse error: {field}: expected ")
    assert "Traceback" not in result.stderr


def test_search_spec_seed_is_checked_where_the_flag_overrides_it(repo_root, tmp_path):
    spec = write_config(tmp_path, {"n": 2, "seed": "7"})
    result = run_cli(repo_root, "search", str(spec), "--seed", "5")
    assert result.returncode == 1
    assert result.stderr.startswith("msslab: parse error: seed: ")
    # a null seed is no seed, as in a config
    spec = write_config(tmp_path, {"n": 2, "seed": None})
    for flags, seed in (((), 0), (("--seed", "5"), 5)):
        result = run_cli(repo_root, "search", str(spec), *flags)
        assert result.returncode == 0
        assert json.loads(result.stdout)["provenance"]["seed"] == seed


def _def0(name, f):
    return {**PAPER_CONFIG, "delta": [{"kind": "def0", "name": name, "f": f}]}


def _partial_sum(*rows):
    return {**PAPER_CONFIG, "sum": {"kind": "extensional-partial", "table": list(rows)}}


MALFORMED_CONFIGS = {
    "undeclared-name-in-f": (_def0("f", [[["x9"], [], []]]), "delta[0].f[0][0][0]"),
    "undeclared-name-in-sum": (_partial_sum([["x1"], ["x2", "x9"], ["x1"]]), "sum.table[0][1][1]"),
    "f-not-total": (_def0("f", [[["x1"], ["x2"], ["x1", "x2"]]]), "delta[0].f"),
    "conflicting-sum-rows": (
        _partial_sum([["x1"], ["x2"], ["x1", "x2"]], [["x1"], ["x2"], ["x1"]]),
        "sum.table[1]",
    ),
    "duplicate-cluster": ({**PAPER_CONFIG, "clustering": [["x1", "x3"], ["x3", "x1"]]}, "clustering[1]"),
    "repeated-compatibility-mode": (
        {**PAPER_CONFIG, "compatibility_modes": ["clue-singleton", "clue-singleton"]},
        "compatibility_modes[1]",
    ),
    "repeated-reduct-slot": ({**PAPER_CONFIG, "reduct": ["P", "P", "l", "u", "delta"]}, "reduct[1]"),
    "unknown-compatibility-mode": (
        {**PAPER_CONFIG, "compatibility_modes": ["overlap-closer", "nope"]},
        "compatibility_modes[1]",
    ),
    "unknown-reduct-slot": ({**PAPER_CONFIG, "reduct": ["P", "nope"]}, "reduct[1]"),
    "empty-cluster": ({**PAPER_CONFIG, "clustering": [["x1"], []]}, "clustering[1]"),
    "numeric-delta-name": (_def0(7, "union"), "delta[0].name"),
    "element-named-twice": ({**PAPER_CONFIG, "universe": ["x1", "x2", "x1"]}, "universe"),
    "pairs-not-a-list": ({**PAPER_CONFIG, "relation": {"pairs": 5}}, "relation.pairs"),
    "sum-without-table": ({**PAPER_CONFIG, "sum": {"kind": "extensional-partial"}}, "sum.table"),
    "misspelt-closure": (
        {**PAPER_CONFIG, "relation": {"generators": [], "closur": ["reflexive"]}},
        "relation",
    ),
    "misspelt-triples": (
        {**PAPER_CONFIG, "delta": [{"kind": "extensional", "tripels": []}]},
        "delta[0]",
    ),
    "uE1-without-granulation": ({"universe": ["x1", "x2"], "delta": ["uE1"]}, "delta[0]"),
    "granular-sum-without-granulation": ({"universe": ["x1", "x2"], "sum": "granular-sum"}, "sum"),
    # Refused at parse, before any sweep runs, not when the table is built.
    "extensional-table-on-seven-elements": (
        {
            "universe": [f"x{i + 1}" for i in range(7)],
            "delta": ["E0", {"kind": "extensional", "triples": []}],
        },
        "delta[1]",
    ),
}


@pytest.mark.parametrize("command", ["check-axioms", "validate", "pipeline"])
@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_malformed_configs_are_parse_errors_naming_the_field(tmp_path, capsys, command, case):
    from msslab.cli import main

    document, field = MALFORMED_CONFIGS[case]
    assert main([command, str(write_config(tmp_path, document))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"msslab: parse error: {field}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["check-axioms", "validate", "pipeline"])
def test_text_reports_end_no_line_in_whitespace(tmp_path, capsys, command):
    from msslab.cli import main
    from msslab.structure import SIGNATURE_SLOTS

    # Without delta, every per-delta and compatibility row is deferred.
    no_delta = {**PAPER_CONFIG, "reduct": [s for s in SIGNATURE_SLOTS if s != "delta"]}
    for document in (PAPER_CONFIG, no_delta):
        assert main([command, str(write_config(tmp_path, document)), "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and [line for line in lines if line != line.rstrip()] == []


# The paper example without relation and granulation: l and u are unbound.
UNGRANULATED_CONFIG = {
    **{k: v for k, v in PAPER_CONFIG.items() if k not in ("relation", "granulation")},
    "delta": ["E0", "E1"],
    "sum": "total-union",
}


@pytest.mark.parametrize("command", ["validate", "pipeline"])
def test_text_reports_print_the_validation_note(tmp_path, capsys, command):
    from msslab.cli import main

    for document in (PAPER_CONFIG, UNGRANULATED_CONFIG):
        path = str(write_config(tmp_path, document))
        assert main([command, path]) == 0
        report = json.loads(capsys.readouterr().out)
        if command == "pipeline":
            report = report["steps"]["step5_investigate"]
        assert main([command, path, "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines.count(f"  note: {report['validation']['note']}") == 1


@pytest.mark.parametrize("command", ["validate", "pipeline"])
def test_a_reduct_that_drops_kappa_defers_every_validation_row(
    repo_root, tmp_path, capsys, command
):
    from msslab.cli import main
    from msslab.structure import SIGNATURE_SLOTS

    report_schema = schema_validator(repo_root, "report.schema.json")
    notes = {}
    for dropped in ("kappa", "l"):
        document = {**PAPER_CONFIG, "reduct": [s for s in SIGNATURE_SLOTS if s != dropped]}
        path = str(write_config(tmp_path, document))
        assert main([command, path]) == 0
        report = json.loads(capsys.readouterr().out)
        report_schema.validate(report)
        validation = (report["steps"]["step5_investigate"] if command == "pipeline" else report)[
            "validation"
        ]
        notes[dropped] = validation["note"]
        assert validation["clusters"] == [
            {"cluster": names, "status": "deferred"} for names in PAPER_CONFIG["clustering"]
        ]
        assert validation["clustering_grades"] == {"status": "deferred"}
        compatibility = [(row["status"], row["compatible"]) for row in validation["compatibility"]]
        if dropped == "kappa":
            assert compatibility == [("deferred", None)] * len(PAPER_CONFIG["delta"])
        else:  # l and u travel as a pair; δ and κ are still bound
            assert ("fails", False) in compatibility
        assert main([command, path, "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines.count(f"  note: {validation['note']}") == 1
    assert notes == {
        "kappa": "cluster membership unbound; deficits, grades and compatibility deferred",
        "l": "approximation operators unbound; deficits and grades deferred",
    }


@pytest.mark.parametrize("command", ["check-axioms", "validate", "pipeline"])
def test_text_rows_list_their_keys_in_sorted_order(tmp_path, capsys, command):
    from msslab.cli import main

    assert main([command, str(write_config(tmp_path, PAPER_CONFIG)), "--format", "text"]) == 0
    rows = [
        line.split(": ", 1)[1].split(", ")
        for line in capsys.readouterr().out.splitlines()
        if line.lstrip().startswith(("grades:", "clustering grades:", "classification under "))
    ]
    assert rows
    for row in rows:
        keys = [pair.split("=")[0] for pair in row]
        assert keys == sorted(keys), row


def test_text_search_report_ends_in_its_note(tmp_path, capsys):
    from msslab.cli import main

    # the search-n3 benchmark spec, which finds nothing
    spec = {
        "n": 3,
        "family": "relations",
        "delta": "E2",
        "required": ["i-coh-2", "strict-n-coh", "n-coh"],
        "forbidden": ["UL1", "UL2"],
    }
    assert main(["search", str(write_config(tmp_path, spec)), "--format", "text"]) == 0
    assert capsys.readouterr().out.endswith("\n  note: none within budget\n")


def test_library_builders_fall_back_to_the_config_seed():
    from msslab.pipeline import run_pipeline

    cfg = parse_config({**PAPER_CONFIG, "seed": 7})
    builders = (msslab.report.build_check_axioms, msslab.report.build_validate, run_pipeline)
    for build in builders:
        assert build(cfg, seed=None)["provenance"]["seed"] == 7
        assert build(cfg, seed=3)["provenance"]["seed"] == 3
        assert build(cfg._replace(seed=None), seed=None)["provenance"]["seed"] == 0
    assert run_pipeline(parse_config({**PAPER_CONFIG, "seed": 7}))["provenance"]["seed"] == 7


def test_library_search_falls_back_to_the_document_seed():
    from msslab.search import build_search, parse_spec

    for document_seed, given, used in ((7, None, 7), (7, 3, 3), (None, None, 0), (None, 3, 3)):
        spec = parse_spec({**SEARCH_N3, "seed": document_seed})
        assert build_search(spec, seed=given)["provenance"]["seed"] == used
    # The stream draws from the seed the run uses, wherever it was given.
    document = {"n": 2, "delta": "extensional", "budget": 16, "density": 0.3}
    seeded = build_search(parse_spec({**document, "seed": 5}))
    assert seeded == build_search(parse_spec(document), seed=5)
    assert seeded != build_search(parse_spec(document))


@pytest.mark.parametrize(
    "document, flags",
    [
        (SEARCH_N3, ()),
        (SEARCH_N3, ("--seed", "5")),
        ({"n": 2, "delta": "E0", "required": ["i-coh"], "budget": 50}, ()),
    ],
    ids=["search-n3", "search-n3-seed-5", "found"],
)
def test_library_search_report_is_the_cli_report(repo_root, tmp_path, document, flags):
    from msslab.search import build_search, parse_spec

    result = run_cli(repo_root, "search", str(write_config(tmp_path, document)), *flags)
    assert result.returncode == 0, result.stderr
    seed = int(flags[1]) if flags else None
    assert result.stdout == to_json(build_search(parse_spec(document), seed=seed))


def test_config_names_are_resolved_to_masks_at_parse():
    cfg = parse_config(_partial_sum([["x1"], ["x2"], ["x1", "x2"]], [["x1"], ["x2"], ["x2", "x1"]]))
    assert cfg.base.kappa == (0b0101, 0b0110, 0b1010)
    assert cfg.base.sum.table == {(0b01, 0b10): 0b11}
    spec = parse_config(_def0("union", "union")).deltas[0]
    assert spec == ("union", "def0", None) and type(spec)._fields == ("name", "kind", "table")
    same_masks = _partial_sum([["x1"], ["x2"], ["x1", "x2"]], [["x1"], ["x2"], ["x1", "x2"]])
    assert hash(cfg) == hash(parse_config(same_masks))


@pytest.mark.parametrize("command", ["validate", "search"])
def test_unreadable_input_is_a_parse_error(repo_root, tmp_path, command):
    result = run_cli(repo_root, command, str(tmp_path))
    assert result.returncode == 1
    assert result.stderr.startswith(f"msslab: parse error: cannot read {tmp_path}: ")
    assert "Traceback" not in result.stderr

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"universe": ["\u00e9"]}'.encode("latin-1"))
    result = run_cli(repo_root, command, str(latin1))
    assert result.returncode == 1
    assert result.stderr.startswith(f"msslab: parse error: cannot read {latin1}: ")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit in this Python"
)
@pytest.mark.parametrize("command", ["validate", "search"])
def test_integer_past_the_digit_limit_is_a_parse_error(repo_root, tmp_path, command):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 2, "budget": ' + "9" * 5000 + "}", encoding="utf-8")
    result = run_cli(repo_root, command, str(path))
    assert result.returncode == 1
    assert result.stderr.startswith(f"msslab: parse error: invalid JSON in {path}: ")
    assert "Traceback" not in result.stderr


def test_search_structure_matches_the_oracle_description(tmp_path):
    from msslab.oracles import StructureDescription
    from msslab.search import SearchSpec, build_search, find_witness, parse_spec

    document = {
        "n": 2,
        "family": "relations",
        "delta": "extensional",
        "forbidden": ["n-coh", "i-coh"],
        "budget": 16,
        "density": 0.3,
    }
    structure = build_search(parse_spec(document), seed=5)["search"]["structure"]
    found, _ = find_witness(SearchSpec(**{**document, "forbidden": ("n-coh", "i-coh")}, seed=5))
    desc = StructureDescription.from_structure(found)
    assert structure == {
        "universe": list(desc.elements),
        "granules": [sorted(g) for g in desc.granules],
        "delta_kind": "extensional",
        "delta_table": sorted([sorted(a), sorted(b), sorted(c)] for a, b, c in desc.delta_table),
    }


@pytest.mark.parametrize("target", ["missing/report.json", "existing-directory"])
def test_failed_write_is_reported_without_leftovers(repo_root, tmp_path, target):
    (tmp_path / "existing-directory").mkdir()
    output = tmp_path / target
    result = run_cli(repo_root, "validate", FIXTURE, "--output", str(output))
    assert result.returncode == 1
    assert result.stderr.startswith(f"msslab: error: cannot write {output}")
    assert "Traceback" not in result.stderr
    assert not output.is_file()
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["existing-directory"]


# What each command loads, beside msslab.cli and the modules every command
# reads. A run without a bytecode cache compiles each module it imports, so
# a module whose code a command never runs stays unloaded there.
COMMON = {"cli", "errors", "laws", "sets", "verdicts"}
MODEL = COMMON | {"delta", "granules", "structure"}
CONFIG_COMMAND = MODEL | {"config", "report", "validation"}


@pytest.mark.parametrize(
    "args, loaded",
    [
        # The forbidden theorems UL1 and UL2 settle the search: nothing is built.
        (["search", "SPEC"], COMMON | {"search"}),
        (["search", "SPEC", "--format", "text"], MODEL | {"search", "report", "validation"}),
        # Validation reads no law kernel.
        (["validate", FIXTURE], CONFIG_COMMAND),
        (["check-axioms", FIXTURE], CONFIG_COMMAND | {"kernels"}),
        (["pipeline", FIXTURE], CONFIG_COMMAND | {"kernels", "pipeline"}),
        (
            ["replay", FIXTURE, "tests/golden/paper-pipeline.json"],
            MODEL | {"config", "kernels", "validation", "witnesses"},
        ),
    ],
    ids=["search", "search-text", "validate", "check-axioms", "pipeline", "replay"],
)
def test_each_command_loads_only_the_modules_it_runs(repo_root, tmp_path, args, loaded):
    spec = write_config(tmp_path, SEARCH_N3, "spec.json")
    args = [str(spec) if arg == "SPEC" else arg for arg in args]
    code = (
        "import contextlib, io, sys\n"
        "import msslab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = msslab.cli.main(sys.argv[1:])\n"
        "print(status, 'argparse' in sys.modules, *sorted(m for m in sys.modules if m.startswith('msslab.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=repo_root, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    status, argparse_loaded, *modules = result.stdout.split()
    assert (status, argparse_loaded) == ("0", "False")
    assert set(modules) == {f"msslab.{name}" for name in loaded}


def test_package_import_loads_no_submodule(repo_root):
    code = (
        "import sys, msslab\n"
        "print(sorted(m for m in sys.modules if m.startswith('msslab.')))\n"
        "from msslab import config, report, search, structure, validation\n"
        "print(config.__name__, report.__name__, search.__name__, msslab.structure.__name__)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=repo_root, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "[]",
        "msslab.config msslab.report msslab.search msslab.structure",
    ]


# The package's names, by the submodule that defines each.
PACKAGE_NAMES = {
    "delta": ["DeltaPredicate", "SumOperation"],
    "errors": [
        "BudgetError",
        "ConfigurationError",
        "MsslabError",
        "ParseError",
        "StructureError",
        "UniverseMismatchError",
    ],
    "granules": [
        "BinaryRelation",
        "Granulation",
        "close_relation",
        "is_definite",
        "predecessor_granulation",
    ],
    "sets": ["Subset", "Universe", "partial_difference"],
    "structure": [
        "Classification",
        "MssStructure",
        "assemble",
        "classify",
        "reduct",
        "replay",
        "verify",
    ],
    "validation": [
        "ValidityReport",
        "check_compatibility",
        "check_proposition",
        "lower_deficit",
        "upper_deficit",
        "validate_clustering",
        "validity_grades",
    ],
    "verdicts": ["Verdict"],
}


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in PACKAGE_NAMES.items() for name in names],
)
def test_package_names_are_their_submodules_objects(module, name):
    assert getattr(msslab, name) is getattr(importlib.import_module(f"msslab.{module}"), name)


def test_package_resolves_submodules_and_refuses_unknown_names():
    from msslab import config, report, search, structure, validation

    assert [m.__name__ for m in (config, report, search, structure, validation)] == [
        "msslab.config",
        "msslab.report",
        "msslab.search",
        "msslab.structure",
        "msslab.validation",
    ]
    assert sorted(msslab.__all__) == sorted(n for names in PACKAGE_NAMES.values() for n in names)
    with pytest.raises(AttributeError, match="has no attribute 'cube_verdict'"):
        msslab.cube_verdict
    with pytest.raises(ImportError):
        from msslab import no_such_name  # noqa: F401


def test_the_environment_does_not_seed_a_run(repo_root):
    plain = run_cli(repo_root, "validate", FIXTURE)
    assert plain.returncode == 0
    for value in ("99", "abc"):
        result = run_cli(repo_root, "validate", FIXTURE, env_extra={"MSSLAB_SEED": value})
        assert (result.returncode, result.stdout, result.stderr) == (0, plain.stdout, ""), value


def test_output_file_matches_stdout(repo_root, tmp_path):
    out = tmp_path / "report.json"
    to_stdout = run_cli(repo_root, "validate", FIXTURE, "--seed", "7")
    to_file = run_cli(
        repo_root, "validate", FIXTURE, "--seed", "7", "--output", str(out)
    )
    assert to_file.returncode == 0 and to_file.stdout == ""
    assert out.read_text(encoding="utf-8") == to_stdout.stdout


@pytest.mark.parametrize(
    "command, config, golden",
    [
        ("check-axioms", FIXTURE, "paper-check-axioms.json"),
        ("validate", FIXTURE, "paper-validate.json"),
        ("pipeline", FIXTURE, "paper-pipeline.json"),
        # Every law is exhaustive at n=5; trans-1 through its row kernel,
        # failing under E1 and vacuous under the sparse table.
        ("check-axioms", N5_CONFIG, "n5-check-axioms.json"),
        # Every delta law does its full 2^18 work at n=6, four builtin deltas.
        ("check-axioms", N6_CONFIG, "n6-check-axioms.json"),
        # Every delta law is exhaustive at n=7, in 2^14 rows of each cube.
        ("check-axioms", N7_CONFIG, "n7-check-axioms.json"),
    ],
)
def test_reports_match_golden_bytes(repo_root, command, config, golden):
    result = run_cli(repo_root, command, config, "--seed", "7")
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("config", [FIXTURE, N5_CONFIG, N6_CONFIG, N7_CONFIG])
def test_no_report_law_reaches_the_sweep_up_to_nine_elements(repo_root, monkeypatch, config):
    # lclu is decided on the clusters, the omega laws as theorems or on the
    # sum table, and the delta laws on the cube, whose 2**(2n) rows fit the
    # sample budget up to n = 9.
    from msslab.pipeline import run_pipeline
    from msslab.report import build_check_axioms, build_validate

    def refused(axiom, *args, **kwargs):
        raise AssertionError(f"{axiom} was swept")

    monkeypatch.setattr(msslab.structure, "sweep", refused)
    cfg = parse_config(json.loads((repo_root / config).read_text(encoding="utf-8")))
    for build in (build_check_axioms, build_validate, run_pipeline):
        build(cfg, seed=7)


def test_unseeded_sampled_runs_repeat(repo_root, tmp_path):
    # At n=10 the 2^20 rows of the cube are past the budget, so trans-1 is
    # sampled; under E0 every sampled law but i-coh fails within a few draws.
    config = write_config(
        tmp_path, {"universe": [f"x{i + 1}" for i in range(10)], "delta": ["E0"]}
    )
    first = run_cli(repo_root, "check-axioms", str(config))
    second = run_cli(repo_root, "check-axioms", str(config))
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["provenance"]["seed"] == 0
    trans = {v["axiom"]: v for v in report["axioms"]["per_delta"]["E0"]}["trans-1"]
    assert trans["mode"] == "sampled" and trans["seed"] == 0


def test_pipeline_witnesses_replay(repo_root, monkeypatch):
    with open(repo_root / FIXTURE, encoding="utf-8") as handle:
        cfg = parse_config(json.load(handle))
    report = json.loads((GOLDEN / "paper-pipeline.json").read_text(encoding="utf-8"))
    replayed = []
    original = msslab.witnesses.replay
    monkeypatch.setattr(
        msslab.witnesses, "replay", lambda s, v: replayed.append(v) or original(s, v)
    )
    assert replay_failures(cfg, report) == []
    assert replayed

    forged = copy.deepcopy(report)
    e1 = forged["steps"]["step5_investigate"]["axioms"]["per_delta"]["E1"]
    trans = next(v for v in e1 if v["axiom"] == "trans-1")
    trans["witnesses"] = [[[], [], [], []]]
    assert replay_failures(cfg, forged) == ["per_delta[E1]: a witness of trans-1 does not replay"]


def schema_validator(repo_root, name):
    jsonschema = pytest.importorskip("jsonschema")
    with open(repo_root / "schemas" / name, encoding="utf-8") as handle:
        schema = json.load(handle)
    return jsonschema.validators.validator_for(schema)(schema)


def test_config_schema_refuses_the_malformed_shapes(repo_root):
    config_schema = schema_validator(repo_root, "config.schema.json")
    for case in (
        "empty-cluster",
        "numeric-delta-name",
        "element-named-twice",
        "pairs-not-a-list",
        "sum-without-table",
        "misspelt-triples",
        "repeated-compatibility-mode",
        "repeated-reduct-slot",
        "unknown-compatibility-mode",
        "unknown-reduct-slot",
    ):
        assert not config_schema.is_valid(MALFORMED_CONFIGS[case][0]), case


def test_reports_and_configs_match_the_schemas(repo_root, tmp_path):
    config_schema = schema_validator(repo_root, "config.schema.json")
    for path in (FIXTURE, N5_CONFIG, N6_CONFIG, N7_CONFIG):
        with open(repo_root / path, encoding="utf-8") as handle:
            config_schema.validate(json.load(handle))

    spec = write_config(
        tmp_path, {"n": 2, "delta": "E0", "required": ["i-coh"], "budget": 50}, name="spec.json"
    )
    search = run_cli(repo_root, "search", str(spec))
    assert search.returncode == 0, search.stderr
    reports = [json.loads(search.stdout)] + [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(GOLDEN.glob("*.json"))
        if not path.name.endswith("-config.json")
    ]
    assert {r["command"] for r in reports} == {"check-axioms", "validate", "pipeline", "search"}
    report_schema = schema_validator(repo_root, "report.schema.json")
    for report in reports:
        report_schema.validate(report)


def test_an_empty_reduct_is_reported_as_keeping_no_slots(repo_root, tmp_path):
    config = str(write_config(tmp_path, {**PAPER_CONFIG, "reduct": []}))
    result = run_cli(repo_root, "check-axioms", config)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    schema_validator(repo_root, "report.schema.json").validate(report)
    assert report["structure"]["reduct"] == []
    statuses = {v["status"] for vs in report["axioms"]["per_delta"].values() for v in vs}
    assert statuses == {"deferred"}
    text = run_cli(repo_root, "check-axioms", config, "--format", "text").stdout
    assert "\n  reduct keeps: no slots\n" in text


# Two empty granulations: no relation pair gives a nonempty neighborhood,
# and an empty list of granules.
EMPTY_GRANULATIONS = {
    "predecessor": (
        {"universe": ["a", "b"], "relation": {"pairs": []}, "granulation": "predecessor"},
        [
            "empty neighborhood of a skipped",
            "empty neighborhood of b skipped",
            "relation is not reflexive; predecessor granules may miss their generators",
        ],
    ),
    "listed": ({"universe": ["a", "b"], "granulation": []}, []),
}


@pytest.mark.parametrize("case", sorted(EMPTY_GRANULATIONS))
def test_an_empty_granulation_is_reported_with_its_notes(repo_root, tmp_path, capsys, case):
    from msslab.cli import main

    document, notes = EMPTY_GRANULATIONS[case]
    path = str(write_config(tmp_path, {**document, "clustering": [["a"]]}))
    assert main(["check-axioms", path]) == 0
    report = json.loads(capsys.readouterr().out)
    schema_validator(repo_root, "report.schema.json").validate(report)
    structure = report["structure"]
    assert (structure["granules"], structure["granulation_notes"]) == ([], notes)
    assert main(["pipeline", path]) == 0
    step1 = json.loads(capsys.readouterr().out)["steps"]["step1_assemble"]
    assert {"l", "u", "gamma"} <= set(step1["bound_slots"])
    assert main(["check-axioms", path, "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  granules: none" in lines
    assert [line for line in lines if "granulation note" in line] == [
        f"  granulation note: {note}" for note in notes
    ]


def test_an_empty_list_of_compatibility_modes_checks_no_mode(repo_root, tmp_path, capsys):
    from msslab.cli import main

    document = {**PAPER_CONFIG, "compatibility_modes": []}
    assert parse_config(document).compatibility_modes == ()
    assert main(["validate", str(write_config(tmp_path, document))]) == 0
    report = json.loads(capsys.readouterr().out)
    schema_validator(repo_root, "report.schema.json").validate(report)
    assert report["validation"]["compatibility"] == []
    # The clusters are still graded.
    assert report["validation"]["clustering_grades"]["lu_valid"] is False


def test_schema_refuses_traceability_flags(repo_root):
    jsonschema = pytest.importorskip("jsonschema")
    report_schema = schema_validator(repo_root, "report.schema.json")
    golden = json.loads((GOLDEN / "paper-validate.json").read_text(encoding="utf-8"))
    report_schema.validate(golden)
    for extra in ("clusters", "clustering_grades"):
        flagged = copy.deepcopy(golden)
        section = flagged["validation"][extra]
        (section[0] if extra == "clusters" else section)["l_traceable"] = True
        with pytest.raises(jsonschema.ValidationError):
            report_schema.validate(flagged)


def test_deferred_rows_and_undefined_deficits_match_the_schema(repo_root, tmp_path):
    report_schema = schema_validator(repo_root, "report.schema.json")
    # x3 lies in no granule, so the upper deficit of {x2,x3} is undefined.
    uncovered = {"universe": ["x1", "x2", "x3"], "granulation": [["x1", "x2"]],
                 "clustering": [["x2", "x3"]]}
    deferred = dict(uncovered, reduct=["P", "leq", "join", "meet", "top", "bottom"])
    # A reduct that drops delta leaves every compatibility row deferred.
    paper = json.loads((repo_root / FIXTURE).read_text(encoding="utf-8"))
    no_delta = dict(paper, reduct=["P", "l", "u", "gamma", "kappa"])
    reports = []
    for name, document in (
        ("uncovered.json", uncovered),
        ("deferred.json", deferred),
        ("no-delta.json", no_delta),
    ):
        result = run_cli(repo_root, "validate", str(write_config(tmp_path, document, name)))
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        report_schema.validate(report)
        reports.append(report)
    rows = [report["validation"]["clusters"][0] for report in reports]
    assert rows[0]["lower_deficit"] == ["x1", "x2"] and rows[0]["upper_deficit"] is None
    assert rows[1] == {"cluster": ["x2", "x3"], "status": "deferred"}
    assert rows[2]["lower_deficit"] == ["x1", "x2", "x3"]
    compatibility = reports[2]["validation"]["compatibility"]
    assert compatibility == [
        {
            "delta": name,
            "mode": "overlap-closer",
            "compatible": None,
            "status": "deferred",
            "witnesses": [],
            "instances_checked": 0,
        }
        for name in paper["delta"]
    ]
    lines = [line.split() for line in render_text(reports[2]).splitlines()]
    assert ["E2", "under", "overlap-closer", "deferred"] in lines
    # compatible is null exactly on a deferred row
    decided = copy.deepcopy(reports[2])
    decided["validation"]["compatibility"][0]["status"] = "holds"
    assert not report_schema.is_valid(decided)
    compatible = copy.deepcopy(reports[2])
    compatible["validation"]["compatibility"][0]["compatible"] = True
    assert not report_schema.is_valid(compatible)


def test_validate_runs_past_twenty_elements(repo_root, tmp_path):
    # Six 4-point tolerance chains; each window cluster cuts two chains.
    names = [f"x{i + 1}" for i in range(24)]
    generators = [[names[4 * k + i], names[4 * k + i + 1]] for k in range(6) for i in range(3)]
    windows = [names[6 * k + 1 : 6 * k + 6] for k in range(4)]
    config = write_config(
        tmp_path,
        {
            "universe": names,
            "relation": {"generators": generators, "closure": ["reflexive", "symmetric"]},
            "granulation": "predecessor",
            "delta": ["E0", "E1"],
            "compatibility_modes": ["overlap-closer", "clue-singleton"],
            "clustering": windows,
        },
    )
    result = run_cli(repo_root, "validate", str(config), "--seed", "7")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    schema_validator(repo_root, "report.schema.json").validate(report)
    assert [row["cluster"] for row in report["validation"]["clusters"]] == windows
    assert len(report["validation"]["compatibility"]) == 4


def test_non_reflexive_relation_is_noted_in_the_report():
    cfg = parse_config(
        {"universe": ["x1", "x2"], "relation": {"pairs": [["x1", "x2"]]}, "granulation": "predecessor"}
    )
    notes = msslab.report.structure_summary(cfg)["granulation_notes"]
    assert any(note.startswith("relation is not reflexive;") for note in notes)


def test_schemas_are_valid_json(repo_root):
    for name in ("config.schema.json", "report.schema.json"):
        with open(repo_root / "schemas" / name, encoding="utf-8") as handle:
            schema = json.load(handle)
        assert schema["type"] == "object"


def test_report_round_trip_through_json(repo_root):
    raw = run_cli(repo_root, "check-axioms", FIXTURE, "--seed", "7").stdout
    assert to_json(json.loads(raw)) == raw


def test_replay_subcommand_accepts_the_paper_pipeline_report(repo_root):
    report = GOLDEN / "paper-pipeline.json"
    result = run_cli(repo_root, "replay", FIXTURE, str(report))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "" and result.stderr == ""


def test_replay_subcommand_exits_2_on_a_forged_step5_witness(repo_root, tmp_path):
    report = json.loads((GOLDEN / "paper-pipeline.json").read_text(encoding="utf-8"))
    e1 = report["steps"]["step5_investigate"]["axioms"]["per_delta"]["E1"]
    trans = next(v for v in e1 if v["axiom"] == "trans-1")
    trans["witnesses"] = [[[], [], [], []]]
    forged = write_config(tmp_path, report, "forged.json")
    result = run_cli(repo_root, "replay", FIXTURE, str(forged))
    assert result.returncode == 2
    assert result.stderr == "msslab: per_delta[E1]: a witness of trans-1 does not replay\n"


def test_replay_subcommand_exits_2_on_a_compatibility_witness_that_holds(repo_root, tmp_path):
    report = json.loads((GOLDEN / "paper-validate.json").read_text(encoding="utf-8"))
    e2 = next(row for row in report["validation"]["compatibility"] if row["delta"] == "E2")
    full = PAPER_CONFIG["universe"]
    e2["witnesses"] = [[full, full, []]]  # l(H ∩ H) = H ⊋ ∅ = l(H ∩ ∅), so E2 holds
    forged = write_config(tmp_path, report, "forged.json")
    result = run_cli(repo_root, "replay", FIXTURE, str(forged))
    assert result.returncode == 2
    assert result.stderr == "msslab: compatibility[E2]: witness does not violate\n"


def test_replay_subcommand_exits_2_on_a_compatibility_witness_its_mode_does_not_check(
    repo_root, tmp_path, capsys
):
    from msslab.cli import main

    report = json.loads((GOLDEN / "paper-validate.json").read_text(encoding="utf-8"))
    rows = {row["delta"]: row for row in report["validation"]["compatibility"]}
    # δ is false at both triples, and neither is a triple of clusters.
    rows["E1"].update(status="fails", compatible=False, witnesses=[[[], [], []]])
    rows["E2"]["witnesses"] = [[["x1"], ["x4"], ["x2"]]]
    forged = write_config(tmp_path, report, "forged.json")
    assert main(["replay", str(repo_root / FIXTURE), str(forged)]) == 2
    assert capsys.readouterr().err == (
        "msslab: compatibility[E1]: witness is not an instance of overlap-closer\n"
        "msslab: compatibility[E2]: witness is not an instance of overlap-closer\n"
    )


@pytest.mark.parametrize("mode", [None, "nope"], ids=["missing", "unknown"])
def test_replay_refuses_a_failing_compatibility_row_without_a_known_mode(
    repo_root, tmp_path, capsys, mode
):
    from msslab.cli import main

    report = json.loads((GOLDEN / "paper-validate.json").read_text(encoding="utf-8"))
    e2 = report["validation"]["compatibility"][2]
    del e2["mode"]
    if mode is not None:
        e2["mode"] = mode
    forged = write_config(tmp_path, report, "forged.json")
    assert main(["replay", str(repo_root / FIXTURE), str(forged)]) == 1
    assert capsys.readouterr().err == (
        "msslab: parse error: validation.compatibility[2].mode: "
        f"unsupported compatibility mode {mode!r}\n"
    )


def _rename_e0(per_delta):
    per_delta["ZZ"] = per_delta.pop("E0")


@pytest.mark.parametrize(
    "golden, forge, field, message",
    [
        (
            "paper-validate.json",
            lambda report: report["validation"]["compatibility"][0].update(delta="ZZ"),
            "validation.compatibility[0].delta",
            "names delta 'ZZ', which the config does not declare",
        ),
        (
            "paper-validate.json",
            lambda report: report["validation"]["compatibility"][0].update(delta=5),
            "validation.compatibility[0].delta",
            "must be a string",
        ),
        (
            "paper-check-axioms.json",
            lambda report: _rename_e0(report["axioms"]["per_delta"]),
            "axioms.per_delta.ZZ",
            "names delta 'ZZ', which the config does not declare",
        ),
    ],
    ids=["passing-compatibility-row", "compatibility-delta-not-a-string", "per-delta-key"],
)
def test_replay_refuses_every_undeclared_delta_naming_its_path(
    repo_root, tmp_path, capsys, golden, forge, field, message
):
    from msslab.cli import main

    report = json.loads((GOLDEN / golden).read_text(encoding="utf-8"))
    rows = report.get("validation", {}).get("compatibility", [])
    assert not rows or rows[0]["status"] != "fails"  # E0 under overlap-closer passes
    forge(report)
    forged = write_config(tmp_path, report, "forged.json")
    assert main(["replay", str(repo_root / FIXTURE), str(forged)]) == 1
    assert capsys.readouterr().err == f"msslab: parse error: {field}: {message}\n"


@pytest.mark.parametrize(
    "content, message",
    [
        ("{", "invalid JSON"),
        ("[]", "report must be a JSON object"),
        (
            json.dumps(
                {
                    "axioms": {
                        "per_delta": {
                            "E9": [
                                {"axiom": "i-coh", "status": "fails", "witnesses": [[["x1"], ["x2"]]]}
                            ]
                        }
                    }
                }
            ),
            "delta 'E9'",
        ),
        (
            json.dumps({"validation": {"compatibility": [{"status": "fails"}]}}),
            "validation.compatibility[0].delta: must be a string",
        ),
        (
            json.dumps({"axioms": {"structural": [{"status": "fails", "witnesses": [[["x1"]]]}]}}),
            "axioms.structural[0].axiom: must be a string",
        ),
        (json.dumps({"axioms": []}), "axioms: must be an object"),
        (
            json.dumps(
                {"axioms": {"per_delta": {"E1": [{"axiom": "i-coh", "status": "fails", "witnesses": "x1"}]}}}
            ),
            "axioms.per_delta.E1[0].witnesses: must be an array",
        ),
        (
            json.dumps(
                {
                    "steps": {
                        "step5_investigate": {
                            "axioms": {
                                "per_delta": {
                                    "E1": [
                                        {
                                            "axiom": "trans-1",
                                            "status": "fails",
                                            "witnesses": [[["x1"], ["x2"], []]],
                                        }
                                    ]
                                }
                            }
                        }
                    }
                }
            ),
            "a witness of trans-1 must have 4 subsets",
        ),
        # PT1 is a theorem with no arity, so only the shape check reads the witness.
        (
            json.dumps({"axioms": {"structural": [{"axiom": "PT1", "status": "fails", "witnesses": [5]}]}}),
            "axioms.structural[0].witnesses[0]: must be an array",
        ),
    ],
    ids=[
        "invalid-json",
        "not-an-object",
        "undeclared-delta",
        "compatibility-row-without-delta",
        "verdict-without-axiom",
        "axioms-not-an-object",
        "witnesses-not-an-array",
        "witness-of-the-wrong-arity",
        "witness-of-a-theorem-not-an-array",
    ],
)
def test_replay_subcommand_exits_1_on_a_report_it_cannot_read(repo_root, tmp_path, content, message):
    report = tmp_path / "report.json"
    report.write_text(content, encoding="utf-8")
    result = run_cli(repo_root, "replay", FIXTURE, str(report))
    assert result.returncode == 1
    assert result.stderr.startswith("msslab: parse error:") and message in result.stderr
    assert result.stderr.count("\n") == 1


def test_replay_refuses_a_failing_law_on_a_slot_the_config_leaves_unbound(tmp_path, capsys):
    from msslab.cli import main

    # The report's failing lclu reads the clustering, which this config drops.
    config = {k: v for k, v in PAPER_CONFIG.items() if k != "clustering"}
    report = GOLDEN / "paper-check-axioms.json"
    assert main(["replay", str(write_config(tmp_path, config)), str(report)]) == 1
    assert capsys.readouterr().err == (
        "msslab: parse error: axioms.structural[12]: "
        "lclu reads ['kappa'], which the config leaves unbound\n"
    )


def test_replay_refuses_a_failing_compatibility_row_on_a_slot_the_config_leaves_unbound(
    tmp_path, capsys
):
    from msslab.cli import main
    from msslab.structure import SIGNATURE_SLOTS

    # The report's E2 row fails; replayed under this config's reduct, it reads δ or κ unbound.
    report = GOLDEN / "paper-validate.json"
    for dropped in ("delta", "kappa"):
        config = {**PAPER_CONFIG, "reduct": [s for s in SIGNATURE_SLOTS if s != dropped]}
        assert main(["replay", str(write_config(tmp_path, config)), str(report)]) == 1
        assert capsys.readouterr().err == (
            "msslab: parse error: validation.compatibility[2]: "
            f"compatibility reads [{dropped!r}], which the config leaves unbound\n"
        )


@pytest.mark.parametrize("command", ["check-axioms", "validate", "pipeline"])
def test_the_failing_rows_of_a_delta_named_empty_replay(tmp_path, capsys, command):
    from msslab.cli import main
    from msslab.report import has_failures

    # Only rows under "" can fail, as lclu is deferred without a granulation:
    # its coherence laws fail, and so does its compatibility row.
    config = write_config(
        tmp_path,
        {
            "universe": ["x1", "x2", "x3"],
            "delta": [{"kind": "def0", "name": "", "f": "union"}],
            "clustering": [["x1"], ["x2"], ["x1", "x3"]],
        },
    )
    report = tmp_path / "report.json"
    assert main([command, str(config), "--output", str(report)]) == 0
    assert has_failures(json.loads(report.read_text(encoding="utf-8")))
    assert main(["replay", str(config), str(report)]) == 0
    assert capsys.readouterr().err == ""


def failing_structural_row(tmp_path, axiom):
    row = {"axiom": axiom, "status": "fails", "witnesses": [[["x1"]]]}
    return write_config(tmp_path, {"axioms": {"structural": [row]}}, "report.json")


@pytest.mark.parametrize("axiom", ["nope", "clos1"])
def test_replay_refuses_a_failing_row_whose_axiom_has_no_definition(
    repo_root, tmp_path, capsys, axiom
):
    from msslab.cli import main

    report = failing_structural_row(tmp_path, axiom)
    assert main(["replay", str(repo_root / FIXTURE), str(report)]) == 1
    assert capsys.readouterr().err == (
        f"msslab: parse error: axioms.structural[0].axiom: {axiom!r} names no law with a definition\n"
    )


def test_replay_of_a_failing_theorem_row_does_not_replay(repo_root, tmp_path, capsys):
    from msslab.cli import main

    report = failing_structural_row(tmp_path, "UL1")
    assert main(["replay", str(repo_root / FIXTURE), str(report)]) == 2
    assert capsys.readouterr().err == "msslab: structural: a witness of UL1 does not replay\n"


def test_replay_refuses_a_witness_element_outside_the_universe(repo_root, tmp_path, capsys):
    from msslab.cli import main

    report = tmp_path / "n6-validate.json"
    assert main(["validate", str(repo_root / N6_CONFIG), "--output", str(report)]) == 0
    assert main(["replay", str(repo_root / FIXTURE), str(report)]) == 1
    assert capsys.readouterr().err == (
        "msslab: parse error: validation.compatibility[0].witnesses[0][2][1]: "
        "element 'x6' is not in the universe\n"
    )


def test_a_def0_delta_given_by_a_total_table_is_checked_end_to_end(tmp_path, capsys):
    from msslab import DeltaPredicate, Universe, assemble
    from msslab.cli import main
    from msslab.report import PER_DELTA_AXIOMS, verdict_dict
    from msslab.structure import check_axiom

    names = ["x1", "x2"]
    subsets = [[x for i, x in enumerate(names) if m >> i & 1] for m in range(4)]
    union = [[a, b, [x for x in names if x in a or x in b]] for a in subsets for b in subsets]
    right = [[a, b, b] for a in subsets for b in subsets]  # f(a, b) = b
    config = write_config(
        tmp_path,
        {
            "universe": names,
            "delta": [
                "E0",
                {"kind": "def0", "name": "union", "f": union},
                {"kind": "def0", "name": "right", "f": right},
            ],
        },
    )
    report = tmp_path / "report.json"
    assert main(["check-axioms", str(config), "--output", str(report)]) == 0
    axioms = json.loads(report.read_text(encoding="utf-8"))["axioms"]

    def rows(name):
        verdicts = axioms["per_delta"][name]
        return [(v["status"], v["witnesses"], v["instances_checked"]) for v in verdicts]

    assert rows("union") == rows("E0")
    assert axioms["classification"]["union"] == axioms["classification"]["E0"]
    u = Universe(names)
    table = {(a, b): b for a in range(4) for b in range(4)}
    s = assemble(u, delta=DeltaPredicate.from_nearness(u, table))
    expected = [verdict_dict(check_axiom(s, axiom)) for axiom in PER_DELTA_AXIOMS]
    assert axioms["per_delta"]["right"] == json.loads(json.dumps(expected))
    assert main(["replay", str(config), str(report)]) == 0
    assert capsys.readouterr().err == ""


def test_replay_exits_2_on_a_failing_row_without_a_witness(repo_root, tmp_path, capsys):
    from msslab.cli import main

    checked = json.loads((GOLDEN / "paper-check-axioms.json").read_text(encoding="utf-8"))
    i_coh = next(v for v in checked["axioms"]["per_delta"]["E0"] if v["axiom"] == "i-coh")
    i_coh.update(status="fails", witnesses=[])
    validated = json.loads((GOLDEN / "paper-validate.json").read_text(encoding="utf-8"))
    row = next(
        r
        for r in validated["validation"]["compatibility"]
        if r["delta"] == "E0" and r["mode"] == "overlap-closer"
    )
    row.update(status="fails", compatible=False, witnesses=[])
    for report, problem in (
        (checked, "per_delta[E0]: failing verdict without witness"),
        (validated, "compatibility[E0]: failing row without witness"),
    ):
        forged = write_config(tmp_path, report, "forged.json")
        assert main(["replay", str(repo_root / FIXTURE), str(forged)]) == 2
        assert capsys.readouterr().err == f"msslab: {problem}\n"


def test_text_search_report_prints_the_witness_structure(tmp_path, capsys):
    from msslab.cli import main

    spec = str(write_config(tmp_path, {"n": 2, "delta": "E0", "required": ["i-coh"], "budget": 50}))
    assert main(["search", spec]) == 0
    structure = json.loads(capsys.readouterr().out)["search"]["structure"]
    assert main(["search", spec, "--format", "text"]) == 0
    line = f"\n  witness structure: {json.dumps(structure, sort_keys=True)}\n"
    assert line in capsys.readouterr().out
