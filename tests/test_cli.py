import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import msslab.report
from msslab.config import parse_config
from msslab.report import replay_failures, render_text, to_json

FIXTURE = "examples/paper-example.json"
GOLDEN = Path(__file__).resolve().parent / "golden"
N5_CONFIG = "tests/golden/n5-config.json"
N6_CONFIG = "tests/golden/n6-config.json"


def run_cli(repo_root, *args, env_extra=None):
    env = dict(os.environ)
    env.pop("MSSLAB_SEED", None)
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
    from msslab.cli import _search_report
    from msslab.errors import ParseError

    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        _search_report(document, 0)
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


PAPER_CONFIG = json.loads((Path(__file__).resolve().parent.parent / FIXTURE).read_text())


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
    ],
)
def test_mistyped_fields_are_parse_errors(repo_root, tmp_path, command, document, field):
    result = run_cli(repo_root, command, str(write_config(tmp_path, document)))
    assert result.returncode == 1
    # the field is named and the value's type is rejected as a whole, not per character
    assert result.stderr.startswith(f"msslab: parse error: {field}: expected ")
    assert "Traceback" not in result.stderr


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
    from msslab.cli import _search_report
    from msslab.oracles import StructureDescription
    from msslab.search import SearchSpec, find_witness

    document = {
        "n": 2,
        "family": "relations",
        "delta": "extensional",
        "forbidden": ["n-coh", "i-coh"],
        "budget": 16,
        "density": 0.3,
    }
    structure = _search_report(document, 5)["search"]["structure"]
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


def test_cli_import_leaves_the_oracles_unloaded(repo_root):
    code = "import sys, msslab.cli; print('msslab.oracles' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=repo_root, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_env_seed_is_honoured(repo_root):
    result = run_cli(repo_root, "validate", FIXTURE, env_extra={"MSSLAB_SEED": "99"})
    assert json.loads(result.stdout)["provenance"]["seed"] == 99


def test_malformed_env_seed_is_a_parse_error(repo_root):
    result = run_cli(repo_root, "validate", FIXTURE, env_extra={"MSSLAB_SEED": "abc"})
    assert result.returncode == 1
    assert result.stderr == "msslab: parse error: MSSLAB_SEED: expected an integer, got 'abc'\n"


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
    ],
)
def test_reports_match_golden_bytes(repo_root, command, config, golden):
    result = run_cli(repo_root, command, config, "--seed", "7")
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / golden).read_text(encoding="utf-8")


def test_unseeded_sampled_runs_repeat(repo_root, tmp_path):
    # At n=7 trans-1 is past the row kernel's budget and is sampled; under
    # E0 every sampled law fails within a few draws.
    config = write_config(
        tmp_path, {"universe": [f"x{i + 1}" for i in range(7)], "delta": ["E0"]}
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
    original = msslab.report.replay
    monkeypatch.setattr(
        msslab.report, "replay", lambda s, v: replayed.append(v) or original(s, v)
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


def test_reports_and_configs_match_the_schemas(repo_root, tmp_path):
    config_schema = schema_validator(repo_root, "config.schema.json")
    for path in (FIXTURE, N5_CONFIG, N6_CONFIG):
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
    rows = []
    for name, document in (("uncovered.json", uncovered), ("deferred.json", deferred)):
        result = run_cli(repo_root, "validate", str(write_config(tmp_path, document, name)))
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        report_schema.validate(report)
        rows.append(report["validation"]["clusters"][0])
    assert rows[0]["lower_deficit"] == ["x1", "x2"] and rows[0]["upper_deficit"] is None
    assert rows[1] == {"cluster": ["x2", "x3"], "status": "deferred"}


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
    ],
    ids=["invalid-json", "not-an-object", "undeclared-delta"],
)
def test_replay_subcommand_exits_1_on_a_report_it_cannot_read(repo_root, tmp_path, content, message):
    report = tmp_path / "report.json"
    report.write_text(content, encoding="utf-8")
    result = run_cli(repo_root, "replay", FIXTURE, str(report))
    assert result.returncode == 1
    assert result.stderr.startswith("msslab: parse error:") and message in result.stderr
