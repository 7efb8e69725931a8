"""The value types: immutable, compared and hashed by their fields."""

import itertools
import json
import os
import subprocess
import sys

import pytest

import msslab
from msslab import SumOperation, assemble, classify, validate_clustering
from msslab.config import DeltaSpec, parse_config
from msslab.oracles import StructureDescription
from msslab.search import SearchSpec
from msslab.structure import SIGNATURE_SLOTS, reduct
from msslab.validation import validity_grades
from msslab.verdicts import Verdict, decided

FIXTURE = "examples/paper-example.json"


@pytest.fixture(scope="module")
def document(repo_root):
    with open(repo_root / FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def factories(document, H, granulation, clustering):
    """For each value type, a function that builds a fresh, equal instance."""
    cluster = H.from_mask(clustering.kappa[0])

    def structure():
        return assemble(H, granulation=granulation, kappa=clustering.kappa)

    return {
        "Verdict": lambda: Verdict("trans-1", "fails", witnesses=((cluster, cluster),)),
        "DeltaSpec": lambda: DeltaSpec(name="E1", kind="E1"),
        "LabConfig": lambda: parse_config(document),
        "MssStructure": structure,
        "Classification": lambda: classify(structure()),
        "ClusterGrades": lambda: validity_grades(cluster, granulation),
        "ClusterReport": lambda: validate_clustering(structure()).per_cluster[0],
        "ValidityReport": lambda: validate_clustering(structure()),
        "SearchSpec": lambda: SearchSpec(n=3, required=("n-coh",)),
        "StructureDescription": lambda: StructureDescription.from_structure(structure()),
    }


CONVERTED = (
    "Verdict",
    "DeltaSpec",
    "LabConfig",
    "MssStructure",
    "Classification",
    "ClusterGrades",
    "ClusterReport",
    "ValidityReport",
    "SearchSpec",
    "StructureDescription",
)


@pytest.mark.parametrize("name", CONVERTED)
def test_value_types_are_immutable(factories, name):
    value = factories[name]()
    assert type(value).__name__ == name
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.unknown_attribute = 1


@pytest.mark.parametrize("name", CONVERTED)
def test_equal_fields_make_equal_values(factories, name):
    first, second = factories[name](), factories[name]()
    assert first is not second
    assert first == second and hash(first) == hash(second)


@pytest.mark.parametrize("kind", ["total-union", "granular-sum", "extensional-partial"])
def test_equal_sums_assemble_equal_structures(H, granulation, kind):
    def make():
        if kind == "total-union":
            return SumOperation.total_union(H)
        if kind == "granular-sum":
            return SumOperation.granular(granulation)
        return SumOperation.extensional(H, {(0b0001, 0b0010): 0b0011})

    first, second = (assemble(H, granulation=granulation, sum=make()) for _ in range(2))
    assert first.sum is not second.sum
    assert first == second and hash(first) == hash(second)


SUM_TABLE = {"kind": "extensional-partial", "table": [[["x1"], ["x2"], ["x1", "x2"]]]}


@pytest.mark.parametrize("sum_document", [None, "total-union", "granular-sum", SUM_TABLE])
def test_a_config_parsed_twice_is_one_value(document, sum_document):
    first, second = (parse_config({**document, "sum": sum_document}) for _ in range(2))
    assert first == second and hash(first) == hash(second)


def test_configs_whose_sum_tables_differ_differ(document):
    other = {**SUM_TABLE, "table": [[["x1"], ["x2"], ["x2"]]]}
    assert parse_config({**document, "sum": SUM_TABLE}) != parse_config({**document, "sum": other})


def test_a_config_holds_its_base_and_builds_each_delta_afresh(document):
    cfg = parse_config(document)
    assert type(cfg)._fields == (
        "base", "relation", "deltas", "compatibility_modes", "reduct_keep", "seed"
    )
    assert cfg.structure(None) is cfg.base and cfg.base.delta is None
    spec = cfg.deltas[0]
    assert cfg.structure(spec).delta is not cfg.structure(spec).delta


REDUCTS = {
    "P-delta": ["P", "delta"],
    **{f"all-but-{out}": [s for s in SIGNATURE_SLOTS if s != out] for out in SIGNATURE_SLOTS},
    "none": [],
}


@pytest.mark.parametrize("keep", REDUCTS.values(), ids=REDUCTS)
def test_a_config_reduct_is_the_structure_reduct(document, keep):
    plain = parse_config({k: v for k, v in document.items() if k != "reduct"})
    cfg = parse_config({**document, "reduct": keep})
    assert reduct(plain.base, keep) == cfg.base
    # A kept delta has no value in the base, and is bound under each candidate.
    assert ("delta" in cfg.structure(cfg.deltas[0]).bound_slots()) == ("delta" in keep)


def test_verdict_repr_names_axiom_status_and_first_witness(H):
    a, b = H.subset(["x1"]), H.subset(["x2", "x3"])
    assert repr(Verdict("i-coh", "holds")) == "Verdict(i-coh: holds)"
    assert repr(Verdict("n-coh", "fails", witnesses=((a, b), (b, a)))) == (
        f"Verdict(n-coh: fails, witness={(a, b)!r})"
    )


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_decided_counts_a_failure_by_its_witness_position(n, arity):
    u = msslab.Universe([f"x{i + 1}" for i in range(n)])
    space = list(itertools.product(range(1 << n), repeat=arity))
    for position, first in enumerate(space, 1):
        v = decided("law", u, arity, first, True)
        assert (v.status, v.instances_checked) == ("fails", position)
        assert v.witnesses == (tuple(map(u.from_mask, first)),)
    for substantive, status in ((True, "holds"), (False, "vacuous")):
        v = decided("law", u, arity, None, substantive)
        assert (v.status, v.witnesses, v.instances_checked) == (status, (), len(space))


def test_cli_start_up_does_not_import_dataclasses():
    # -S: no site-packages, so no .pth file can import dataclasses first.
    src = os.path.dirname(os.path.dirname(os.path.abspath(msslab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, msslab.cli; print('dataclasses' in sys.modules, msslab.cli.__file__)"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    loaded, path = result.stdout.split()
    assert path.startswith(src)
    assert loaded == "False"
