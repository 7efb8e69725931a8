"""The value types: immutable, compared and hashed by their fields."""

import json
import os
import subprocess
import sys

import pytest

import msslab
from msslab import assemble, classify, validate_clustering
from msslab.config import DeltaSpec, parse_config
from msslab.oracles import StructureDescription
from msslab.search import SearchSpec
from msslab.validation import validity_grades
from msslab.verdicts import Verdict

FIXTURE = "examples/paper-example.json"


@pytest.fixture(scope="module")
def factories(repo_root, H, granulation, clustering):
    """For each value type, a function that builds a fresh, equal instance."""
    with open(repo_root / FIXTURE, encoding="utf-8") as handle:
        document = json.load(handle)
    cluster = clustering.clusters[0]

    def structure():
        return assemble(H, granulation=granulation, kappa=clustering)

    return {
        "Verdict": lambda: Verdict("trans-1", "fails", witnesses=((cluster, cluster),)),
        "DeltaSpec": lambda: DeltaSpec(name="E1", kind="E1"),
        "LabConfig": lambda: parse_config(document),
        "MssStructure": structure,
        "Classification": lambda: classify(structure()),
        "ClusterGrades": lambda: validity_grades(cluster, granulation),
        "ClusterReport": lambda: validate_clustering(clustering, granulation).per_cluster[0],
        "ValidityReport": lambda: validate_clustering(clustering, granulation),
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


def test_verdict_repr_names_axiom_status_and_first_witness(H):
    a, b = H.subset(["x1"]), H.subset(["x2", "x3"])
    assert repr(Verdict("i-coh", "holds")) == "Verdict(i-coh: holds)"
    assert repr(Verdict("n-coh", "fails", witnesses=((a, b), (b, a)))) == (
        f"Verdict(n-coh: fails, witness={(a, b)!r})"
    )


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
