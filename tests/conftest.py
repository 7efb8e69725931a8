from pathlib import Path

import pytest

from msslab import (
    BinaryRelation,
    DeltaPredicate,
    Universe,
    assemble,
    close_relation,
    predecessor_granulation,
)
from msslab.search import SearchSpec, enumerate_structures

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def H():
    return Universe(["x1", "x2", "x3", "x4"])


@pytest.fixture(scope="session")
def tolerance(H):
    generators = BinaryRelation(H, [("x1", "x2"), ("x2", "x3")])
    return close_relation(generators, reflexive=True, symmetric=True)


@pytest.fixture(scope="session")
def granulation(tolerance):
    return predecessor_granulation(tolerance)


@pytest.fixture(scope="session")
def clustering(H, granulation):
    # The worked example's granulation with κ = {x1,x3}, {x2,x3}, {x2,x4}.
    return assemble(H, granulation=granulation, kappa=[0b0101, 0b0110, 0b1010])


@pytest.fixture(scope="session")
def delta_builtins(H, granulation):
    return {
        name: DeltaPredicate.builtin(name, H, granulation)
        for name in ("E0", "E1", "E2", "uE1")
    }


@pytest.fixture(scope="session")
def repo_root():
    return ROOT


@pytest.fixture(scope="session")
def three_element_granulations():
    """The 260 distinct granulations of the 512 relations on three elements."""
    granulations = {}
    for s in enumerate_structures(SearchSpec(n=3, budget=512)):
        granulations.setdefault(s.granulation.granules, s.granulation)
    assert len(granulations) == 260
    return list(granulations.values())
