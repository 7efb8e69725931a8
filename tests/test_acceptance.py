"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import itertools
import os
import random
import subprocess
import sys
import time

import pytest

from msslab import (
    BinaryRelation,
    Clustering,
    DeltaPredicate,
    Universe,
    assemble,
    check_compatibility,
    close_relation,
    lower_deficit,
    predecessor_granulation,
    upper_deficit,
    validity_grades,
)
from msslab.oracles import StructureDescription, o_claim, o_deficits
from msslab.search import SearchSpec, enumerate_structures, find_witness, oracle_check
from msslab.structure import axiom_instance, check_axiom, verify

FIXTURE = "examples/paper-example.json"


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number} {name}: PASS")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def three_element_structures():
    return list(enumerate_structures(SearchSpec(n=3, delta="E0", budget=512)))


@criterion(1, "worked-example granules")
def test_criterion_1_predecessor_granules(H):
    start = time.perf_counter()
    generators = BinaryRelation(H, [("x1", "x2"), ("x2", "x3")])
    tolerance = close_relation(generators, reflexive=True, symmetric=True)
    granules = {g.members() for g in predecessor_granulation(tolerance)}
    elapsed = time.perf_counter() - start
    assert granules == {
        ("x1", "x2"),
        ("x1", "x2", "x3"),
        ("x2", "x3"),
        ("x4",),
    }
    assert elapsed < 1.0


@criterion(2, "worked-example deficits")
def test_criterion_2_deficits(H, granulation):
    cluster = H.subset(["x2", "x4"])
    expected = H.subset(["x1", "x2", "x3"])
    lo = lower_deficit(cluster, granulation)
    up = upper_deficit(cluster, granulation)
    assert lo.defined and lo.value == expected
    assert up.defined and up.value == expected


@criterion(3, "compatibility reproduction")
def test_criterion_3_compatibility(H, granulation, clustering, delta_builtins):
    expected = {"E0": True, "E1": True, "E2": False, "uE1": True}
    for name, should_hold in expected.items():
        verdict = check_compatibility(clustering, delta_builtins[name])
        assert (not verdict.failed) == should_hold, name
        if not should_hold:
            assert verdict.witnesses, "incompatibility must carry a witness"
        s = assemble(
            H,
            granulation=granulation,
            delta=delta_builtins[name],
            kappa=list(clustering),
        )
        assert oracle_check(s, "compatibility:overlap-closer") == should_hold, name

    as_clustering = Clustering(H, list(granulation))
    verdict = check_compatibility(as_clustering, delta_builtins["uE1"])
    assert not verdict.failed
    s = assemble(
        H,
        granulation=granulation,
        delta=delta_builtins["uE1"],
        kappa=list(as_clustering),
    )
    assert oracle_check(s, "compatibility:overlap-closer")


@criterion(4, "approximation law suite over 512 relations")
def test_criterion_4_approximation_laws(three_element_structures):
    start = time.perf_counter()
    assert len(three_element_structures) == 512
    for s in three_element_structures:
        verdicts = verify(s, ["UL1", "UL2", "UL3", "TB"])
        assert all(v.status == "holds" for v in verdicts), s
        space = list(s.universe.all_subsets())
        upper = s.granulation.upper
        for a, b in itertools.product(space, repeat=2):
            assert upper(a | b) == upper(a) | upper(b)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


@criterion(5, "coherence verdict table with oracle agreement")
def test_criterion_5_coherence_table(H, granulation, delta_builtins):
    expectations = {
        "E0": {"i-coh": "holds", "i-coh-2": "fails"},
        "E1": {"i-coh-2": "holds", "strict-n-coh": "holds", "trans-1": "fails"},
    }
    for name, table in expectations.items():
        d = delta_builtins[name]
        s = assemble(H, granulation=granulation, delta=d)
        desc = StructureDescription.from_structure(s)
        start = time.perf_counter()
        for axiom, status in table.items():
            verdict = check_axiom(s, axiom)
            assert verdict.status == status, (name, axiom)
            assert verdict.mode == "exhaustive"
            if verdict.failed:
                assert axiom_instance(s, axiom, verdict.witnesses[0]) is False
            assert (verdict.status == "holds") == o_claim(desc, f"axiom:{axiom}")
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0 * len(table)


@criterion(6, "meta-theorem on random extensional predicates")
def test_criterion_6_meta_theorem():
    checked = 0
    for n in (1, 2, 3):
        universe = Universe([f"x{i+1}" for i in range(n)])
        top = 1 << n
        rng = random.Random(1000 + n)
        for _ in range(334):
            triples = [
                t
                for t in itertools.product(range(top), repeat=3)
                if rng.random() < 0.35
            ]
            d = DeltaPredicate.extensional_from_masks(universe, triples)
            s = assemble(universe, delta=d)
            strict = check_axiom(s, "strict-n-coh")
            inner = check_axiom(s, "i-coh-2")
            assert not (strict.status in ("holds", "vacuous") and inner.failed)
            checked += 1
    assert checked >= 1000

    spec = SearchSpec(
        n=2,
        family="extensional-deltas",
        required=("strict-n-coh",),
        forbidden=("i-coh-2",),
        budget=1000,
        seed=6,
    )
    assert find_witness(spec) == (None, 1000)


@criterion(7, "closed-form lower preimage equivalence")
def test_criterion_7_closed_form(H, granulation, three_element_structures):
    for c in H.all_subsets():
        grades = validity_grades(c, granulation)
        brute = any(granulation.lower(v) == c for v in H.all_subsets())
        assert grades.l_pre_valid == brute == (granulation.lower(c) == c)
    for s in three_element_structures:
        space = list(s.universe.all_subsets())
        for c in space:
            brute = any(s.granulation.lower(v) == c for v in space)
            grades = validity_grades(c, s.granulation)
            assert grades.l_pre_valid == brute == (s.granulation.lower(c) == c)


@criterion(8, "deficit-traceability premise checked against the oracle")
def test_criterion_8_proposition_sweep(three_element_granulations):
    # deficit-traceability is reported as a theorem; its premise is that the
    # lower deficit is always defined, and the deficits are the oracle's.
    for g in three_element_granulations:
        granules = tuple(frozenset(x.members()) for x in g)
        for c in g.universe.all_subsets():
            deficits = (lower_deficit(c, g), upper_deficit(c, g))
            named = tuple(frozenset(d.value.members()) if d.defined else None for d in deficits)
            assert named == o_deficits(frozenset(c.members()), granules), (g, c)
            assert named[0] is not None, (g, c)
        desc = StructureDescription(elements=g.universe.elements, granules=granules)
        assert o_claim(desc, "proposition-def2"), g


@criterion(9, "deterministic reports")
def test_criterion_9_determinism(repo_root):
    def run(*args):
        env = dict(os.environ)
        env.pop("MSSLAB_SEED", None)
        return subprocess.run(
            [sys.executable, "-m", "msslab", "validate", FIXTURE, *args],
            cwd=repo_root,
            capture_output=True,
            text=True,
            env=env,
        )

    first = run("--seed", "7")
    second = run("--seed", "7")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
