import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from msslab import (
    DeltaPredicate,
    Granulation,
    MsslabError,
    StructureError,
    Universe,
    UniverseMismatchError,
    assemble,
    check_compatibility,
    check_proposition,
    lower_deficit,
    upper_deficit,
    validate_clustering,
    validity_grades,
)
from msslab.config import parse_config
from msslab.delta import BUILTIN_DELTAS
from msslab.oracles import o_deficits, o_pre_valid_search, powerset
from msslab.pipeline import run_pipeline
from msslab.search import SearchSpec, enumerate_structures
from msslab.validation import COMPATIBILITY_MODES, ClusterGrades


def test_deficits_of_the_worked_example(H, granulation):
    c = H.subset(["x2", "x4"])
    expected = H.subset(["x1", "x2", "x3"])
    assert lower_deficit(c, granulation) == expected
    assert upper_deficit(c, granulation) == expected


def test_deficits_of_definite_clusters_vanish(H, granulation):
    for c in (H.subset(["x4"]), H.subset(["x1", "x2", "x3"])):
        assert lower_deficit(c, granulation) == H.empty
        assert upper_deficit(c, granulation) == H.empty


def test_deficits_of_the_overlapping_cluster(H, granulation):
    c = H.subset(["x1", "x3"])
    expected = H.subset(["x1", "x2", "x3"])
    assert lower_deficit(c, granulation) == expected
    assert upper_deficit(c, granulation) == expected


def test_grades_examples(H, granulation):
    g = validity_grades(H.subset(["x4"]), granulation)
    assert g.lu_valid and g.l_pre_valid and g.u_pre_valid

    g = validity_grades(H.subset(["x2", "x4"]), granulation)
    assert not g.lu_valid and not g.l_pre_valid

    g = validity_grades(H.subset(["x1", "x2", "x3"]), granulation)
    assert g.l_pre_valid and g.u_pre_valid


def assert_grades_match_search(g: Granulation):
    """Both preimage grades equal the oracle's powerset search, per cluster."""
    granules = [frozenset(g.universe.names(x)) for x in g]
    space = powerset(g.universe.elements)
    for c in g.universe.all_subsets():
        grades = validity_grades(c, g)
        searched = o_pre_valid_search(frozenset(c.members()), granules, space)
        assert (grades.l_pre_valid, grades.u_pre_valid) == searched, (g, c)


def test_closed_form_matches_search_for_all_subsets(granulation):
    assert_grades_match_search(granulation)


def test_grades_match_search_on_all_three_element_granulations(three_element_granulations):
    for g in three_element_granulations:
        assert_grades_match_search(g)


@st.composite
def granulations(draw):
    # Any list of nonempty granules, so some leave elements uncovered.
    u = Universe([f"x{i + 1}" for i in range(draw(st.integers(1, 4)))])
    masks = draw(st.lists(st.integers(1, (1 << u.size) - 1), max_size=6))
    return Granulation(u, masks)


@settings(max_examples=200, deadline=None)
@given(granulations())
def test_grades_match_search_on_random_granulations(g):
    assert_grades_match_search(g)


@settings(max_examples=200, deadline=None)
@given(granulations())
def test_deficits_match_oracle_on_random_granulations(g):
    granules = [frozenset(g.universe.names(x)) for x in g]
    for c in g.universe.all_subsets():
        deficits = (lower_deficit(c, g), upper_deficit(c, g))
        named = tuple(None if d is None else frozenset(d.members()) for d in deficits)
        assert named == o_deficits(frozenset(c.members()), granules), (g, c)


def test_lu_valid_forces_empty_deficits(H, granulation):
    for c in H.all_subsets():
        g = validity_grades(c, granulation)
        if g.lu_valid:
            assert lower_deficit(c, granulation) == H.empty
            assert upper_deficit(c, granulation) == H.empty


def test_deficits_always_defined_under_subset_policy():
    # The upper deficit is undefined exactly when a member of C lies in no granule.
    for s in enumerate_structures(SearchSpec(n=3, budget=512)):
        cover = 0
        for g in s.granulation:
            cover |= g
        for c in s.universe.all_subsets():
            assert lower_deficit(c, s.granulation) is not None
            assert (upper_deficit(c, s.granulation) is not None) == (not c.mask & ~cover)


def test_proposition_holds_for_every_subset(H, granulation):
    for c in H.all_subsets():
        v = check_proposition(c, granulation)
        assert (v.status, v.mode, v.instances_checked) == ("holds", "theorem", 0)
        assert v.note.startswith("theorem: l(C) lies inside C")


def test_validate_clustering_aggregates(H, clustering):
    report = validate_clustering(clustering)
    assert len(report.per_cluster) == 3
    grades = [r.grades for r in report.per_cluster]
    assert report.grades == ClusterGrades(
        lu_valid=all(g.lu_valid for g in grades),
        l_pre_valid=all(g.l_pre_valid for g in grades),
        u_pre_valid=all(g.u_pre_valid for g in grades),
    )
    # One cluster is l-pre-valid, so an OR over the clusters would read True.
    l_pre_valid = [r.cluster.members() for r in report.per_cluster if r.grades.l_pre_valid]
    assert l_pre_valid == [("x2", "x3")]
    assert not report.grades.lu_valid and not report.grades.l_pre_valid
    by_cluster = {r.cluster.members(): r for r in report.per_cluster}
    assert by_cluster[("x2", "x4")].lower_deficit == H.subset(["x1", "x2", "x3"])
    assert all(r.proposition.status == "holds" for r in report.per_cluster)


def test_validate_clustering_rejects_operators_of_another_universe(granulation):
    # κ, l, u and δ share the structure's carrier, so a clustering over
    # another universe than its operators cannot be assembled.
    other = Universe(["x", "y", "z"])
    with pytest.raises(UniverseMismatchError, match="granulation universe"):
        validate_clustering(assemble(other, granulation=granulation, kappa=[0b011]))
    with pytest.raises(UniverseMismatchError):
        validity_grades(other.full, granulation)
    foreign_delta = DeltaPredicate.builtin("E0", other)
    with pytest.raises(UniverseMismatchError, match="delta predicate universe"):
        check_compatibility(assemble(granulation.universe, delta=foreign_delta, kappa=[0b0011]))


def test_clustering_validation_errors(clustering, delta_builtins):
    for kappa, message in (
        ((), "at least one cluster"),
        ((0b0001, 0), "must be nonempty"),
        ((0b0001, 0b0010, 0b0001), r"duplicate cluster \{x1\}"),
    ):
        s = clustering._replace(delta=delta_builtins["E0"], kappa=kappa)
        with pytest.raises(MsslabError, match=message):
            validate_clustering(s)
        with pytest.raises(MsslabError, match=message):
            check_compatibility(s)
    # A mask outside the universe leaves κ unbound: validation refuses it, compatibility defers.
    s = clustering._replace(delta=delta_builtins["E0"], kappa=(0b0001, 1 << 4))
    with pytest.raises(StructureError, match=re.escape("reads unbound slots ['kappa']")):
        validate_clustering(s)
    assert check_compatibility(s).status == "deferred"


def test_checks_on_a_structure_that_leaves_their_slots_unbound(H, granulation, delta_builtins):
    e0 = delta_builtins["E0"]
    for s, unbound in (
        (assemble(H, granulation=granulation, delta=e0), ["kappa"]),
        (assemble(H, delta=e0, kappa=[0b0011]), ["l", "u"]),
    ):
        with pytest.raises(StructureError, match=re.escape(f"reads unbound slots {unbound}")):
            validate_clustering(s)
    for s in (assemble(H, delta=e0), assemble(H, kappa=[0b0011])):
        for mode in COMPATIBILITY_MODES:
            v = check_compatibility(s, mode)
            assert (v.axiom, v.status) == (f"compatibility:{mode}", "deferred")
            assert v.instances_checked == 0


def test_compatibility_reproduces_the_example(H, clustering, delta_builtins):
    assert check_compatibility(clustering._replace(delta=delta_builtins["E0"])).status == "holds"
    assert check_compatibility(clustering._replace(delta=delta_builtins["E1"])).status == "holds"
    v = check_compatibility(clustering._replace(delta=delta_builtins["E2"]))
    assert v.status == "fails"
    assert tuple(w.members() for w in v.witnesses[0]) == (
        ("x1", "x3"),
        ("x2", "x3"),
        ("x2", "x4"),
    )


def test_granulation_is_a_clustering_for_upper_inclusion(granulation, clustering, delta_builtins):
    as_clustering = clustering._replace(delta=delta_builtins["uE1"], kappa=tuple(granulation))
    assert check_compatibility(as_clustering).status == "holds"


def test_clue_singleton_rejects_plain_inclusion_here(clustering, delta_builtins):
    v = check_compatibility(clustering._replace(delta=delta_builtins["E0"]), "clue-singleton")
    assert v.status == "fails"


def test_compatibility_invariant_under_cluster_reordering(clustering, delta_builtins):
    for perm in itertools.permutations(clustering.kappa):
        for name in ("E0", "E1", "E2", "uE1"):
            s = clustering._replace(delta=delta_builtins[name])
            assert (
                check_compatibility(s._replace(kappa=perm)).failed
                == check_compatibility(s).failed
            )


def compatibility_by_loop(s, mode: str):
    """(status, witnesses, instances_checked) of a plain loop over the
    instances of ``mode`` as subsets, clusters in list order."""
    u, d = s.universe, s.delta
    clusters = [u.from_mask(m) for m in s.kappa]
    if mode == "overlap-closer":
        triples = [
            (a, b, c)
            for a in clusters
            for b in clusters
            if b != a and a & b
            for c in clusters
            if c != a and c != b and not a & c
        ]
    else:
        triples = [
            (u.singleton(x), u.singleton(y), u.singleton(z))
            for cluster in clusters
            for x in cluster.members()
            for y in cluster.members()
            for z in u.elements
            if z not in cluster
        ]
    for checked, triple in enumerate(triples, 1):
        if not d(*triple):
            return "fails", (triple,), checked
    return "holds" if triples else "vacuous", (), len(triples)


@st.composite
def granulated_clusterings(draw):
    n = draw(st.integers(1, 4))
    u = Universe([f"x{i + 1}" for i in range(n)])
    top = 1 << n
    g = Granulation(u, draw(st.lists(st.integers(1, top - 1), min_size=1, max_size=4)))
    clusters = draw(st.lists(st.integers(1, top - 1), min_size=1, max_size=5, unique=True))
    return assemble(u, granulation=g, kappa=clusters)


@settings(max_examples=150, deadline=None)
@given(granulated_clusterings())
def test_compatibility_matches_a_plain_loop_in_cluster_list_order(cl):
    for name in BUILTIN_DELTAS:
        s = cl._replace(delta=DeltaPredicate.builtin(name, cl.universe, cl.granulation))
        for mode in COMPATIBILITY_MODES:
            v = check_compatibility(s, mode)
            got = (v.status, v.witnesses, v.instances_checked)
            assert got == compatibility_by_loop(s, mode), (cl, name, mode)


def test_compatibility_vacuous_for_single_cluster(clustering, delta_builtins):
    lonely = clustering._replace(delta=delta_builtins["E2"], kappa=(0b0001,))
    assert check_compatibility(lonely).status == "vacuous"


def test_whole_universe_cluster_is_lu_valid(H, granulation):
    g = validity_grades(H.full, granulation)
    assert g.lu_valid


def test_unknown_compatibility_mode_rejected(clustering, delta_builtins):
    with pytest.raises(MsslabError, match="unknown compatibility mode 'nearest-first'"):
        check_compatibility(clustering._replace(delta=delta_builtins["E0"]), "nearest-first")


def test_pipeline_on_the_example_config():
    config = {
        "universe": ["x1", "x2", "x3", "x4"],
        "relation": {
            "generators": [["x1", "x2"], ["x2", "x3"]],
            "closure": ["reflexive", "symmetric"],
        },
        "granulation": "predecessor",
        "delta": ["E0", "E1"],
        "clustering": [["x1", "x3"], ["x2", "x3"], ["x2", "x4"]],
    }
    report = run_pipeline(parse_config(config))
    steps = report["steps"]
    assert steps["step3_clustering"]["source"] == "external clustering ingested"
    assert steps["step4_bind"]["kappa_bound"] is True
    validation = steps["step5_investigate"]["validation"]
    row = next(r for r in validation["clusters"] if r["cluster"] == ["x2", "x4"])
    assert row["lower_deficit"] == ["x1", "x2", "x3"]
    assert row["upper_deficit"] == ["x1", "x2", "x3"]
    compat = {(r["delta"], r["mode"]): r["compatible"] for r in validation["compatibility"]}
    assert compat[("E0", "overlap-closer")] and compat[("E1", "overlap-closer")]


def test_pipeline_without_delta_candidates_is_validation_only():
    config = {
        "universe": ["x1", "x2"],
        "relation": {"pairs": [["x1", "x1"], ["x2", "x2"]]},
        "granulation": "predecessor",
        "clustering": [["x1"]],
    }
    report = run_pipeline(parse_config(config))
    axioms = report["steps"]["step5_investigate"]["axioms"]
    assert axioms["per_delta"] == {}
    assert "note" in axioms
    assert report["steps"]["step5_investigate"]["validation"]["clusters"]


def test_pipeline_with_reduct_defers_deficits():
    config = {
        "universe": ["x1", "x2"],
        "relation": {"pairs": [["x1", "x1"], ["x2", "x2"]]},
        "granulation": "predecessor",
        "clustering": [["x1"]],
        "reduct": ["P", "leq", "join", "meet", "top", "bottom"],
    }
    report = run_pipeline(parse_config(config))
    validation = report["steps"]["step5_investigate"]["validation"]
    assert validation["clusters"][0]["status"] == "deferred"
    assert report["steps"]["step2_reduct"]["applied"] is True


def test_pipeline_requires_clustering():
    config = {
        "universe": ["x1", "x2"],
        "relation": {"pairs": [["x1", "x1"], ["x2", "x2"]]},
        "granulation": "predecessor",
    }
    with pytest.raises(MsslabError):
        run_pipeline(parse_config(config))
