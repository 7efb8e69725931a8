import itertools

import pytest
from hypothesis import given, settings, strategies as st

from msslab import (
    Clustering,
    Granulation,
    MsslabError,
    Universe,
    UniverseMismatchError,
    check_compatibility,
    check_proposition,
    lower_deficit,
    upper_deficit,
    validate_clustering,
    validity_grades,
)
from msslab.oracles import o_deficits, o_pre_valid_search, powerset
from msslab.pipeline import run_pipeline
from msslab.search import SearchSpec, enumerate_structures


def test_deficits_of_the_worked_example(H, granulation):
    c = H.subset(["x2", "x4"])
    expected = H.subset(["x1", "x2", "x3"])
    lo = lower_deficit(c, granulation)
    up = upper_deficit(c, granulation)
    assert lo.defined and lo.value == expected
    assert up.defined and up.value == expected


def test_deficits_of_definite_clusters_vanish(H, granulation):
    for c in (H.subset(["x4"]), H.subset(["x1", "x2", "x3"])):
        assert lower_deficit(c, granulation).value == H.empty
        assert upper_deficit(c, granulation).value == H.empty


def test_deficits_of_the_overlapping_cluster(H, granulation):
    c = H.subset(["x1", "x3"])
    expected = H.subset(["x1", "x2", "x3"])
    assert lower_deficit(c, granulation).value == expected
    assert upper_deficit(c, granulation).value == expected


def test_grades_examples(H, granulation):
    g = validity_grades(H.subset(["x4"]), granulation)
    assert g.lu_valid and g.l_pre_valid and g.u_pre_valid

    g = validity_grades(H.subset(["x2", "x4"]), granulation)
    assert not g.lu_valid and not g.l_pre_valid

    g = validity_grades(H.subset(["x1", "x2", "x3"]), granulation)
    assert g.l_pre_valid and g.u_pre_valid


def assert_grades_match_search(g: Granulation):
    """Both preimage grades equal the oracle's powerset search, per cluster."""
    granules = [frozenset(x.members()) for x in g]
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
    return Granulation(u, [u.from_mask(m) for m in masks])


@settings(max_examples=200, deadline=None)
@given(granulations())
def test_grades_match_search_on_random_granulations(g):
    assert_grades_match_search(g)


@settings(max_examples=200, deadline=None)
@given(granulations())
def test_deficits_match_oracle_on_random_granulations(g):
    granules = [frozenset(x.members()) for x in g]
    for c in g.universe.all_subsets():
        deficits = (lower_deficit(c, g), upper_deficit(c, g))
        named = tuple(frozenset(d.value.members()) if d.defined else None for d in deficits)
        assert named == o_deficits(frozenset(c.members()), granules), (g, c)


def test_lu_valid_forces_empty_deficits(H, granulation):
    for c in H.all_subsets():
        g = validity_grades(c, granulation)
        if g.lu_valid:
            assert lower_deficit(c, granulation).value == H.empty
            assert upper_deficit(c, granulation).value == H.empty


def test_deficits_always_defined_under_subset_policy():
    # The upper deficit is undefined exactly when a member of C lies in no granule.
    for s in enumerate_structures(SearchSpec(n=3, budget=512)):
        cover = s.universe.empty
        for g in s.granulation:
            cover = cover | g
        for c in s.universe.all_subsets():
            assert lower_deficit(c, s.granulation).defined
            assert upper_deficit(c, s.granulation).defined == (c <= cover)


def test_proposition_holds_for_every_subset(H, granulation):
    for c in H.all_subsets():
        v = check_proposition(c, granulation)
        assert (v.status, v.mode, v.instances_checked) == ("holds", "theorem", 0)
        assert v.note.startswith("theorem: l(C) lies inside C")


def test_validate_clustering_aggregates(H, granulation, clustering):
    report = validate_clustering(clustering, granulation)
    assert len(report.per_cluster) == 3
    assert not report.lu_valid and not report.l_pre_valid
    by_cluster = {r.cluster.members(): r for r in report.per_cluster}
    assert by_cluster[("x2", "x4")].lower_deficit.value == H.subset(["x1", "x2", "x3"])
    assert all(r.proposition.status == "holds" for r in report.per_cluster)


def test_validate_clustering_rejects_operators_of_another_universe(granulation):
    other = Universe(["x", "y", "z"])
    foreign = Clustering(other, [other.subset(["x", "y"])])
    with pytest.raises(UniverseMismatchError, match="clustering and operator"):
        validate_clustering(foreign, granulation)


def test_clustering_validation_errors(H):
    with pytest.raises(MsslabError):
        Clustering(H, [])
    with pytest.raises(MsslabError):
        Clustering(H, [H.empty])
    with pytest.raises(MsslabError):
        Clustering(H, [H.subset(["x1"]), H.subset(["x1"])])
    other = Universe(["y1"])
    with pytest.raises(MsslabError):
        Clustering(H, [other.full])


def test_compatibility_reproduces_the_example(H, clustering, delta_builtins):
    assert check_compatibility(clustering, delta_builtins["E0"]).status == "holds"
    assert check_compatibility(clustering, delta_builtins["E1"]).status == "holds"
    v = check_compatibility(clustering, delta_builtins["E2"])
    assert v.status == "fails"
    assert tuple(w.members() for w in v.witnesses[0]) == (
        ("x1", "x3"),
        ("x2", "x3"),
        ("x2", "x4"),
    )


def test_granulation_is_a_clustering_for_upper_inclusion(H, granulation, delta_builtins):
    as_clustering = Clustering(H, list(granulation))
    assert check_compatibility(as_clustering, delta_builtins["uE1"]).status == "holds"


def test_clue_singleton_rejects_plain_inclusion_here(H, clustering, delta_builtins):
    v = check_compatibility(clustering, delta_builtins["E0"], "clue-singleton")
    assert v.status == "fails"


def test_compatibility_invariant_under_cluster_reordering(H, clustering, delta_builtins):
    for perm in itertools.permutations(clustering.clusters):
        shuffled = Clustering(H, list(perm))
        for name in ("E0", "E1", "E2", "uE1"):
            assert (
                check_compatibility(shuffled, delta_builtins[name]).failed
                == check_compatibility(clustering, delta_builtins[name]).failed
            )


def test_compatibility_vacuous_for_single_cluster(H, delta_builtins):
    lonely = Clustering(H, [H.subset(["x1"])])
    assert check_compatibility(lonely, delta_builtins["E2"]).status == "vacuous"


def test_whole_universe_cluster_is_lu_valid(H, granulation):
    g = validity_grades(H.full, granulation)
    assert g.lu_valid


def test_unknown_compatibility_mode_rejected(clustering, delta_builtins):
    with pytest.raises(MsslabError, match="unknown compatibility mode 'nearest-first'"):
        check_compatibility(clustering, delta_builtins["E0"], "nearest-first")


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
    report = run_pipeline(config)
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
    report = run_pipeline(config)
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
    report = run_pipeline(config)
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
        run_pipeline(config)
