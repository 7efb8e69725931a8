import itertools

import pytest
from hypothesis import given, settings, strategies as st

from msslab import (
    BinaryRelation,
    Granulation,
    MsslabError,
    Universe,
    UniverseMismatchError,
    assemble,
    close_relation,
    is_definite,
    predecessor_granulation,
    verify,
)
from msslab.structure import ADMISSIBILITY_AXIOMS


def admissibility(g):
    return {v.axiom: v for v in verify(assemble(g.universe, granulation=g), ADMISSIBILITY_AXIOMS)}


def named(relation):
    return set(relation.named_pairs())


def test_closure_reproduces_the_tolerance(H, tolerance):
    diagonal = {(x, x) for x in H.elements}
    generated = {("x1", "x2"), ("x2", "x1"), ("x2", "x3"), ("x3", "x2")}
    assert named(tolerance) == diagonal | generated
    # reflexive and symmetric, but x1 ~ x2 ~ x3 without x1 ~ x3
    assert close_relation(tolerance, reflexive=True, symmetric=True) == tolerance
    assert close_relation(tolerance, transitive=True) != tolerance


def test_closure_of_empty_is_diagonal(H):
    closed = close_relation(BinaryRelation(H), reflexive=True)
    assert named(closed) == {(x, x) for x in H.elements}


def test_symmetric_transitive_closure_fixpoint():
    u = Universe(["x1", "x2"])
    closed = close_relation(
        BinaryRelation(u, [("x1", "x2")]), symmetric=True, transitive=True
    )
    assert named(closed) == {("x1", "x2"), ("x2", "x1"), ("x1", "x1"), ("x2", "x2")}


def named_indices(universe, pairs):
    names = universe.elements
    return {(names[i], names[j]) for i, j in pairs}


def reference_closure(pairs, n, reflexive, symmetric, transitive):
    """Add every missing pair a flag demands until nothing is missing."""
    pairs = set(pairs)
    while True:
        missing = set()
        if reflexive:
            missing |= {(i, i) for i in range(n)}
        if symmetric:
            missing |= {(j, i) for i, j in pairs}
        if transitive:
            missing |= {(i, k) for i, j in pairs for j2, k in pairs if j == j2}
        if missing <= pairs:
            return pairs
        pairs |= missing


def test_closure_matches_the_fixpoint_on_every_relation_of_three_elements():
    u = Universe(["x1", "x2", "x3"])
    cells = [(i, j) for i in range(3) for j in range(3)]
    for bits in range(1 << 9):
        pairs = {cell for k, cell in enumerate(cells) if bits >> k & 1}
        r = BinaryRelation.from_indices(u, pairs)
        for flags in itertools.product((False, True), repeat=3):
            closed = close_relation(r, reflexive=flags[0], symmetric=flags[1], transitive=flags[2])
            expected = named_indices(u, reference_closure(pairs, 3, *flags))
            assert named(closed) == expected, (pairs, flags)


def reference_granulation(universe, pairs):
    """Granules and notes of the predecessor granulation, read off a pair set."""
    n = universe.size
    granules, notes = [], []
    for x, name in enumerate(universe.elements):
        granule = sum(1 << y for y in range(n) if (y, x) in pairs)
        if granule:
            granules.append(granule)
        else:
            notes.append(f"empty neighborhood of {name} skipped")
    if any((x, x) not in pairs for x in range(n)):
        notes.append("relation is not reflexive; predecessor granules may miss their generators")
    kept = tuple(dict.fromkeys(granules))
    if len(kept) < len(granules):
        notes.append(f"collapsed {len(granules) - len(kept)} duplicate granule(s)")
    return kept, tuple(notes)


# Up to twelve elements, where "x10" sorts before "x2": named pairs are
# sorted by name, not by index.
relations_on_up_to_twelve = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * n),
    )
)


@settings(max_examples=100, deadline=None)
@given(relations_on_up_to_twelve)
def test_relation_columns_match_a_pair_set(relation):
    n, pairs = relation
    u = Universe([f"x{i + 1}" for i in range(n)])
    r = BinaryRelation.from_indices(u, pairs)
    names = u.elements
    assert r.named_pairs() == tuple(sorted((names[i], names[j]) for i, j in pairs))
    for flags in itertools.product((False, True), repeat=3):
        closed = close_relation(r, reflexive=flags[0], symmetric=flags[1], transitive=flags[2])
        reference = reference_closure(pairs, n, *flags)
        assert closed.named_pairs() == tuple(sorted(named_indices(u, reference))), flags
        g = predecessor_granulation(closed)
        assert (g.granules, g.notes) == reference_granulation(u, reference), flags


def test_predecessor_granules_match_the_worked_example(granulation, H):
    expected = [("x1", "x2"), ("x1", "x2", "x3"), ("x2", "x3"), ("x4",)]
    assert [H.names(g) for g in granulation] == expected


def test_diagonal_gives_singletons(H):
    diagonal = close_relation(BinaryRelation(H), reflexive=True)
    g = predecessor_granulation(diagonal)
    assert list(g) == [0b0001, 0b0010, 0b0100, 0b1000]


def test_full_relation_collapses_to_one_granule(H):
    full = BinaryRelation(H, [(a, b) for a in H.elements for b in H.elements])
    g = predecessor_granulation(full)
    assert list(g) == [H.full.mask]
    assert any("duplicate" in note for note in g.notes)


def test_non_reflexive_relation_warns():
    u = Universe(["x1", "x2"])
    r = BinaryRelation(u, [("x1", "x2")])
    g = predecessor_granulation(r)
    assert list(g) == [0b01]
    assert any("skipped" in note for note in g.notes)
    assert any(note.startswith("relation is not reflexive;") for note in g.notes)


def test_granules_must_be_nonempty(H):
    with pytest.raises(MsslabError):
        Granulation(H, [0])


def test_lower_upper_examples(H, granulation):
    a = H.subset(["x2", "x4"])
    assert granulation.lower(a) == H.subset(["x4"])
    assert granulation.upper(a) == H.full
    assert granulation.lower(H.empty) == H.empty
    assert granulation.upper(H.empty) == H.empty
    firm = H.subset(["x1", "x2", "x3"])
    assert granulation.lower(firm) == firm and granulation.upper(firm) == firm


def test_operators_reject_a_subset_of_another_universe(granulation):
    other = Universe(["x", "y", "z"])
    for op in (granulation.lower, granulation.upper):
        with pytest.raises(UniverseMismatchError):
            op(other.subset(["x", "y"]))


def test_is_definite_examples(H, granulation):
    assert is_definite(H.subset(["x4"]), granulation)
    assert is_definite(H.subset(["x1", "x2", "x3"]), granulation)
    assert not is_definite(H.subset(["x2", "x4"]), granulation)


def test_admissibility_of_the_example(granulation, H):
    verdicts = admissibility(granulation)
    assert all(v.status == "holds" and v.mode == "theorem" for v in verdicts.values())
    # The reason given for (iii): the union of all granules is definite.
    assert is_definite(H.full, granulation)


def test_admissibility_with_derived_operators_holds():
    u = Universe(["x1", "x2", "x3"])
    g = Granulation(u, [0b001, 0b011])
    assert all(v.status == "holds" for v in admissibility(g).values())


def test_partition_granulation_all_definite(H):
    diagonal = close_relation(BinaryRelation(H), reflexive=True)
    g = predecessor_granulation(diagonal)
    assert all(v.status == "holds" for v in admissibility(g).values())
    assert all(is_definite(a, g) for a in H.all_subsets())


# random granulations over a fixed 4-element universe
G4 = Universe(["x1", "x2", "x3", "x4"])
granulations = st.lists(
    st.integers(1, 15), min_size=0, max_size=6
).map(lambda ms: Granulation(G4, ms))


@settings(max_examples=60)
@given(granulations)
def test_approximation_laws_over_random_granulations(g):
    space = list(G4.all_subsets())
    for a in space:
        la, ua = g.lower(a), g.upper(a)
        assert la <= a
        assert g.lower(la) == la
        assert ua <= g.upper(ua)
        assert g.lower(ua) == ua
    for a, b in itertools.product(space, repeat=2):
        if a <= b:
            assert g.lower(a) <= g.lower(b)
            assert g.upper(a) <= g.upper(b)
        assert g.upper(a | b) == g.upper(a) | g.upper(b)
    assert g.lower(G4.empty) == G4.empty
    assert g.upper(G4.empty) == G4.empty


relation_pairs = st.sets(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=16
)


@settings(max_examples=60)
@given(relation_pairs)
def test_tolerance_granules_contain_their_generators(pairs):
    r = close_relation(
        BinaryRelation.from_indices(G4, pairs), reflexive=True, symmetric=True
    )
    g = predecessor_granulation(r)
    covered = 0
    for granule in g:
        covered |= granule
    assert covered == G4.full.mask
    closed = named(r)
    for x in G4.elements:
        neighborhood = G4.subset([y for y in G4.elements if (y, x) in closed])
        assert x in neighborhood
        assert neighborhood.mask in g.granules
