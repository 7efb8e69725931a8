import itertools

import pytest
from hypothesis import given, strategies as st

from msslab import (
    DeltaPredicate,
    MsslabError,
    Subset,
    SumOperation,
    Universe,
    UniverseMismatchError,
    assemble,
    is_definite,
    lower_deficit,
    partial_difference,
    upper_deficit,
    validity_grades,
)
from msslab.structure import axiom_instance


def masks(universe):
    return st.integers(0, (1 << universe.size) - 1).map(universe.from_mask)


H4 = Universe(["x1", "x2", "x3", "x4"])
subsets4 = masks(H4)


def test_universe_rejects_bad_names():
    with pytest.raises(MsslabError):
        Universe([])
    with pytest.raises(MsslabError):
        Universe(["a", "a"])
    with pytest.raises(MsslabError):
        Universe(["a", ""])


def test_enumeration_order_is_mask_ascending():
    u = Universe(["a", "b"])
    assert [s.mask for s in u.all_subsets()] == [0, 1, 2, 3]
    assert [s.members() for s in u.all_subsets()] == [(), ("a",), ("b",), ("a", "b")]


def test_inclusion_examples(H):
    x4 = H.subset(["x4"])
    assert x4 <= x4
    assert H.subset(["x1", "x3"]) <= H.subset(["x1", "x2", "x3"])
    assert not H.subset(["x1", "x2"]) <= H.subset(["x2", "x4"])


def test_universe_mismatch_is_structural_error(H):
    other = Universe(["y1"])
    with pytest.raises(UniverseMismatchError):
        H.empty <= other.empty
    with pytest.raises(UniverseMismatchError):
        H.empty | other.empty
    with pytest.raises(UniverseMismatchError):
        partial_difference(H.empty, other.empty)


# Every entry point that takes a Subset, called with the operand x.
SUBSET_ENTRY_POINTS = {
    "or": lambda H, G, x: H.full | x,
    "and": lambda H, G, x: H.full & x,
    "sub": lambda H, G, x: H.full - x,
    "le": lambda H, G, x: H.full <= x,
    "lt": lambda H, G, x: H.full < x,
    "partial_difference": lambda H, G, x: partial_difference(H.full, x),
    "lower": lambda H, G, x: G.lower(x),
    "upper": lambda H, G, x: G.upper(x),
    "is_definite": lambda H, G, x: is_definite(x, G),
    "lower_deficit": lambda H, G, x: lower_deficit(x, G),
    "upper_deficit": lambda H, G, x: upper_deficit(x, G),
    "validity_grades": lambda H, G, x: validity_grades(x, G),
    "delta": lambda H, G, x: DeltaPredicate.builtin("E0", H)(H.full, H.empty, x),
    "sum": lambda H, G, x: SumOperation.granular(G)(H.full, x),
    "axiom_instance": lambda H, G, x: axiom_instance(
        assemble(H, granulation=G, delta=DeltaPredicate.builtin("E0", H)), "i-coh", (H.full, x)
    ),
}


@pytest.mark.parametrize("entry", SUBSET_ENTRY_POINTS.values(), ids=SUBSET_ENTRY_POINTS)
@pytest.mark.parametrize(
    "operand, error",
    [(Universe(["y1", "y2", "y3", "y4"]).full, UniverseMismatchError), (5, TypeError)],
    ids=["subset-of-another-universe", "int"],
)
def test_every_subset_operand_is_checked_at_the_edge(H, granulation, entry, operand, error):
    with pytest.raises(error):
        entry(H, granulation, operand)


def test_partial_difference_examples(H):
    assert partial_difference(H.subset(["x2", "x4"]), H.subset(["x4"])) == H.subset(["x2"])
    assert partial_difference(H.subset(["x1"]), H.subset(["x2"])) is None
    assert partial_difference(H.full, H.empty) == H.full


def test_difference_policies(H):
    # One rule: defined iff b is included in a, equality included.
    a = H.subset(["x1"])
    assert partial_difference(a, a) == H.empty
    assert partial_difference(H.subset(["x1"]), H.subset(["x2"])) is None
    with pytest.raises(TypeError):
        partial_difference(a, a, "proper")


def test_join_meet_examples(H):
    assert H.subset(["x1"]) | H.subset(["x3"]) == H.subset(["x1", "x3"])
    assert H.subset(["x1", "x3"]) & H.subset(["x2", "x3"]) == H.subset(["x3"])
    assert H.subset(["x1"]) & H.subset(["x2"]) == H.empty


@given(subsets4, subsets4)
def test_difference_round_trip(a, b):
    d = partial_difference(a, b)
    assert (d is not None) == (b <= a)
    if d is not None:
        assert d | b == a
        assert d & b == H4.empty


# The PT and G theorem reasons (structure.THEOREMS) rest on these operators.
def test_parthood_reflexive_antisymmetric_exhaustive(H):
    space = list(H.all_subsets())
    for a in space:
        assert a <= a
    for a in space:
        for b in space:
            if a <= b and b <= a:
                assert a == b


def test_lattice_identities_exhaustive(H):
    space = list(H.all_subsets())
    for a in space:
        for b in space:
            assert a | b == b | a
            assert a & b == b & a
            assert (a | b) & a == a
            assert (a & b) | a == a
            below = a <= b
            assert below == ((a | b) == b) == ((a & b) == a)
    for a, b, c in itertools.product(space, repeat=3):
        assert (a & b) | c == (a | c) & (b | c)
        assert (a | b) & c == (a & c) | (b & c)


def test_subset_value_semantics(H):
    a = H.subset(["x1", "x3"])
    b = H.subset(["x3", "x1"])
    assert a == b and hash(a) == hash(b)
    assert a.members() == ("x1", "x3")
    assert "x3" in a and "x2" not in a
    with pytest.raises(AttributeError):
        a.mask = 0


def test_subset_rejects_foreign_bits(H):
    with pytest.raises(MsslabError):
        Subset(H, 1 << 4)
