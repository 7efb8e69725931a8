import itertools

import pytest
from hypothesis import given, strategies as st

from msslab import (
    MsslabError,
    Subset,
    Universe,
    UniverseMismatchError,
    partial_difference,
)


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
