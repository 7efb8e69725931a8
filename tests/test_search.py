import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from msslab import (
    BudgetError,
    DeltaPredicate,
    Granulation,
    MsslabError,
    SumOperation,
    Universe,
    assemble,
    search,
)
from msslab.delta import BUILTIN_DELTAS
from msslab.oracles import (
    ORACLE_AXIOMS,
    ORACLE_SUM_AXIOMS,
    StructureDescription,
    o_claim,
    powerset,
)
from msslab.search import SearchSpec, enumerate_structures, find_witness, oracle_check
from msslab.structure import ADMISSIBILITY_AXIOMS, axiom_instance, verify

ORACLE_COMPARABLE = (
    "PT1",
    "PT2",
    "G1",
    "G2",
    "G3",
    "G4",
    "G5",
    "UL1",
    "UL2",
    "UL3",
    "TB",
    "i-coh",
    "n-coh",
    "i-coh-2",
    "strict-n-coh",
    "trans-1",
)


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_structures(SearchSpec(n=1, budget=10))) == 2
    assert sum(1 for _ in enumerate_structures(SearchSpec(n=2, budget=100))) == 16
    assert sum(1 for _ in enumerate_structures(SearchSpec(n=3, budget=1000))) == 512


def test_granulation_family_count():
    spec = SearchSpec(n=2, family="granulations", budget=100)
    assert sum(1 for _ in enumerate_structures(spec)) == 8


def test_extensional_family_respects_budget():
    spec = SearchSpec(n=2, family="extensional-deltas", budget=25, seed=5)
    assert sum(1 for _ in enumerate_structures(spec)) == 25


def test_infeasible_exhaustive_request_reports_required_budget():
    with pytest.raises(BudgetError, match=r"needs 2\*\*16 structures"):
        list(enumerate_structures(SearchSpec(n=4, budget=1000)))


def test_refusing_a_huge_granulation_search_builds_no_huge_count():
    # 2**(2**27 - 1) alone takes 16 MB; the refusal compares exponents instead.
    spec = SearchSpec(n=27, family="granulations")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=r"needs 2\*\*134217727 structures"):
            next(enumerate_structures(spec))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("family, width", [("relations", 4), ("granulations", 3)])
def test_exhaustive_budget_boundary_is_exact(family, width):
    spec = SearchSpec(n=2, family=family, budget=1 << width)
    assert sum(1 for _ in enumerate_structures(spec)) == 1 << width
    with pytest.raises(BudgetError, match=rf"needs 2\*\*{width} structures"):
        next(enumerate_structures(SearchSpec(n=2, family=family, budget=(1 << width) - 1)))


@pytest.mark.parametrize("family", ["relations", "granulations"])
def test_sampled_searches_draw_budget_structures(family):
    spec = SearchSpec(n=5, family=family, budget=7, seed=11, exhaustive=False)
    drawn = [s.granulation.masks() for s in enumerate_structures(spec)]
    assert len(drawn) == 7
    assert drawn == [s.granulation.masks() for s in enumerate_structures(spec)]


def test_sampled_granulation_stream_is_pinned():
    # Each draw is one randrange(2**31); its set bit k is the granule of
    # mask k + 1, listed in ascending mask order.
    spec = SearchSpec(n=5, family="granulations", budget=20, seed=3, exhaustive=False)
    rng = random.Random(3)
    for s in enumerate_structures(spec):
        bits = rng.randrange(2**31)
        assert s.granulation.masks() == tuple(k + 1 for k in range(31) if bits >> k & 1)


def test_enumeration_is_deterministic():
    spec = SearchSpec(n=2, family="extensional-deltas", budget=10, seed=42)

    def snapshot():
        return [
            (s.granulation.masks(), tuple(s.delta.sorted_table()))
            for s in enumerate_structures(spec)
        ]

    assert snapshot() == snapshot()


def test_find_witness_meta_theorem_returns_none():
    spec = SearchSpec(
        n=2,
        family="extensional-deltas",
        required=("strict-n-coh",),
        forbidden=("i-coh-2",),
        budget=300,
        seed=9,
    )
    assert find_witness(spec) == (None, 300)


def test_find_witness_finds_inclusion_inner_coherence():
    spec = SearchSpec(n=2, delta="E0", required=("i-coh",), budget=100)
    witness, examined = find_witness(spec)
    assert witness is not None
    assert witness.delta.kind == "E0"
    assert examined >= 1


def test_find_witness_trans1_with_proper_inclusion_has_no_model():
    spec = SearchSpec(n=2, delta="E1", required=("trans-1",), budget=100)
    assert find_witness(spec) == (None, 16)


# (required, forbidden) profiles for the memo against the plain loop. Under
# E2, ("n-coh",)/("trans-1",) is met first by the 12th relation and
# ("strict-n-coh",)/("n-coh",) by the 11th, both after repeated granule sets;
# the theorem UL1 never fails, so forbidding it finds nothing.
MEMO_PROFILES = [
    ((), ("UL1",)),
    (("i-coh",), ()),
    (("i-coh",), ("n-coh",)),
    (("n-coh",), ("trans-1",)),
    (("strict-n-coh",), ("n-coh",)),
    (("strict-n-coh",), ("i-coh-2",)),
    (("n-coh", "i-coh-2"), ("i-coh", "trans-1")),
    (("trans-1",), ("i-coh",)),
]


@pytest.fixture(scope="module")
def plain_three_element_verdicts():
    """Every n=3 relation under each builtin δ, verified one by one with no memo."""
    laws = sorted({a for required, forbidden in MEMO_PROFILES for a in required + forbidden})
    return {
        name: [
            (s.granulation.masks(), {v.axiom: v for v in verify(s, laws)})
            for s in enumerate_structures(SearchSpec(n=3, delta=name, budget=512))
        ]
        for name in BUILTIN_DELTAS
    }


@pytest.mark.parametrize("name", BUILTIN_DELTAS)
@pytest.mark.parametrize("required, forbidden", MEMO_PROFILES)
def test_memoised_search_matches_the_plain_loop(
    plain_three_element_verdicts, name, required, forbidden
):
    rows = plain_three_element_verdicts[name]
    expected = next(
        (
            (masks, examined)
            for examined, (masks, v) in enumerate(rows, 1)
            if all(v[a].passed for a in required) and all(v[a].failed for a in forbidden)
        ),
        (None, len(rows)),
    )
    spec = SearchSpec(n=3, delta=name, required=required, forbidden=forbidden, budget=512)
    found, examined = find_witness(spec)
    assert (None if found is None else found.granulation.masks(), examined) == expected


def count_verify_calls(monkeypatch):
    calls = []

    def counting(s, axioms):
        calls.append(s)
        return verify(s, axioms)

    monkeypatch.setattr(search, "verify", counting)
    return calls


def test_each_granule_set_is_verified_once(monkeypatch):
    # the search-n3 benchmark spec: 512 relations, 64 granule sets
    calls = count_verify_calls(monkeypatch)
    spec = SearchSpec(
        n=3,
        delta="E2",
        required=("i-coh-2", "strict-n-coh", "n-coh"),
        forbidden=("UL1", "UL2"),
    )
    assert find_witness(spec) == (None, 512)
    assert len(calls) == 64


def test_extensional_tables_are_verified_every_time(monkeypatch):
    calls = count_verify_calls(monkeypatch)
    spec = SearchSpec(
        n=2,
        family="extensional-deltas",
        required=("strict-n-coh",),
        forbidden=("i-coh-2",),
        budget=40,
        seed=3,
    )
    assert find_witness(spec) == (None, 40)
    assert len(calls) == 40


def test_exhaustive_relation_search_covers_four_elements():
    spec = SearchSpec(
        n=4, delta="uE1", required=("i-coh-2",), forbidden=("trans-1",), budget=1 << 16
    )
    assert find_witness(spec) == (None, 1 << 16)
    with pytest.raises(BudgetError, match=r"needs 2\*\*25 structures"):
        next(enumerate_structures(SearchSpec(n=5, budget=1 << 25)))


def test_oracle_claims_on_the_example(H, granulation, delta_builtins):
    s = assemble(H, granulation=granulation, delta=delta_builtins["E1"])
    assert oracle_check(s, "l-pre-valid-closed-form")
    assert oracle_check(s, "u-pre-valid-closed-form")
    assert oracle_check(s, "upper-additivity")
    assert oracle_check(s, "proposition-def2")
    with pytest.raises(MsslabError):
        oracle_check(s, "perpetual-motion")


def test_oracle_compatibility_matches_optimized_path(H, granulation, clustering, delta_builtins):
    from msslab import check_compatibility

    for name in ("E0", "E1", "E2", "uE1"):
        s = assemble(
            H, granulation=granulation, delta=delta_builtins[name], kappa=list(clustering)
        )
        fast = not check_compatibility(clustering, delta_builtins[name]).failed
        slow = oracle_check(s, "compatibility:overlap-closer")
        assert fast == slow, name


def test_verify_matches_oracle_on_all_two_element_structures():
    for delta_name in ("E0", "E1", "E2", "uE1"):
        for s in enumerate_structures(SearchSpec(n=2, delta=delta_name, budget=100)):
            verdicts = {v.axiom: v for v in verify(s, list(ORACLE_COMPARABLE))}
            desc = StructureDescription.from_structure(s)
            for axiom in ORACLE_COMPARABLE:
                fast = verdicts[axiom].status in ("holds", "vacuous")
                assert fast == o_claim(desc, f"axiom:{axiom}"), (delta_name, axiom)


def assert_matches_oracle(s, axioms):
    """Fast verdicts equal the oracle's, and every failing witness replays."""
    desc = StructureDescription.from_structure(s)
    for v in verify(s, list(axioms)):
        fast = v.status in ("holds", "vacuous")
        assert fast == o_claim(desc, f"axiom:{v.axiom}"), (s, v)
        if v.failed:
            assert all(axiom_instance(s, v.axiom, w) is False for w in v.witnesses), v


def test_verify_matches_oracle_on_all_three_element_granulations(three_element_granulations):
    for g in three_element_granulations:
        for name in BUILTIN_DELTAS:
            d = DeltaPredicate.builtin(name, g.universe, g)
            assert_matches_oracle(assemble(g.universe, granulation=g, delta=d), ORACLE_COMPARABLE)


def test_admissibility_theorems_match_oracle_on_all_three_element_granulations(
    three_element_granulations,
):
    assert any(len(g) == 0 for g in three_element_granulations)
    for g in three_element_granulations:
        assert_matches_oracle(assemble(g.universe, granulation=g), ADMISSIBILITY_AXIOMS)


def _universe(n):
    return Universe([f"x{i + 1}" for i in range(n)])


@st.composite
def extensional_structures(draw):
    n = draw(st.integers(1, 3))
    u = _universe(n)
    top = 1 << n
    bits = draw(st.integers(0, (1 << top**3) - 1))
    triples = [t for k, t in enumerate(itertools.product(range(top), repeat=3)) if bits >> k & 1]
    granules = draw(st.lists(st.integers(1, top - 1), min_size=1, max_size=4))
    return assemble(
        u,
        granulation=Granulation(u, [u.from_mask(m) for m in granules]),
        delta=DeltaPredicate.extensional_from_masks(u, triples),
    )


@settings(max_examples=150, deadline=None)
@given(extensional_structures())
def test_verify_matches_oracle_on_random_extensional_tables(s):
    assert_matches_oracle(s, ORACLE_COMPARABLE)


@st.composite
def granular_structures(draw):
    n = draw(st.integers(1, 4))
    u = _universe(n)
    top = 1 << n
    granules = draw(st.lists(st.integers(1, top - 1), min_size=1, max_size=6))
    clusters = draw(st.lists(st.integers(1, top - 1), min_size=1, max_size=4, unique=True))
    g = Granulation(u, [u.from_mask(m) for m in granules])
    name = draw(st.sampled_from(BUILTIN_DELTAS))
    d = DeltaPredicate.builtin(name, u, g)
    return assemble(u, granulation=g, delta=d, kappa=[u.from_mask(m) for m in clusters])


@settings(max_examples=150, deadline=None)
@given(granular_structures())
def test_verify_matches_oracle_on_random_granulations(s):
    # The trans-1 oracle walks 16^4 tuples at n=4, about a second each;
    # trans-1 is compared exhaustively at n <= 3 above.
    axioms = [a for a in ORACLE_AXIOMS if a != "trans-1" or s.universe.size < 4]
    assert_matches_oracle(s, axioms)


@st.composite
def granule_lists(draw):
    """Any list of nonempty granules on up to four elements: empty,
    non-covering and with duplicates included."""
    n = draw(st.integers(1, 4))
    u = _universe(n)
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=6))
    return assemble(u, granulation=Granulation(u, [u.from_mask(m) for m in masks]))


@settings(max_examples=150, deadline=None)
@given(granule_lists())
def test_admissibility_theorems_match_oracle_on_random_granule_lists(s):
    assert_matches_oracle(s, ADMISSIBILITY_AXIOMS)


def test_sum_laws_match_oracle_on_all_small_granulations():
    # Every family of nonempty granules on up to three elements, covering
    # or not, under both granulation-independent and granular sums.
    for n in (1, 2, 3):
        u = _universe(n)
        candidates = range(1, 1 << n)
        for bits in range(1 << len(candidates)):
            g = Granulation(u, [u.from_mask(m) for k, m in enumerate(candidates) if bits >> k & 1])
            name = BUILTIN_DELTAS[bits % len(BUILTIN_DELTAS)]
            d = DeltaPredicate.builtin(name, u, g)
            for sum_op in (SumOperation.total_union(u), SumOperation.granular(g)):
                s = assemble(u, granulation=g, delta=d, sum=sum_op)
                assert_matches_oracle(s, ORACLE_SUM_AXIOMS)


@st.composite
def extensional_sums(draw):
    n = draw(st.integers(1, 3))
    u = _universe(n)
    top = 1 << n
    pairs = [(a, b) for a in range(top) for b in range(top) if draw(st.booleans())]
    as_union = draw(st.booleans())
    table = {(a, b): a | b if as_union else draw(st.integers(0, top - 1)) for a, b in pairs}
    if draw(st.booleans()):  # commutative: mirror the entries above the diagonal
        table = {(x, y): v for (a, b), v in table.items() if a <= b for x, y in ((a, b), (b, a))}
    g = Granulation(u, [u.from_mask(m) for m in draw(st.lists(st.integers(1, top - 1), max_size=4))])
    d = DeltaPredicate.builtin(
        draw(st.sampled_from(BUILTIN_DELTAS)), u, g
    )
    return assemble(u, granulation=g, delta=d, sum=SumOperation.extensional(u, table))


@settings(max_examples=150, deadline=None)
@given(extensional_sums())
def test_sum_laws_match_oracle_on_extensional_partial_sums(s):
    assert_matches_oracle(s, ORACLE_SUM_AXIOMS)


def test_oracle_powerset_covers_everything():
    space = powerset(("a", "b", "c"))
    assert len(space) == 8 and len(set(space)) == 8


# Each refusal, by position and by keyword.
BAD_SPECS = (
    ((2, "islands"), {}, "unknown structure family"),
    ((2,), {"family": "islands"}, "unknown structure family"),
    ((0,), {}, "universe size must be at least 1"),
    ((), {"n": -2}, "universe size must be at least 1"),
    ((2, "relations", "E0", (), (), 0), {}, "budget must be positive"),
    ((2,), {"budget": -1}, "budget must be positive"),
    ((7, "relations", "extensional"), {}, "extensional tables"),
    ((), {"n": 7, "family": "extensional-deltas"}, "extensional tables"),
)


def test_search_spec_validation():
    for args, kwargs, message in BAD_SPECS:
        with pytest.raises(MsslabError, match=message):
            SearchSpec(*args, **kwargs)
        with pytest.raises(MsslabError, match=message):
            SearchSpec(4)._replace(**dict(zip(SearchSpec._fields, args)), **kwargs)


def test_search_spec_positional_and_keyword_construction_agree():
    positional = SearchSpec(3, "granulations", "E1", ("i-coh",), ("trans-1",), 64, 5, 0.25, False)
    keyword = SearchSpec(
        n=3,
        family="granulations",
        delta="E1",
        required=("i-coh",),
        forbidden=("trans-1",),
        budget=64,
        seed=5,
        density=0.25,
        exhaustive=False,
    )
    assert positional == keyword and hash(positional) == hash(keyword)
    assert SearchSpec(4) == SearchSpec(n=4)


def test_oracle_needs_granulation(H, delta_builtins):
    s = assemble(H, delta=delta_builtins["E0"])
    with pytest.raises(MsslabError):
        oracle_check(s, "upper-additivity")
