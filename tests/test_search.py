import itertools
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from msslab import (
    BinaryRelation,
    BudgetError,
    DeltaPredicate,
    Granulation,
    MsslabError,
    ParseError,
    SumOperation,
    Universe,
    assemble,
    predecessor_granulation,
    search,
)
from msslab.cli import main
from msslab.delta import BUILTIN_DELTAS
from msslab.oracles import (
    ORACLE_AXIOMS,
    StructureDescription,
    o_claim,
    powerset,
)
from msslab.search import SearchSpec, enumerate_structures, find_witness
from msslab.structure import ADMISSIBILITY_AXIOMS, LAWS, axiom_instance, verify
from msslab.verdicts import to_json

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
        with pytest.raises(BudgetError, match=re.escape("needs 2**(2**27 - 1) structures")):
            next(enumerate_structures(spec))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "refuse",
    [
        lambda: next(enumerate_structures(SearchSpec(n=10**6))),
        # UL1 is a required theorem, so the stream is the first thing drawn.
        lambda: find_witness(SearchSpec(n=10**6, required=("UL1",))),
    ],
    ids=["enumerate", "find-witness"],
)
def test_a_refused_search_allocates_nothing_first(refuse):
    # The universe of a million names alone takes about 200 MB.
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=re.escape("needs 2**1000000000000 structures")):
            refuse()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "family, needs",
    [
        ("relations", "relation search needs 2**1000000000000 structures (limit n <= 4, "),
        ("granulations", "granulation search needs 2**(2**1000000 - 1) structures ("),
    ],
)
def test_a_search_on_a_million_elements_exits_3(tmp_path, capsys, family, needs):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 10**6, "family": family}))
    assert main(["search", str(spec)]) == 3
    assert capsys.readouterr() == ("", f"msslab: budget exceeded: exhaustive {needs}budget 10000)\n")


@pytest.mark.parametrize("n", [15000, 100000])
def test_a_granulation_walk_past_the_int_to_str_limit_exits_3(tmp_path, capsys, n):
    # 2**n - 1 has more decimal digits than Python converts; the error writes it from n.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": n, "family": "granulations"}))
    assert main(["search", str(spec)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"msslab: budget exceeded: exhaustive granulation search needs 2**(2**{n} - 1) "
        "structures (budget 10000)\n"
    )


def test_a_sampled_granulation_search_is_refused_past_sixteen_elements():
    # A draw picks from 2**n - 1 candidate granules, one bit each.
    assert SearchSpec(16, "granulations", exhaustive=False).n == 16
    refused = r"^n: sampled granulations need n <= 16$"
    with pytest.raises(ParseError, match=refused):
        SearchSpec(17, "granulations", exhaustive=False)
    with pytest.raises(ParseError, match=refused):
        SearchSpec(16, "granulations", exhaustive=False)._replace(n=17)
    # An exhaustive walk is refused by its budget when it runs, not here.
    assert SearchSpec(17, "granulations").n == 17


def test_a_sampled_relation_search_builds_only_small_column_tables():
    # Each row of the relation's bits is spread through chunks of at most
    # eight bits, so a table holds at most 256 entries, not 2**n.
    spec = SearchSpec(n=14, delta="E0", required=("UL1",), budget=1, exhaustive=False)
    tracemalloc.start()
    try:
        found, examined = find_witness(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found is not None and examined == 1
    assert peak < 2 << 20


@pytest.mark.parametrize("family, width", [("relations", 4), ("granulations", 3)])
def test_exhaustive_budget_boundary_is_exact(family, width):
    spec = SearchSpec(n=2, family=family, budget=1 << width)
    assert sum(1 for _ in enumerate_structures(spec)) == 1 << width
    # A granulation walk's width, 2**n - 1, is written as such.
    written = width if family == "relations" else "(2**2 - 1)"
    with pytest.raises(BudgetError, match=re.escape(f"needs 2**{written} structures")):
        next(enumerate_structures(SearchSpec(n=2, family=family, budget=(1 << width) - 1)))


@pytest.mark.parametrize("family", ["relations", "granulations"])
def test_sampled_searches_draw_budget_structures(family):
    spec = SearchSpec(n=5, family=family, budget=7, seed=11, exhaustive=False)
    drawn = [s.granulation.granules for s in enumerate_structures(spec)]
    assert len(drawn) == 7
    assert drawn == [s.granulation.granules for s in enumerate_structures(spec)]


def test_sampled_granulation_stream_is_pinned():
    # Each draw is one randrange(2**31); its set bit k is the granule of
    # mask k + 1, listed in ascending mask order.
    spec = SearchSpec(n=5, family="granulations", budget=20, seed=3, exhaustive=False)
    rng = random.Random(3)
    for s in enumerate_structures(spec):
        bits = rng.randrange(2**31)
        assert s.granulation.granules == tuple(k + 1 for k in range(31) if bits >> k & 1)


def test_enumeration_is_deterministic():
    spec = SearchSpec(n=2, family="extensional-deltas", budget=10, seed=42)

    def snapshot():
        return [
            (s.granulation.granules, tuple(sorted(s.delta.table)))
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
# (("n-coh", "trans-1"), ("UL1",)) forbids a theorem beside laws that are
# swept; under E0, ("i-coh-2", "trans-1") puts a law that fails at its first
# instance ahead of a costly one.
MEMO_PROFILES = [
    ((), ("UL1",)),
    (("n-coh", "trans-1"), ("UL1",)),
    (("i-coh-2", "trans-1"), ("strict-n-coh",)),
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
            (s.granulation.granules, {v.axiom: v for v in verify(s, laws)})
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
    assert (None if found is None else found.granulation.granules, examined) == expected


def count_built_structures(monkeypatch):
    # search builds through its own name, bound when the model first loads
    built = []

    def counting(*args, **kwargs):
        built.append(assemble(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(search, "assemble", counting)
    return built


SEARCH_N3 = SearchSpec(
    n=3,
    delta="E2",
    required=("i-coh-2", "strict-n-coh", "n-coh"),
    forbidden=("UL1", "UL2"),
)


def test_each_granule_set_is_verified_once(monkeypatch):
    # 512 relations, 64 granule sets, each built and checked once
    built = count_built_structures(monkeypatch)
    assert find_witness(SearchSpec(n=3, delta="E2", required=("i-coh",), budget=512)) == (None, 512)
    assert len(built) == 64
    assert len({frozenset(s.granulation.granules) for s in built}) == 64
    # the search-n3 benchmark spec forbids the theorems UL1 and UL2: it
    # covers the same 512 relations and builds none
    built.clear()
    assert find_witness(SEARCH_N3) == (None, 512)
    assert built == []


def test_a_structure_is_checked_up_to_its_first_mismatch(monkeypatch):
    # i-coh-2 fails under E0 on every structure, so trans-1 is never checked
    built = count_built_structures(monkeypatch)
    checked = []
    check_axiom = search.check_axiom

    def counting(s, axiom, **kwargs):
        checked.append((len(built), axiom))
        return check_axiom(s, axiom, **kwargs)

    monkeypatch.setattr(search, "check_axiom", counting)
    spec = SearchSpec(n=3, delta="E0", required=("i-coh-2", "trans-1"), budget=512)
    assert find_witness(spec) == (None, 512)
    assert checked == [(k, "i-coh-2") for k in range(1, 65)]


def test_extensional_tables_are_verified_every_time(monkeypatch):
    built = count_built_structures(monkeypatch)
    spec = SearchSpec(
        n=2,
        family="extensional-deltas",
        required=("strict-n-coh",),
        forbidden=("i-coh-2",),
        budget=40,
        seed=3,
    )
    assert find_witness(spec) == (None, 40)
    assert len(built) == 40


def test_forbidding_a_theorem_reads_no_delta_plane(monkeypatch):
    read = []
    plane = DeltaPredicate.plane

    def counting(self, a):
        read.append(a)
        return plane(self, a)

    monkeypatch.setattr(DeltaPredicate, "plane", counting)
    # The forbidden theorems settle the search first, so no required cube
    # law is read.
    assert find_witness(SEARCH_N3) == (None, 512)
    assert read == []
    # Without the theorems the first relation is checked on its cube.
    assert find_witness(SEARCH_N3._replace(forbidden=()))[1] == 1
    assert read


def plain_search(spec):
    """The plain loop: every structure of the stream verified in full, in
    turn, with no memo; the first that meets the spec and its position."""
    laws = list(spec.required) + list(spec.forbidden)
    examined = 0
    for examined, s in enumerate(enumerate_structures(spec), 1):
        v = {verdict.axiom: verdict for verdict in verify(s, laws)}
        if all(v[a].passed for a in spec.required) and all(v[a].failed for a in spec.forbidden):
            return s, examined
    return None, examined


def search_answer(found, examined):
    if found is None:
        return None, examined
    table = tuple(sorted(found.delta.table)) if found.delta.kind == "extensional" else None
    return (found.granulation.granules, table), examined


# Searches whose streams draw from the seed or skip no granule set, found
# and not found: the seed is fixed, so each stream is one fixed sequence.
STREAM_SPECS = (
    SearchSpec(3, "granulations", "E2", ("n-coh",), ("trans-1",), 200),
    SearchSpec(3, "granulations", "uE1", ("i-coh",), ("i-coh-2",), 200),
    SearchSpec(3, "granulations", "E1", ("trans-1",), (), 200),
    SearchSpec(5, "granulations", "uE1", ("i-coh-2",), ("i-coh",), 50, 7, exhaustive=False),
    SearchSpec(2, "extensional-deltas", "E0", ("i-coh-2",), ("trans-1",), 300, density=0.1),
    SearchSpec(2, "extensional-deltas", "E0", ("strict-n-coh",), ("i-coh-2",), 40, 3),
    SearchSpec(3, "relations", "extensional", ("i-coh-2",), ("n-coh",), 40, density=0.05, exhaustive=False),
    SearchSpec(3, "relations", "extensional", ("n-coh",), ("i-coh",), 40, 7, 0.2, False),
    SearchSpec(2, "relations", "extensional", ("i-coh-2",), ("n-coh",), 16, 7, 0.1),
)


@pytest.mark.parametrize("spec", STREAM_SPECS)
def test_search_matches_the_plain_loop_on_every_stream(spec):
    assert search_answer(*find_witness(spec)) == search_answer(*plain_search(spec))


# (required, forbidden) profiles with a theorem among their laws, required
# or forbidden, alone or beside swept laws.
THEOREM_PROFILES = [
    (("UL1",), ()),
    (("TB", "G5"), ("i-coh",)),
    (("admissible-representable", "n-coh"), ()),
    ((), ("UL1",)),
    (("i-coh-2",), ("PT1", "UL3")),
    (("strict-n-coh",), ("admissible-pairs-in-definite",)),
]
# One spec of each family and stream, exhaustive and sampled; the laws are
# replaced by each profile's.
THEOREM_STREAMS = {
    "relations": SearchSpec(3, "relations", "E2", budget=512),
    "sampled-relations": SearchSpec(3, "relations", "uE1", budget=30, seed=5, exhaustive=False),
    "relation-tables": SearchSpec(2, "relations", "extensional", budget=16, seed=2, density=0.2),
    "granulations": SearchSpec(3, "granulations", "E1", budget=128),
    "sampled-granulations": SearchSpec(4, "granulations", "E0", budget=20, seed=1, exhaustive=False),
    "extensional-deltas": SearchSpec(2, "extensional-deltas", "E0", budget=25, seed=3, density=0.3),
}


@pytest.mark.parametrize("stream", THEOREM_STREAMS)
@pytest.mark.parametrize("required, forbidden", THEOREM_PROFILES)
def test_theorems_decided_once_match_the_plain_loop(monkeypatch, stream, required, forbidden):
    spec = THEOREM_STREAMS[stream]._replace(required=required, forbidden=forbidden)
    assert search_answer(*find_witness(spec)) == search_answer(*plain_search(spec))
    report = to_json(search.build_search(spec))
    monkeypatch.setattr(search, "find_witness", plain_search)
    assert report == to_json(search.build_search(spec))


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(5, "relations", "E0", ("UL1",), budget=1 << 30),
        SearchSpec(5, "relations", "E0", (), ("UL1",), budget=1 << 30),
        SearchSpec(3, "granulations", "E0", ("TB",), budget=127),
        SearchSpec(3, "granulations", "E0", (), ("TB",), budget=127),
    ],
)
def test_a_refused_walk_is_refused_whatever_its_theorems(spec):
    with pytest.raises(BudgetError) as plain:
        plain_search(spec)
    with pytest.raises(BudgetError) as hoisted:
        find_witness(spec)
    assert str(hoisted.value) == str(plain.value)


def test_sampled_relations_under_extensional_tables_draw_a_pinned_stream():
    # Each candidate draws its relation's bits, then its table, one
    # rng.random() per (a, b, c) in order.
    spec = SearchSpec(2, "relations", "extensional", budget=6, seed=4, density=0.3, exhaustive=False)
    rng = random.Random(4)
    for s in enumerate_structures(spec):
        bits = rng.randrange(16)
        columns = {sum(1 << y for y in range(2) if bits >> (2 * y + x) & 1) for x in range(2)}
        triples = tuple(t for t in itertools.product(range(4), repeat=3) if rng.random() < 0.3)
        assert (set(s.granulation.granules), tuple(sorted(s.delta.table))) == (columns - {0}, triples)


def test_exhaustive_relation_search_covers_four_elements():
    spec = SearchSpec(
        n=4, delta="uE1", required=("i-coh-2",), forbidden=("trans-1",), budget=1 << 16
    )
    assert find_witness(spec) == (None, 1 << 16)
    with pytest.raises(BudgetError, match=r"needs 2\*\*25 structures"):
        next(enumerate_structures(SearchSpec(n=5, budget=1 << 25)))


def predecessor_granules(n, bits):
    """The config path's granules of the relation with pair (i, j) at bit
    i*n + j: the predecessor granulation of ``BinaryRelation``."""
    pairs = [(i, j) for i in range(n) for j in range(n) if bits >> (i * n + j) & 1]
    return predecessor_granulation(BinaryRelation.from_indices(_universe(n), pairs)).granules


def test_relation_candidates_are_the_predecessor_granulations():
    # All 512 relations on three elements, in enumeration order: each
    # candidate's granules and key against the config path's.
    candidates = list(search._candidates(SearchSpec(n=3, budget=512)))
    assert len(candidates) == 512
    for bits, (key, build) in enumerate(candidates):
        granules = predecessor_granules(3, bits)
        assert build().granulation.granules == granules, bits
        assert key == frozenset(granules), bits


def test_a_key_is_none_where_no_two_candidates_can_share_one():
    # Each of the 128 granulation bit patterns on three elements picks a
    # distinct granule set, so an exhaustive walk keeps no memo.
    exhaustive = SearchSpec(n=3, family="granulations", budget=128)
    assert {key for key, _ in search._candidates(exhaustive)} == {None}
    sampled = exhaustive._replace(exhaustive=False, budget=20)
    for key, build in search._candidates(sampled):
        assert key == frozenset(build().granulation.granules)
    relations = SearchSpec(n=2, budget=16)
    assert all(isinstance(key, frozenset) for key, _ in search._candidates(relations))


# Rows of nine to sixteen bits are spread through two chunks each, and
# rows of 17 and 24 bits through three; at n = 9 and 17 the last chunk
# holds one bit.
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((1, 4, 5, 8, 9, 12, 16, 17, 24)).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * n) - 1))
    )
)
def test_column_masks_match_the_predecessor_granulation(relation):
    n, bits = relation
    masks = search._column_masks(n)(bits)
    assert Granulation(_universe(n), masks).granules == predecessor_granules(n, bits)


def test_column_masks_build_one_small_table_whatever_n_is():
    # One table of 256 spread values serves every chunk of every row; a
    # table per chunk would take tens of megabytes at n = 64.
    tracemalloc.start()
    try:
        search._column_masks(64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_oracle_claims_on_the_example(H, granulation, delta_builtins):
    s = assemble(H, granulation=granulation, delta=delta_builtins["E1"])
    desc = StructureDescription.from_structure(s)
    assert o_claim(desc, "l-pre-valid-closed-form")
    assert o_claim(desc, "u-pre-valid-closed-form")
    assert o_claim(desc, "upper-additivity")
    assert o_claim(desc, "proposition-def2")
    with pytest.raises(MsslabError):
        o_claim(desc, "perpetual-motion")


def test_oracle_compatibility_matches_optimized_path():
    from msslab.validation import COMPATIBILITY_MODES, check_compatibility

    # Every set of distinct nonempty clusters on three elements, under the
    # singletons, the whole universe and two overlapping granules.
    u = _universe(3)
    for granules in ([0b001, 0b010, 0b100], [0b111], [0b011, 0b110]):
        g = Granulation(u, granules)
        for name in BUILTIN_DELTAS:
            d = DeltaPredicate.builtin(name, u, g)
            for bits in range(1, 1 << 7):
                kappa = [m for m in range(1, 8) if bits >> m - 1 & 1]
                s = assemble(u, granulation=g, delta=d, kappa=kappa)
                desc = StructureDescription.from_structure(s)
                for mode in COMPATIBILITY_MODES:
                    v = check_compatibility(s, mode)
                    case = (granules, name, kappa, mode)
                    assert (not v.failed) == o_claim(desc, f"compatibility:{mode}"), case
                    if v.failed:
                        assert v.witnesses and not s.delta(*v.witnesses[0]), case


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
        granulation=Granulation(u, granules),
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
    g = Granulation(u, granules)
    name = draw(st.sampled_from(BUILTIN_DELTAS))
    d = DeltaPredicate.builtin(name, u, g)
    return assemble(u, granulation=g, delta=d, kappa=clusters)


@settings(max_examples=150, deadline=None)
@given(granular_structures())
def test_verify_matches_oracle_on_random_granulations(s):
    # The trans-1 oracle walks 16^4 tuples at n=4, about a second each;
    # trans-1 is compared exhaustively at n <= 3 above. These structures
    # bind no sum, so the laws that read it are left out.
    axioms = [
        a
        for a in ORACLE_AXIOMS
        if "sum" not in LAWS[a].reads and (a != "trans-1" or s.universe.size < 4)
    ]
    assert_matches_oracle(s, axioms)


@st.composite
def granule_lists(draw):
    """Any list of nonempty granules on up to four elements: empty,
    non-covering and with duplicates included."""
    n = draw(st.integers(1, 4))
    u = _universe(n)
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=6))
    return assemble(u, granulation=Granulation(u, masks))


@settings(max_examples=150, deadline=None)
@given(granule_lists())
def test_admissibility_theorems_match_oracle_on_random_granule_lists(s):
    assert_matches_oracle(s, ADMISSIBILITY_AXIOMS)


SUM_LAWS = [a for a in ORACLE_AXIOMS if "sum" in LAWS[a].reads]


def test_sum_laws_match_oracle_on_all_small_granulations():
    # Every family of nonempty granules on up to three elements, covering
    # or not, under both granulation-independent and granular sums.
    for n in (1, 2, 3):
        u = _universe(n)
        candidates = range(1, 1 << n)
        for bits in range(1 << len(candidates)):
            g = Granulation(u, [m for k, m in enumerate(candidates) if bits >> k & 1])
            name = BUILTIN_DELTAS[bits % len(BUILTIN_DELTAS)]
            d = DeltaPredicate.builtin(name, u, g)
            for sum_op in (SumOperation.total_union(u), SumOperation.granular(g)):
                s = assemble(u, granulation=g, delta=d, sum=sum_op)
                assert_matches_oracle(s, SUM_LAWS)


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
    g = Granulation(u, draw(st.lists(st.integers(1, top - 1), max_size=4)))
    d = DeltaPredicate.builtin(
        draw(st.sampled_from(BUILTIN_DELTAS)), u, g
    )
    return assemble(u, granulation=g, delta=d, sum=SumOperation.extensional(u, table))


@settings(max_examples=150, deadline=None)
@given(extensional_sums())
def test_sum_laws_match_oracle_on_extensional_partial_sums(s):
    assert_matches_oracle(s, SUM_LAWS)


def test_oracle_powerset_covers_everything():
    space = powerset(("a", "b", "c"))
    assert len(space) == 8 and len(set(space)) == 8


# Each refusal, by position and by keyword, names the refused field.
BAD_SPECS = (
    ((2, "islands"), {}, "family: expected one of"),
    ((2,), {"family": "islands"}, "family: expected one of"),
    ((0,), {}, "n: expected an integer of at least 1"),
    ((), {"n": -2}, "n: expected an integer of at least 1"),
    ((), {"n": True}, "n: expected an integer of at least 1"),
    ((2, "relations", "E0", (), (), 0), {}, "budget: expected a positive integer"),
    ((2,), {"budget": -1}, "budget: expected a positive integer"),
    ((3,), {"delta": "E9"}, "delta: expected one of E0, E1, E2, uE1, extensional"),
    ((3,), {"required": ("nope",)}, "required: expected a list of axiom names"),
    ((3,), {"required": ("omega-id",)}, r"required: omega-id reads \['sum'\], which a search"),
    ((3,), {"forbidden": ("lclu",)}, r"forbidden: lclu reads \['kappa'\], which a search"),
    ((3,), {"required": ("i-coh", "delta-sum3")}, r"required: delta-sum3 reads \['sum'\]"),
    ((3,), {"forbidden": ("clos1",)}, "forbidden: clos1 has no definition"),
    ((2,), {"required": ("n-coh",), "forbidden": ("n-coh",)}, "forbidden: n-coh is required too"),
    ((7, "relations", "extensional"), {}, "n: extensional tables"),
    ((), {"n": 7, "family": "extensional-deltas"}, "n: extensional tables"),
)


def test_search_spec_validation():
    for args, kwargs, message in BAD_SPECS:
        with pytest.raises(ParseError, match=message):
            SearchSpec(*args, **kwargs)
        with pytest.raises(ParseError, match=message):
            SearchSpec(4)._replace(**dict(zip(SearchSpec._fields, args)), **kwargs)
    # A law list may be a list; the spec keeps it as a tuple.
    listed = SearchSpec(n=3, required=["UL1"], forbidden=["i-coh"])
    assert listed == SearchSpec(n=3, required=("UL1",), forbidden=("i-coh",))
    assert hash(listed) == hash(SearchSpec(n=3, required=("UL1",), forbidden=("i-coh",)))
    assert listed.required == ("UL1",) and listed.forbidden == ("i-coh",)


def test_search_refuses_exactly_the_laws_no_searched_structure_can_decide():
    refused = set()
    for axiom in LAWS:
        for field in ("required", "forbidden"):
            try:
                SearchSpec(3, **{field: (axiom,)})
            except ParseError:
                refused.add((axiom, field))
    laws = {"clos1", "lclu", "omega-star-com", "omega-id", "omega-asso"}
    laws |= {"delta-sum1", "delta-sum2", "delta-sum3"}
    assert refused == {(axiom, field) for axiom in laws for field in ("required", "forbidden")}


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
        o_claim(StructureDescription.from_structure(s), "upper-additivity")
