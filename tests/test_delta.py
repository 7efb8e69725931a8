import itertools
import math
import operator
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from msslab import (
    ConfigurationError,
    DeltaPredicate,
    Granulation,
    MsslabError,
    StructureError,
    SumOperation,
    Universe,
    UniverseMismatchError,
    assemble,
)
from msslab.config import parse_config
from msslab.delta import BUILTIN_DELTAS
from msslab.kernels import INSTANCES, cube_verdict, table_verdict
from msslab.oracles import StructureDescription, o_sum_law_holds
from msslab.structure import LAWS, axiom_instance, check_axiom, evaluator, replay
from msslab.verdicts import sweep


def coherence(d, axiom):
    """Verdict of one coherence law on the structure binding only ``d``."""
    return check_axiom(assemble(d.universe, delta=d), axiom)


def sum_laws(d, s):
    """Verdicts of the six sum laws on the structure binding ``d`` and ``s``."""
    structure = assemble(s.universe, delta=d, sum=s)
    return [check_axiom(structure, axiom) for axiom, law in LAWS.items() if "sum" in law.reads]


def test_eval_delta_builtin_examples(H, granulation, delta_builtins):
    a, b, c = H.subset(["x1"]), H.subset(["x1", "x2"]), H.subset(["x1", "x2", "x3"])
    assert delta_builtins["E1"](a, b, c)
    e2 = delta_builtins["E2"]
    assert e2(H.subset(["x1", "x2", "x3"]), H.subset(["x1", "x2"]), H.subset(["x4"]))


subsets4 = st.integers(0, 15)


@given(subsets4, subsets4)
def test_reflexive_inclusion_is_never_proper(H, a_mask, b_mask):
    a, b = H.from_mask(a_mask), H.from_mask(b_mask)
    e0 = DeltaPredicate.builtin("E0", H)
    e1 = DeltaPredicate.builtin("E1", H)
    assert e0(a, b, b)
    assert not e1(a, b, b)


def test_builtin_requiring_operators_without_them(H):
    with pytest.raises(ConfigurationError):
        DeltaPredicate.builtin("E2", H)
    with pytest.raises(ConfigurationError):
        DeltaPredicate.builtin("uE1", H)
    with pytest.raises(ConfigurationError):
        DeltaPredicate.builtin("E9", H)


def test_builtin_rejects_operators_of_another_universe(granulation):
    other = Universe(["x", "y", "z", "w"])
    with pytest.raises(UniverseMismatchError):
        DeltaPredicate.builtin("E2", other, granulation)


def test_extensional_table_limit():
    big = Universe([f"e{i}" for i in range(7)])
    with pytest.raises(ConfigurationError):
        DeltaPredicate.extensional_from_masks(big, [])


def test_eval_sum_examples(H, granulation):
    total = SumOperation.total_union(H)
    grain = SumOperation.granular(granulation)
    assert total(H.subset(["x1"]), H.subset(["x3"])) == H.subset(["x1", "x3"])
    assert grain(H.subset(["x1"]), H.subset(["x3"])) is None
    r = grain(H.subset(["x1", "x2"]), H.subset(["x2", "x3"]))
    assert r == H.subset(["x1", "x2", "x3"])


def test_coherence_verdict_table(H, delta_builtins):
    e0, e1 = delta_builtins["E0"], delta_builtins["E1"]
    assert coherence(e0, "i-coh").status == "holds"
    v = coherence(e0, "i-coh-2")
    assert v.status == "fails"
    assert axiom_instance(assemble(H, delta=e0), "i-coh-2", v.witnesses[0]) is False
    assert coherence(e1, "i-coh-2").status == "holds"
    assert coherence(e1, "strict-n-coh").status == "holds"
    v = coherence(e1, "trans-1")
    assert v.status == "fails"
    assert axiom_instance(assemble(H, delta=e1), "trans-1", v.witnesses[0]) is False


def test_witnesses_are_lexicographic_minima(H, delta_builtins):
    v = coherence(delta_builtins["E0"], "i-coh-2")
    assert [w.mask for w in v.witnesses[0]] == [0, 0]
    v = coherence(delta_builtins["E1"], "trans-1")
    assert [w.mask for w in v.witnesses[0]] == [0, 1, 3, 0]


def test_sum_axioms_total_union(H, delta_builtins):
    verdicts = sum_laws(delta_builtins["E1"], SumOperation.total_union(H))
    assert {v.axiom: v.status for v in verdicts} == {
        "omega-star-com": "holds",
        "omega-id": "holds",
        "omega-asso": "holds",
        "delta-sum1": "holds",
        "delta-sum2": "holds",
        "delta-sum3": "holds",
    }


def test_sum_axioms_granular(H, granulation, delta_builtins):
    verdicts = sum_laws(delta_builtins["E0"], SumOperation.granular(granulation))
    assert all(v.status == "holds" for v in verdicts)


def test_sum_axioms_full_table(H):
    top = 1 << H.size
    full = DeltaPredicate.extensional_from_masks(
        H, itertools.product(range(top), repeat=3)
    )
    verdicts = sum_laws(full, SumOperation.total_union(H))
    assert all(v.status == "holds" for v in verdicts)


def test_sum_axioms_can_fail_on_extensional_tables(H):
    # a partial sum whose squared value moves the argument
    table = {(0, 0): 1}
    s = SumOperation.extensional(H, table)
    never = DeltaPredicate.extensional_from_masks(H, [(0, 2, 4)])
    verdicts = {v.axiom: v for v in sum_laws(never, s)}
    assert verdicts["delta-sum1"].status == "fails"
    assert verdicts["omega-id"].status == "fails"


def test_omega_asso_compares_by_conditional_equality():
    # 0 + (0 + 0) = 0 + 1 = 1 is defined while (0 + 0) + 0 = 1 + 0 is not:
    # conditional equality holds there, strong equality would not.
    u = Universe(["x1"])
    s = SumOperation.extensional(u, {(0, 0): 1, (0, 1): 1})
    verdicts = {v.axiom: v.status for v in sum_laws(None, s)}
    assert verdicts["omega-asso"] == "holds"
    assert verdicts["omega-star-com"] == "fails"


def test_the_instance_table_holds_exactly_the_swept_laws_on_delta_or_the_sum(H):
    on_delta_or_sum = {
        axiom
        for axiom, law in LAWS.items()
        if law.arity is not None and law.reads & {"delta", "sum"}
    }
    assert set(INSTANCES) == on_delta_or_sum
    for axiom, law in LAWS.items():
        if law.arity is None:
            with pytest.raises(StructureError, match="has no instance evaluator"):
                evaluator(assemble(H), axiom)


def test_def_compat_examples(H, delta_builtins):
    # E1 implies the comparison the union map induces (def1), not conversely
    # (def2): a = b = c compares but is no proper inclusion.
    induced = DeltaPredicate.from_nearness(H)
    space = list(H.all_subsets())
    for a, b, c in itertools.product(space, repeat=3):
        if delta_builtins["E1"](a, b, c):
            assert induced(a, b, c)
    assert induced(H.empty, H.empty, H.empty)
    assert not delta_builtins["E1"](H.empty, H.empty, H.empty)


def test_def0_with_union_map_matches_plain_inclusion(H, delta_builtins):
    induced = DeltaPredicate.from_nearness(H)
    space = list(H.all_subsets())
    for a, b, c in itertools.product(space, repeat=3):
        assert induced(a, b, c) == delta_builtins["E0"](a, b, c)


def test_eval_is_independent_of_granule_order(H, granulation, delta_builtins):
    reversed_g = Granulation(H, list(reversed(list(granulation))))
    e2_r = DeltaPredicate.builtin("E2", H, reversed_g)
    ue1_r = DeltaPredicate.builtin("uE1", H, reversed_g)
    space = list(H.all_subsets())
    rng = random.Random(3)
    for _ in range(300):
        a, b, c = (rng.choice(space) for _ in range(3))
        assert delta_builtins["E2"](a, b, c) == e2_r(a, b, c)
        assert delta_builtins["uE1"](a, b, c) == ue1_r(a, b, c)


def test_strict_coherence_of_proper_inclusion_all_sizes():
    for n in range(1, 5):
        u = Universe([f"x{i+1}" for i in range(n)])
        e1 = DeltaPredicate.builtin("E1", u)
        assert coherence(e1, "strict-n-coh").status in ("holds", "vacuous")
        assert coherence(e1, "i-coh-2").status == "holds"


def random_table(universe, rng, density=0.3):
    top = 1 << universe.size
    triples = [
        t for t in itertools.product(range(top), repeat=3) if rng.random() < density
    ]
    return DeltaPredicate.extensional_from_masks(universe, triples)


def test_meta_theorem_on_random_tables():
    for n in (1, 2, 3):
        u = Universe([f"x{i+1}" for i in range(n)])
        rng = random.Random(100 + n)
        for _ in range(120):
            d = random_table(u, rng)
            strict = coherence(d, "strict-n-coh")
            if strict.status in ("holds", "vacuous"):
                assert coherence(d, "i-coh-2").status in ("holds", "vacuous")


def test_unknown_axiom_and_mode_rejected(H, delta_builtins):
    with pytest.raises(Exception):
        coherence(delta_builtins["E0"], "coh-9")
    with pytest.raises(MsslabError, match="not decided on the delta cube"):
        cube_verdict("lclu", delta_builtins["E0"])


# Each law the cube walk reads lazily, under a builtin on the paper example
# with the granular sum: its status and the planes a decision reads.
LAZY_CASES = [
    # E0 relates every key to itself, so i-coh-2 fails at (∅, ∅) in plane 0.
    ("i-coh-2", "E0", "fails", [0]),
    # E1 never does: i-coh-2 holds, read off every plane in order.
    ("i-coh-2", "E1", "holds", list(range(16))),
    ("strict-n-coh", "E0", "fails", [0]),
    # The witness lies in plane {x1, x2, x3}, the eighth.
    ("trans-1", "E2", "fails", list(range(8))),
    # Under a union sum the first substantive plane decides a delta-sum
    # law; under E2, s(a, a) is undefined at {x1} and {x2}, the planes
    # delta-sum1 skips.
    ("delta-sum1", "E0", "holds", [0]),
    ("delta-sum2", "E0", "holds", [0]),
    ("delta-sum3", "E0", "holds", [0]),
    ("delta-sum1", "E2", "holds", [0, 3]),
    ("delta-sum2", "E2", "holds", [0, 1, 2, 3]),
]


@pytest.mark.parametrize(
    "axiom, name, status, planes", LAZY_CASES, ids=[f"{c[0]}-{c[1]}" for c in LAZY_CASES]
)
def test_a_lazy_law_reads_no_plane_past_the_deciding_one(
    H, granulation, monkeypatch, axiom, name, status, planes
):
    read = set()
    plane = DeltaPredicate.plane

    def recording(self, a):
        read.add(a)
        return plane(self, a)

    monkeypatch.setattr(DeltaPredicate, "plane", recording)
    d = DeltaPredicate.builtin(name, H, granulation)
    s = SumOperation.granular(granulation)
    v = cube_verdict(axiom, d, s.masked())
    assert (v.status, sorted(read)) == (status, planes)
    law_sum = s if "sum" in LAWS[axiom].reads else None
    assert v == swept(d, axiom, law_sum)


def test_nearness_table_must_be_total(H):
    with pytest.raises(ConfigurationError):
        DeltaPredicate.from_nearness(H, {(0, 0): 0})


def swept(d, axiom, s=None, **kwargs):
    """One delta or sum law swept tuple by tuple, over the whole space
    unless ``kwargs`` give a budget."""
    universe = (s if d is None else d).universe
    structure = assemble(universe, delta=d, sum=s)
    kwargs = {"budget": math.inf, **kwargs}
    return sweep(axiom, universe, LAWS[axiom].arity, evaluator(structure, axiom), **kwargs)


def test_trans1_kernel_matches_the_sweep_on_all_three_element_granulations(
    three_element_granulations,
):
    for g in three_element_granulations:
        for name in BUILTIN_DELTAS:
            d = DeltaPredicate.builtin(name, g.universe, g)
            assert cube_verdict("trans-1", d) == swept(d, "trans-1"), (name, g)


def table(n, triples):
    return DeltaPredicate.extensional_from_masks(Universe([f"x{i+1}" for i in range(n)]), triples)


@st.composite
def extensional_tables(draw):
    """Sparse tables, where trans-1 tends to hold or be vacuous, and their
    dense complements, where it tends to fail."""
    n = draw(st.integers(1, 3))
    top = 1 << n
    element = st.integers(0, top - 1)
    triples = draw(st.sets(st.tuples(element, element, element)))
    if draw(st.booleans()):
        triples = set(itertools.product(range(top), repeat=3)) - triples
    return table(n, triples)


@settings(max_examples=150, deadline=None)
@example(table(3, []))
@example(table(3, itertools.product(range(8), repeat=3)))
# b=1, c=2: row e=0 holds b but not c, so the witness's e is 3, not 0
@example(table(2, [(0, 0, 1), (0, 1, 2), (0, 3, 1), (0, 3, 2)]))
@given(extensional_tables())
def test_trans1_kernel_matches_the_sweep_on_extensional_tables(d):
    assert cube_verdict("trans-1", d) == swept(d, "trans-1")


def test_trans1_kernel_matches_the_sweep_on_the_paper_deltas(delta_builtins):
    for d in delta_builtins.values():
        assert cube_verdict("trans-1", d) == swept(d, "trans-1"), d


def five_element_structure(delta_name):
    u = Universe([f"x{i+1}" for i in range(5)])
    if delta_name == "self-nearness":
        singletons = [1 << i for i in range(5)]
        triples = [(x, x, y) for x in singletons for y in singletons if x != y]
        return assemble(u, delta=DeltaPredicate.extensional_from_masks(u, triples))
    return assemble(u, delta=DeltaPredicate.builtin(delta_name, u))


def test_trans1_is_exhaustive_at_five_elements():
    v = check_axiom(five_element_structure("E1"), "trans-1")
    assert (v.status, v.mode, v.seed, v.instances_checked) == ("fails", "exhaustive", None, 1121)
    assert [w.mask for w in v.witnesses[0]] == [0, 1, 3, 0]
    v = check_axiom(five_element_structure("self-nearness"), "trans-1")
    assert (v.status, v.mode, v.seed, v.instances_checked) == ("vacuous", "exhaustive", None, 32**4)


def test_trans1_kernel_runs_when_its_work_fits_the_budget():
    s = five_element_structure("E1")
    assert check_axiom(s, "trans-1", budget=32**2).mode == "exhaustive"
    sampled = check_axiom(s, "trans-1", budget=32**2 - 1, seed=3)
    assert (sampled.mode, sampled.seed) == ("sampled", 3)


def test_trans1_is_still_sampled_at_ten_elements():
    # 2^20 rows are past the default budget; under E0 the sample fails
    # within a few draws.
    u = Universe([f"x{i+1}" for i in range(10)])
    d = DeltaPredicate.builtin("E0", u)
    v = check_axiom(assemble(u, delta=d), "trans-1")
    assert v.mode == "sampled" and v.seed == 0
    assert v == sweep("trans-1", u, 4, INSTANCES["trans-1"](d.masked(), None))


# The laws the cube decides, every law that reads delta, and those besides
# trans-1, the one of arity 4, which the tests above cover.
CUBE_AXIOMS = tuple(a for a, law in LAWS.items() if "delta" in law.reads)
CUBE_AXIOMS_BELOW_ARITY4 = tuple(a for a in CUBE_AXIOMS if LAWS[a].arity < 4)


def assert_cube_matches_the_sweep(d, s, label=None):
    for axiom in CUBE_AXIOMS_BELOW_ARITY4:
        law_sum = s if "sum" in LAWS[axiom].reads else None
        mask_sum = law_sum.masked() if law_sum is not None else None
        assert cube_verdict(axiom, d, mask_sum) == swept(d, axiom, law_sum), (axiom, label)


def test_cube_matches_the_sweep_on_all_three_element_granulations(
    three_element_granulations,
):
    for g in three_element_granulations:
        sums = (SumOperation.total_union(g.universe), SumOperation.granular(g))
        for name in BUILTIN_DELTAS:
            d = DeltaPredicate.builtin(name, g.universe, g)
            for s in sums:
                assert_cube_matches_the_sweep(d, s, (name, s.mode, g))


@st.composite
def tables_with_partial_sums(draw):
    """An extensional table and a partial sum; only the sum's diagonal
    matters to the delta-sum laws, and it is drawn to be undefined, to
    keep c, or to move c elsewhere."""
    d = draw(extensional_tables())
    top = 1 << d.universe.size
    diagonal = draw(st.lists(st.none() | st.integers(0, top - 1), min_size=top, max_size=top))
    table = {(c, c): cc for c, cc in enumerate(diagonal) if cc is not None}
    return d, SumOperation.extensional(d.universe, table)


@settings(max_examples=150, deadline=None)
# s(0, 0) = 1 moves 0 off the row {0} of (0, 0): delta-sum3 fails at (0, 0, 0)
@example((table(1, [(0, 0, 0)]), SumOperation.extensional(Universe(["x1"]), {(0, 0): 1})))
# s(1, 1) = 0 moves 1 into the row {0, 1} of (0, 0): delta-sum3 holds
@example(
    (table(1, [(0, 0, 0), (0, 0, 1)]), SumOperation.extensional(Universe(["x1"]), {(1, 1): 0}))
)
@given(tables_with_partial_sums())
def test_cube_matches_the_sweep_on_extensional_tables_and_sums(case):
    assert_cube_matches_the_sweep(*case)


def test_cube_matches_the_sweep_on_the_paper_deltas(H, granulation, delta_builtins):
    for d in delta_builtins.values():
        for s in (SumOperation.total_union(H), SumOperation.granular(granulation)):
            assert_cube_matches_the_sweep(d, s, (d, s))


def test_cube_runs_exactly_when_its_work_fits_the_budget():
    u = Universe([f"x{i+1}" for i in range(5)])
    g = Granulation(u, [0b00011, 0b00110, 0b11000])
    s = SumOperation.granular(g)
    for name in BUILTIN_DELTAS:
        structure = assemble(u, granulation=g, delta=DeltaPredicate.builtin(name, u, g), sum=s)
        for axiom in CUBE_AXIOMS_BELOW_ARITY4:
            law_sum = s if "sum" in LAWS[axiom].reads else None
            exhaustive = check_axiom(structure, axiom, budget=32**2)
            assert exhaustive == swept(structure.delta, axiom, law_sum), (name, axiom)
            sampled = check_axiom(structure, axiom, budget=32**2 - 1, seed=3)
            assert sampled.mode == "sampled"
            assert sampled == swept(structure.delta, axiom, law_sum, budget=32**2 - 1, seed=3)


def n5_sampled_config():
    """The shape of the n5-sampled benchmark input: E1 and self-nearness
    on a two-component tolerance of five elements, with the granular sum."""
    names = [f"x{i+1}" for i in range(5)]
    self_nearness = [[[x], [x], [y]] for x in names for y in names if x != y]
    return parse_config(
        {
            "universe": names,
            "relation": {
                "generators": [["x1", "x2"], ["x2", "x3"], ["x4", "x5"]],
                "closure": ["reflexive", "symmetric"],
            },
            "granulation": "predecessor",
            "delta": [
                "E1",
                {"kind": "extensional", "name": "self-nearness", "triples": self_nearness},
            ],
            "sum": "granular-sum",
        }
    )


def test_each_predicate_fills_one_cube(monkeypatch):
    calls = {}
    masked = DeltaPredicate.masked

    def counting(self):
        d = masked(self)

        def counted(a, b, c):
            calls[self.kind] = calls.get(self.kind, 0) + 1
            return d(a, b, c)

        return counted

    monkeypatch.setattr(DeltaPredicate, "masked", counting)
    cfg = n5_sampled_config()
    for spec in cfg.deltas:
        s = cfg.structure(spec)
        verdicts = [check_axiom(s, axiom) for axiom in CUBE_AXIOMS]
        assert all(v.mode == "exhaustive" for v in verdicts)
    # E1's cube is built from its keys and the extensional one is read off
    # its table: no call of delta fills either.
    assert calls == {}


def called_plane(d, a):
    """Plane ``a`` of ``d`` from calls of ``d.masked()``."""
    m, top = d.masked(), 1 << d.universe.size
    rows = [sum(1 << c for c in range(top) if m(a, b, c)) for b in range(top)]
    cols = [sum(1 << c for c in range(top) if m(a, c, b)) for b in range(top)]
    return rows, cols


def assert_planes_match_the_calls(d, planes=None):
    for a in range(1 << d.universe.size) if planes is None else planes:
        assert d.plane(a) == called_plane(d, a), (d, a)


@settings(max_examples=100, deadline=None)
@example(table(3, itertools.product(range(8), repeat=3)))
@given(extensional_tables())
def test_extensional_planes_are_read_off_the_table(d):
    assert_planes_match_the_calls(d)


def test_self_nearness_planes_are_read_off_the_table():
    assert_planes_match_the_calls(five_element_structure("self-nearness").delta)


def test_keyed_planes_match_the_calls_on_all_three_element_granulations(
    three_element_granulations,
):
    for g in three_element_granulations:
        for name in BUILTIN_DELTAS:
            assert_planes_match_the_calls(DeltaPredicate.builtin(name, g.universe, g))


@st.composite
def nearness_tables(draw):
    """A def0 predicate over a total nearness table, where f(a, x) is any mask."""
    n = draw(st.integers(1, 3))
    top = 1 << n
    values = draw(st.lists(st.integers(0, top - 1), min_size=top * top, max_size=top * top))
    table = {(a, x): values[a * top + x] for a in range(top) for x in range(top)}
    return DeltaPredicate.from_nearness(Universe([f"x{i+1}" for i in range(n)]), table)


@settings(max_examples=100, deadline=None)
@example(DeltaPredicate.from_nearness(Universe(["x1", "x2", "x3"])))
@given(nearness_tables())
def test_keyed_planes_match_the_calls_on_nearness_tables(d):
    assert_planes_match_the_calls(d)


# The mask function and the planes must read R the same way, so an R that
# neither names is refused.
@pytest.mark.parametrize("relation", ["⊇", "⊂", None])
def test_a_keyed_predicate_under_an_unnamed_relation_is_refused(relation):
    u = Universe(["x1", "x2", "x3"])
    message = f"unknown relation {relation!r}; expected one of ⊆, ⊊, ⊋"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        DeltaPredicate(u, "custom", operator.or_, relation)


@st.composite
def granulated_deltas(draw):
    """A builtin predicate over any granule list on up to five elements:
    empty, non-covering and with duplicates included."""
    n = draw(st.integers(1, 5))
    u = Universe([f"x{i+1}" for i in range(n)])
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=6))
    g = Granulation(u, masks)
    return DeltaPredicate.builtin(draw(st.sampled_from(BUILTIN_DELTAS)), u, g)


@settings(max_examples=100, deadline=None)
@given(granulated_deltas())
def test_keyed_planes_match_the_calls_on_random_granulations(d):
    assert_planes_match_the_calls(d)


def test_keyed_planes_match_the_calls_on_sampled_planes_at_eight_elements():
    rng = random.Random(8)
    u = Universe([f"x{i+1}" for i in range(8)])
    # A chain of overlapping granules that leaves x8 uncovered.
    g = Granulation(u, (0b11, 0b110, 0b1100, 0b110000, 0b1100000))
    deltas = [DeltaPredicate.builtin(name, u, g) for name in BUILTIN_DELTAS]
    for d in deltas + [DeltaPredicate.from_nearness(u)]:
        assert_planes_match_the_calls(d, [0, 255, *rng.sample(range(1, 255), 2)])


OMEGA_LAWS = ("omega-star-com", "omega-id", "omega-asso")
DELTA_SUM_LAWS = ("delta-sum1", "delta-sum2", "delta-sum3")


def test_omega_laws_are_theorems_under_union_sums_on_all_three_element_granulations(
    three_element_granulations,
):
    for g in three_element_granulations:
        for s in (SumOperation.total_union(g.universe), SumOperation.granular(g)):
            structure = assemble(g.universe, granulation=g, sum=s)
            desc = StructureDescription.from_structure(structure)
            for axiom in OMEGA_LAWS:
                v = check_axiom(structure, axiom)
                assert (v.status, v.mode, v.instances_checked) == ("holds", "theorem", 0)
                assert v.note == f"theorem: {LAWS[axiom].union_theorem}"
                assert o_sum_law_holds(desc, axiom), (axiom, s.mode, g)


def test_omega_laws_are_swept_under_a_partial_sum(H):
    # A table that is the union where defined is still swept: only the mode
    # makes a sum a union sum.
    union_table = SumOperation.extensional(H, {(a, b): a | b for a in range(16) for b in range(16)})
    moving = SumOperation.extensional(H, {(0, 0): 1, (1, 0): 1})
    for s, expected in ((union_table, "holds"), (moving, "fails")):
        for axiom in OMEGA_LAWS:
            v = check_axiom(assemble(H, sum=s), axiom)
            assert v.mode == "exhaustive" and v == swept(None, axiom, s), axiom
        assert check_axiom(assemble(H, sum=s), "omega-id").status == expected


@st.composite
def partial_sum_tables(draw):
    """An extensional sum on up to three elements, its pairs listed in
    drawn order, not sorted."""
    n = draw(st.integers(1, 3))
    top = 1 << n
    element = st.integers(0, top - 1)
    pairs = draw(st.lists(st.tuples(element, element), unique=True, max_size=2 * top))
    values = draw(st.lists(element, min_size=len(pairs), max_size=len(pairs)))
    return SumOperation.extensional(Universe([f"x{i+1}" for i in range(n)]), dict(zip(pairs, values)))


U2 = Universe(["x1", "x2"])


@settings(max_examples=200, deadline=None)
# only (b, a) is listed: omega-star-com's least witness (a, b) is not
@example(SumOperation.extensional(U2, {(2, 1): 3}))
# two moved squares listed in descending order: omega-id's least witness is the later one
@example(SumOperation.extensional(U2, {(3, 3): 0, (1, 1): 0}))
# the table's first listed violation of omega-asso is (3, 2, 2); the least is (1, 2, 2)
@example(SumOperation.extensional(U2, {(2, 2): 2, (3, 2): 1, (1, 2): 3}))
@example(SumOperation.extensional(U2, {(a, b): a | b for a in range(4) for b in range(4)}))
@given(partial_sum_tables())
def test_table_walk_matches_the_sweep_on_partial_sums(s):
    structure = assemble(s.universe, sum=s)
    for axiom in OMEGA_LAWS:
        v = table_verdict(axiom, s)
        assert v == swept(None, axiom, s) == check_axiom(structure, axiom), axiom


def test_omega_laws_are_exact_on_a_sum_table_embedded_in_ten_elements():
    # Five pairs on x1..x3 in a universe of ten: omega-asso's least witness
    # is past the sample budget, where a sampled sweep reported it holding.
    one, two, three = ["x1"], ["x2"], ["x3"]
    cfg = parse_config(
        {
            "universe": [f"x{i + 1}" for i in range(10)],
            "sum": {
                "kind": "extensional-partial",
                "table": [
                    [one, two, one + two],
                    [two, one, two],
                    [one, one, two],
                    [three, three, three],
                    [two, two, one + two + three],
                ],
            },
        }
    )
    s = cfg.structure()
    expected = {
        "omega-star-com": ([one, two], 1_027),
        "omega-id": ([one], 2),
        "omega-asso": ([one, one, one], 1_049_602),
    }
    for axiom, (witness, count) in expected.items():
        v = check_axiom(s, axiom)
        assert (v.status, v.mode, v.instances_checked) == ("fails", "exhaustive", count), axiom
        assert [list(part.members()) for part in v.witnesses[0]] == witness, axiom
        assert replay(s, v), axiom


@st.composite
def tables_with_union_sums(draw):
    """An extensional table under the total union or under the granular sum
    of a drawn granulation, where few squares may be defined."""
    d = draw(extensional_tables())
    u = d.universe
    if draw(st.booleans()):
        return d, SumOperation.total_union(u)
    granules = draw(st.lists(st.integers(1, (1 << u.size) - 1), min_size=1, max_size=3))
    return d, SumOperation.granular(Granulation(u, granules))


def granular_sum(n, granules):
    u = Universe([f"x{i+1}" for i in range(n)])
    return SumOperation.granular(Granulation(u, granules))


@settings(max_examples=150, deadline=None)
# {x1} and {x2} are undefined squares under the granule {x1, x2}: all three vacuous
@example((table(2, [(1, 2, 1)]), granular_sum(2, [0b11])))
# only the last argument's square is defined: delta-sum3 holds, the others are vacuous
@example((table(2, [(1, 2, 3)]), granular_sum(2, [0b11])))
@example((table(3, []), SumOperation.total_union(Universe(["x1", "x2", "x3"]))))
@given(tables_with_union_sums())
def test_delta_sum_closed_form_matches_the_sweep_on_extensional_tables(case):
    d, s = case
    structure = assemble(d.universe, delta=d, sum=s)
    for axiom in DELTA_SUM_LAWS:
        assert check_axiom(structure, axiom) == swept(d, axiom, s), axiom
