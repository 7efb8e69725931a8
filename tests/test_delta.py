import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from msslab import (
    ConfigurationError,
    DeltaPredicate,
    Granulation,
    MsslabError,
    SumOperation,
    Universe,
    UniverseMismatchError,
    assemble,
)
from msslab.config import parse_config
from msslab.delta import (
    BUILTIN_DELTAS,
    CUBE_AXIOMS,
    coherence_evaluator,
    cube_verdict,
    trans1_verdict,
)
from msslab.structure import LAWS, axiom_instance, check_axiom, evaluator
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


def test_extensional_table_canonical_order(H):
    d = DeltaPredicate.extensional_from_masks(H, [(2, 0, 0), (1, 0, 0)])
    assert d.sorted_table() == ((1, 0, 0), (2, 0, 0))


def test_eval_sum_examples(H, granulation):
    total = SumOperation.total_union(H)
    grain = SumOperation.granular(granulation)
    r = total(H.subset(["x1"]), H.subset(["x3"]))
    assert r.defined and r.value == H.subset(["x1", "x3"])
    assert not grain(H.subset(["x1"]), H.subset(["x3"])).defined
    r = grain(H.subset(["x1", "x2"]), H.subset(["x2", "x3"]))
    assert r.defined and r.value == H.subset(["x1", "x2", "x3"])


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
        cube_verdict("i-coh", delta_builtins["E0"])


def test_nearness_table_must_be_total(H):
    with pytest.raises(ConfigurationError):
        DeltaPredicate.from_nearness(H, {(0, 0): 0})


def swept(d, axiom, s=None, **kwargs):
    """One delta law swept tuple by tuple, over the whole space unless
    ``kwargs`` give a budget."""
    structure = assemble(d.universe, delta=d, sum=s)
    kwargs = {"budget": math.inf, **kwargs}
    return sweep(axiom, d.universe, LAWS[axiom].arity, evaluator(structure, axiom), **kwargs)


def test_trans1_kernel_matches_the_sweep_on_all_three_element_granulations(
    three_element_granulations,
):
    for g in three_element_granulations:
        for name in BUILTIN_DELTAS:
            d = DeltaPredicate.builtin(name, g.universe, g)
            assert trans1_verdict(d) == swept(d, "trans-1"), (name, g)


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
    assert trans1_verdict(d) == swept(d, "trans-1")


def test_trans1_kernel_matches_the_sweep_on_the_paper_deltas(delta_builtins):
    for d in delta_builtins.values():
        assert trans1_verdict(d) == swept(d, "trans-1"), d


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
    assert check_axiom(s, "trans-1", budget=32**3).mode == "exhaustive"
    sampled = check_axiom(s, "trans-1", budget=32**3 - 1, seed=3)
    assert (sampled.mode, sampled.seed) == ("sampled", 3)


def test_trans1_is_still_sampled_at_seven_elements():
    u = Universe([f"x{i+1}" for i in range(7)])
    d = DeltaPredicate.builtin("E0", u)
    v = check_axiom(assemble(u, delta=d), "trans-1")
    assert v.mode == "sampled" and v.seed == 0
    assert v == sweep("trans-1", u, 4, coherence_evaluator(d.masked(), "trans-1"))


# The laws the cube decides besides trans-1, which the tests above cover.
ARITY3_CUBE_AXIOMS = tuple(a for a in CUBE_AXIOMS if a != "trans-1")


def assert_cube_matches_the_sweep(d, s, label=None):
    for axiom in ARITY3_CUBE_AXIOMS:
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
    g = Granulation(u, [u.from_mask(0b00011), u.from_mask(0b00110), u.from_mask(0b11000)])
    s = SumOperation.granular(g)
    for name in BUILTIN_DELTAS:
        structure = assemble(u, granulation=g, delta=DeltaPredicate.builtin(name, u, g), sum=s)
        for axiom in ARITY3_CUBE_AXIOMS:
            law_sum = s if "sum" in LAWS[axiom].reads else None
            exhaustive = check_axiom(structure, axiom, budget=32**3)
            assert exhaustive == swept(structure.delta, axiom, law_sum), (name, axiom)
            sampled = check_axiom(structure, axiom, budget=32**3 - 1, seed=3)
            assert sampled.mode == "sampled"
            assert sampled == swept(structure.delta, axiom, law_sum, budget=32**3 - 1, seed=3)


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
    assert calls == {"E1": 2**15, "extensional": 2**15}
