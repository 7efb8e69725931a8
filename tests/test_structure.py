import itertools
import json
import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from msslab import (
    BinaryRelation,
    DeltaPredicate,
    Granulation,
    MsslabError,
    StructureError,
    SumOperation,
    Universe,
    UniverseMismatchError,
    assemble,
    check_compatibility,
    classify,
    close_relation,
    predecessor_granulation,
    reduct,
    replay,
    validate_clustering,
    verify,
)
from msslab.config import parse_config
from msslab.oracles import StructureDescription, o_claim
from msslab.report import build_check_axioms
from msslab.search import enumerate_structures, SearchSpec
from msslab.structure import (
    ADMISSIBILITY_AXIOMS,
    AXIOM_ORDER,
    CLASSES,
    LAWS,
    THEOREMS,
    Classification,
    axiom_instance,
    check_axiom,
    evaluator,
)
from msslab.validation import COMPATIBILITY_MODES
from msslab.verdicts import Verdict, sweep, theorem

PASSING = ("holds", "vacuous")


def build(H, granulation, clustering, delta_name, delta_builtins, sum_op=None):
    return assemble(
        H,
        granulation=granulation,
        delta=delta_builtins[delta_name],
        sum=sum_op,
        kappa=clustering.kappa,
    )


def test_verify_example_with_proper_inclusion(H, granulation, clustering, delta_builtins):
    s = build(H, granulation, clustering, "E1", delta_builtins)
    verdicts = {v.axiom: v for v in verify(s)}
    for axiom in ("PT1", "PT2", "G1", "G2", "G3", "G4", "G5", "UL1", "UL2", "UL3", "TB"):
        assert verdicts[axiom].status == "holds", axiom
    assert verdicts["i-coh-2"].status == "holds"
    assert verdicts["strict-n-coh"].status == "holds"
    assert verdicts["i-coh"].status == "fails"
    assert verdicts["trans-1"].status == "fails" and verdicts["trans-1"].witnesses
    assert verdicts["clos1"].status == "unspecified"
    for axiom in (
        "admissible-representable",
        "admissible-granules-lower-definite",
        "admissible-pairs-in-definite",
    ):
        assert verdicts[axiom].status == "holds"


def test_set_theoretic_laws_are_reported_as_theorems(H, granulation, clustering, delta_builtins):
    s = build(H, granulation, clustering, "E1", delta_builtins)
    verdicts = {v.axiom: v for v in verify(s)}
    for axiom, reason in THEOREMS.items():
        v = verdicts[axiom]
        assert (v.status, v.mode, v.instances_checked, v.seed) == ("holds", "theorem", 0, None)
        assert v.witnesses == () and v.note == f"theorem: {reason}"
    swept = [v for v in verdicts.values() if v.mode in ("exhaustive", "sampled")]
    assert {v.axiom for v in swept}.isdisjoint(THEOREMS) and swept


def test_every_law_is_checked_as_its_row_says(
    repo_root, H, granulation, clustering, delta_builtins
):
    sum_op = SumOperation.granular(granulation)
    s = build(H, granulation, clustering, "E1", delta_builtins, sum_op)
    partial = s._replace(sum=SumOperation.extensional(H, {}))
    assert s.bound_slots() >= set().union(*(law.reads for law in LAWS.values()))
    for axiom in AXIOM_ORDER:
        law = LAWS[axiom]
        # Under a union sum the union-sum reason makes a theorem too; under a
        # partial sum only the row's own reason does.
        verdict = check_axiom(s, axiom)
        reasons = (law.theorem, law.union_theorem)
        assert (verdict.mode == "theorem") == (reasons != (None, None)), axiom
        verdict = check_axiom(partial, axiom)
        assert (verdict.mode == "theorem") == (law.theorem is not None), axiom
        if law.arity is None:
            continue
        assert law.theorem is None
        assert axiom_instance(s, axiom, (H.full,) * law.arity) in (True, False, None)
        for wrong in (law.arity - 1, law.arity + 1):
            with pytest.raises(TypeError):
                axiom_instance(s, axiom, (H.full,) * wrong)

    document = json.loads((repo_root / "examples/paper-example.json").read_text())
    axioms = build_check_axioms(parse_config(document), seed=None)["axioms"]
    structural = [v["axiom"] for v in axioms["structural"]]
    per_delta = [v["axiom"] for v in axioms["per_delta"]["E1"]]
    split = len(structural) - len(ADMISSIBILITY_AXIOMS)
    assert tuple(structural[split:]) == ADMISSIBILITY_AXIOMS
    assert tuple(structural[:split] + per_delta + structural[split:]) == AXIOM_ORDER


def test_reduct_without_parthood_defers_its_theorems(H, granulation, clustering, delta_builtins):
    s = build(H, granulation, clustering, "E1", delta_builtins)
    verdicts = {v.axiom: v for v in verify(reduct(s, s.bound_slots() - {"P"}))}
    for axiom in ("PT1", "PT2", "UL1", "UL2", "UL3", "TB"):
        assert verdicts[axiom].status == "deferred", axiom
        assert verdicts[axiom].note == "unbound slots: ['P']"
    for axiom in ("G1", "G5", "admissible-representable"):
        assert verdicts[axiom].mode == "theorem", axiom


def test_verify_example_with_plain_inclusion(H, granulation, clustering, delta_builtins):
    s = build(H, granulation, clustering, "E0", delta_builtins)
    verdicts = {v.axiom: v for v in verify(s, ["i-coh", "i-coh-2"])}
    assert verdicts["i-coh"].status == "holds"
    assert verdicts["i-coh-2"].status == "fails" and verdicts["i-coh-2"].witnesses


def test_every_failing_witness_replays(H, granulation, clustering, delta_builtins):
    s = build(
        H,
        granulation,
        clustering,
        "E1",
        delta_builtins,
        sum_op=SumOperation.granular(granulation),
    )
    for verdict in verify(s):
        assert replay(s, verdict), verdict


def test_assemble_with_deferred_slots_defers_checks(H, granulation):
    s = assemble(H, granulation=granulation)
    verdicts = {v.axiom: v for v in verify(s)}
    assert verdicts["i-coh"].status == "deferred"
    assert verdicts["lclu"].status == "deferred"
    assert verdicts["omega-id"].status == "deferred"
    assert verdicts["PT1"].status == "holds"


def test_assemble_rejects_mixed_universes(H, granulation):
    other = Universe(["y1", "y2"])
    with pytest.raises(UniverseMismatchError):
        assemble(other, granulation=granulation)
    with pytest.raises(UniverseMismatchError):
        assemble(H, granulation=granulation, delta=DeltaPredicate.builtin("E0", other))
    with pytest.raises(UniverseMismatchError, match="sum operation"):
        assemble(H, granulation=granulation, sum=SumOperation.total_union(other))


# Each constructor that takes subset masks, and whether it needs them nonempty.
MASK_CONSTRUCTORS = {
    "Granulation": (Granulation, True),
    "assemble": (lambda u, masks: assemble(u, kappa=masks), False),
}


@pytest.mark.parametrize("name", MASK_CONSTRUCTORS)
def test_constructors_take_masks_inside_the_universe(H, name):
    build, nonempty = MASK_CONSTRUCTORS[name]
    for masks in ([0b0001, -1], [0b10000], [0b0011, 1 << 9]):
        with pytest.raises(MsslabError, match="outside the universe"):
            build(H, masks)
    with pytest.raises(TypeError, match="expected a subset mask, got Subset"):
        build(H, [H.full])
    if nonempty:
        with pytest.raises(MsslabError, match="must be nonempty"):
            build(H, [0b0011, 0])
    else:
        assert build(H, [0b0011, 0]).kappa == (0b0011, 0)
    built = build(H, [0b0011, 0b1100, 0b1111])
    masks = built.kappa if name == "assemble" else tuple(built)
    assert masks == (0b0011, 0b1100, 0b1111)


def _pairs(rows):  # each row's last position is the value at the rest
    return {row[:-1]: row[-1] for row in rows}


# Each constructor that takes a table of masks, read as (a, b, c) rows, and
# the names of a row's three positions.
TABLE_CONSTRUCTORS = {
    "extensional": (DeltaPredicate.extensional_from_masks, ("a", "b", "c")),
    "nearness": (lambda u, rows: DeltaPredicate.from_nearness(u, _pairs(rows)), ("a", "b", "f")),
    "sum": (lambda u, rows: SumOperation.extensional(u, _pairs(rows)), ("a", "b", "sum")),
}
TABLE_POSITIONS = [(name, i) for name in TABLE_CONSTRUCTORS for i in range(3)]


@pytest.mark.parametrize(
    "name, position",
    TABLE_POSITIONS,
    ids=[f"{name}-{TABLE_CONSTRUCTORS[name][1][i]}" for name, i in TABLE_POSITIONS],
)
def test_table_constructors_take_masks_inside_the_universe(H, name, position):
    build, _ = TABLE_CONSTRUCTORS[name]
    # The union on every pair: a total nearness map, a sum table and a triple table.
    rows = [(a, b, a | b) for a in range(16) for b in range(16)]

    def with_mask(mask):  # the last row, (H, H, H), with one position replaced
        row = [0b1111] * 3
        row[position] = mask
        return rows[:-1] + [tuple(row)]

    for mask in (-1, 0b10000, 1 << 9):
        with pytest.raises(MsslabError, match="outside the universe"):
            build(H, with_mask(mask))
    with pytest.raises(TypeError, match="expected a subset mask, got Subset"):
        build(H, with_mask(H.full))
    assert build(H, rows).universe == H


@pytest.mark.parametrize("name", TABLE_CONSTRUCTORS)
def test_table_constructors_refuse_a_malformed_row(H, name):
    build, _ = TABLE_CONSTRUCTORS[name]
    rows = [(a, b, a | b) for a in range(16) for b in range(16)]
    # The last row, (H, H, H), one position short or long: a nearness or sum
    # entry keyed (H,) or (H, H, ∅), so a nearness table stays total.
    for row in ((0b1111, 0b1111), (0b1111, 0b1111, 0, 0b1111)):
        with pytest.raises(MsslabError, match=re.escape(f"table row {row!r} is not three masks")):
            build(H, rows[:-1] + [row])


def test_every_layer_reads_the_granulation_tables(repo_root):
    document = json.loads((repo_root / "examples/paper-example.json").read_text())
    cfg = parse_config(document)
    specs = {spec.name: spec for spec in cfg.deltas}
    e2, ue1 = cfg.structure(specs["E2"]), cfg.structure(specs["uE1"])
    L, U = cfg.base.granulation.lower_table, cfg.base.granulation.upper_table
    for s in (e2, ue1):
        assert s.granulation.lower_table is L and s.granulation.upper_table is U
        assert s.granulation is cfg.base.granulation
        assert s.sum.granulation.lower_table is L

    # Nothing has read l or u yet; each layer's reads land in the same tables.
    assert not L and not U
    H = cfg.universe
    a, b, c = H.from_mask(0b0011), H.from_mask(0b0110), H.from_mask(0b1100)
    e2.delta(a, b, c)
    assert set(L) == {0b0000, 0b0010} and not U
    ue1.delta(a, b, c)
    assert set(U) == {0b0111, 0b1111}
    e2.sum(H.from_mask(0b0001), H.from_mask(0b1000))
    assert 0b1001 in L
    (cluster,) = check_axiom(e2, "lclu").witnesses[0]
    assert cluster.mask in L


def test_degenerate_single_element_universe():
    u = Universe(["x1"])
    diagonal = close_relation(BinaryRelation(u), reflexive=True)
    s = assemble(u, granulation=predecessor_granulation(diagonal))
    verdicts = {v.axiom: v for v in verify(s)}
    for axiom in ("PT1", "PT2", "G1", "G2", "G3", "G4", "G5", "UL1", "UL2", "UL3", "TB"):
        assert verdicts[axiom].status == "holds"


def test_reduct_drops_and_defers(H, granulation, clustering, delta_builtins):
    s = build(H, granulation, clustering, "E1", delta_builtins)
    step2 = reduct(s, s.bound_slots() - {"delta", "kappa"})
    verdicts = {v.axiom: v for v in verify(step2)}
    assert verdicts["i-coh"].status == "deferred"
    assert verdicts["lclu"].status == "deferred"
    assert verdicts["UL1"].status == "holds"

    parthood_only = reduct(s, ["P"])
    verdicts = {v.axiom: v for v in verify(parthood_only)}
    assert verdicts["PT1"].status == "holds"
    assert verdicts["PT2"].status == "holds"
    assert all(
        v.status == "deferred"
        for v in verdicts.values()
        if v.axiom not in ("PT1", "PT2", "TB", "clos1")
    )
    # top/bottom are constants of the assembly, not dropped by keep=[P]
    assert verdicts["TB"].status == "deferred"


def test_reduct_identity_keeps_verdicts(H, granulation, clustering, delta_builtins):
    s = build(H, granulation, clustering, "E1", delta_builtins)
    same = reduct(s, s.bound_slots())
    left = [(v.axiom, v.status) for v in verify(s)]
    right = [(v.axiom, v.status) for v in verify(same)]
    assert left == right


def test_reduct_verdicts_match_full_structure(H, granulation, clustering, delta_builtins):
    s = build(H, granulation, clustering, "E1", delta_builtins)
    step2 = reduct(s, ["P", "leq", "join", "meet", "l", "u", "top", "bottom"])
    full = {v.axiom: v.status for v in verify(s)}
    for v in verify(step2):
        if v.status != "deferred" and v.axiom != "clos1":
            assert v.status == full[v.axiom], v.axiom


def test_replacing_the_granulation_binds_l_u_and_gamma(H, granulation):
    laws = ("UL1", "lclu", "admissible-representable")
    bare = assemble(H, kappa=[0b0101])
    assert [v.status for v in verify(bare, laws)] == ["deferred"] * 3
    bound = bare._replace(granulation=granulation)
    assert bound.bound_slots() >= {"l", "u", "gamma"}
    # UL1 and admissibility are theorems; lclu fails at {x1,x3}, whose l is {x1}.
    assert [v.status for v in verify(bound, laws)] == ["holds", "fails", "holds"]


GAMMA_LAWS = (
    "admissible-representable",
    "admissible-granules-lower-definite",
    "admissible-pairs-in-definite",
)
L_U_LAWS = ("UL1", "UL2", "UL3", "lclu")


# Reducts that keep some of l, u and gamma, and the laws each defers (l
# and u travel as a pair).
@pytest.mark.parametrize(
    "kept, deferred",
    [
        (("l", "u", "gamma"), ()),
        (("gamma",), L_U_LAWS + GAMMA_LAWS),
        (("l", "u"), GAMMA_LAWS),
        (("l", "gamma"), L_U_LAWS + GAMMA_LAWS),
        (("l",), L_U_LAWS + GAMMA_LAWS),
        ((), L_U_LAWS + GAMMA_LAWS),
    ],
    ids=["all", "gamma", "l-u", "l-gamma", "l", "none"],
)
def test_a_reduct_keeps_the_granulation_while_it_keeps_l_u_or_gamma(
    H, granulation, delta_builtins, kept, deferred
):
    full = assemble(
        H,
        granulation=granulation,
        delta=delta_builtins["E1"],
        sum=SumOperation.granular(granulation),
        kappa=[0b0101],
    )
    others = full.bound_slots() - {"l", "u", "gamma"}
    s = reduct(full, others | set(kept))
    # A reduct clears no value; bound_slots says what it binds.
    assert s.granulation is granulation
    assert {v.axiom for v in verify(s, AXIOM_ORDER) if v.status == "deferred"} == set(deferred)
    # A slot that a reduct dropped stays dropped when the granulation is set again.
    assert s._replace(granulation=granulation).bound_slots() == s.bound_slots()


@pytest.mark.parametrize("slot", ["delta", "sum", "kappa"])
def test_a_dropped_slot_stays_dropped_when_its_value_is_set_again(
    H, granulation, clustering, delta_builtins, slot
):
    s = build(H, granulation, clustering, "E1", delta_builtins, SumOperation.granular(granulation))
    value = {"delta": delta_builtins["E0"], "sum": SumOperation.total_union(H), "kappa": (0b0101,)}
    again = reduct(s, s.bound_slots() - {slot})._replace(**{slot: value[slot]})
    assert slot not in again.bound_slots()
    laws = [name for name, law in LAWS.items() if slot in law.reads]
    assert {v.status for v in verify(again, laws)} == {"deferred"}


def test_a_delta_or_sum_over_another_granulation_is_unbound():
    u = Universe(["x1", "x2", "x3", "x4"])
    first, third = Granulation(u, [0b0001]), Granulation(u, [0b0100])

    def over(g):
        delta = DeltaPredicate.builtin("uE1", u, g)
        return assemble(u, granulation=g, delta=delta, sum=SumOperation.granular(g))

    mixed = over(first)._replace(granulation=third)
    assert not {"delta", "sum"} & mixed.bound_slots()
    assert [v.status for v in verify(mixed, ["n-coh", "delta-sum1"])] == ["deferred"] * 2
    assert verify(mixed, ["n-coh"])[0].note == "unbound slots: ['delta']"
    # Built over the granulation it is given, the structure decides both.
    n_coh = check_axiom(over(third), "n-coh")
    assert (n_coh.status, n_coh.instances_checked) == ("fails", 1025)
    assert n_coh.witnesses[0] == (u.subset(["x3"]), u.empty, u.empty)
    # An equal granulation is the structure's own; with none, delta and the sum stay bound.
    for own in (Granulation(u, [0b0001]), None):
        assert over(first)._replace(granulation=own).bound_slots() >= {"delta", "sum"}
    assert assemble(u, delta=DeltaPredicate.builtin("E2", u, first)).bound_slots() >= {"delta"}


OTHER = Universe(["p", "q"])
# A value over another universe, and the slots it would bind.
FOREIGN_VALUES = {
    "delta": (lambda: DeltaPredicate.builtin("E0", OTHER), {"delta"}),
    "sum": (lambda: SumOperation.total_union(OTHER), {"sum"}),
    "granulation": (lambda: Granulation(OTHER, [0b01, 0b10]), {"l", "u", "gamma"}),
}


@pytest.mark.parametrize("field", FOREIGN_VALUES)
def test_a_value_over_another_universe_is_unbound(H, field):
    g = Granulation(H, [0b0011, 0b1100])
    own = {"delta": DeltaPredicate.builtin("E0", H), "sum": SumOperation.total_union(H)}
    s = assemble(H, granulation=g, kappa=[0b0011, 0b1100], **own)
    make, slots = FOREIGN_VALUES[field]
    with pytest.raises(UniverseMismatchError):
        assemble(H, **{field: make()})
    # Set with _replace, the value is held and unbound, and every check defers.
    mixed = s._replace(**{field: make()})
    assert s.bound_slots() - mixed.bound_slots() == slots
    laws = [name for name, law in LAWS.items() if law.reads & slots]
    for v in verify(mixed, laws):
        assert v.status == "deferred", v.axiom
        assert v.note == f"unbound slots: {sorted(LAWS[v.axiom].reads & slots)}"
        if LAWS[v.axiom].arity is not None:
            with pytest.raises(StructureError, match="reads unbound slots"):
                evaluator(mixed, v.axiom)
    assert (check_compatibility(mixed).status == "deferred") == (field == "delta")
    if field == "granulation":
        with pytest.raises(StructureError, match=re.escape("unbound slots ['l', 'u']")):
            validate_clustering(mixed)
    else:
        assert validate_clustering(mixed) == validate_clustering(s)
    # Over its own universe, E0 is checked on H's 256 pairs.
    i_coh = check_axiom(s, "i-coh")
    assert (i_coh.status, i_coh.instances_checked) == ("holds", 256)


# A κ that is not all ints inside H: a mask above it, a negative mask, the
# first mask past it, and a Subset.
FOREIGN_KAPPAS = {
    "above": lambda H: (0b110000, 0b0011),
    "negative": lambda H: (-1,),
    "past": lambda H: (1 << 4,),
    "subset": lambda H: (H.full,),
}


@pytest.mark.parametrize("name", FOREIGN_KAPPAS)
def test_a_kappa_outside_the_universe_is_unbound(H, name):
    g, e0 = Granulation(H, [0b0011, 0b1100]), DeltaPredicate.builtin("E0", H)
    s = assemble(H, granulation=g, delta=e0, kappa=[0b0011])
    mixed = s._replace(kappa=FOREIGN_KAPPAS[name](H))
    assert s.bound_slots() - mixed.bound_slots() == {"kappa"}
    checks = [check_axiom(mixed, "lclu")] + [check_compatibility(mixed, m) for m in COMPATIBILITY_MODES]
    for v in checks:
        assert (v.status, v.note) == ("deferred", "unbound slots: ['kappa']"), v.axiom
    with pytest.raises(StructureError, match=re.escape("reads unbound slots ['kappa']")):
        validate_clustering(mixed)
    assert check_axiom(mixed, "PT1") == check_axiom(s, "PT1") == theorem("PT1", THEOREMS["PT1"])
    assert StructureDescription.from_structure(mixed).clusters is None
    # Inside H, an empty and a repeated mask still bind: lclu reads a family of subsets.
    family = s._replace(kappa=(0, 0b0011, 0b0011))
    assert "kappa" in family.bound_slots()
    assert check_axiom(family, "lclu").status == "holds"


# A κ that is neither a tuple nor a list, iterable or not.
UNLISTED_KAPPAS = {"int": 5, "set": frozenset({1})}


@pytest.mark.parametrize("name", UNLISTED_KAPPAS)
def test_a_kappa_that_is_no_tuple_or_list_is_unbound(name):
    H2 = Universe(["x1", "x2"])
    s = assemble(H2, granulation=Granulation(H2, [0b01, 0b10]), kappa=[0b01])
    mixed = s._replace(kappa=UNLISTED_KAPPAS[name])
    assert s.bound_slots() - mixed.bound_slots() == {"kappa"}
    assert repr(mixed) == repr(s).replace("'kappa', ", "")
    statuses = {v.axiom: v.status for v in verify(mixed)}
    assert statuses == {v.axiom: v.status for v in verify(s)} | {"lclu": "deferred"}
    lclu = check_axiom(mixed, "lclu")
    assert (lclu.status, lclu.note) == ("deferred", "unbound slots: ['kappa']")
    with pytest.raises(StructureError, match=re.escape("reads unbound slots ['kappa']")):
        validate_clustering(mixed)
    # A list binds, as a clustering set with _replace is.
    assert "kappa" in s._replace(kappa=[1, 2]).bound_slots()


def test_the_oracle_describes_only_bound_slots(H, granulation, clustering, delta_builtins):
    s = build(H, granulation, clustering, "E1", delta_builtins, SumOperation.granular(granulation))
    desc = StructureDescription.from_structure(s)
    assert (desc.delta_kind, desc.sum_mode, len(desc.clusters)) == ("E1", "granular-sum", 3)
    cut = reduct(s, s.bound_slots() - {"delta", "sum", "kappa"})
    bare = StructureDescription.from_structure(cut)
    assert (bare.delta_kind, bare.sum_mode, bare.clusters) == (None, None, None)
    assert bare.granules == desc.granules
    for other in (None, Granulation(OTHER, [0b01, 0b10])):
        with pytest.raises(MsslabError, match="needs a granulation over the structure's universe"):
            StructureDescription.from_structure(s._replace(granulation=other))


def test_reduct_rejects_bad_slots(H, granulation):
    s = assemble(H, granulation=granulation)
    with pytest.raises(StructureError):
        reduct(s, ["universe"])
    with pytest.raises(StructureError):
        reduct(s, ["volume"])
    # A kept slot with no value is allowed and binds nothing until it has one.
    delta_only = reduct(s, ["delta"])
    assert delta_only.kept == {"delta"} and not delta_only.bound_slots()
    with pytest.raises(StructureError, match=re.escape("cannot keep dropped slots ['l']")):
        reduct(reduct(s, ["P"]), ["P", "l"])


def test_classify_example(H, granulation, clustering, delta_builtins):
    s = build(H, granulation, clustering, "E1", delta_builtins)
    flags = classify(s)
    assert flags.is_mss is False  # the battery cannot be satisfied in full
    assert flags.is_strict is False
    assert flags.is_rough is False
    assert flags.is_gmss is False
    lclu = check_axiom(s, "lclu")
    assert lclu.status == "fails"
    assert lclu.witnesses[0][0] == H.subset(["x1", "x3"])


def test_the_definitional_battery_has_no_model_on_one_element():
    # i-coh at (b, b) asks delta(b, b, b) and i-coh-2 at (b, b) its negation;
    # trans-1 at (a, b, b, b) and strict-n-coh at (a, b, b) each entail i-coh-2.
    laws = ("i-coh", "n-coh", "i-coh-2", "strict-n-coh", "trans-1")
    u = Universe(["x1"])
    cells = list(itertools.product(range(2), repeat=3))
    patterns = Counter()
    for bits in range(256):  # every extensional delta table on one element
        triples = [cell for k, cell in enumerate(cells) if bits >> k & 1]
        s = assemble(u, delta=DeltaPredicate.extensional_from_masks(u, triples))
        table = frozenset(tuple(frozenset(u.names(m)) for m in t) for t in triples)
        desc = StructureDescription(u.elements, (), "extensional", table)
        passing = frozenset(a for a in laws if not check_axiom(s, a).failed)
        assert passing == {a for a in laws if o_claim(desc, f"axiom:{a}")}, bits
        patterns[passing] += 1
    assert sorted(patterns.values(), reverse=True) == [168, 56, 12, 7, 5, 4, 4]
    for passing in patterns:
        if "i-coh" in passing:
            assert not passing & {"i-coh-2", "strict-n-coh", "trans-1"}, passing
        if passing & {"trans-1", "strict-n-coh"}:
            assert "i-coh-2" in passing, passing


def test_definite_clusters_close_under_lower(H, granulation, delta_builtins):
    definite = [
        a.mask for a in H.all_subsets() if granulation.lower(a) == a == granulation.upper(a)
    ]
    s = assemble(H, granulation=granulation, delta=delta_builtins["E1"], kappa=definite)
    assert check_axiom(s, "lclu").status == "holds"


def test_lclu_is_decided_on_kappa_past_the_sample_budget():
    # Six 4-point tolerance chains on 24 elements. l({x21}) and l({x22,x23})
    # are empty and no cluster; the least violation, {x21}, lies past the
    # first million masks, where a sampled sweep saw lclu vacuous.
    u = Universe([f"x{i + 1}" for i in range(24)])
    chains = [(f"x{4 * c + i + 1}", f"x{4 * c + i + 2}") for c in range(6) for i in range(3)]
    g = predecessor_granulation(close_relation(BinaryRelation(u, chains), reflexive=True, symmetric=True))
    clusters = [["x22", "x23"], ["x1", "x2"], ["x21"], ["x5", "x6", "x7"]]
    s = assemble(u, granulation=g, kappa=[u.subset(c).mask for c in clusters])
    v = check_axiom(s, "lclu")
    assert (v.status, v.mode, v.seed) == ("fails", "exhaustive", None)
    assert v.witnesses == ((u.subset(["x21"]),),) and v.instances_checked == (1 << 20) + 1
    assert replay(s, v)


def test_lclu_on_an_empty_kappa_is_vacuous(H, granulation):
    v = check_axiom(assemble(H, granulation=granulation, kappa=()), "lclu")
    assert (v.status, v.mode, v.instances_checked) == ("vacuous", "exhaustive", 16)


@st.composite
def granulated_clusterings(draw):
    """A granulation and a κ on up to six elements, κ in drawn order with
    repeats and the empty set allowed."""
    n = draw(st.integers(1, 6))
    u = Universe([f"x{i + 1}" for i in range(n)])
    granules = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=6))
    kappa = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    return assemble(u, granulation=Granulation(u, granules), kappa=kappa)


@settings(max_examples=200, deadline=None)
@given(granulated_clusterings())
def test_the_kappa_walk_decides_lclu_as_the_exhaustive_sweep(s):
    swept = sweep("lclu", s.universe, 1, evaluator(s, "lclu"), budget=math.inf)
    assert check_axiom(s, "lclu") == swept  # every field, witness and count included


def test_classify_without_granulation(H, granulation, delta_builtins):
    # l and u stay bound; only gamma is dropped
    full = assemble(H, granulation=granulation, delta=delta_builtins["E1"])
    s = reduct(full, full.bound_slots() - {"gamma"})
    assert classify(s).is_gmss is False


def test_classify_defers_rough_without_kappa(H, granulation, delta_builtins):
    s = assemble(H, granulation=granulation, delta=delta_builtins["E1"])
    # is_mss is already false, which dominates the deferred membership check
    assert classify(s).is_rough is False
    bare = assemble(H, granulation=granulation)
    flags = classify(bare)
    assert flags.is_mss is None and flags.is_rough is None


# Each law a class adds to the definitional battery, with that class;
# written out here, not read from CLASSES, so that a law dropped there shows.
EXTRA_LAWS = [
    ("strict-n-coh", "is_strict"),
    ("lclu", "is_rough"),
    *((law, "is_gmss") for law in ADMISSIBILITY_AXIOMS),
]


def made_up(fails=(), deferrals=(), missing=()):
    """A verdict on every law: it holds, unless it is named here."""
    status = {**dict.fromkeys(deferrals, "deferred"), **dict.fromkeys(fails, "fails")}
    return [Verdict(law, status.get(law, "holds")) for law in AXIOM_ORDER if law not in missing]


@pytest.fixture
def gamma_bound(H, granulation):
    return assemble(H, granulation=granulation)


@pytest.fixture
def gamma_unbound(gamma_bound):
    return reduct(gamma_bound, gamma_bound.bound_slots() - {"gamma"})


def test_classes_are_keyed_by_the_classification_fields():
    assert tuple(CLASSES) == Classification._fields


def test_a_class_holds_when_every_law_of_it_holds(gamma_bound, gamma_unbound):
    assert classify(gamma_bound, made_up()) == (True, True, True, True)
    # without gamma a structure is not a gmss, whatever its verdicts
    assert classify(gamma_unbound, made_up()) == (True, True, True, False)
    assert classify(gamma_unbound, made_up(missing=ADMISSIBILITY_AXIOMS)).is_gmss is False


@pytest.mark.parametrize("law, flag", EXTRA_LAWS)
def test_a_law_a_class_adds_changes_only_that_class(gamma_bound, law, flag):
    others = {name: True for name in Classification._fields}
    assert classify(gamma_bound, made_up(fails=[law]))._asdict() == {**others, flag: False}
    assert classify(gamma_bound, made_up(deferrals=[law]))._asdict() == {**others, flag: None}
    assert classify(gamma_bound, made_up(missing=[law]))._asdict() == {**others, flag: None}


@pytest.mark.parametrize("law", AXIOM_ORDER[:11] + ("i-coh", "n-coh", "i-coh-2", "trans-1"))
def test_a_battery_law_decides_every_class(gamma_bound, gamma_unbound, law):
    assert classify(gamma_bound, made_up(fails=[law])) == (False,) * 4
    assert classify(gamma_bound, made_up(deferrals=[law])) == (None,) * 4
    assert classify(gamma_bound, made_up(missing=[law])) == (None,) * 4
    assert classify(gamma_unbound, made_up(missing=[law])) == (None, None, None, False)


# The laws that no class names: clos1 has no definition, and the omega
# and delta-sum laws read the sum.
@pytest.mark.parametrize(
    "law",
    ["clos1", "omega-star-com", "omega-id", "omega-asso", "delta-sum1", "delta-sum2", "delta-sum3"],
)
def test_a_law_outside_every_class_changes_no_flag(gamma_bound, law):
    assert classify(gamma_bound, made_up(fails=[law])) == (True,) * 4
    assert classify(gamma_bound, made_up(deferrals=[law])) == (True,) * 4
    assert classify(gamma_bound, made_up(missing=[law])) == (True,) * 4


def test_a_failure_beats_a_deferral(gamma_bound):
    flags = classify(gamma_bound, made_up(fails=["lclu"], deferrals=["PT1"], missing=["TB"]))
    assert flags == (None, None, False, None)


def test_no_law_reading_an_unbound_slot_has_an_instance():
    s = assemble(Universe(["x1", "x2"]))
    empty = s.universe.subset([])
    for name, law in LAWS.items():
        if law.arity is None:
            continue
        message = f"{name} reads unbound slots {sorted(law.reads - s.bound_slots())}"
        with pytest.raises(StructureError, match=re.escape(message)):
            evaluator(s, name)
        with pytest.raises(StructureError, match=re.escape(message)):
            axiom_instance(s, name, (empty,) * law.arity)


def test_approximation_laws_hold_for_all_generated_structures():
    for s in enumerate_structures(SearchSpec(n=2, budget=100)):
        verdicts = verify(s, ["UL1", "UL2", "UL3", "TB"])
        assert all(v.status == "holds" for v in verdicts)


def test_sampled_mode_records_seed():
    u = Universe([f"x{i+1}" for i in range(5)])
    s = assemble(u, delta=DeltaPredicate.builtin("E0", u))
    sampled = check_axiom(s, "i-coh", seed=11, budget=500)
    assert sampled.mode == "sampled" and sampled.seed == 11
    assert sampled.status == "holds" and sampled.instances_checked == 500
    small = check_axiom(s, "i-coh", seed=11, budget=32 * 32)
    assert small.mode == "exhaustive" and small.seed is None
