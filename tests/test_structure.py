import json

import pytest

from msslab import (
    BinaryRelation,
    DeltaPredicate,
    StructureError,
    SumOperation,
    Universe,
    UniverseMismatchError,
    assemble,
    classify,
    close_relation,
    predecessor_granulation,
    reduct,
    replay,
    verify,
)
from msslab.config import parse_config
from msslab.report import build_check_axioms
from msslab.search import enumerate_structures, SearchSpec
from msslab.structure import (
    ADMISSIBILITY_AXIOMS,
    AXIOM_ORDER,
    LAWS,
    THEOREMS,
    axiom_instance,
    check_axiom,
)

PASSING = ("holds", "vacuous")


def build(H, granulation, clustering, delta_name, delta_builtins, sum_op=None):
    return assemble(
        H,
        granulation=granulation,
        delta=delta_builtins[delta_name],
        sum=sum_op,
        kappa=list(clustering),
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
    assert s.bound_slots() >= set().union(*(law.reads for law in LAWS.values()))
    for axiom in AXIOM_ORDER:
        law = LAWS[axiom]
        verdict = check_axiom(s, axiom)
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
    with pytest.raises(UniverseMismatchError):
        assemble(H, granulation=granulation, kappa=[other.full])


def test_every_layer_reads_the_granulation_tables(repo_root):
    document = json.loads((repo_root / "examples/paper-example.json").read_text())
    cfg = parse_config(document)
    specs = {spec.name: spec for spec in cfg.deltas}
    e2, ue1 = cfg.structure(specs["E2"]), cfg.structure(specs["uE1"])
    L, U = cfg.granulation.lower_table, cfg.granulation.upper_table
    for s in (e2, ue1):
        assert s.ops.lower_table is L and s.ops.upper_table is U
        assert s.ops is cfg.granulation and s.delta.granulation is cfg.granulation
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


def test_reduct_rejects_bad_slots(H, granulation):
    s = assemble(H, granulation=granulation)
    with pytest.raises(StructureError):
        reduct(s, ["universe"])
    with pytest.raises(StructureError):
        reduct(s, ["volume"])
    with pytest.raises(StructureError):
        reduct(s, ["delta"])  # unbound here


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


def test_definite_clusters_close_under_lower(H, granulation, delta_builtins):
    definite = [a for a in H.all_subsets() if granulation.lower(a) == a == granulation.upper(a)]
    s = assemble(H, granulation=granulation, delta=delta_builtins["E1"], kappa=definite)
    assert check_axiom(s, "lclu").status == "holds"


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
