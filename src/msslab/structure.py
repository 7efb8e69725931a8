"""Assembly, reducts, verification, and classification of soft clustering structures.

A structure bundles a parthood predicate, order, join/meet, approximation
operators, constants, a nearness predicate, a partial sum, and cluster
membership over one universe. Any slot may be left unbound; checks that
need an unbound slot report a deferred verdict instead of failing, and
one rule, ``MssStructure.bound_slots``, says which are bound. One value,
the granulation, binds l, u and gamma: l and u are the rough
approximation that gamma induces, so they are never held apart from it.

Parthood and order are inclusion, join and meet are union and
intersection, and the constants are H and the empty set; l and u are
always those of a granulation of nonempty granules. So the laws in
``THEOREMS`` cannot fail once their slots are bound, and they are
reported as theorems, with the reason, instead of being swept. The same
holds for the omega laws when the sum is a union sum.

``LAWS`` is the one registry of laws: for each, the slots it reads, the
arity of its instances and its theorem reasons. The laws that are not
theorems are swept on masks (``evaluator``), reading each slot's own
mask form: l and u are the granulation's mask tables, the ones its
E2/uE1 predicates and granular sum read too, and delta and the sum are
compiled once per predicate and per sum. lclu's instance is written in
``evaluator``; that of every law on delta or the sum lives in
``kernels.INSTANCES``. ``CLASSES`` lists the laws that define each
structure class, and ``classify`` reads its flags from their verdicts.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .delta import UNION_SUMS, DeltaPredicate, SumOperation
from .errors import StructureError, UniverseMismatchError
from .granules import Granulation
from .sets import Universe, check_mask, encode
from .verdicts import (
    DEFAULT_SAMPLE_BUDGET,
    Verdict,
    decided,
    deferred,
    sweep,
    theorem,
    unspecified,
)

SIGNATURE_SLOTS = (
    "P",
    "delta",
    "sum",
    "kappa",
    "leq",
    "join",
    "meet",
    "l",
    "u",
    "top",
    "bottom",
    "gamma",
)

# The slots whose interpretation is fixed: parthood and order are
# inclusion, join and meet are union and intersection, top is H and
# bottom is the empty set.
SET_SLOTS = frozenset({"P", "leq", "join", "meet", "top", "bottom"})
# The slots that one granulation binds: its approximations l and u, and
# itself as gamma.
GRANULATION_SLOTS = frozenset({"l", "u", "gamma"})


class Law(NamedTuple):
    """One row of ``LAWS``: the slots a law reads, the number of subsets
    its instances quantify over (None when it is not swept) and, for a law
    that follows from the interpretations, or only under a union sum
    (``delta.UNION_SUMS``), the reason (None otherwise)."""

    reads: frozenset[str]
    arity: Optional[int]
    theorem: Optional[str]
    union_theorem: Optional[str] = None

    @property
    def defined(self) -> bool:
        """Whether the law has a definition: instances to check or a proof."""
        return self.arity is not None or self.theorem is not None


# Every law, in report order: the laws of one structure, those of each
# delta candidate, then admissibility. The theorems follow from the
# interpretations above and from l and u being unions of nonempty granules
# of one granulation; a law with neither an arity nor a reason has no
# definition.
LAWS = {
    name: Law(frozenset(reads.split()), arity, *reasons)
    for name, reads, arity, *reasons in (
        ("PT1", "P", None, "inclusion is reflexive"),
        ("PT2", "P", None, "inclusion is antisymmetric"),
        ("G1", "join meet", None, "union and intersection are commutative"),
        ("G2", "join meet", None, "union and intersection absorb each other"),
        ("G3", "join meet", None, "union distributes over intersection"),
        ("G4", "join meet", None, "intersection distributes over union"),
        (
            "G5",
            "leq join meet",
            None,
            "A is included in B iff their union is B iff their intersection is A",
        ),
        (
            "UL1",
            "P l u",
            None,
            "l(A) is the union of the granules inside A, so it is inside A and its own l;"
            " each granule of u(A) is nonempty, so it meets u(A) and lies in u(u(A))",
        ),
        (
            "UL2",
            "P l u",
            None,
            "a granule inside or meeting A is inside or meets every superset of A",
        ),
        (
            "UL3",
            "P l u top bottom",
            None,
            "no nonempty granule is inside or meets the empty set, and l(H), u(H) lie in H",
        ),
        ("TB", "P top bottom", None, "every subset lies between the empty set and H"),
        ("clos1", "", None, None),
        ("lclu", "kappa l", 1, None),
        (
            "omega-star-com",
            "sum",
            2,
            None,
            "a union sum is defined on (A, B) exactly when on (B, A), and is their union there",
        ),
        ("omega-id", "sum", 1, None, "a union sum of A with itself is A wherever it is defined"),
        (
            "omega-asso",
            "sum",
            3,
            None,
            "A + (B + C) and (A + B) + C are both the union of A, B and C wherever both are defined",
        ),
        ("i-coh", "delta", 2, None),
        ("n-coh", "delta", 3, None),
        ("i-coh-2", "delta", 2, None),
        ("strict-n-coh", "delta", 3, None),
        ("trans-1", "delta", 4, None),
        ("delta-sum1", "sum delta", 3, None),
        ("delta-sum2", "sum delta", 3, None),
        ("delta-sum3", "sum delta", 3, None),
        (
            "admissible-representable",
            "gamma l u",
            None,
            "l(A) and u(A) are unions of granules by definition",
        ),
        (
            "admissible-granules-lower-definite",
            "gamma l u",
            None,
            "each granule is inside itself, so it is its own l",
        ),
        (
            "admissible-pairs-in-definite",
            "gamma l u",
            None,
            "the union of all granules is definite and contains every pair of granules",
        ),
    )
}

AXIOM_ORDER = tuple(LAWS)
THEOREMS = {name: law.theorem for name, law in LAWS.items() if law.theorem is not None}
ADMISSIBILITY_AXIOMS = tuple(name for name, law in LAWS.items() if "gamma" in law.reads)


class MssStructure(NamedTuple):
    """A structure over one universe. ``kept`` lists the slots that no
    reduct has dropped, all twelve by default. A kept slot is bound while
    it has an interpretation here: the set slots always; kappa while it is
    set and its masks are ints of this universe; l, u and gamma while
    ``granulation`` is set over this universe, l and u only as a pair;
    delta and the sum while set over this universe and, when they and the
    structure both have a granulation, over the same one. A value over
    another carrier is unbound, however set."""

    universe: Universe
    kept: frozenset[str] = frozenset(SIGNATURE_SLOTS)
    granulation: Optional[Granulation] = None
    delta: Optional[DeltaPredicate] = None
    sum: Optional[SumOperation] = None
    kappa: Optional[tuple[int, ...]] = None

    def bound_slots(self) -> frozenset[str]:
        k, n = self.kappa, self.universe.size
        unset = {"kappa"} if k is None or not all(isinstance(c, int) and not c >> n for c in k) else set()
        if (g := self.granulation) is None or g.universe != self.universe:
            unset |= GRANULATION_SLOTS
        for slot, v in (("delta", self.delta), ("sum", self.sum)):
            if v is None or v.universe != self.universe or g is not None and v.granulation not in (None, g):
                unset.add(slot)
        if not {"l", "u"} <= self.kept:
            unset |= {"l", "u"}
        return self.kept - unset

    def __repr__(self):
        return f"MssStructure(|H|={self.universe.size}, slots={sorted(self.bound_slots())})"


def assemble(
    universe: Universe,
    *,
    granulation: Optional[Granulation] = None,
    delta: Optional[DeltaPredicate] = None,
    sum: Optional[SumOperation] = None,
    kappa: Optional[Iterable[int]] = None,
) -> MssStructure:
    """Build a structure over one universe; delta, sum and kappa may wait.

    Every slot of ``SET_SLOTS`` is bound to its set interpretation. A
    granulation binds l and u (its approximations) together with gamma.
    ``kappa`` lists the cluster masks.
    """
    if granulation is not None and granulation.universe != universe:
        raise UniverseMismatchError("granulation universe differs from the carrier")

    if delta is not None and delta.universe != universe:
        raise UniverseMismatchError("delta predicate universe differs from the carrier")
    if sum is not None and sum.universe != universe:
        raise UniverseMismatchError("sum operation universe differs from the carrier")

    clusters = None
    if kappa is not None:
        clusters = tuple(check_mask(universe, c) for c in kappa)

    return MssStructure(
        universe=universe, granulation=granulation, delta=delta, sum=sum, kappa=clusters
    )


def reduct(s: MssStructure, keep: Iterable[str]) -> MssStructure:
    """Same carrier and values, keeping only the named slots.

    It refuses a name outside the signature (the carrier is always kept
    and is not one) and a slot that an earlier reduct dropped. A kept
    slot with no value yet, such as delta, is bound once it has one. The
    result narrows ``s.kept`` and clears no value, so read
    ``bound_slots``, not a value, for what it binds; l and u travel as a
    pair, so keeping one without the other binds neither.
    """
    keep = set(keep)
    unknown = keep - set(SIGNATURE_SLOTS)
    if unknown:
        raise StructureError(f"unknown signature slots {sorted(unknown)}")
    dropped = keep - s.kept
    if dropped:
        raise StructureError(f"cannot keep dropped slots {sorted(dropped)}")
    return s._replace(kept=frozenset(keep))


def evaluator(s: MssStructure, axiom: str) -> Callable[..., Optional[bool]]:
    """The instance of one swept law over ``s``, taking masks.

    lclu's instance reads the granulation's l table and κ and is written
    here. Every other law's is ``kernels.INSTANCES[axiom]``, built on the
    predicate's and the sum's ``masked()`` forms (None for a slot the law
    does not read; the sum returns None where undefined). A law that reads
    an unbound slot has no instance.
    """
    law = LAWS.get(axiom)
    if law is None or law.arity is None:
        raise StructureError(f"axiom {axiom!r} has no instance evaluator")
    unbound = law.reads - s.bound_slots()
    if unbound:
        raise StructureError(f"{axiom} reads unbound slots {sorted(unbound)}")
    if axiom == "lclu":
        L, kappa = s.granulation.lower_table, frozenset(s.kappa)
        return lambda a: L[a] in kappa if a in kappa else None
    from .kernels import INSTANCES  # only a law on delta or the sum reads it

    d = s.delta.masked() if s.delta is not None else None
    return INSTANCES[axiom](d, s.sum.masked() if s.sum is not None else None)


def axiom_instance(s: MssStructure, axiom: str, args) -> Optional[bool]:
    """Evaluate one quantifier instance of a swept axiom.

    Returns True/False for substantive instances, None for vacuous ones.
    Witness replay re-runs this and expects False.
    """
    return evaluator(s, axiom)(*encode(s.universe, args))


def check_axiom(
    s: MssStructure,
    axiom: str,
    *,
    seed: Optional[int] = None,
    budget: int = DEFAULT_SAMPLE_BUDGET,
) -> Verdict:
    """Verdict for a single named axiom over the structure.

    A law of ``THEOREMS`` whose slots are bound holds as a theorem, with
    no instance checked, and so does a law with a ``union_theorem`` when
    the sum is a union sum (``delta.UNION_SUMS``): the omega laws. Under
    an ``extensional-partial`` sum each omega law is decided on the
    table's defined pairs (``kernels.table_verdict``), exactly at every
    n and whatever the budget. lclu is decided by walking κ's clusters in
    mask order, since no other subset has a substantive instance, so it
    too is exact at every n. The laws that read delta (the five
    coherence laws and delta-sum1..3) are decided in one walk over the
    planes of delta (``kernels.cube_verdict``) when the cube's 2²ⁿ rows,
    shared through ``DeltaPredicate.plane``, fit ``budget``: up to n = 9
    at the default budget, each verdict the one the contract of
    ``verdicts`` fixes. An arity-2 sweep is exhaustive at the same n, so
    i-coh and i-coh-2 are never sampled where the cube could have
    decided them. Every other law, and those laws past that budget, is
    swept. Only a swept, table-decided or cube-decided law loads the law
    kernels (``kernels``); a theorem, deferred or unspecified verdict
    does not.
    """
    law = LAWS.get(axiom)
    if law is None:
        raise StructureError(f"unknown axiom {axiom!r}")
    if not law.defined:
        return unspecified(
            axiom, "no definition is registered for this named condition; not evaluated"
        )
    unbound = law.reads - s.bound_slots()
    if unbound:
        return deferred(axiom, unbound)
    if law.theorem is not None:
        return theorem(axiom, law.theorem)
    if law.union_theorem is not None and s.sum.mode in UNION_SUMS:
        return theorem(axiom, law.union_theorem)
    if law.reads == {"sum"} and s.sum.mode == "extensional-partial":
        from .kernels import table_verdict  # only a law decided on the sum table reads it

        return table_verdict(axiom, s.sum)
    if axiom == "lclu":  # only a cluster can violate it
        lclu = evaluator(s, axiom)
        first = next(((a,) for a in sorted(set(s.kappa)) if lclu(a) is False), None)
        return decided(axiom, s.universe, 1, first, bool(s.kappa))
    if "delta" in law.reads and (1 << s.universe.size) ** 2 <= budget:
        from .kernels import cube_verdict  # only a law decided on delta reads it

        mask_sum = s.sum.masked() if s.sum is not None else None
        return cube_verdict(axiom, s.delta, mask_sum)
    return sweep(axiom, s.universe, law.arity, evaluator(s, axiom), seed=seed, budget=budget)


def verify(
    s: MssStructure,
    axioms: Optional[Sequence[str]] = None,
    *,
    seed: Optional[int] = None,
) -> list[Verdict]:
    """Check the requested axioms (default: every registered one), in order."""
    requested = list(axioms) if axioms is not None else list(AXIOM_ORDER)
    if "gamma" not in s.bound_slots() and axioms is None:
        requested = [a for a in requested if a not in ADMISSIBILITY_AXIOMS]
    return [check_axiom(s, axiom, seed=seed) for axiom in requested]


def replay(s: MssStructure, verdict: Verdict) -> bool:
    """True when every witness on a failing verdict re-evaluates as a violation.

    A theorem has no violation, so a failing verdict on one never replays.
    """
    if verdict.status != "fails":
        return True
    if not verdict.witnesses or verdict.axiom in THEOREMS:
        return False
    return all(
        axiom_instance(s, verdict.axiom, args) is False for args in verdict.witnesses
    )


class Classification(NamedTuple):
    """Tri-state flags; None means the deciding checks were deferred."""

    is_mss: Optional[bool]
    is_strict: Optional[bool]
    is_rough: Optional[bool]
    is_gmss: Optional[bool]


# The laws of each class: the battery (laws reading only set slots, l and u,
# and four coherence laws), alone or with strict-n-coh, lclu or admissibility.
CLASSES = {
    flag: tuple(a for a, law in LAWS.items() if law.reads and law.reads <= SET_SLOTS | {"l", "u"})
    + ("i-coh", "n-coh", "i-coh-2", "trans-1", *extra)
    for flag, extra in (
        ("is_mss", ()),
        ("is_strict", ("strict-n-coh",)),
        ("is_rough", ("lclu",)),
        ("is_gmss", ADMISSIBILITY_AXIOMS),
    )
}


def _all_pass(verdicts: dict[str, Verdict], axioms) -> Optional[bool]:
    if any(verdicts[a].failed for a in axioms if a in verdicts):
        return False
    if any(a not in verdicts or verdicts[a].status == "deferred" for a in axioms):
        return None
    return True


def classify(s: MssStructure, verdicts: Optional[Sequence[Verdict]] = None) -> Classification:
    """The flags of ``CLASSES`` from ``verdicts`` (default: ``verify(s)``).

    A flag is False when a law of its class fails, else None when one is
    deferred or not among the verdicts, else True. A structure without
    gamma is not a gmss.
    """
    by_name = {v.axiom: v for v in (verify(s) if verdicts is None else verdicts)}
    flags = Classification(**{name: _all_pass(by_name, laws) for name, laws in CLASSES.items()})
    return flags if "gamma" in s.bound_slots() else flags._replace(is_gmss=False)
