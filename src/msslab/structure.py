"""Assembly, reducts, verification, and classification of soft clustering structures.

A structure bundles a parthood predicate, order, join/meet, approximation
operators, constants, a nearness predicate, a partial sum, and cluster
membership over one universe. ``MssStructure`` checks each value it
holds when it is constructed, by ``assemble`` or ``_replace`` alike, and
refuses one of another type, universe or granulation. So a slot is
bound exactly while no reduct has dropped it and it is set
(``MssStructure.bound_slots``). Any slot may be left unbound; checks
that need an unbound slot report a deferred verdict instead of failing.
One value, the granulation, binds l, u and gamma: l and u are the rough
approximation that gamma induces, so they are never held apart from it.

Parthood and order are inclusion, join and meet are union and
intersection, and the constants are H and the empty set; l and u are
always those of a granulation of nonempty granules. So the laws in
``THEOREMS`` cannot fail once their slots are bound, and they are
reported as theorems, with the reason, instead of being swept. The same
holds for the omega laws when the sum is a union sum.

``laws.LAWS`` is the one registry of laws: for each, the slots it reads,
the arity of its instances and its theorem reasons. The laws that are
not theorems are swept on masks (``evaluator``), reading each slot's own
mask form: l and u are the granulation's mask tables, the ones its
E2/uE1 predicates and granular sum read too, and delta and the sum are
compiled once per predicate and per sum. lclu's instance is written in
``evaluator``; that of every law on delta or the sum lives in
``kernels.INSTANCES``. ``CLASSES`` lists the laws that define each
structure class, and ``classify`` reads its flags from their verdicts.
"""

from __future__ import annotations

from typing import Callable, Collection, NamedTuple, Optional, Sequence

from .delta import DeltaPredicate, SumOperation
from .errors import StructureError, UniverseMismatchError
from .granules import Granulation
from .laws import (
    ADMISSIBILITY_AXIOMS,
    AXIOM_ORDER,
    GRANULATION_SLOTS,
    LAWS,
    SET_SLOTS,
    SIGNATURE_SLOTS,
    THEOREMS,
    UNION_SUMS,
)
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


class _StructureFields(NamedTuple):
    universe: Universe
    kept: frozenset[str] = frozenset(SIGNATURE_SLOTS)
    granulation: Optional[Granulation] = None
    delta: Optional[DeltaPredicate] = None
    sum: Optional[SumOperation] = None
    kappa: Optional[tuple[int, ...]] = None


class MssStructure(_StructureFields):
    """A structure over one universe, each value checked whenever one is
    constructed, by ``assemble`` or ``_replace``. ``kept``, the slots no
    reduct has dropped (all twelve by default), is a set, frozenset, tuple
    or list of ``SIGNATURE_SLOTS`` names, held as a frozenset. The
    granulation, delta and the sum are None or a ``Granulation``,
    ``DeltaPredicate`` and ``SumOperation`` over this universe, a delta or
    sum over a granulation over the structure's own, if it has one. kappa
    is None or a tuple or list of masks of this universe, held as a tuple.
    Anything else is a ``TypeError`` or an ``MsslabError``. So a kept slot
    is bound exactly while it is set: the set slots always, l, u and gamma
    while the granulation is, l and u only as a pair."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        universe, kept, granulation, delta, sum, kappa = super().__new__(cls, *args, **kwargs)
        if not isinstance(kept, (set, frozenset, tuple, list)):
            raise TypeError(f"kept: expected a set of slot names, got {type(kept).__name__}")
        kept = frozenset(kept)
        unknown = kept.difference(SIGNATURE_SLOTS)
        if unknown:
            raise StructureError(f"unknown signature slots {sorted(unknown)}")
        for value, kind, name in (
            (granulation, Granulation, "granulation"),
            (delta, DeltaPredicate, "delta predicate"),
            (sum, SumOperation, "sum operation"),
        ):
            if value is None:
                continue
            if not isinstance(value, kind):
                raise TypeError(f"{name}: expected a {kind.__name__}, got {type(value).__name__}")
            if value.universe != universe:
                raise UniverseMismatchError(f"{name} universe differs from the carrier")
            if kind is Granulation or granulation is None:
                continue
            if value.granulation not in (None, granulation):
                raise StructureError(f"{name} granulation differs from the structure's")
        if kappa is not None:
            if not isinstance(kappa, (tuple, list)):
                raise TypeError(f"kappa: expected a tuple or list, got {type(kappa).__name__}")
            kappa = tuple([check_mask(universe, c) for c in kappa])
        return super().__new__(cls, universe, kept, granulation, delta, sum, kappa)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make; route it through the checks too.
        return cls(*iterable)

    def bound_slots(self) -> frozenset[str]:
        unset = {slot for slot in ("delta", "sum", "kappa") if getattr(self, slot) is None}
        if self.granulation is None:
            unset |= GRANULATION_SLOTS
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
    kappa: Optional[Sequence[int]] = None,
) -> MssStructure:
    """Build a structure over one universe; delta, sum and kappa may wait.

    Every slot of ``SET_SLOTS`` is bound to its set interpretation. A
    granulation binds l and u (its approximations) together with gamma.
    ``kappa`` lists the cluster masks. ``MssStructure`` checks each value.
    """
    return MssStructure(universe, granulation=granulation, delta=delta, sum=sum, kappa=kappa)


def reduct(s: MssStructure, keep: Collection[str]) -> MssStructure:
    """Same carrier and values, keeping only the named slots.

    ``keep`` is checked as ``MssStructure`` checks ``kept``, and a slot
    that an earlier reduct dropped is refused. A kept slot with no value
    yet, such as delta, is bound once it has one. The result narrows
    ``s.kept`` and clears no value, so read ``bound_slots``, not a value,
    for what it binds; l and u travel as a pair, so keeping one without
    the other binds neither.
    """
    narrowed = s._replace(kept=keep)
    dropped = narrowed.kept - s.kept
    if dropped:
        raise StructureError(f"cannot keep dropped slots {sorted(dropped)}")
    return narrowed


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
    the sum is a union sum (``laws.UNION_SUMS``): the omega laws. Under
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
