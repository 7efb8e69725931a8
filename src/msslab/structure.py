"""Assembly, reducts, verification, and classification of soft clustering structures.

A structure bundles a parthood predicate, order, join/meet, approximation
operators, constants, a nearness predicate, a partial sum, and cluster
membership over one universe. Any slot may be left unbound; checks that
need an unbound slot report a deferred verdict instead of failing.

Parthood and order are inclusion, join and meet are union and
intersection, and the constants are H and the empty set; l and u are
always those of a granulation of nonempty granules. So the laws in
``THEOREMS`` cannot fail once their slots are bound, and they are
reported as theorems, with the reason, instead of being swept.

The other laws are swept on the structure's compiled form
(``MssStructure.compiled``), built once at the first sweep: each bound
slot as an int-level evaluator over subset masks, and one mask evaluator
per axiom. l and u are not rebuilt here: they are the granulation's own
mask tables, the ones its E2/uE1 predicates and granular sum read too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from . import delta as delta_mod
from .delta import DeltaPredicate, SumOperation
from .errors import StructureError, UniverseMismatchError
from .granules import Granulation
from .sets import Subset, Universe, encode
from .verdicts import (
    DEFAULT_SAMPLE_BUDGET,
    Verdict,
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

# The named conditions that define membership in the base structure class.
DEFINITION_AXIOMS = (
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
    "trans-1",
)

ADMISSIBILITY_AXIOMS = (
    "admissible-representable",
    "admissible-granules-lower-definite",
    "admissible-pairs-in-definite",
)

AXIOM_ORDER = DEFINITION_AXIOMS[:11] + (
    "i-coh",
    "n-coh",
    "i-coh-2",
    "strict-n-coh",
    "trans-1",
    "clos1",
    "lclu",
) + delta_mod.SUM_AXIOMS + ADMISSIBILITY_AXIOMS

_REQUIRES = {
    "PT1": {"P"},
    "PT2": {"P"},
    "G1": {"join", "meet"},
    "G2": {"join", "meet"},
    "G3": {"join", "meet"},
    "G4": {"join", "meet"},
    "G5": {"leq", "join", "meet"},
    "UL1": {"P", "l", "u"},
    "UL2": {"P", "l", "u"},
    "UL3": {"P", "l", "u", "top", "bottom"},
    "TB": {"P", "top", "bottom"},
    "i-coh": {"delta"},
    "n-coh": {"delta"},
    "i-coh-2": {"delta"},
    "strict-n-coh": {"delta"},
    "trans-1": {"delta"},
    "clos1": set(),
    "lclu": {"kappa", "l"},
    "omega-star-com": {"sum"},
    "omega-id": {"sum"},
    "omega-asso": {"sum"},
    "delta-sum1": {"sum", "delta"},
    "delta-sum2": {"sum", "delta"},
    "delta-sum3": {"sum", "delta"},
    "admissible-representable": {"gamma", "l", "u"},
    "admissible-granules-lower-definite": {"gamma", "l", "u"},
    "admissible-pairs-in-definite": {"gamma", "l", "u"},
}

# The slots whose interpretation is fixed: parthood and order are
# inclusion, join and meet are union and intersection, top is H and
# bottom is the empty set. A structure records which of them are bound.
SET_SLOTS = frozenset({"P", "leq", "join", "meet", "top", "bottom"})

# Laws that follow from those interpretations and from l and u being
# unions of nonempty granules of one granulation, with the reason.
THEOREMS = {
    "PT1": "inclusion is reflexive",
    "PT2": "inclusion is antisymmetric",
    "G1": "union and intersection are commutative",
    "G2": "union and intersection absorb each other",
    "G3": "union distributes over intersection",
    "G4": "intersection distributes over union",
    "G5": "A is included in B iff their union is B iff their intersection is A",
    "UL1": (
        "l(A) is the union of the granules inside A, so it is inside A and its own l;"
        " each granule of u(A) is nonempty, so it meets u(A) and lies in u(u(A))"
    ),
    "UL2": "a granule inside or meeting A is inside or meets every superset of A",
    "UL3": "no nonempty granule is inside or meets the empty set, and l(H), u(H) lie in H",
    "TB": "every subset lies between the empty set and H",
    "admissible-representable": "l(A) and u(A) are unions of granules by definition",
    "admissible-granules-lower-definite": "each granule is inside itself, so it is its own l",
    "admissible-pairs-in-definite": (
        "the union of all granules is definite and contains every pair of granules"
    ),
}


@dataclass(frozen=True)
class MssStructure:
    """A structure over one universe. ``ops`` is the granulation whose l
    and u are bound (None when a reduct dropped them); ``granulation`` is
    the one bound as gamma."""

    universe: Universe
    set_slots: frozenset[str] = SET_SLOTS
    ops: Optional[Granulation] = None
    delta: Optional[DeltaPredicate] = None
    sum: Optional[SumOperation] = None
    kappa: Optional[tuple[Subset, ...]] = None
    granulation: Optional[Granulation] = None

    def bound_slots(self) -> frozenset[str]:
        bound = set(self.set_slots)
        if self.ops is not None:
            bound.update(("l", "u"))
        if self.delta is not None:
            bound.add("delta")
        if self.sum is not None:
            bound.add("sum")
        if self.kappa is not None:
            bound.add("kappa")
        if self.granulation is not None:
            bound.add("gamma")
        return frozenset(bound)

    @functools.cached_property
    def compiled(self) -> "CompiledStructure":
        """The interpretations on masks, built at the first use."""
        return CompiledStructure(self)

    def __repr__(self):
        return f"MssStructure(|H|={self.universe.size}, slots={sorted(self.bound_slots())})"


def assemble(
    universe: Universe,
    *,
    granulation: Optional[Granulation] = None,
    delta: Optional[DeltaPredicate] = None,
    sum: Optional[SumOperation] = None,
    kappa: Optional[Iterable[Subset]] = None,
) -> MssStructure:
    """Build a structure over one universe; delta, sum and kappa may wait.

    Every slot of ``SET_SLOTS`` is bound to its set interpretation. A
    granulation binds l and u (its approximations) together with gamma.
    """
    if granulation is not None and granulation.universe != universe:
        raise UniverseMismatchError("granulation universe differs from the carrier")

    if delta is not None and delta.universe != universe:
        raise UniverseMismatchError("delta predicate universe differs from the carrier")
    if sum is not None and sum.universe != universe:
        raise UniverseMismatchError("sum operation universe differs from the carrier")

    clusters = None
    if kappa is not None:
        clusters = tuple(kappa)
        for c in clusters:
            if c.universe != universe:
                raise UniverseMismatchError("cluster drawn from a different universe")

    return MssStructure(
        universe=universe,
        ops=granulation,
        delta=delta,
        sum=sum,
        kappa=clusters,
        granulation=granulation,
    )


def reduct(s: MssStructure, keep: Iterable[str]) -> MssStructure:
    """Same carrier, keeping only the named interpretations.

    The carrier itself is not part of the signature and cannot be dropped;
    the approximation operators travel as the l/u pair, so keeping one
    without the other drops both.
    """
    keep = set(keep)
    if "universe" in keep:
        raise StructureError("the carrier is not a signature slot; it is always retained")
    unknown = keep - set(SIGNATURE_SLOTS)
    if unknown:
        raise StructureError(f"unknown signature slots {sorted(unknown)}")
    missing = keep - s.bound_slots()
    if missing:
        raise StructureError(f"cannot keep unbound slots {sorted(missing)}")

    keep_ops = "l" in keep and "u" in keep
    return MssStructure(
        universe=s.universe,
        set_slots=s.set_slots & keep,
        ops=s.ops if keep_ops else None,
        delta=s.delta if "delta" in keep else None,
        sum=s.sum if "sum" in keep else None,
        kappa=s.kappa if "kappa" in keep else None,
        granulation=s.granulation if "gamma" in keep else None,
    )


class CompiledStructure:
    """The slots the swept laws read, as int-level evaluators over masks.

    ``lower``/``upper`` are the mask tables of the granulation bound as
    l and u, ``delta`` and ``sum`` are the slots' own mask forms (the
    sum returns ``UNDEFINED`` where undefined), and ``kappa`` is a set of
    masks. Unbound slots are None.
    """

    def __init__(self, s: MssStructure):
        self.lower = s.ops.lower_table if s.ops is not None else None
        self.upper = s.ops.upper_table if s.ops is not None else None
        self.delta = s.delta.masked() if s.delta is not None else None
        self.sum = s.sum.masked() if s.sum is not None else None
        self.kappa = frozenset(c.mask for c in s.kappa) if s.kappa is not None else None

    def evaluator(self, axiom: str) -> Callable[..., Optional[bool]]:
        """The instance evaluator of one axiom, taking masks."""
        if axiom == "lclu":
            L, kappa = self.lower, self.kappa
            return lambda a: L[a] in kappa if a in kappa else None
        if axiom in delta_mod.COHERENCE_ARITY:
            return delta_mod.coherence_evaluator(self.delta, axiom)
        if axiom in delta_mod.SUM_ARITY:
            return delta_mod.sum_evaluator(self.delta, self.sum, axiom)
        raise StructureError(f"axiom {axiom!r} has no instance evaluator")


def axiom_instance(s: MssStructure, axiom: str, args) -> Optional[bool]:
    """Evaluate one quantifier instance of a swept axiom.

    Returns True/False for substantive instances, None for vacuous ones.
    Witness replay re-runs this and expects False.
    """
    return s.compiled.evaluator(axiom)(*encode(s.universe, args))


_ARITY = {
    "lclu": 1,
    **delta_mod.COHERENCE_ARITY,
    **delta_mod.SUM_ARITY,
}


def check_axiom(
    s: MssStructure,
    axiom: str,
    *,
    seed: Optional[int] = None,
    budget: int = DEFAULT_SAMPLE_BUDGET,
) -> Verdict:
    """Verdict for a single named axiom over the structure.

    A law of ``THEOREMS`` whose slots are bound holds as a theorem, with
    no instance checked. The laws of ``delta.CUBE_AXIOMS`` (n-coh,
    strict-n-coh, trans-1 and delta-sum1..3) are decided on the rows of
    delta (``delta.cube_verdict``) when their 2³ⁿ delta calls, shared
    through ``DeltaPredicate.plane``, fit ``budget``: up to n = 6 at the
    default budget, the same verdicts an exhaustive sweep gives. Every
    other law, and those laws past that budget, is swept.
    """
    if axiom == "clos1":
        return unspecified(
            "clos1", "no definition is registered for this named condition; not evaluated"
        )
    needed = _REQUIRES.get(axiom)
    if needed is None:
        raise StructureError(f"unknown axiom {axiom!r}")
    unbound = needed - s.bound_slots()
    if unbound:
        return deferred(axiom, f"unbound slots: {sorted(unbound)}")
    if axiom in THEOREMS:
        return theorem(axiom, THEOREMS[axiom])
    if axiom in delta_mod.CUBE_AXIOMS and (1 << s.universe.size) ** 3 <= budget:
        return delta_mod.cube_verdict(axiom, s.delta, s.compiled.sum)
    return sweep(
        axiom,
        s.universe,
        _ARITY[axiom],
        s.compiled.evaluator(axiom),
        seed=seed,
        budget=budget,
    )


def verify(
    s: MssStructure,
    axioms: Optional[Sequence[str]] = None,
    *,
    seed: Optional[int] = None,
    budget: int = DEFAULT_SAMPLE_BUDGET,
    jobs: int = 1,
) -> list[Verdict]:
    """Check the requested axioms (default: every registered one), in order.

    ``jobs`` is accepted and ignored: the sweeps are pure-Python work
    that holds the interpreter lock, so worker threads only slowed them.
    """
    requested = list(axioms) if axioms is not None else list(AXIOM_ORDER)
    if "gamma" not in s.bound_slots() and axioms is None:
        requested = [a for a in requested if a not in ADMISSIBILITY_AXIOMS]
    return [check_axiom(s, axiom, seed=seed, budget=budget) for axiom in requested]


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


@dataclass(frozen=True)
class Classification:
    """Tri-state flags; None means the deciding checks were deferred."""

    is_mss: Optional[bool]
    is_strict: Optional[bool]
    is_rough: Optional[bool]
    is_gmss: Optional[bool]


def _all_pass(verdicts: dict[str, Verdict], axioms) -> Optional[bool]:
    if any(verdicts[a].failed for a in axioms if a in verdicts):
        return False
    if any(a not in verdicts or verdicts[a].status == "deferred" for a in axioms):
        return None
    return True


def _conj(*flags):
    if any(flag is False for flag in flags):
        return False
    if any(flag is None for flag in flags):
        return None
    return True


def classify(
    s: MssStructure, verdicts: Optional[Sequence[Verdict]] = None
) -> Classification:
    """Derive the structure-class flags from axiom verdicts.

    ``is_mss`` needs the whole definitional battery; ``is_strict`` adds the
    asymmetry law, ``is_rough`` adds closure of cluster membership under
    the lower approximation, ``is_gmss`` adds an admissible granulation.
    """
    if verdicts is None:
        verdicts = verify(s)
    by_name = {v.axiom: v for v in verdicts}
    for name in ("strict-n-coh", "lclu", *ADMISSIBILITY_AXIOMS):
        if name not in by_name:
            extra = check_axiom(s, name)
            by_name[extra.axiom] = extra

    is_mss = _all_pass(by_name, DEFINITION_AXIOMS)
    is_strict = _conj(is_mss, _all_pass(by_name, ("strict-n-coh",)))
    is_rough = _conj(is_mss, _all_pass(by_name, ("lclu",)))
    if s.granulation is None:
        is_gmss = False
    else:
        is_gmss = _conj(is_mss, _all_pass(by_name, ADMISSIBILITY_AXIOMS))
    return Classification(is_mss, is_strict, is_rough, is_gmss)
