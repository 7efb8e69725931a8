"""Assembly, reducts, verification, and classification of soft clustering structures.

A structure bundles a parthood predicate, order, join/meet, approximation
operators, constants, a nearness predicate, a partial sum, and cluster
membership over one universe. Any slot may be left unbound; checks that
need an unbound slot report a deferred verdict instead of failing.

Checks run on the structure's compiled form (``MssStructure.compiled``),
built once at the first sweep: every bound slot as an int-level
evaluator over subset masks, and one mask evaluator per axiom. l and u
are not rebuilt here: they are the granulation's own mask tables, the
ones its E2/uE1 predicates and granular sum read too.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from . import delta as delta_mod
from .delta import DeltaPredicate, SumOperation
from .errors import StructureError, UniverseMismatchError
from .granules import Granulation, OperatorSuite, check_admissibility
from .sets import (
    UNDEFINED,
    PartialResult,
    Subset,
    Universe,
    encode,
    join as set_join,
    meet as set_meet,
    part_of,
)
from .verdicts import (
    DEFAULT_SAMPLE_BUDGET,
    Verdict,
    deferred,
    sweep,
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


@dataclass(frozen=True)
class MssStructure:
    universe: Universe
    parthood: Optional[Callable[[Subset, Subset], bool]] = None
    leq: Optional[Callable[[Subset, Subset], bool]] = None
    join: Optional[Callable[[Subset, Subset], PartialResult]] = None
    meet: Optional[Callable[[Subset, Subset], PartialResult]] = None
    ops: Optional[OperatorSuite] = None
    top: Optional[Subset] = None
    bottom: Optional[Subset] = None
    delta: Optional[DeltaPredicate] = None
    sum: Optional[SumOperation] = None
    kappa: Optional[tuple[Subset, ...]] = None
    granulation: Optional[Granulation] = None
    difference_policy: str = "subset"

    def bound_slots(self) -> frozenset[str]:
        bound = set()
        if self.parthood is not None:
            bound.add("P")
        if self.leq is not None:
            bound.add("leq")
        if self.join is not None:
            bound.add("join")
        if self.meet is not None:
            bound.add("meet")
        if self.ops is not None:
            bound.update(("l", "u"))
        if self.top is not None:
            bound.add("top")
        if self.bottom is not None:
            bound.add("bottom")
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


def _as_partial(fn):
    @functools.wraps(fn)
    def wrapped(a, b):
        out = fn(a, b)
        if isinstance(out, PartialResult):
            return out
        return PartialResult.of(out)

    return wrapped


def assemble(
    universe: Universe,
    *,
    parthood: Optional[Callable[[Subset, Subset], bool]] = part_of,
    leq: Optional[Callable[[Subset, Subset], bool]] = None,
    join: Optional[Callable] = set_join,
    meet: Optional[Callable] = set_meet,
    granulation: Optional[Granulation] = None,
    ops: Optional[OperatorSuite] = None,
    bited_plugin=None,
    top: Optional[Subset] = None,
    bottom: Optional[Subset] = None,
    delta: Optional[DeltaPredicate] = None,
    sum: Optional[SumOperation] = None,
    kappa: Optional[Iterable[Subset]] = None,
    difference_policy: str = "subset",
) -> MssStructure:
    """Build a structure over one universe; delta, sum and kappa may wait.

    When a granulation is supplied the approximation operators are derived
    from it; passing a granulation together with a foreign operator suite
    is rejected.
    """
    if granulation is not None:
        if ops is not None:
            raise StructureError(
                "operators must be derived from the granulation; pass one or the other"
            )
        if granulation.universe != universe:
            raise UniverseMismatchError("granulation universe differs from the carrier")
        ops = OperatorSuite.from_granulation(granulation, bited_plugin)
    elif bited_plugin is not None:
        raise StructureError("a bited-upper plugin needs a granulation to attach to")

    if ops is not None and ops.universe != universe:
        raise UniverseMismatchError("operator suite universe differs from the carrier")

    top = universe.full if top is None else top
    bottom = universe.empty if bottom is None else bottom
    for name, value in (("top", top), ("bottom", bottom)):
        if value.universe != universe:
            raise UniverseMismatchError(f"{name} drawn from a different universe")
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
        parthood=parthood,
        leq=leq if leq is not None else parthood,
        join=_as_partial(join) if join is not None else None,
        meet=_as_partial(meet) if meet is not None else None,
        ops=ops,
        top=top,
        bottom=bottom,
        delta=delta,
        sum=sum,
        kappa=clusters,
        granulation=granulation,
        difference_policy=difference_policy,
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
        parthood=s.parthood if "P" in keep else None,
        leq=s.leq if "leq" in keep else None,
        join=s.join if "join" in keep else None,
        meet=s.meet if "meet" in keep else None,
        ops=s.ops if keep_ops else None,
        top=s.top if "top" in keep else None,
        bottom=s.bottom if "bottom" in keep else None,
        delta=s.delta if "delta" in keep else None,
        sum=s.sum if "sum" in keep else None,
        kappa=s.kappa if "kappa" in keep else None,
        granulation=s.granulation if "gamma" in keep else None,
        difference_policy=s.difference_policy,
    )


def _included(a: int, b: int) -> bool:
    return not a & ~b


def _mask_relation(fn, universe: Universe) -> Callable[[int, int], bool]:
    if fn is part_of:
        return _included
    from_mask = universe.from_mask
    return lambda a, b: bool(fn(from_mask(a), from_mask(b)))


def _mask_operation(fn, universe: Universe) -> Callable[[int, int], int]:
    """A partial binary operation on masks, ``UNDEFINED`` where undefined."""
    plain = getattr(fn, "__wrapped__", fn)
    if plain is set_join:
        return operator.or_
    if plain is set_meet:
        return operator.and_
    from_mask = universe.from_mask

    def adapter(a, b):
        out = fn(from_mask(a), from_mask(b))
        return out.value.mask if out.defined else UNDEFINED

    return adapter


class CompiledStructure:
    """A structure's bound slots as int-level evaluators over masks.

    Inclusion, union and intersection become bit operations; any other
    parthood, order, join or meet is reached through a decode adapter.
    ``lower``/``upper`` are the operator suite's tables (those of its
    granulation), ``delta`` and ``sum`` are the slots' own mask forms (the
    sum returns ``UNDEFINED`` where undefined), and ``kappa`` is a set of
    masks. Unbound slots are None.
    """

    def __init__(self, s: MssStructure):
        u = s.universe
        self.part = _mask_relation(s.parthood, u) if s.parthood is not None else None
        self.leq = _mask_relation(s.leq, u) if s.leq is not None else None
        self.join = _mask_operation(s.join, u) if s.join is not None else None
        self.meet = _mask_operation(s.meet, u) if s.meet is not None else None
        self.lower = s.ops.lower_table if s.ops is not None else None
        self.upper = s.ops.upper_table if s.ops is not None else None
        self.top = s.top.mask if s.top is not None else None
        self.bottom = s.bottom.mask if s.bottom is not None else None
        self.delta = s.delta.masked() if s.delta is not None else None
        self.sum = s.sum.masked() if s.sum is not None else None
        self.kappa = frozenset(c.mask for c in s.kappa) if s.kappa is not None else None

    def evaluator(self, axiom: str) -> Callable[..., Optional[bool]]:
        """The instance evaluator of one axiom, taking masks."""
        if axiom in _STRUCTURAL:
            return _STRUCTURAL[axiom](self)
        if axiom in delta_mod.COHERENCE_ARITY:
            return delta_mod.coherence_evaluator(self.delta, axiom)
        if axiom in delta_mod.SUM_ARITY:
            return delta_mod.sum_evaluator(self.delta, self.sum, axiom)
        raise StructureError(f"axiom {axiom!r} has no instance evaluator")


def _weak_eq(x: int, y: int) -> bool:
    """Conditional equality of partial values on masks (``omega_equal``)."""
    return x == UNDEFINED or y == UNDEFINED or x == y


def _pt1(k):
    P = k.part
    return lambda a: P(a, a)


def _pt2(k):
    P = k.part
    return lambda a, b: a == b if P(a, b) and P(b, a) else None


def _g1(k):
    jn, mt = k.join, k.meet
    return lambda a, b: _weak_eq(jn(a, b), jn(b, a)) and _weak_eq(mt(a, b), mt(b, a))


def _g2(k):
    jn, mt = k.join, k.meet

    def g2(a, b):
        j, m = jn(a, b), mt(a, b)
        if j != UNDEFINED and not _weak_eq(mt(j, a), a):
            return False
        return m == UNDEFINED or _weak_eq(jn(m, a), a)

    return g2


def _distributive(outer, inner):
    """(a inner b) outer c  =  (a outer c) inner (b outer c), conditionally."""

    def law(a, b, c):
        ab = inner(a, b)
        left = outer(ab, c) if ab != UNDEFINED else UNDEFINED
        ac, bc = outer(a, c), outer(b, c)
        right = inner(ac, bc) if ac != UNDEFINED and bc != UNDEFINED else UNDEFINED
        return _weak_eq(left, right)

    return law


def _g3(k):
    return _distributive(k.join, k.meet)


def _g4(k):
    return _distributive(k.meet, k.join)


def _g5(k):
    leq, jn, mt = k.leq, k.join, k.meet
    return lambda a, b: leq(a, b) == (jn(a, b) == b) == (mt(a, b) == a)


def _ul1(k):
    P, L, U = k.part, k.lower, k.upper

    def ul1(a):
        la, ua = L[a], U[a]
        return P(la, a) and L[la] == la and P(ua, U[ua])

    return ul1


def _ul2(k):
    P, L, U = k.part, k.lower, k.upper
    return lambda a, b: (P(L[a], L[b]) and P(U[a], U[b])) if P(a, b) else None


def _ul3(k):
    P, L, U, top, bottom = k.part, k.lower, k.upper, k.top, k.bottom
    return lambda: (
        L[bottom] == bottom
        and U[bottom] == bottom
        and P(L[top], top)
        and P(U[top], top)
    )


def _tb(k):
    P, top, bottom = k.part, k.top, k.bottom
    return lambda a: P(bottom, a) and P(a, top)


def _lclu(k):
    L, kappa = k.lower, k.kappa
    return lambda a: L[a] in kappa if a in kappa else None


_STRUCTURAL = {
    "PT1": _pt1,
    "PT2": _pt2,
    "G1": _g1,
    "G2": _g2,
    "G3": _g3,
    "G4": _g4,
    "G5": _g5,
    "UL1": _ul1,
    "UL2": _ul2,
    "UL3": _ul3,
    "TB": _tb,
    "lclu": _lclu,
}


def axiom_instance(s: MssStructure, axiom: str, args) -> Optional[bool]:
    """Evaluate one quantifier instance of a structural axiom.

    Returns True/False for substantive instances, None for vacuous ones.
    Witness replay re-runs this and expects False.
    """
    return s.compiled.evaluator(axiom)(*encode(s.universe, args))


_ARITY = {
    "PT1": 1,
    "PT2": 2,
    "G1": 2,
    "G2": 2,
    "G3": 3,
    "G4": 3,
    "G5": 2,
    "UL1": 1,
    "UL2": 2,
    "UL3": 0,
    "TB": 1,
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
    """Verdict for a single named axiom over the structure."""
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
    if axiom in ADMISSIBILITY_AXIOMS:
        trio = {v.axiom: v for v in check_admissibility(s.granulation, s.ops)}
        return trio[axiom]
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
    """True when every witness on a failing verdict re-evaluates as a violation."""
    if verdict.status != "fails":
        return True
    if not verdict.witnesses:
        return False
    if verdict.axiom in ADMISSIBILITY_AXIOMS:
        fresh = check_axiom(s, verdict.axiom)
        return fresh.status == "fails"
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
