"""Clustering validation: deficits, validity grades, compatibility.

The quality of a cluster is measured against the rough approximations
l and u of a granulation rather than against a numeric index: the
deficits collect what a cluster lacks towards its lower approximation and
what its upper approximation has in excess, and the grades record
fixpoint/preimage/image conditions. That a computable deficit forces
traceability is a theorem here, reported with its reason.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .delta import DeltaPredicate
from .errors import MsslabError, UniverseMismatchError
from .granules import Granulation
from .sets import PartialResult, Subset, Universe, partial_difference
from .verdicts import FAILS, HOLDS, VACUOUS, Verdict, theorem

COMPATIBILITY_MODES = ("overlap-closer", "clue-singleton")


class Clustering:
    """Distinct nonempty clusters over one universe; overlap is allowed."""

    __slots__ = ("universe", "clusters")

    def __init__(self, universe: Universe, clusters: Iterable[Subset]):
        clusters = tuple(clusters)
        if not clusters:
            raise MsslabError("a clustering needs at least one cluster")
        seen = set()
        for c in clusters:
            if c.universe != universe:
                raise UniverseMismatchError("cluster drawn from a different universe")
            if not c:
                raise MsslabError("clusters must be nonempty")
            if c.mask in seen:
                raise MsslabError(f"duplicate cluster {c!r}")
            seen.add(c.mask)
        self.universe = universe
        self.clusters = clusters

    def __iter__(self):
        return iter(self.clusters)

    def __len__(self):
        return len(self.clusters)

    def __repr__(self):
        return f"Clustering({list(self.clusters)!r})"


def lower_deficit(c: Subset, g: Granulation) -> PartialResult:
    """u(C - l(C)), always defined: l(C) is a union of granules inside C."""
    return PartialResult.of(g.upper(c - g.lower(c)))


def upper_deficit(c: Subset, g: Granulation) -> PartialResult:
    """u(u(C) - C) when the difference is defined; undefined propagates.

    u(C) misses the members of C that no granule covers, so the difference
    is undefined for such a C.
    """
    diff = partial_difference(g.upper(c), c)
    if not diff.defined:
        return PartialResult.undefined()
    return PartialResult.of(g.upper(diff.value))


class ClusterGrades(NamedTuple):
    lu_valid: bool
    l_pre_valid: bool
    u_pre_valid: bool


def validity_grades(c: Subset, g: Granulation) -> ClusterGrades:
    """Fixpoint, preimage, and image grades of one cluster.

    Both preimage grades are closed forms, exact because the l of a
    granulation is idempotent and its u preserves unions:

    - some V has l(V) = C iff l(C) = C, since l(C) = l(l(V)) = l(V);
    - some V has u(V) = C iff u(V*) = C, where V* = {x : u({x}) <= C} is
      the largest set whose image stays inside C (any V with u(V) <= C
      lies in V*, and u(V*) is the union of the u({x}) for x in V*).

    Each cluster costs n + 1 calls of u.
    """
    universe = g.universe
    lc = g.lower(c)
    uc = g.upper(c)
    inside = universe.empty
    for x in universe.elements:
        point = universe.singleton(x)
        if g.upper(point) <= c:
            inside = inside | point
    return ClusterGrades(
        lu_valid=lc == c and uc == c,
        l_pre_valid=lc == c,
        u_pre_valid=g.upper(inside) == c,
    )


class ClusterReport(NamedTuple):
    cluster: Subset
    lower_deficit: PartialResult
    upper_deficit: PartialResult
    grades: ClusterGrades
    proposition: Verdict


class ValidityReport(NamedTuple):
    per_cluster: tuple[ClusterReport, ...]
    lu_valid: bool
    l_pre_valid: bool
    u_pre_valid: bool
    note: str = "lu-validity is the two-sided fixpoint lower(C) = upper(C) = C"


DEFICIT_TRACEABILITY = (
    "l(C) lies inside C, so u(C - l(C)) is always defined;"
    " l(C) and u(C) are their own traceability witnesses"
)


def check_proposition(c: Subset, g: Granulation) -> Verdict:
    """Deficit computability forces traceability, for every cluster C.

    The premise always holds, since the lower deficit is always defined,
    and so does the conclusion: traceability asks for some subset equal
    to l(C) (to u(C)), and l(C) (u(C)) is one. So the verdict is a
    theorem, and no instance is checked.
    """
    return theorem("deficit-traceability", DEFICIT_TRACEABILITY)


def validate_clustering(cl: Clustering, g: Granulation) -> ValidityReport:
    """Per-cluster deficits, grades, and proposition checks, then aggregates."""
    if g.universe != cl.universe:
        raise UniverseMismatchError("clustering and operator universes differ")
    reports = tuple(
        ClusterReport(
            cluster=c,
            lower_deficit=lower_deficit(c, g),
            upper_deficit=upper_deficit(c, g),
            grades=validity_grades(c, g),
            proposition=check_proposition(c, g),
        )
        for c in cl.clusters
    )

    return ValidityReport(
        per_cluster=reports,
        lu_valid=all(r.grades.lu_valid for r in reports),
        l_pre_valid=all(r.grades.l_pre_valid for r in reports),
        u_pre_valid=all(r.grades.u_pre_valid for r in reports),
    )


def _compat_instances(cl: Clustering, mode: str):
    universe = cl.universe
    if mode == "overlap-closer":
        for a in cl.clusters:
            for b in cl.clusters:
                if b == a:
                    continue
                if not (a & b):
                    continue
                for c in cl.clusters:
                    if c == a or c == b:
                        continue
                    if a & c:
                        continue
                    yield (a, b, c)
    else:
        for cluster in cl.clusters:
            inside = cluster.members()
            outside = [x for x in universe.elements if x not in cluster]
            for a in inside:
                for b in inside:
                    for c in outside:
                        yield (
                            universe.singleton(a),
                            universe.singleton(b),
                            universe.singleton(c),
                        )


def check_compatibility(
    cl: Clustering, d: DeltaPredicate, mode: str = "overlap-closer"
) -> Verdict:
    """Whether the clustering is compatible with the predicate under a mode.

    ``overlap-closer`` quantifies over cluster triples: every cluster must
    be closer to each overlapping cluster than to each disjoint one.
    ``clue-singleton`` quantifies inside each cluster: members, as
    singletons, must be closer to each other than to any outsider.

    The verdict fails on the first violating triple (in cluster-list
    order); a clustering with no applicable triple is vacuously compatible.
    """
    if mode not in COMPATIBILITY_MODES:
        raise MsslabError(f"unknown compatibility mode {mode!r}")
    if cl.universe != d.universe:
        raise UniverseMismatchError("clustering and predicate universes differ")
    checked = 0
    for a, b, c in _compat_instances(cl, mode):
        checked += 1
        if not d(a, b, c):
            return Verdict(
                f"compatibility:{mode}",
                FAILS,
                witnesses=((a, b, c),),
                instances_checked=checked,
            )
    status = HOLDS if checked else VACUOUS
    return Verdict(f"compatibility:{mode}", status, instances_checked=checked)
