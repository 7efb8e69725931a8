"""Clustering validation: deficits, validity grades, compatibility.

The quality of a cluster is measured against the rough approximations
l and u of a granulation rather than against a numeric index: the
deficits collect what a cluster lacks towards its lower approximation and
what its upper approximation has in excess, and the grades record
fixpoint/preimage/image conditions. That a computable deficit forces
traceability is a theorem here, reported with its reason.

A clustering is a structure's cluster membership κ, read with its l and
u or with its δ. The deficits and grades take one cluster as a
``Subset``; an upper deficit is None where it is undefined. The grades
read the granulation's l and u tables, and compatibility reads the
predicate's mask form.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import MsslabError, StructureError
from .granules import Granulation
from .sets import Subset, encode, partial_difference
from .verdicts import Verdict, decided, deferred, theorem

if TYPE_CHECKING:  # annotations only
    from .structure import MssStructure

COMPATIBILITY_MODES = ("overlap-closer", "clue-singleton")

# The slots each check reads: the deficits and grades, and compatibility.
GRADE_READS = frozenset({"kappa", "l", "u"})
COMPATIBILITY_READS = frozenset({"kappa", "delta"})


def _clusters(s: MssStructure) -> tuple[int, ...]:
    """A bound κ, whose masks lie inside the universe, read as a clustering:
    at least one cluster, none empty, none repeated."""
    if not s.kappa:
        raise MsslabError("a clustering needs at least one cluster")
    if not all(s.kappa):
        raise MsslabError("clusters must be nonempty")
    for k, c in enumerate(s.kappa):
        if c in s.kappa[:k]:
            raise MsslabError(f"duplicate cluster {s.universe.from_mask(c)!r}")
    return s.kappa


def lower_deficit(c: Subset, g: Granulation) -> Subset:
    """u(C - l(C)), always defined: l(C) is a union of granules inside C."""
    return g.upper(c - g.lower(c))


def upper_deficit(c: Subset, g: Granulation) -> Subset | None:
    """u(u(C) - C) when the difference is defined, else None.

    u(C) misses the members of C that no granule covers, so the difference
    is undefined for such a C.
    """
    diff = partial_difference(g.upper(c), c)
    return None if diff is None else g.upper(diff)


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

    Each cluster costs n + 2 reads of the u table.
    """
    lower, upper, (m,) = g.lower_table, g.upper_table, encode(g.universe, (c,))
    inside = 0
    for x in range(g.universe.size):
        if not upper[1 << x] & ~m:
            inside |= 1 << x
    return ClusterGrades(
        lu_valid=lower[m] == m and upper[m] == m,
        l_pre_valid=lower[m] == m,
        u_pre_valid=upper[inside] == m,
    )


class ClusterReport(NamedTuple):
    cluster: Subset
    lower_deficit: Subset
    upper_deficit: Optional[Subset]
    grades: ClusterGrades
    proposition: Verdict


class ValidityReport(NamedTuple):
    """Each cluster's report, and the clustering's grades: each grade holds
    of the clustering when it holds of every cluster."""

    per_cluster: tuple[ClusterReport, ...]
    grades: ClusterGrades


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


def validate_clustering(s: MssStructure) -> ValidityReport:
    """Per-cluster deficits, grades, and proposition checks of κ under the
    structure's l and u, then the clustering's grades."""
    unbound = GRADE_READS - s.bound_slots()
    if unbound:
        raise StructureError(f"validation reads unbound slots {sorted(unbound)}")
    reports = tuple(
        ClusterReport(
            cluster=c,
            lower_deficit=lower_deficit(c, s.granulation),
            upper_deficit=upper_deficit(c, s.granulation),
            grades=validity_grades(c, s.granulation),
            proposition=check_proposition(c, s.granulation),
        )
        for c in map(s.universe.from_mask, _clusters(s))
    )

    grades = ClusterGrades(*map(all, zip(*(r.grades for r in reports))))
    return ValidityReport(per_cluster=reports, grades=grades)


def _compat_instances(clusters: tuple[int, ...], size: int, mode: str):
    """The (a, b, c) mask triples a mode quantifies over, in cluster-list order."""
    if mode == "overlap-closer":
        for a in clusters:
            for b in clusters:
                if b == a or not a & b:
                    continue
                for c in clusters:
                    if c == a or c == b or a & c:
                        continue
                    yield (a, b, c)
    else:
        points = [1 << x for x in range(size)]
        for cluster in clusters:
            inside = [p for p in points if p & cluster]
            outside = [p for p in points if not p & cluster]
            for a in inside:
                for b in inside:
                    for c in outside:
                        yield (a, b, c)


def check_compatibility(s: MssStructure, mode: str = "overlap-closer") -> Verdict:
    """Whether κ is compatible with the structure's δ under a mode.

    ``overlap-closer`` quantifies over cluster triples: every cluster must
    be closer to each overlapping cluster than to each disjoint one.
    ``clue-singleton`` quantifies inside each cluster: members, as
    singletons, must be closer to each other than to any outsider.

    The verdict fails on the first violating triple (in cluster-list
    order); a clustering with no applicable triple is vacuously
    compatible. It is deferred when κ or δ is unbound.
    """
    if mode not in COMPATIBILITY_MODES:
        raise MsslabError(f"unknown compatibility mode {mode!r}")
    axiom = f"compatibility:{mode}"
    unbound = COMPATIBILITY_READS - s.bound_slots()
    if unbound:
        return deferred(axiom, unbound)
    holds, first, checked = s.delta.masked(), None, 0
    for checked, triple in enumerate(_compat_instances(_clusters(s), s.universe.size, mode), 1):
        if not holds(*triple):
            first = triple
            break
    return decided(axiom, s.universe, 3, first, checked > 0, count=checked)
