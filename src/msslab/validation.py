"""Clustering validation: deficits, validity grades, compatibility.

The quality of a cluster is measured against the rough approximations
l and u of a granulation rather than against a numeric index: the
deficits collect what a cluster lacks towards its lower approximation and
what its upper approximation has in excess, and the grades record
fixpoint/preimage/image conditions. That a computable deficit forces
traceability is a theorem here, reported with its reason.

A clustering is built from cluster masks. The deficits and grades take
one cluster as a ``Subset``; an upper deficit is None where it is
undefined. The grades read the granulation's l and u tables, and
compatibility reads the predicate's mask form.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .delta import DeltaPredicate
from .errors import MsslabError, UniverseMismatchError
from .granules import Granulation
from .sets import Subset, Universe, nonempty_masks, partial_difference
from .verdicts import Verdict, decided, theorem

COMPATIBILITY_MODES = ("overlap-closer", "clue-singleton")


class Clustering:
    """Distinct nonempty cluster masks over one universe; overlap is allowed."""

    __slots__ = ("universe", "clusters")

    def __init__(self, universe: Universe, clusters: Iterable[int]):
        clusters = nonempty_masks(universe, clusters, "cluster")
        if not clusters:
            raise MsslabError("a clustering needs at least one cluster")
        for k, c in enumerate(clusters):
            if c in clusters[:k]:
                raise MsslabError(f"duplicate cluster {universe.from_mask(c)!r}")
        self.universe = universe
        self.clusters = clusters

    def __iter__(self):
        return iter(self.clusters)

    def __len__(self):
        return len(self.clusters)

    def __repr__(self):
        return f"Clustering({list(map(self.universe.from_mask, self.clusters))!r})"


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
    if c.universe != g.universe:
        raise UniverseMismatchError("subset and granulation universes differ")
    lower, upper, m = g.lower_table, g.upper_table, c.mask
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


def validate_clustering(cl: Clustering, g: Granulation) -> ValidityReport:
    """Per-cluster deficits, grades, and proposition checks, then the
    clustering's grades."""
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
        for c in map(cl.universe.from_mask, cl.clusters)
    )

    grades = ClusterGrades(*map(all, zip(*(r.grades for r in reports))))
    return ValidityReport(per_cluster=reports, grades=grades)


def _compat_instances(cl: Clustering, mode: str):
    """The (a, b, c) mask triples a mode quantifies over, in cluster-list order."""
    clusters = cl.clusters
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
        points = [1 << x for x in range(cl.universe.size)]
        for cluster in clusters:
            inside = [p for p in points if p & cluster]
            outside = [p for p in points if not p & cluster]
            for a in inside:
                for b in inside:
                    for c in outside:
                        yield (a, b, c)


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
    holds, first, checked = d.masked(), None, 0
    for checked, triple in enumerate(_compat_instances(cl, mode), 1):
        if not holds(*triple):
            first = triple
            break
    return decided(f"compatibility:{mode}", cl.universe, 3, first, checked > 0, count=checked)
