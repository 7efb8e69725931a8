"""Independent brute-force oracles used to cross-check the optimized paths.

Everything here recomputes from scratch over frozensets of element names,
with naive nested loops. None of it calls the bitmask implementations it
is meant to validate; the duplication is the point.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import NamedTuple, Optional

from .errors import MsslabError

ORACLE_AXIOMS = (
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
    "strict-n-coh",
    "trans-1",
    "lclu",
)

# Sum laws with an oracle; kept apart from ORACLE_AXIOMS because they need
# a bound sum (and the delta-sum trio a predicate too).
ORACLE_SUM_AXIOMS = (
    "omega-star-com",
    "omega-id",
    "omega-asso",
    "delta-sum1",
    "delta-sum2",
    "delta-sum3",
)

# The three admissibility conditions have oracles too, reached through
# o_claim("axiom:admissible-..."). They stay out of ORACLE_AXIOMS, the
# tuple the benchmark gate checks, so the gate's work is unchanged.


class StructureDescription(NamedTuple):
    """Plain-data view of a structure: names only, no operator objects."""

    elements: tuple[str, ...]
    granules: tuple[frozenset[str], ...]
    delta_kind: Optional[str] = None
    delta_table: Optional[frozenset[tuple[frozenset, frozenset, frozenset]]] = None
    clusters: Optional[tuple[frozenset[str], ...]] = None
    sum_mode: Optional[str] = None
    # (a, b, a + b) for every defined pair of an extensional-partial sum
    sum_table: Optional[frozenset[tuple[frozenset, frozenset, frozenset]]] = None

    @classmethod
    def from_structure(cls, s) -> "StructureDescription":
        if s.granulation is None:
            raise MsslabError("oracle needs a granulation-backed structure")
        names = s.universe.elements

        def named(mask):
            return frozenset(n for i, n in enumerate(names) if mask >> i & 1)

        granules = tuple(frozenset(g.members()) for g in s.granulation)
        kind = None
        table = None
        if s.delta is not None:
            kind = s.delta.kind
            if kind == "extensional":
                table = frozenset(
                    (named(am), named(bm), named(cm)) for am, bm, cm in s.delta.table
                )
            elif kind not in ("E0", "E1", "E2", "uE1"):
                raise MsslabError(f"oracle cannot rebuild delta kind {kind!r}")
        clusters = None
        if s.kappa is not None:
            clusters = tuple(frozenset(c.members()) for c in s.kappa)
        sum_mode = None
        sum_table = None
        if s.sum is not None:
            sum_mode = s.sum.mode
            if sum_mode == "extensional-partial":
                sum_table = frozenset(
                    (named(am), named(bm), named(vm)) for (am, bm), vm in s.sum.table.items()
                )
            elif sum_mode == "granular-sum":
                if s.sum.granulation != s.granulation:
                    raise MsslabError("oracle needs the granular sum over the structure's granules")
            elif sum_mode != "total-union":
                raise MsslabError(f"oracle cannot rebuild sum mode {sum_mode!r}")
        return cls(
            tuple(names), granules, kind, table, clusters, sum_mode, sum_table
        )


def powerset(elements) -> list[frozenset]:
    subsets = []
    for size in range(len(elements) + 1):
        for combo in combinations(elements, size):
            subsets.append(frozenset(combo))
    return subsets


def o_lower(a, granules):
    result = frozenset()
    for g in granules:
        if g.issubset(a):
            result = result | g
    return result


def o_upper(a, granules):
    result = frozenset()
    for g in granules:
        if g & a:
            result = result | g
    return result


def o_granule_unions(granules) -> set:
    """Every union of a subfamily of granules, the empty union included."""
    unions = {frozenset()}
    for g in granules:
        unions |= {u | g for u in unions}
    return unions


def o_delta(desc: StructureDescription):
    kind = desc.delta_kind
    granules = desc.granules
    if kind == "E0":
        return lambda a, b, c: (a | b).issubset(a | c)
    if kind == "E1":
        return lambda a, b, c: (a | b).issubset(a | c) and not (a | c).issubset(a | b)
    if kind == "E2":

        def e2(a, b, c):
            left = o_lower(a & c, granules)
            right = o_lower(a & b, granules)
            return left.issubset(right) and not right.issubset(left)

        return e2
    if kind == "uE1":
        return lambda a, b, c: o_upper(a | b, granules).issubset(o_upper(a | c, granules))
    if kind == "extensional":
        table = desc.delta_table
        return lambda a, b, c: (a, b, c) in table
    raise MsslabError(f"oracle has no delta of kind {kind!r}")


def o_sum(desc: StructureDescription):
    """The partial sum as a function returning None where it is undefined."""
    mode = desc.sum_mode
    granules = desc.granules
    if mode == "total-union":
        return lambda a, b: a | b
    if mode == "granular-sum":

        def granular(a, b):
            joined = a | b
            return joined if o_lower(joined, granules) == joined else None

        return granular
    if mode == "extensional-partial":
        table = {(a, b): value for a, b, value in desc.sum_table}
        return lambda a, b: table.get((a, b))
    raise MsslabError(f"oracle has no sum of mode {mode!r}")


def o_axiom_holds(desc: StructureDescription, axiom: str) -> bool:
    """Direct quantifier evaluation of one axiom; True means no violation."""
    space = powerset(desc.elements)
    granules = desc.granules
    full = frozenset(desc.elements)
    empty = frozenset()

    if axiom == "PT1":
        return all(a.issubset(a) for a in space)
    if axiom == "PT2":
        return all(
            a == b
            for a in space
            for b in space
            if a.issubset(b) and b.issubset(a)
        )
    if axiom == "G1":
        return all(a | b == b | a and a & b == b & a for a in space for b in space)
    if axiom == "G2":
        return all((a | b) & a == a and (a & b) | a == a for a in space for b in space)
    if axiom == "G3":
        return all(
            (a & b) | c == (a | c) & (b | c)
            for a in space
            for b in space
            for c in space
        )
    if axiom == "G4":
        return all(
            (a | b) & c == (a & c) | (b & c)
            for a in space
            for b in space
            for c in space
        )
    if axiom == "G5":
        for a in space:
            for b in space:
                below = a.issubset(b)
                if below != (a | b == b) or below != (a & b == a):
                    return False
        return True
    if axiom == "UL1":
        for a in space:
            la = o_lower(a, granules)
            ua = o_upper(a, granules)
            if not la.issubset(a):
                return False
            if o_lower(la, granules) != la:
                return False
            if not ua.issubset(o_upper(ua, granules)):
                return False
        return True
    if axiom == "UL2":
        for a in space:
            for b in space:
                if not a.issubset(b):
                    continue
                if not o_lower(a, granules).issubset(o_lower(b, granules)):
                    return False
                if not o_upper(a, granules).issubset(o_upper(b, granules)):
                    return False
        return True
    if axiom == "UL3":
        return (
            o_lower(empty, granules) == empty
            and o_upper(empty, granules) == empty
            and o_lower(full, granules).issubset(full)
            and o_upper(full, granules).issubset(full)
        )
    if axiom == "TB":
        return all(empty.issubset(a) and a.issubset(full) for a in space)
    if axiom == "lclu":
        if desc.clusters is None:
            raise MsslabError("oracle lclu needs clusters")
        return all(o_lower(c, granules) in desc.clusters for c in desc.clusters)
    if axiom == "admissible-representable":
        unions = o_granule_unions(granules)
        return all(
            o_lower(a, granules) in unions and o_upper(a, granules) in unions for a in space
        )
    if axiom == "admissible-granules-lower-definite":
        return all(o_lower(g, granules) == g for g in granules)
    if axiom == "admissible-pairs-in-definite":
        definite = [
            d for d in space if o_lower(d, granules) == d and o_upper(d, granules) == d
        ]
        return all(
            any((g1 | g2).issubset(d) for d in definite)
            for g1, g2 in combinations(granules, 2)
        )
    if axiom in ("i-coh", "n-coh", "i-coh-2", "strict-n-coh", "trans-1"):
        return o_coherence_holds(desc, axiom)
    if axiom in ORACLE_SUM_AXIOMS:
        return o_sum_law_holds(desc, axiom)
    raise MsslabError(f"oracle has no axiom {axiom!r}")


def o_coherence_holds(desc: StructureDescription, axiom: str) -> bool:
    space = powerset(desc.elements)
    d = o_delta(desc)
    if axiom == "i-coh":
        return all(d(b, b, a) for a in space for b in space)
    if axiom == "n-coh":
        return all(
            d(b, a, c)
            for a in space
            for b in space
            for c in space
            if d(a, b, c)
        )
    if axiom == "i-coh-2":
        return all(not d(a, b, b) for a in space for b in space)
    if axiom == "strict-n-coh":
        return all(
            not d(a, c, b)
            for a in space
            for b in space
            for c in space
            if d(a, b, c)
        )
    if axiom == "trans-1":
        for a in space:
            for b in space:
                for c in space:
                    for e in space:
                        if d(a, b, c) and d(a, e, b) and d(a, e, c):
                            return False
        return True
    raise MsslabError(f"oracle has no coherence axiom {axiom!r}")


def o_sum_law_holds(desc: StructureDescription, axiom: str) -> bool:
    """One sum law; None stands for an undefined sum.

    omega-star-com asks for strong equality (undefined on both sides
    counts as equal); omega-id and omega-asso for conditional equality
    (equal whenever both sides are defined). A delta-sum law asks nothing
    of a triple outside delta or whose squared sum is undefined.
    """
    space = powerset(desc.elements)
    s = o_sum(desc)
    if axiom == "omega-star-com":
        return all(s(a, b) == s(b, a) for a in space for b in space)
    if axiom == "omega-id":
        return all(s(a, a) in (None, a) for a in space)
    if axiom == "omega-asso":
        for a in space:
            for b in space:
                for c in space:
                    ab, bc = s(a, b), s(b, c)
                    if ab is None or bc is None:
                        continue
                    left, right = s(a, bc), s(ab, c)
                    if left is not None and right is not None and left != right:
                        return False
        return True
    if axiom in ("delta-sum1", "delta-sum2", "delta-sum3"):
        if desc.delta_kind is None:
            raise MsslabError(f"oracle {axiom} needs a nearness predicate")
        d = o_delta(desc)
        position = int(axiom[-1]) - 1  # delta-sumK squares the K-th argument
        for triple in product(space, repeat=3):
            if not d(*triple):
                continue
            squared = s(triple[position], triple[position])
            if squared is None:
                continue
            moved = list(triple)
            moved[position] = squared
            if not d(*moved):
                return False
        return True
    raise MsslabError(f"oracle has no sum axiom {axiom!r}")


def o_compatible(desc: StructureDescription, mode: str) -> bool:
    if desc.clusters is None:
        raise MsslabError("oracle compatibility needs clusters")
    d = o_delta(desc)
    clusters = desc.clusters
    if mode == "overlap-closer":
        for a in clusters:
            for b in clusters:
                if b == a or not (a & b):
                    continue
                for c in clusters:
                    if c == a or c == b or (a & c):
                        continue
                    if not d(a, b, c):
                        return False
        return True
    if mode == "clue-singleton":
        for cluster in clusters:
            for x in cluster:
                for y in cluster:
                    for z in frozenset(desc.elements) - cluster:
                        if not d(frozenset([x]), frozenset([y]), frozenset([z])):
                            return False
        return True
    raise MsslabError(f"oracle has no compatibility mode {mode!r}")


def o_deficits(c, granules):
    """(lower deficit, upper deficit); None marks an undefined difference."""
    lc = o_lower(c, granules)
    uc = o_upper(c, granules)
    lower_def = o_upper(c - lc, granules) if lc.issubset(c) else None
    upper_def = o_upper(uc - c, granules) if c.issubset(uc) else None
    return lower_def, upper_def


def o_pre_valid_search(c, granules, space) -> tuple[bool, bool]:
    """(some V has l(V) = C, some V has u(V) = C), by scanning ``space``."""
    l_found = any(o_lower(v, granules) == c for v in space)
    u_found = any(o_upper(v, granules) == c for v in space)
    return l_found, u_found


def o_claim(desc: StructureDescription, claim: str) -> bool:
    """Registered whole-structure claims, each a direct exhaustive sweep."""
    space = powerset(desc.elements)
    granules = desc.granules
    if claim == "l-pre-valid-closed-form":
        for c in space:
            searched, _ = o_pre_valid_search(c, granules, space)
            if searched != (o_lower(c, granules) == c):
                return False
        return True
    if claim == "u-pre-valid-closed-form":
        for c in space:
            _, searched = o_pre_valid_search(c, granules, space)
            inside = frozenset(
                x for x in desc.elements if o_upper(frozenset([x]), granules).issubset(c)
            )
            if searched != (o_upper(inside, granules) == c):
                return False
        return True
    if claim == "upper-additivity":
        for a in space:
            for b in space:
                if o_upper(a | b, granules) != o_upper(a, granules) | o_upper(b, granules):
                    return False
        return True
    if claim == "proposition-def2":
        for c in space:
            lower_def, upper_def = o_deficits(c, granules)
            if lower_def is not None:
                if not any(v == o_lower(c, granules) for v in space):
                    return False
            if upper_def is not None:
                if not any(v == o_upper(c, granules) for v in space):
                    return False
        return True
    if claim.startswith("axiom:"):
        return o_axiom_holds(desc, claim.split(":", 1)[1])
    if claim.startswith("compatibility:"):
        return o_compatible(desc, claim.split(":", 1)[1])
    raise MsslabError(f"unknown oracle claim {claim!r}")
