"""Binary relations, neighborhood granulations, and rough approximation operators.

A granulation is built from granule masks and holds them as masks. The
lower approximation of A is the union of granules included in A; the
upper approximation is the union of granules meeting A. Both are defined
once per granulation, on subset masks, as the memo tables
``Granulation.lower_table`` and ``upper_table``; every layer that reads
l or u (``Granulation.lower``/``upper`` on subsets, the validity grades,
the axiom sweeps, E2/uE1, the granular sum) reads those two tables.
"""

from __future__ import annotations

from typing import Iterable

from .errors import MsslabError, UniverseMismatchError
from .sets import Subset, Universe, nonempty_masks


class BinaryRelation:
    """Set of ordered pairs over a universe, held as index pairs."""

    __slots__ = ("universe", "pairs")

    def __init__(self, universe: Universe, pairs: Iterable[tuple[str, str]] = ()):
        idx = set()
        for a, b in pairs:
            idx.add((universe.index(a), universe.index(b)))
        self.universe = universe
        self.pairs = frozenset(idx)

    @classmethod
    def from_indices(cls, universe: Universe, pairs: Iterable[tuple[int, int]]):
        pairs = frozenset(pairs)
        n = universe.size
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise MsslabError(f"pair index ({i},{j}) outside universe of size {n}")
        rel = cls(universe)
        rel.pairs = pairs
        return rel

    def named_pairs(self) -> tuple[tuple[str, str], ...]:
        names = self.universe.elements
        return tuple(sorted((names[i], names[j]) for i, j in self.pairs))

    def has(self, a: str, b: str) -> bool:
        return (self.universe.index(a), self.universe.index(b)) in self.pairs

    @property
    def is_reflexive(self) -> bool:
        return all((i, i) in self.pairs for i in range(self.universe.size))

    @property
    def is_symmetric(self) -> bool:
        return all((j, i) in self.pairs for i, j in self.pairs)

    @property
    def is_transitive(self) -> bool:
        by_first = {}
        for i, j in self.pairs:
            by_first.setdefault(i, set()).add(j)
        for i, j in self.pairs:
            for k in by_first.get(j, ()):
                if (i, k) not in self.pairs:
                    return False
        return True

    @property
    def is_tolerance(self) -> bool:
        return self.is_reflexive and self.is_symmetric

    def __eq__(self, other):
        return (
            isinstance(other, BinaryRelation)
            and self.universe == other.universe
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((self.universe.elements, self.pairs))

    def __repr__(self):
        return f"BinaryRelation({self.named_pairs()!r})"


def close_relation(
    r: BinaryRelation,
    *,
    reflexive: bool = False,
    symmetric: bool = False,
    transitive: bool = False,
) -> BinaryRelation:
    """Smallest superset of ``r`` closed under the requested properties.

    One pass suffices: the transitive closure of a reflexive or symmetric
    relation is again reflexive or symmetric, so transitivity goes last.
    """
    pairs = set(r.pairs)
    n = r.universe.size
    if reflexive:
        pairs.update((i, i) for i in range(n))
    if symmetric:
        pairs.update([(j, i) for i, j in pairs])
    if transitive:
        # Warshall: after round k, every path through 0..k has its shortcut.
        for k in range(n):
            into = [i for i in range(n) if (i, k) in pairs]
            out = [j for j in range(n) if (k, j) in pairs]
            pairs.update((i, j) for i in into for j in out)
    return BinaryRelation.from_indices(r.universe, pairs)


class _GranuleTable(dict):
    """An approximation operator on masks, filled as it is read: an entry
    is computed at its first lookup, so a table never outgrows the masks
    actually read."""

    __slots__ = ("granules",)

    def __init__(self, granules: tuple[int, ...]):
        super().__init__()
        self.granules = granules


class _LowerTable(_GranuleTable):
    """l: ``table[a]`` is the union of the granules included in ``a``."""

    __slots__ = ()

    def __missing__(self, a: int) -> int:
        out = 0
        for g in self.granules:
            if not g & ~a:
                out |= g
        self[a] = out
        return out


class _UpperTable(_GranuleTable):
    """u: ``table[a]`` is the union of the granules meeting ``a``."""

    __slots__ = ()

    def __missing__(self, a: int) -> int:
        out = 0
        for g in self.granules:
            if g & a:
                out |= g
        self[a] = out
        return out


class Granulation:
    """Ordered collection of nonempty granule masks; duplicates collapse to one.

    ``lower_table`` and ``upper_table`` are l and u on masks, shared by
    every reader of this granulation; ``lower`` and ``upper`` read them
    on subsets.
    """

    __slots__ = ("universe", "granules", "notes", "lower_table", "upper_table")

    def __init__(self, universe: Universe, granules: Iterable[int], notes=()):
        given = nonempty_masks(universe, granules, "granule")
        kept = tuple(dict.fromkeys(given))
        notes = list(notes)
        if len(kept) < len(given):
            notes.append(f"collapsed {len(given) - len(kept)} duplicate granule(s)")
        self.universe = universe
        self.granules = kept
        self.notes = tuple(notes)
        self.lower_table = _LowerTable(kept)
        self.upper_table = _UpperTable(kept)

    def _read(self, table: dict, a: Subset) -> Subset:
        if a.universe != self.universe:
            raise UniverseMismatchError("subset and granulation universes differ")
        return Subset(self.universe, table[a.mask])

    def lower(self, a: Subset) -> Subset:
        """Union of the granules included in ``a``."""
        return self._read(self.lower_table, a)

    def upper(self, a: Subset) -> Subset:
        """Union of the granules meeting ``a``."""
        return self._read(self.upper_table, a)

    def is_union_of_granules(self, a: Subset) -> bool:
        """True when ``a`` equals some union of granules (the empty union for ∅)."""
        return self.lower(a) == a

    def __len__(self):
        return len(self.granules)

    def __iter__(self):
        return iter(self.granules)

    def __eq__(self, other):
        return (
            isinstance(other, Granulation)
            and self.universe == other.universe
            and self.granules == other.granules
        )

    def __hash__(self):
        return hash((self.universe.elements, self.granules))

    def __repr__(self):
        return f"Granulation({list(map(self.universe.from_mask, self.granules))!r})"


def predecessor_granulation(r: BinaryRelation) -> Granulation:
    """Granules n(x) = {y : (y, x) in r}, listed in generator order.

    Empty neighborhoods are skipped with a note; a non-reflexive input
    gets a note too, since generators then need not belong to their granule.
    """
    universe = r.universe
    notes = []
    granules = []
    for x in range(universe.size):
        mask = 0
        for y, x2 in r.pairs:
            if x2 == x:
                mask |= 1 << y
        if mask == 0:
            notes.append(f"empty neighborhood of {universe.elements[x]} skipped")
            continue
        granules.append(mask)
    if not r.is_reflexive:
        notes.append("relation is not reflexive; predecessor granules may miss their generators")
    return Granulation(universe, granules, notes)


def is_definite(a: Subset, g: Granulation) -> bool:
    """A set equal to both of its approximations."""
    return g.lower(a) == a and g.upper(a) == a
