"""Binary relations, neighborhood granulations, and rough approximation operators.

A relation is held as its predecessor columns, the mask of each
element's predecessor neighborhood: the form a relation search streams.
A granulation is built from granule masks and holds them as masks. The
lower approximation of A is the union of granules included in A; the
upper approximation is the union of granules meeting A. Both are defined
once per granulation, on subset masks, as two fills of one memo table
type: ``Granulation.lower_table`` and ``upper_table``. Every layer that
reads l or u (``Granulation.lower``/``upper`` on subsets, the validity
grades, the axiom sweeps, E2/uE1, the granular sum) reads those two
tables, through the structure slot or the predicate that holds the
granulation.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import MsslabError
from .sets import Subset, Universe, check_mask, encode


class BinaryRelation:
    """Set of ordered pairs over a universe, held as its predecessor
    columns: bit y of ``columns[x]`` is set when (y, x) is in the relation."""

    __slots__ = ("universe", "columns")

    def __init__(self, universe: Universe, pairs: Iterable[tuple[str, str]] = ()):
        index = universe.index
        self.universe = universe
        self.columns = _columns(universe.size, [(index(a), index(b)) for a, b in pairs])

    @classmethod
    def from_indices(cls, universe: Universe, pairs: Iterable[tuple[int, int]]):
        rel = cls(universe)
        rel.columns = _columns(universe.size, pairs)
        return rel

    def named_pairs(self) -> tuple[tuple[str, str], ...]:
        names = self.universe.names
        columns = zip(self.universe.elements, self.columns)
        return tuple(sorted((a, b) for b, column in columns for a in names(column)))

    @property
    def is_reflexive(self) -> bool:
        return all(column >> x & 1 for x, column in enumerate(self.columns))

    def __eq__(self, other):
        return (
            isinstance(other, BinaryRelation)
            and self.universe == other.universe
            and self.columns == other.columns
        )

    def __hash__(self):
        return hash((self.universe.elements, self.columns))

    def __repr__(self):
        return f"BinaryRelation({self.named_pairs()!r})"


def _columns(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The predecessor columns of index pairs on n elements."""
    columns = [0] * n
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise MsslabError(f"pair index ({i},{j}) outside universe of size {n}")
        columns[j] |= 1 << i
    return tuple(columns)


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
    columns = list(r.columns)
    n = len(columns)
    if reflexive:
        columns = [column | 1 << x for x, column in enumerate(columns)]
    if symmetric:
        # Column y of the transpose holds every x whose column holds y.
        columns = [
            columns[y] | sum(1 << x for x, column in enumerate(columns) if column >> y & 1)
            for y in range(n)
        ]
    if transitive:
        # Warshall: after round k, every path through 0..k has its shortcut.
        for k in range(n):
            for x in range(n):
                if columns[x] >> k & 1:
                    columns[x] |= columns[k]
    closed = BinaryRelation(r.universe)
    closed.columns = tuple(columns)
    return closed


class _Table(dict):
    """An operator on masks, filled as it is read: ``table[a]`` is
    ``fill(a)``, computed and stored at its first lookup, so a table never
    outgrows the masks actually read."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable[[int], int]):
        super().__init__()
        self.fill = fill

    def __missing__(self, a: int) -> int:
        out = self[a] = self.fill(a)
        return out


class Granulation:
    """Ordered collection of nonempty granule masks; duplicates collapse to one.

    ``lower_table`` and ``upper_table`` are l and u on masks, shared by
    every reader of this granulation; ``lower`` and ``upper`` read them
    on subsets.
    """

    __slots__ = ("universe", "granules", "notes", "lower_table", "upper_table")

    def __init__(self, universe: Universe, granules: Iterable[int], notes=()):
        given = tuple(granules)
        if not all(check_mask(universe, g) for g in given):
            raise MsslabError("granules must be nonempty")
        kept = tuple(dict.fromkeys(given))
        notes = list(notes)
        if len(kept) < len(given):
            notes.append(f"collapsed {len(given) - len(kept)} duplicate granule(s)")
        self.universe = universe
        self.granules = kept
        self.notes = tuple(notes)
        # The fills close over the granules, not over self: a granulation
        # and its tables then form no reference cycle.
        def lower(a: int) -> int:  # l: the union of the granules included in a
            out = 0
            for g in kept:
                if not g & ~a:
                    out |= g
            return out

        def upper(a: int) -> int:  # u: the union of the granules meeting a
            out = 0
            for g in kept:
                if g & a:
                    out |= g
            return out

        self.lower_table = _Table(lower)
        self.upper_table = _Table(upper)

    def _read(self, table: dict, a: Subset) -> Subset:
        return Subset(self.universe, table[encode(self.universe, (a,))[0]])

    def lower(self, a: Subset) -> Subset:
        """Union of the granules included in ``a``."""
        return self._read(self.lower_table, a)

    def upper(self, a: Subset) -> Subset:
        """Union of the granules meeting ``a``."""
        return self._read(self.upper_table, a)

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
    """Granules n(x) = {y : (y, x) in r}, the nonzero columns of ``r`` in
    generator order.

    Empty neighborhoods are skipped with a note; a non-reflexive input
    gets a note too, since generators then need not belong to their granule.
    """
    universe = r.universe
    notes = [
        f"empty neighborhood of {name} skipped"
        for name, column in zip(universe.elements, r.columns)
        if not column
    ]
    if not r.is_reflexive:
        notes.append("relation is not reflexive; predecessor granules may miss their generators")
    return Granulation(universe, [column for column in r.columns if column], notes)


def is_definite(a: Subset, g: Granulation) -> bool:
    """A set equal to both of its approximations."""
    return g.lower(a) == a and g.upper(a) == a
