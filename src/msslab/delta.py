"""The ternary nearness predicate, the partial sum, and the cube of rows.

A nearness predicate reads "a is closer to b than to c". Every kind but
the extensional one compares two keys, "key(a, b) R key(a, c)" with R one
of ⊆, ⊊ and ⊋ (``KEYED_KINDS``); extensional predicates are given by an
explicit triple table. The coherence and sum laws are evaluated on masks
by the kernels of ``kernels`` and swept by ``structure.check_axiom``,
which decides the laws that read δ, every coherence and delta-sum law,
on the predicate's cube of rows (``DeltaPredicate.plane``) instead
whenever its 2²ⁿ rows fit the budget (``kernels.cube_verdict``). Each
constructor builds a predicate's key, R and mask function, or a sum's
mask function, once. A plane is built from the keys, or read off the
table, with no call of the predicate, when a law's walk first reaches
it. A sum of ``laws.UNION_SUMS`` is the union wherever it is defined, so
the omega laws are theorems there. E2 and uE1 read the l and u tables of a
granulation through their key, and record that granulation, as a
granular sum does, so that a structure binds them only over it.
"""
from __future__ import annotations

import operator
from itertools import chain
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Optional

from .errors import ConfigurationError, UniverseMismatchError
from .granules import Granulation
from .laws import BUILTIN_DELTAS, EXTENSIONAL_TABLE_LIMIT, EXTENSIONAL_TABLE_REFUSED
from .sets import Subset, Universe, check_mask, encode


def _check_rows(universe: Universe, rows: Collection[tuple]) -> None:
    """Refuse a table unless each row, a triple or a nearness or sum entry
    read as (a, b, value), is three masks of ``universe``."""
    if set(map(len, rows)) - {3}:
        row = next(r for r in rows if len(r) != 3)
        raise ConfigurationError(f"table row {row!r} is not three masks")
    for mask in set(chain.from_iterable(rows)):  # each distinct mask once
        check_mask(universe, mask)


def _union(g):
    return operator.or_


def _upper_of_union(g):
    upper = g.upper_table
    return lambda a, x: upper[a | x]


def _lower_of_meet(g):
    lower = g.lower_table
    return lambda a, x: lower[a & x]


class KeyedKind(NamedTuple):
    """A kind that holds at (a, b, c) iff key(a, b) R key(a, c): R, the
    maker of the key on masks from a granulation, and whether the kind
    needs one."""

    relation: str
    make_key: Optional[Callable[[Granulation], Callable[[int, int], int]]]
    granular: bool


KEYED_KINDS = {
    "E0": KeyedKind("⊆", _union, False),
    "E1": KeyedKind("⊊", _union, False),
    "uE1": KeyedKind("⊆", _upper_of_union, True),
    "E2": KeyedKind("⊋", _lower_of_meet, True),
    "def0": KeyedKind("⊆", None, False),  # the key is the map given to from_nearness
}


class DeltaPredicate:
    """Ternary predicate over subsets; total on the powerset cube.

    Every kind is defined once, by its row of ``KEYED_KINDS`` or by its
    table. Each constructor builds the predicate's key, R and mask
    function once. ``masked`` returns the mask function and ``plane``
    reads the key and R. Calling the predicate on subsets encodes them
    and evaluates ``masked``.
    """

    __slots__ = ("universe", "kind", "table", "granulation", "_key", "_relation", "_masked", "_cube")

    def __init__(self, universe, kind, key=None, relation=None, table=None, granulation=None):
        self.universe = universe
        self.kind = kind
        self.table = table
        self.granulation = granulation
        self._key = key
        self._relation = relation
        self._cube = None
        if table is not None:
            self._masked = lambda a, b, c: (a, b, c) in table
        elif relation == "⊆":
            self._masked = lambda a, b, c: not key(a, b) & ~key(a, c)
        elif relation == "⊊":
            self._masked = lambda a, b, c: (kb := key(a, b)) != (kc := key(a, c)) and not kb & ~kc
        else:
            self._masked = lambda a, b, c: (kb := key(a, b)) != (kc := key(a, c)) and not kc & ~kb

    @classmethod
    def builtin(
        cls, name: str, universe: Universe, granulation: Optional[Granulation] = None
    ) -> "DeltaPredicate":
        """A builtin predicate; E2 and uE1 read l and u of ``granulation``,
        the others ignore it."""
        if name not in BUILTIN_DELTAS:
            raise ConfigurationError(f"unknown builtin delta {name!r}; expected one of {BUILTIN_DELTAS}")
        relation, make_key, granular = KEYED_KINDS[name]
        if granular and granulation is None:
            raise ConfigurationError(f"delta {name} needs a granulation")
        if granulation is not None and granulation.universe != universe:
            raise UniverseMismatchError("granulation universe differs from the predicate's")
        granulation = granulation if granular else None
        return cls(universe, name, make_key(granulation), relation, granulation=granulation)

    @classmethod
    def extensional_from_masks(
        cls, universe: Universe, mask_triples: Iterable[tuple[int, int, int]]
    ) -> "DeltaPredicate":
        """The predicate true exactly on the listed (a, b, c) mask triples."""
        if universe.size > EXTENSIONAL_TABLE_LIMIT:
            raise ConfigurationError(EXTENSIONAL_TABLE_REFUSED)
        table = frozenset(mask_triples)
        _check_rows(universe, table)
        return cls(universe, "extensional", table=table)

    @classmethod
    def from_nearness(
        cls, universe: Universe, table: Optional[Mapping[tuple[int, int], int]] = None
    ) -> "DeltaPredicate":
        """The def0-style predicate: delta(a,b,c) iff f(a,b) is part of f(a,c).

        f is a map on masks: the total ``table`` of (a, b) pairs, or union
        when no table is given.
        """
        relation = KEYED_KINDS["def0"].relation
        if table is None:
            return cls(universe, "def0", operator.or_, relation)
        size = 1 << universe.size
        if len(table) != size * size:
            raise ConfigurationError(
                f"nearness table must be total: expected {size * size} pairs, got {len(table)}"
            )
        table = dict(table)
        _check_rows(universe, [(*pair, f) for pair, f in table.items()])
        return cls(universe, "def0", lambda a, b: table[(a, b)], relation)

    def masked(self) -> Callable[[int, int, int], bool]:
        """The predicate on masks, built by its constructor."""
        return self._masked

    def plane(self, a: int) -> tuple[list[int], list[int]]:
        """Plane ``a`` of the predicate's cube, ``(rows, cols)``, built at its
        first call and kept; no call of the predicate fills it.

        ``rows[b]`` is the mask of every c with d(a, b, c) and ``cols[b]``
        the mask of every c with d(a, c, b). The c are grouped by their
        key(a, c); ``rows[b]`` and ``cols[b]`` are the union of the groups
        whose key R relates to key(a, b), from the right or from the left.
        Every b of one group shares them. An extensional predicate's first
        plane call reads its table once into every plane.
        """
        if self._cube is None:
            top = 1 << self.universe.size
            if self.kind == "extensional":
                self._cube = [([0] * top, [0] * top) for _ in range(top)]
                for x, b, c in self.table:
                    rows, cols = self._cube[x]
                    rows[b] |= 1 << c
                    cols[c] |= 1 << b
            else:
                self._cube = [None] * top
        if self._cube[a] is None:
            key, relation = self._key, self._relation
            top = len(self._cube)
            keys = [key(a, x) for x in range(top)]
            groups = {}
            for x, k in enumerate(keys):
                groups[k] = groups.get(k, 0) | 1 << x
            # holding[t] is the mask of the c whose key holds element t. A key
            # contains k when it holds every element of k, and lies in k when
            # it holds no other; the groups are disjoint, so sums are unions.
            elements = range(self.universe.size)
            holding = [sum(g for k, g in groups.items() if k >> t & 1) for t in elements]
            full = (1 << top) - 1
            above, below = {}, {}
            for k, own in groups.items():
                up, outside = full, 0
                for t, held in enumerate(holding):
                    if k >> t & 1:
                        up &= held
                    else:
                        outside |= held
                if relation == "⊆":
                    own = 0  # equal keys are related
                above[k], below[k] = up - own, full - outside - own
            if relation == "⊋":  # d(a, b, c) when key(a, c) lies in key(a, b)
                above, below = below, above
            self._cube[a] = [above[k] for k in keys], [below[k] for k in keys]
        return self._cube[a]

    def __call__(self, a: Subset, b: Subset, c: Subset) -> bool:
        return self.masked()(*encode(self.universe, (a, b, c)))

    def __repr__(self):
        return f"DeltaPredicate({self.kind})"


class SumOperation:
    """Partial aggregation of subsets, compared and hashed by its universe,
    mode, granulation and table.

    Modes: ``total-union`` is always defined; ``granular-sum`` is defined
    exactly when the union is itself a union of granules; an
    ``extensional-partial`` table lists the defined pairs.
    """

    __slots__ = ("universe", "mode", "granulation", "table", "_masked")

    def __init__(self, universe, mode, masked, granulation=None, table=None):
        self.universe = universe
        self.mode = mode
        self.granulation = granulation
        self.table = table
        self._masked = masked

    @classmethod
    def total_union(cls, universe: Universe) -> "SumOperation":
        return cls(universe, "total-union", operator.or_)

    @classmethod
    def granular(cls, g: Granulation) -> "SumOperation":
        lower = g.lower_table

        def granular_sum(a, b):
            u = a | b
            return u if lower[u] == u else None

        return cls(g.universe, "granular-sum", granular_sum, granulation=g)

    @classmethod
    def extensional(
        cls, universe: Universe, table: Mapping[tuple[int, int], int]
    ) -> "SumOperation":
        table = dict(table)
        _check_rows(universe, [(*pair, value) for pair, value in table.items()])
        get = table.get
        return cls(universe, "extensional-partial", lambda a, b: get((a, b)), table=table)

    def masked(self) -> Callable[[int, int], Optional[int]]:
        """The sum on masks, None where it is undefined; built by its
        constructor."""
        return self._masked

    def __call__(self, a: Subset, b: Subset) -> Subset | None:
        """``a + b``, or None where the sum is undefined."""
        value = self.masked()(*encode(self.universe, (a, b)))
        return None if value is None else self.universe.from_mask(value)

    def __eq__(self, other):
        return (
            isinstance(other, SumOperation)
            and (self.universe, self.mode, self.granulation, self.table)
            == (other.universe, other.mode, other.granulation, other.table)
        )

    def __hash__(self):
        table = None if self.table is None else frozenset(self.table.items())
        return hash((self.universe.elements, self.mode, self.granulation, table))

    def __repr__(self):
        return f"SumOperation({self.mode})"
