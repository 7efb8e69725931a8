"""The ternary nearness predicate, the partial sum, and their law evaluators.

A nearness predicate reads "a is closer to b than to c". Every kind but
the extensional one compares two keys, "key(a, b) R key(a, c)" with R one
of ⊆, ⊊ and ⊋ (``KEYED_KINDS``); extensional predicates are given by an
explicit triple table. The coherence and sum laws are evaluated here on
masks and swept by ``structure.check_axiom``, which decides the laws of
``CUBE_AXIOMS``, every coherence and delta-sum law, on the predicate's
cube of rows (``DeltaPredicate.plane``) instead whenever its 2²ⁿ rows fit
the budget. A plane is built from the keys, or read off the table, with
no call of the predicate. i-coh and i-coh-2 read only the diagonal cells
of the cube. A sum of ``UNION_SUMS`` is the union wherever it is
defined, so the omega laws are theorems there.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Mapping, Optional

from .errors import ConfigurationError, MsslabError, UniverseMismatchError
from .granules import Granulation
from .sets import UNDEFINED, PartialResult, Subset, Universe, encode
from .verdicts import FAILS, HOLDS, VACUOUS, Verdict

BUILTIN_DELTAS = ("E0", "E1", "E2", "uE1")
# The laws decided on the 2²ⁿ rows of delta's cube, built once and shared by
# all: every coherence and delta-sum law.
CUBE_AXIOMS = (
    "i-coh",
    "n-coh",
    "i-coh-2",
    "strict-n-coh",
    "trans-1",
    "delta-sum1",
    "delta-sum2",
    "delta-sum3",
)
# The sum modes that are the union of their arguments wherever they are defined.
UNION_SUMS = ("total-union", "granular-sum")

EXTENSIONAL_TABLE_LIMIT = 6


def _union(d):
    return operator.or_


def _upper_of_union(d):
    upper = d.granulation.upper_table
    return lambda a, x: upper[a | x]


def _lower_of_meet(d):
    lower = d.granulation.lower_table
    return lambda a, x: lower[a & x]


def _nearness(d):
    return d.nearness


# Each kind but "extensional" holds at (a, b, c) iff key(a, b) R key(a, c):
# the key on masks, built from the predicate, and R.
KEYED_KINDS = {
    "E0": (_union, "⊆"),
    "E1": (_union, "⊊"),
    "uE1": (_upper_of_union, "⊆"),
    "E2": (_lower_of_meet, "⊋"),
    "def0": (_nearness, "⊆"),
}


class DeltaPredicate:
    """Ternary predicate over subsets; total on the powerset cube.

    Every kind is defined once, by its key and relation in ``KEYED_KINDS``
    or by its table; ``masked`` and ``plane`` both read that definition.
    Calling the predicate on subsets encodes them and evaluates ``masked``.
    """

    __slots__ = ("universe", "kind", "granulation", "nearness", "table", "_masked", "_cube")

    def __init__(self, universe, kind, granulation=None, nearness=None, table=None):
        self.universe = universe
        self.kind = kind
        self.granulation = granulation
        self.nearness = nearness
        self.table = table
        self._masked = None
        self._cube = None

    @classmethod
    def builtin(
        cls, name: str, universe: Universe, granulation: Optional[Granulation] = None
    ) -> "DeltaPredicate":
        """A builtin predicate; E2 and uE1 read l and u of ``granulation``,
        the others ignore it."""
        if name not in BUILTIN_DELTAS:
            raise ConfigurationError(f"unknown builtin delta {name!r}; expected one of {BUILTIN_DELTAS}")
        if name in ("E2", "uE1") and granulation is None:
            raise ConfigurationError(f"delta {name} needs a granulation")
        if granulation is not None and granulation.universe != universe:
            raise UniverseMismatchError("granulation universe differs from the predicate's")
        return cls(universe, name, granulation=granulation)

    @classmethod
    def extensional_from_masks(
        cls, universe: Universe, mask_triples: Iterable[tuple[int, int, int]]
    ) -> "DeltaPredicate":
        """The predicate true exactly on the listed (a, b, c) mask triples."""
        if universe.size > EXTENSIONAL_TABLE_LIMIT:
            raise ConfigurationError(
                f"extensional tables admitted only for universes of size <= {EXTENSIONAL_TABLE_LIMIT}"
            )
        return cls(universe, "extensional", table=frozenset(mask_triples))

    @classmethod
    def from_nearness(
        cls, universe: Universe, table: Optional[Mapping[tuple[int, int], int]] = None
    ) -> "DeltaPredicate":
        """The def0-style predicate: delta(a,b,c) iff f(a,b) is part of f(a,c).

        f is a map on masks: the total ``table`` of (a, b) pairs, or union
        when no table is given.
        """
        if table is None:
            return cls(universe, "def0", nearness=operator.or_)
        size = 1 << universe.size
        if len(table) != size * size:
            raise ConfigurationError(
                f"nearness table must be total: expected {size * size} pairs, got {len(table)}"
            )
        table = dict(table)
        return cls(universe, "def0", nearness=lambda a, b: table[(a, b)])

    def sorted_table(self) -> tuple[tuple[int, int, int], ...]:
        """Canonical serialization order for extensional tables."""
        if self.table is None:
            raise ConfigurationError("predicate has no extensional table")
        return tuple(sorted(self.table))

    def masked(self) -> Callable[[int, int, int], bool]:
        """The predicate on masks, compiled at the first call from the
        kind's key and relation (``KEYED_KINDS``), or from its table."""
        if self._masked is None:
            self._masked = self._compile()
        return self._masked

    def _compile(self) -> Callable[[int, int, int], bool]:
        if self.kind == "extensional":
            table = self.table
            return lambda a, b, c: (a, b, c) in table
        key, relation = self._keyed()
        if relation == "⊆":
            return lambda a, b, c: not key(a, b) & ~key(a, c)
        if relation == "⊊":
            return lambda a, b, c: (kb := key(a, b)) != (kc := key(a, c)) and not kb & ~kc
        return lambda a, b, c: (kb := key(a, b)) != (kc := key(a, c)) and not kc & ~kb

    def _keyed(self) -> tuple[Callable[[int, int], int], str]:
        if self.kind not in KEYED_KINDS:
            raise ConfigurationError(f"unknown delta kind {self.kind!r}")
        build, relation = KEYED_KINDS[self.kind]
        return build(self), relation

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
            key, relation = self._keyed()
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
    """Partial aggregation of subsets.

    Modes: ``total-union`` is always defined; ``granular-sum`` is defined
    exactly when the union is itself a union of granules; an
    ``extensional-partial`` table lists the defined pairs.
    """

    __slots__ = ("universe", "mode", "granulation", "table", "_masked")

    def __init__(self, universe, mode, granulation=None, table=None):
        self.universe = universe
        self.mode = mode
        self.granulation = granulation
        self.table = table
        self._masked = None

    @classmethod
    def total_union(cls, universe: Universe) -> "SumOperation":
        return cls(universe, "total-union")

    @classmethod
    def granular(cls, g: Granulation) -> "SumOperation":
        return cls(g.universe, "granular-sum", granulation=g)

    @classmethod
    def extensional(
        cls, universe: Universe, table: Mapping[tuple[int, int], int]
    ) -> "SumOperation":
        return cls(universe, "extensional-partial", table=dict(table))

    def masked(self) -> Callable[[int, int], int]:
        """The sum on masks, ``UNDEFINED`` where it is undefined; compiled
        at the first call."""
        if self._masked is None:
            self._masked = self._compile()
        return self._masked

    def _compile(self) -> Callable[[int, int], int]:
        if self.mode == "total-union":
            return operator.or_
        if self.mode == "granular-sum":
            lower = self.granulation.lower_table

            def granular_sum(a, b):
                u = a | b
                return u if lower[u] == u else UNDEFINED

            return granular_sum
        if self.mode == "extensional-partial":
            get = self.table.get
            return lambda a, b: get((a, b), UNDEFINED)
        raise ConfigurationError(f"unknown sum mode {self.mode!r}")

    def __call__(self, a: Subset, b: Subset) -> PartialResult:
        if a.universe != self.universe or b.universe != self.universe:
            raise MsslabError("sum operands drawn from a different universe")
        value = self.masked()(a.mask, b.mask)
        if value == UNDEFINED:
            return PartialResult.undefined()
        return PartialResult.of(self.universe.from_mask(value))

    def __repr__(self):
        return f"SumOperation({self.mode})"


def coherence_evaluator(d: Callable[[int, int, int], bool], axiom: str):
    """One coherence law on masks, for the predicate ``d`` on masks.

    The evaluator returns True (satisfied), None (vacuously satisfied) or
    False (violated).
    """
    if axiom == "i-coh":
        return lambda a, b: d(b, b, a)
    if axiom == "n-coh":
        return lambda a, b, c: d(b, a, c) if d(a, b, c) else None
    if axiom == "i-coh-2":
        return lambda a, b: not d(a, b, b)
    if axiom == "strict-n-coh":
        return lambda a, b, c: not d(a, c, b) if d(a, b, c) else None
    if axiom == "trans-1":
        return lambda a, b, c, e: not d(a, e, c) if d(a, b, c) and d(a, e, b) else None
    raise MsslabError(f"unknown coherence axiom {axiom!r}")


def trans1_verdict(d: DeltaPredicate) -> Verdict:
    """trans-1 decided exactly on the rows of ``d`` (``d.plane``).

    For each ``a`` in turn, ``rows[b]`` is the mask of every ``c`` with
    d(a, b, c). The instance (a, b, c, e) is violated when c lies in
    ``rows[b]`` and in a row ``rows[e]`` that holds b, so the violating c
    for (a, b) are ``rows[b] & reach[b]``, where ``reach[b]`` is the union
    of the rows holding b. The verdict is the exhaustive sweep's: the
    least violating tuple as witness, its rank + 1 as the count, and
    holds/vacuous by whether any instance has a true antecedent.
    """
    universe = d.universe
    top = 1 << universe.size
    bits = [1 << c for c in range(top)]
    substantive = False
    for a in range(top):
        rows = d.plane(a)[0]
        reach = [0] * top
        # Equal rows add nothing to reach, and the b of one key share a row.
        for row in set(rows):
            rest = row
            while rest:
                low = rest & -rest
                reach[low.bit_length() - 1] |= row
                rest ^= low
        for b, row in enumerate(rows):
            bad = row & reach[b]
            if bad:
                c = (bad & -bad).bit_length() - 1
                pair = bits[b] | bits[c]
                e = next(e for e, held in enumerate(rows) if held & pair == pair)
                return Verdict(
                    "trans-1",
                    FAILS,
                    witnesses=(tuple(map(universe.from_mask, (a, b, c, e))),),
                    instances_checked=((a * top + b) * top + c) * top + e + 1,
                )
            substantive = substantive or bool(row and reach[b])
    return Verdict("trans-1", HOLDS if substantive else VACUOUS, instances_checked=top**4)


def diagonal_verdict(axiom: str, d: DeltaPredicate) -> Verdict:
    """i-coh or i-coh-2 decided exactly on the diagonal cells of ``d``'s cube.

    The instance (a, b) of i-coh reads d(b, b, a), bit a of
    ``own[b] = d.plane(b)[0][b]``: the law holds iff the AND of every
    ``own`` is full, and first fails at its lowest missing bit a and the
    first b whose ``own`` lacks it. The instance (a, b) of i-coh-2 fails
    when d(a, b, b), bit b of ``d.plane(a)[0][b]``; the planes are read
    in order of a, so a failure reads no plane past its own. The verdict
    is the exhaustive sweep's: the least violating (a, b) as witness and
    its rank + 1 as the count. Every instance of both laws is
    substantive, so a law that never fails holds.
    """
    top = 1 << d.universe.size
    found = None
    if axiom == "i-coh":
        own = [d.plane(b)[0][b] for b in range(top)]
        full = common = (1 << top) - 1
        for row in own:
            common &= row
        missing = full ^ common
        if missing:
            a = (missing & -missing).bit_length() - 1
            found = a, next(b for b, row in enumerate(own) if not row >> a & 1)
    elif axiom == "i-coh-2":
        for a in range(top):
            b = next((b for b, row in enumerate(d.plane(a)[0]) if row >> b & 1), None)
            if b is not None:
                found = a, b
                break
    else:
        raise MsslabError(f"axiom {axiom!r} is not decided on the cube's diagonal")
    if found is None:
        return Verdict(axiom, HOLDS, instances_checked=top**2)
    a, b = found
    return Verdict(
        axiom,
        FAILS,
        witnesses=(tuple(map(d.universe.from_mask, found)),),
        instances_checked=a * top + b + 1,
    )


def sum_evaluator(
    d: Optional[Callable[[int, int, int], bool]],
    s: Callable[[int, int], int],
    axiom: str,
):
    """One sum law on masks, for the sum ``s`` and predicate ``d`` on masks.

    Partial values are compared by conditional equality (both defined
    implies equal) except in omega-star-com, which asks for strong
    equality. The delta-sum laws pass vacuously when the antecedent fails
    or the squared sum is undefined.
    """
    if axiom == "omega-star-com":
        # Undefined is one value, so strong equality is plain equality.
        return lambda a, b: s(a, b) == s(b, a)
    if axiom == "omega-id":

        def omega_id(a):
            aa = s(a, a)
            return aa == UNDEFINED or aa == a

        return omega_id
    if axiom == "omega-asso":

        def omega_asso(a, b, c):
            bc = s(b, c)
            if bc == UNDEFINED:
                return True
            ab = s(a, b)
            if ab == UNDEFINED:
                return True
            left, right = s(a, bc), s(ab, c)
            return left == UNDEFINED or right == UNDEFINED or left == right

        return omega_asso
    if axiom == "delta-sum1":

        def delta_sum1(a, b, c):
            if not d(a, b, c):
                return None
            aa = s(a, a)
            return None if aa == UNDEFINED else d(aa, b, c)

        return delta_sum1
    if axiom == "delta-sum2":

        def delta_sum2(a, b, c):
            if not d(a, b, c):
                return None
            bb = s(b, b)
            return None if bb == UNDEFINED else d(a, bb, c)

        return delta_sum2
    if axiom == "delta-sum3":

        def delta_sum3(a, b, c):
            if not d(a, b, c):
                return None
            cc = s(c, c)
            return None if cc == UNDEFINED else d(a, b, cc)

        return delta_sum3
    raise MsslabError(f"unknown sum axiom {axiom!r}")


def cube_verdict(
    axiom: str, d: DeltaPredicate, s: Optional[Callable[[int, int], int]] = None
) -> Verdict:
    """A law of ``CUBE_AXIOMS`` decided exactly on the rows of ``d``.

    trans-1 is decided by ``trans1_verdict``, and i-coh and i-coh-2 by
    ``diagonal_verdict``; neither builds a plane it does not read.
    ``s`` is the sum on masks, for the delta-sum laws. For each (a, b),
    with ``rows[a], cols[a] = d.plane(a)`` and ``row = rows[a][b]``, the
    mask of violating c is:

    - n-coh: ``row & ~rows[b][a]``;
    - strict-n-coh: ``row & cols[a][b]``;
    - delta-sum1: ``row & ~rows[s(a, a)][b]``, where s(a, a) is defined;
    - delta-sum2: ``row & ~rows[a][s(b, b)]``, where s(b, b) is defined;
    - delta-sum3: the c in ``row`` whose s(c, c) is defined and not in ``row``.

    The verdict is the exhaustive sweep's: the least violating (a, b, c)
    as witness, its rank + 1 as the count, and holds/vacuous by whether
    any instance has a true antecedent (and a defined squared sum). When
    no defined square s(x, x) moves its argument, as under every sum of
    ``UNION_SUMS``, each delta-sum consequent is its antecedent: the law
    cannot fail, and the first substantive instance decides it.
    """
    if axiom == "trans-1":
        return trans1_verdict(d)
    if axiom in ("i-coh", "i-coh-2"):
        return diagonal_verdict(axiom, d)
    top = 1 << d.universe.size
    rows, cols = zip(*map(d.plane, range(top)))
    diag = [s(x, x) for x in range(top)] if axiom.startswith("delta-sum") else None
    fixed = diag is not None and all(xx in (x, UNDEFINED) for x, xx in enumerate(diag))
    # cells(a) gives, for each b of plane a, the live antecedent mask and
    # the mask of violating c.
    if axiom == "n-coh":

        def cells(a):
            return rows[a], [row & ~rows[b][a] for b, row in enumerate(rows[a])]

    elif axiom == "strict-n-coh":

        def cells(a):
            return rows[a], [row & col for row, col in zip(rows[a], cols[a])]

    elif axiom == "delta-sum1":

        def cells(a):
            aa = diag[a]
            if aa == UNDEFINED:
                return (), ()
            return rows[a], [row & ~then for row, then in zip(rows[a], rows[aa])]

    elif axiom == "delta-sum2":

        def cells(a):
            rows_a = rows[a]
            live = [0 if bb == UNDEFINED else row for row, bb in zip(rows_a, diag)]
            # An empty live row reads no square, defined or not.
            return live, [row and row & ~rows_a[bb] for row, bb in zip(live, diag)]

    elif axiom == "delta-sum3":
        defined = sum(1 << c for c, cc in enumerate(diag) if cc != UNDEFINED)
        # A c that s(c, c) keeps never violates, so only the moved c are read.
        moves = [(c, cc) for c, cc in enumerate(diag) if cc not in (UNDEFINED, c)]

        def cells(a):
            live = [row & defined for row in rows[a]]
            if not moves:
                return live, ()
            return live, [
                sum(1 << c for c, cc in moves if row >> c & 1 and not row >> cc & 1)
                for row in rows[a]
            ]

    else:
        raise MsslabError(f"axiom {axiom!r} is not decided on the delta cube")

    substantive = False
    for a in range(top):
        live, bad = cells(a)
        if any(bad):
            b, mask = next((b, mask) for b, mask in enumerate(bad) if mask)
            c = (mask & -mask).bit_length() - 1
            return Verdict(
                axiom,
                FAILS,
                witnesses=(tuple(map(d.universe.from_mask, (a, b, c))),),
                instances_checked=(a * top + b) * top + c + 1,
            )
        if any(live):
            if fixed:
                return Verdict(axiom, HOLDS, instances_checked=top**3)
            substantive = True
    return Verdict(axiom, HOLDS if substantive else VACUOUS, instances_checked=top**3)
