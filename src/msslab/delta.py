"""The ternary nearness predicate, the partial sum, and their law evaluators.

A nearness predicate reads "a is closer to b than to c". Built-in
definitions compare unions or approximations of unions under inclusion;
extensional predicates are given by an explicit triple table. The
coherence and sum laws are evaluated here on masks and swept by
``structure.check_axiom``, which decides the laws of ``CUBE_AXIOMS`` on
the predicate's cube of rows (``DeltaPredicate.plane``) instead whenever
it fits its budget.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Mapping, Optional

from .errors import ConfigurationError, MsslabError, UniverseMismatchError
from .granules import Granulation
from .sets import UNDEFINED, PartialResult, Subset, Universe, encode
from .verdicts import FAILS, HOLDS, VACUOUS, Verdict

BUILTIN_DELTAS = ("E0", "E1", "E2", "uE1")
# The laws decided on the rows of delta, in 2³ⁿ calls of delta shared by all.
CUBE_AXIOMS = ("n-coh", "strict-n-coh", "trans-1", "delta-sum1", "delta-sum2", "delta-sum3")

EXTENSIONAL_TABLE_LIMIT = 6


class DeltaPredicate:
    """Ternary predicate over subsets; total on the powerset cube.

    Every kind is defined once, on masks (``masked``); calling the
    predicate on subsets encodes them and evaluates that definition.
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
        """The predicate on masks, compiled at the first call.

        E2 and uE1 read l and u from their granulation's tables.
        """
        if self._masked is None:
            self._masked = self._compile()
        return self._masked

    def _compile(self) -> Callable[[int, int, int], bool]:
        kind = self.kind
        if kind == "E0":
            return lambda a, b, c: not (a | b) & ~(a | c)
        if kind == "E1":
            return lambda a, b, c: (a | b) != (a | c) and not (a | b) & ~(a | c)
        if kind == "E2":
            lower = self.granulation.lower_table

            def e2(a, b, c):
                left, right = lower[a & c], lower[a & b]
                return left != right and not left & ~right

            return e2
        if kind == "uE1":
            upper = self.granulation.upper_table
            return lambda a, b, c: not upper[a | b] & ~upper[a | c]
        if kind == "def0":
            f = self.nearness
            return lambda a, b, c: not f(a, b) & ~f(a, c)
        if kind == "extensional":
            table = self.table
            return lambda a, b, c: (a, b, c) in table
        raise ConfigurationError(f"unknown delta kind {self.kind!r}")

    def plane(self, a: int) -> tuple[list[int], list[int]]:
        """Plane ``a`` of the predicate's cube, ``(rows, cols)``, built at its
        first call and kept.

        ``rows[b]`` is the mask of every c with d(a, b, c) and ``cols[b]``
        the mask of every c with d(a, c, b). One pass of 2²ⁿ calls of
        ``masked()`` fills both, so the whole cube costs 2³ⁿ calls, shared
        by every law that reads it.
        """
        if self._cube is None:
            self._cube = [None] * (1 << self.universe.size)
        if self._cube[a] is None:
            d, top = self.masked(), len(self._cube)
            bits = [1 << c for c in range(top)]
            rows = [sum(bit for c, bit in enumerate(bits) if d(a, b, c)) for b in range(top)]
            # cols is rows transposed as a bit matrix: written as binary
            # strings, most significant bit first, in reverse order, the rows
            # give zip the columns cols[top - 1], ..., cols[0].
            width = f"0{top}b"
            columns = zip(*(format(row, width) for row in reversed(rows)))
            self._cube[a] = rows, [int("".join(col), 2) for col in columns][::-1]
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
        for row in rows:
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
    any instance has a true antecedent (and a defined squared sum).
    """
    if axiom == "trans-1":
        return trans1_verdict(d)
    top = 1 << d.universe.size
    rows, cols = zip(*map(d.plane, range(top)))
    diag = [s(x, x) for x in range(top)] if axiom.startswith("delta-sum") else None
    if axiom == "n-coh":

        def cell(a, b, row):
            return row, row & ~rows[b][a]

    elif axiom == "strict-n-coh":

        def cell(a, b, row):
            return row, row & cols[a][b]

    elif axiom == "delta-sum1":

        def cell(a, b, row):
            aa = diag[a]
            return (0, 0) if aa == UNDEFINED else (row, row & ~rows[aa][b])

    elif axiom == "delta-sum2":

        def cell(a, b, row):
            bb = diag[b]
            return (0, 0) if bb == UNDEFINED else (row, row & ~rows[a][bb])

    elif axiom == "delta-sum3":
        defined = sum(1 << c for c, cc in enumerate(diag) if cc != UNDEFINED)
        # A c that s(c, c) keeps never violates, so only the moved c are read.
        moves = [(c, cc) for c, cc in enumerate(diag) if cc not in (UNDEFINED, c)]

        def cell(a, b, row):
            moved_out = (1 << c for c, cc in moves if row >> c & 1 and not row >> cc & 1)
            return row & defined, sum(moved_out) if moves else 0

    else:
        raise MsslabError(f"axiom {axiom!r} is not decided on the delta cube")

    substantive = False
    for a, rows_a in enumerate(rows):
        for b, row in enumerate(rows_a):
            live, bad = cell(a, b, row)
            if bad:
                c = (bad & -bad).bit_length() - 1
                return Verdict(
                    axiom,
                    FAILS,
                    witnesses=(tuple(map(d.universe.from_mask, (a, b, c))),),
                    instances_checked=(a * top + b) * top + c + 1,
                )
            substantive = substantive or bool(live)
    return Verdict(axiom, HOLDS if substantive else VACUOUS, instances_checked=top**3)
