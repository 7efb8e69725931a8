"""Finite model search: enumerate small structures, hunt for axiom combinations.

Relations on up to four elements are enumerated exhaustively, and ``budget``
counts labelled relations. One stream of candidates (``_candidates``)
yields each as a key and a builder. Under a builtin δ every verdict a
search asks for depends on the relation only through its set of granule
masks, and the key is that set, read off the relation's bits, so each
granule set is built and checked once. A structure's laws are checked
only up to the first that does not match the profile, theorems first.
Extensional predicate tables are always sampled (their count is doubly
exponential), with the seed fixing the stream.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Hashable, Iterator, NamedTuple, Optional

from .delta import BUILTIN_DELTAS, EXTENSIONAL_TABLE_LIMIT, DeltaPredicate
from .errors import BudgetError, ParseError
from .granules import BinaryRelation, Granulation, predecessor_granulation
from .sets import Universe
from .structure import LAWS, SET_SLOTS, MssStructure, assemble, check_axiom

FAMILIES = ("relations", "extensional-deltas", "granulations")
# A search draws its predicate from a builtin or from a random table.
SEARCH_DELTAS = BUILTIN_DELTAS + ("extensional",)
RELATION_EXHAUSTIVE_LIMIT = 4
# A searched structure binds one granulation and δ, never the sum or kappa.
SEARCHED_SLOTS = SET_SLOTS | {"l", "u", "gamma", "delta"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_laws(value) -> bool:
    return isinstance(value, tuple) and all(isinstance(a, str) and a in LAWS for a in value)


# Each field of a search spec: the test its value must pass, and the
# expected value its error names.
FIELD_CHECKS = {
    "n": (lambda v: _is_int(v) and v >= 1, "an integer of at least 1"),
    "family": (lambda v: v in FAMILIES, f"one of {', '.join(FAMILIES)}"),
    "delta": (lambda v: v in SEARCH_DELTAS, f"one of {', '.join(SEARCH_DELTAS)}"),
    "required": (_is_laws, "a list of axiom names"),
    "forbidden": (_is_laws, "a list of axiom names"),
    "budget": (lambda v: _is_int(v) and v >= 1, "a positive integer"),
    "seed": (_is_int, "an integer"),
    "density": (
        lambda v: (_is_int(v) or isinstance(v, float)) and 0 <= v <= 1,
        "a number in [0, 1]",
    ),
    "exhaustive": (lambda v: isinstance(v, bool), "true or false"),
}


class _SearchFields(NamedTuple):
    n: int
    family: str = "relations"
    delta: str = "E0"
    required: tuple[str, ...] = ()
    forbidden: tuple[str, ...] = ()
    budget: int = 10_000
    seed: int = 0
    density: float = 0.5
    exhaustive: bool = True


class SearchSpec(_SearchFields):
    """The fields of a search, each checked by ``FIELD_CHECKS`` when the
    spec is constructed; a refused field is a ``ParseError`` naming it.
    A required or forbidden law that no searched structure can decide,
    one that reads a slot outside ``SEARCHED_SLOTS`` or has no
    definition, is refused too: its verdict could never match."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for field, value in zip(self._fields, self):
            valid, expected = FIELD_CHECKS[field]
            if not valid(value):
                raise ParseError(f"expected {expected}, got {value!r}", field)
        # Refused before any table is drawn: a table draws 2**(3n) values.
        if self.extensional and self.n > EXTENSIONAL_TABLE_LIMIT:
            raise ParseError(
                f"extensional tables admitted only for universes of size <= {EXTENSIONAL_TABLE_LIMIT}",
                "n",
            )
        for field in ("required", "forbidden"):
            for a in getattr(self, field):
                unbound = sorted(LAWS[a].reads - SEARCHED_SLOTS)
                if unbound:
                    raise ParseError(f"{a} reads {unbound}, which a search never binds", field)
                if not LAWS[a].defined:
                    raise ParseError(f"{a} has no definition", field)
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make; route it through the checks too.
        return cls(*iterable)

    @property
    def extensional(self) -> bool:
        """Whether each structure draws its own predicate table."""
        return self.delta == "extensional" or self.family == "extensional-deltas"


def _universe(n: int) -> Universe:
    return Universe([f"x{i + 1}" for i in range(n)])


def _structure_from_granulation(universe, granulation, spec, rng) -> MssStructure:
    if spec.extensional:
        top = 1 << universe.size
        triples = [
            (a, b, c)
            for a in range(top)
            for b in range(top)
            for c in range(top)
            if rng.random() < spec.density
        ]
        delta = DeltaPredicate.extensional_from_masks(universe, triples)
    else:
        delta = DeltaPredicate.builtin(spec.delta, universe, granulation)
    return assemble(universe, granulation=granulation, delta=delta)


def _granule_sets(n: int) -> Callable[[int], frozenset[int]]:
    """The set of nonzero predecessor-column masks of a relation's bits,
    read off the bits: the granule of x is every y with bit y*n + x set.

    Row y of the bits is spread once, for each of its 2**n values, into
    the columns' bits (bit y of column x at bit x*n + y)."""
    row = (1 << n) - 1
    spread = [
        [sum(1 << (x * n + y) for x in range(n) if value >> x & 1) for value in range(row + 1)]
        for y in range(n)
    ]
    shifts = range(0, n * n, n)
    empty = frozenset((0,))

    def granule_set(bits: int) -> frozenset[int]:
        columns = 0
        for y, row_spread in enumerate(spread):
            columns |= row_spread[bits >> y * n & row]
        return frozenset([columns >> shift & row for shift in shifts]) - empty

    return granule_set


def _candidates(
    spec: SearchSpec,
) -> Iterator[tuple[Optional[Hashable], Callable[[], MssStructure]]]:
    """Each labelled candidate in a deterministic, seeded order, as
    ``(key, build)``.

    ``build()`` assembles the candidate's structure. Under a builtin δ,
    ``key`` stands for the candidate's granule set, read off the
    candidate without building it; under an extensional δ it is None.
    An extensional ``build()`` draws its table from the stream's rng, so
    it must run before the next candidate is drawn."""
    universe = _universe(spec.n)
    rng = random.Random(spec.seed)

    def build(granulation):
        return _structure_from_granulation(universe, granulation, spec, rng)

    if spec.family == "relations":
        width = spec.n * spec.n  # one bit per ordered pair
        if spec.exhaustive and (
            spec.n > RELATION_EXHAUSTIVE_LIMIT or width >= spec.budget.bit_length()
        ):
            raise BudgetError(
                f"exhaustive relation search needs 2**{width} structures "
                f"(limit n <= {RELATION_EXHAUSTIVE_LIMIT}, budget {spec.budget})"
            )
        total = 1 << width
        if spec.exhaustive:
            bit_streams = range(total)
        else:
            bit_streams = (rng.randrange(total) for _ in range(spec.budget))
        n = spec.n

        def build_relation(bits):
            pairs = [(i, j) for i in range(n) for j in range(n) if bits >> (i * n + j) & 1]
            return build(predecessor_granulation(BinaryRelation.from_indices(universe, pairs)))

        key = (lambda bits: None) if spec.extensional else _granule_sets(n)
        for bits in bit_streams:
            yield key(bits), partial(build_relation, bits)
        return

    if spec.family == "granulations":
        width = (1 << spec.n) - 1  # one bit per nonempty candidate granule
        # 2**width > budget, decided on exponents: 2**width alone can take
        # megabytes to build for a search that is then refused.
        if spec.exhaustive and width >= spec.budget.bit_length():
            raise BudgetError(
                f"exhaustive granulation search needs 2**{width} structures "
                f"(budget {spec.budget})"
            )
        total = 1 << width
        if spec.exhaustive:
            picks = range(total)
        else:
            picks = (rng.randrange(total) for _ in range(spec.budget))

        def build_granulation(bits):
            # Bit k stands for the granule of mask k + 1, read least significant first.
            granules = [k + 1 for k, bit in enumerate(bin(bits)[:1:-1]) if bit == "1"]
            return build(Granulation(universe, granules))

        # The bits pick the granule set one to one, so they are its key.
        for bits in picks:
            yield None if spec.extensional else bits, partial(build_granulation, bits)
        return

    # extensional-deltas: sampled tables over the diagonal granulation
    diagonal = BinaryRelation.from_indices(universe, [(i, i) for i in range(spec.n)])
    granulation = predecessor_granulation(diagonal)
    for _ in range(spec.budget):
        yield None, partial(build, granulation)


def enumerate_structures(spec: SearchSpec) -> Iterator[MssStructure]:
    """Yield fully assembled structures in a deterministic, seeded order."""
    for _, build in _candidates(spec):
        yield build()


def find_witness(spec: SearchSpec) -> tuple[Optional[MssStructure], int]:
    """First enumerated structure meeting every required axiom and breaking
    every forbidden one (None when the stream runs out), with the number of
    structures examined.

    Under a builtin δ the verdicts depend only on the set of granule masks
    (l, u and δ are unions of granules read in any order), so a candidate
    whose granule set was rejected before is counted again but not built
    again. Extensional tables are drawn per structure and always checked.
    A structure's laws are checked one at a time, up to the first that
    does not pass where required or fail where forbidden: first the
    theorems, answered from ``LAWS`` alone, then the rest in spec order."""
    # Each law with the Verdict property it must show.
    checks = [(a, "passed") for a in spec.required] + [(a, "failed") for a in spec.forbidden]
    checks.sort(key=lambda check: LAWS[check[0]].arity is not None)
    examined = 0
    rejected = set()
    for key, build in _candidates(spec):
        examined += 1
        if key in rejected:
            continue
        s = build()
        if all(getattr(check_axiom(s, a), shown) for a, shown in checks):
            return s, examined
        if key is not None:
            rejected.add(key)
    return None, examined
