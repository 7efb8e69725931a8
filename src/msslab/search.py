"""Finite model search: enumerate small structures, hunt for axiom combinations.

Relations on up to four elements are enumerated exhaustively, and ``budget``
counts labelled relations. Under a builtin δ every verdict a search asks for
depends on the relation only through its set of granule masks, so each
granule set is verified once. Extensional predicate tables are always
sampled (their count is doubly exponential), with the seed fixing the
stream.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple, Optional

from .delta import BUILTIN_DELTAS, EXTENSIONAL_TABLE_LIMIT, DeltaPredicate
from .errors import BudgetError, ParseError
from .granules import BinaryRelation, Granulation, predecessor_granulation
from .sets import Universe
from .structure import LAWS, MssStructure, assemble, verify

FAMILIES = ("relations", "extensional-deltas", "granulations")
# A search draws its predicate from a builtin or from a random table.
SEARCH_DELTAS = BUILTIN_DELTAS + ("extensional",)
RELATION_EXHAUSTIVE_LIMIT = 4


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
    spec is constructed; a refused field is a ``ParseError`` naming it."""

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


def enumerate_structures(spec: SearchSpec) -> Iterator[MssStructure]:
    """Yield fully assembled structures in a deterministic, seeded order."""
    universe = _universe(spec.n)
    rng = random.Random(spec.seed)

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
        for bits in bit_streams:
            pairs = [
                (i, j)
                for i in range(spec.n)
                for j in range(spec.n)
                if bits >> (i * spec.n + j) & 1
            ]
            relation = BinaryRelation.from_indices(universe, pairs)
            granulation = predecessor_granulation(relation)
            yield _structure_from_granulation(universe, granulation, spec, rng)
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
            # Every family is drawn from the same candidates: build each once.
            granule = [universe.from_mask(mask) for mask in range(1 << spec.n)].__getitem__
            picks = range(total)
        else:
            # A prebuilt list would hold 2**n subsets; build only those drawn.
            granule = universe.from_mask
            picks = (rng.randrange(total) for _ in range(spec.budget))
        for bits in picks:
            # Bit k stands for the granule of mask k + 1, read least significant first.
            granules = [granule(k + 1) for k, bit in enumerate(bin(bits)[:1:-1]) if bit == "1"]
            granulation = Granulation(universe, granules)
            yield _structure_from_granulation(universe, granulation, spec, rng)
        return

    # extensional-deltas: sampled tables over the diagonal granulation
    diagonal = BinaryRelation.from_indices(universe, [(i, i) for i in range(spec.n)])
    granulation = predecessor_granulation(diagonal)
    for _ in range(spec.budget):
        yield _structure_from_granulation(universe, granulation, spec, rng)


def find_witness(spec: SearchSpec) -> tuple[Optional[MssStructure], int]:
    """First enumerated structure meeting every required axiom and breaking
    every forbidden one (None when the stream runs out), with the number of
    structures examined.

    Under a builtin δ the verdicts depend only on the set of granule masks
    (l, u and δ are unions of granules read in any order), so a granule set
    that failed once is counted again but not verified again. Extensional
    tables are drawn per structure and always verified."""
    axioms = list(spec.required) + list(spec.forbidden)
    examined = 0
    rejected = set()
    for s in enumerate_structures(spec):
        examined += 1
        key = frozenset(s.granulation.masks()) if s.delta.kind in BUILTIN_DELTAS else None
        if key in rejected:
            continue
        verdicts = {v.axiom: v for v in verify(s, axioms)}
        if all(verdicts[a].passed for a in spec.required) and all(
            verdicts[a].failed for a in spec.forbidden
        ):
            return s, examined
        if key is not None:
            rejected.add(key)
    return None, examined


def oracle_check(s: MssStructure, claim: str) -> bool:
    """Evaluate a registered claim by direct exhaustive recomputation."""
    from .oracles import StructureDescription, o_claim

    return o_claim(StructureDescription.from_structure(s), claim)
