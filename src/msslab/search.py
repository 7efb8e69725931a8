"""Finite model search: enumerate small structures, hunt for axiom combinations.

Relations on up to four elements are enumerated exhaustively, and ``budget``
counts labelled relations. A relation is streamed as its nonzero
predecessor columns, the form ``BinaryRelation`` holds. Every family is
one stream of granule-mask tuples (``_candidates``), each yielded as a
key and a builder. Under a builtin δ every verdict a search asks for
depends on a candidate only through its set of granule masks, and the
key is that set, so each granule set is built and checked once. A
structure's laws are checked only up to the first that does not match
the profile. Extensional predicate tables are always sampled (their
count is doubly exponential), with the seed fixing the stream.

The theorems among a spec's laws are decided once, from ``laws.LAWS``
alone, before the stream: a required theorem is never checked, and a
forbidden one answers the search with nothing found and every labelled
candidate examined. ``examined`` counts the labelled candidates an
answer covers, each either checked or ruled out by a theorem. The model
code (``structure``, ``delta``, ``granules``) loads only when the
stream is first drawn from, so a search that theorems settle compiles
none of it.

``parse_spec`` reads a spec document and ``build_search`` writes the
search report, the one library call the ``search`` command makes.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional

from .errors import BudgetError, ParseError
from .laws import (
    BUILTIN_DELTAS,
    EXTENSIONAL_TABLE_LIMIT,
    EXTENSIONAL_TABLE_REFUSED,
    GRANULATION_SLOTS,
    LAWS,
    SET_SLOTS,
)
from .sets import Universe
from .verdicts import document, run_seed

if TYPE_CHECKING:
    from .structure import MssStructure

FAMILIES = ("relations", "extensional-deltas", "granulations")
# A search draws its predicate from a builtin or from a random table.
SEARCH_DELTAS = BUILTIN_DELTAS + ("extensional",)
RELATION_EXHAUSTIVE_LIMIT = 4
GRANULATION_SAMPLED_LIMIT = 16  # a sampled granulation draws 2**n - 1 bits
# A searched structure binds one granulation and δ, never the sum or kappa.
SEARCHED_SLOTS = SET_SLOTS | GRANULATION_SLOTS | {"delta"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_laws(value) -> bool:
    return isinstance(value, (list, tuple)) and all(
        isinstance(a, str) and a in LAWS for a in value
    )


# Each field of a search spec: the test its value must pass, and the
# expected value its error names.
FIELD_CHECKS = {
    "n": (lambda v: _is_int(v) and v >= 1, "an integer of at least 1"),
    "family": (lambda v: v in FAMILIES, f"one of {', '.join(FAMILIES)}"),
    "delta": (lambda v: v in SEARCH_DELTAS, f"one of {', '.join(SEARCH_DELTAS)}"),
    "required": (_is_laws, "a list of axiom names"),
    "forbidden": (_is_laws, "a list of axiom names"),
    "budget": (lambda v: _is_int(v) and v >= 1, "a positive integer"),
    "seed": (lambda v: v is None or _is_int(v), "an integer"),
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
    seed: Optional[int] = None
    density: float = 0.5
    exhaustive: bool = True


class SearchSpec(_SearchFields):
    """The fields of a search, each checked by ``FIELD_CHECKS`` when the
    spec is constructed; a refused field is a ``ParseError`` naming it and
    quoting the value as given. A ``seed`` of None is no seed: a stream
    then draws from ``verdicts.DEFAULT_SEED``. ``required`` and
    ``forbidden`` may be given as lists and are kept as tuples. A required or forbidden law
    that no searched structure can decide, one that reads a slot outside
    ``SEARCHED_SLOTS`` or has no definition, is refused too, and so is a
    law both required and forbidden: its verdict could never match. So is
    a sampled granulation search on more than ``GRANULATION_SAMPLED_LIMIT`` elements."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for field, value in zip(self._fields, self):
            valid, expected = FIELD_CHECKS[field]
            if not valid(value):
                raise ParseError(f"expected {expected}, got {value!r}", field)
        # Refused before any table is drawn: a table draws 2**(3n) values.
        if self.extensional and self.n > EXTENSIONAL_TABLE_LIMIT:
            raise ParseError(EXTENSIONAL_TABLE_REFUSED, "n")
        sampled = self.family == "granulations" and not self.exhaustive
        if sampled and self.n > GRANULATION_SAMPLED_LIMIT:
            raise ParseError(f"sampled granulations need n <= {GRANULATION_SAMPLED_LIMIT}", "n")
        for field in ("required", "forbidden"):
            for a in getattr(self, field):
                unbound = sorted(LAWS[a].reads - SEARCHED_SLOTS)
                if unbound:
                    raise ParseError(f"{a} reads {unbound}, which a search never binds", field)
                if not LAWS[a].defined:
                    raise ParseError(f"{a} has no definition", field)
        both = [a for a in self.forbidden if a in self.required]
        if both:
            raise ParseError(f"{both[0]} is required too; no verdict passes and fails", "forbidden")
        # A law list is kept as a tuple, so the spec hashes and equals its tuple form.
        return super().__new__(cls, *[tuple(v) if isinstance(v, list) else v for v in self])

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make; route it through the checks too.
        return cls(*iterable)

    @property
    def extensional(self) -> bool:
        """Whether each structure draws its own predicate table."""
        return self.delta == "extensional" or self.family == "extensional-deltas"


# The model names a search builds and checks with, bound on its first build.
MODEL_NAMES = ("DeltaPredicate", "Granulation", "assemble", "check_axiom")


def _load_model() -> None:
    """Bind ``MODEL_NAMES`` here, keeping a name already bound, such as a
    wrapper set on this module, so that it sees every build."""
    from .delta import DeltaPredicate
    from .granules import Granulation
    from .structure import assemble, check_axiom

    for name, value in zip(MODEL_NAMES, (DeltaPredicate, Granulation, assemble, check_axiom)):
        globals().setdefault(name, value)


def __getattr__(name):
    # PEP 562: a model name read from outside loads the model code.
    if name not in MODEL_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_model()
    return globals()[name]


def _universe(n: int) -> Universe:
    return Universe([f"x{i + 1}" for i in range(n)])


def _column_masks(n: int) -> Callable[[int], tuple[int, ...]]:
    """A relation's nonzero predecessor-column masks in generator order,
    read off its bits: the granule of x is every y with bit y*n + x set.

    Each row y of the bits is cut into chunks of at most eight bits. One
    table, of at most 256 entries whatever n is, spreads a chunk's bit i
    to bit i*n; the chunk from column low is read through it shifted by
    low*n + y, which puts bit y of column x at bit x*n + y."""
    width = min(n, 8)
    table = [
        sum(1 << (i * n) for i in range(width) if value >> i & 1) for value in range(1 << width)
    ]
    chunks = [
        (y * n + low, (1 << min(8, n - low)) - 1, low * n + y)
        for y in range(n)
        for low in range(0, n, 8)
    ]
    row = (1 << n) - 1
    shifts = range(0, n * n, n)

    def columns(bits: int) -> tuple[int, ...]:
        spread = 0
        for shift, mask, offset in chunks:
            spread |= table[bits >> shift & mask] << offset
        return tuple([column for shift in shifts if (column := spread >> shift & row)])

    return columns


def _picked_granules(bits: int) -> tuple[int, ...]:
    # Bit k stands for the granule of mask k + 1, read least significant first.
    return tuple([k + 1 for k, bit in enumerate(bin(bits)[:1:-1]) if bit == "1"])


def _width(spec: SearchSpec) -> int:
    # One bit per ordered pair, or per nonempty candidate granule.
    return spec.n * spec.n if spec.family == "relations" else (1 << spec.n) - 1


def _length(spec: SearchSpec) -> int:
    """The number of labelled candidates in the stream: ``budget`` draws,
    or all 2**width bit patterns of an exhaustive walk. An exhaustive walk
    of more than ``budget`` candidates, or of relations on more than
    ``RELATION_EXHAUSTIVE_LIMIT`` elements, is a ``BudgetError``, decided
    on exponents before 2**width is built: that number alone can take
    megabytes for a refused search."""
    if spec.family == "extensional-deltas" or not spec.exhaustive:
        return spec.budget
    relations, width = spec.family == "relations", _width(spec)
    if width >= spec.budget.bit_length() or relations and spec.n > RELATION_EXHAUSTIVE_LIMIT:
        limit = f"limit n <= {RELATION_EXHAUSTIVE_LIMIT}, " if relations else ""
        raise BudgetError(
            f"exhaustive {spec.family[:-1]} search needs 2**{width} structures "
            f"({limit}budget {spec.budget})"
        )
    return 1 << width


def _candidates(
    spec: SearchSpec,
) -> Iterator[tuple[Optional[frozenset[int]], Callable[[], MssStructure]]]:
    """Each labelled candidate in a deterministic, seeded order, as
    ``(key, build)``.

    Every family is one stream of granule-mask tuples: a relation's
    nonzero predecessor columns in generator order, the granules a
    granulation's bits pick, or the n singletons of ``extensional-deltas``.
    ``build()`` assembles the granulation of the candidate's masks, and
    under a builtin δ ``key`` is their set, so each key and its structure
    come from the same tuple. The key is None where no two candidates can
    share a key: under an extensional δ, whose table each candidate draws,
    and in an exhaustive granulation walk, where each candidate's bits
    pick a distinct granule set. A built structure carries no relation.
    An extensional ``build()`` draws its table from the stream's rng, so
    it must run before the next candidate is drawn. The stream holds
    ``_length(spec)`` candidates, and raises its ``BudgetError`` when
    first drawn from; only then is the model code loaded."""
    n = spec.n
    universe = _universe(n)
    rng = random.Random(run_seed(None, spec.seed))
    length = _length(spec)
    _load_model()

    def build(masks):
        granulation = Granulation(universe, masks)
        if spec.extensional:
            top = 1 << n
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

    if spec.family == "extensional-deltas":
        # sampled tables over the singleton granules
        stream = repeat(tuple(1 << x for x in range(n)), length)
    else:
        if spec.exhaustive:
            bit_stream = range(length)
        else:
            total = 1 << _width(spec)
            bit_stream = (rng.randrange(total) for _ in range(length))
        relations = spec.family == "relations"
        stream = map(_column_masks(n) if relations else _picked_granules, bit_stream)
    keyed = not (spec.extensional or spec.family == "granulations" and spec.exhaustive)
    for masks in stream:
        yield frozenset(masks) if keyed else None, partial(build, masks)


def enumerate_structures(spec: SearchSpec) -> Iterator[MssStructure]:
    """Yield fully assembled structures in a deterministic, seeded order."""
    for _, build in _candidates(spec):
        yield build()


def find_witness(spec: SearchSpec) -> tuple[Optional[MssStructure], int]:
    """First enumerated structure meeting every required axiom and breaking
    every forbidden one (None when the stream runs out), with the number of
    labelled candidates examined: each either checked or ruled out by a
    theorem.

    A law with no arity is a theorem (``SearchSpec`` refuses one with no
    definition), and every searched structure binds the slots it reads,
    so it holds on every candidate. It is decided once, before the
    stream: a required theorem is met by every candidate and never
    checked, and a forbidden one by none, so the search ends at once with
    the whole stream examined and nothing built.

    Under a builtin δ the verdicts depend only on the set of granule masks
    (l, u and δ are unions of granules read in any order), so a candidate
    whose granule set was rejected before is counted again but not built
    again. Extensional tables are drawn per structure and always checked.
    A structure's other laws are checked one at a time, in spec order, up
    to the first that does not pass where required or fail where
    forbidden."""
    if any(LAWS[a].arity is None for a in spec.forbidden):
        return None, _length(spec)
    # Each law left to check with the Verdict property it must show.
    checks = [(a, "passed") for a in spec.required if LAWS[a].arity is not None]
    checks += [(a, "failed") for a in spec.forbidden]
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


def parse_spec(document) -> SearchSpec:
    """A search spec document as a ``SearchSpec``, which checks every
    field; a ``null`` seed is no seed, as in a config."""
    if not isinstance(document, dict):
        raise ParseError("search spec must be a JSON object")
    unknown = set(document) - set(SearchSpec._fields)
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}")
    if "n" not in document:
        raise ParseError("missing required field", "n")
    return SearchSpec(**document)


def build_search(spec: SearchSpec, *, seed: Optional[int] = None) -> dict:
    """The search report: ``find_witness`` under the run's seed
    (``verdicts.run_seed`` of ``seed`` and the spec's), the spec's other
    fields, and the structure found, its subsets listed by element names."""
    spec = spec._replace(seed=run_seed(seed, spec.seed))
    found, examined = find_witness(spec)
    structure = None
    if found is not None:
        names = found.universe.names
        table = found.delta.table
        structure = {
            "universe": list(found.universe.elements),
            "granules": [list(names(g)) for g in found.granulation],
            "delta_kind": found.delta.kind,
            "delta_table": (
                None if table is None else sorted([list(names(m)) for m in row] for row in table)
            ),
        }
    return document(
        "search",
        spec.seed,
        spec={
            k: list(v) if isinstance(v, tuple) else v
            for k, v in spec._asdict().items()
            if k != "seed"
        },
        search={
            "found": found is not None,
            "examined": examined,
            "structure": structure,
            "note": None if found is not None else "none within budget",
        },
    )
