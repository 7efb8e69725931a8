"""Declarative JSON configs, checked and resolved in one pass.

``parse_config`` reads each field once. It resolves every element name,
to a subset mask or a relation pair's index, where it reads it, and
checks each table and list against its contract there: a def0 nearness
table is total, a sum table gives each pair at most one value, clusters
are nonempty, no cluster, compatibility mode or reduct slot is listed
twice, an extensional δ table is admitted only on a small universe. A
malformed document is a ``ParseError`` naming the offending field, and
nothing is built from it. ``LabConfig`` holds the base structure the
config describes, its granulation, sum, clusters and reduct assembled
once, and builds each δ candidate over it from a ``DeltaSpec`` of masks;
nothing built from a config reads a name again.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .delta import KEYED_KINDS, DeltaPredicate, SumOperation
from .errors import MsslabError, ParseError
from .granules import (
    BinaryRelation,
    Granulation,
    close_relation,
    predecessor_granulation,
)
from .laws import BUILTIN_DELTAS, EXTENSIONAL_TABLE_LIMIT, EXTENSIONAL_TABLE_REFUSED, SIGNATURE_SLOTS
from .sets import Universe
from .structure import MssStructure, assemble, reduct
from .validation import COMPATIBILITY_MODES

KNOWN_FIELDS = {
    "universe",
    "relation",
    "granulation",
    "delta",
    "sum",
    "clustering",
    "compatibility_modes",
    "reduct",
    "seed",
}

CLOSURE_FLAGS = ("reflexive", "symmetric", "transitive")

MaskRows = tuple[tuple[int, int, int], ...]


class DeltaSpec(NamedTuple):
    """A δ candidate. ``table`` holds the (a, b, c) masks of an extensional
    predicate or the (a, b, f(a, b)) rows of a def0 nearness table; it is
    None for a builtin and for def0 under union."""

    name: str
    kind: str
    table: Optional[MaskRows] = None

    def build(self, universe: Universe, granulation: Optional[Granulation]) -> DeltaPredicate:
        """A fresh predicate, whose cube lives only as long as its caller
        keeps it."""
        if self.kind == "extensional":
            return DeltaPredicate.extensional_from_masks(universe, self.table)
        if self.kind == "def0":
            table = None if self.table is None else {(a, b): v for a, b, v in self.table}
            return DeltaPredicate.from_nearness(universe, table)
        return DeltaPredicate.builtin(self.kind, universe, granulation)


class LabConfig(NamedTuple):
    """A parsed config: ``base`` is the structure it describes, without δ,
    and each of ``deltas`` is a δ candidate over it."""

    base: MssStructure
    relation: Optional[BinaryRelation]
    deltas: tuple[DeltaSpec, ...]
    compatibility_modes: tuple[str, ...]
    reduct_keep: Optional[tuple[str, ...]]
    seed: Optional[int]

    @property
    def universe(self) -> Universe:
        return self.base.universe

    def structure(self, delta_spec: Optional[DeltaSpec] = None) -> MssStructure:
        """``base``, or ``base`` under a fresh δ built from ``delta_spec``."""
        if delta_spec is None:
            return self.base
        return self.base._replace(delta=delta_spec.build(self.universe, self.base.granulation))


def _names(value, field, what="element names"):
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError(f"expected a list of {what}", field)
    return value


def _known(raw: dict, fields, field) -> None:
    """Refuse a key outside ``fields``, which would fall back to its default unseen."""
    unknown = set(raw) - set(fields)
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}", field)


def _distinct(values: list, field) -> tuple:
    """The entries as a tuple; an entry equal to an earlier one is refused."""
    for k, value in enumerate(values):
        first = values.index(value)
        if first < k:
            raise ParseError(f"duplicate of {field}[{first}]", f"{field}[{k}]")
    return tuple(values)


def _indices(universe: Universe, value, field) -> list[int]:
    """The indices of a list of declared element names, in list order."""
    names = _names(value, field)
    for k, name in enumerate(names):
        if name not in universe.elements:
            raise ParseError(f"element {name!r} not declared in universe", f"{field}[{k}]")
    return [universe.index(name) for name in names]


def _mask(universe: Universe, value, field) -> int:
    """The mask of a list of declared element names."""
    return sum({1 << i for i in _indices(universe, value, field)})


def _subsets(universe: Universe, raw, field, what) -> list[int]:
    """A list of nonempty subsets, as masks."""
    if not isinstance(raw, list):
        raise ParseError(f"expected a list of {what}s", field)
    masks = []
    for k, names in enumerate(raw):
        masks.append(_mask(universe, names, f"{field}[{k}]"))
        if not masks[-1]:
            raise ParseError(f"expected a nonempty {what}", f"{field}[{k}]")
    return masks


def _rows(universe: Universe, raw, field, row) -> MaskRows:
    """A table of three-subset rows, each resolved to its three masks."""
    if not isinstance(raw, list):
        raise ParseError(f"expected a list of {row} rows", field)
    rows = []
    for j, parts in enumerate(raw):
        at = f"{field}[{j}]"
        if not (isinstance(parts, list) and len(parts) == 3):
            raise ParseError(f"expected {row}", at)
        rows.append(tuple(_mask(universe, part, f"{at}[{p}]") for p, part in enumerate(parts)))
    return tuple(rows)


def _function(universe: Universe, raw, field, *, total: bool) -> MaskRows:
    """An [a, b, value] table that gives each pair at most one value and,
    when ``total``, every pair of subsets one."""
    rows = _rows(universe, raw, field, "[a, b, value]")
    first = {}
    for j, (a, b, v) in enumerate(rows):
        i = first.setdefault((a, b), j)
        if rows[i][2] != v:
            raise ParseError(f"gives the pair of {field}[{i}] a second value", f"{field}[{j}]")
    pairs = 1 << 2 * universe.size
    if total and len(first) != pairs:
        raise ParseError(f"expected a total table of {pairs} pairs, got {len(first)}", field)
    return rows


def parse_config(data: dict) -> LabConfig:
    """Check a config document and resolve its names to masks, once."""
    if not isinstance(data, dict):
        raise ParseError("config must be a JSON object")
    _known(data, KNOWN_FIELDS, None)
    if "universe" not in data:
        raise ParseError("missing required field", "universe")
    names = _names(data["universe"], "universe")
    try:
        universe = Universe(names)
    except MsslabError as exc:  # empty, or a name given twice
        raise ParseError(str(exc), "universe") from None

    relation = None
    if data.get("relation") is not None:
        relation = _parse_relation(universe, data["relation"])

    granulation = None
    raw_granulation = data.get("granulation")
    if raw_granulation == "predecessor":
        if relation is None:
            raise ParseError(
                "predecessor granulation needs a relation", "granulation"
            )
        granulation = predecessor_granulation(relation)
    elif isinstance(raw_granulation, list):
        masks = _subsets(universe, raw_granulation, "granulation", "granule")
        granulation = Granulation(universe, masks)
    elif raw_granulation is not None:
        raise ParseError(
            'granulation must be "predecessor" or a list of granules', "granulation"
        )

    deltas = _parse_deltas(universe, data.get("delta"), granulation)

    sum_op = _parse_sum(universe, data.get("sum"), granulation)

    clusters = None
    if data.get("clustering") is not None:
        clusters = _subsets(universe, data["clustering"], "clustering", "cluster")
        if not clusters:
            raise ParseError("expected a nonempty list of clusters", "clustering")
        clusters = _distinct(clusters, "clustering")

    modes = ("overlap-closer",)
    if data.get("compatibility_modes") is not None:
        raw_modes = _names(data["compatibility_modes"], "compatibility_modes", "mode names")
        modes = _distinct(raw_modes, "compatibility_modes")
    for k, mode in enumerate(modes):
        if mode not in COMPATIBILITY_MODES:
            raise ParseError(f"unsupported compatibility mode {mode!r}", f"compatibility_modes[{k}]")

    reduct_keep = None
    if data.get("reduct") is not None:
        reduct_keep = _distinct(_names(data["reduct"], "reduct", "slot names"), "reduct")
        for k, slot in enumerate(reduct_keep):
            if slot not in SIGNATURE_SLOTS:
                raise ParseError(f"unknown signature slot {slot!r}", f"reduct[{k}]")

    seed = data.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise ParseError("expected an integer", "seed")

    base = assemble(universe, granulation=granulation, sum=sum_op, kappa=clusters)
    if reduct_keep is not None:
        base = reduct(base, reduct_keep)
    return LabConfig(base, relation, deltas, modes, reduct_keep, seed)


def _parse_relation(universe, raw) -> BinaryRelation:
    if not isinstance(raw, dict):
        raise ParseError("relation must be an object", "relation")
    _known(raw, ("pairs", "generators", "closure"), "relation")
    has_pairs = "pairs" in raw
    has_generators = "generators" in raw
    if has_pairs == has_generators:
        raise ParseError("give exactly one of pairs/generators", "relation")
    key = "pairs" if has_pairs else "generators"
    if not isinstance(raw[key], list):
        raise ParseError("expected a list of [from, to] pairs", f"relation.{key}")
    pairs = []
    for k, pair in enumerate(raw[key]):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError("expected [from, to]", f"relation.{key}[{k}]")
        pairs.append(_indices(universe, pair, f"relation.{key}[{k}]"))
    relation = BinaryRelation.from_indices(universe, pairs)
    if has_generators:
        flags = _names(raw.get("closure", []), "relation.closure", "closure flags")
        for flag in flags:
            if flag not in CLOSURE_FLAGS:
                raise ParseError(f"unknown closure flag {flag!r}", "relation.closure")
        relation = close_relation(
            relation,
            reflexive="reflexive" in flags,
            symmetric="symmetric" in flags,
            transitive="transitive" in flags,
        )
    elif "closure" in raw:
        raise ParseError("closure applies to generators, not explicit pairs", "relation")
    return relation


def _parse_deltas(universe, raw, granulation) -> tuple[DeltaSpec, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ParseError("delta must be a list of candidates", "delta")
    specs = []
    names = set()
    for k, entry in enumerate(raw):
        field = f"delta[{k}]"
        if isinstance(entry, str):
            if entry not in BUILTIN_DELTAS:
                raise ParseError(
                    f"unknown builtin {entry!r}; expected one of {BUILTIN_DELTAS}", field
                )
            if KEYED_KINDS[entry].granular and granulation is None:
                raise ParseError(f"{entry} needs a granulation", field)
            spec = DeltaSpec(name=entry, kind=entry)
        elif isinstance(entry, dict):
            kind = entry.get("kind")
            if kind not in ("extensional", "def0"):
                raise ParseError(f"unknown delta kind {kind!r}", field)
            _known(entry, ("kind", "name", "triples" if kind == "extensional" else "f"), field)
            name = entry.get("name", f"{kind}-{k}")
            if not isinstance(name, str):
                raise ParseError("expected a string", f"{field}.name")
            if kind == "extensional":
                if universe.size > EXTENSIONAL_TABLE_LIMIT:
                    raise ParseError(EXTENSIONAL_TABLE_REFUSED, field)
                triples = _rows(universe, entry.get("triples", []), f"{field}.triples", "[a, b, c]")
                spec = DeltaSpec(name=name, kind=kind, table=triples)
            elif entry.get("f") == "union":
                spec = DeltaSpec(name=name, kind=kind)
            elif isinstance(entry.get("f"), list):
                table = _function(universe, entry["f"], f"{field}.f", total=True)
                spec = DeltaSpec(name=name, kind=kind, table=table)
            else:
                raise ParseError('f must be "union" or a pair table', f"{field}.f")
        else:
            raise ParseError("delta entries are names or objects", field)
        if spec.name in names:
            raise ParseError(f"duplicate delta name {spec.name!r}", field)
        names.add(spec.name)
        specs.append(spec)
    return tuple(specs)


def _parse_sum(universe, raw, granulation) -> Optional[SumOperation]:
    """The sum the config names, or None."""
    if raw is None:
        return None
    if raw == "total-union":
        return SumOperation.total_union(universe)
    if raw == "granular-sum":
        if granulation is None:
            raise ParseError("granular-sum needs a granulation", "sum")
        return SumOperation.granular(granulation)
    if isinstance(raw, dict) and raw.get("kind") == "extensional-partial":
        _known(raw, ("kind", "table"), "sum")
        rows = _function(universe, raw.get("table"), "sum.table", total=False)
        return SumOperation.extensional(universe, {(a, b): v for a, b, v in rows})
    raise ParseError("sum must be total-union, granular-sum, or an extensional table", "sum")
