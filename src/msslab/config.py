"""Declarative JSON configs: parsing, validation, and structure building."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .delta import BUILTIN_DELTAS, DeltaPredicate, SumOperation
from .errors import ParseError
from .granules import (
    BinaryRelation,
    Granulation,
    close_relation,
    predecessor_granulation,
)
from .sets import Subset, Universe
from .structure import SIGNATURE_SLOTS, MssStructure, assemble, reduct
from .validation import COMPATIBILITY_MODES, Clustering

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


class DeltaSpec(NamedTuple):
    name: str
    kind: str
    triples: Optional[tuple[tuple[tuple[str, ...], ...], ...]] = None
    nearness: Optional[str] = None
    nearness_table: Optional[tuple] = None

    def build(self, universe: Universe, granulation: Optional[Granulation]) -> DeltaPredicate:
        if self.kind in BUILTIN_DELTAS:
            return DeltaPredicate.builtin(self.kind, universe, granulation)
        if self.kind == "extensional":
            triples = (
                tuple(universe.subset(part).mask for part in triple)
                for triple in self.triples
            )
            return DeltaPredicate.extensional_from_masks(universe, triples)
        if self.kind == "def0":
            if self.nearness == "union":
                return DeltaPredicate.from_nearness(universe)
            table = {
                (universe.subset(a).mask, universe.subset(b).mask): universe.subset(v).mask
                for a, b, v in self.nearness_table
            }
            return DeltaPredicate.from_nearness(universe, table)
        raise ParseError(f"unknown delta kind {self.kind!r}")


class LabConfig(NamedTuple):
    universe: Universe
    relation: Optional[BinaryRelation]
    granulation: Optional[Granulation]
    deltas: tuple[DeltaSpec, ...]
    sum_mode: Optional[str]
    sum_table: Optional[tuple]
    clustering_lists: Optional[tuple[tuple[str, ...], ...]]
    compatibility_modes: tuple[str, ...]
    reduct_keep: Optional[tuple[str, ...]]
    seed: Optional[int]

    def sum_operation(self) -> Optional[SumOperation]:
        if self.sum_mode is None:
            return None
        if self.sum_mode == "total-union":
            return SumOperation.total_union(self.universe)
        if self.sum_mode == "granular-sum":
            return SumOperation.granular(self.granulation)
        table = {
            (self.universe.subset(a).mask, self.universe.subset(b).mask): self.universe.subset(v).mask
            for a, b, v in self.sum_table
        }
        return SumOperation.extensional(self.universe, table)

    def clustering(self) -> Optional[Clustering]:
        if self.clustering_lists is None:
            return None
        return Clustering(
            self.universe, [self.universe.subset(names) for names in self.clustering_lists]
        )

    def structure(
        self,
        delta_spec: Optional[DeltaSpec] = None,
        *,
        bind_kappa: bool = True,
        apply_reduct: bool = True,
    ) -> MssStructure:
        delta = (
            delta_spec.build(self.universe, self.granulation)
            if delta_spec is not None
            else None
        )
        clustering = self.clustering() if bind_kappa else None
        built = assemble(
            self.universe,
            granulation=self.granulation,
            delta=delta,
            sum=self.sum_operation(),
            kappa=list(clustering) if clustering is not None else None,
        )
        if apply_reduct and self.reduct_keep is not None:
            # A config may list slots that this particular assembly leaves
            # unbound (e.g. delta while candidates are still being tried);
            # keep whatever of the request is actually bound.
            built = reduct(built, set(self.reduct_keep) & built.bound_slots())
        return built


def _names(value, field, what="element names"):
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError(f"expected a list of {what}", field)
    return value


def _resolve(universe: Universe, names, field) -> Subset:
    for k, name in enumerate(names):
        if name not in universe.elements:
            raise ParseError(f"element {name!r} not declared in universe", f"{field}[{k}]")
    return universe.subset(names)


def parse_config(data: dict, *, default_seed: Optional[int] = None) -> LabConfig:
    """Validate a config document and resolve it against its universe."""
    if not isinstance(data, dict):
        raise ParseError("config must be a JSON object")
    unknown = set(data) - KNOWN_FIELDS
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}")
    if "universe" not in data:
        raise ParseError("missing required field", "universe")
    universe = Universe(_names(data["universe"], "universe"))

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
        granules = [
            _resolve(universe, _names(g, f"granulation[{k}]"), f"granulation[{k}]")
            for k, g in enumerate(raw_granulation)
        ]
        granulation = Granulation(universe, granules)
    elif raw_granulation is not None:
        raise ParseError(
            'granulation must be "predecessor" or a list of granules', "granulation"
        )

    deltas = _parse_deltas(universe, data.get("delta"), granulation)

    sum_mode = None
    sum_table = None
    raw_sum = data.get("sum")
    if raw_sum is not None:
        sum_mode, sum_table = _parse_sum(universe, raw_sum, granulation)

    clustering_lists = None
    if data.get("clustering") is not None:
        raw_clusters = data["clustering"]
        if not isinstance(raw_clusters, list) or not raw_clusters:
            raise ParseError("clustering must be a nonempty list of clusters", "clustering")
        resolved = []
        for k, names in enumerate(raw_clusters):
            subset = _resolve(
                universe, _names(names, f"clustering[{k}]"), f"clustering[{k}]"
            )
            resolved.append(tuple(subset.members()))
        clustering_lists = tuple(resolved)

    modes = ("overlap-closer",)
    if data.get("compatibility_modes") is not None:
        raw_modes = _names(data["compatibility_modes"], "compatibility_modes", "mode names")
        modes = tuple(raw_modes) or modes
    for mode in modes:
        if mode not in COMPATIBILITY_MODES:
            raise ParseError(f"unsupported compatibility mode {mode!r}", "compatibility_modes")

    reduct_keep = None
    if data.get("reduct") is not None:
        reduct_keep = tuple(_names(data["reduct"], "reduct", "slot names"))
        for slot in reduct_keep:
            if slot not in SIGNATURE_SLOTS:
                raise ParseError(f"unknown signature slot {slot!r}", "reduct")

    seed = data.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise ParseError("seed must be an integer", "seed")

    return LabConfig(
        universe=universe,
        relation=relation,
        granulation=granulation,
        deltas=deltas,
        sum_mode=sum_mode,
        sum_table=sum_table,
        clustering_lists=clustering_lists,
        compatibility_modes=modes,
        reduct_keep=reduct_keep,
        seed=seed if seed is not None else default_seed,
    )


def _parse_relation(universe, raw) -> BinaryRelation:
    if not isinstance(raw, dict):
        raise ParseError("relation must be an object", "relation")
    has_pairs = "pairs" in raw
    has_generators = "generators" in raw
    if has_pairs == has_generators:
        raise ParseError("give exactly one of pairs/generators", "relation")
    key = "pairs" if has_pairs else "generators"
    pairs = []
    for k, pair in enumerate(raw[key]):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError("expected [from, to]", f"relation.{key}[{k}]")
        for name in pair:
            if name not in universe.elements:
                raise ParseError(
                    f"element {name!r} not declared in universe", f"relation.{key}[{k}]"
                )
        pairs.append(tuple(pair))
    relation = BinaryRelation(universe, pairs)
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
            if entry in ("E2", "uE1") and granulation is None:
                raise ParseError(f"{entry} needs a granulation", field)
            spec = DeltaSpec(name=entry, kind=entry)
        elif isinstance(entry, dict):
            kind = entry.get("kind")
            name = entry.get("name", f"{kind}-{k}")
            if kind == "extensional":
                triples = []
                for j, triple in enumerate(entry.get("triples", [])):
                    if not (isinstance(triple, list) and len(triple) == 3):
                        raise ParseError("expected [a, b, c]", f"{field}.triples[{j}]")
                    triples.append(
                        tuple(
                            tuple(
                                _resolve(universe, _names(part, f"{field}.triples[{j}]"),
                                         f"{field}.triples[{j}]").members()
                            )
                            for part in triple
                        )
                    )
                spec = DeltaSpec(name=name, kind="extensional", triples=tuple(triples))
            elif kind == "def0":
                f_value = entry.get("f")
                if f_value == "union":
                    spec = DeltaSpec(name=name, kind="def0", nearness="union")
                elif isinstance(f_value, list):
                    table = []
                    for j, row in enumerate(f_value):
                        if not (isinstance(row, list) and len(row) == 3):
                            raise ParseError("expected [a, b, value]", f"{field}.f[{j}]")
                        table.append(tuple(tuple(_names(part, f"{field}.f[{j}]")) for part in row))
                    spec = DeltaSpec(name=name, kind="def0", nearness_table=tuple(table))
                else:
                    raise ParseError('f must be "union" or a pair table', f"{field}.f")
            else:
                raise ParseError(f"unknown delta kind {kind!r}", field)
        else:
            raise ParseError("delta entries are names or objects", field)
        if spec.name in names:
            raise ParseError(f"duplicate delta name {spec.name!r}", field)
        names.add(spec.name)
        specs.append(spec)
    return tuple(specs)


def _parse_sum(universe, raw, granulation):
    if raw == "total-union":
        return "total-union", None
    if raw == "granular-sum":
        if granulation is None:
            raise ParseError("granular-sum needs a granulation", "sum")
        return "granular-sum", None
    if isinstance(raw, dict) and raw.get("kind") == "extensional-partial":
        table = []
        for j, row in enumerate(raw.get("table", [])):
            if not (isinstance(row, list) and len(row) == 3):
                raise ParseError("expected [a, b, value]", f"sum.table[{j}]")
            table.append(tuple(tuple(_names(part, f"sum.table[{j}]")) for part in row))
        return "extensional-partial", tuple(table)
    raise ParseError("sum must be total-union, granular-sum, or an extensional table", "sum")
