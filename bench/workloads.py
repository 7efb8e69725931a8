"""The benchmark's fixed inputs: one CLI subcommand and one JSON document each.

Every input is owned or generated here; nothing is read from the rest of
the repository. The workload seed never changes a document: it reaches
the CLI only as ``--seed``, where it fixes the sampled sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    document: dict


# Copy of the README's "Config example" (the paper's worked example).
PAPER_EXAMPLE = {
    "universe": ["x1", "x2", "x3", "x4"],
    "relation": {
        "generators": [["x1", "x2"], ["x2", "x3"]],
        "closure": ["reflexive", "symmetric"],
    },
    "granulation": "predecessor",
    "delta": ["E0", "E1", "E2", "uE1"],
    "sum": "granular-sum",
    "clustering": [["x1", "x3"], ["x2", "x3"], ["x2", "x4"]],
}


def _names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


def n5_config() -> dict:
    """n=5 tolerance with two components, E1 and the self-nearness table.

    Self-nearness is {({x},{x},{y}) : x != y}. Under it trans-1 is vacuous,
    so its sampled sweep draws the whole sample budget.
    """
    names = _names(5)
    self_nearness = [[[x], [x], [y]] for x in names for y in names if x != y]
    return {
        "universe": names,
        "relation": {
            "generators": [["x1", "x2"], ["x2", "x3"], ["x4", "x5"]],
            "closure": ["reflexive", "symmetric"],
        },
        "granulation": "predecessor",
        "delta": ["E1", {"kind": "extensional", "name": "self-nearness", "triples": self_nearness}],
        "sum": "granular-sum",
    }


def n16_config() -> dict:
    """n=16: four 4-point tolerance chains and 8 overlapping clusters.

    Cluster k is the 5-element window starting at element 2k (wrapping
    round). Every window cuts a chain, so no cluster is a union of
    granules and each one costs the full powerset scan of the grades.
    """
    names = _names(16)
    generators = [
        [names[4 * chain + i], names[4 * chain + i + 1]]
        for chain in range(4)
        for i in range(3)
    ]
    clusters = [
        sorted({(2 * k + m) % 16 for m in range(5)}) for k in range(8)
    ]
    return {
        "universe": names,
        "relation": {"generators": generators, "closure": ["reflexive", "symmetric"]},
        "granulation": "predecessor",
        "delta": ["E0", "E1", "uE1"],
        "compatibility_modes": ["overlap-closer", "clue-singleton"],
        "clustering": [[names[i] for i in cluster] for cluster in clusters],
    }


# UL1 and UL2 hold for every granular operator, so nothing is ever found
# and all 512 relations are examined on every run.
SEARCH_N3 = {
    "n": 3,
    "family": "relations",
    "delta": "E2",
    "required": ["i-coh-2", "strict-n-coh", "n-coh"],
    "forbidden": ["UL1", "UL2"],
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-pipeline", "pipeline", PAPER_EXAMPLE),
        Workload("n5-sampled", "check-axioms", n5_config()),
        Workload("validate-n16", "validate", n16_config()),
        Workload("search-n3", "search", SEARCH_N3),
    )
}


def search_spec(document: dict, seed: int):
    """The SearchSpec the CLI builds from a spec document and ``--seed``."""
    from msslab.search import SearchSpec

    return SearchSpec(
        n=document["n"],
        family=document["family"],
        delta=document["delta"],
        required=tuple(document["required"]),
        forbidden=tuple(document["forbidden"]),
        seed=seed,
    )
