"""The law table: the signature's slots, every law with the slots it
reads, and the δ and sum names a document may give.

``LAWS`` is the one registry of laws: for each, the slots it reads, the
arity of its instances and its theorem reasons. ``structure`` checks the
laws and ``delta`` builds the predicates and sums these names select;
this module holds only the table, so a reader that needs the names, such
as a search spec's checks, loads no model code.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

SIGNATURE_SLOTS = (
    "P",
    "delta",
    "sum",
    "kappa",
    "leq",
    "join",
    "meet",
    "l",
    "u",
    "top",
    "bottom",
    "gamma",
)

# The slots whose interpretation is fixed: parthood and order are
# inclusion, join and meet are union and intersection, top is H and
# bottom is the empty set.
SET_SLOTS = frozenset({"P", "leq", "join", "meet", "top", "bottom"})
# The slots that one granulation binds: its approximations l and u, and
# itself as gamma.
GRANULATION_SLOTS = frozenset({"l", "u", "gamma"})


class Law(NamedTuple):
    """One row of ``LAWS``: the slots a law reads, the number of subsets
    its instances quantify over (None when it is not swept) and, for a law
    that follows from the interpretations, or only under a union sum
    (``UNION_SUMS``), the reason (None otherwise)."""

    reads: frozenset[str]
    arity: Optional[int]
    theorem: Optional[str]
    union_theorem: Optional[str] = None

    @property
    def defined(self) -> bool:
        """Whether the law has a definition: instances to check or a proof."""
        return self.arity is not None or self.theorem is not None


# Every law, in report order: the laws of one structure, those of each
# delta candidate, then admissibility. The theorems follow from the
# interpretations above and from l and u being unions of nonempty granules
# of one granulation; a law with neither an arity nor a reason has no
# definition.
LAWS = {
    name: Law(frozenset(reads.split()), arity, *reasons)
    for name, reads, arity, *reasons in (
        ("PT1", "P", None, "inclusion is reflexive"),
        ("PT2", "P", None, "inclusion is antisymmetric"),
        ("G1", "join meet", None, "union and intersection are commutative"),
        ("G2", "join meet", None, "union and intersection absorb each other"),
        ("G3", "join meet", None, "union distributes over intersection"),
        ("G4", "join meet", None, "intersection distributes over union"),
        (
            "G5",
            "leq join meet",
            None,
            "A is included in B iff their union is B iff their intersection is A",
        ),
        (
            "UL1",
            "P l u",
            None,
            "l(A) is the union of the granules inside A, so it is inside A and its own l;"
            " each granule of u(A) is nonempty, so it meets u(A) and lies in u(u(A))",
        ),
        (
            "UL2",
            "P l u",
            None,
            "a granule inside or meeting A is inside or meets every superset of A",
        ),
        (
            "UL3",
            "P l u top bottom",
            None,
            "no nonempty granule is inside or meets the empty set, and l(H), u(H) lie in H",
        ),
        ("TB", "P top bottom", None, "every subset lies between the empty set and H"),
        ("clos1", "", None, None),
        ("lclu", "kappa l", 1, None),
        (
            "omega-star-com",
            "sum",
            2,
            None,
            "a union sum is defined on (A, B) exactly when on (B, A), and is their union there",
        ),
        ("omega-id", "sum", 1, None, "a union sum of A with itself is A wherever it is defined"),
        (
            "omega-asso",
            "sum",
            3,
            None,
            "A + (B + C) and (A + B) + C are both the union of A, B and C wherever both are defined",
        ),
        ("i-coh", "delta", 2, None),
        ("n-coh", "delta", 3, None),
        ("i-coh-2", "delta", 2, None),
        ("strict-n-coh", "delta", 3, None),
        ("trans-1", "delta", 4, None),
        ("delta-sum1", "sum delta", 3, None),
        ("delta-sum2", "sum delta", 3, None),
        ("delta-sum3", "sum delta", 3, None),
        (
            "admissible-representable",
            "gamma l u",
            None,
            "l(A) and u(A) are unions of granules by definition",
        ),
        (
            "admissible-granules-lower-definite",
            "gamma l u",
            None,
            "each granule is inside itself, so it is its own l",
        ),
        (
            "admissible-pairs-in-definite",
            "gamma l u",
            None,
            "the union of all granules is definite and contains every pair of granules",
        ),
    )
}

AXIOM_ORDER = tuple(LAWS)
THEOREMS = {name: law.theorem for name, law in LAWS.items() if law.theorem is not None}
ADMISSIBILITY_AXIOMS = tuple(name for name, law in LAWS.items() if "gamma" in law.reads)

BUILTIN_DELTAS = ("E0", "E1", "E2", "uE1")
# The sum modes that are the union of their arguments wherever they are defined.
UNION_SUMS = ("total-union", "granular-sum")

EXTENSIONAL_TABLE_LIMIT = 6
EXTENSIONAL_TABLE_REFUSED = (
    f"extensional tables admitted only for universes of size <= {EXTENSIONAL_TABLE_LIMIT}"
)
