"""Finite universes, characteristic-vector subsets, and partial-term semantics.

A subset of a universe is a bitmask, element 0 in the least significant
bit; the canonical enumeration order of the powerset is ascending mask
rank. Masks are the package's one internal subset form: granulations,
clusterings and cluster membership are built from them. ``Subset`` is
the immutable value object at the API edge, read through ``encode`` by
operations on subsets and carried by witnesses. A partial operation
returns None where it is undefined, on subsets and on masks alike.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import MsslabError, UniverseMismatchError


class Universe:
    """Ordered finite collection of distinct element names."""

    __slots__ = ("elements", "_index")

    def __init__(self, elements: Iterable[str]):
        names = tuple(elements)
        if not names:
            raise MsslabError("universe must contain at least one element")
        seen = set()
        for name in names:
            if not isinstance(name, str) or not name:
                raise MsslabError(f"element names must be nonempty strings, got {name!r}")
            if name in seen:
                raise MsslabError(f"duplicate element name {name!r}")
            seen.add(name)
        self.elements = names
        self._index = {name: i for i, name in enumerate(names)}

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise MsslabError(f"element {name!r} is not in the universe") from None

    def subset(self, names: Iterable[str] = ()) -> "Subset":
        mask = 0
        for name in names:
            mask |= 1 << self.index(name)
        return Subset(self, mask)

    def singleton(self, name: str) -> "Subset":
        return Subset(self, 1 << self.index(name))

    def from_mask(self, mask: int) -> "Subset":
        return Subset(self, mask)

    @property
    def empty(self) -> "Subset":
        return Subset(self, 0)

    @property
    def full(self) -> "Subset":
        return Subset(self, (1 << self.size) - 1)

    def names(self, mask: int) -> tuple[str, ...]:
        """The elements of the subset ``mask``, in universe order."""
        return tuple(name for i, name in enumerate(self.elements) if mask >> i & 1)

    def all_subsets(self) -> Iterator["Subset"]:
        """Yield the full powerset in canonical (mask-ascending) order."""
        for mask in range(1 << self.size):
            yield Subset(self, mask)

    def __eq__(self, other):
        return isinstance(other, Universe) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"Universe({list(self.elements)!r})"


class Subset:
    """Immutable subset of a Universe, compared by value."""

    __slots__ = ("universe", "mask")

    def __init__(self, universe: Universe, mask: int):
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "mask", check_mask(universe, mask))

    def __setattr__(self, name, value):
        raise AttributeError("Subset is immutable")

    def members(self) -> tuple[str, ...]:
        return self.universe.names(self.mask)

    def __contains__(self, name: str) -> bool:
        return bool(self.mask >> self.universe.index(name) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other):
        return (
            isinstance(other, Subset)
            and self.mask == other.mask
            and self.universe == other.universe
        )

    def __hash__(self):
        return hash((self.universe.elements, self.mask))

    def __or__(self, other: "Subset") -> "Subset":
        return Subset(self.universe, self.mask | encode(self.universe, (other,))[0])

    def __and__(self, other: "Subset") -> "Subset":
        return Subset(self.universe, self.mask & encode(self.universe, (other,))[0])

    def __sub__(self, other: "Subset") -> "Subset":
        return Subset(self.universe, self.mask & ~encode(self.universe, (other,))[0])

    def __le__(self, other: "Subset") -> bool:
        return self.mask & ~encode(self.universe, (other,))[0] == 0

    def __lt__(self, other: "Subset") -> bool:
        return self <= other and self.mask != other.mask

    def __repr__(self):
        return "{" + ",".join(self.members()) + "}"


def check_mask(universe: Universe, mask: int) -> int:
    """``mask``, refused unless it is a subset mask of ``universe``."""
    if not isinstance(mask, int):
        raise TypeError(f"expected a subset mask, got {type(mask).__name__}")
    if mask < 0 or mask >> universe.size:
        raise MsslabError(f"mask {mask:#x} has members outside the universe")
    return mask


def encode(universe: Universe, subsets) -> tuple[int, ...]:
    """Masks of ``subsets``, each checked to be a ``Subset`` of ``universe``."""
    masks = []
    for s in subsets:
        if not isinstance(s, Subset):
            raise TypeError(f"expected Subset, got {type(s).__name__}")
        if s.universe != universe:
            raise UniverseMismatchError(
                f"operand lives in a different universe: {s.universe.elements} "
                f"vs {universe.elements}"
            )
        masks.append(s.mask)
    return tuple(masks)


def partial_difference(a: Subset, b: Subset) -> Subset | None:
    """Set difference ``a - b`` as a partial operation, defined iff b is included in a."""
    return a - b if b <= a else None
