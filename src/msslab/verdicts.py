"""Verdicts for axiom checks, plus the shared quantifier sweep.

A check walks a quantification space of subset-mask tuples and classifies
each instance as substantively satisfied, vacuously satisfied, or
violated; only a violating tuple is decoded to subsets, as the witness.
Exhaustive walks run in canonical order, so the first violation found is
the lexicographic minimum; spaces larger than the budget fall back to
seeded sampling with the seed recorded on the verdict.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, NamedTuple, Optional

from .sets import Subset, Universe

HOLDS = "holds"
FAILS = "fails"
VACUOUS = "vacuous"
DEFERRED = "deferred"
UNSPECIFIED = "unspecified"

DEFAULT_SAMPLE_BUDGET = 1_000_000
# Sampled sweeps given no seed draw from this one, so every run repeats.
DEFAULT_SEED = 0


class Verdict(NamedTuple):
    axiom: str
    status: str
    witnesses: tuple[tuple[Subset, ...], ...] = ()
    instances_checked: int = 0
    mode: str = "exhaustive"
    seed: Optional[int] = None
    note: Optional[str] = None

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    @property
    def failed(self) -> bool:
        return self.status == FAILS

    @property
    def passed(self) -> bool:
        """No counterexample: holds or vacuous."""
        return self.status in (HOLDS, VACUOUS)

    def __repr__(self):
        extra = f", witness={self.witnesses[0]!r}" if self.witnesses else ""
        return f"Verdict({self.axiom}: {self.status}{extra})"


def deferred(axiom: str, note: str = "required interpretation is unbound") -> Verdict:
    return Verdict(axiom, DEFERRED, mode="none", note=note)


def unspecified(axiom: str, note: str) -> Verdict:
    return Verdict(axiom, UNSPECIFIED, mode="none", note=note)


def theorem(axiom: str, reason: str) -> Verdict:
    """A law that holds by proof; no instance is checked."""
    return Verdict(axiom, HOLDS, mode="theorem", note=f"theorem: {reason}")


def sweep(
    axiom: str,
    universe: Universe,
    arity: int,
    instance: Callable[..., Optional[bool]],
    *,
    seed: Optional[int] = None,
    budget: int = DEFAULT_SAMPLE_BUDGET,
) -> Verdict:
    """Quantify ``instance`` over all ``arity``-tuples of subset masks.

    ``instance`` takes masks and returns True (satisfied), None (vacuously
    satisfied), or False (violated). The verdict is ``fails`` with the
    first violating tuple, decoded to subsets, as witness; ``vacuous`` when
    every instance passed vacuously; and ``holds`` otherwise. The sweep is
    exhaustive exactly when the space has at most ``budget`` tuples; a
    larger space is sampled with ``budget`` tuples, each element drawn by
    ``Random(seed).randrange(2**n)`` in turn (seed ``DEFAULT_SEED`` when
    none is given). With the default budget every law of arity ≤ 3 is
    exhaustive up to n = 6. ``structure.check_axiom`` decides n-coh,
    strict-n-coh, trans-1 and delta-sum1..3 on the delta cube
    (``delta.cube_verdict``) instead of this sweep whenever (2ⁿ)³ ≤
    ``budget``, with the verdict this sweep would give exhaustively;
    trans-1, of arity 4, reaches n = 6 that way.
    """
    top = 1 << universe.size
    total = top**arity
    if total <= budget:
        mode, count, seed = "exhaustive", total, None
        tuples = itertools.product(range(top), repeat=arity)
    else:
        mode, count = "sampled", budget
        seed = DEFAULT_SEED if seed is None else seed
        draws = map(random.Random(seed).randrange, itertools.repeat(top))
        tuples = itertools.islice(zip(*[draws] * arity), budget)

    substantive = False
    for checked, args in enumerate(tuples, 1):
        result = instance(*args)
        if result is False:
            witness = tuple(map(universe.from_mask, args))
            return Verdict(
                axiom,
                FAILS,
                witnesses=(witness,),
                instances_checked=checked,
                mode=mode,
                seed=seed,
            )
        if result is True:
            substantive = True

    status = HOLDS if substantive else VACUOUS
    return Verdict(axiom, status, instances_checked=count, mode=mode, seed=seed)
