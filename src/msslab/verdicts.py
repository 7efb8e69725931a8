"""Verdicts for axiom checks, plus the shared quantifier sweep, and the
provenance and canonical JSON of every report.

A check walks a quantification space of subset-mask tuples and classifies
each instance as substantively satisfied, vacuously satisfied, or
violated; only a violating tuple is decoded to subsets, as the witness.
Exhaustive walks run in canonical order, so the first violation found is
the lexicographic minimum; spaces larger than the budget fall back to
seeded sampling with the seed recorded on the verdict.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Callable, NamedTuple, Optional

from . import __version__
from .sets import Subset, Universe

HOLDS = "holds"
FAILS = "fails"
VACUOUS = "vacuous"
DEFERRED = "deferred"
UNSPECIFIED = "unspecified"

DEFAULT_SAMPLE_BUDGET = 1_000_000
# Sampled sweeps given no seed draw from this one, so every run repeats.
DEFAULT_SEED = 0


def provenance(seed: Optional[int]) -> dict:
    """Tool, version, and the seed sampled sweeps use (``DEFAULT_SEED`` for None)."""
    return {
        "tool": "msslab",
        "version": __version__,
        "seed": DEFAULT_SEED if seed is None else seed,
    }


def to_json(report: dict) -> str:
    """A report as canonical JSON: sorted keys, ASCII only, one trailing newline."""
    return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


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
    exhaustive up to n = 6. ``structure.check_axiom`` decides the five
    coherence laws and delta-sum1..3 on the delta cube
    (``kernels.cube_verdict``) instead of this sweep whenever its (2ⁿ)²
    rows fit ``budget``, with the verdict this sweep would give
    exhaustively; those laws reach n = 9 that way, and under a union sum
    the first substantive cell decides a delta-sum law. So of the δ
    laws only a sampled one, past the cube's budget, is swept. The omega
    laws are swept only under an ``extensional-partial`` sum; under a
    union sum they are theorems.
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
