"""Verdicts for axiom checks, plus the shared quantifier sweep, and the
seed rule, header (``document``) and canonical JSON of every report.

A check walks a quantification space of subset-mask tuples and classifies
each instance as substantively satisfied, vacuously satisfied, or
violated. Every exact decider (the sweep, the law kernels on the delta
cube and on a sum table, and the compatibility check) builds its verdict
through ``decided``,
under one contract:

- the first violating tuple of the walk, decoded to subsets, is the
  witness. An exhaustive walk runs in canonical order,
  ``itertools.product(range(2**n), repeat=k)``, so its witness is the
  least, and the witness's 1-based position there is the count of
  instances checked;
- a law with no violation holds when some instance was substantive and
  is vacuous otherwise, and an exhaustive count is the whole space,
  (2**n)**k.

A space larger than the budget is sampled instead, with the seed recorded
on the verdict. A sampled sweep, and a compatibility check, which walks
its clusters in list order, count the instances they visited.
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


def run_seed(given: Optional[int], document: Optional[int]) -> int:
    """The seed a run uses: the one it is given, else its document's, else
    ``DEFAULT_SEED``. Every report builder and sampled sweep reads it here."""
    if given is not None:
        return given
    return DEFAULT_SEED if document is None else document


def document(command: str, seed: int, **sections) -> dict:
    """A report: its command, its provenance (tool, version and the seed
    the run used), then its sections."""
    provenance = {"tool": "msslab", "version": __version__, "seed": seed}
    return {"command": command, "provenance": provenance, **sections}


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
    def failed(self) -> bool:
        return self.status == FAILS

    @property
    def passed(self) -> bool:
        """No counterexample: holds or vacuous."""
        return self.status in (HOLDS, VACUOUS)

    def __repr__(self):
        extra = f", witness={self.witnesses[0]!r}" if self.witnesses else ""
        return f"Verdict({self.axiom}: {self.status}{extra})"


def deferred(axiom: str, unbound) -> Verdict:
    """A law that reads the ``unbound`` slots; no instance is checked."""
    return Verdict(axiom, DEFERRED, mode="none", note=f"unbound slots: {sorted(unbound)}")


def unspecified(axiom: str, note: str) -> Verdict:
    return Verdict(axiom, UNSPECIFIED, mode="none", note=note)


def theorem(axiom: str, reason: str) -> Verdict:
    """A law that holds by proof; no instance is checked."""
    return Verdict(axiom, HOLDS, mode="theorem", note=f"theorem: {reason}")


def decided(
    axiom: str,
    universe: Universe,
    arity: int,
    first: Optional[tuple[int, ...]],
    substantive: bool,
    *,
    count: Optional[int] = None,
    mode: str = "exhaustive",
    seed: Optional[int] = None,
) -> Verdict:
    """The verdict of a decided law, by the contract above: ``first`` is
    the first violating tuple of ``arity`` masks (None when none is) and
    ``substantive`` whether any instance was. Only a walk that is not the
    exhaustive space in canonical order gives its own ``count``."""
    top = 1 << universe.size
    if first is None:
        status, witnesses, checked = (HOLDS if substantive else VACUOUS), (), top**arity
    else:
        status, witnesses = FAILS, (tuple(map(universe.from_mask, first)),)
        # The witness's position: its masks are the digits of its rank in base 2**n.
        checked = 1 + sum(x * top**i for i, x in enumerate(reversed(first)))
    return Verdict(axiom, status, witnesses, checked if count is None else count, mode, seed)


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
    satisfied), or False (violated). The sweep is exhaustive exactly when
    the space has at most ``budget`` tuples; a larger space is sampled
    with ``budget`` tuples, each element drawn by
    ``Random(seed).randrange(2**n)`` in turn (by ``run_seed``, a seed of
    None is ``DEFAULT_SEED``). No report law reaches the sweep at n ≤ 9:
    ``structure.check_axiom`` decides lclu on κ, the omega laws as
    theorems or on the sum table and the δ laws on the delta cube. The
    sweep is the sampled path past the cube, and the exhaustive reference
    the tests compare those deciders against.
    """
    top = 1 << universe.size
    if top**arity <= budget:
        mode, seed = "exhaustive", None
        tuples = itertools.product(range(top), repeat=arity)
    else:
        mode = "sampled"
        seed = run_seed(seed, None)
        draws = map(random.Random(seed).randrange, itertools.repeat(top))
        tuples = itertools.islice(zip(*[draws] * arity), budget)

    first, substantive, checked = None, False, 0
    for checked, args in enumerate(tuples, 1):
        result = instance(*args)
        if result is False:
            first = args
            break
        if result is True:
            substantive = True
    count = checked if mode == "sampled" else None
    return decided(axiom, universe, arity, first, substantive, count=count, mode=mode, seed=seed)
