"""The law kernels on masks: ``INSTANCES``, the one place the instance of
each swept law on δ or the sum is written, which a sweep quantifies and
a replay re-runs; ``cube_verdict``, which decides every law that reads
δ in one walk over the planes of the predicate's cube; and
``table_verdict``, which decides each omega law on an extensional sum in
one walk over the table's defined pairs.

``structure.check_axiom`` and ``structure.evaluator`` import this module
only when a law has to be swept or decided on δ or on the sum, so a run
whose verdicts are theorems, deferred or unspecified never loads it. The
cube itself, ``DeltaPredicate.plane``, is declared in ``delta``.
"""

from __future__ import annotations

from typing import Callable, Optional

from .delta import DeltaPredicate, SumOperation
from .errors import MsslabError
from .laws import LAWS
from .verdicts import Verdict, decided


def _omega_asso(d, s):
    def omega_asso(a, b, c):
        bc = s(b, c)
        if bc is None:
            return True
        ab = s(a, b)
        if ab is None:
            return True
        left, right = s(a, bc), s(ab, c)
        return left is None or right is None or left == right

    return omega_asso


# Each swept law that reads δ or the sum, with the builder of its instance
# from ``d``, the predicate on masks, and ``s``, the sum on masks, which
# returns None where it is undefined (each None when its slot is unbound).
# An instance returns True (satisfied), None (vacuously satisfied) or
# False (violated). Partial values are compared by conditional equality
# (both defined implies equal) except in omega-star-com, which asks for
# strong equality: undefined is one value there, so it is plain equality.
# The delta-sum laws pass vacuously when the antecedent fails or the
# squared sum is undefined. Each instance takes its fixed arity, since a
# sampled sweep calls it up to a million times.
INSTANCES: dict[str, Callable[..., Callable[..., Optional[bool]]]] = {
    "i-coh": lambda d, s: lambda a, b: d(b, b, a),
    "n-coh": lambda d, s: lambda a, b, c: d(b, a, c) if d(a, b, c) else None,
    "i-coh-2": lambda d, s: lambda a, b: not d(a, b, b),
    "strict-n-coh": lambda d, s: lambda a, b, c: not d(a, c, b) if d(a, b, c) else None,
    "trans-1": lambda d, s: (
        lambda a, b, c, e: not d(a, e, c) if d(a, b, c) and d(a, e, b) else None
    ),
    "omega-star-com": lambda d, s: lambda a, b: s(a, b) == s(b, a),
    "omega-id": lambda d, s: lambda a: (aa := s(a, a)) is None or aa == a,
    "omega-asso": _omega_asso,
    "delta-sum1": lambda d, s: (
        lambda a, b, c: None if not d(a, b, c) or (aa := s(a, a)) is None else d(aa, b, c)
    ),
    "delta-sum2": lambda d, s: (
        lambda a, b, c: None if not d(a, b, c) or (bb := s(b, b)) is None else d(a, bb, c)
    ),
    "delta-sum3": lambda d, s: (
        lambda a, b, c: None if not d(a, b, c) or (cc := s(c, c)) is None else d(a, b, cc)
    ),
}


# The live mask of a law every instance of which is substantive.
EVERY = (True,)


def cube_verdict(
    axiom: str, d: DeltaPredicate, s: Optional[Callable[[int, int], Optional[int]]] = None
) -> Verdict:
    """A law that reads δ, decided exactly on the planes of ``d``'s cube.

    ``s`` is the sum on masks, for the delta-sum laws. Each law's
    ``cells(a)`` gives, for each b of plane a, the live antecedent mask and
    the violating mask. With ``rows[a], cols[a] = d.plane(a)`` and
    ``row = rows[a][b]``, the mask of violating c is:

    - n-coh: ``row & ~rows[b][a]``;
    - strict-n-coh: ``row & cols[a][b]``;
    - trans-1: ``row & reach[b]``, where ``reach[b]`` is the union of the
      rows of plane a that hold b: c violates with every such row e that
      holds c too;
    - delta-sum1: ``row & ~rows[s(a, a)][b]``, where s(a, a) is defined;
    - delta-sum2: ``row & ~rows[a][s(b, b)]``, where s(b, b) is defined;
    - delta-sum3: the c in ``row`` whose s(c, c) is defined and not in ``row``.

    The instance (a, b) of i-coh reads d(b, b, a) and fails when bit a of
    ``rows[b][b]`` is clear; that of i-coh-2 fails when bit b of ``row``
    is set. Every instance of both is substantive.

    One loop reads the planes in order of a and stops at the first
    violating cell. Its witness is (a, b), the least violating c, and for
    trans-1 the first row e of plane a that holds b and c: the first
    violating tuple in canonical order. i-coh and n-coh read every plane:
    i-coh ANDs the diagonal cells up front and looks only at the a the AND
    lacks, and plane a of n-coh reads row a of every plane. The others
    read a plane when the loop reaches it, and delta-sum1 plane s(a, a)
    too. An instance is substantive when its antecedent is true (and its
    squared sum defined). When no defined square s(x, x) moves its
    argument, as under every sum of ``UNION_SUMS``, each delta-sum
    consequent is its antecedent: the law cannot fail, and the first
    substantive instance decides it.
    """
    top = 1 << d.universe.size
    plane = d.plane
    diag = [s(x, x) for x in range(top)] if axiom.startswith("delta-sum") else None
    fixed = diag is not None and all(xx in (x, None) for x, xx in enumerate(diag))
    if axiom == "i-coh":
        own = [plane(b)[0][b] for b in range(top)]
        common = (1 << top) - 1
        for row in own:
            common &= row

        def cells(a):
            return EVERY, () if common >> a & 1 else [not row >> a & 1 for row in own]

    elif axiom == "i-coh-2":

        def cells(a):
            return EVERY, [row >> b & 1 for b, row in enumerate(plane(a)[0])]

    elif axiom == "n-coh":
        rows = [plane(x)[0] for x in range(top)]

        def cells(a):
            return rows[a], [row & ~rows[b][a] for b, row in enumerate(rows[a])]

    elif axiom == "strict-n-coh":

        def cells(a):
            rows, cols = plane(a)
            return rows, [row & col for row, col in zip(rows, cols)]

    elif axiom == "trans-1":

        def cells(a):
            rows = plane(a)[0]
            reach = [0] * top
            # Equal rows add nothing to reach, and the b of one key share a row.
            for row in set(rows):
                rest = row
                while rest:
                    low = rest & -rest
                    reach[low.bit_length() - 1] |= row
                    rest ^= low
            pairs = list(zip(rows, reach))
            return [row and r for row, r in pairs], [row & r for row, r in pairs]

    elif axiom == "delta-sum1":

        def cells(a):
            aa = diag[a]
            if aa is None:
                return (), ()
            rows = plane(a)[0]
            return rows, [row & ~then for row, then in zip(rows, plane(aa)[0])]

    elif axiom == "delta-sum2":

        def cells(a):
            rows = plane(a)[0]
            live = [0 if bb is None else row for row, bb in zip(rows, diag)]
            # An empty live row reads no square, defined or not.
            return live, [row and row & ~rows[bb] for row, bb in zip(live, diag)]

    elif axiom == "delta-sum3":
        defined = sum(1 << c for c, cc in enumerate(diag) if cc is not None)
        # A c that s(c, c) keeps never violates, so only the moved c are read.
        moves = [(c, cc) for c, cc in enumerate(diag) if cc not in (None, c)]

        def cells(a):
            rows = plane(a)[0]
            live = [row & defined for row in rows]
            if not moves:
                return live, ()
            return live, [
                sum(1 << c for c, cc in moves if row >> c & 1 and not row >> cc & 1)
                for row in rows
            ]

    else:
        raise MsslabError(f"axiom {axiom!r} is not decided on the delta cube")

    arity = LAWS[axiom].arity
    first, substantive = None, False
    for a in range(top):
        live, bad = cells(a)
        if any(bad):
            b, mask = next((b, mask) for b, mask in enumerate(bad) if mask)
            low = mask & -mask
            first = (a, b, low.bit_length() - 1)[:arity]
            if arity == 4:  # trans-1: the first row of plane a holding b and c
                pair = 1 << b | low
                first += (next(e for e, row in enumerate(plane(a)[0]) if row & pair == pair),)
            break
        if any(live):
            substantive = True
            if fixed:
                break
    return decided(axiom, d.universe, arity, first, substantive)


def table_verdict(axiom: str, s: SumOperation) -> Verdict:
    """An omega law, which reads only the sum, decided on the defined
    pairs of an ``extensional-partial`` table.

    An instance reads True where a sum it compares is undefined (both
    sides of omega-star-com undefined are equal), so only a tuple that
    reads listed pairs can violate. The walk visits those tuples in
    canonical order, so its first violation is the least:

    - omega-id: the listed (a, a);
    - omega-star-com: each (a, b) for which (a, b) or (b, a) is listed;
    - omega-asso: a over the listed pairs, b over the defined (a, b), and
      c over the defined (b, c).

    Every instance is substantive, so a law with no violation holds, with
    the whole space as its count. The walk is bounded by the table, not by
    a budget.
    """
    table = s.table
    pairs = sorted(table)
    if axiom == "omega-id":
        tuples = [(a,) for a, b in pairs if a == b]
    elif axiom == "omega-star-com":
        tuples = sorted({*pairs, *[(b, a) for a, b in pairs]})
    elif axiom == "omega-asso":
        after: dict[int, list[int]] = {}
        for a, b in pairs:
            after.setdefault(a, []).append(b)
        tuples = ((a, b, c) for a, bs in after.items() for b in bs for c in after.get(b, ()))
    else:
        raise MsslabError(f"axiom {axiom!r} is not decided on a sum table")
    instance = INSTANCES[axiom](None, s.masked())
    first = next((t for t in tuples if instance(*t) is False), None)
    return decided(axiom, s.universe, LAWS[axiom].arity, first, True)
