"""The law kernels on masks: the coherence and sum law evaluators a sweep
quantifies, and the verdicts decided on the rows of a predicate's cube.

``structure.check_axiom`` and ``structure.evaluator`` import this module
only when a law has to be swept or decided on δ or on the sum, so a run
whose verdicts are theorems, deferred or unspecified never loads it. The
cube itself, ``DeltaPredicate.plane``, is declared in ``delta``; it
decides every law that reads δ.
"""

from __future__ import annotations

from typing import Callable, Optional

from .delta import DeltaPredicate
from .errors import MsslabError
from .verdicts import Verdict, decided


def coherence_evaluator(d: Callable[[int, int, int], bool], axiom: str):
    """One coherence law on masks, for the predicate ``d`` on masks.

    The evaluator returns True (satisfied), None (vacuously satisfied) or
    False (violated).
    """
    if axiom == "i-coh":
        return lambda a, b: d(b, b, a)
    if axiom == "n-coh":
        return lambda a, b, c: d(b, a, c) if d(a, b, c) else None
    if axiom == "i-coh-2":
        return lambda a, b: not d(a, b, b)
    if axiom == "strict-n-coh":
        return lambda a, b, c: not d(a, c, b) if d(a, b, c) else None
    if axiom == "trans-1":
        return lambda a, b, c, e: not d(a, e, c) if d(a, b, c) and d(a, e, b) else None
    raise MsslabError(f"unknown coherence axiom {axiom!r}")


def trans1_verdict(d: DeltaPredicate) -> Verdict:
    """trans-1 decided exactly on the rows of ``d`` (``d.plane``).

    For each ``a`` in turn, ``rows[b]`` is the mask of every ``c`` with
    d(a, b, c). The instance (a, b, c, e) is violated when c lies in
    ``rows[b]`` and in a row ``rows[e]`` that holds b, so the violating c
    for (a, b) are ``rows[b] & reach[b]``, where ``reach[b]`` is the union
    of the rows holding b.
    """
    universe = d.universe
    top = 1 << universe.size
    bits = [1 << c for c in range(top)]
    substantive = False
    for a in range(top):
        rows = d.plane(a)[0]
        reach = [0] * top
        # Equal rows add nothing to reach, and the b of one key share a row.
        for row in set(rows):
            rest = row
            while rest:
                low = rest & -rest
                reach[low.bit_length() - 1] |= row
                rest ^= low
        for b, row in enumerate(rows):
            bad = row & reach[b]
            if bad:
                c = (bad & -bad).bit_length() - 1
                pair = bits[b] | bits[c]
                e = next(e for e, held in enumerate(rows) if held & pair == pair)
                return decided("trans-1", universe, 4, (a, b, c, e), True)
            substantive = substantive or bool(row and reach[b])
    return decided("trans-1", universe, 4, None, substantive)


def diagonal_verdict(axiom: str, d: DeltaPredicate) -> Verdict:
    """i-coh or i-coh-2 decided exactly on the diagonal cells of ``d``'s cube.

    The instance (a, b) of i-coh reads d(b, b, a), bit a of
    ``own[b] = d.plane(b)[0][b]``: the law holds iff the AND of every
    ``own`` is full, and first fails at its lowest missing bit a and the
    first b whose ``own`` lacks it. The instance (a, b) of i-coh-2 fails
    when d(a, b, b), bit b of ``d.plane(a)[0][b]``; the planes are read
    in order of a, so a failure reads no plane past its own. Every
    instance of both laws is substantive, so a law that never fails holds.
    """
    top = 1 << d.universe.size
    found = None
    if axiom == "i-coh":
        own = [d.plane(b)[0][b] for b in range(top)]
        full = common = (1 << top) - 1
        for row in own:
            common &= row
        missing = full ^ common
        if missing:
            a = (missing & -missing).bit_length() - 1
            found = a, next(b for b, row in enumerate(own) if not row >> a & 1)
    elif axiom == "i-coh-2":
        for a in range(top):
            b = next((b for b, row in enumerate(d.plane(a)[0]) if row >> b & 1), None)
            if b is not None:
                found = a, b
                break
    else:
        raise MsslabError(f"axiom {axiom!r} is not decided on the cube's diagonal")
    return decided(axiom, d.universe, 2, found, True)


def sum_evaluator(
    d: Optional[Callable[[int, int, int], bool]],
    s: Callable[[int, int], Optional[int]],
    axiom: str,
):
    """One sum law on masks, for the sum ``s`` and predicate ``d`` on masks;
    ``s`` returns None where it is undefined.

    Partial values are compared by conditional equality (both defined
    implies equal) except in omega-star-com, which asks for strong
    equality. The delta-sum laws pass vacuously when the antecedent fails
    or the squared sum is undefined.
    """
    if axiom == "omega-star-com":
        # Undefined is one value, so strong equality is plain equality.
        return lambda a, b: s(a, b) == s(b, a)
    if axiom == "omega-id":

        def omega_id(a):
            aa = s(a, a)
            return aa is None or aa == a

        return omega_id
    if axiom == "omega-asso":

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
    if axiom == "delta-sum1":

        def delta_sum1(a, b, c):
            if not d(a, b, c):
                return None
            aa = s(a, a)
            return None if aa is None else d(aa, b, c)

        return delta_sum1
    if axiom == "delta-sum2":

        def delta_sum2(a, b, c):
            if not d(a, b, c):
                return None
            bb = s(b, b)
            return None if bb is None else d(a, bb, c)

        return delta_sum2
    if axiom == "delta-sum3":

        def delta_sum3(a, b, c):
            if not d(a, b, c):
                return None
            cc = s(c, c)
            return None if cc is None else d(a, b, cc)

        return delta_sum3
    raise MsslabError(f"unknown sum axiom {axiom!r}")


def cube_verdict(
    axiom: str, d: DeltaPredicate, s: Optional[Callable[[int, int], Optional[int]]] = None
) -> Verdict:
    """A law that reads δ, decided exactly on the rows of ``d``.

    trans-1 is decided by ``trans1_verdict``, and i-coh and i-coh-2 by
    ``diagonal_verdict``; neither builds a plane it does not read.
    ``s`` is the sum on masks, for the delta-sum laws. For each (a, b),
    with ``rows[a], cols[a] = d.plane(a)`` and ``row = rows[a][b]``, the
    mask of violating c is:

    - n-coh: ``row & ~rows[b][a]``;
    - strict-n-coh: ``row & cols[a][b]``;
    - delta-sum1: ``row & ~rows[s(a, a)][b]``, where s(a, a) is defined;
    - delta-sum2: ``row & ~rows[a][s(b, b)]``, where s(b, b) is defined;
    - delta-sum3: the c in ``row`` whose s(c, c) is defined and not in ``row``.

    An instance is substantive when its antecedent is true (and its
    squared sum defined). When no defined square s(x, x) moves its
    argument, as under every sum of ``UNION_SUMS``, each delta-sum
    consequent is its antecedent: the law cannot fail, and the first
    substantive instance decides it.
    """
    if axiom == "trans-1":
        return trans1_verdict(d)
    if axiom in ("i-coh", "i-coh-2"):
        return diagonal_verdict(axiom, d)
    top = 1 << d.universe.size
    rows, cols = zip(*map(d.plane, range(top)))
    diag = [s(x, x) for x in range(top)] if axiom.startswith("delta-sum") else None
    fixed = diag is not None and all(xx in (x, None) for x, xx in enumerate(diag))
    # cells(a) gives, for each b of plane a, the live antecedent mask and
    # the mask of violating c.
    if axiom == "n-coh":

        def cells(a):
            return rows[a], [row & ~rows[b][a] for b, row in enumerate(rows[a])]

    elif axiom == "strict-n-coh":

        def cells(a):
            return rows[a], [row & col for row, col in zip(rows[a], cols[a])]

    elif axiom == "delta-sum1":

        def cells(a):
            aa = diag[a]
            if aa is None:
                return (), ()
            return rows[a], [row & ~then for row, then in zip(rows[a], rows[aa])]

    elif axiom == "delta-sum2":

        def cells(a):
            rows_a = rows[a]
            live = [0 if bb is None else row for row, bb in zip(rows_a, diag)]
            # An empty live row reads no square, defined or not.
            return live, [row and row & ~rows_a[bb] for row, bb in zip(live, diag)]

    elif axiom == "delta-sum3":
        defined = sum(1 << c for c, cc in enumerate(diag) if cc is not None)
        # A c that s(c, c) keeps never violates, so only the moved c are read.
        moves = [(c, cc) for c, cc in enumerate(diag) if cc not in (None, c)]

        def cells(a):
            live = [row & defined for row in rows[a]]
            if not moves:
                return live, ()
            return live, [
                sum(1 << c for c, cc in moves if row >> c & 1 and not row >> cc & 1)
                for row in rows[a]
            ]

    else:
        raise MsslabError(f"axiom {axiom!r} is not decided on the delta cube")

    first, substantive = None, False
    for a in range(top):
        live, bad = cells(a)
        if any(bad):
            b, mask = next((b, mask) for b, mask in enumerate(bad) if mask)
            first = a, b, (mask & -mask).bit_length() - 1
            break
        if any(live):
            substantive = True
            if fixed:
                break
    return decided(axiom, d.universe, 3, first, substantive)
