"""Exact feasibility and witness extraction for small rational linear systems.

Systems are lists of inequality rows ``(coeffs, const)`` meaning
``sum(coeffs[i] * x[i]) + const >= 0`` with integer entries, plus at most
one equality row with the analogous meaning; the suspension systems need
only one, the balance of the top and bottom sums.  Both questions run one
elimination pass, in descending variable order over the integers, and rows
are gcd-normalised and deduplicated after every step.  The equality is
held among the rows as itself and its negation.  Its highest variable, the
pivot, is removed by substituting the equality into every row that reads
it; every other variable is removed by Fourier-Motzkin elimination.  This
is exact and fast at the dimensions used here (at most a couple dozen
variables).  The system is feasible when the pass meets no contradiction.

Witness extraction records the intermediate projections of that pass,
then assigns variables forward: at each step the recorded projection
yields the exact feasible interval for the next variable given the values
already chosen, and a caller-supplied rule picks a value in it.  The pivot
is not handed to the rule: the equality's two rows make its interval a
point, which is taken as it is.  The values are held as integers over one
positive common denominator, and :func:`solve` returns them so.  The
bounds handed to the rule and the value it picks are integer pairs too
(:data:`Ratio`), so no ``Fraction`` is made.  With the default rule the
witness is deterministic and preferentially built from small integers.
"""
from __future__ import annotations

from math import gcd
from operator import mul
from typing import Callable, Optional, Sequence

Row = tuple[tuple[int, ...], int]
# ``(num, den)`` with ``den > 0``, the rational ``num / den``; not
# necessarily reduced.
Ratio = tuple[int, int]
# ``choose(lo, hi)``: a value in the closed interval from ``lo`` to ``hi``,
# either bound None when the interval is unbounded on that side.
IntervalChooser = Callable[[Optional[Ratio], Optional[Ratio]], Ratio]


class _Contradiction(Exception):
    pass


def _norm(coeffs: Sequence[int], const: int) -> Row | None:
    """gcd-normalise; return None for tautologies, raise on contradictions."""
    g = gcd(*coeffs)
    if g == 0:
        if const < 0:
            raise _Contradiction
        return None
    g = gcd(g, const)
    if g > 1:
        coeffs = [a // g for a in coeffs]
        const //= g
    return (tuple(coeffs), const)


def _combine(pos: Row, neg: Row, j: int) -> Row | None:
    """Eliminate variable ``j`` from a (positive, negative) coefficient pair."""
    a = pos[0][j]
    b = -neg[0][j]
    coeffs = [b * p + a * n for p, n in zip(pos[0], neg[0])]
    return _norm(coeffs, b * pos[1] + a * neg[1])


def _eliminate(rows: set[Row], j: int, eq: Row | None = None) -> set[Row]:
    """The rows with variable ``j`` removed.

    Without ``eq`` this is one Fourier-Motzkin step: every row with a
    positive coefficient at ``j`` is combined with every row with a
    negative one.  With ``eq``, an equality row whose coefficient at ``j``
    is positive, the equality is substituted instead: a row reading ``j``
    is multiplied by that positive coefficient and the equality times the
    row's coefficient is subtracted, so the row keeps its direction.  The
    equality's own two rows become tautologies and drop out.
    """
    out = {r for r in rows if r[0][j] == 0}
    if eq is not None:
        lead = eq[0][j]
        for coeffs, const in rows:
            f = coeffs[j]
            if f:
                row = _norm(
                    [lead * a - f * b for a, b in zip(coeffs, eq[0])],
                    lead * const - f * eq[1],
                )
                if row is not None:
                    out.add(row)
        return out
    pos = [r for r in rows if r[0][j] > 0]
    neg = [r for r in rows if r[0][j] < 0]
    for p in pos:
        for n in neg:
            row = _combine(p, n, j)
            if row is not None:
                out.add(row)
    return out


def _system(
    ineqs: Sequence[Row], eq: Optional[Row]
) -> tuple[set[Row], Optional[Row], int]:
    """The normalised rows, the equality and the variable it is solved for.

    The equality is held in the rows as itself and its negation, and is
    returned with a positive coefficient at its highest variable, the
    pivot; the pivot is -1 when there is no equality.  Both halves are
    normalised because ``_norm`` reads a constant row ``0 >= -c`` with
    ``c > 0`` as a tautology: ``0 = c`` is a contradiction only through
    the other half.
    """
    rows = set()
    for coeffs, const in ineqs:
        row = _norm(coeffs, const)
        if row is not None:
            rows.add(row)
    if eq is None:
        return rows, None, -1
    halves = [_norm(eq[0], eq[1]), _norm([-a for a in eq[0]], -eq[1])]
    if halves[0] is None:
        return rows, None, -1
    rows.update(halves)
    pivot = max(k for k, a in enumerate(halves[0][0]) if a)
    return rows, max(halves, key=lambda r: r[0][pivot]), pivot


def _projections(
    nvars: int, ineqs: Sequence[Row], eq: Optional[Row]
) -> Optional[tuple[list[set[Row]], int]]:
    """The rows before each step of the elimination pass, the last variable's
    first, and the pivot; None when a step meets a contradiction."""
    try:
        rows, eq, pivot = _system(ineqs, eq)
        stack = []
        for j in range(nvars - 1, -1, -1):
            stack.append(rows)
            rows = _eliminate(rows, j, eq if j == pivot else None)
    except _Contradiction:
        return None
    return stack, pivot


def feasible(nvars: int, ineqs: Sequence[Row], eq: Optional[Row] = None) -> bool:
    """Exact feasibility of the closed system over the rationals."""
    return _projections(nvars, ineqs, eq) is not None


def canonical_choice(lo: Optional[Ratio], hi: Optional[Ratio]) -> Ratio:
    """Smallest-magnitude preference: 0 when allowed, else the nearer bound.

    The bounds' denominators are positive, so their numerators carry the
    signs that decide; a bound is returned as it was given.

    >>> canonical_choice((-3, 2), (7, 1))
    (0, 1)
    >>> canonical_choice((4, 6), None)
    (4, 6)
    >>> canonical_choice(None, (-10, 4))
    (-10, 4)
    >>> canonical_choice(None, None)
    (0, 1)
    """
    if lo is not None and lo[0] > 0:
        return lo
    if hi is not None and hi[0] < 0:
        return hi
    return (0, 1)


def solve(
    nvars: int,
    ineqs: Sequence[Row],
    eq: Optional[Row] = None,
    choose: IntervalChooser = canonical_choice,
) -> tuple[int, list[int]] | None:
    """An exact solution ``(scale, nums)``, the values ``nums[k] / scale``.

    Returns None when the system is infeasible.  ``scale`` is positive but
    need not be the least common denominator.  ``choose(lo, hi)`` picks a
    value in the (possibly unbounded) exact feasible interval of each
    variable in turn, save the equality's pivot, whose interval is the
    point the equality fixes; the projection guarantees any value in the
    interval extends to a full solution.  Bounds and value are
    :data:`Ratio` pairs, None for a missing bound, and the value is
    reduced before it joins the common denominator.

    With ``x + y = 4``, ``2x >= 3`` and ``y >= 1``, the equality makes
    ``y`` its pivot; ``x`` is free in ``[3/2, 3]`` and takes the nearer
    bound, and then ``y`` is the point ``5/2``:

    >>> solve(2, [((2, 0), -3), ((0, 1), -1)], ((1, 1), -4))
    (2, [3, 5])
    """
    projections = _projections(nvars, ineqs, eq)
    if projections is None:
        return None
    stack, pivot = projections

    # The values chosen so far are ``nums[k] / scale`` over one common
    # denominator.  A bound ``n / (m * scale)`` with ``m > 0`` is held as
    # ``(n, m)``, so bounds are compared by cross-multiplying integers.
    nums: list[int] = []
    scale = 1
    for j in range(nvars):
        lo: Optional[tuple[int, int]] = None
        hi: Optional[tuple[int, int]] = None
        for coeffs, const in stack.pop():
            a = coeffs[j]
            if a == 0:
                continue
            rest = const * scale + sum(map(mul, coeffs, nums))
            # The row reads a * x_j + rest / scale >= 0: x_j >= -rest / (a * scale)
            # when a > 0, x_j <= rest / (-a * scale) when a < 0.
            if a > 0:
                if lo is None or -rest * lo[1] > lo[0] * a:
                    lo = (-rest, a)
            else:
                if hi is None or rest * hi[1] < hi[0] * -a:
                    hi = (rest, -a)
        if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
            return None
        if j == pivot:
            # the equality's two rows make the interval a point
            num, den = lo[0], lo[1] * scale
        else:
            num, den = choose(
                None if lo is None else (lo[0], lo[1] * scale),
                None if hi is None else (hi[0], hi[1] * scale),
            )
        g = gcd(num, den)
        num //= g
        den //= g
        if scale % den:
            grow = den // gcd(scale, den)
            nums = [v * grow for v in nums]
            scale *= grow
        nums.append(num * (scale // den))
    return scale, nums
