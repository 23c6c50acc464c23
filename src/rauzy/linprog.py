"""Exact feasibility and witness extraction for small rational linear systems.

Systems are lists of inequality rows ``(coeffs, const)`` meaning
``sum(coeffs[i] * x[i]) + const >= 0`` with integer entries, plus at most
one equality row with the analogous meaning; the suspension systems need
only one, the balance of the top and bottom sums.  Both questions run one
elimination pass, in descending variable order over the integers, that
touches each row once: a row is gcd-normalised as soon as it is made and
goes into the bucket of its highest variable, deduplicated there, and the
pass reads it when it eliminates that variable.  The equality is held
among the rows as itself and its negation.  Its highest variable, the
pivot, is removed by substituting the equality into every row of the
pivot's bucket; every other variable is removed by Fourier-Motzkin
elimination within its bucket.  This is exact and fast at the dimensions
used here (at most a couple dozen variables).  The system is feasible
when the pass meets no contradiction.

Witness extraction keeps the buckets, then assigns variables forward: the
bucket of each variable holds exactly the rows of the projection onto it
and the variables before it that read it, so with the values already
chosen it yields the exact feasible interval of the variable, and a
caller-supplied rule picks a value in it.  The pivot is not handed to the
rule: the equality's two rows make its interval a point, which is taken as
it is.  The values are held as integers over one positive common
denominator, and :func:`solve` returns them so.  The bounds handed to the
rule and the value it picks are integer pairs too (:data:`Ratio`), so no
``Fraction`` is made.  With the default rule the witness is deterministic
and preferentially built from small integers.
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


def _projections(
    nvars: int, ineqs: Sequence[Row], eq: Optional[Row]
) -> Optional[tuple[list[set[Row]], int]]:
    """The rows of the elimination pass by highest variable, and the pivot;
    None when the pass meets a contradiction.

    ``buckets[j]`` holds every row the pass makes whose highest variable
    is ``j``, cut after that variable: exactly the rows of the projection
    onto ``x_0 .. x_j`` that read ``x_j``, because a row's highest
    variable decides the step that eliminates it.  A row is made,
    gcd-normalised (a constant of 1 or -1 makes it primitive, and it skips
    ``gcd``) and put into its bucket at once, and the pass reads it once,
    at that step.  A row with no variable left is a tautology or a
    contradiction.  The equality, turned to a positive coefficient at its
    highest variable, the pivot (-1 when it has none), is substituted
    into every other row of the pivot's bucket: the row is multiplied by
    that coefficient and the equality times the row's coefficient is
    subtracted, so the row keeps its direction.  The equality and its
    negation then join the bucket.  Every other variable is removed by
    Fourier-Motzkin elimination: each row of its bucket with a positive
    coefficient there is combined with each with a negative one.
    """
    buckets: list[set[Row]] = [set() for _ in range(nvars)]
    made = ineqs
    pivot = -1
    try:
        if eq is not None:
            coeffs, shift = eq
            pivot = len(coeffs) - 1
            while pivot >= 0 and not coeffs[pivot]:
                pivot -= 1
            coeffs = coeffs[: pivot + 1]
            if pivot >= 0 and coeffs[pivot] < 0:
                coeffs, shift = [-a for a in coeffs], -shift
            eq = _norm(coeffs, shift)
            negation = _norm([-a for a in coeffs], -shift)
        for j in range(nvars - 1, -2, -1):
            # the rows made by the last step, or the input rows: none reads
            # a variable past j
            for coeffs, const in made:
                top = j
                while top >= 0 and not coeffs[top]:
                    top -= 1
                if top < 0:
                    if const < 0:
                        raise _Contradiction
                    continue
                row = coeffs[: top + 1]
                if const != 1 and const != -1:
                    g = gcd(*row, const)
                    if g > 1:
                        row = [a // g for a in row]
                        const //= g
                buckets[top].add((tuple(row), const))
            if j < 0:
                return buckets, pivot
            rows = buckets[j]
            made = []
            if j == pivot:
                base, shift = eq
                lead = base[j]
                for c, k in rows:
                    f = c[j]
                    made.append(([lead * x - f * y for x, y in zip(c, base)], lead * k - f * shift))
                rows.add(eq)
                rows.add(negation)
                continue
            pos = [r for r in rows if r[0][j] > 0]
            for neg, m in rows:
                b = -neg[j]
                if b > 0:
                    for c, k in pos:
                        a = c[j]
                        made.append(([b * x + a * y for x, y in zip(c, neg)], b * k + a * m))
    except _Contradiction:
        return None


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
    interval extends to a full solution.  The interval of ``x_j`` is read
    off the bucket ``j`` of :func:`_projections` alone: its rows are the
    rows of the projection that bound ``x_j``.  Bounds and value are
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
    buckets, pivot = projections

    # The values chosen so far are ``nums[k] / scale`` over one common
    # denominator.  A bound ``n / (m * scale)`` with ``m > 0`` is held as
    # ``(n, m)``, so bounds are compared by cross-multiplying integers.
    nums: list[int] = []
    scale = 1
    for j, rows in enumerate(buckets):
        lo: Optional[tuple[int, int]] = None
        hi: Optional[tuple[int, int]] = None
        for coeffs, const in rows:
            a = coeffs[j]
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
