"""Exact feasibility and witness extraction for small rational linear systems.

Systems are lists of inequality rows ``(coeffs, const)`` meaning
``sum(coeffs[i] * x[i]) + const >= 0`` with integer entries, plus optional
equality rows with the analogous meaning.  Equality rows are solved first
by fraction-free Gauss-Jordan elimination on integer rows, each divided by
the gcd of its entries (the classical fraction-free method is Bareiss,
Math. Comp. 22, 1968); this rewrites the inequalities over the free
variables.  Feasibility is then decided by Fourier-Motzkin elimination
over the integers (rows are gcd-normalised and deduplicated after every
round), which is exact and fast at the dimensions used here (at most a
couple dozen variables).

Witness extraction runs one elimination pass recording the intermediate
projections, then assigns variables forward: at each step the recorded
projection yields the exact feasible interval for the next variable given
the values already chosen, and a caller-supplied rule picks a value in it.
The values are held as integers over one positive common denominator, and
:func:`solve` returns them so; only the two bounds handed to the rule and
the value it picks are ``Fraction`` objects.  With the default rule the
witness is deterministic and preferentially built from small integers.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Optional, Sequence

Row = tuple[tuple[int, ...], int]
IntervalChooser = Callable[[Optional[Fraction], Optional[Fraction]], Fraction]


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


def _eliminate(rows: set[Row], j: int) -> set[Row]:
    pos = [r for r in rows if r[0][j] > 0]
    neg = [r for r in rows if r[0][j] < 0]
    out = {r for r in rows if r[0][j] == 0}
    for p in pos:
        for n in neg:
            row = _combine(p, n, j)
            if row is not None:
                out.add(row)
    return out


Pivot = tuple[int, tuple[int, ...], int, int]


def _reduce_equalities(
    nvars: int,
    ineqs: Sequence[Row],
    eqs: Sequence[Row],
) -> tuple[list[Row], list[int], list[Pivot]]:
    """Solve the equality rows by fraction-free Gauss-Jordan elimination.

    Every pivot is kept as a primitive integer row whose coefficient at
    its pivot variable, the lead, is positive and whose coefficients at
    the other pivot variables are zero.  A variable is eliminated from a
    row by multiplying the row by that lead and subtracting the pivot row
    times the row's coefficient; the multiplier is positive, so an
    inequality keeps its direction, and ``_norm`` then makes every
    rewritten row the unique primitive row of its ray.  Pivots are picked
    as the highest variable left in each equality row, in input order.

    Returns inequality rows rewritten over the free variables, the list of
    free variable indices, and the pivot substitutions
    ``(var, coeffs_over_free, const, lead)`` with
    ``x[var] = -(sum(c*x_free) + const) / lead``.
    """
    pivots: list[tuple[int, list[int], int]] = []
    for coeffs, const in eqs:
        row = list(coeffs)
        row_const = const
        for var, prow, pconst in pivots:
            f = row[var]
            if f:
                lead = prow[var]
                row = [lead * a - f * b for a, b in zip(row, prow)]
                row_const = lead * row_const - f * pconst
        var = max((k for k in range(nvars) if row[k]), default=-1)
        if var < 0:
            if row_const != 0:
                raise _Contradiction
            continue
        g = gcd(*row, row_const)
        if row[var] < 0:
            g = -g
        row = [a // g for a in row]
        row_const //= g
        lead = row[var]
        for i, (v, prow, pconst) in enumerate(pivots):
            f = prow[var]
            if f:
                prow = [lead * a - f * b for a, b in zip(prow, row)]
                pconst = lead * pconst - f * row_const
                g = gcd(*prow, pconst)
                pivots[i] = (v, [a // g for a in prow], pconst // g)
        pivots.append((var, row, row_const))
    pivot_vars = {var for var, _, _ in pivots}
    free = [k for k in range(nvars) if k not in pivot_vars]

    out_rows: list[Row] = []
    for coeffs, const in ineqs:
        acc = list(coeffs)
        for var, prow, pconst in pivots:
            f = acc[var]
            if f:
                lead = prow[var]
                acc = [lead * a - f * b for a, b in zip(acc, prow)]
                const = lead * const - f * pconst
        row = _norm([acc[v] for v in free], const)
        if row is not None:
            out_rows.append(row)
    frozen = [
        (var, tuple(prow[v] for v in free), pconst, prow[var])
        for var, prow, pconst in pivots
    ]
    return out_rows, free, frozen


def feasible(nvars: int, ineqs: Sequence[Row], eqs: Sequence[Row] = ()) -> bool:
    """Exact feasibility of the closed system over the rationals."""
    try:
        if eqs:
            rows_list, free, _ = _reduce_equalities(nvars, ineqs, eqs)
            rows = set(rows_list)
            width = len(free)
        else:
            rows = set()
            for coeffs, const in ineqs:
                row = _norm(coeffs, const)
                if row is not None:
                    rows.add(row)
            width = nvars
        remaining = list(range(width))
        while remaining:
            # Cheapest variable first keeps intermediate systems small.
            counts = []
            for j in remaining:
                p = sum(1 for r in rows if r[0][j] > 0)
                n = sum(1 for r in rows if r[0][j] < 0)
                counts.append((p * n, j))
            _, j = min(counts)
            rows = _eliminate(rows, j)
            remaining.remove(j)
    except _Contradiction:
        return False
    return True


def canonical_choice(lo: Optional[Fraction], hi: Optional[Fraction]) -> Fraction:
    """Smallest-magnitude preference: 0 when allowed, else the nearer bound."""
    if (lo is None or lo <= 0) and (hi is None or hi >= 0):
        return Fraction(0)
    if lo is not None and lo > 0:
        return lo
    if hi is None:
        raise RuntimeError("canonical_choice found no bound to return")
    return hi


def solve(
    nvars: int,
    ineqs: Sequence[Row],
    eqs: Sequence[Row] = (),
    choose: IntervalChooser = canonical_choice,
) -> tuple[int, list[int]] | None:
    """An exact solution ``(scale, nums)``, the values ``nums[k] / scale``.

    Returns None when the system is infeasible.  ``scale`` is positive but
    need not be the least common denominator.  ``choose(lo, hi)`` picks a
    value in the (possibly unbounded) exact feasible interval of each free
    variable in turn; the projection guarantees any value in the interval
    extends to a full solution.

    With ``x + y = 4``, ``2x >= 3`` and ``y >= 1``, the equality row makes
    ``y`` a pivot; ``x`` is free in ``[3/2, 3]`` and takes the nearer bound,
    so the solution is ``(3/2, 5/2)``:

    >>> solve(2, [((2, 0), -3), ((0, 1), -1)], [((1, 1), -4)])
    (2, [3, 5])
    """
    try:
        rows_list, free, pivots = _reduce_equalities(nvars, ineqs, eqs)
    except _Contradiction:
        return None
    rows = set(rows_list)
    width = len(free)

    stack: list[set[Row]] = []
    try:
        for j in range(width - 1, -1, -1):
            stack.append(rows)
            rows = _eliminate(rows, j)
    except _Contradiction:
        return None

    # The values chosen so far are ``nums[k] / scale`` over one common
    # denominator.  A bound ``n / (m * scale)`` with ``m > 0`` is held as
    # ``(n, m)``, so bounds are compared by cross-multiplying integers.
    nums: list[int] = []
    scale = 1
    for j in range(width):
        system = stack.pop() if stack else set()
        lo: Optional[tuple[int, int]] = None
        hi: Optional[tuple[int, int]] = None
        for coeffs, const in system:
            a = coeffs[j]
            if a == 0:
                continue
            rest = const * scale
            for k in range(j):
                rest += coeffs[k] * nums[k]
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
        value = choose(
            None if lo is None else Fraction(lo[0], lo[1] * scale),
            None if hi is None else Fraction(hi[0], hi[1] * scale),
        )
        den = value.denominator
        if scale % den:
            grow = den // gcd(scale, den)
            nums = [v * grow for v in nums]
            scale *= grow
        nums.append(value.numerator * (scale // den))

    # A pivot value -(sum(c * x_free) + const) / lead goes over
    # ``scale * lcm(leads)``, and so do the free values.
    grow = lcm(*[lead for _, _, _, lead in pivots])
    full = [0] * nvars
    for idx, v in enumerate(free):
        full[v] = nums[idx] * grow
    for var, coeffs, const, lead in pivots:
        total = const * scale
        for k, c in enumerate(coeffs):
            total += c * nums[k]
        full[var] = -total * (grow // lead)
    return scale * grow, full
