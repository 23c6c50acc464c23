r"""
Combinatorial Rauzy moves and the Rauzy-Veech induction step.

A move compares the two rightmost intervals.  Move 0 applies when the top
right interval is longer, move 1 when the bottom right one is.  On the
table the raw move 0 relocates the last bottom symbol next to the other
occurrence of the last top symbol:

* other occurrence inside the bottom row: insert just after it (row
  lengths unchanged);
* other occurrence inside the top row, provided some other symbol still
  has both occurrences in the bottom row: insert just before it, moving
  the symbol to the top row (by convention, before everything when the
  other occurrence is leftmost);
* otherwise the move is undefined.

Raw move 1 is move 0 conjugated by exchanging the rows.  The public moves
renumber the result back to reduced form.  Undefinedness is an ordinary
return value (``None``) rather than an error: class enumeration treats
vertices with missing edges as such.

The induction itself is :func:`rv_step`, one step on a suspension vector,
whose real parts are the interval lengths.  It is exact: it reads the
vector's integer parts over their common denominator, compares, subtracts
and renumbers them as integers, and returns a vector over the same
denominator, so a long run of steps makes no ``Fraction``; halting is
detected by exact equality.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .combinat import GenPerm, Rows
from .errors import InductionHalt, InvalidSuspension, UndefinedMove
from .suspension import SuspensionDatum, _valid_parts


def _move0_raw(top: tuple[int, ...], bottom: tuple[int, ...]) -> Optional[Rows]:
    """Raw move 0 on a two-to-one table; None when undefined."""
    winner = top[-1]
    loser = bottom[-1]
    if winner == loser:
        return None
    # The winner's other occurrence is in ``bottom[:-1]`` or in ``top[:-1]``.
    if winner in bottom:
        k = bottom.index(winner)
        new_bottom = bottom[: k + 1] + (loser,) + bottom[k + 1 : -1]
        return (top, new_bottom)
    rest = bottom[:-1]
    # Some symbol has both occurrences in ``rest`` iff ``rest`` repeats one.
    if len(set(rest)) < len(rest):
        k = top.index(winner)
        new_top = top[:k] + (loser,) + top[k:]
        return (new_top, rest)
    return None


def _move1_raw(top: tuple[int, ...], bottom: tuple[int, ...]) -> Optional[Rows]:
    moved = _move0_raw(bottom, top)
    if moved is None:
        return None
    return (moved[1], moved[0])


def _moved_rows(rows: Rows, which: int) -> Optional[tuple[Rows, dict[int, int]]]:
    """Move ``which`` on reduced rows, renumbered back to reduced form.

    The move-and-renumber kernel of the moves below; the class search
    takes rows only, through :func:`_rows_kernel`.  Returns the reduced
    rows and the ``old symbol -> new symbol`` map of the renumbering, or
    None when the move is undefined.
    The rows are not validated: a move keeps a reduced two-to-one table
    two-to-one, and the renumbering reduces it.
    """
    raw = _move0_raw(*rows) if which == 0 else _move1_raw(*rows)
    if raw is None:
        return None
    relabel: dict[int, int] = {}
    out = []
    for row in raw:
        new_row = []
        for s in row:
            if s not in relabel:
                relabel[s] = len(relabel) + 1
            new_row.append(relabel[s])
        out.append(tuple(new_row))
    return (out[0], out[1]), relabel


def _moved_table(rows: Rows, which: int) -> Optional[Rows]:
    """Rows-only :func:`_moved_rows`: :func:`r0`, :func:`r1` and generalized classes."""
    moved = _moved_rows(rows, which)
    return None if moved is None else moved[0]


def _moved_perm(rows: Rows, which: int) -> Optional[Rows]:
    """Rows-only :func:`_moved_rows` for a reduced permutation.

    The top row is ``1 ... d``, and no renumbering loop is needed.  Move 0
    keeps the top row, so the raw rows are already reduced.  Move 1 with
    bottom winner ``w`` makes the top row ``1 ... w, d, w+1 ... d-1``;
    renumbering sends ``s <= w`` to ``s``, ``d`` to ``w + 1`` and
    ``w < s < d`` to ``s + 1``, which one lookup tuple does to the bottom
    row.  Both moves are undefined exactly when the bottom row ends in ``d``.
    """
    top, bottom = rows
    d = len(top)
    w = bottom[-1]
    if w == d:
        return None
    if which == 0:
        k = bottom.index(d)
        return (top, bottom[: k + 1] + (w,) + bottom[k + 1 : -1])
    lookup = top[:w] + top[w + 1 :] + (w + 1,)
    return (top, tuple([lookup[s - 1] for s in bottom]))


def _rows_kernel(rows: Rows) -> Callable[[Rows, int], Optional[Rows]]:
    """The rows-only move for the class of ``rows``.

    Moves keep a table a permutation or a generalized permutation, so the
    choice made on one vertex holds on its whole class.
    """
    top, bottom = rows
    if len(top) == len(bottom) == len(set(top)):
        return _moved_perm
    return _moved_table


def r0(p: GenPerm) -> Optional[GenPerm]:
    """Reduced move 0, or None when undefined.

    >>> from .combinat import parse
    >>> print(r0(parse("1 2 3 4 3 / 2 4 5 5 1")))
    1 2 1 3 4 3 / 2 4 5 5
    """
    moved = _moved_table((p.top, p.bottom), 0)
    return None if moved is None else GenPerm._trusted(*moved)


def r1(p: GenPerm) -> Optional[GenPerm]:
    """Reduced move 1, or None when undefined.

    >>> from .combinat import parse
    >>> print(r1(parse("1 2 3 4 3 / 2 4 5 5 1")))
    1 2 3 2 4 / 3 4 5 5 1
    """
    moved = _moved_table((p.top, p.bottom), 1)
    return None if moved is None else GenPerm._trusted(*moved)


def rv_step(p: GenPerm, zeta: SuspensionDatum) -> tuple[GenPerm, SuspensionDatum]:
    """One induction step on a suspension vector.

    The move is selected by comparing the real parts of the two rightmost
    symbols; the shorter vector is subtracted from the longer one.  The
    result is a suspension vector over the moved permutation, with
    coordinates renumbered to match its reduced labels.  The step works
    on the integer parts of ``zeta`` and keeps its denominator.

    >>> from .combinat import parse
    >>> p = parse("1 2 / 2 1")
    >>> zeta = SuspensionDatum(((Fraction(5, 2), Fraction(1, 2)), (1, Fraction(-1, 2))))
    >>> q, moved = rv_step(p, zeta)
    >>> print(q, moved)
    1 2 / 2 1 (3/2+1i, 1-1/2i)
    >>> moved.values
    ((Fraction(3, 2), Fraction(1, 1)), (Fraction(1, 1), Fraction(-1, 2)))
    """
    parts = _valid_parts(p, zeta)
    if parts is None:
        raise InvalidSuspension(f"not a suspension vector over {p}")
    scale, re, im = parts
    a = p.top[-1]
    b = p.bottom[-1]
    if a == b:
        raise InductionHalt("rightmost symbols coincide")
    if re[a - 1] == re[b - 1]:
        raise InductionHalt("rightmost lengths are exactly equal")
    which = 0 if re[a - 1] > re[b - 1] else 1
    longer, shorter = (a, b) if which == 0 else (b, a)
    moved = _moved_rows((p.top, p.bottom), which)
    if moved is None:
        raise UndefinedMove(f"move {which} undefined at {p}")
    rows, relabel = moved
    source = [0] * p.d
    for old, new in relabel.items():
        source[new - 1] = old - 1
    new_re = [re[k] for k in source]
    new_im = [im[k] for k in source]
    target = relabel[longer] - 1
    new_re[target] -= re[shorter - 1]
    new_im[target] -= im[shorter - 1]
    return GenPerm._trusted(*rows), SuspensionDatum._from_parts(
        scale, tuple(new_re), tuple(new_im)
    )
