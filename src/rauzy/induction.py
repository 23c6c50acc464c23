r"""
Combinatorial Rauzy moves and the induction dynamics they shadow.

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

All length and suspension updates are exact rational arithmetic; halting
is detected by exact equality.  :func:`rv_step` reads a suspension
vector's integer parts over its common denominator, compares, subtracts
and renumbers them as integers, and returns a vector over the same
denominator, so a long orbit makes no ``Fraction``.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .combinat import GenPerm, Rows
from .errors import (
    DimensionMismatch,
    InductionHalt,
    InvalidLengths,
    InvalidSuspension,
    UndefinedMove,
)
from .suspension import SuspensionDatum, _valid_parts


class MoveLabel(Enum):
    ZERO = 0
    ONE = 1


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
    """Rows-only :func:`_moved_rows` for generalized tables."""
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


def _moved_with_map(
    p: GenPerm, which: int
) -> tuple[Optional[GenPerm], Optional[dict[int, int]]]:
    moved = _moved_rows((p.top, p.bottom), which)
    if moved is None:
        return None, None
    (top, bottom), relabel = moved
    return GenPerm._trusted(top, bottom), relabel


def r0(p: GenPerm) -> Optional[GenPerm]:
    """Reduced move 0, or None when undefined.

    >>> from .combinat import parse
    >>> print(r0(parse("1 2 3 4 3 / 2 4 5 5 1")))
    1 2 1 3 4 3 / 2 4 5 5
    """
    return _moved_with_map(p, 0)[0]


def r1(p: GenPerm) -> Optional[GenPerm]:
    """Reduced move 1, or None when undefined.

    >>> from .combinat import parse
    >>> print(r1(parse("1 2 3 4 3 / 2 4 5 5 1")))
    1 2 3 2 4 / 3 4 5 5 1
    """
    return _moved_with_map(p, 1)[0]


Lengths = tuple[Fraction, ...]


def validate_lengths(p: GenPerm, lengths: Sequence[Fraction]) -> Lengths:
    """Check types, positivity, size and (for genuine involutions) row balance.

    Entries must be ``int`` or ``Fraction``; anything else, a float or a
    string included, raises :class:`InvalidLengths`.
    """
    lam = tuple(lengths)
    for v in lam:
        if not isinstance(v, (int, Fraction)):
            raise InvalidLengths(f"length {v!r} is neither an int nor a Fraction")
    lam = tuple([Fraction(v) for v in lam])
    if len(lam) != p.d:
        raise DimensionMismatch(f"expected {p.d} lengths, got {len(lam)}")
    if any(v <= 0 for v in lam):
        raise InvalidLengths("lengths must be positive")
    top_sum = sum(lam[s - 1] for s in p.top)
    bottom_sum = sum(lam[s - 1] for s in p.bottom)
    if top_sum != bottom_sum:
        raise InvalidLengths(
            f"row sums differ ({top_sum} vs {bottom_sum}); the two rows "
            "must cover intervals of equal total length"
        )
    return lam


def classify_step(p: GenPerm, lengths: Sequence[Fraction]) -> Optional[MoveLabel]:
    """Which move the lengths select; None when induction halts.

    Halts when the compared symbols coincide, when their lengths are
    exactly equal, or when the selected combinatorial move is undefined.
    """
    return _classify(p, validate_lengths(p, lengths))


def _classify(p: GenPerm, lam: Lengths) -> Optional[MoveLabel]:
    """:func:`classify_step` on lengths :func:`validate_lengths` has checked."""
    a = p.top[-1]
    b = p.bottom[-1]
    if a == b or lam[a - 1] == lam[b - 1]:
        return None
    label = MoveLabel.ZERO if lam[a - 1] > lam[b - 1] else MoveLabel.ONE
    raw = _move0_raw(p.top, p.bottom) if label is MoveLabel.ZERO else _move1_raw(
        p.top, p.bottom
    )
    if raw is None:
        return None
    return label


@dataclass(frozen=True)
class OrbitStep:
    step: int
    move: MoveLabel
    perm: GenPerm
    lengths: Lengths


@dataclass(frozen=True)
class OrbitTrace:
    start: GenPerm
    steps: tuple[OrbitStep, ...]
    halted: bool


def step_lengths(
    p: GenPerm, lengths: Sequence[Fraction]
) -> Optional[tuple[GenPerm, Lengths, MoveLabel]]:
    """One induction step on (permutation, lengths); None when halted."""
    lam = validate_lengths(p, lengths)
    label = _classify(p, lam)
    if label is None:
        return None
    a = p.top[-1]
    b = p.bottom[-1]
    updated = list(lam)
    if label is MoveLabel.ZERO:
        updated[a - 1] = lam[a - 1] - lam[b - 1]
    else:
        updated[b - 1] = lam[b - 1] - lam[a - 1]
    perm, relabel = _moved_with_map(p, label.value)
    if perm is None or relabel is None:
        raise RuntimeError(
            f"move {label.value} undefined at {p} although classify_step chose it"
        )
    out = [Fraction(0)] * p.d
    for old, new in relabel.items():
        out[new - 1] = updated[old - 1]
    return perm, tuple(out), label


def orbit(p: GenPerm, lengths: Sequence[Fraction], max_steps: int) -> OrbitTrace:
    """Iterate induction until it halts or ``max_steps`` is reached.

    The total top length strictly decreases along the trace (induction
    restricts to a shorter interval).
    """
    lam = validate_lengths(p, lengths)
    steps: list[OrbitStep] = []
    current = p
    halted = False
    for i in range(max_steps):
        nxt = step_lengths(current, lam)
        if nxt is None:
            halted = True
            break
        current, lam, label = nxt
        steps.append(OrbitStep(i, label, current, lam))
    return OrbitTrace(p, tuple(steps), halted)


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
    perm, relabel = _moved_with_map(p, which)
    if perm is None or relabel is None:
        raise UndefinedMove(f"move {which} undefined at {p}")
    source = [0] * p.d
    for old, new in relabel.items():
        source[new - 1] = old - 1
    new_re = [re[k] for k in source]
    new_im = [im[k] for k in source]
    moved = relabel[longer] - 1
    new_re[moved] -= re[shorter - 1]
    new_im[moved] -= im[shorter - 1]
    return perm, SuspensionDatum._from_parts(scale, tuple(new_re), tuple(new_im))
