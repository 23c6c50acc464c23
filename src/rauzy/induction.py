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
is detected by exact equality.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .combinat import GenPerm, Rows, format_perm, reduce_with_map, row_swap
from .errors import (
    DimensionMismatch,
    InductionHalt,
    InvalidLengths,
    InvalidSuspension,
    UndefinedMove,
)
from .suspension import SuspensionDatum, check_suspension


class MoveLabel(Enum):
    ZERO = 0
    ONE = 1


def _move0_raw(top: tuple[int, ...], bottom: tuple[int, ...]) -> Optional[Rows]:
    """Raw move 0 on a two-to-one table; None when undefined."""
    winner = top[-1]
    loser = bottom[-1]
    if winner in bottom[:-1]:
        k = bottom.index(winner)
        new_bottom = bottom[: k + 1] + (loser,) + bottom[k + 1 : -1]
        return (top, new_bottom)
    if winner in top[:-1]:
        rest = bottom[:-1]
        if any(rest.count(s) == 2 for s in set(rest)):
            k = top.index(winner)
            new_top = top[:k] + (loser,) + top[k:]
            return (new_top, rest)
    return None


def _move1_raw(top: tuple[int, ...], bottom: tuple[int, ...]) -> Optional[Rows]:
    moved = _move0_raw(bottom, top)
    if moved is None:
        return None
    return row_swap(moved)


def r0_with_map(p: GenPerm) -> tuple[Optional[GenPerm], Optional[dict[int, int]]]:
    """Move 0 plus the renumbering map applied by the final reduction."""
    rows = _move0_raw(p.top, p.bottom)
    if rows is None:
        return None, None
    perm, relabel = reduce_with_map(*rows)
    return perm, relabel


def r1_with_map(p: GenPerm) -> tuple[Optional[GenPerm], Optional[dict[int, int]]]:
    """Move 1 plus the renumbering map applied by the final reduction."""
    rows = _move1_raw(p.top, p.bottom)
    if rows is None:
        return None, None
    perm, relabel = reduce_with_map(*rows)
    return perm, relabel


def r0(p: GenPerm) -> Optional[GenPerm]:
    """Reduced move 0, or None when undefined.

    >>> from .combinat import parse
    >>> print(r0(parse("1 2 3 4 3 / 2 4 5 5 1")))
    1 2 1 3 4 3 / 2 4 5 5
    """
    return r0_with_map(p)[0]


def r1(p: GenPerm) -> Optional[GenPerm]:
    """Reduced move 1, or None when undefined.

    >>> from .combinat import parse
    >>> print(r1(parse("1 2 3 4 3 / 2 4 5 5 1")))
    1 2 3 2 4 / 3 4 5 5 1
    """
    return r1_with_map(p)[0]


Lengths = tuple[Fraction, ...]


def validate_lengths(p: GenPerm, lengths: Sequence[Fraction]) -> Lengths:
    """Check positivity, size and (for genuine involutions) row balance."""
    lam = tuple(Fraction(v) for v in lengths)
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
    lam = validate_lengths(p, lengths)
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
    label = classify_step(p, lam)
    if label is None:
        return None
    a = p.top[-1]
    b = p.bottom[-1]
    updated = list(lam)
    if label is MoveLabel.ZERO:
        updated[a - 1] = lam[a - 1] - lam[b - 1]
        perm, relabel = r0_with_map(p)
    else:
        updated[b - 1] = lam[b - 1] - lam[a - 1]
        perm, relabel = r1_with_map(p)
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


def trace_jsonl(trace: OrbitTrace) -> str:
    """Line-delimited JSON records ``{step, move, perm, lambda}``."""
    lines = []
    for s in trace.steps:
        lines.append(
            json.dumps(
                {
                    "step": s.step,
                    "move": s.move.value,
                    "perm": format_perm(s.perm),
                    "lambda": [str(v) for v in s.lengths],
                }
            )
        )
    return "\n".join(lines)


def rv_step(p: GenPerm, zeta: SuspensionDatum) -> tuple[GenPerm, SuspensionDatum]:
    """One induction step on a suspension vector.

    The move is selected by comparing the real parts of the two rightmost
    symbols; the shorter vector is subtracted from the longer one.  The
    result is a suspension vector over the moved permutation, with
    coordinates renumbered to match its reduced labels.
    """
    if not check_suspension(p, zeta):
        raise InvalidSuspension(f"not a suspension vector over {p}")
    a = p.top[-1]
    b = p.bottom[-1]
    if a == b:
        raise InductionHalt("rightmost symbols coincide")
    if zeta.re(a) == zeta.re(b):
        raise InductionHalt("rightmost lengths are exactly equal")
    values = list(zeta.values)
    if zeta.re(a) > zeta.re(b):
        values[a - 1] = (zeta.re(a) - zeta.re(b), zeta.im(a) - zeta.im(b))
        perm, relabel = r0_with_map(p)
        which = "0"
    else:
        values[b - 1] = (zeta.re(b) - zeta.re(a), zeta.im(b) - zeta.im(a))
        perm, relabel = r1_with_map(p)
        which = "1"
    if perm is None or relabel is None:
        raise UndefinedMove(f"move {which} undefined at {p}")
    out: list[tuple[Fraction, Fraction]] = [None] * p.d  # type: ignore[list-item]
    for old, new in relabel.items():
        out[new - 1] = values[old - 1]
    return perm, SuspensionDatum(tuple(out))
