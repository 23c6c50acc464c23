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

The moves work on vertex keys, the one field of a ``GenPerm``
(:mod:`rauzy.combinat`): the bytes of the top row, a 0 byte, the bytes of
the bottom row.  A move takes the key of its input and wraps the moved
key, with no decode of rows.  A raw move relocates one occurrence of the
loser ``x``, the last symbol of the losing row, so every other symbol
keeps its order of first occurrence, and the
renumbering is one rotation: ``x`` goes to ``m``, one more than the number
of distinct symbols before its new first occurrence, and the symbols
between shift by one.  ``bytes.translate`` applies it with the table
:func:`_rotation` makes.

:func:`_move0` and :func:`_move1` are the one rule of each move on a
generalized table.  Each takes the key, its separator index and a
``rotation(x, m)`` that returns the translation table of the rotation
``x -> m``; it calls ``rotation`` at most once, and only when the move
renumbers, so a caller can cache the tables or renumber other data
alongside.  Every single move goes through them, :func:`r0` and
:func:`r1` by :func:`_table_move`, and so does :func:`rv_step`; so does a
class search of tables that are not permutations, by the kernel of
:func:`_successors`, with a per-search cache of :func:`_rotation`.  A
permutation class search moves by a separate slice algorithm, chosen by
the kind of its seed: slices and one :func:`_rotation` table per bottom
winner (:func:`_move1_tables`).  A whole permutation class is closed by
the kernel of :func:`_cycles` instead, one move-0 cycle per call, with
the same slices and tables, and :func:`_to_standard` walks a permutation
to a standard one with them.  A whole generalized class moves one table
per row-exchange pair (:func:`rauzy.classes._pair_search`): raw move 1 is
move 0 conjugated by the exchange.

The induction itself is :func:`rv_step`, one step on a suspension vector,
whose real parts are the interval lengths.  It is exact: it reads the
vector's one tuple of integers, the common denominator and then the parts,
compares, subtracts and renumbers the parts as integers in one list, and
returns one tuple over the same denominator, so a long run of steps makes
no ``Fraction``; halting is detected by exact equality.  A step makes a
suspension vector over the moved table, so the vector it returns carries
that key, and a run of steps checks at most the vector it starts from.  It
has already told the two end symbols apart, so it makes its move with
:func:`_move0` or :func:`_move1` from the separator index of the key, and
renumbers the parts through the ``rotation`` it passes.
"""
from __future__ import annotations

from functools import cache
from typing import Callable, Optional

from .combinat import _IDENT, GenPerm
from .errors import InductionHalt, MoveCapExceeded, Reducible, UndefinedMove
from .suspension import SuspensionDatum, _parts_over


def _rotation(x: int, m: int) -> bytes:
    """The ``bytes.translate`` table of the renumbering ``x -> m``.

    The symbols between ``x`` and ``m`` shift by one toward the place
    ``x`` left; every other byte, the separator included, stays.
    """
    if m < x:
        return _IDENT[:m] + _IDENT[m + 1 : x + 1] + _IDENT[m : m + 1] + _IDENT[x + 1 :]
    return _IDENT[:x] + _IDENT[m : m + 1] + _IDENT[x:m] + _IDENT[m + 1 :]


def _table_move(key: bytes, which: int) -> Optional[bytes]:
    """Move ``which`` on a reduced key: the renumbered key, or None when
    undefined.

    Both moves are undefined when the rows end in the same symbol;
    otherwise :func:`_move0` or :func:`_move1` makes the move from the
    index ``i`` of the row separator and renumbers with the tables of
    :func:`_rotation`.
    """
    i = key.index(0)
    if key[i - 1] == key[-1]:
        return None
    return (_move1 if which else _move0)(key, i, _rotation)


def _move0(
    key: bytes, i: int, rotation: Callable[[int, int], bytes]
) -> Optional[bytes]:
    """Move 0 on a key whose rows end in different symbols, ``i`` its
    separator index: the renumbered key, or None when undefined.

    The loser ``x`` is the last bottom symbol.  When the move changes its
    number to ``m``, the raw key is translated by the table
    ``rotation(x, m)``, the one call of ``rotation``; otherwise the raw key
    is reduced and ``rotation`` is not called.  Reduced numbering counts
    symbols: the top row holds ``k`` distinct symbols, ``k`` its largest,
    so ``d - k`` symbols lie in the bottom row alone and ``len(top) - k``
    in the top row alone.
    """
    x = key[-1]
    winner = key[i - 1]
    p = key.find(winner, i + 1) + 1  # just after it in the bottom row
    if not p:
        # into the top row, if another symbol has both occurrences in the
        # bottom row
        k = max(key[:i])
        if len(key) // 2 - k <= (x > k):
            return None
        p = key.index(winner)  # just before it
    raw = key[:p] + key[-1:] + key[p:-1]
    if key.index(x) <= p:
        return raw
    # x now first occurs at p: the distinct symbols before it are those up
    # to the largest, except x
    before = max(key[:p]) if p else 0
    m = before + 1 - (x < before)
    return raw if m == x else raw.translate(rotation(x, m))


def _move1(
    key: bytes, i: int, rotation: Callable[[int, int], bytes]
) -> Optional[bytes]:
    """Move 1 on a key whose rows end in different symbols, ``i`` its
    separator index: the renumbered key, or None when undefined.

    The loser ``x`` is the last top symbol; the key is renumbered through
    ``rotation`` as :func:`_move0` does it.
    """
    x = key[i - 1]
    p = key.index(key[-1]) + 1
    if p < i:  # just after it in the top row
        raw = key[:p] + key[i - 1 : i] + key[p : i - 1] + key[i:]
        if key.index(x) <= p:
            return raw
    else:
        # into the bottom row, just before it, if another symbol has both
        # occurrences in the top row
        twice = key.index(x) < i - 1  # x keeps an occurrence in the top row
        if i - max(key[:i]) <= twice:
            return None
        raw = key[: i - 1] + key[i : p - 1] + key[i - 1 : i] + key[p - 1 :]
        if twice:
            return raw
        p = raw.index(x)
    # x now first occurs at p >= 1
    before = max(raw[:p])
    m = before + 1 - (x < before)
    return raw if m == x else raw.translate(rotation(x, m))


def _move1_tables(d: int) -> list[bytes]:
    """The move-1 translation table of a permutation per bottom winner ``w < d``.

    Move 1 with bottom winner ``w`` makes the top row
    ``1 ... w, d, w+1 ... d-1``; renumbering sends ``s <= w`` to ``s``,
    ``d`` to ``w + 1`` and ``w < s < d`` to ``s + 1``: the rotation
    ``d -> w + 1``, one table :func:`_rotation` per ``w``, applied to the
    bottom row.
    """
    return [_rotation(d, w + 1) for w in range(d)]


def _successors(
    seed: bytes,
) -> Callable[[bytes], tuple[Optional[bytes], Optional[bytes]]]:
    """The move kernel of a breadth-first class search, and of the edges of
    a class: both moves of a key, renumbered.

    Moves keep a permutation a permutation, so the kernel chosen for the
    seed holds on its whole class; its translation tables are built for
    this search.  A permutation's top row is ``1 ... d``.  Its move 0
    keeps the top row, so the raw key is reduced; its move 1 is one
    translation of :func:`_move1_tables`.
    Both moves are undefined exactly when the bottom row ends in ``d``.
    Any other table looks up its row separator and tests the row ends as
    :func:`_table_move` does, once for both moves, then moves by the rules
    :func:`_move0` and :func:`_move1`.  A class search meets the same few
    renumberings ``(x, m)`` at vertex after vertex, so the rotation it
    passes them is a cache of :func:`_rotation`, one per search.
    """
    d = len(seed) // 2
    head = bytes(range(1, d + 1)) + b"\0"
    if not seed.startswith(head):
        rotation = cache(_rotation)

        def table_moves(key: bytes) -> tuple[Optional[bytes], Optional[bytes]]:
            i = key.index(0)
            if key[i - 1] == key[-1]:
                return None, None
            return _move0(key, i, rotation), _move1(key, i, rotation)

        return table_moves
    lookups = _move1_tables(d)

    def perm_moves(key: bytes) -> tuple[Optional[bytes], Optional[bytes]]:
        w = key[-1]
        if w == d:
            return None, None
        k = key.index(d, d + 1) + 1
        return (
            key[:k] + key[-1:] + key[k:-1],
            head + key[d + 1 :].translate(lookups[w]),
        )

    return perm_moves


def _cycles(
    seed: bytes,
) -> Optional[Callable[[bytes, dict[bytes, None], Callable[[bytes], None]], None]]:
    """The cycle kernel of a whole-class search from a permutation key;
    None for any other table.

    Move 0 on a permutation key moves the last bottom letter to just after
    ``d``: it rotates the bottom-row letters after ``d`` by one place and
    keeps the rest of the key.  The move-0 arrows of a class are therefore
    disjoint cycles: a key and the other rotations of that segment.  The
    kernel ``close(key, seen, push)`` adds the whole 0-cycle of ``key`` to
    ``seen``, the key first and then its move-0 images in turn, and passes
    to ``push`` the move-1 image of each member, as :func:`_successors`
    makes it, that ``seen`` does not hold yet.  A key whose bottom row ends
    in ``d`` moves nowhere: its cycle is itself, with no move-1 image.
    A whole-class search makes one call per cycle, not one per vertex.
    """
    d = len(seed) // 2
    head = bytes(range(1, d + 1)) + b"\0"
    if not seed.startswith(head):
        return None
    lookups = _move1_tables(d)
    start = d + 1

    def close(key: bytes, seen: dict[bytes, None], push: Callable[[bytes], None]) -> None:
        k = key.index(d, start) + 1
        before, after = key[:k], key[k:]
        if not after:
            seen[key] = None
            return
        s = len(after)
        twice = after + after
        for j in range(s, 0, -1):
            member = before + twice[j : j + s]
            seen[member] = None
            image = head + member[start:].translate(lookups[after[j - 1]])
            if image not in seen:
                push(image)

    return close


def _standard_cap(d: int) -> int:
    """The most moves :func:`_to_standard` makes on ``d`` symbols.

    Measured, not proven: some irreducible permutation needs exactly
    ``(d - 1)(d - 2) / 2`` moves at every ``d`` from 3 to 16, and none
    needs more (every one through ten symbols; at 11 to 16, 10,000 random
    ones and the vertices of the hyperelliptic classes).
    """
    return (d - 1) * (d - 2) // 2


def _to_standard(key: bytes) -> tuple[bytes, int]:
    """The standard permutation a memoryless move rule reaches from the key
    of an irreducible permutation, and the number of moves it made.

    A permutation is standard when its bottom row ``b`` starts with ``d``
    and ends with 1.  The move depends on ``b`` alone, ``d`` read as the
    top row's last letter:

    * ``b`` ends with 1: stop when ``b`` starts with ``d``, else move 1;
    * 1 comes after ``d`` in ``b``: move 0;
    * otherwise move 1 when ``b`` ends with the least letter after ``d``,
      else move 0.

    Moves keep the class, so the end is a standard permutation of the class
    of ``key``; every class holds one (Rauzy, *Acta Arith.* 34, 1979).  The
    moves are those of the permutation kernel of :func:`_successors`, with
    its slices and :func:`_move1_tables`.  More than :func:`_standard_cap`
    moves raise :class:`MoveCapExceeded`; the rule never loops.

    >>> from .combinat import format_perm, parse
    >>> end, moves = _to_standard(parse("1 2 3 4 / 3 4 1 2")._key)
    >>> format_perm(GenPerm._of(end)), moves
    ('1 2 3 4 / 4 2 3 1', 2)
    """
    d = len(key) // 2
    head = key[: d + 1]
    lookups = _move1_tables(d)
    for moves in range(_standard_cap(d) + 1):
        w = key[-1]
        k = key.index(d, d + 1) + 1  # just after d in the bottom row
        if w == 1:
            if k == d + 2:
                return key, moves
            move1 = True
        elif k == len(key):
            raise Reducible(f"{GenPerm._of(key)} ends both rows with {d}")
        else:
            after = key[k:]
            move1 = 1 not in after and w == min(after)
        if move1:
            key = head + key[d + 1 :].translate(lookups[w])
        else:
            key = key[:k] + key[-1:] + key[k:-1]
    raise MoveCapExceeded(
        f"the rule to a standard permutation passes {_standard_cap(d)} moves"
    )


def r0(p: GenPerm) -> Optional[GenPerm]:
    """Reduced move 0, or None when undefined.

    >>> from .combinat import parse
    >>> print(r0(parse("1 2 3 4 3 / 2 4 5 5 1")))
    1 2 1 3 4 3 / 2 4 5 5
    """
    moved = _table_move(p._key, 0)
    return None if moved is None else GenPerm._of(moved)


def r1(p: GenPerm) -> Optional[GenPerm]:
    """Reduced move 1, or None when undefined.

    >>> from .combinat import parse
    >>> print(r1(parse("1 2 3 4 3 / 2 4 5 5 1")))
    1 2 3 2 4 / 3 4 5 5 1
    """
    moved = _table_move(p._key, 1)
    return None if moved is None else GenPerm._of(moved)


def rv_step(p: GenPerm, zeta: SuspensionDatum) -> tuple[GenPerm, SuspensionDatum]:
    """One induction step on a suspension vector.

    The move is selected by comparing the real parts of the two rightmost
    symbols; the shorter vector is subtracted from the longer one.  The
    result is a suspension vector over the moved permutation, with
    coordinates renumbered to match its reduced labels: the shorter
    symbol's pair moves to its new number, and the pairs between shift by
    one.  The step copies the integer parts of ``zeta`` into one list,
    where symbol ``s`` has its real part at ``s`` and its imaginary part at
    ``d + s``, and subtracts there before it moves.  The move is
    :func:`_move0` or :func:`_move1`; the ``rotation`` the step passes
    rotates the real and the imaginary block of the list by the same
    ``x -> m`` before it returns the table of :func:`_rotation`, so the
    parts are renumbered exactly when the key is.  The denominator stays;
    ``zeta`` itself is not changed.

    That the result is a suspension vector is the induction lemma (Veech,
    *Ann. of Math.* 115, 1982, for permutations; Boissy-Lanneau, *ETDS* 29,
    2009, for generalized permutations), so the vector returned is over
    the moved key and the next step takes it as it is.  Any other ``zeta``
    is checked over ``p`` first, and one that fails raises
    :class:`InvalidSuspension`.

    >>> from fractions import Fraction
    >>> from .combinat import parse
    >>> p = parse("1 2 / 2 1")
    >>> zeta = SuspensionDatum(((Fraction(5, 2), Fraction(1, 2)), (1, Fraction(-1, 2))))
    >>> q, moved = rv_step(p, zeta)
    >>> print(q, moved)
    1 2 / 2 1 (3/2+1i, 1-1/2i)
    >>> moved.values
    ((Fraction(3, 2), Fraction(1, 1)), (Fraction(1, 1), Fraction(-1, 2)))
    """
    key = p._key
    parts = zeta._parts if zeta._over == key else _parts_over(p, zeta)
    i = key.index(0)
    a = key[i - 1]
    b = key[-1]
    if a == b:
        raise InductionHalt("rightmost symbols coincide")
    ra, rb = parts[a], parts[b]
    if ra == rb:
        raise InductionHalt("rightmost lengths are exactly equal")
    if ra > rb:
        which, longer, shorter, length, move = 0, a, b, ra - rb, _move0
    else:
        which, longer, shorter, length, move = 1, b, a, rb - ra, _move1
    d = len(parts) // 2
    new = list(parts)
    new[longer] = length
    new[d + longer] -= parts[d + shorter]

    def rotation(x: int, m: int) -> bytes:
        new.insert(m, new.pop(x))
        new.insert(d + m, new.pop(d + x))
        return _rotation(x, m)

    moved = move(key, i, rotation)
    if moved is None:
        raise UndefinedMove(f"move {which} undefined at {p}")
    return GenPerm._of(moved), SuspensionDatum._of(tuple(new), moved)
