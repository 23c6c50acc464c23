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
between shift by one.  ``bytes.translate`` applies it
(:func:`_renumbered`).  The class search takes both moves of a key in one
call from the kernel :func:`_successors` gives for its class: slices and
one :func:`_rotation` table per bottom winner for permutations, and for other
tables :func:`_move0` and :func:`_move1`, the rules of
:func:`_table_move`, after one lookup of the row separator.

The induction itself is :func:`rv_step`, one step on a suspension vector,
whose real parts are the interval lengths.  It is exact: it reads the
vector's one tuple of integers, the common denominator and then the parts,
compares, subtracts and renumbers the parts as integers in one list, and
returns one tuple over the same denominator, so a long run of steps makes
no ``Fraction``; halting is detected by exact equality.  It has already
told the two end symbols apart, so it makes its move with :func:`_move0`
or :func:`_move1` from the separator index of the key.
"""
from __future__ import annotations

from functools import cache
from typing import Callable, Optional

from .combinat import GenPerm
from .errors import InductionHalt, InvalidSuspension, UndefinedMove
from .suspension import SuspensionDatum, _valid_parts

_IDENT = bytes(range(256))  # the identity translation table


def _rotation(x: int, m: int) -> bytes:
    """The ``bytes.translate`` table of the renumbering ``x -> m``.

    The symbols between ``x`` and ``m`` shift by one toward the place
    ``x`` left; every other byte, the separator included, stays.
    """
    if m < x:
        return _IDENT[:m] + _IDENT[m + 1 : x + 1] + _IDENT[m : m + 1] + _IDENT[x + 1 :]
    return _IDENT[:x] + _IDENT[m : m + 1] + _IDENT[x:m] + _IDENT[m + 1 :]


def _table_move(key: bytes, which: int) -> Optional[tuple[bytes, int, int]]:
    """Move ``which`` on a reduced key, renumbered; None when undefined.

    Returns the moved key and the rotation ``x -> m`` that reduced it,
    ``x`` the loser.  Both moves are undefined when the rows end in the
    same symbol; otherwise :func:`_move0` or :func:`_move1` makes the move
    from the index ``i`` of the row separator, and :func:`_renumbered`
    reduces it.  Reduced numbering counts symbols: the top row holds ``k``
    distinct symbols, ``k`` its largest, so ``d - k`` symbols lie in the
    bottom row alone and ``len(top) - k`` in the top row alone.
    """
    i = key.index(0)
    if key[i - 1] == key[-1]:
        return None
    return (_move1 if which else _move0)(key, i, _rotation)


def _move0(
    key: bytes, i: int, rotation: Callable[[int, int], bytes]
) -> Optional[tuple[bytes, int, int]]:
    """Move 0 of :func:`_table_move` on a key whose rows end in different
    symbols, ``i`` its separator index, with ``rotation`` as in
    :func:`_renumbered`; None when undefined."""
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
        return raw, x, x
    return _renumbered(raw, x, p, rotation)  # x now first occurs at p


def _move1(
    key: bytes, i: int, rotation: Callable[[int, int], bytes]
) -> Optional[tuple[bytes, int, int]]:
    """Move 1 of :func:`_table_move` on a key whose rows end in different
    symbols, ``i`` its separator index, with ``rotation`` as in
    :func:`_renumbered`; None when undefined."""
    x = key[i - 1]
    winner = key[-1]
    p = key.index(winner) + 1
    if p < i:  # just after it in the top row
        raw = key[:p] + key[i - 1 : i] + key[p : i - 1] + key[i:]
        if key.index(x) <= p:
            return raw, x, x
        return _renumbered(raw, x, p, rotation)
    # into the bottom row, just before it, if another symbol has both
    # occurrences in the top row
    twice = key.index(x) < i - 1  # x keeps an occurrence in the top row
    if i - max(key[:i]) <= twice:
        return None
    raw = key[: i - 1] + key[i : p - 1] + key[i - 1 : i] + key[p - 1 :]
    if twice:
        return raw, x, x
    return _renumbered(raw, x, raw.index(x), rotation)


def _renumbered(
    raw: bytes, x: int, p: int, rotation: Callable[[int, int], bytes]
) -> tuple[bytes, int, int]:
    """The raw move ``raw`` renumbered, with its rotation ``x -> m``.

    The move helpers return a raw move as it is, with the identity
    rotation, unless it moved the first occurrence of ``x``; it then comes
    here with that occurrence's new index ``p``.  By reduced numbering, the
    distinct symbols before it are those up to the largest, ``before``,
    except ``x``, which fixes ``m``.  ``rotation(x, m)`` gives the
    translation table: :func:`_rotation` for a single move, and a cache of
    it for a class search, which meets the same few pairs ``(x, m)`` at
    vertex after vertex; with generalized tables of six symbols the cache
    saves the search about 8% per vertex.
    """
    before = max(raw[:p]) if p else 0
    m = before + 1 - (x < before)
    return (raw if m == x else raw.translate(rotation(x, m))), x, m


def _successors(
    seed: bytes,
) -> Callable[[bytes], tuple[Optional[bytes], Optional[bytes]]]:
    """The move kernel of a class search: both moves of a key, renumbered.

    Moves keep a permutation a permutation, so the kernel chosen for the
    seed holds on its whole class; its translation tables are built for
    this search.  A permutation's top row is ``1 ... d``.  Its move 0
    keeps the top row, so the raw key is reduced.  Its move 1 with bottom
    winner ``w`` makes the top row ``1 ... w, d, w+1 ... d-1``;
    renumbering sends ``s <= w`` to ``s``, ``d`` to ``w + 1`` and
    ``w < s < d`` to ``s + 1``: the rotation ``d -> w + 1``, one table
    :func:`_rotation` per ``w`` on the bottom row.
    Both moves are undefined exactly when the bottom row ends in ``d``.
    Any other table takes :func:`_move0` and :func:`_move1` after the
    separator lookup and end test of :func:`_table_move`, made once.
    """
    d = len(seed) // 2
    head = bytes(range(1, d + 1)) + b"\0"
    if not seed.startswith(head):
        rotation = cache(_rotation)

        def table_moves(key: bytes) -> tuple[Optional[bytes], Optional[bytes]]:
            i = key.index(0)
            if key[i - 1] == key[-1]:
                return None, None
            moved0 = _move0(key, i, rotation)
            moved1 = _move1(key, i, rotation)
            return moved0 and moved0[0], moved1 and moved1[0]

        return table_moves
    lookups = [_rotation(d, w + 1) for w in range(d)]

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


def r0(p: GenPerm) -> Optional[GenPerm]:
    """Reduced move 0, or None when undefined.

    >>> from .combinat import parse
    >>> print(r0(parse("1 2 3 4 3 / 2 4 5 5 1")))
    1 2 1 3 4 3 / 2 4 5 5
    """
    moved = _table_move(p._key, 0)
    return None if moved is None else GenPerm._of(moved[0])


def r1(p: GenPerm) -> Optional[GenPerm]:
    """Reduced move 1, or None when undefined.

    >>> from .combinat import parse
    >>> print(r1(parse("1 2 3 4 3 / 2 4 5 5 1")))
    1 2 3 2 4 / 3 4 5 5 1
    """
    moved = _table_move(p._key, 1)
    return None if moved is None else GenPerm._of(moved[0])


def rv_step(p: GenPerm, zeta: SuspensionDatum) -> tuple[GenPerm, SuspensionDatum]:
    """One induction step on a suspension vector.

    The move is selected by comparing the real parts of the two rightmost
    symbols; the shorter vector is subtracted from the longer one.  The
    result is a suspension vector over the moved permutation, with
    coordinates renumbered to match its reduced labels: the shorter
    symbol's pair moves to its new number, and the pairs between shift by
    one.  The step copies the integer parts of ``zeta`` into one list,
    where symbol ``s`` has its real part at ``s`` and its imaginary part at
    ``d + s``, rotates the real and the imaginary block alike, and keeps
    the denominator; ``zeta`` itself is not changed.

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
    parts = _valid_parts(p, zeta)
    if parts is None:
        raise InvalidSuspension(f"not a suspension vector over {p}")
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
    moved = move(key, i, _rotation)
    if moved is None:
        raise UndefinedMove(f"move {which} undefined at {p}")
    moved_key, x, m = moved  # x is the shorter symbol, the loser
    d = len(parts) // 2
    new = list(parts)
    new[longer] = length
    new[d + longer] -= parts[d + shorter]
    if m != x:
        new.insert(m, new.pop(x))
        new.insert(d + m, new.pop(d + x))
    return GenPerm._of(moved_key), SuspensionDatum._of(tuple(new))
