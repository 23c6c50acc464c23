r"""
Generalized permutations in reduced two-row table form.

The combinatorial datum of a linear involution is a table of two rows of
symbols in which every symbol appears exactly twice, for example::

    1 2 3 2 4
    4 5 1 3 5

Ordinary permutations (the combinatorial data of interval exchange maps)
are the sub-case in which every symbol appears exactly once in each row;
they are stored in the same representation and, once reduced, always have
top row ``1 2 ... d``.

A table is *reduced* when the symbols are numbered ``1..d`` by order of
first appearance, scanning the top row left to right and then the bottom
row.  ``GenPerm`` values are always reduced: :func:`reduce` normalises an
arbitrary two-to-one table while :func:`parse` rejects non-reduced input
outright, so that text corpora stay unambiguous.

A ``GenPerm`` holds its table as one byte string, its vertex key: the top
row, a 0 byte, the bottom row, one byte per symbol, so a table has at most
255 symbols.  The moves, the class searches, the enumerators and the
invariants pass keys and read their rows as byte slices; the public
``top`` and ``bottom`` tuples are decoded when read.  :func:`_reduced` is
the one renumbering of keys.

Text format: both rows as base-10 integers separated by single spaces,
rows joined by ``" / "``, e.g. ``"1 2 3 2 4 / 4 5 1 3 5"``.
"""
from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator, Sequence

from .errors import EmptyRow, NotReduced, NotTwoToOne, TooManySymbols

_MAX_SYMBOLS = 255  # one byte per symbol, 0 the row separator
_IDENT = bytes(range(256))  # the identity translation table: byte n at index n


class PermKind(Enum):
    """Occurrence pattern of a generalized permutation."""

    IET = "iet"
    QUADRATIC = "quadratic"


class GenPerm:
    """A reduced generalized permutation: two rows of symbols, two-to-one.

    Slotted and frozen, with one slot: the vertex key, the bytes of the top
    row, a 0 byte, the bytes of the bottom row.  One byte per symbol, so a
    table holds the symbols 1 to 255; a larger table raises
    :class:`TooManySymbols`.  The rows, the shape and the sort key are read
    from the key.

    >>> p = GenPerm((1, 2), (2, 1))
    >>> p.d, p.shape, p.kind.value
    (2, (2, 2), 'iet')
    >>> print(p)
    1 2 / 2 1
    >>> p
    GenPerm(top=(1, 2), bottom=(2, 1))
    """

    # Frozen: the key is written once, through object.__setattr__, and any
    # other assignment or deletion raises FrozenInstanceError, imported on
    # that error path alone to keep its module off the import of rauzy.
    __slots__ = ("_key",)
    _key: bytes

    def __init__(self, top: Iterable[int], bottom: Iterable[int]) -> None:
        top = tuple(top)
        bottom = tuple(bottom)
        _validate_rows(top, bottom)
        _check_reduced(top, bottom)
        if len(top) + len(bottom) > 2 * _MAX_SYMBOLS:
            raise TooManySymbols(
                f"a vertex key holds at most {_MAX_SYMBOLS} symbols; "
                f"this table has {(len(top) + len(bottom)) // 2}"
            )
        object.__setattr__(self, "_key", bytes(top) + b"\0" + bytes(bottom))

    @classmethod
    def _of(cls, key: bytes) -> GenPerm:
        """Wrap a vertex key the move kernel or an enumerator produced.

        Such keys are reduced and two-to-one by construction, so the checks
        of the constructor are skipped.  Input from users goes through
        :func:`parse`, :func:`reduce` or the constructor.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "_key", key)
        return p

    @property
    def top(self) -> tuple[int, ...]:
        return tuple(self._key.partition(b"\0")[0])

    @property
    def bottom(self) -> tuple[int, ...]:
        return tuple(self._key.partition(b"\0")[2])

    @property
    def d(self) -> int:
        """Number of exchanged intervals (distinct symbols)."""
        return len(self._key) // 2

    @property
    def shape(self) -> tuple[int, int]:
        """Row lengths ``(l, m)``."""
        l = self._key.index(0)
        return (l, len(self._key) - 1 - l)

    @property
    def kind(self) -> PermKind:
        top, _, bottom = self._key.partition(b"\0")
        if _is_permutation(top, bottom):
            return PermKind.IET
        return PermKind.QUADRATIC

    @property
    def key(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """Canonical sort key: ``(l, top, bottom)``."""
        top, _, bottom = self._key.partition(b"\0")
        return (len(top), tuple(top), tuple(bottom))

    def __setattr__(self, name: str, value: object = None) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if type(other) is not GenPerm:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        # the hash of the tuple (key,): the iteration order of sets of
        # tables, and so the printed orders, depend on it
        return hash((self._key,))

    def __reduce__(self) -> tuple:
        # the default restores slots through the frozen __setattr__
        return (GenPerm._of, (self._key,))

    def __repr__(self) -> str:
        return f"GenPerm(top={self.top!r}, bottom={self.bottom!r})"

    def __str__(self) -> str:
        return format_perm(self)


def _validate_rows(top: tuple[int, ...], bottom: tuple[int, ...]) -> None:
    if not top or not bottom:
        raise EmptyRow("both rows must be nonempty")
    cells = top + bottom
    if len(cells) % 2:
        raise NotTwoToOne("total number of cells must be even")
    d = len(cells) // 2
    counts: dict[int, int] = {}
    for s in cells:
        counts[s] = counts.get(s, 0) + 1
    bad = sorted(s for s, c in counts.items() if c != 2)
    if bad:
        raise NotTwoToOne(f"symbols {bad} do not appear exactly twice")
    if set(counts) != set(range(1, d + 1)):
        raise NotTwoToOne(f"symbols must be exactly 1..{d}, got {sorted(counts)}")


def _check_reduced(top: tuple[int, ...], bottom: tuple[int, ...]) -> None:
    expected = 1
    for s in top + bottom:
        if s == expected:
            expected += 1
        elif s >= expected:
            raise NotReduced(
                f"first occurrence of {s} precedes first occurrence of {expected}"
            )


def parse(text: str) -> GenPerm:
    """Parse table notation into a validated :class:`GenPerm`.

    Non-reduced input is rejected rather than silently renumbered; use
    :func:`reduce` to normalise.

    >>> parse("1 2 3 2 4 / 4 5 1 3 5").shape
    (5, 5)
    >>> parse("2 1 / 1 2")
    Traceback (most recent call last):
    ...
    rauzy.errors.NotReduced: first occurrence of 2 precedes first occurrence of 1
    """
    head, sep, tail = text.partition("/")
    if not sep:
        raise EmptyRow("expected 'top / bottom'")
    if "/" in tail:
        raise EmptyRow("expected exactly one '/' separator")

    def number(tok: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise ValueError(f"cannot parse table {text!r}: {tok!r} is not an integer") from None

    return GenPerm(tuple(map(number, head.split())), tuple(map(number, tail.split())))


def format_perm(p: GenPerm) -> str:
    """Inverse of :func:`parse`."""
    return "{} / {}".format(
        " ".join(map(str, p.top)), " ".join(map(str, p.bottom))
    )


def reduce(top: Sequence[int], bottom: Sequence[int]) -> GenPerm:
    """Renumber a two-to-one table by order of first occurrence.

    Idempotent: reducing an already reduced table returns it unchanged.

    >>> print(reduce((1, 3, 2, 3, 4), (2, 4, 5, 5, 1)))
    1 2 3 2 4 / 3 4 5 5 1
    >>> print(reduce((3, 3), (1, 1, 2, 2)))
    1 1 / 2 2 3 3
    """
    top, bottom = tuple(top), tuple(bottom)
    number = {s: n for n, s in enumerate(dict.fromkeys(top + bottom), 1)}
    return GenPerm(map(number.__getitem__, top), map(number.__getitem__, bottom))


def _reduced(key: bytes) -> bytes:
    """The key ``key`` with its symbols numbered ``1, 2, ...`` by first occurrence.

    The one renumbering of keys, for callers that build a key from a valid
    one: the row exchange ``_reduced(bottom + b"\\0" + top)``, the central
    involution ``_reduced(key[::-1])`` and the merge of two intervals, which
    deletes a symbol.  :func:`reduce` numbers outside input and checks it.

    >>> list(_reduced(bytes([3, 3, 1, 0, 2, 1, 2])))
    [1, 1, 2, 0, 3, 2, 3]
    """
    symbols = bytes(dict.fromkeys(key)).replace(b"\0", b"")  # the separator stays 0
    return key.translate(bytes.maketrans(symbols, _IDENT[1 : len(symbols) + 1]))


def _is_permutation(top: Sequence[int], bottom: Sequence[int]) -> bool:
    """Whether the two-to-one table ``top / bottom`` is a permutation.

    That is, each letter occurs once in each row, as in the combinatorial
    datum of an interval exchange: the rows have the same length and the
    top row repeats no letter.
    """
    return len(top) == len(bottom) == len(set(top))


def is_irreducible(p: GenPerm) -> bool:
    """Whether ``p`` admits a suspension vector (see :mod:`rauzy.suspension`).

    Decided combinatorially on the two rows by :func:`irreducible_rows`.
    """
    top, _, bottom = p._key.partition(b"\0")
    return irreducible_rows(top, bottom)


def irreducible_rows(top: Sequence[int], bottom: Sequence[int]) -> bool:
    """Whether the two-to-one table ``top / bottom`` admits a suspension vector.

    Write ``T_i`` for the letter-count vector of ``top[:i]``, ``B_j`` for
    that of ``bottom[:j]``, and ``T``, ``B`` for the full rows.  The table
    is reducible exactly when one of the following holds (the corner
    decomposition of Boissy-Lanneau, "Dynamics and geometry of the
    Rauzy-Veech induction for quadratic differentials", Ergodic Theory
    Dynam. Systems 29 (2009), Def. 3.1 and Thm. 3.2):

    (a) ``T - B`` is nonzero and does not take both signs, so no positive
        lengths balance the two rows;
    (b) ``T_i = B_j`` for some ``0 < i < l`` and ``0 < j < m``;
    (c) ``T_a + T_b - T = B_c + B_e - B`` for some ``0 <= a <= b < l`` and
        ``0 <= c <= e < m``, other than ``a = b = c = e = 0``.

    ``T - B`` is ``+2`` on a letter doubled in the top row, ``-2`` on one
    doubled in the bottom row and 0 elsewhere, so (a) says that exactly one
    row repeats a letter.  When neither does, the table is a permutation:
    (c) then implies (b), and (b) is the classical prefix criterion
    (Veech, Ann. of Math. 115 (1982)).  Each count vector is packed into
    one integer, 3 bits per letter; two vectors compared here differ by at
    most 4 in any entry, so equal packings mean equal vectors.
    O(l^2 + m^2) on the table.

    >>> irreducible_rows((1, 2, 3, 4), (4, 3, 2, 1))
    True
    >>> irreducible_rows((1, 1), (2, 2))
    False
    """
    l, m = len(top), len(bottom)
    top_doubled = len(set(top)) < l
    if top_doubled != (len(set(bottom)) < m):
        return False  # (a)
    tops = _prefix_counts(top)
    bottoms = _prefix_counts(bottom)
    inner = set(tops[1:l])
    if any(b in inner for b in bottoms[1:m]):
        return False  # (b)
    if not top_doubled:
        return True
    # (c), with B - T moved to the top side.  T != B here, so the excluded
    # a = b = c = e = 0 (which reads -T = -B) never matches.
    shift = bottoms[m] - tops[l]
    sums = {x + y + shift for i, x in enumerate(tops[:l]) for y in tops[i:l]}
    pairs = (x + y for j, x in enumerate(bottoms[:m]) for y in bottoms[j:m])
    return sums.isdisjoint(pairs)


def _prefix_counts(row: Sequence[int]) -> list[int]:
    """Packed letter counts of every prefix of ``row``, 3 bits per letter."""
    counts = [0]
    for s in row:
        counts.append(counts[-1] + (1 << 3 * s))
    return counts


def all_reduced_tables(d: int) -> Iterator[bytes]:
    """Yield the key of every reduced two-to-one table with ``d`` symbols, all shapes.

    Tables are produced in deterministic order: by top-row length ``l``,
    then by the position pairing, symbols numbered by first occurrence
    so no relabelled duplicates ever appear.
    """
    n = 2 * d
    for l in range(1, n):
        cells = [0] * n
        yield from _fill_tables(cells, 0, 1, l)


def _irreducible_tables(d: int) -> Iterator[bytes]:
    """Keys of the irreducible reduced tables with ``d`` symbols and shape ``l <= m``.

    Permutations aside, these are the tables of :func:`all_reduced_tables`
    with top-row length ``l <= d`` filtered by :func:`irreducible_rows`.
    The other shapes are their row exchanges, the keys
    ``_reduced(bottom + b"\\0" + top)`` (:func:`_reduced`): the conditions
    there are symmetric in the two rows, so the exchange maps
    the irreducible tables of shape ``(l, m)`` one to one onto those of
    shape ``(m, l)``.  They are found by a search that tests each condition
    there on a prefix as soon as the prefix is complete.  A top row is kept
    only when it doubles a letter and leaves at least one letter to the
    bottom row to double, which is (a) and rules out permutations.  Every
    letter occurs twice, so ``B = 2 - T`` and both the inner prefixes of
    (b) and the sums of (c) depend on the top row alone.  Each bottom prefix
    ``B_j`` with ``0 < j < m`` is then held against them: ``B_j`` must not
    be an inner top prefix, and ``B_c + B_j`` must not be a sum for any
    ``c <= j``.  The prefix ``j = 0`` needs no test: ``T_a + T_b + B = T``
    fails on a letter doubled in the bottom row.  Tables come in
    :attr:`GenPerm.key` order: by top-row length, shortest first, then by
    top row and by bottom row.
    """
    unit = [1 << 3 * s for s in range(d + 1)]
    shift_base = 2 * sum(unit[1:])
    # The letters a bottom cell may take depend only on the open letters
    # and the next fresh one: at most 2^d (d + 1) menus, each made once.
    menus: dict[tuple[int, int], tuple[int, ...]] = {}
    for l in range(2, d + 1):
        m = 2 * d - l
        # at most d - 1 letters on the top row: it doubles at least l - d + 1
        for top, once in _top_rows(l, max(1, l - d + 1), l // 2):
            head = bytes(top) + b"\0"
            tops = _prefix_counts(top)
            inner = set(tops[1:l])
            shift = shift_base - 2 * tops[l]
            sums = {x + y + shift for i, x in enumerate(tops[:l]) for y in tops[i:l]}
            # Before cell j of the bottom row: the letters that may close
            # there (top singletons and bottom letters opened once) as a bit
            # mask, the next fresh letter, and the choices left.
            cells, counts = bytearray(m), [0] * m
            open_at, fresh_at = [once] * m, [max(top) + 1] * m
            choices: list[Iterator[int]] = [iter(())] * m
            j = 0
            choices[0] = iter(_menu(menus, once, fresh_at[0], d))
            while j >= 0:
                s = next(choices[j], 0)
                if not s:
                    j -= 1
                    continue
                cells[j] = s
                # b is B_{j+1}; its pairs B_c + b for c <= j + 1 include b + b
                b = counts[j + 1] = counts[j] + unit[s]
                if b in inner or not sums.isdisjoint([c + b for c in counts[: j + 2]]):
                    continue
                if s == fresh_at[j]:
                    key = open_at[j] | 1 << s, s + 1
                else:
                    key = open_at[j] & ~(1 << s), fresh_at[j]
                if j == m - 2:
                    # 2 unplaced + open = cells left = 1: one letter is open
                    cells[j + 1] = key[0].bit_length() - 1
                    yield head + cells
                    continue
                j += 1
                open_at[j], fresh_at[j] = key
                letters = menus.get(key) or _menu(menus, *key, d)
                choices[j] = iter(letters)


def _menu(
    menus: dict[tuple[int, int], tuple[int, ...]], open_mask: int, fresh: int, d: int
) -> tuple[int, ...]:
    """The letters a bottom cell may take, stored in ``menus``.

    Any open letter, or ``fresh`` while it is at most ``d``.
    """
    letters = [s for s in range(1, fresh) if open_mask >> s & 1]
    if fresh <= d:
        letters.append(fresh)
    menus[open_mask, fresh] = tuple(letters)
    return menus[open_mask, fresh]


def _top_rows(n: int, least: int, most: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Reduced rows of ``n`` cells that double between ``least`` and ``most`` letters.

    Each comes with the bit mask of its letters that occur once.  Rows come
    in lexicographic order.
    """
    cells = [0] * n

    def fill(pos: int, once: int, fresh: int, doubled: int) -> Iterator[tuple[tuple[int, ...], int]]:
        if pos == n:
            yield tuple(cells), once
            return
        if doubled < most:
            for s in range(1, fresh):
                if once >> s & 1:
                    cells[pos] = s
                    yield from fill(pos + 1, once & ~(1 << s), fresh, doubled + 1)
        # a fresh letter leaves one cell fewer for the letters still to double
        if least - doubled < n - pos:
            cells[pos] = fresh
            yield from fill(pos + 1, once | 1 << fresh, fresh + 1, doubled)

    return fill(0, 0, 1, 0)


def _fill_tables(cells: list[int], pos: int, fresh: int, l: int) -> Iterator[bytes]:
    n = len(cells)
    while pos < n and cells[pos]:
        pos += 1
    if pos == n:
        yield bytes(cells[:l]) + b"\0" + bytes(cells[l:])
        return
    cells[pos] = fresh
    for other in range(pos + 1, n):
        if cells[other]:
            continue
        cells[other] = fresh
        yield from _fill_tables(cells, pos + 1, fresh + 1, l)
        cells[other] = 0
    cells[pos] = 0
