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

Text format: both rows as base-10 integers separated by single spaces,
rows joined by ``" / "``, e.g. ``"1 2 3 2 4 / 4 5 1 3 5"``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence

from .errors import EmptyRow, NotReduced, NotTwoToOne

Rows = tuple[tuple[int, ...], tuple[int, ...]]


class PermKind(Enum):
    """Occurrence pattern of a generalized permutation."""

    IET = "iet"
    QUADRATIC = "quadratic"


@dataclass(frozen=True)
class GenPerm:
    """A reduced generalized permutation: two rows of symbols, two-to-one.

    >>> p = GenPerm((1, 2), (2, 1))
    >>> p.d, p.shape, p.kind.value
    (2, (2, 2), 'iet')
    >>> print(p)
    1 2 / 2 1
    """

    top: tuple[int, ...]
    bottom: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        top = tuple(self.top)
        bottom = tuple(self.bottom)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
        _validate_rows(top, bottom)
        _check_reduced(top, bottom)
        object.__setattr__(self, "_hash", hash((top, bottom)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def d(self) -> int:
        """Number of exchanged intervals (distinct symbols)."""
        return (len(self.top) + len(self.bottom)) // 2

    @property
    def shape(self) -> tuple[int, int]:
        """Row lengths ``(l, m)``."""
        return (len(self.top), len(self.bottom))

    @property
    def kind(self) -> PermKind:
        if len(self.top) == len(self.bottom):
            d = self.d
            if len(set(self.top)) == d and len(set(self.bottom)) == d:
                return PermKind.IET
        return PermKind.QUADRATIC

    @property
    def key(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """Canonical sort key: ``(l, top, bottom)``."""
        return (len(self.top), self.top, self.bottom)

    def __str__(self) -> str:
        return format_perm(self)

    def to_dict(self) -> dict:
        return {"top": list(self.top), "bottom": list(self.bottom)}

    @classmethod
    def from_dict(cls, data: dict) -> "GenPerm":
        return cls(tuple(data["top"]), tuple(data["bottom"]))

    @classmethod
    def _trusted(cls, top: tuple[int, ...], bottom: tuple[int, ...]) -> "GenPerm":
        """Wrap row tuples the move kernel or the enumerator produced.

        Such rows are reduced and two-to-one by construction, so the checks
        of ``__post_init__`` are skipped.  Input from users goes through
        :func:`parse`, :meth:`from_dict`, :func:`reduce` or the constructor.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "top", top)
        object.__setattr__(p, "bottom", bottom)
        object.__setattr__(p, "_hash", hash((top, bottom)))
        return p


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
    top = tuple(int(tok) for tok in head.split())
    bottom = tuple(int(tok) for tok in tail.split())
    if not top or not bottom:
        raise EmptyRow("both rows must be nonempty")
    return GenPerm(top, bottom)


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
    perm, _ = reduce_with_map(top, bottom)
    return perm


def reduce_with_map(
    top: Sequence[int], bottom: Sequence[int]
) -> tuple[GenPerm, dict[int, int]]:
    """Like :func:`reduce` but also return the ``old symbol -> new symbol`` map."""
    relabel: dict[int, int] = {}
    rows_out = []
    for row in (tuple(top), tuple(bottom)):
        out = []
        for s in row:
            if s not in relabel:
                relabel[s] = len(relabel) + 1
            out.append(relabel[s])
        rows_out.append(tuple(out))
    return GenPerm(rows_out[0], rows_out[1]), relabel


def row_swap(p: "GenPerm | Rows") -> Rows:
    """Exchange the two rows.  Involutive; the result is not re-reduced.

    >>> row_swap(GenPerm((1, 2), (2, 1)))
    ((2, 1), (1, 2))
    >>> row_swap(row_swap(GenPerm((1, 2), (2, 1))))
    ((1, 2), (2, 1))
    """
    if isinstance(p, GenPerm):
        return (p.bottom, p.top)
    top, bottom = p
    return (tuple(bottom), tuple(top))


def is_irreducible(p: GenPerm) -> bool:
    """Whether ``p`` admits a suspension vector (see :mod:`rauzy.suspension`).

    Decided combinatorially on the two rows by :func:`irreducible_rows`.
    """
    return irreducible_rows(p.top, p.bottom)


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


def all_reduced_tables(d: int) -> Iterator[Rows]:
    """Yield every reduced two-to-one table with ``d`` symbols, all shapes.

    Tables are produced in deterministic order: by top-row length ``l``,
    then by the position pairing, symbols numbered by first occurrence
    so no relabelled duplicates ever appear.
    """
    n = 2 * d
    for l in range(1, n):
        cells = [0] * n
        yield from _fill_tables(cells, 0, 1, l)


def _fill_tables(cells: list[int], pos: int, fresh: int, l: int) -> Iterator[Rows]:
    n = len(cells)
    while pos < n and cells[pos]:
        pos += 1
    if pos == n:
        yield (tuple(cells[:l]), tuple(cells[l:]))
        return
    cells[pos] = fresh
    for other in range(pos + 1, n):
        if cells[other]:
            continue
        cells[other] = fresh
        yield from _fill_tables(cells, pos + 1, fresh + 1, l)
        cells[other] = 0
    cells[pos] = 0
