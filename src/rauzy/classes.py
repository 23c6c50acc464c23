r"""
Rauzy classes and diagrams: enumeration, membership, and the class-count
verifier.

A class is the smallest set of reduced generalized permutations containing
a seed and closed under both moves, held as its vertex set: the key of
each vertex, the one field of its ``GenPerm`` (:mod:`rauzy.combinat`),
with no move target.  A whole permutation class closes by move-0 cycles,
the seed first: move 0 rotates the bottom-row letters after ``d``, so one
call of the kernel of :func:`rauzy.induction._cycles` adds a whole cycle
and gives its move-1 images.  A whole class of generalized tables is
searched over row-exchange pairs ``{v, tau v}`` (tau below): the moves of
``tau v`` are the exchanges of those of ``v`` with 0 and 1 swapped, so
only one member of each pair is moved, and the class is held as its pairs
in a :class:`_PairTable`, which decodes the members when iterated.
Stopping searches go breadth first.  Every search takes both moves of a
key in one call from the kernel of :func:`rauzy.induction._successors`.
A class's ``GenPerm`` vertices wrap the keys when read, and its edges are
made then from that kernel.

The verifier builds every class of a given size and kind, one at a time,
from seeds, the irreducible tables whose bottom row ends with 1, and
proves that none is missing by a count.  Permutation candidates are the
standard permutations, which every class contains (Rauzy, *Acta Arith.*
34, 1979) and whose bottom rows all end with 1; the class sizes must sum
to the number of irreducible permutations (OEIS A003319).  Generalized
candidates are the irreducible tables of shape ``l <= m``, as keys from
the pruned search :func:`rauzy.combinat._irreducible_tables`.  The other
tables are their row exchanges, tau(top, bottom) = reduce(bottom, top),
whose keys :func:`rauzy.combinat._reduced` numbers without the checks
of :func:`rauzy.combinat.reduce`.  Complex conjugation takes a
suspension of ``top / bottom`` to one of ``bottom / top``: it mirrors the
polygon but keeps its gluings, so tau keeps irreducibility, the cone
angles and the left endpoint, hence the stratum and the marked order, and
maps the tables of shape ``(l, m)`` one to one onto those of shape
``(m, l)``.  The class sizes must therefore sum to
``2 N(l < m) + N(l = m)``, which the same pass counts.  A candidate is a
seed when its bottom row ends with 1, and one with ``l < m`` whose top row
ends with its bottom row's first letter stands for its exchange, a seed
whose bottom row then ends with 1 (:func:`_seeds`): the seeds are all the
irreducible tables whose bottom row ends with 1, each of shape ``l > m``
given by the candidate it is the exchange of.  That every generalized
class holds a seed is checked through eight symbols but not proven; the
count turns a missed class into a failed report instead of a silent pass.
The same count guards the pair search: a class it cannot certify
tau-closed holds one member of each pair, and the class of the other
members is never built.
Only the seeds that start a class are wrapped; :func:`enumerate_irreducible`,
which filters every reduced table, is the brute-force oracle of the tests
and scripts.

The verifier keeps each class's marked order and size by (stratum,
component label) and checks the expected structure: each group must hold
exactly one class per distinct singularity order, matched bijectively by
marked order, and each stratum must show exactly the component labels
that :func:`rauzy.invariants.stratum_components` lists.  A label that
needs the class (:func:`rauzy.invariants.label_for_class`) walks a move
rule from one vertex for a permutation, and searches nothing.  For a
generalized table it asks whether the class holds a reference table: a
lookup in a class the verifier holds, and otherwise :func:`_holds`, one
search over row-exchange pairs (:func:`_pair_search`) that stops there.
The vertex search of :func:`same_class_bfs` is the tests' oracle of the
pair search.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from functools import cached_property
from itertools import permutations
from math import factorial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .combinat import (
    _MAX_SYMBOLS,
    GenPerm,
    PermKind,
    _irreducible_tables,
    _is_permutation,
    _reduced,
    all_reduced_tables,
    format_perm,
    irreducible_rows,
    is_irreducible,
)
from .errors import BudgetExceeded, ReducibleSeed, TooManySymbols
from .induction import _cycles, _successors
from .invariants import (
    ComponentLabel,
    Stratum,
    StratumKind,
    _component_label,
    _known_profile,
    _least_table,
    _stratum_of,
    label_for_class,
    stratum_components,
)


def _vertex_order(key: bytes) -> tuple[int, bytes]:
    """Sorts keys as :attr:`GenPerm.key` sorts their tables: top row length, then rows."""
    return key.index(0), key


class RauzyDiagram:
    """A class as its vertex keys; vertices and edges are made when read.

    Frozen and unhashable: ``table`` is set once, by the constructor, and
    two diagrams are equal when their tables are.  The table maps each
    vertex key to None: a dict for a permutation class, a
    :class:`_PairTable` for a class of generalized tables.
    """

    table: Mapping[bytes, None]

    def __init__(self, table: Mapping[bytes, None]) -> None:
        object.__setattr__(self, "table", table)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if type(other) is not RauzyDiagram:
            return NotImplemented
        return self.table == other.table

    __hash__ = None  # the table is a dict

    def __repr__(self) -> str:
        return f"RauzyDiagram(table={self.table!r})"

    def __len__(self) -> int:
        return len(self.table)

    def __contains__(self, p: GenPerm) -> bool:
        return p._key in self.table

    def edge_count(self) -> int:
        moves = _successors(next(iter(self.table)))
        return sum(t is not None for key in self.table for t in moves(key))

    @cached_property
    def vertices(self) -> tuple[GenPerm, ...]:
        return tuple(map(GenPerm._of, sorted(self.table, key=_vertex_order)))

    @cached_property
    def edges(self) -> dict[GenPerm, tuple[Optional[GenPerm], Optional[GenPerm]]]:
        moves = _successors(next(iter(self.table)))
        at = {v._key: v for v in self.vertices}
        return {v: tuple(map(at.get, moves(key))) for key, v in at.items()}  # None stays None


def _exchange(key: bytes) -> bytes:
    """The key of the row exchange tau(top, bottom) = reduce(bottom, top)."""
    i = key.index(0)
    return _reduced(key[i + 1 :] + b"\0" + key[:i])


def _pair_of(key: bytes) -> tuple[bytes, int]:
    """The pair key of ``key`` and its bit: 0 when ``key`` is the pair key,
    1 when it is its exchange.

    The pair ``{v, tau v}`` of a table ``v`` is keyed by the member with
    the shorter top row, or by the lesser key when the rows have equal length.
    Only a top row at least as long as the bottom one needs
    :func:`rauzy.combinat._reduced`.
    """
    i = key.index(0)
    if i < len(key) // 2:
        return key, 0
    other = _exchange(key)
    if i > len(key) // 2 or other < key:
        return other, 1
    return key, 0


class _PairTable(Mapping):
    """A class of generalized tables as its row-exchange pairs, read-only.

    ``pairs`` maps each pair key (:func:`_pair_of`) to the bit of the
    vertex the search reached there.  A ``closed`` class is tau-closed and
    holds both members of every pair: ``2 pairs - fixed`` vertices, where
    ``fixed`` counts the tables equal to their exchange.  Any other class
    holds the one member of each pair that the bit names.  The length
    needs no decoding, and a lookup reduces the probe to its pair key;
    iteration yields ``seed`` first, then decodes the members of each pair.
    """

    __slots__ = ("seed", "pairs", "closed", "fixed")

    def __init__(self, seed: bytes, pairs: dict[bytes, int], closed: bool, fixed: int) -> None:
        self.seed, self.pairs, self.closed, self.fixed = seed, pairs, closed, fixed

    def __len__(self) -> int:
        return 2 * len(self.pairs) - self.fixed if self.closed else len(self.pairs)

    def __contains__(self, key: bytes) -> bool:
        pair, bit = _pair_of(key)
        held = self.pairs.get(pair)
        return held is not None and (self.closed or held == bit)

    def __getitem__(self, key: bytes) -> None:
        if key not in self:
            raise KeyError(key)

    def __iter__(self) -> Iterator[bytes]:
        seed = self.seed
        yield seed
        for key, bit in self.pairs.items():
            if self.closed or not bit:
                if key != seed:
                    yield key
            if self.closed or bit:
                other = _exchange(key)
                if other != key and other != seed:
                    yield other

    def __repr__(self) -> str:
        return repr(dict(self))


def _pair_search(
    seed: bytes, budget: int, target: Optional[bytes] = None
) -> _PairTable:
    """The class of the key ``seed``, by one search over its pairs.

    The exchange of a permutation is a permutation, so the search serves
    tables of both kinds; a whole permutation class is closed by move-0
    cycles instead (:func:`_bfs_rows`).  Raw move 1 is move 0 conjugated
    by tau (:mod:`rauzy.induction`), so the moves of ``tau v`` are the
    exchanges of those of ``v``, with 0 and 1 swapped: they reach the same
    two pairs with the bit flipped.  Only the pair key's two moves are
    made, breadth first.  A class is certified tau-closed when it holds a
    table equal to its exchange, or when one pair is reached with both
    bits: tau maps the class of ``v`` onto that of ``tau v``.  With a
    ``target``, the search stops as soon as the pairs found hold it: its
    pair with its bit, or its pair in a certified class.  The partial
    table then reads as a class does, and holds ``target``; a table that
    does not hold it is the whole class.  One budget unit is one table
    reached: the budget counts ``pairs`` while the class is not certified
    tau-closed, since a pair then stands for the one table the search
    reached, and ``2 pairs - fixed`` once it is, the tables of the
    partial table either way; the pair that holds ``target`` is never over
    it.
    """
    moves = _successors(seed)
    d = len(seed) // 2
    key, bit = _pair_of(seed)
    goal, goal_bit = (None, 0) if target is None else _pair_of(target)
    fixed = int(key[d] == 0 and _exchange(key) == key)
    closed = fixed > 0
    pairs = {key: bit}
    if key == goal and (closed or bit == goal_bit):
        return _PairTable(seed, pairs, closed, fixed)
    if budget < 1:
        raise BudgetExceeded(f"class exceeds the {budget}-vertex budget")
    queue = deque([key])
    while queue:
        key = queue.popleft()
        bit = pairs[key]
        for moved in moves(key):
            if moved is None:
                continue
            # the rule of _pair_of; a held key is a pair key
            i = moved.index(0)
            flip = bit
            if i > d or i == d and moved not in pairs:
                other = _reduced(moved[i + 1 :] + b"\0" + moved[:i])
                if i > d or other < moved:
                    moved, flip = other, bit ^ 1
                elif other == moved:  # a new pair of one table
                    closed = True
                    fixed += 1
            held = pairs.get(moved)
            if held is None:
                pairs[moved] = flip
                queue.append(moved)
            elif held != flip:
                closed = True
            else:
                continue
            if goal is not None and (
                pairs.get(goal) == goal_bit or closed and goal in pairs
            ):
                return _PairTable(seed, pairs, closed, fixed)
            if (2 * len(pairs) - fixed if closed else len(pairs)) > budget:
                raise BudgetExceeded(f"class exceeds the {budget}-vertex budget")
    return _PairTable(seed, pairs, closed, fixed)


def _bfs_rows(
    seed: bytes, budget: int, stop: Optional[Callable[[bytes], object]] = None
) -> Mapping[bytes, None]:
    """Vertex keys of the class of the key ``seed``, the seed first.

    With ``stop``, the search goes breadth first and ends at the first
    vertex, the seed included, whose key it returns a true value for; the
    partial table then holds it as its last key.  A search that returns a
    table with no such key has built the class.  A class of more than
    ``budget`` vertices raises :class:`BudgetExceeded`.

    A whole class of generalized tables is one search over row-exchange
    pairs, :func:`_pair_search`, returned as its :class:`_PairTable`.  A
    whole permutation class closes by move-0 cycles, with the kernel of
    :func:`rauzy.induction._cycles`: a pending key not yet held brings in
    its whole cycle, which no held key shares, as the cycles partition the
    class, and leaves pending the move-1 images of the cycle not yet held.
    The budget is checked once per cycle.
    """
    if stop is None:
        close = _cycles(seed)
        if close is None:
            return _pair_search(seed, budget)
        seen: dict[bytes, None] = {}
        pending = deque([seed])  # first in, first out: fewer wait than in a stack
        push = pending.append
        while pending:
            key = pending.popleft()
            if key not in seen:
                close(key, seen, push)
                if len(seen) > budget:
                    raise BudgetExceeded(f"class exceeds the {budget}-vertex budget")
        return seen
    moves = _successors(seed)
    seen = {seed: None}
    if stop(seed):
        return seen
    queue = deque([seed])
    while queue:
        for nxt in moves(queue.popleft()):
            if nxt is not None and nxt not in seen:
                seen[nxt] = None
                if stop(nxt):
                    return seen
                if len(seen) > budget:
                    raise BudgetExceeded(f"class exceeds the {budget}-vertex budget")
                queue.append(nxt)
    return seen


def _holds(seed: bytes, target: bytes, budget: int) -> bool:
    """Whether the class of ``seed`` holds ``target``, by a search that stops there.

    The class of a table of either kind is searched over its row-exchange
    pairs (:func:`_pair_search`).  A class of more than ``budget`` tables
    that does not hold ``target`` raises :class:`BudgetExceeded`.
    """
    return target in _pair_search(seed, budget, target)


def rauzy_class(seed: GenPerm, budget: int = 10**7) -> RauzyDiagram:
    """Closure of ``seed`` under both moves, by :func:`_bfs_rows`.

    The diagram's table is a dict for a permutation class, and for a class
    of generalized tables the :class:`_PairTable` of its row-exchange
    pairs, whose length and lookups need no decoding.

    >>> from .combinat import parse
    >>> len(rauzy_class(parse("1 2 3 4 / 4 3 2 1")))
    7
    """
    if not is_irreducible(seed):
        raise ReducibleSeed(f"{seed} admits no suspension")
    return RauzyDiagram(_bfs_rows(seed._key, budget))


def same_class_bfs(p1: GenPerm, p2: GenPerm, budget: int = 10**7) -> bool:
    """Membership test by explicit closure, with early exit."""
    for p in (p1, p2):
        if not is_irreducible(p):
            raise ReducibleSeed(f"{p} admits no suspension")
    if p1.d != p2.d:
        return False
    target = p2._key
    return target in _bfs_rows(p1._key, budget, stop=target.__eq__)


def same_class_fast(p1: GenPerm, p2: GenPerm, budget: int = 10**7) -> bool:
    """Membership test via invariants only (no closure of the pair).

    Two irreducible tables lie in the same class exactly when they share
    the stratum, the component label and the marked order.  A label that
    spin parity does not decide comes from one search that asks whether
    the class holds a reference table of the stratum and marked order (see
    :func:`rauzy.invariants._component_label`), so no class of either
    table is built outside genus 2.  In an exceptional stratum the least
    table that splits it is found by one scan, shared by both searches.
    """
    for p in (p1, p2):
        if not is_irreducible(p):
            raise ReducibleSeed(f"{p} admits no suspension")
    if p1.d != p2.d:
        return False
    profiles = [_known_profile(p._key) for p in (p1, p2)]
    if profiles[0].marked != profiles[1].marked:
        return False
    st = _stratum_of(p1, profiles[0])
    if st != _stratum_of(p2, profiles[1]):
        return False
    if ComponentLabel.EXCEPTIONAL_A in stratum_components(st):
        ref = _least_table(st, profiles[0].marked, budget)
        return _holds(p1._key, ref, budget) == _holds(p2._key, ref, budget)
    return _component_label(p1, st, budget) == _component_label(p2, st, budget)


def enumerate_irreducible(d: int, kind: PermKind) -> Iterator[GenPerm]:
    """All irreducible reduced tables with ``d`` symbols of one kind.

    Deterministic order: interval-exchange tables by bottom row, general
    tables by shape and pairing structure.  This is the brute-force route,
    every table filtered by :func:`irreducible_rows`, and the oracle of the
    tests and scripts; the verifier counts generalized tables through the
    pruned search :func:`rauzy.combinat._irreducible_tables` instead.
    """
    if d < 2:
        raise ValueError("enumeration starts at two symbols")
    if kind is PermKind.IET:
        top = bytes(range(1, d + 1))
        for bottom in map(bytes, permutations(top)):
            if irreducible_rows(top, bottom):
                yield GenPerm._of(top + b"\0" + bottom)
    else:
        for key in all_reduced_tables(d):
            top, _, bottom = key.partition(b"\0")
            if not _is_permutation(top, bottom) and irreducible_rows(top, bottom):
                yield GenPerm._of(key)


def _seeds(candidates: Iterable[bytes]) -> Iterator[bytes]:
    """The seed keys the candidate keys of shape ``l <= m`` give, each once.

    A candidate is a seed when its bottom row ends with 1.  A candidate with
    ``l < m`` stands for its row exchange too, which is a seed when the
    candidate's top row ends with its bottom row's first letter; the
    candidate is then yielded for it, as it is the pair key
    (:func:`_pair_of`) that :func:`_seeded_classes` holds for the exchange.
    As ``l <= m``, ``l < m`` exactly when the middle byte is no separator.
    """
    for key in candidates:
        if key[-1] == 1:
            yield key
        elif key[len(key) // 2]:
            i = key.index(0)
            if key[i - 1] == key[i + 1]:
                yield key


def _seeded_classes(seeds: Iterable[bytes], budget: int) -> Iterator[RauzyDiagram]:
    """The classes of the ``seeds`` keys, each built once.

    Each class is its vertex keys, its edges made from the move kernel
    when read.  A seed is held as its pair key (:func:`_pair_of`), a
    permutation as its own key, each computed once, before the first
    class; more than ``budget`` held keys raise :class:`BudgetExceeded`.
    A held key starts a class unless a class built before holds it: the
    held keys a class holds are the intersection of the keys of its table,
    or of the pair keys of its :class:`_PairTable`, with the held ones,
    one lookup per key of the smaller side.  A pair key stands for its
    seed, whose class it shares when that class is certified tau-closed;
    otherwise the class of the other member is never built, and the
    verifier's count fails.  Only the keys that start a class are wrapped,
    and a class is dropped before the next is built.
    """
    held: dict[bytes, bool] = {}  # whether a class built holds the pair
    for key in seeds:
        d = len(key) // 2
        # a reduced permutation has top row 1 ... d
        held[key if key[d] == 0 and key[d - 1] == d else _pair_of(key)[0]] = False
        if len(held) > budget:
            raise BudgetExceeded(f"the seeds exceed the {budget}-key budget")
    for key, built in held.items():
        if built:
            continue
        diagram = rauzy_class(GenPerm._of(key), budget)
        table = diagram.table
        keys = table.pairs if isinstance(table, _PairTable) else table
        for pair in keys.keys() & held.keys():
            held[pair] = True
        del table, keys
        yield diagram
        del diagram  # the next class is built without this one


def class_partition(
    perms: Iterable[GenPerm], budget: int = 10**7
) -> Iterator[RauzyDiagram]:
    """Classes of a set of irreducible tables, each yielded when first met."""
    return _seeded_classes((p._key for p in perms), budget)


class StratumGroup(NamedTuple):
    """Observed classes for one (stratum, component label) pair."""

    stratum: Stratum
    label: ComponentLabel
    r: int
    class_count: int
    marked_orders: tuple[int, ...]
    class_sizes: tuple[int, ...]
    ok: bool

    def to_dict(self) -> dict:
        return {
            "stratum": self.stratum.text,
            "component": self.label.value,
            "r": self.r,
            "classes": self.class_count,
            "marked_orders": list(self.marked_orders),
            "class_sizes": list(self.class_sizes),
            "ok": self.ok,
        }


class TheoremReport(NamedTuple):
    """Per-stratum class counts, the strata whose labels fail, the pass flag.

    ``coverage`` is ``(found, expected)`` when the classes of a census
    cover a number of tables other than its count of irreducible tables.
    """

    d: int
    kind: PermKind
    groups: tuple[StratumGroup, ...]
    mismatched_strata: tuple[Stratum, ...]
    coverage: Optional[tuple[int, int]] = None

    @property
    def components_ok(self) -> bool:
        return not self.mismatched_strata

    @property
    def passed(self) -> bool:
        return (
            self.components_ok
            and self.coverage is None
            and all(g.ok for g in self.groups)
        )

    def to_dict(self) -> dict:
        out = {
            "d": self.d,
            "kind": self.kind.value,
            "groups": [g.to_dict() for g in self.groups],
            "components_ok": self.components_ok,
            "passed": self.passed,
        }
        if self.mismatched_strata:
            out["component_mismatches"] = [
                {
                    "stratum": st.text,
                    "observed": [g.label.value for g in self.groups if g.stratum == st],
                    "expected": [label.value for label in stratum_components(st)],
                }
                for st in self.mismatched_strata
            ]
        if self.coverage is not None:
            found, expected = self.coverage
            out["coverage"] = {"found": found, "expected": expected}
        return out

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2)


def _indecomposable_count(d: int) -> int:
    """Irreducible permutations of ``d`` symbols: OEIS A003319.

    From the recurrence a(n) = n! - sum of k! a(n - k) over 0 < k < n
    (Comtet, *Advanced Combinatorics*, 1974).

    >>> [_indecomposable_count(d) for d in range(1, 11)]
    [1, 1, 3, 13, 71, 461, 3447, 29093, 273343, 2829325]
    """
    counts = [0]
    for n in range(1, d + 1):
        counts.append(
            factorial(n) - sum(factorial(k) * counts[n - k] for k in range(1, n))
        )
    return counts[d]


def verify_main_theorem(
    d: int,
    kind: PermKind,
    budget: int = 10**7,
    only_stratum: Optional[Stratum] = None,
) -> TheoremReport:
    """Exhaustively check the class-count structure at one size.

    Classes are built by :func:`_seeded_classes` from the seeds the module
    docstring names, and their sizes must sum to the number of irreducible
    tables: A003319 for permutations, a count taken in the same pass for
    generalized tables.  That count runs through the pruned search
    :func:`rauzy.combinat._irreducible_tables`, not through the brute-force
    oracle :func:`enumerate_irreducible`.  The generalized seed rule is
    checked through eight symbols but not proven; the count turns a missed
    class into a failed report instead of a silent pass.  So does a
    generalized class that :func:`_pair_search` cannot certify tau-closed:
    it counts one table per pair, and its exchange class is never built.
    The census reads the length, a lookup and the first key of each
    class's table, so it decodes no pair.  Classes are kept
    as (marked order, size) by (stratum, component label).  A group passes
    when its classes are in bijection with the distinct singularity orders
    via the marked order; the stratum passes when its labels are the
    components the classification lists.  ``only_stratum`` is held against the
    classification even when none of its tables is found; the generalized
    count is then that of its tables, taken the same way since the exchange
    keeps the stratum, and no count applies to permutations.
    """
    if d < 2:
        raise ValueError("enumeration starts at two symbols")
    if d > _MAX_SYMBOLS:
        raise TooManySymbols(f"{d} symbols: a vertex key holds at most {_MAX_SYMBOLS}")
    total = 0  # tables the candidates stand for, the generalized count

    def counted(candidates: Iterable[bytes]) -> Iterator[bytes]:
        nonlocal total
        for key in candidates:
            # itself, and its exchange if l < m: as l <= m, key[d] is then no separator
            total += 1 + (key[d] != 0)
            yield key

    if kind is PermKind.IET:
        top = tuple(range(1, d + 1))
        candidates: Iterable[bytes] = (
            bytes((*top, 0, d, *middle, 1)) for middle in permutations(top[1:-1])
        )
    else:
        candidates = _irreducible_tables(d)
    if only_stratum is not None:
        orders = only_stratum.orders

        def in_stratum(key: bytes) -> bool:
            # every candidate is irreducible, so the walk needs no check
            return _known_profile(key).orders == orders

        if (only_stratum.kind is StratumKind.ABELIAN) == (kind is PermKind.IET):
            candidates = filter(in_stratum, candidates)
        else:
            candidates = ()  # a stratum of the other kind holds no candidate

    by_stratum: dict[Stratum, dict[ComponentLabel, list[tuple[int, int]]]] = (
        {} if only_stratum is None else {only_stratum: {}}
    )
    found = 0
    for diagram in _seeded_classes(_seeds(counted(candidates)), budget):
        # every seed is irreducible, so one walk gives stratum and marked order
        key = next(iter(diagram.table))
        profile = _known_profile(key)
        st = _stratum_of(GenPerm._of(key), profile)
        label = label_for_class(diagram.table, st, budget)
        by_stratum.setdefault(st, {}).setdefault(label, []).append(
            (profile.marked, len(diagram))
        )
        found += len(diagram)
        del diagram  # the next class is built without this one
    if kind is PermKind.QUADRATIC:
        count = total
    else:
        count = None if only_stratum is not None else _indecomposable_count(d)
    coverage = None if count in (None, found) else (found, count)

    groups = []
    mismatched = []
    for st in sorted(by_stratum, key=lambda s: s.text):
        labelled = by_stratum[st]
        if set(labelled) != set(stratum_components(st)):
            mismatched.append(st)
        distinct = tuple(sorted(set(st.orders)))
        for label in sorted(labelled, key=lambda lab: lab.value):
            summaries = labelled[label]
            marked = tuple(sorted(m for m, _ in summaries))
            groups.append(
                StratumGroup(
                    stratum=st,
                    label=label,
                    r=st.r,
                    class_count=len(summaries),
                    marked_orders=marked,
                    class_sizes=tuple(sorted(n for _, n in summaries)),
                    ok=marked == distinct,
                )
            )
    return TheoremReport(d, kind, tuple(groups), tuple(mismatched), coverage)


# ---------------------------------------------------------------------------
# Exports


def export_dot(diag: RauzyDiagram) -> str:
    """DOT rendering with edges labelled by their move."""
    names = {v: format_perm(v) for v in diag.vertices}
    lines = ["digraph rauzy {"]
    lines.extend(f'    "{name}";' for name in names.values())
    for v, name in names.items():
        for move, t in enumerate(diag.edges[v]):
            if t is not None:
                lines.append(f'    "{name}" -> "{names[t]}" [label="{move}"];')
    lines.append("}")
    return "\n".join(lines)


def diagram_json(diag: RauzyDiagram) -> str:
    import json

    names = {v: format_perm(v) for v in diag.vertices}
    payload = {
        "vertices": list(names.values()),
        "edges": {
            names[v]: {"0": names.get(t0), "1": names.get(t1)}  # None stays None
            for v, (t0, t1) in diag.edges.items()
        },
    }
    return json.dumps(payload, indent=2)
