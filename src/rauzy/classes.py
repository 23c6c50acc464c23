r"""
Rauzy classes and diagrams: enumeration, membership, and the class-count
verifier.

A class is the smallest set of reduced generalized permutations containing
a seed and closed under both moves, held as its row table: each vertex's
rows map to the rows of its two move targets (``None`` records an
undefined move).  Its ``GenPerm`` vertices and edges are made when read.

The verifier builds every class of a given size and kind, one at a time,
from seed tables, and proves that none is missing by a count.  Permutation
classes grow from the standard permutations, which every class contains
(Rauzy, *Acta Arith.* 34, 1979), and their sizes must sum to the number of
irreducible permutations (OEIS A003319).  Generalized classes grow from
the irreducible tables whose bottom row ends with 1, and their sizes must
sum to the number of irreducible tables, which the same pass counts.  That
every generalized class holds such a table is checked through seven
symbols but not proven; the count turns a missed class into a failed
report instead of a silent pass.  The generalized candidates come as rows
from the pruned search :func:`rauzy.combinat._irreducible_tables`, and only
the seeds that start a class are wrapped; :func:`enumerate_irreducible`,
which filters every reduced table, is the brute-force oracle of the tests
and scripts.  The verifier keeps each class's marked
order and size by (stratum, component label) and checks the expected
structure: each group must hold exactly one class per distinct
singularity order, matched bijectively by marked order, and each stratum
must show exactly the component labels that
:func:`rauzy.invariants.stratum_components` lists.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from math import factorial
from typing import Callable, Iterable, Iterator, Optional

from .combinat import (
    GenPerm,
    PermKind,
    Rows,
    _irreducible_tables,
    all_reduced_tables,
    format_perm,
    irreducible_rows,
    is_irreducible,
)
from .errors import BudgetExceeded, ReducibleSeed
from .induction import _rows_kernel
from .invariants import (
    ComponentLabel,
    Stratum,
    _component_label,
    _known_profile,
    _stratum_of,
    label_for_class,
    marked_order,
    stratum,
    stratum_components,
)


@dataclass(frozen=True)
class RauzyDiagram:
    """A class as its row table; ``vertices`` and ``edges`` are made when read."""

    table: dict[Rows, tuple[Optional[Rows], Optional[Rows]]]

    def __len__(self) -> int:
        return len(self.table)

    def __contains__(self, p: GenPerm) -> bool:
        return (p.top, p.bottom) in self.table

    def edge_count(self) -> int:
        return sum(
            (a is not None) + (b is not None) for a, b in self.table.values()
        )

    @cached_property
    def vertices(self) -> tuple[GenPerm, ...]:
        return tuple(
            sorted((GenPerm._trusted(*r) for r in self.table), key=lambda v: v.key)
        )

    @cached_property
    def edges(self) -> dict[GenPerm, tuple[Optional[GenPerm], Optional[GenPerm]]]:
        perm = {(v.top, v.bottom): v for v in self.vertices}.get  # None stays None
        return {v: tuple(map(perm, self.table[v.top, v.bottom])) for v in self.vertices}


def _bfs_rows(
    seed: Rows, budget: int, stop: Optional[Rows] = None
) -> dict[Rows, tuple[Optional[Rows], Optional[Rows]]]:
    """Row table of the class of ``seed``, breadth first.

    With ``stop``, the search ends as soon as it meets those rows; the
    partial table then holds them.
    """
    move = _rows_kernel(seed)
    seen: dict[Rows, tuple[Optional[Rows], Optional[Rows]]] = {seed: (None, None)}
    queue = deque([seed])
    while queue:
        rows = queue.popleft()
        targets = (move(rows, 0), move(rows, 1))
        for nxt in targets:
            if nxt is not None and nxt not in seen:
                if nxt == stop:
                    seen[nxt] = (None, None)
                    return seen
                if len(seen) >= budget:
                    raise BudgetExceeded(
                        f"class exceeds the {budget}-vertex budget"
                    )
                seen[nxt] = (None, None)
                queue.append(nxt)
        seen[rows] = targets
    return seen


def rauzy_class(seed: GenPerm, budget: int = 10**7) -> RauzyDiagram:
    """Breadth-first closure of ``seed`` under both moves.

    >>> from .combinat import parse
    >>> len(rauzy_class(parse("1 2 3 4 / 4 3 2 1")))
    7
    """
    if not is_irreducible(seed):
        raise ReducibleSeed(f"{seed} admits no suspension")
    return RauzyDiagram(_bfs_rows((seed.top, seed.bottom), budget))


def same_class_bfs(p1: GenPerm, p2: GenPerm, budget: int = 10**7) -> bool:
    """Membership test by explicit closure, with early exit."""
    for p in (p1, p2):
        if not is_irreducible(p):
            raise ReducibleSeed(f"{p} admits no suspension")
    if p1.d != p2.d:
        return False
    target = (p2.top, p2.bottom)
    seed = (p1.top, p1.bottom)
    return seed == target or target in _bfs_rows(seed, budget, stop=target)


def same_class_fast(p1: GenPerm, p2: GenPerm, budget: int = 10**7) -> bool:
    """Membership test via invariants only (no closure of the pair).

    Two irreducible tables lie in the same class exactly when they share
    the stratum, the component label and the marked order.
    """
    for p in (p1, p2):
        if not is_irreducible(p):
            raise ReducibleSeed(f"{p} admits no suspension")
    if p1.d != p2.d:
        return False
    profiles = [_known_profile(p) for p in (p1, p2)]
    if profiles[0].marked != profiles[1].marked:
        return False
    st = _stratum_of(p1, profiles[0])
    if st != _stratum_of(p2, profiles[1]):
        return False
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
        top = tuple(range(1, d + 1))
        for bottom in permutations(top):
            if irreducible_rows(top, bottom):
                yield GenPerm._trusted(top, bottom)
    else:
        for top, bottom in all_reduced_tables(d):
            # Only the split l = d with a repetition-free top row is a permutation.
            is_iet = len(top) == len(bottom) == len(set(top))
            if not is_iet and irreducible_rows(top, bottom):
                yield GenPerm._trusted(top, bottom)


def _seeded_classes(
    candidates: Iterable[Rows], is_seed: Callable[[Rows], bool], budget: int
) -> Iterator[RauzyDiagram]:
    """The classes of the seeds among the ``candidates`` rows, each built once.

    A candidate is skipped when it is no seed or its class is already
    built; between classes only the seed rows of each built class are
    remembered.  Only the seeds that start a class are wrapped.
    """
    seen: set[Rows] = set()
    for rows in candidates:
        if not is_seed(rows) or rows in seen:
            continue
        diagram = rauzy_class(GenPerm._trusted(*rows), budget)
        seen.update(filter(is_seed, diagram.table))
        yield diagram


def class_partition(
    perms: Iterable[GenPerm], budget: int = 10**7
) -> Iterator[RauzyDiagram]:
    """Classes of a set of irreducible tables, each yielded when first met."""
    rows = ((p.top, p.bottom) for p in perms)
    return _seeded_classes(rows, lambda _: True, budget)


@dataclass(frozen=True)
class StratumGroup:
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


@dataclass(frozen=True)
class TheoremReport:
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
    checked through seven symbols but not proven; the count turns a missed
    class into a failed report instead of a silent pass.  Classes are kept
    as (marked order, size) by (stratum, component label).  A group passes
    when its classes are in bijection with the distinct singularity orders
    via the marked order; the stratum passes when its labels are the
    components the classification lists.  ``only_stratum`` is held against the
    classification even when none of its tables is found; the generalized
    count is then that of its tables, and no count applies to permutations.
    """
    if d < 2:
        raise ValueError("enumeration starts at two symbols")
    total = 0  # candidates met, the generalized count

    def counted(candidates: Iterable[Rows]) -> Iterator[Rows]:
        nonlocal total
        for total, rows in enumerate(candidates, 1):
            yield rows

    if kind is PermKind.IET:
        top = tuple(range(1, d + 1))
        candidates: Iterable[Rows] = (
            (top, (d, *middle, 1)) for middle in permutations(top[1:-1])
        )
        is_seed = lambda rows: rows[1][0] == d and rows[1][-1] == 1
        expected = lambda: (
            None if only_stratum is not None else _indecomposable_count(d)
        )
    else:
        candidates = _irreducible_tables(d)
        is_seed = lambda rows: rows[1][-1] == 1
        expected = lambda: total
    if only_stratum is not None:

        def in_stratum(rows: Rows) -> bool:
            # every candidate is irreducible, so the walk needs no check
            p = GenPerm._trusted(*rows)
            return _stratum_of(p, _known_profile(p)) == only_stratum

        candidates = filter(in_stratum, candidates)

    by_stratum: dict[Stratum, dict[ComponentLabel, list[tuple[int, int]]]] = (
        {} if only_stratum is None else {only_stratum: {}}
    )
    found = 0
    for diagram in _seeded_classes(counted(candidates), is_seed, budget):
        seed = GenPerm._trusted(*next(iter(diagram.table)))
        label = label_for_class(diagram.table)
        by_stratum.setdefault(stratum(seed), {}).setdefault(label, []).append(
            (marked_order(seed), len(diagram))
        )
        found += len(diagram)
    count = expected()
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
    lines = ["digraph rauzy {"]
    for v in diag.vertices:
        lines.append(f'    "{format_perm(v)}";')
    for v in diag.vertices:
        t0, t1 = diag.edges[v]
        if t0 is not None:
            lines.append(f'    "{format_perm(v)}" -> "{format_perm(t0)}" [label="0"];')
        if t1 is not None:
            lines.append(f'    "{format_perm(v)}" -> "{format_perm(t1)}" [label="1"];')
    lines.append("}")
    return "\n".join(lines)


def diagram_json(diag: RauzyDiagram) -> str:
    payload = {
        "vertices": [format_perm(v) for v in diag.vertices],
        "edges": {
            format_perm(v): {
                "0": format_perm(t0) if t0 is not None else None,
                "1": format_perm(t1) if t1 is not None else None,
            }
            for v, (t0, t1) in diag.edges.items()
        },
    }
    return json.dumps(payload, indent=2)
