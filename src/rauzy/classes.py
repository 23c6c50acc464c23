r"""
Rauzy classes and diagrams: enumeration, membership, and the class-count
verifier.

A class is the smallest set of reduced generalized permutations containing
a seed and closed under both moves; the diagram is that vertex set with
its labelled edges (an absent edge records an undefined move).  Everything
here is a deterministic function of the seed: vertices are stored keyed by
their reduced table and reported in canonical order.

The verifier enumerates every irreducible table of a given size and kind,
partitions it into classes, groups classes by (stratum, component label)
and checks the expected count: each group must hold exactly one class per
distinct singularity order, matched bijectively by marked order, and each
stratum must show exactly as many groups as its component count.
"""
from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .combinat import (
    GenPerm,
    PermKind,
    all_reduced_tables,
    format_perm,
    irreducible_rows,
    is_irreducible,
    parse,
)
from .errors import BudgetExceeded, ReducibleSeed
from .induction import _move0_raw, _move1_raw
from .invariants import (
    ComponentLabel,
    Stratum,
    component_label,
    expected_components,
    label_for_class,
    marked_order,
    stratum,
)

Rows = tuple[tuple[int, ...], tuple[int, ...]]


def _moved_rows(rows: Rows, which: int) -> Optional[Rows]:
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
    return (out[0], out[1])


@dataclass(frozen=True)
class RauzyDiagram:
    """Canonical vertex set plus labelled move edges."""

    vertices: tuple[GenPerm, ...]
    edges: dict[GenPerm, tuple[Optional[GenPerm], Optional[GenPerm]]]

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, p: GenPerm) -> bool:
        return p in self.edges

    def edge_count(self) -> int:
        return sum(
            (a is not None) + (b is not None) for a, b in self.edges.values()
        )


def _bfs_rows(seed: Rows, budget: int) -> dict[Rows, tuple[Optional[Rows], Optional[Rows]]]:
    seen: dict[Rows, tuple[Optional[Rows], Optional[Rows]]] = {}
    queue = deque([seed])
    seen[seed] = (None, None)
    while queue:
        rows = queue.popleft()
        targets = []
        for which in (0, 1):
            nxt = _moved_rows(rows, which)
            targets.append(nxt)
            if nxt is not None and nxt not in seen:
                if len(seen) >= budget:
                    raise BudgetExceeded(
                        f"class exceeds the {budget}-vertex budget"
                    )
                seen[nxt] = (None, None)
                queue.append(nxt)
        seen[rows] = (targets[0], targets[1])
    return seen


def rauzy_class(seed: GenPerm, budget: int = 10**7) -> RauzyDiagram:
    """Breadth-first closure of ``seed`` under both moves.

    >>> from .combinat import parse
    >>> len(rauzy_class(parse("1 2 3 4 / 4 3 2 1")))
    7
    """
    if not is_irreducible(seed):
        raise ReducibleSeed(f"{seed} admits no suspension")
    table = _bfs_rows((seed.top, seed.bottom), budget)
    perms = {rows: GenPerm._trusted(*rows) for rows in table}
    vertices = tuple(sorted(perms.values(), key=lambda p: p.key))
    edges = {}
    for rows, (t0, t1) in table.items():
        edges[perms[rows]] = (
            perms[t0] if t0 is not None else None,
            perms[t1] if t1 is not None else None,
        )
    return RauzyDiagram(vertices, edges)


def same_class_bfs(p1: GenPerm, p2: GenPerm, budget: int = 10**7) -> bool:
    """Membership test by explicit closure, with early exit."""
    for p in (p1, p2):
        if not is_irreducible(p):
            raise ReducibleSeed(f"{p} admits no suspension")
    if p1.d != p2.d:
        return False
    target = (p2.top, p2.bottom)
    seed = (p1.top, p1.bottom)
    if seed == target:
        return True
    seen = {seed}
    queue = deque([seed])
    while queue:
        rows = queue.popleft()
        for which in (0, 1):
            nxt = _moved_rows(rows, which)
            if nxt is None or nxt in seen:
                continue
            if nxt == target:
                return True
            if len(seen) >= budget:
                raise BudgetExceeded(f"search exceeded the {budget}-vertex budget")
            seen.add(nxt)
            queue.append(nxt)
    return False


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
    if stratum(p1) != stratum(p2):
        return False
    if marked_order(p1) != marked_order(p2):
        return False
    return component_label(p1, budget) == component_label(p2, budget)


def enumerate_irreducible(d: int, kind: PermKind) -> Iterator[GenPerm]:
    """All irreducible reduced tables with ``d`` symbols of one kind.

    Deterministic order: interval-exchange tables by bottom row, general
    tables by shape and pairing structure.
    """
    if d < 2:
        raise ValueError("enumeration starts at two symbols")
    if kind is PermKind.IET:
        from itertools import permutations

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


def class_partition(
    perms: Iterable[GenPerm], budget: int = 10**7
) -> list[RauzyDiagram]:
    """Partition a set of irreducible tables into their classes."""
    diagrams: list[RauzyDiagram] = []
    seen: set[GenPerm] = set()
    for p in perms:
        if p in seen:
            continue
        diagram = rauzy_class(p, budget)
        diagrams.append(diagram)
        seen.update(diagram.vertices)
    return diagrams


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
    """Per-stratum class counts and the overall pass flag."""

    d: int
    kind: PermKind
    groups: tuple[StratumGroup, ...]
    components_ok: bool

    @property
    def passed(self) -> bool:
        return self.components_ok and all(g.ok for g in self.groups)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "kind": self.kind.value,
            "groups": [g.to_dict() for g in self.groups],
            "components_ok": self.components_ok,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def verify_main_theorem(
    d: int,
    kind: PermKind,
    budget: int = 10**7,
    only_stratum: Optional[Stratum] = None,
) -> TheoremReport:
    """Exhaustively check the class-count structure at one size.

    Every irreducible table is assigned to a class; classes are grouped by
    (stratum, component label).  A group passes when its classes are in
    bijection with the distinct singularity orders via the marked order;
    the stratum passes when its group count matches the classification.
    """
    perms = list(enumerate_irreducible(d, kind))
    if only_stratum is not None:
        perms = [p for p in perms if stratum(p) == only_stratum]
    diagrams = class_partition(perms, budget)

    by_stratum: dict[Stratum, dict[ComponentLabel, list[RauzyDiagram]]] = {}
    for diagram in diagrams:
        rep = diagram.vertices[0]
        st = stratum(rep)
        label = label_for_class(diagram.vertices, budget)
        by_stratum.setdefault(st, {}).setdefault(label, []).append(diagram)

    groups = []
    components_ok = True
    for st in sorted(by_stratum, key=lambda s: (s.text)):
        labelled = by_stratum[st]
        if len(labelled) != expected_components(st):
            components_ok = False
        distinct = tuple(sorted(set(st.orders)))
        for label in sorted(labelled, key=lambda lab: lab.value):
            classes = labelled[label]
            marked = tuple(
                sorted(marked_order(diag.vertices[0]) for diag in classes)
            )
            ok = marked == distinct
            groups.append(
                StratumGroup(
                    stratum=st,
                    label=label,
                    r=st.r,
                    class_count=len(classes),
                    marked_orders=marked,
                    class_sizes=tuple(
                        sorted(len(diag) for diag in classes)
                    ),
                    ok=ok,
                )
            )
    return TheoremReport(d, kind, tuple(groups), components_ok)


_REP_CACHE: dict[Stratum, list[GenPerm]] = {}


def _stratum_reps_cached(st: Stratum, budget: int) -> list[GenPerm]:
    """Smallest vertex of every class in one stratum (cached)."""
    from .invariants import StratumKind

    if st not in _REP_CACHE:
        kind = (
            PermKind.IET
            if st.kind is StratumKind.ABELIAN
            else PermKind.QUADRATIC
        )
        members = [
            p for p in enumerate_irreducible(st.d, kind) if stratum(p) == st
        ]
        reps = [diag.vertices[0] for diag in class_partition(members, budget)]
        _REP_CACHE[st] = reps
    return _REP_CACHE[st]


def extended_class(p: GenPerm, budget: int = 10**7) -> tuple[RauzyDiagram, ...]:
    """Union of the classes sharing the stratum and component of ``p``."""
    if not is_irreducible(p):
        raise ReducibleSeed(f"{p} admits no suspension")
    st = stratum(p)
    target = component_label(p, budget)
    kind = PermKind.IET if p.kind is PermKind.IET else PermKind.QUADRATIC
    members = [q for q in enumerate_irreducible(p.d, kind) if stratum(q) == st]
    return tuple(
        diag
        for diag in class_partition(members, budget)
        if label_for_class(diag.vertices, budget) == target
    )


# ---------------------------------------------------------------------------
# Exports and cache


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
            for v, (t0, t1) in sorted(
                diag.edges.items(), key=lambda item: item[0].key
            )
        },
    }
    return json.dumps(payload, indent=2)


def canonical_key(p: GenPerm) -> int:
    """Fixed-width integer packing of the reduced table (symbols <= 16)."""
    if p.d > 16:
        raise ValueError("packing supports at most 16 symbols")
    packed = len(p.top)
    for s in p.top + p.bottom:
        packed = (packed << 5) | s
    return packed


def cache_path(cache_dir: str, seed: GenPerm) -> str:
    digest = hashlib.sha256(format_perm(seed).encode()).hexdigest()[:16]
    name = f"class-d{seed.d}-{seed.kind.value}-{digest}.txt"
    return os.path.join(cache_dir, name)


def save_class(diag: RauzyDiagram, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in diag.vertices:
            fh.write(format_perm(v) + "\n")


def load_class(path: str) -> tuple[GenPerm, ...]:
    with open(path, encoding="utf-8") as fh:
        return tuple(parse(line.strip()) for line in fh if line.strip())
