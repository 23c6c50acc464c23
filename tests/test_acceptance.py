"""Acceptance criteria, one test per criterion.

Each test prints a single ``criterion N: PASS`` line on success (visible
with ``pytest -s`` or in the captured output).  The expensive enumerations
are shared through module-scoped fixtures.
"""
import time
from random import Random

import pytest

from conftest import is_centrally_symmetric, rotation_links

from rauzy import (
    GenPerm,
    PermKind,
    build_polygon,
    check_suspension,
    enumerate_irreducible,
    find_suspension,
    format_perm,
    geometric_profile,
    is_irreducible,
    marked_order,
    parse,
    random_suspension,
    rauzy_class,
    r0,
    r1,
    rv_step,
    same_class_bfs,
    same_class_fast,
    singularity_profile,
    spin_parity,
    stratum,
    verify_main_theorem,
)
from rauzy.classes import class_partition
from rauzy.errors import InductionHalt
from rauzy.invariants import (
    _is_hyperelliptic_vertex,
    central_involution,
    component_label,
    label_for_class,
    stratum_components,
)


def _report(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS - {detail}")


@pytest.fixture(scope="module")
def iet_pool():
    return {d: list(enumerate_irreducible(d, PermKind.IET)) for d in range(2, 8)}


@pytest.fixture(scope="module")
def quad_pool():
    pools = {2: []}
    for d in range(3, 7):
        pools[d] = list(enumerate_irreducible(d, PermKind.QUADRATIC))
    return pools


@pytest.fixture(scope="module")
def partitions(iet_pool, quad_pool):
    """Class decompositions with labels for every size in scope."""
    out = {}
    for kind, pools, top_d in (
        (PermKind.IET, iet_pool, 7),
        (PermKind.QUADRATIC, quad_pool, 6),
    ):
        for d in range(2, top_d + 1):
            diagrams = list(class_partition(pools[d]))
            labels = [label_for_class(diag.table) for diag in diagrams]
            out[(kind, d)] = (diagrams, labels)
    return out


@pytest.fixture(scope="module")
def h6_classes():
    irr = enumerate_irreducible(8, PermKind.IET)
    members = [p for p in irr if stratum(p).text == "H(6)"]
    return list(class_partition(members))


def test_criterion_01_printed_moves_are_exact():
    p = parse("1 2 3 4 3 / 2 4 5 5 1")
    start = time.perf_counter()
    zero = r0(p)
    one = r1(p)
    elapsed = time.perf_counter() - start
    assert format_perm(zero) == "1 2 1 3 4 3 / 2 4 5 5"
    assert format_perm(one) == "1 2 3 2 4 / 3 4 5 5 1"
    assert elapsed < 0.05
    _report(1, f"both moves exact in {elapsed * 1e6:.0f}us")


def test_criterion_02_permutation_diagram_figure():
    start = time.perf_counter()
    diag = rauzy_class(parse("1 2 3 4 / 4 3 2 1"))
    elapsed = time.perf_counter() - start
    expected = {
        (4, 3, 2, 1),
        (4, 1, 3, 2),
        (4, 2, 1, 3),
        (2, 4, 3, 1),
        (3, 2, 4, 1),
        (3, 1, 4, 2),
        (2, 4, 1, 3),
    }
    assert {v.bottom for v in diag.vertices} == expected
    assert all(v.top == (1, 2, 3, 4) for v in diag.vertices)
    assert diag.edge_count() == 14
    assert elapsed < 0.5
    _report(2, f"7 vertices, 14 edges in {elapsed * 1e3:.2f}ms")


def test_criterion_03_generalized_diagram_figure():
    start = time.perf_counter()
    diag = rauzy_class(parse("1 1 2 / 2 3 3"))
    elapsed = time.perf_counter() - start
    expected = {
        "1 1 2 / 2 3 3",
        "1 2 2 / 3 3 1",
        "1 1 / 2 2 3 3",
        "1 1 2 2 / 3 3",
    }
    assert {format_perm(v) for v in diag.vertices} == expected
    assert elapsed < 0.5
    _report(3, f"4 vertices in {elapsed * 1e3:.2f}ms")


def test_criterion_04_class_counts_orientable(iet_pool):
    reports = {}
    for d in range(2, 8):
        report = verify_main_theorem(d, PermKind.IET)
        assert report.passed, report.to_json()
        assert sum(
            sum(g.class_sizes) for g in report.groups
        ) == len(iet_pool[d])
        reports[d] = report
    by_stratum = {g.stratum.text: g for g in reports[4].groups}
    assert by_stratum["H(2)"].class_count == 1
    assert by_stratum["H(2)"].class_sizes == (7,)
    total_groups = sum(len(r.groups) for r in reports.values())
    _report(4, f"sizes 2..7, {total_groups} (stratum, component) groups verified")


def test_criterion_05_three_components_of_h6(h6_classes):
    assert len(h6_classes) == 3
    sizes = sorted(len(c) for c in h6_classes)
    st = stratum(h6_classes[0].vertices[0])
    hyper = [
        c
        for c in h6_classes
        if any(_is_hyperelliptic_vertex(v, st) for v in c.vertices)
    ]
    assert len(hyper) == 1
    others = [c for c in h6_classes if c is not hyper[0]]
    parities = {spin_parity(c.vertices[0]) for c in others}
    assert parities == {0, 1}
    _report(5, f"3 classes with sizes {sizes}, exactly one hyperelliptic")


def test_criterion_06_class_counts_half_translation(quad_pool):
    reports = {}
    for d in range(2, 7):
        report = verify_main_theorem(d, PermKind.QUADRATIC)
        assert report.passed, report.to_json()
        assert sum(
            sum(g.class_sizes) for g in report.groups
        ) == len(quad_pool[d])
        reports[d] = report
    assert not reports[2].groups  # no irreducible half-translation tables
    d3 = {g.stratum.text: g for g in reports[3].groups}
    assert d3["Q(-1,-1,-1,-1)"].class_count == 1
    assert d3["Q(-1,-1,-1,-1)"].label.value == "unique"
    connected_in_range = {
        4: ["Q(-1,-1,2)"],
        5: ["Q(-1,-1,1,1)", "Q(2,2)"],
        6: ["Q(1,1,2)"],
    }
    for d, names in connected_in_range.items():
        groups = {g.stratum.text: g for g in reports[d].groups}
        for name in names:
            assert groups[name].label.value == "unique"
            assert groups[name].class_count == groups[name].r
    _report(6, "sizes 2..6 verified, connected strata all single-component")


def test_criterion_07_membership_criterion_equivalence(partitions):
    checked_pairs = 0
    for (kind, d), (diagrams, labels) in partitions.items():
        invariant_of_class = {}
        for diag, label in zip(diagrams, labels):
            rep = diag.vertices[0]
            triple = (stratum(rep), label, marked_order(rep))
            # marked order and stratum are constant across the class
            for v in diag.vertices:
                assert stratum(v) == triple[0]
                assert marked_order(v) == triple[2]
            assert triple not in invariant_of_class, (
                f"two classes share invariants {triple}"
            )
            invariant_of_class[triple] = diag
    # the partition equality above is the full statement; spot-check the
    # pair predicates themselves on real calls
    rng = Random(402)
    for kind in (PermKind.IET, PermKind.QUADRATIC):
        for d in range(2, 7):
            diagrams, _ = partitions[(kind, d)]
            verts = [v for diag in diagrams for v in diag.vertices]
            if not verts:
                continue
            for _ in range(40):
                p1, p2 = rng.choice(verts), rng.choice(verts)
                assert same_class_fast(p1, p2) == same_class_bfs(p1, p2)
                checked_pairs += 1
    _report(7, f"partition equality at sizes <= 6 plus {checked_pairs} direct pairs")


def test_criterion_08_profile_oracle_equivalence(iet_pool, quad_pool):
    checked = 0
    for pools, top_d in ((iet_pool, 6), (quad_pool, 6)):
        for d in range(2, top_d + 1):
            for p in pools[d]:
                prof = singularity_profile(p)
                geo = geometric_profile(build_polygon(p, find_suspension(p)))
                if p.kind is PermKind.IET:
                    expected = tuple(sorted(2 * (k + 1) for k in prof.orders))
                    expected_marked = 2 * (prof.marked + 1)
                else:
                    expected = tuple(sorted(k + 2 for k in prof.orders))
                    expected_marked = prof.marked + 2
                assert geo.angles_pi == expected, p
                assert geo.marked_pi == expected_marked, p
                checked += 1
    _report(8, f"{checked} combinatorial profiles match the polygon oracle")


def test_criterion_09_suspension_preserved_along_orbits(iet_pool, quad_pool):
    pool = [p for d in range(2, 6) for p in iet_pool[d]]
    pool += [p for d in range(3, 6) for p in quad_pool[d]]
    rng = Random(98127)
    total_steps = 0
    for _ in range(1000):
        p = pool[rng.randrange(len(pool))]
        z = random_suspension(p, rng)
        current = p
        for _ in range(1000):
            try:
                current, z = rv_step(current, z)
            except InductionHalt:
                break
            assert check_suspension(current, z)
            top = sum((z.re(s) for s in current.top), start=0)
            bottom = sum((z.re(s) for s in current.bottom), start=0)
            top_i = sum((z.im(s) for s in current.top), start=0)
            bottom_i = sum((z.im(s) for s in current.bottom), start=0)
            assert top == bottom and top_i == bottom_i
            total_steps += 1
    _report(9, f"1000 random orbits, {total_steps} steps, all vectors valid")


def test_criterion_10_marked_order_preserved_on_every_edge(partitions):
    edges = 0
    for (kind, d), (diagrams, _) in partitions.items():
        for diag in diagrams:
            for v in diag.vertices:
                alpha = marked_order(v)
                for target in diag.edges[v]:
                    if target is not None:
                        assert marked_order(target) == alpha
                        edges += 1
    _report(10, f"marked order constant along {edges} edges")


def test_criterion_11_irreducibility_against_classical_criterion():
    from itertools import permutations

    def classical(bottom):
        seen = set()
        for k, b in enumerate(bottom[:-1], start=1):
            seen.add(b)
            if seen == set(range(1, k + 1)):
                return False
        return True

    checked = 0
    for d in range(2, 9):
        top = tuple(range(1, d + 1))
        for bottom in permutations(top):
            assert is_irreducible(GenPerm(top, bottom)) == classical(bottom)
            checked += 1
    _report(11, f"{checked} permutations agree with the classical criterion")


def test_lazy_label_matches_class_label(partitions):
    """Two routes to a label: one table against its whole class.

    ``component_label`` enumerates the class only where the label needs
    it, and otherwise decides on the given table, by spin parity or by a
    bounded search for the reversal.  Seeding it
    with the largest vertex, not the smallest one the class route reads,
    checks that this gives the class's label.  The row-level symmetry
    oracle of ``conftest`` is held against ``central_involution``, which
    the hyperelliptic scan tests on the key.
    """
    classes = vertices = 0
    for (kind, d), (diagrams, labels) in partitions.items():
        for diag, label in zip(diagrams, labels):
            assert component_label(diag.vertices[-1]) is label, diag.vertices[-1]
            for v in diag.vertices:
                assert is_centrally_symmetric(v.top, v.bottom) == (
                    central_involution(v) == v
                ), v
            classes += 1
            vertices += len(diag)
    print(f"{classes} classes labelled from one vertex, {vertices} vertices checked")


def test_class_labels_match_component_table(partitions):
    """Each stratum shows exactly the components its table lists.

    Every stratum met through 7 symbols (permutations) and 6 symbols
    (generalized permutations) carries one label per listed component, so
    no empty stratum is realised and no listed component is missed.
    """
    labels_of: dict = {}
    for diagrams, labels in partitions.values():
        for diag, label in zip(diagrams, labels):
            labels_of.setdefault(stratum(diag.vertices[0]), set()).add(label)
    for st, labels in labels_of.items():
        assert labels == set(stratum_components(st)), st
    print(f"{len(labels_of)} strata match the component table")


def test_rotation_links_join_the_classes_of_a_label(partitions):
    """The pairing of classes across marked orders, checked by the rotation.

    ``central_involution`` turns the suspension polygon by pi: it keeps
    the surface, hence the stratum and the component, and moves the marked
    point to the right end corner.  A vertex and its image, when that is
    irreducible, must therefore have the same label, and the links must
    join all the classes of a (stratum, label) group, one per marked order.
    """
    links = groups = reducible = 0
    for (kind, d), (diagrams, labels) in partitions.items():
        pairs, skipped, root = rotation_links([diag.table for diag in diagrams])
        for i, j in pairs:
            assert labels[i] is labels[j], (kind, d, labels[i], labels[j])
        roots_of: dict = {}
        for i, diag in enumerate(diagrams):
            group = (stratum(diag.vertices[0]), labels[i])
            roots_of.setdefault(group, set()).add(root[i])
        for group, roots in roots_of.items():
            assert len(roots) == 1, (kind, d, group)
        links += len(pairs)
        groups += len(roots_of)
        reducible += skipped
    print(f"{links} links join {groups} groups; {reducible} images are reducible")
