import json
import tracemalloc
from collections import deque
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings

from conftest import irreducible_genperms, key_of, reduced_rows, rows_of

from rauzy import (
    PermKind,
    enumerate_irreducible,
    export_dot,
    format_perm,
    parse,
    rauzy_class,
    same_class_bfs,
    same_class_fast,
    verify_main_theorem,
)
from rauzy.classes import (
    RauzyDiagram,
    _bfs_rows,
    _holds,
    _pair_search,
    _PairTable,
    _seeded_classes,
    _seeds,
    class_partition,
    diagram_json,
)
from rauzy.errors import BudgetExceeded, ReducibleSeed
from rauzy.combinat import GenPerm, _irreducible_tables
from rauzy.induction import _cycle_closure, r0, r1

FIGURE_PERM_BOTTOMS = {
    (4, 3, 2, 1),
    (4, 1, 3, 2),
    (4, 2, 1, 3),
    (2, 4, 3, 1),
    (3, 2, 4, 1),
    (3, 1, 4, 2),
    (2, 4, 1, 3),
}

FIGURE_GENERALIZED = {
    "1 1 2 / 2 3 3",
    "1 2 2 / 3 3 1",
    "1 1 / 2 2 3 3",
    "1 1 2 2 / 3 3",
}


class TestRauzyClass:
    def test_seven_vertex_class(self):
        diag = rauzy_class(parse("1 2 3 4 / 4 3 2 1"))
        assert {v.bottom for v in diag.vertices} == FIGURE_PERM_BOTTOMS
        assert diag.edge_count() == 14

    def test_four_vertex_generalized_class(self):
        diag = rauzy_class(parse("1 1 2 / 2 3 3"))
        assert {format_perm(v) for v in diag.vertices} == FIGURE_GENERALIZED

    def test_generalized_edges(self):
        diag = rauzy_class(parse("1 1 2 / 2 3 3"))
        perms = {format_perm(v): v for v in diag.vertices}
        a = perms["1 1 2 / 2 3 3"]
        b = perms["1 2 2 / 3 3 1"]
        c = perms["1 1 / 2 2 3 3"]
        dd = perms["1 1 2 2 / 3 3"]
        assert diag.edges[a] == (a, c)
        assert diag.edges[b] == (dd, b)
        assert diag.edges[c] == (b, None)
        assert diag.edges[dd] == (None, a)

    def test_torus_single_vertex(self):
        diag = rauzy_class(parse("1 2 / 2 1"))
        assert len(diag) == 1
        assert diag.edge_count() == 2

    def test_reducible_seed(self):
        with pytest.raises(ReducibleSeed):
            rauzy_class(parse("1 2 3 / 1 2 3"))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            rauzy_class(parse("1 2 3 4 / 4 3 2 1"), budget=3)

    def test_seed_keys_count_against_the_budget(self):
        # the seeds are held before the first class; the eleventh of the 24
        # standard permutations of six symbols is one past a budget of 10
        pulled = 0

        def seeds():
            nonlocal pulled
            top = tuple(range(1, 7))
            for middle in permutations(top[1:-1]):
                pulled += 1
                assert pulled <= 11, "seeds pulled past the budget"
                yield key_of(top, (6, *middle, 1))

        with pytest.raises(BudgetExceeded, match="seeds"):
            next(_seeded_classes(seeds(), 10))
        assert pulled == 11

    def test_deterministic(self):
        a = rauzy_class(parse("1 1 2 / 2 3 3"))
        b = rauzy_class(parse("1 1 2 / 2 3 3"))
        assert a.vertices == b.vertices

    @given(irreducible_genperms(max_d=5))
    @settings(max_examples=40, deadline=None)
    def test_closed_under_moves(self, p):
        diag = rauzy_class(p)
        for v in diag.vertices:
            for mv in (r0, r1):
                q = mv(v)
                if q is not None:
                    assert q in diag

    @given(irreducible_genperms(max_d=5))
    @settings(max_examples=40, deadline=None)
    def test_out_degree(self, p):
        diag = rauzy_class(p)
        iet = p.kind is PermKind.IET
        for v in diag.vertices:
            degree = sum(t is not None for t in diag.edges[v])
            assert degree == 2 if iet else degree <= 2

    @pytest.mark.parametrize(
        "kind, max_d", [(PermKind.IET, 7), (PermKind.QUADRATIC, 5)]
    )
    def test_derived_edges_match_moves(self, kind, max_d):
        # r0 and r1 move through the generalized kernel, not the
        # permutation kernel of the class search
        for d in range(2, max_d + 1):
            for diag in class_partition(enumerate_irreducible(d, kind)):
                targets = [t for v in diag.vertices for t in (r0(v), r1(v))]
                assert diag.edge_count() == sum(t is not None for t in targets)
                for v in diag.vertices:
                    assert diag.edges[v] == (r0(v), r1(v))

    def test_edges_are_the_decoded_vertices(self):
        # vertices come sorted by GenPerm.key
        diag = rauzy_class(parse("1 1 / 2 2 3 4 3 4 5 6 5 6"))
        assert list(diag.vertices) == sorted(diag.vertices, key=lambda v: v.key)
        ids = {id(v) for v in diag.vertices}
        assert list(diag.edges) == list(diag.vertices)
        for targets in diag.edges.values():
            assert all(t is None or id(t) in ids for t in targets)

    def test_class_memory(self):
        p = parse("1 2 3 4 5 6 7 8 9 / 2 3 4 5 7 6 9 1 8")
        tracemalloc.start()
        try:
            diag = rauzy_class(p)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(diag) == 11_256
        assert held < 1.75 * 2**20

    def test_bfs_rows_order(self):
        seed = GenPerm((1, 2, 3, 4, 5), (5, 3, 2, 4, 1))._key
        table = rauzy_class(GenPerm._of(seed)).table
        assert next(iter(table)) == seed
        assert set(table.values()) == {None}
        assert _bfs_rows(seed, 10**7, stop=seed.__eq__) == {seed: None}
        ends_in_2 = lambda key: key[-1] == 2
        partial = _bfs_rows(seed, 10**7, stop=ends_in_2)
        *before, last = partial
        assert before[0] == seed and ends_in_2(last)
        assert not any(map(ends_in_2, before))
        assert set(partial.values()) == {None}

    def test_cycle_closure_matches_the_breadth_first_class(self):
        # Every permutation class through eight symbols, from the standard
        # permutations: the whole-class search closes by move-0 cycles,
        # moving by slices, a search with a stop that never fires goes
        # breadth first by the one rule of each move, and both give the
        # same keys, the seed first.
        never = lambda key: False
        sizes = []
        for d in range(2, 9):
            top = tuple(range(1, d + 1))
            held: set[bytes] = set()
            for middle in permutations(top[1:-1]):
                seed = key_of(top, (d, *middle, 1))
                if seed in held:
                    continue
                table = rauzy_class(GenPerm._of(seed)).table
                assert next(iter(table)) == seed
                assert table.keys() == _bfs_rows(seed, 10**7, stop=never).keys()
                held.update(table)
                sizes.append(len(table))
        assert len(sizes) == 1 + 1 + 2 + 4 + 7 + 13 + 21
        assert sum(sizes) == 1 + 3 + 13 + 71 + 461 + 3_447 + 29_093

    def test_pair_search_matches_the_breadth_first_class(self):
        # Every generalized class through six symbols, from the verifier's
        # seeds: the whole-class search over row-exchange pairs and a search
        # with a stop that never fires give the same keys, the seed first,
        # and every class is certified closed under the exchange.
        never = lambda key: False
        totals = {}
        for d in range(3, 7):
            held: set[bytes] = set()
            last = None  # the seed of the class before
            pairs = fixed = 0
            for seed in _seeds(_irreducible_tables(d)):
                if seed in held:
                    continue
                table = rauzy_class(GenPerm._of(seed)).table
                assert isinstance(table, _PairTable) and table.closed
                keys = list(table)
                oracle = _bfs_rows(seed, 10**7, stop=never)
                assert keys[0] == seed
                assert len(keys) == len(table) == len(oracle)
                assert set(keys) == oracle.keys()
                assert all(map(table.__contains__, oracle))
                assert last is None or last not in table
                assert held.isdisjoint(keys)
                held.update(keys)
                last = seed
                pairs += len(table.pairs)
                fixed += table.fixed
            totals[d] = pairs, fixed
        assert totals == {3: (2, 0), 4: (44, 2), 5: (789, 6), 6: (14_347, 52)}

    def test_pair_search_matches_the_cycle_closure_on_permutations(self):
        # Every permutation class through seven symbols, from the standard
        # permutations: the search over row-exchange pairs holds the keys
        # of the cycle closure, the seed first, and certifies the class
        # closed under the exchange.  _holds, one pair search that stops at
        # its target, agrees with the vertex search on sampled pairs of
        # tables within a class and across two.
        rng = Random(53)
        sizes = []
        within = across = 0
        for d in range(2, 8):
            top = tuple(range(1, d + 1))
            held: set[bytes] = set()
            classes = []
            for middle in permutations(top[1:-1]):
                seed = key_of(top, (d, *middle, 1))
                if seed in held:
                    continue
                table = rauzy_class(GenPerm._of(seed)).table
                pairs = _pair_search(seed, 10**7)
                assert pairs.closed and next(iter(pairs)) == seed
                assert len(pairs) == len(table) and set(pairs) == table.keys()
                held.update(table)
                classes.append(list(table))
                sizes.append(len(table))
            for _ in range(20):
                first, second = rng.choice(classes), rng.choice(classes)
                a, b = rng.choice(first), rng.choice(second)
                same = same_class_bfs(GenPerm._of(a), GenPerm._of(b))
                assert same == (first is second) == _holds(a, b, 10**7), (a, b)
                within += same
                across += not same
        assert len(sizes) == 1 + 1 + 2 + 4 + 7 + 13
        assert sum(sizes) == 1 + 3 + 13 + 71 + 461 + 3_447
        assert (within, across) == (59, 61)

    def test_pair_table_reads_as_its_vertex_keys(self):
        # the pairs of the four-vertex class, decoded: equal to the dict of
        # its keys, and a table of the other shape reduces to the same pair
        table = rauzy_class(parse("1 1 2 / 2 3 3")).table
        keys = {parse(text)._key: None for text in FIGURE_GENERALIZED}
        assert len(table.pairs) == 2 and table.fixed == 0
        assert table == keys and dict(table) == keys
        assert parse("1 1 2 2 / 3 3")._key in table
        assert parse("1 2 2 / 3 1 3")._key not in table

    @pytest.mark.parametrize(
        "text, size",
        [("1 2 3 4 / 4 3 2 1", 7), ("1 1 2 / 2 3 3", 4), ("1 2 2 / 3 3 4 4 1", 7)],
    )
    def test_budget_edges_on_both_paths(self, text, size):
        # a class of exactly the budget passes and one vertex more raises,
        # whether the search closes cycles (permutations only), goes over
        # row-exchange pairs (tables of both kinds) or goes breadth first
        # and stops nowhere, and so does the class built; the class of
        # 1 2 2 / 3 3 4 4 1 is 4 pairs, one of them 1 1 2 2 / 3 3 4 4 alone
        p = parse(text)
        never = lambda key: False
        searches = [_pair_search, lambda seed, budget: _bfs_rows(seed, budget, never)]
        if p.kind is PermKind.IET:
            searches.append(_cycle_closure)
        for search in searches:
            assert len(search(p._key, size)) == size
            with pytest.raises(BudgetExceeded):
                search(p._key, size - 1)
        assert len(rauzy_class(p, size)) == size
        with pytest.raises(BudgetExceeded):
            rauzy_class(p, size - 1)


class TestSameClass:
    def test_figure_members(self):
        p1 = parse("1 2 3 4 / 4 3 2 1")
        p2 = parse("1 2 3 4 / 2 4 1 3")
        assert same_class_bfs(p1, p2)
        assert same_class_fast(p1, p2)

    def test_different_sizes(self):
        assert not same_class_bfs(parse("1 2 3 4 / 4 3 2 1"), parse("1 2 / 2 1"))
        assert not same_class_fast(parse("1 2 3 4 / 4 3 2 1"), parse("1 2 / 2 1"))

    def test_different_kinds(self):
        # moves keep the kind, so a permutation and a generalized table of
        # one size are in different classes, told apart with no search
        p, q = parse("1 2 3 4 5 / 5 4 3 2 1"), parse("1 1 / 2 2 3 3 4 4 5 5")
        assert p.d == q.d and p.kind is not q.kind
        assert not same_class_bfs(p, q, budget=1)
        assert not same_class_bfs(q, p, budget=1)
        assert not same_class_fast(p, q, budget=1)

    def test_generalized_members(self):
        assert same_class_bfs(parse("1 1 2 / 2 3 3"), parse("1 1 2 2 / 3 3"))
        assert same_class_fast(parse("1 1 2 / 2 3 3"), parse("1 1 2 2 / 3 3"))

    def test_reflexive(self):
        p = parse("1 2 3 2 4 / 4 5 1 3 5")
        assert same_class_bfs(p, p) and same_class_fast(p, p)

    def test_same_stratum_different_mark(self):
        # both in the genus-2 stratum with one marked point at five letters
        p1 = parse("1 2 3 4 5 / 2 4 3 5 1")  # marked degree 0
        p2 = parse("1 2 3 4 5 / 2 3 5 1 4")  # marked degree 2
        from rauzy import marked_order, stratum

        assert stratum(p1).text == stratum(p2).text == "H(2,0)"
        assert marked_order(p1) == 0 and marked_order(p2) == 2
        assert not same_class_bfs(p1, p2)
        assert not same_class_fast(p1, p2)

    def test_reducible_rejected(self):
        with pytest.raises(ReducibleSeed):
            same_class_bfs(parse("1 2 / 1 2"), parse("1 2 / 2 1"))

    def test_exceptional_pair_scans_for_the_least_table_once(self, monkeypatch):
        # Q(-1,9), marked order -1: the two classes exceptional-a and -b
        import rauzy.classes
        import rauzy.invariants

        scans = []
        least_table = rauzy.invariants._least_table

        def counted(*args, **kwargs):
            scans.append(args)
            return least_table(*args, **kwargs)

        for module in (rauzy.classes, rauzy.invariants):
            monkeypatch.setattr(module, "_least_table", counted, raising=False)
        p1 = parse("1 2 1 / 3 2 4 3 5 4 6 7 6 7 5")
        p2 = parse("1 2 1 / 3 2 4 5 6 3 7 4 5 6 7")
        assert same_class_fast(p1, p2) is same_class_bfs(p1, p2) is False
        assert len(scans) == 1
        neighbour = r0(p2) or r1(p2)
        assert same_class_fast(p2, neighbour) is same_class_bfs(p2, neighbour) is True
        assert len(scans) == 2


class TestEnumerate:
    def test_smallest(self):
        assert [format_perm(p) for p in enumerate_irreducible(2, PermKind.IET)] == [
            "1 2 / 2 1"
        ]
        assert list(enumerate_irreducible(2, PermKind.QUADRATIC)) == []

    def test_counts(self):
        assert len(list(enumerate_irreducible(4, PermKind.IET))) == 13
        assert len(list(enumerate_irreducible(3, PermKind.QUADRATIC))) == 4

    def test_partition_covers_everything(self):
        perms = list(enumerate_irreducible(4, PermKind.IET))
        diagrams = class_partition(perms)
        union = [v for diag in diagrams for v in diag.vertices]
        assert sorted(union, key=lambda p: p.key) == sorted(
            perms, key=lambda p: p.key
        )
        assert len(set(union)) == len(union)


def _drop_stratum(monkeypatch, text):
    """Make the verifier build, but not report, the classes of one stratum."""
    import rauzy.classes
    from rauzy import stratum

    original = rauzy.classes._seeded_classes

    def dropping(*args):
        for diagram in original(*args):
            seed = GenPerm._of(next(iter(diagram.table)))
            if stratum(seed).text != text:
                yield diagram

    monkeypatch.setattr(rauzy.classes, "_seeded_classes", dropping)


def _assert_count_fails(report, found, expected):
    assert report.components_ok and all(g.ok for g in report.groups)
    assert report.coverage == (found, expected)
    assert not report.passed
    payload = json.loads(report.to_json())
    assert payload["passed"] is False
    assert payload["coverage"] == {"found": found, "expected": expected}


class TestVerify:
    def test_small_iet(self):
        report = verify_main_theorem(4, PermKind.IET)
        assert report.passed
        by_stratum = {g.stratum.text: g for g in report.groups}
        assert by_stratum["H(2)"].class_count == 1
        assert by_stratum["H(2)"].class_sizes == (7,)

    def test_small_quadratic(self):
        report = verify_main_theorem(3, PermKind.QUADRATIC)
        assert report.passed
        assert [g.stratum.text for g in report.groups] == ["Q(-1,-1,-1,-1)"]
        assert report.groups[0].class_sizes == (4,)

    def test_json_schema(self):
        report = verify_main_theorem(3, PermKind.IET)
        payload = json.loads(report.to_json())
        assert payload["passed"] is True
        assert "component_mismatches" not in payload
        assert "coverage" not in payload
        assert set(payload["groups"][0]) == {
            "stratum",
            "component",
            "r",
            "classes",
            "marked_orders",
            "class_sizes",
            "ok",
        }

    def test_single_stratum_restriction(self):
        from rauzy import parse_stratum

        report = verify_main_theorem(
            5, PermKind.IET, only_stratum=parse_stratum("H(2,0)")
        )
        assert report.passed
        assert [g.stratum.text for g in report.groups] == ["H(2,0)"]
        assert report.groups[0].marked_orders == (0, 2)

    def test_missing_stratum_fails(self):
        from rauzy import parse_stratum

        # H(2,0) needs five symbols, so a four-symbol run finds no class of
        # it; a nonempty stratum with no class must not pass
        report = verify_main_theorem(
            4, PermKind.IET, only_stratum=parse_stratum("H(2,0)")
        )
        assert report.groups == ()
        assert not report.passed

    @pytest.mark.parametrize(
        "kind, d",
        [pytest.param(PermKind.IET, d, id=str(d)) for d in range(2, 9)]
        + [
            pytest.param(PermKind.QUADRATIC, d, id=f"quadratic-{d}")
            for d in range(3, 7)
        ],
    )
    def test_seeded_census_matches_the_partition(self, monkeypatch, kind, d):
        # the oracle classes partition every irreducible table; the report
        # built from their summaries must be the seeded one
        import rauzy.classes

        seeded = verify_main_theorem(d, kind).to_json()
        oracle = list(class_partition(enumerate_irreducible(d, kind)))

        def partition(seeds, budget):
            deque(seeds, maxlen=0)  # the generalized count still runs
            return iter(oracle)

        monkeypatch.setattr(rauzy.classes, "_seeded_classes", partition)
        assert verify_main_theorem(d, kind).to_json() == seeded

    @pytest.mark.parametrize("d", range(3, 7))
    def test_row_exchange_gives_the_other_shapes(self, d):
        # tau(top, bottom) = reduce(bottom, top) on every irreducible table,
        # from the brute-force oracle: the second route to the verifier's
        # count and seeds, which rest on tau from the shapes l <= m
        from rauzy import reduce
        from rauzy.classes import _seeds
        from rauzy.combinat import _irreducible_tables
        from rauzy.invariants import _known_profile

        oracle = {(p.top, p.bottom) for p in enumerate_irreducible(d, PermKind.QUADRATIC)}
        for top, bottom in oracle:
            image = reduced_rows(bottom, top)
            q = reduce(bottom, top)
            assert image == (q.top, q.bottom)
            assert reduced_rows(image[1], image[0]) == (top, bottom)
            assert q.shape == (len(bottom), len(top))
            assert image in oracle  # irreducible
            here = GenPerm(top, bottom)._key
            assert _known_profile(q._key) == _known_profile(here)  # orders, marked
        # a seed of shape l > m is given by its exchange, of shape l < m
        seeds = list(map(rows_of, _seeds(_irreducible_tables(d))))
        assert len(set(seeds)) == len(seeds)
        assert set(seeds) == {
            rows if len(rows[0]) <= len(rows[1]) else reduced_rows(rows[1], rows[0])
            for rows in oracle
            if rows[1][-1] == 1
        }
        report = verify_main_theorem(d, PermKind.QUADRATIC)
        assert report.coverage is None
        assert sum(sum(g.class_sizes) for g in report.groups) == len(oracle)

    def test_missing_class_fails_the_count(self, monkeypatch):
        # the only class of H(0,0,0,0,0) at six symbols is dropped; no
        # group or component check can see that, only the count
        _drop_stratum(monkeypatch, "H(0,0,0,0,0)")
        _assert_count_fails(verify_main_theorem(6, PermKind.IET), 461 - 15, 461)

    def test_missing_generalized_class_fails_the_count(self, monkeypatch):
        # Q(2,2) has one class of 73 tables at five symbols
        _drop_stratum(monkeypatch, "Q(2,2)")
        report = verify_main_theorem(5, PermKind.QUADRATIC)
        _assert_count_fails(report, 1572 - 73, 1572)

    def test_uncertified_class_fails_the_count(self, monkeypatch):
        # with certification off, each class holds one member of each of
        # its pairs and no exchange class is built: the count fails
        import rauzy.classes

        class Uncertified(_PairTable):
            __slots__ = ()

            def __init__(self, seed, pairs, closed, fixed):
                super().__init__(seed, pairs, False, fixed)

        monkeypatch.setattr(rauzy.classes, "_PairTable", Uncertified)
        report = verify_main_theorem(5, PermKind.QUADRATIC)
        assert report.coverage == (789, 1572)
        assert not report.passed
        assert json.loads(report.to_json())["passed"] is False

    def test_single_stratum_count(self, monkeypatch):
        # a generalized stratum run counts the tables of that stratum
        from rauzy import parse_stratum

        st = parse_stratum("Q(-1,-1,-1,-1)")
        report = verify_main_theorem(3, PermKind.QUADRATIC, only_stratum=st)
        assert report.passed and "coverage" not in report.to_dict()

        _drop_stratum(monkeypatch, st.text)
        report = verify_main_theorem(3, PermKind.QUADRATIC, only_stratum=st)
        assert report.coverage == (0, 4) and not report.passed
        assert report.to_dict()["coverage"] == {"found": 0, "expected": 4}

    def test_single_stratum_builds_only_its_classes(self, monkeypatch):
        import rauzy.classes
        from rauzy import parse_stratum

        built = []
        original = rauzy.classes.rauzy_class

        def recording(seed, budget):
            built.append(seed)
            return original(seed, budget)

        monkeypatch.setattr(rauzy.classes, "rauzy_class", recording)
        report = verify_main_theorem(
            6, PermKind.IET, only_stratum=parse_stratum("H(4)")
        )
        assert report.passed and "coverage" not in report.to_dict()
        assert len(built) == sum(g.class_count for g in report.groups) == 2

    @pytest.mark.parametrize(
        "kind, d",
        [pytest.param(PermKind.IET, d, id=str(d)) for d in range(2, 7)]
        + [
            pytest.param(PermKind.QUADRATIC, d, id=f"quadratic-{d}")
            for d in range(3, 6)
        ],
    )
    def test_single_stratum_groups_match_the_census(self, kind, d):
        full = verify_main_theorem(d, kind)
        strata = dict.fromkeys(g.stratum for g in full.groups)
        assert strata
        for st in strata:
            report = verify_main_theorem(d, kind, only_stratum=st)
            assert report.groups == tuple(g for g in full.groups if g.stratum == st)
            assert report.passed

    def test_single_stratum_of_the_other_kind_matches_nothing(self):
        from rauzy import parse_stratum

        # the tables of 1 2 3 / 3 2 1 have the orders (0, 0) of Q(0,0)
        report = verify_main_theorem(
            3, PermKind.IET, only_stratum=parse_stratum("Q(0,0)")
        )
        assert report.groups == () and report.passed
        report = verify_main_theorem(
            5, PermKind.QUADRATIC, only_stratum=parse_stratum("H(2,0)")
        )
        assert report.groups == () and not report.passed

    def test_wrong_label_fails(self, monkeypatch):
        import rauzy.classes
        from rauzy import parse_stratum
        from rauzy.invariants import ComponentLabel

        # relabelling H(4)'s spin class leaves the count at two but must
        # not pass: the labels are held against the component table
        original = rauzy.classes.label_for_class

        def mislabel(rows, *args):
            label = original(rows, *args)
            if label is ComponentLabel.ODD_SPIN:
                return ComponentLabel.EVEN_SPIN
            return label

        monkeypatch.setattr(rauzy.classes, "label_for_class", mislabel)
        report = verify_main_theorem(6, PermKind.IET)
        assert not report.components_ok and not report.passed
        # every group still matches its marked orders; only H(4) is named
        assert all(g.ok for g in report.groups)
        assert report.mismatched_strata == (parse_stratum("H(4)"),)
        payload = json.loads(report.to_json())
        assert payload["components_ok"] is False
        assert payload["component_mismatches"] == [
            {
                "stratum": "H(4)",
                "observed": ["even-spin", "hyperelliptic"],
                "expected": ["hyperelliptic", "odd-spin"],
            }
        ]

    def test_budget_reaches_the_labels(self, monkeypatch):
        import rauzy.classes

        budgets = []
        original = rauzy.classes.label_for_class

        def recording(rows, st, budget):
            budgets.append(budget)
            return original(rows, st, budget)

        monkeypatch.setattr(rauzy.classes, "label_for_class", recording)
        report = verify_main_theorem(6, PermKind.IET, budget=134)
        assert report.passed
        assert budgets == [134] * sum(g.class_count for g in report.groups)

    def test_one_corner_walk_per_class(self, monkeypatch):
        # the seed's profile gives stratum and marked order, and the label
        # reuses the stratum: no table of the census is walked twice
        import rauzy.invariants

        walked = []
        original = rauzy.invariants._corner_walk

        def counting(top, bottom):
            walked.append((top, bottom))
            return original(top, bottom)

        monkeypatch.setattr(rauzy.invariants, "_corner_walk", counting)
        report = verify_main_theorem(7, PermKind.IET)
        assert report.passed
        assert len(walked) == sum(g.class_count for g in report.groups) == 13

    @pytest.mark.parametrize("d, kind", [(7, PermKind.IET), (5, PermKind.QUADRATIC)])
    def test_reads_no_views(self, monkeypatch, d, kind):
        # the verifier works on each class's row table and keeps summaries;
        # the GenPerm vertices and edges of a diagram are never made
        want = verify_main_theorem(d, kind).to_json()

        def refuse(self):
            raise AssertionError("the verifier read a GenPerm view")

        monkeypatch.setattr(RauzyDiagram, "vertices", property(refuse))
        monkeypatch.setattr(RauzyDiagram, "edges", property(refuse))
        assert verify_main_theorem(d, kind).to_json() == want


class TestExports:
    def test_dot_torus(self):
        dot = export_dot(rauzy_class(parse("1 2 / 2 1")))
        assert dot.count("->") == 2
        assert 'label="0"' in dot and 'label="1"' in dot

    def test_dot_seven_vertices(self):
        dot = export_dot(rauzy_class(parse("1 2 3 4 / 4 3 2 1")))
        assert dot.count("->") == 14

    def test_dot_generalized_missing_edges(self):
        dot = export_dot(rauzy_class(parse("1 1 2 / 2 3 3")))
        assert dot.count("->") == 6

    def test_exports_format_each_vertex_once(self, monkeypatch):
        # the same text as formatting every vertex at each use
        import rauzy.classes

        diag = rauzy_class(parse("1 1 / 2 2 3 4 3 4 5 6 5 6"))
        f = format_perm
        dot = ["digraph rauzy {", *(f'    "{f(v)}";' for v in diag.vertices)]
        for v in diag.vertices:
            for move, t in enumerate(diag.edges[v]):
                if t is not None:
                    dot.append(f'    "{f(v)}" -> "{f(t)}" [label="{move}"];')
        dot.append("}")
        edges = {
            f(v): {str(move): t and f(t) for move, t in enumerate(diag.edges[v])}
            for v in diag.vertices
        }
        payload = {"vertices": [f(v) for v in diag.vertices], "edges": edges}
        calls = []

        def counting(p):
            calls.append(p)
            return f(p)

        monkeypatch.setattr(rauzy.classes, "format_perm", counting)
        assert export_dot(diag) == "\n".join(dot)
        assert diagram_json(diag) == json.dumps(payload, indent=2)
        assert len(calls) == 2 * len(diag)
        assert any(None in targets for targets in diag.edges.values())

    def test_diagram_json(self):
        payload = json.loads(diagram_json(rauzy_class(parse("1 2 / 2 1"))))
        assert payload["vertices"] == ["1 2 / 2 1"]
        assert payload["edges"]["1 2 / 2 1"] == {"0": "1 2 / 2 1", "1": "1 2 / 2 1"}
