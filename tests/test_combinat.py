import copy
import pickle
from dataclasses import FrozenInstanceError
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import genperms, iet_perms, key_of, raw_tables, rows_of

from rauzy import GenPerm, PermKind, format_perm, is_irreducible, parse, reduce
from rauzy.classes import _vertex_order, enumerate_irreducible
from rauzy.combinat import _irreducible_tables, _is_permutation, all_reduced_tables
from rauzy.errors import EmptyRow, NotReduced, NotTwoToOne, RauzyError


# short rows over a few letters, most of them no two-to-one table
ROWS = st.lists(st.integers(-1, 4), max_size=5)


def _relabelled(top, bottom):
    """``reduce`` by an explicit relabel loop, its oracle."""
    relabel = {}
    rows_out = []
    for row in (tuple(top), tuple(bottom)):
        out = []
        for s in row:
            if s not in relabel:
                relabel[s] = len(relabel) + 1
            out.append(relabel[s])
        rows_out.append(tuple(out))
    return GenPerm(rows_out[0], rows_out[1])


def _outcome(build, rows):
    try:
        p = build(*rows)
    except RauzyError as exc:
        return type(exc), str(exc)
    return p.top, p.bottom


class TestParse:
    def test_worked_example(self):
        p = parse("1 2 3 2 4 / 4 5 1 3 5")
        assert p.shape == (5, 5)
        assert p.d == 5
        assert p.kind is PermKind.QUADRATIC

    def test_smallest_iet(self):
        p = parse("1 2 / 2 1")
        assert p.d == 2
        assert p.kind is PermKind.IET

    def test_rejects_non_reduced(self):
        with pytest.raises(NotReduced):
            parse("2 1 / 1 2")

    def test_rejects_bad_counts(self):
        with pytest.raises(NotTwoToOne):
            parse("1 1 / 1 2 2")
        with pytest.raises(NotTwoToOne):
            parse("1 2 / 3 4")

    def test_rejects_missing_row(self):
        with pytest.raises(EmptyRow):
            parse("1 2 2 1")
        with pytest.raises(EmptyRow):
            parse("1 2 / ")

    def test_names_a_bad_token(self):
        with pytest.raises(ValueError) as info:
            parse("1 2 / 2 x")
        assert str(info.value) == "cannot parse table '1 2 / 2 x': 'x' is not an integer"


class TestReduce:
    def test_worked_example(self):
        got = reduce((1, 3, 2, 3, 4), (2, 4, 5, 5, 1))
        assert format_perm(got) == "1 2 3 2 4 / 3 4 5 5 1"

    def test_already_reduced(self):
        assert format_perm(reduce((1, 2), (2, 1))) == "1 2 / 2 1"

    def test_doubled_rows(self):
        assert format_perm(reduce((3, 3), (1, 1, 2, 2))) == "1 1 / 2 2 3 3"

    def test_map_is_consistent(self):
        # Reading the renaming off the rows gives one symbol per symbol:
        # a bijection of 1..5 that renames the input rows onto the output.
        top, bottom = (2, 4, 5, 5, 1), (1, 3, 2, 3, 4)
        perm = reduce(top, bottom)
        relabel = dict(zip(top + bottom, perm.top + perm.bottom))
        assert sorted(relabel) == sorted(relabel.values()) == [1, 2, 3, 4, 5]
        assert tuple(relabel[s] for s in top) == perm.top
        assert tuple(relabel[s] for s in bottom) == perm.bottom

    @given(raw_tables(max_d=5))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, rows):
        once = reduce(*rows)
        assert reduce(once.top, once.bottom) == once

    @given(genperms(max_d=5))
    @settings(max_examples=100, deadline=None)
    def test_parse_format_round_trip(self, p):
        assert parse(format_perm(p)) == p

    @given(raw_tables(max_d=5) | st.tuples(ROWS, ROWS))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_relabel_loop(self, rows):
        # the relabel loop is the oracle: the same rows, or the same error
        # for rows that are no two-to-one table
        assert _outcome(reduce, rows) == _outcome(_relabelled, rows)



class TestSlots:
    # A table is one key reference: no per-instance dict, still frozen,
    # and it survives pickling and copying as an equal, equally hashed value.
    TABLES = (parse("1 2 3 / 3 2 1"), GenPerm._of(key_of((1, 1, 2), (2, 3, 3))))

    def test_no_instance_dict(self):
        assert GenPerm.__slots__ == ("_key",)
        for p in self.TABLES:
            assert not hasattr(p, "__dict__")

    def test_fields_stay_frozen(self):
        for p in self.TABLES:
            with pytest.raises(FrozenInstanceError):
                p.top = (1,)
            with pytest.raises(FrozenInstanceError):
                del p.bottom
            with pytest.raises(FrozenInstanceError):
                p._key = b"\1\0\1"

    def test_pickle_and_copy_keep_the_value(self):
        for p in self.TABLES:
            for q in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
                assert type(q) is GenPerm
                assert q == p and hash(q) == hash(p)
                assert format_perm(q) == format_perm(p)


class TestOneRepresentation:
    # a table is its vertex key: text, rows, pickling and sort order all
    # give back the same key
    @given(genperms(min_d=1, max_d=8))
    @settings(max_examples=200, deadline=None)
    def test_round_trips_keep_the_key(self, p):
        assert parse(str(p)) == p
        assert GenPerm(p.top, p.bottom)._key == p._key
        for q in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert q._key == p._key and q == p and hash(q) == hash(p)

    @given(st.lists(genperms(min_d=1, max_d=6), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_vertex_order_is_the_table_order(self, tables):
        keys = sorted((p._key for p in tables), key=_vertex_order)
        assert [GenPerm._of(key) for key in keys] == sorted(tables, key=lambda p: p.key)


class TestRowSwap:
    @given(genperms(min_d=2, max_d=5))
    @settings(max_examples=60, deadline=None)
    def test_irreducibility_invariant(self, p):
        swapped = reduce(p.bottom, p.top)
        assert is_irreducible(swapped) == is_irreducible(p)


class TestIrreducible:
    def test_torus(self):
        assert is_irreducible(parse("1 2 / 2 1"))

    def test_doubled_pair_is_reducible(self):
        assert not is_irreducible(parse("1 1 / 2 2"))

    def test_identity_iet_is_reducible(self):
        assert not is_irreducible(parse("1 2 3 / 1 2 3"))

    def test_paper_example_is_irreducible(self):
        assert is_irreducible(parse("1 2 3 2 4 / 4 5 1 3 5"))


def _prefix_irreducible(bottom):
    """Classical test for tables with top row 1..d."""
    seen = set()
    for k, b in enumerate(bottom[:-1], start=1):
        seen.add(b)
        if seen == set(range(1, k + 1)):
            return False
    return True


@pytest.mark.parametrize("d,expected", [(2, 1), (3, 3), (4, 13), (5, 71)])
def test_iet_irreducible_counts_match_classical(d, expected):
    from itertools import permutations

    top = tuple(range(1, d + 1))
    classical = feasibility = 0
    for bottom in permutations(top):
        if _prefix_irreducible(bottom):
            classical += 1
        if is_irreducible(GenPerm(top, bottom)):
            feasibility += 1
    assert classical == expected
    assert feasibility == expected


@given(iet_perms(max_d=6))
@settings(max_examples=150, deadline=None)
def test_feasibility_matches_classical_criterion(p):
    assert is_irreducible(p) == _prefix_irreducible(p.bottom)


def test_permutation_test_matches_the_two_set_test():
    # _is_permutation against the two-set test: equal row lengths and d
    # letters in each row
    for d in range(1, 7):
        permutations = 0
        for top, bottom in map(rows_of, all_reduced_tables(d)):
            two_sets = len(top) == len(bottom) and len(set(top)) == d == len(set(bottom))
            assert _is_permutation(top, bottom) == two_sets, (top, bottom)
            permutations += two_sets
        assert permutations == factorial(d)


def test_all_reduced_tables_counts():
    # (2d-1) row splits, double-factorial pairings each, no duplicates.
    for d, pairings in [(1, 1), (2, 3), (3, 15)]:
        tables = list(map(rows_of, all_reduced_tables(d)))
        assert len(tables) == (2 * d - 1) * pairings
        assert len(set(tables)) == len(tables)
        for top, bottom in tables:
            q = reduce(top, bottom)
            assert (q.top, q.bottom) == (top, bottom)


@pytest.mark.parametrize(
    "d, count", [(2, 0), (3, 4), (4, 86), (5, 1_572), (6, 28_642)]
)
def test_pruned_search_matches_the_brute_force_route(d, count):
    # the verifier's search against the filter of every reduced table: the
    # search yields the shapes l <= m, and the row exchange pairs the shapes
    # l < m with the shapes l > m, so the tables number 2 N(l<m) + N(l=m)
    rows = list(map(rows_of, _irreducible_tables(d)))
    assert len(rows) == {2: 0, 3: 3, 4: 58, 5: 987, 6: 17_201}[d]
    assert len(set(rows)) == len(rows)
    oracle = {(p.top, p.bottom) for p in enumerate_irreducible(d, PermKind.QUADRATIC)}
    assert len(oracle) == count
    assert set(rows) == {t for t in oracle if len(t[0]) <= len(t[1])}
    shorter = sum(len(top) < len(bottom) for top, bottom in rows)
    assert 2 * shorter + (len(rows) - shorter) == count
    for top, bottom in rows:
        q = reduce(top, bottom)
        assert (q.top, q.bottom) == (top, bottom)
    # GenPerm.key order, in which the least-table scan takes the first match
    keys = [GenPerm(top, bottom).key for top, bottom in rows]
    assert keys == sorted(keys)
