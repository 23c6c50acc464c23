import time
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings

from conftest import (
    irreducible_genperms,
    is_centrally_symmetric,
    key_of,
    load_script,
    reduced_rows,
    rotation_links,
    rows_of,
)

from rauzy import (
    ComponentLabel,
    PermKind,
    Profile,
    Stratum,
    StratumKind,
    component_label,
    enumerate_irreducible,
    parse,
    parse_stratum,
    rauzy_class,
    same_class_bfs,
    same_class_fast,
    singularity_profile,
    spin_parity,
    stratum,
    stratum_components,
)
from rauzy.classes import (
    _bfs_rows,
    _holds,
    _pair_of,
    _pair_search,
    _seeded_classes,
    class_partition,
)
from rauzy.combinat import GenPerm, _irreducible_tables, _reduced
from rauzy.errors import (
    BudgetExceeded,
    MoveCapExceeded,
    NotAbelian,
    OddDegreePresent,
    RauzyError,
    Reducible,
)
from rauzy.induction import _standard_cap, _to_standard, r0, r1
from rauzy.invariants import (
    _forget_regular_point,
    _hyperelliptic_parity,
    _hyperelliptic_table,
    _is_hyperelliptic_vertex,
    _known_profile,
    _least_table,
    _rotation_data,
    _standard_hyperelliptic,
    central_involution,
    label_for_class,
)

HYP = ComponentLabel.HYPERELLIPTIC
EVEN = ComponentLabel.EVEN_SPIN
ODD = ComponentLabel.ODD_SPIN
NONHYP = ComponentLabel.NON_HYPERELLIPTIC
UNIQUE = ComponentLabel.UNIQUE

# Q(-1,-1,6), marked order 6: a vertex of the 4,832-vertex
# non-hyperelliptic class and one of the 347-vertex hyperelliptic class.
Q6_NONHYP = "1 1 / 2 2 3 4 3 4 5 6 5 6"
Q6_HYP = "1 1 2 3 4 / 5 4 3 2 5 6 6"


class TestStratumType:
    def test_notation(self):
        assert Stratum(StratumKind.ABELIAN, (0, 2)).text == "H(2,0)"
        assert Stratum(StratumKind.QUADRATIC, (-1, -1, -1, -1)).text == "Q(-1,-1,-1,-1)"
        assert Stratum(StratumKind.QUADRATIC, (9, -1)).text == "Q(-1,9)"

    def test_parse_round_trip(self):
        for text in ["H(2)", "H(1,1)", "H(2,0)", "Q(-1,-1,-1,-1)", "Q(-1,9)"]:
            assert parse_stratum(text).text == text

    def test_genus_and_r(self):
        st = parse_stratum("H(2,0)")
        assert st.genus == 2 and st.r == 2 and st.d == 5
        st = parse_stratum("Q(-1,5)")
        assert st.genus == 2 and st.r == 2 and st.d == 5

    def test_bad_order_names_the_stratum(self):
        with pytest.raises(ValueError) as info:
            parse_stratum("H(2,)")
        assert str(info.value) == "cannot parse stratum 'H(2,)'"

    def test_invalid_data_rejected(self):
        with pytest.raises(ValueError):
            Stratum(StratumKind.ABELIAN, (1,))
        with pytest.raises(ValueError):
            Stratum(StratumKind.QUADRATIC, (-2,))

    def test_expected_component_counts(self):
        table = {
            "H(0)": (UNIQUE,),
            "H(0,0)": (UNIQUE,),
            "H(2)": (HYP,),
            "H(1,1,0)": (HYP,),
            "H(4)": (HYP, ODD),
            "H(2,2)": (HYP, ODD),
            "H(2,1,1)": (UNIQUE,),
            "H(6)": (HYP, EVEN, ODD),
            "H(3,3)": (HYP, NONHYP),
            "H(4,2)": (EVEN, ODD),
            "H(3,1)": (UNIQUE,),
            "H(4,4)": (HYP, EVEN, ODD),
            "H(5,1)": (UNIQUE,),
            "Q(-1,-1,-1,-1)": (UNIQUE,),
            "Q(-1,-1,2)": (UNIQUE,),
            "Q(2,2)": (UNIQUE,),
            "Q(1,1,2)": (UNIQUE,),
            "Q(-1,-1,6)": (HYP, NONHYP),
            "Q(-1,-1,3,3)": (HYP, NONHYP),
            "Q(2,6)": (HYP, NONHYP),
            "Q(-1,5)": (UNIQUE,),
            "Q(8)": (UNIQUE,),
            "Q(12)": (ComponentLabel.EXCEPTIONAL_A, ComponentLabel.EXCEPTIONAL_B),
            "Q(-1,9)": (ComponentLabel.EXCEPTIONAL_A, ComponentLabel.EXCEPTIONAL_B),
            "Q(-1,3,6)": (ComponentLabel.EXCEPTIONAL_A, ComponentLabel.EXCEPTIONAL_B),
            "Q(-1,3,3,3)": (ComponentLabel.EXCEPTIONAL_A, ComponentLabel.EXCEPTIONAL_B),
            "Q(3,9)": (ComponentLabel.EXCEPTIONAL_A, ComponentLabel.EXCEPTIONAL_B),
            # empty strata (Masur-Smillie), with and without marked points
            "Q(0)": (),
            "Q(0,0)": (),
            "Q(-1,1)": (),
            "Q(-1,0,1)": (),
            "Q(4)": (),
            "Q(0,4)": (),
            "Q(1,3)": (),
        }
        for text, components in table.items():
            assert stratum_components(parse_stratum(text)) == components, text


class TestProfile:
    def test_torus(self):
        prof = singularity_profile(parse("1 2 / 2 1"))
        assert prof.orders == (0,) and prof.marked == 0

    def test_single_degree_two_zero(self):
        prof = singularity_profile(parse("1 2 3 4 / 4 3 2 1"))
        assert prof.orders == (2,) and prof.marked == 2

    def test_four_poles(self):
        prof = singularity_profile(parse("1 1 / 2 2 3 3"))
        assert prof.orders == (-1, -1, -1, -1) and prof.marked == -1

    def test_worked_example(self):
        prof = singularity_profile(parse("1 2 3 2 4 / 4 5 1 3 5"))
        assert prof.orders == (-1, 5) and prof.marked == 5

    def test_reducible_rejected(self):
        with pytest.raises(Reducible):
            singularity_profile(parse("1 2 3 / 1 2 3"))


class TestStratumOf:
    def test_examples(self):
        assert stratum(parse("1 2 3 4 / 4 3 2 1")).text == "H(2)"
        assert stratum(parse("1 1 / 2 2 3 3")).text == "Q(-1,-1,-1,-1)"
        assert stratum(parse("1 2 3 2 4 / 4 5 1 3 5")).text == "Q(-1,5)"

    def test_genus_values(self):
        assert stratum(parse("1 2 3 4 / 4 3 2 1")).genus == 2
        assert stratum(parse("1 1 / 2 2 3 3")).genus == 0

    @given(irreducible_genperms(max_d=5))
    @settings(max_examples=80, deadline=None)
    def test_dimension_identity(self, p):
        st = stratum(p)
        assert p.d == 2 * st.genus + st.num_singularities - 1


class TestMoveInvariance:
    @given(irreducible_genperms(max_d=5))
    @settings(max_examples=100, deadline=None)
    def test_profile_and_mark_preserved(self, p):
        prof = singularity_profile(p)
        for mv in (r0, r1):
            q = mv(p)
            if q is not None:
                assert singularity_profile(q) == prof


class TestSpin:
    def test_rejects_generalized(self):
        with pytest.raises(NotAbelian):
            spin_parity(parse("1 1 / 2 2 3 3"))

    def test_rejects_odd_degrees(self):
        with pytest.raises(OddDegreePresent):
            spin_parity(parse("1 2 3 4 5 / 5 4 3 2 1"))

    def test_known_values(self):
        assert spin_parity(parse("1 2 / 2 1")) == 1
        assert spin_parity(parse("1 2 3 4 / 4 3 2 1")) == 1
        assert spin_parity(parse("1 2 3 4 5 6 / 6 5 4 3 2 1")) == 0

    def test_constant_on_class(self):
        for seed in ["1 2 3 4 / 4 3 2 1", "1 2 3 4 5 6 / 3 2 5 4 6 1"]:
            diag = rauzy_class(parse(seed))
            values = {spin_parity(v) for v in diag.vertices}
            assert len(values) == 1


def _rotations_against_the_row_route(keys):
    """Check the rotations on vertex keys against :func:`conftest.reduced_rows`.

    ``central_involution`` reads a key backwards and renumbers it, and the
    row exchange renumbers ``bottom / top``; the row route renumbers the
    rows with no key.  The row-level symmetry test must agree with the
    involution.  Returns the number of keys checked.
    """
    for key in keys:
        top, bottom = rows_of(key)
        p = GenPerm._of(key)
        image = central_involution(p)
        assert image._key == key_of(*reduced_rows(bottom[::-1], top[::-1])), p
        assert is_centrally_symmetric(top, bottom) == (image == p), p
        exchange = _reduced(key_of(bottom, top))
        assert exchange == key_of(*reduced_rows(bottom, top)), p
    return len(keys)


class TestHyperelliptic:
    def test_central_involution_fixes_reversal(self):
        p = parse("1 2 3 4 / 4 3 2 1")
        assert central_involution(p) == p

    def test_central_involution_is_involutive(self):
        p = parse("1 2 3 2 4 / 4 5 1 3 5")
        assert central_involution(central_involution(p)) == p

    def test_key_rotations_match_the_row_route(self):
        # every irreducible table through d=6 (generalized, both shapes) and
        # d=7 (permutations)
        keys = [
            p._key for d in range(2, 8) for p in enumerate_irreducible(d, PermKind.IET)
        ]
        for d in range(3, 7):
            for key in _irreducible_tables(d):
                top, bottom = rows_of(key)
                keys += [key, key_of(*reduced_rows(bottom, top))]
        assert _rotations_against_the_row_route(set(keys)) == 3_996 + 30_304

    def test_rotation_pairs_match_the_partner_map(self):
        # _rotation_data reads an edge paired with its rotation image off
        # the boundary; the oracle pairs each boundary position with the
        # other occurrence of its symbol
        tables = 0
        for d in range(2, 8):
            kinds = [PermKind.IET] + [PermKind.QUADRATIC] * (3 <= d <= 6)
            for kind in kinds:
                for p in enumerate_irreducible(d, kind):
                    if not is_centrally_symmetric(p.top, p.bottom):
                        continue
                    boundary = p.bottom + p.top[::-1]
                    n, m = len(boundary), len(p.bottom)
                    partner = [
                        next(u for u in range(n) if u != t and boundary[u] == s)
                        for t, s in enumerate(boundary)
                    ]
                    paired = sum(partner[t] == (t + m) % n for t in range(n)) // 2
                    fixed, invariant, _ = _rotation_data(p)
                    assert fixed == 1 + paired + len(invariant), p
                    tables += 1
        assert tables == 528

    def test_reversal_classes(self):
        assert component_label(parse("1 2 3 4 / 4 3 2 1")) is HYP
        assert component_label(parse("1 2 3 4 5 6 / 6 5 4 3 2 1")) is HYP
        # the torus stratum is connected and has no hyperelliptic component
        assert component_label(parse("1 2 / 2 1")) is UNIQUE

    def test_odd_component_is_not(self):
        # a vertex of the 134-element class in the minimal genus-3 stratum
        assert component_label(parse("1 2 3 4 5 6 / 3 2 5 4 6 1")) is ODD


class TestComponentLabel:
    def test_examples(self):
        assert component_label(parse("1 2 / 2 1")) is ComponentLabel.UNIQUE
        assert component_label(parse("1 1 / 2 2 3 3")) is ComponentLabel.UNIQUE
        assert (
            component_label(parse("1 2 3 4 / 4 3 2 1"))
            is ComponentLabel.HYPERELLIPTIC
        )

    def test_constant_on_class(self):
        for seed in ["1 1 2 / 2 3 3", "1 2 3 4 5 6 / 3 2 5 4 6 1"]:
            diag = rauzy_class(parse(seed))
            labels = {component_label(v) for v in diag.vertices}
            assert len(labels) == 1

    def test_reducible_rejected(self):
        with pytest.raises(Reducible):
            component_label(parse("1 2 3 / 1 2 3"))

    def test_class_built_only_when_needed(self, monkeypatch):
        import rauzy.classes

        calls = []
        original = rauzy.classes.rauzy_class

        def counting(seed, budget=10**7):
            diagram = original(seed, budget)
            calls.append(len(diagram))
            return diagram

        monkeypatch.setattr(rauzy.classes, "rauzy_class", counting)
        # H(3,1) has no hyperelliptic component: the table alone decides.
        label = component_label(parse("1 2 3 4 5 6 7 / 2 4 1 5 7 3 6"))
        assert label is ComponentLabel.UNIQUE
        # H(4): spin parity decides, odd table and reversal alike.
        label = component_label(parse("1 2 3 4 5 6 / 3 2 5 4 6 1"))
        assert label is ComponentLabel.ODD_SPIN
        label = component_label(parse("1 2 3 4 5 6 / 6 5 4 3 2 1"))
        assert label is ComponentLabel.HYPERELLIPTIC
        # H(3,3) has no marked point: a search from the reversal decides.
        label = component_label(parse("1 2 3 4 5 6 7 8 9 / 2 4 1 6 5 7 9 3 8"))
        assert label is ComponentLabel.NON_HYPERELLIPTIC
        moved = r0(parse("1 2 3 4 5 6 7 8 9 / 9 8 7 6 5 4 3 2 1"))
        assert component_label(moved) is ComponentLabel.HYPERELLIPTIC
        # Q(-1,-1,6): a search against a symmetric table decides.
        assert component_label(parse(Q6_NONHYP)) is NONHYP
        assert component_label(parse(Q6_HYP)) is HYP
        assert calls == []
        # H(2) is connected and needs no class, but its class is still built:
        # the tracer self-test of benchmark/run.py counts its 7 vertices.
        component_label(parse("1 2 3 4 / 4 3 2 1"))
        assert calls == [7]

    def test_no_reference_table_raises(self, monkeypatch):
        import rauzy.invariants

        # a label that needs the hyperelliptic test has no default
        monkeypatch.setattr(rauzy.invariants, "_hyperelliptic_table", lambda *a: None)
        message = r"Q\(-1,-1,6\) .* marked order 6"
        with pytest.raises(RuntimeError, match=message):
            component_label(parse(Q6_NONHYP))
        with pytest.raises(RuntimeError, match=message):
            label_for_class(rauzy_class(parse(Q6_HYP)).table)
        # a permutation with no unmarked 0 compares its walk's end with a
        # literal and needs no symmetric table, with or without its class
        assert component_label(parse("1 2 3 4 5 6 7 8 9 / 2 4 1 6 5 7 9 3 8")) is NONHYP
        keys = rauzy_class(parse("1 2 3 4 5 6 7 8 / 8 7 6 5 4 3 2 1")).table
        assert label_for_class(keys) is HYP


def _smallest_vertex(table):
    return min(map(GenPerm._of, table), key=lambda p: p.key)


def _scan_label(table):
    """A class's label by scanning all of it for a hyperelliptic vertex.

    The route labels took before spin parity and the reversal decided
    them; it knows neither rule.
    """
    rep = _smallest_vertex(table)
    st = stratum(rep)
    components = stratum_components(st)
    if len(components) == 1:
        return components[0]
    if any(
        is_centrally_symmetric(*rows_of(key))
        and _is_hyperelliptic_vertex(GenPerm._of(key), st)
        for key in table
    ):
        return HYP
    if ODD in components:
        return ODD if spin_parity(rep) else EVEN
    return NONHYP


def _standard_classes(d):
    """Every permutation class with ``d`` symbols, seeded by standard tables."""
    top = tuple(range(1, d + 1))
    seeds = (key_of(top, (d, *middle, 1)) for middle in permutations(top[1:-1]))
    return _seeded_classes(seeds, 10**7)


class TestHyperellipticFamilies:
    """Labels in the orientable strata with a hyperelliptic component.

    Spin parity, the forget rule and the walk of the move rule to a
    standard permutation decide them from one table; a scan of the whole
    class for a hyperelliptic vertex is the second route.
    """

    def test_table_route_matches_the_class_scan(self, monkeypatch):
        import rauzy.classes

        def forbidden(*args, **kwargs):
            raise AssertionError("a class was built for a label")

        classes = pairless = lone = 0
        symmetric = {}
        for d in range(2, 10):
            for diagram in _standard_classes(d):
                table = diagram.table
                rep = GenPerm._of(next(iter(table)))
                st, marked = stratum(rep), singularity_profile(rep).marked
                if HYP not in stratum_components(st):
                    continue
                expected = _scan_label(table)
                # any vertex decides: the class from its largest vertex down
                for rows in (table, sorted(table, reverse=True)):
                    assert label_for_class(rows) is expected, rep
                classes += 1
                # from genus 4 spin leaves some labels open, and with no
                # unmarked order-0 point to forget the symmetric-table rule
                # decides them; every class of such a stratum and marked
                # order is kept, to see which holds the symmetric table
                if st.genus > 3 and st.orders.count(0) <= (marked == 0):
                    symmetric.setdefault((st, marked), []).append(table)
                with monkeypatch.context() as patch:
                    if st.genus > 2:  # genus 2 still builds its class
                        patch.setattr(rauzy.classes, "rauzy_class", forbidden)
                    largest = GenPerm._of(max(table))
                    assert component_label(largest) is expected, largest
                    # the marked point is the class's only order-0 point
                    lone += st.genus > 2 and st.orders.count(0) == 1 and marked == 0
                    if 0 not in st.orders:
                        continue
                    # a vertex with no regular point to forget walks to one
                    key = next(
                        (k for k in table if _forget_regular_point(k) is None), None
                    )
                    if key is not None:
                        label = component_label(GenPerm._of(key))
                        assert label is expected, key
                        pairless += 1
        assert classes == 55
        assert pairless == 24
        assert lone == 7
        assert sorted(
            (st.text, marked, len(tables)) for (st, marked), tables in symmetric.items()
        ) == [("H(3,3)", 3, 2), ("H(6)", 6, 3), ("H(6,0)", 0, 3)]
        for (st, marked), tables in symmetric.items():
            p = GenPerm(*rows_of(_hyperelliptic_table(st, marked)))
            assert stratum(p) == st, p
            assert singularity_profile(p).marked == marked, p
            assert central_involution(p) == p, p
            assert _is_hyperelliptic_vertex(p, st), p
            # the symmetric table lies in the hyperelliptic class alone
            holding = [table for table in tables if p._key in table]
            assert [_scan_label(table) for table in holding] == [HYP], p

    # Non-hyperelliptic tables of each spin parity; the reversal of 11 and
    # of 12 symbols is hyperelliptic with odd parity.
    LARGE = [
        ("H(4,4)", "1 2 3 4 5 6 7 8 9 10 11 / 11 5 2 4 3 6 10 7 9 8 1", ODD),
        ("H(4,4)", "1 2 3 4 5 6 7 8 9 10 11 / 11 3 7 5 10 4 9 8 6 2 1", EVEN),
        ("H(10)", "1 2 3 4 5 6 7 8 9 10 11 12 / 12 3 7 4 9 5 11 8 6 10 2 1", ODD),
        ("H(10)", "1 2 3 4 5 6 7 8 9 10 11 12 / 12 8 11 10 4 9 3 6 2 5 7 1", EVEN),
        ("H(4,4)", "1 2 3 4 5 6 7 8 9 10 11 / 11 10 9 8 7 6 5 4 3 2 1", HYP),
        ("H(10)", "1 2 3 4 5 6 7 8 9 10 11 12 / 12 11 10 9 8 7 6 5 4 3 2 1", HYP),
    ]

    @pytest.mark.parametrize("name, text, label", LARGE)
    def test_large_strata_label_in_under_a_second(
        self, monkeypatch, name, text, label
    ):
        import rauzy.classes

        p = parse(text)
        top = tuple(range(1, p.d + 1))
        hyperelliptic = rauzy_class(GenPerm(top, top[::-1])).table
        assert len(hyperelliptic) == 2 ** (p.d - 1) - 1
        assert stratum(p).text == name
        assert (p._key in hyperelliptic) == (label is HYP)
        assert label is HYP or (label is ODD) == spin_parity(p)

        def forbidden(*args, **kwargs):
            raise AssertionError("the class was enumerated")

        monkeypatch.setattr(rauzy.classes, "rauzy_class", forbidden)
        start = time.perf_counter()
        assert component_label(p) is label
        assert time.perf_counter() - start < 1.0

    def test_budget_bounds_the_reversal_search(self):
        # The class of this H(3,3) table has 15,568 vertices; the search
        # from the nine-symbol reversal, the oracle of the
        # standard-permutation rule, closes its class of 2^8 - 1 = 255
        # vertices without meeting the table.  The label walks the rule and
        # searches nothing, and the reversal is the first symmetric table
        # tried, so a budget of 1 does for it.
        p = parse("1 2 3 4 5 6 7 8 9 / 2 4 1 6 5 7 9 3 8")
        top = tuple(range(1, 10))
        reversal = key_of(top, top[::-1])
        assert not _holds(reversal, p._key, 255)
        with pytest.raises(BudgetExceeded):
            _holds(reversal, p._key, 254)
        assert component_label(p, budget=1) is NONHYP


class TestStandardRule:
    """The move rule to a standard permutation, ``induction._to_standard``.

    A permutation with no unmarked 0 is hyperelliptic exactly when the
    rule from it ends where the rule from the symmetric table ends; the
    search from the symmetric table (:func:`_holds`) is the second route.
    """

    # the one standard permutation of each hyperelliptic class with no
    # unmarked 0 through ten symbols: the reversal, or with a marked 0,
    # d, d-2, ..., 2, d-1, 1
    STANDARD = {
        ("H(2)", 2): "4 3 2 1",
        ("H(1,1)", 1): "5 4 3 2 1",
        ("H(2,0)", 0): "5 3 2 4 1",
        ("H(1,1,0)", 0): "6 4 3 2 5 1",
        ("H(4)", 4): "6 5 4 3 2 1",
        ("H(2,2)", 2): "7 6 5 4 3 2 1",
        ("H(4,0)", 0): "7 5 4 3 2 6 1",
        ("H(2,2,0)", 0): "8 6 5 4 3 2 7 1",
        ("H(6)", 6): "8 7 6 5 4 3 2 1",
        ("H(3,3)", 3): "9 8 7 6 5 4 3 2 1",
        ("H(6,0)", 0): "9 7 6 5 4 3 2 8 1",
        ("H(3,3,0)", 0): "10 8 7 6 5 4 3 2 9 1",
        ("H(8)", 8): "10 9 8 7 6 5 4 3 2 1",
    }

    def test_rule_matches_the_search_through_eight_symbols(self):
        # every irreducible permutation, class by class: each walk ends at a
        # standard permutation of its class, and on every table of a
        # hyperelliptic family with no unmarked 0 the verdict is the search's
        worst = {}
        decided = {}
        for d in range(3, 9):
            for diagram in _standard_classes(d):
                table = diagram.table
                ends = set()
                for key in table:
                    end, moves = _to_standard(key)
                    worst[d] = max(worst.get(d, 0), moves)
                    ends.add(end)
                assert all(end[d + 1] == d and end[-1] == 1 for end in ends)
                assert all(end in table for end in ends)
                rep = GenPerm._of(next(iter(table)))
                st, marked = stratum(rep), singularity_profile(rep).marked
                if HYP not in stratum_components(st) or st.orders.count(0) > (
                    marked == 0
                ):
                    continue
                ref = _hyperelliptic_table(st, marked)
                ref_end = _to_standard(ref)[0]
                # the literal the label compares with is that walk's end
                assert _standard_hyperelliptic(d, marked) == ref_end, rep
                if _holds(ref, rep._key, 10**7):
                    assert ends == {ref_end}, rep
                else:
                    assert ref_end not in ends, rep
                decided[d] = decided.get(d, 0) + len(table)
        # the cap is met at every size
        assert worst == {d: _standard_cap(d) for d in range(3, 9)}
        assert decided == {4: 7, 5: 26, 6: 185, 7: 570, 8: 8_104}

    def test_one_standard_permutation_per_hyperelliptic_class(self):
        found = {}
        for g in range(2, 6):
            for orders, marked in [
                ((2 * g - 2,), 2 * g - 2),
                ((g - 1, g - 1), g - 1),
                ((2 * g - 2, 0), 0),
                ((g - 1, g - 1, 0), 0),
            ]:
                st = Stratum(StratumKind.ABELIAN, orders)
                d = st.d
                if d > 10:
                    continue
                ref = _hyperelliptic_table(st, marked)
                held = rauzy_class(GenPerm._of(ref)).table
                standard = [key for key in held if key[d + 1] == d and key[-1] == 1]
                assert standard == [_to_standard(ref)[0]], st
                assert standard == [_standard_hyperelliptic(d, marked)], st
                found[st.text, marked] = " ".join(map(str, standard[0][d + 1 :]))
        assert found == self.STANDARD

    def test_cap_raises_the_typed_error(self, monkeypatch):
        import rauzy.induction

        key = key_of((1, 2, 3, 4), (2, 4, 1, 3))
        assert _to_standard(key) == (key_of((1, 2, 3, 4), (4, 3, 2, 1)), 3)
        monkeypatch.setattr(rauzy.induction, "_standard_cap", lambda d: 2)
        with pytest.raises(MoveCapExceeded):
            _to_standard(key)
        with pytest.raises(Reducible):
            _to_standard(key_of((1, 2, 3), (2, 1, 3)))
        # a label the rule decides raises it too, as a RauzyError
        with pytest.raises(RauzyError):
            component_label(parse("1 2 3 4 5 6 7 8 9 / 2 4 1 6 5 7 9 3 8"))


# H(6,0), marked order 6: a vertex of the even-spin class whose bottom row
# holds the pair 3 4, a vertex of the same class with no pair, and a
# vertex of the hyperelliptic class with the pair 2 3.  The even-spin class
# with marked order 0 has no vertex with a pair: its only order-0 point is
# the marked one.
H60_EVEN = "1 2 3 4 5 6 7 8 9 / 3 4 2 6 9 8 5 7 1"
H60_EVEN_PAIRLESS = "1 2 3 4 5 6 7 8 9 / 2 4 1 6 9 8 3 5 7"
H60_HYP = "1 2 3 4 5 6 7 8 9 / 2 3 5 1 7 4 9 6 8"
H60_MARKED_ZERO_EVEN = "1 2 3 4 5 6 7 8 9 / 2 4 3 8 7 6 5 9 1"


@pytest.fixture
def searches(monkeypatch):
    """Sizes of the searches that return: the vertices of a stopping vertex
    search, the pairs of a search over row-exchange pairs, whole or
    stopping; and the sizes of the classes built.  A generalized class
    built shows its pair search too; a permutation class, closed by move-0
    cycles, shows no search."""
    import rauzy.classes

    record = {"bfs": [], "pairs": [], "classes": []}
    bfs, build = rauzy.classes._bfs_rows, rauzy.classes.rauzy_class
    pair_search = rauzy.classes._pair_search

    def counting_bfs(seed, budget, stop):
        table = bfs(seed, budget, stop)
        record["bfs"].append(len(table))
        return table

    def counting_pairs(seed, budget, target=None):
        table = pair_search(seed, budget, target)
        record["pairs"].append(len(table.pairs))
        return table

    def counting_class(seed, budget=10**7):
        diagram = build(seed, budget)
        record["classes"].append(len(diagram))
        return diagram

    monkeypatch.setattr(rauzy.classes, "_bfs_rows", counting_bfs)
    monkeypatch.setattr(rauzy.classes, "_pair_search", counting_pairs)
    monkeypatch.setattr(rauzy.classes, "rauzy_class", counting_class)
    return record


def _adjacent_pair_merge(rows):
    """The merge of the first ``s, s+1`` pair along a permutation's bottom
    row, or None: the forget rule as it was written for permutations
    alone, kept as the corner walk's oracle."""
    top, bottom = rows
    for i in range(len(bottom) - 1):
        s = bottom[i]
        if bottom[i + 1] == s + 1:
            rest = bottom[: i + 1] + bottom[i + 2 :]
            return top[:-1], tuple([t - (t > s) for t in rest])
    return None


def _stratum_classes(text, d, marked):
    """The classes of the half-translation stratum ``text`` with ``d``
    symbols and a marked order in ``marked``, as vertex keys."""
    orders = parse_stratum(text).orders
    family = (
        GenPerm._of(key)
        for key in _irreducible_tables(d)
        if (profile := _known_profile(key)).orders == orders
        and profile.marked in marked
    )
    return [diag.table for diag in class_partition(family)]


class TestForgetRegularPoint:
    """Marked-point labels from a table with a regular point forgotten.

    An interior corner cycle of order 0 with two corners is a regular
    point other than the marked one: its corners lie between letters
    ``x y`` and ``y x``, and merging the two intervals forgets it.  On a
    permutation the pair is ``s, s+1``, side by side in both rows.  A class
    of either kind with such a point has the label of the merged table of
    any of its vertices with such a cycle.
    """

    def test_merge_of_the_first_pair(self):
        p = parse(H60_EVEN)
        merged = _forget_regular_point(p._key)
        assert rows_of(merged) == ((1, 2, 3, 4, 5, 6, 7, 8), (3, 2, 5, 8, 7, 4, 6, 1))
        q = GenPerm(*rows_of(merged))
        assert stratum(p).text == "H(6,0)" and stratum(q).text == "H(6)"
        assert singularity_profile(p).marked == singularity_profile(q).marked == 6
        assert spin_parity(p) == spin_parity(q) == 0
        assert _forget_regular_point(q._key) is None

    def test_merge_forgets_an_unmarked_zero(self):
        merges = lone = unmarked = 0
        for d in range(3, 9):
            for diagram in _standard_classes(d):
                rep = GenPerm._of(next(iter(diagram.table)))
                st, marked = stratum(rep), singularity_profile(rep).marked
                fewer = list(st.orders)
                if 0 in fewer:
                    fewer.remove(0)
                pairs = 0
                for key in diagram.table:
                    merged = _forget_regular_point(key)
                    if merged is None:
                        continue
                    q = GenPerm(*rows_of(merged))
                    assert stratum(q) == Stratum(st.kind, tuple(fewer)), key
                    assert singularity_profile(q).marked == marked, key
                    pairs += 1
                merges += pairs
                # a pair is an order-0 point, never the marked one, and
                # every class with such a point has a vertex with a pair
                if st.orders.count(0) > (marked == 0):
                    assert pairs, rep
                    unmarked += 1
                else:
                    assert not pairs, rep
                    lone += 0 in st.orders
        assert merges == 18_752
        assert (lone, unmarked) == (7, 28)

    def test_pair_table_builds_no_class(self, searches):
        assert component_label(parse(H60_EVEN)) is EVEN
        # the table itself merges; H(6) has no unmarked 0, so the
        # standard-permutation rule decides the merged table with no search
        assert searches == {"bfs": [], "pairs": [], "classes": []}

    def test_pairless_vertex_builds_no_class(self, searches):
        p = parse(H60_EVEN_PAIRLESS)
        assert _forget_regular_point(p._key) is None
        assert same_class_bfs(p, parse(H60_EVEN))
        searches["bfs"].clear()
        end = _to_standard(p._key)[0]
        assert rows_of(end)[1] == (9, 8, 4, 7, 3, 5, 6, 2, 1)
        assert _forget_regular_point(end) is not None
        assert component_label(p) is EVEN
        # the walk's end has a pair, then the H(6) rule: no search
        assert searches == {"bfs": [], "pairs": [], "classes": []}

    def test_one_search_tests_each_vertex_once(self, searches, monkeypatch):
        import rauzy.invariants

        p = parse(H60_EVEN_PAIRLESS)
        table = rauzy_class(p).table
        forgets = []
        forget = rauzy.invariants._forget_regular_point

        def counting(key):
            forgets.append(key)
            return forget(key)

        monkeypatch.setattr(rauzy.invariants, "_forget_regular_point", counting)
        for label in (lambda: component_label(p), lambda: label_for_class(table)):
            searches["bfs"].clear()
            forgets.clear()
            assert label() is EVEN
            # with or without the class, p and then the end of its walk
            # are tested, and the end merges; then the H(6) rule, which
            # searches nothing
            assert searches["bfs"] == []
            assert forgets == [p._key, _to_standard(p._key)[0]]

    def test_lone_zero_label_searches_the_hyperelliptic_class(self, searches):
        p = parse(H60_MARKED_ZERO_EVEN)
        assert stratum(p).text == "H(6,0)"
        assert singularity_profile(p).marked == 0
        assert component_label(p) is EVEN
        # the only order-0 point is the marked one, so the
        # standard-permutation rule decides: no search, neither of the
        # 135-vertex hyperelliptic class with marked order 0 nor of the
        # 2,679-vertex class of the table
        assert searches == {"bfs": [], "pairs": [], "classes": []}
        assert _scan_label(rauzy_class(p).table) is EVEN

    def test_lone_zero_class_forgets_no_point(self, monkeypatch):
        import rauzy.invariants

        table = rauzy_class(parse(H60_MARKED_ZERO_EVEN)).table
        assert len(table) == 2679
        forgets = []
        forget = rauzy.invariants._forget_regular_point

        def counting(key):
            forgets.append(key)
            return forget(key)

        monkeypatch.setattr(rauzy.invariants, "_forget_regular_point", counting)
        # the stratum and marked order tell that no vertex has a pair
        assert label_for_class(table) is EVEN
        assert forgets == []

    def test_same_class_fast_builds_no_class(self, searches):
        even, hyp = parse(H60_EVEN), parse(H60_HYP)
        assert singularity_profile(hyp).marked == 6
        assert component_label(hyp) is HYP
        searches["bfs"].clear()
        assert not same_class_fast(even, hyp)
        # each table merges itself, and the H(6) rule decides each merged
        # table: no search
        assert searches == {"bfs": [], "pairs": [], "classes": []}

    @pytest.mark.parametrize("kind", ["iet", "quad"])
    def test_random_merges_past_seven_symbols(self, kind):
        # 500 random irreducible tables of each size 8..12, drawn by
        # scripts/label_scaling.py: a reducible merge would make a valid
        # label raise Reducible
        random_tables = load_script("label_scaling").random_tables
        merges = 0
        for d in range(8, 13):
            for p in random_tables(kind, d, 500, 11):
                merged = _forget_regular_point(p._key)
                if merged is None:
                    continue
                q = GenPerm(*rows_of(merged))
                fewer = list(stratum(p).orders)
                fewer.remove(0)
                assert q.kind is p.kind, p
                # singularity_profile raises Reducible on a reducible merge
                assert singularity_profile(q) == Profile(
                    tuple(fewer), singularity_profile(p).marked
                ), p
                merges += 1
        assert merges > 0

    def test_corner_walk_merges_the_first_pair(self):
        # on a permutation the corner walk finds the first s, s+1 pair
        # along the bottom row
        count = 0
        for d in range(2, 9):
            for p in enumerate_irreducible(d, PermKind.IET):
                merged = _forget_regular_point(p._key)
                want = _adjacent_pair_merge((p.top, p.bottom))
                assert (None if merged is None else rows_of(merged)) == want, p
                count += 1
        assert count == 33_089

    def test_generalized_zero_builds_no_class(self, searches):
        p = parse("1 1 / 2 2 3 4 3 4 5 6 7 5 7 6")
        assert stratum(p).text == "Q(-1,-1,0,6)"
        assert singularity_profile(p).marked == 6
        assert component_label(p) is NONHYP
        # the seed holds the cycle and merges into Q6_NONHYP; the search
        # from the symmetric table of Q(-1,-1,6) closes its 347-vertex class
        # in 174 row-exchange pairs without meeting it, where the search
        # from the symmetric table of Q(-1,-1,0,6) would close a class of
        # 2,429
        assert searches == {"bfs": [1], "pairs": [174], "classes": []}

    def test_every_generalized_merge_matches_the_class_scan(self):
        # Q(-1,-1,0,6) is the only family stratum through seven symbols with
        # a 0 (an exceptional stratum with a 0 needs eight), and the 0 is
        # unmarked at marked orders -1 and 6; the merged labels are read
        # off the class scan one stratum down
        zeros = [st.text for st in _family_strata(7) if 0 in st.orders]
        assert zeros == ["Q(-1,-1,0,6)"]
        below = {}
        for table in _stratum_classes("Q(-1,-1,6)", 6, (-1, 6)):
            below.update(dict.fromkeys(table, _scan_label(table)))
        fewer = parse_stratum("Q(-1,-1,6)").orders
        classes = _stratum_classes("Q(-1,-1,0,6)", 7, (-1, 6))
        assert [len(table) for table in classes] == [33824, 2429, 7826, 420]
        merges = 0
        for table in classes:
            rep = _smallest_vertex(table)
            marked, label = singularity_profile(rep).marked, _scan_label(table)
            found = 0
            for key in table:
                merged = _forget_regular_point(key)
                if merged is None:
                    continue
                # singularity_profile raises Reducible on a reducible merge
                q = GenPerm._of(merged)
                assert singularity_profile(q) == Profile(fewer, marked), key
                assert below[merged] is label, key
                found += 1
            # every class holds a vertex with a point to forget
            assert found, rep
            merges += found
        assert merges == 38_142



def _search_label(key, memo):
    """A permutation's label by the searches that the move rule replaced.

    Spin parity as in the label; then, with an unmarked 0, a breadth-first
    search of the class for the first vertex with a regular point to
    forget, whose merged table is labelled one stratum down; otherwise a
    search from the symmetric table of ``_hyperelliptic_table`` that stops
    at ``key``.  ``memo`` maps the keys labelled so far to their labels.
    """
    if key in memo:
        return memo[key]
    p = GenPerm._of(key)
    st, marked = stratum(p), singularity_profile(p).marked
    components = stratum_components(st)
    if len(components) == 1:
        label = components[0]
    else:
        parity = spin_parity(p) if ODD in components else None
        label = NONHYP if parity is None else (ODD if parity else EVEN)
        # the hyperelliptic parity leaves the label open
        if HYP in components and parity in (None, _hyperelliptic_parity(st.genus)):
            if label not in components:  # genus 3
                label = HYP
            elif st.orders.count(0) > (marked == 0):
                table = _bfs_rows(key, 10**7, stop=_forget_regular_point)
                merged = _forget_regular_point(next(reversed(table)))
                label = _search_label(merged, memo)
            elif _holds(_hyperelliptic_table(st, marked), key, 10**7):
                label = HYP
    memo[key] = label
    return label


class TestPermutationLabelRoute:
    """Permutation labels by the move rule alone, against the searches.

    With an unmarked 0, the label forgets a point on ``p``, on the end of
    its walk to a standard permutation or on the move-0 image of that end;
    with none, it compares the walk's end with a literal.  The searches it
    replaced are the oracle.
    """

    def test_walk_matches_the_search_route_through_eight_symbols(self):
        memo = {}
        tables = labelled = 0
        for d in range(3, 9):
            for diagram in _standard_classes(d):
                table = diagram.table
                rep = GenPerm._of(next(iter(table)))
                st, marked = stratum(rep), singularity_profile(rep).marked
                if st.orders.count(0) <= (marked == 0):
                    continue
                label = label_for_class(table)
                # a stratum of one component returns before any rule, and
                # in genus 2 builds the class
                several = len(stratum_components(st)) > 1
                for key in table:
                    assert _search_label(key, memo) is label, key
                    if several:
                        assert component_label(GenPerm._of(key)) is label, key
                        labelled += 1
                tables += len(table)
        assert tables == 20_311
        assert labelled == 10_335

    def test_permutation_labels_search_nothing(self, monkeypatch):
        import rauzy.classes
        import rauzy.invariants

        random_tables = load_script("label_scaling").random_tables
        memo = {}
        tables = []  # (table, (stratum, marked order, label by the searches))

        def add(p):
            marked = singularity_profile(p).marked
            tables.append((p, (stratum(p), marked, _search_label(p._key, memo))))

        for d in range(9, 13):
            # random tables and the hyperelliptic reversal with its move-0 image
            top = tuple(range(1, d + 1))
            reversal = GenPerm(top, top[::-1])
            for p in [*random_tables("iet", d, 40, 53), reversal, r0(reversal)]:
                st = stratum(p)
                if st.genus >= 3 and len(stratum_components(st)) > 1:
                    add(p)
        add(parse(H60_HYP))
        zeros = sum(st.orders.count(0) > (marked == 0) for _, (st, marked, _) in tables)
        labels = [label for _, (_, _, label) in tables]
        assert (len(tables), zeros) == (91, 47)
        assert {label: labels.count(label) for label in labels} == {
            EVEN: 23,
            ODD: 53,
            HYP: 11,
            NONHYP: 4,
        }

        def forbidden(*args, **kwargs):
            raise AssertionError("a permutation label searched")

        for name in (
            "_bfs_rows", "_pair_search", "_holds", "rauzy_class", "_cycle_closure"
        ):
            monkeypatch.setattr(rauzy.classes, name, forbidden)
        monkeypatch.setattr(rauzy.invariants, "_hyperelliptic_table", forbidden)
        for (p, data), (q, other) in zip(tables, tables[1:] + tables[:1]):
            label = data[2]
            assert component_label(p) is label, p
            near = [p._key] + [m._key for m in (r0(p), r1(p)) if m is not None]
            assert label_for_class(near) is label, p
            assert same_class_fast(p, r0(p) or r1(p)), p
            assert same_class_fast(p, q) == (data == other), (p, q)

    def test_no_point_to_forget_raises_the_typed_error(self, capsys, monkeypatch):
        import rauzy.invariants
        from rauzy.cli import main

        p = parse(H60_EVEN)
        monkeypatch.setattr(rauzy.invariants, "_forget_regular_point", lambda key: None)
        with pytest.raises(MoveCapExceeded):
            component_label(p)
        assert main(["invariants", H60_EVEN]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "forget" in err

def _family_strata(max_d):
    """Half-translation strata with a hyperelliptic and a non-hyperelliptic
    component, through ``max_d`` intervals."""
    found = []
    for d in range(2, max_d + 1):
        for n in range(1, d + 2):
            if (d - n + 1) % 2:
                continue
            total = 2 * (d - n + 1) - 4  # 4 (genus - 1)
            for orders in combinations_with_replacement(range(-1, total + n), n):
                if sum(orders) != total:
                    continue
                st = Stratum(StratumKind.QUADRATIC, orders)
                if stratum_components(st) == (HYP, NONHYP):
                    found.append(st)
    return found


class TestHalfTranslationFamilies:
    """Family labels from a search against one symmetric table.

    A table of a half-translation family is hyperelliptic exactly when a
    search from a hyperelliptic table of its stratum and marked order meets
    it; the class scan is the second route.
    """

    def test_symmetric_table_of_every_family_stratum(self):
        strata = _family_strata(7)
        assert sorted(st.text for st in strata) == [
            "Q(-1,-1,0,6)",
            "Q(-1,-1,3,3)",
            "Q(-1,-1,6)",
            "Q(2,6)",
        ]
        pairs = 0
        for st in strata:
            for alpha in sorted(set(st.orders)):
                p = GenPerm(*rows_of(_hyperelliptic_table(st, alpha)))
                assert stratum(p) == st, p
                assert singularity_profile(p).marked == alpha, p
                assert central_involution(p) == p
                assert _is_hyperelliptic_vertex(p, st), p
                pairs += 1
        assert pairs == 9

    def test_every_vertex_matches_the_class_scan(self, monkeypatch):
        import rauzy.classes

        st = parse_stratum("Q(-1,-1,6)")
        classes = _stratum_classes(st.text, 6, (-1, 6))
        assert sorted(map(len, classes)) == [60, 347, 1118, 4832]

        def forbidden(*args, **kwargs):
            raise AssertionError("a class was built or searched for")

        monkeypatch.setattr(rauzy.classes, "rauzy_class", forbidden)
        labels = []
        for table in classes:
            labels.append(_scan_label(table))
            for key in table:
                assert component_label(GenPerm._of(key)) is labels[-1], key
        assert sorted(label.value for label in labels) == [
            "hyperelliptic",
            "hyperelliptic",
            "non-hyperelliptic",
            "non-hyperelliptic",
        ]
        # the verifier, which holds the class, looks the symmetric table up
        # in it and searches nothing
        monkeypatch.setattr(rauzy.classes, "_bfs_rows", forbidden)
        monkeypatch.setattr(rauzy.classes, "_pair_search", forbidden)
        assert [label_for_class(table, st) for table in classes] == labels

    def test_pair_search_matches_the_vertex_search(self):
        # Tables of Q(-1,-1,6), the only family stratum of generalized tables
        # through six symbols, each searched for from the symmetric table of
        # its marked order, as a label searches: the stopping search over
        # row-exchange pairs gives the answer of the vertex search with a
        # budget of the symmetric table's class size, and with one less both
        # raise on a table that class does not hold.  Every table of three
        # classes is searched, and every 32nd of the 4,832-vertex class,
        # each of whose tables closes the 347-vertex class.
        st = parse_stratum("Q(-1,-1,6)")
        refs = {m: _hyperelliptic_table(st, m) for m in (-1, 6)}
        sizes = {m: len(rauzy_class(GenPerm._of(ref))) for m, ref in refs.items()}
        assert sizes == {-1: 60, 6: 347}
        searched = held = 0
        for table in _stratum_classes(st.text, 6, (-1, 6)):
            keys = list(table)
            for key in keys[::32] if len(keys) == 4832 else keys:
                marked = _known_profile(key).marked
                ref, size = refs[marked], sizes[marked]
                found = key in _pair_search(ref, size, key)
                assert found == (key in _bfs_rows(ref, size, stop=key.__eq__)), key
                if not found:
                    with pytest.raises(BudgetExceeded):
                        _pair_search(ref, size - 1, key)
                    with pytest.raises(BudgetExceeded):
                        _bfs_rows(ref, size - 1, stop=key.__eq__)
                searched += 1
                held += found
        assert (searched, held) == (60 + 347 + 1118 + 151, 60 + 347)

    def test_labels_build_no_class(self, searches):
        assert component_label(parse(Q6_NONHYP)) is NONHYP
        assert component_label(parse(Q6_HYP)) is HYP
        # the search over row-exchange pairs closes the 347-vertex
        # hyperelliptic class in 174 pairs without meeting the first table,
        # and meets the second at its third pair
        assert searches == {"bfs": [], "pairs": [174, 3], "classes": []}

    def test_search_stays_near_the_hyperelliptic_class(self):
        # The search from the symmetric table closes its 347-vertex class;
        # the class of the table itself has 4,832.
        p = parse(Q6_NONHYP)
        assert component_label(p, budget=347) is NONHYP
        with pytest.raises(BudgetExceeded):
            component_label(p, budget=346)

    def test_budget_counts_the_tables_reached(self):
        # The search from the symmetric table meets Q6_HYP at its third pair
        # before it knows the class is tau-closed, so each pair stands for
        # the one table reached: two pairs are held at the last budget check.
        p = parse(Q6_HYP)
        assert component_label(p, budget=2) is HYP
        with pytest.raises(BudgetExceeded):
            component_label(p, budget=1)

    def test_table_search_within_the_budget(self):
        # The symmetric table of Q(-1,-1,0,6) with marked order -1 is the
        # 82nd table the search tries.
        st = parse_stratum("Q(-1,-1,0,6)")
        assert _hyperelliptic_table(st, -1, budget=82) is not None
        with pytest.raises(BudgetExceeded):
            _hyperelliptic_table(st, -1, budget=81)
        # its label forgets the unmarked 0 and never asks for that table
        p = GenPerm(*rows_of(_hyperelliptic_table(st, -1)))
        held = rauzy_class(p).table
        assert len(held) == 420
        assert component_label(p, budget=81) is HYP
        assert label_for_class(held, st, budget=81) is HYP
        # With marked order 0 the 0 is the marked point, and the symmetric
        # table, the 50th the search tries, decides; a held class of 601
        # vertices takes the same budget for its label.
        p = parse("1 2 2 3 4 5 6 / 6 1 4 3 7 7 5")
        assert _hyperelliptic_table(st, 0) == p._key
        assert component_label(p, budget=50) is HYP
        with pytest.raises(BudgetExceeded):
            component_label(p, budget=49)
        held = rauzy_class(p).table
        assert len(held) == 601
        assert label_for_class(held, st, budget=50) is HYP
        with pytest.raises(BudgetExceeded):
            label_for_class(held, st, budget=49)

    def test_same_class_fast_builds_no_class(self, searches):
        hyp, nonhyp = parse(Q6_HYP), parse(Q6_NONHYP)
        assert not same_class_fast(hyp, nonhyp)
        assert same_class_fast(hyp, parse("1 1 2 3 4 5 / 5 4 3 2 6 6"))
        # the second pair is the symmetric table itself, where the search
        # stops at its seed
        assert searches == {"bfs": [], "pairs": [3, 174, 3, 1], "classes": []}


class TestExceptionalSplit:
    """The exceptional split on the four Rauzy classes of ``Q(-1,9)``.

    The smallest vertex, marked order, size and label of each class were
    computed by partitioning every irreducible table of the stratum into
    classes and comparing their smallest vertices within each marked
    order.  A label must come out the same without enumerating or
    partitioning the stratum, and without building a class: one search
    over row-exchange pairs from the table stops at the least table of its
    stratum and marked order, the smallest vertex of the ``exceptional-a``
    class, or closes the ``exceptional-b`` class without meeting it.
    ``searched`` counts the pairs of that search.
    """

    CLASSES = [
        ("1 2 1 / 3 2 4 3 5 4 6 7 6 7 5", -1, 6898, 873, ComponentLabel.EXCEPTIONAL_A),
        ("1 2 1 / 3 2 4 5 6 3 7 4 5 6 7", -1, 684, 342, ComponentLabel.EXCEPTIONAL_B),
        ("1 1 / 2 3 2 3 4 5 4 5 6 7 6 7", 9, 89046, 281, ComponentLabel.EXCEPTIONAL_A),
        ("1 1 / 2 3 2 3 4 5 6 7 4 5 6 7", 9, 11682, 5841, ComponentLabel.EXCEPTIONAL_B),
    ]

    @pytest.mark.parametrize(
        "table, marked, size, searched, label", CLASSES, ids=["-1a", "-1b", "9a", "9b"]
    )
    def test_q19_class_label(
        self, monkeypatch, searches, table, marked, size, searched, label
    ):
        import rauzy.classes

        def forbidden(*args, **kwargs):
            raise AssertionError("the stratum was enumerated, or a class built or searched")

        smallest = parse(table)
        held = rauzy_class(smallest).table
        assert len(held) == size
        assert _smallest_vertex(held) == smallest
        searches["bfs"].clear()
        searches["pairs"].clear()
        monkeypatch.setattr(rauzy.classes, "class_partition", forbidden)
        monkeypatch.setattr(rauzy.classes, "enumerate_irreducible", forbidden)
        monkeypatch.setattr(rauzy.classes, "rauzy_class", forbidden)
        st = parse_stratum("Q(-1,9)")
        assert stratum(smallest) == st
        assert singularity_profile(smallest).marked == marked
        moved = r0(smallest)
        if moved is None or moved == smallest:
            moved = r1(smallest)
        assert moved != smallest
        last = []
        pair_search = rauzy.classes._pair_search  # the counting search of the fixture

        def ends(seed, budget, target=None):
            found = pair_search(seed, budget, target)
            last.append(next(reversed(found.pairs)))
            return found

        monkeypatch.setattr(rauzy.classes, "_pair_search", ends)
        assert component_label(moved) is label
        assert searches == {"bfs": [], "pairs": [searched], "classes": []}
        # an a-search ends at the pair of the smallest vertex, a b-search
        # elsewhere
        ends_at_smallest = last == [_pair_of(smallest._key)[0]]
        assert ends_at_smallest == (label is ComponentLabel.EXCEPTIONAL_A)
        # the verifier holds the class and looks the least table up in it
        monkeypatch.setattr(rauzy.classes, "_bfs_rows", forbidden)
        monkeypatch.setattr(rauzy.classes, "_pair_search", forbidden)
        assert label_for_class(held, st) is label

    @pytest.mark.parametrize(
        "table, marked, size, searched, label", CLASSES, ids=["-1a", "-1b", "9a", "9b"]
    )
    def test_pair_search_matches_the_vertex_search(
        self, table, marked, size, searched, label
    ):
        # from vertices spread over each class toward the least table of its
        # marked order, as the split searches: the stopping search over
        # row-exchange pairs and the vertex search give the class's answer
        # within a budget of its size
        held = rauzy_class(parse(table)).table
        least = _least_table(parse_stratum("Q(-1,9)"), marked)
        assert (least in held) == (label is ComponentLabel.EXCEPTIONAL_A)
        keys = sorted(held)
        for key in keys[:: len(keys) // 4]:
            assert (least in _pair_search(key, size, least)) == (least in held), key
            assert (least in _bfs_rows(key, size, stop=least.__eq__)) == (least in held)

    def test_least_table_within_the_budget(self):
        # The least table of Q(-1,9) with marked order 9 is the 962nd
        # table the scan tries.
        st = parse_stratum("Q(-1,9)")
        least = _least_table(st, 9, budget=962)
        assert rows_of(least) == ((1, 1), (2, 3, 2, 3, 4, 5, 4, 5, 6, 7, 6, 7))
        with pytest.raises(BudgetExceeded):
            _least_table(st, 9, budget=961)

    def test_rotation_links_pair_a_with_a(self):
        # central_involution keeps the component and moves the marked point
        # to the right end corner: it links -1a with 9a and -1b with 9b, so
        # the least-table names pair the classes of the two marked orders
        # alike
        tables = [rauzy_class(parse(table)).table for table, *_ in self.CLASSES]
        labels = [label for *_, label in self.CLASSES]
        links, reducible, root = rotation_links(tables)
        assert all(labels[i] is labels[j] for i, j in links)
        assert {frozenset(pair) for pair in links if pair[0] != pair[1]} == {
            frozenset({0, 2}),
            frozenset({1, 3}),
        }
        assert root[0] == root[2] != root[1] == root[3]
        assert reducible == 2_212


def test_q39_has_two_classes_of_marked_order_nine():
    # Q(3,9) is exceptional: A and B, both of marked order 9, lie in two
    # classes.  A's class has 640,764 vertices, so B is looked up by its key
    # in the class table; no vertex is wrapped.
    a = parse("1 2 3 2 4 / 5 6 7 8 1 8 9 4 7 3 6 9 5")
    b = parse("1 2 3 1 4 5 6 5 2 7 6 8 4 8 7 / 9 3 9")
    st = parse_stratum("Q(3,9)")
    assert stratum(a) == stratum(b) == st
    assert singularity_profile(a).marked == singularity_profile(b).marked == 9
    held = rauzy_class(a).table
    assert len(held) == 640_764
    assert a._key in held and b._key not in held
