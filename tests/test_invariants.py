import time
from itertools import permutations

import pytest
from hypothesis import given, settings

from conftest import irreducible_genperms

from rauzy import (
    ComponentLabel,
    Stratum,
    StratumKind,
    component_label,
    parse,
    parse_stratum,
    rauzy_class,
    singularity_profile,
    spin_parity,
    stratum,
    stratum_components,
)
from rauzy.classes import _seeded_classes
from rauzy.combinat import GenPerm, _smallest_vertex
from rauzy.errors import (
    BudgetExceeded,
    NotAbelian,
    OddDegreePresent,
    Reducible,
)
from rauzy.induction import r0, r1
from rauzy.invariants import (
    _is_centrally_symmetric,
    _is_hyperelliptic_vertex,
    central_involution,
    label_for_class,
)

HYP = ComponentLabel.HYPERELLIPTIC
EVEN = ComponentLabel.EVEN_SPIN
ODD = ComponentLabel.ODD_SPIN
NONHYP = ComponentLabel.NON_HYPERELLIPTIC
UNIQUE = ComponentLabel.UNIQUE


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


class TestHyperelliptic:
    def test_central_involution_fixes_reversal(self):
        p = parse("1 2 3 4 / 4 3 2 1")
        assert central_involution(p) == p

    def test_central_involution_is_involutive(self):
        p = parse("1 2 3 2 4 / 4 5 1 3 5")
        assert central_involution(central_involution(p)) == p

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
        # H(3,3) has no marked point: a search for the reversal decides.
        label = component_label(parse("1 2 3 4 5 6 7 8 9 / 2 4 1 6 5 7 9 3 8"))
        assert label is ComponentLabel.NON_HYPERELLIPTIC
        moved = r0(parse("1 2 3 4 5 6 7 8 9 / 9 8 7 6 5 4 3 2 1"))
        assert component_label(moved) is ComponentLabel.HYPERELLIPTIC
        assert calls == []
        # H(2) is connected and needs no class, but its class is still built:
        # the tracer self-test of benchmark/run.py counts its 7 vertices.
        component_label(parse("1 2 3 4 / 4 3 2 1"))
        assert calls == [7]


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
        _is_centrally_symmetric(*rows)
        and _is_hyperelliptic_vertex(GenPerm._trusted(*rows), st)
        for rows in table
    ):
        return HYP
    if ODD in components:
        return ODD if spin_parity(rep) else EVEN
    return NONHYP


def _standard_classes(d):
    """Every permutation class with ``d`` symbols, seeded by standard tables."""
    top = tuple(range(1, d + 1))
    seeds = ((top, (d, *middle, 1)) for middle in permutations(top[1:-1]))
    return _seeded_classes(seeds, lambda rows: rows[1][0] == d, 10**7)


class TestHyperellipticFamilies:
    """Labels in the orientable strata with a hyperelliptic component.

    Spin parity and a search for the reversal decide them from one table;
    a scan of the whole class for a hyperelliptic vertex is the second
    route.
    """

    def test_table_route_matches_the_class_scan(self):
        classes = 0
        for d in range(2, 10):
            for diagram in _standard_classes(d):
                table = diagram.table
                st = stratum(GenPerm._trusted(*next(iter(table))))
                if HYP not in stratum_components(st):
                    continue
                expected = _scan_label(table)
                largest = GenPerm._trusted(*max(table))
                assert component_label(largest) is expected, largest
                assert label_for_class(table) is expected, largest
                classes += 1
        assert classes == 55

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
        assert ((p.top, p.bottom) in hyperelliptic) == (label is HYP)
        assert label is HYP or (label is ODD) == spin_parity(p)

        def forbidden(*args, **kwargs):
            raise AssertionError("the class was enumerated")

        monkeypatch.setattr(rauzy.classes, "rauzy_class", forbidden)
        start = time.perf_counter()
        assert component_label(p) is label
        assert time.perf_counter() - start < 1.0

    def test_budget_bounds_the_reversal_search(self):
        # The class of this H(3,3) table has 15,568 vertices; the search
        # gives up after 2^8 - 1 = 255 of them, the size of the class of
        # the nine-symbol reversal.
        p = parse("1 2 3 4 5 6 7 8 9 / 2 4 1 6 5 7 9 3 8")
        assert component_label(p, budget=255) is NONHYP
        with pytest.raises(BudgetExceeded):
            component_label(p, budget=254)


class TestExceptionalSplit:
    """The exceptional split on the four Rauzy classes of ``Q(-1,9)``.

    The smallest vertex, marked order, size and label of each class were
    computed by partitioning every irreducible table of the stratum into
    classes and comparing their smallest vertices within each marked
    order.  A label must come out the same without enumerating or
    partitioning the stratum.
    """

    CLASSES = [
        ("1 2 1 / 3 2 4 3 5 4 6 7 6 7 5", -1, 6898, ComponentLabel.EXCEPTIONAL_A),
        ("1 2 1 / 3 2 4 5 6 3 7 4 5 6 7", -1, 684, ComponentLabel.EXCEPTIONAL_B),
        ("1 1 / 2 3 2 3 4 5 4 5 6 7 6 7", 9, 89046, ComponentLabel.EXCEPTIONAL_A),
        ("1 1 / 2 3 2 3 4 5 6 7 4 5 6 7", 9, 11682, ComponentLabel.EXCEPTIONAL_B),
    ]

    @pytest.mark.parametrize(
        "table, marked, size, label", CLASSES, ids=["-1a", "-1b", "9a", "9b"]
    )
    def test_q19_class_label(self, monkeypatch, table, marked, size, label):
        import rauzy.classes
        from rauzy.combinat import _smallest_vertex

        def forbidden(*args, **kwargs):
            raise AssertionError("the stratum was enumerated")

        built = []

        def recording(seed, budget=10**7):
            diagram = rauzy_class(seed, budget)
            built.append(diagram)
            return diagram

        monkeypatch.setattr(rauzy.classes, "class_partition", forbidden)
        monkeypatch.setattr(rauzy.classes, "enumerate_irreducible", forbidden)
        monkeypatch.setattr(rauzy.classes, "rauzy_class", recording)
        smallest = parse(table)
        assert stratum(smallest) == parse_stratum("Q(-1,9)")
        assert singularity_profile(smallest).marked == marked
        moved = r0(smallest)
        if moved is None or moved == smallest:
            moved = r1(smallest)
        assert moved != smallest
        assert component_label(moved) is label
        (diagram,) = built
        assert len(diagram) == size
        assert _smallest_vertex(diagram.table) == smallest
