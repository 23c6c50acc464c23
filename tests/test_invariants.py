import pytest
from hypothesis import given, settings

from conftest import irreducible_genperms

from rauzy import (
    ComponentLabel,
    Stratum,
    StratumKind,
    component_label,
    is_hyperelliptic_component,
    parse,
    parse_stratum,
    rauzy_class,
    singularity_profile,
    spin_parity,
    stratum,
)
from rauzy.errors import NotAbelian, OddDegreePresent, Reducible
from rauzy.induction import r0, r1
from rauzy.invariants import central_involution, expected_components


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
        assert expected_components(parse_stratum("H(0)")) == 1
        assert expected_components(parse_stratum("H(2)")) == 1
        assert expected_components(parse_stratum("H(4)")) == 2
        assert expected_components(parse_stratum("H(2,2)")) == 2
        assert expected_components(parse_stratum("H(6)")) == 3
        assert expected_components(parse_stratum("H(3,3)")) == 2
        assert expected_components(parse_stratum("H(4,2)")) == 2
        assert expected_components(parse_stratum("H(3,1)")) == 1
        assert expected_components(parse_stratum("Q(-1,-1,-1,-1)")) == 1
        assert expected_components(parse_stratum("Q(2,2)")) == 1
        assert expected_components(parse_stratum("Q(-1,-1,6)")) == 2
        assert expected_components(parse_stratum("Q(12)")) == 2
        assert expected_components(parse_stratum("Q(-1,9)")) == 2
        assert expected_components(parse_stratum("Q(8)")) == 1


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
        assert is_hyperelliptic_component(parse("1 2 3 4 / 4 3 2 1"))
        assert is_hyperelliptic_component(parse("1 2 / 2 1"))

    def test_odd_component_is_not(self):
        # a vertex of the 134-element class in the minimal genus-3 stratum
        assert not is_hyperelliptic_component(parse("1 2 3 4 5 6 / 3 2 5 4 6 1"))


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
            calls.append(seed)
            return original(seed, budget)

        monkeypatch.setattr(rauzy.classes, "rauzy_class", counting)
        # H(3,1) has no hyperelliptic component: the table alone decides.
        label = component_label(parse("1 2 3 4 5 6 7 / 2 4 1 5 7 3 6"))
        assert label is ComponentLabel.UNIQUE
        assert calls == []
        # H(4) has one, so the class is scanned.
        label = component_label(parse("1 2 3 4 5 6 / 3 2 5 4 6 1"))
        assert label is ComponentLabel.ODD_SPIN
        label = component_label(parse("1 2 3 4 5 6 / 6 5 4 3 2 1"))
        assert label is ComponentLabel.HYPERELLIPTIC
        assert len(calls) == 2
        # H(2) is connected and needs no scan, but its class is still built:
        # the tracer self-test of benchmark/run.py counts its 7 vertices.
        component_label(parse("1 2 3 4 / 4 3 2 1"))
        assert len(calls) == 3


class TestExceptionalSplit:
    """The four stray half-translation strata get stable two-way labels.

    Their smallest realisations need seven or more symbols, beyond what a
    test can exhaustively enumerate, so the class-representative cache is
    primed with real classes from a small stratum and the splitting logic
    is exercised against it.
    """

    def test_label_assignment_is_stable(self):
        from rauzy import parse_stratum, rauzy_class
        from rauzy.classes import _REP_CACHE
        from rauzy.invariants import _exceptional_label

        st = parse_stratum("Q(-1,9)")
        seeds = [
            parse("1 1 2 / 2 3 3"),
            parse("1 2 2 / 3 3 1"),
        ]
        reps = [
            min(rauzy_class(s).vertices, key=lambda v: v.key) for s in seeds
        ]
        # both seeds share one class, so prime with the two stray-class
        # shapes the splitter would see: two classes of equal marked order
        _REP_CACHE[st] = [reps[0], reps[0]]
        try:
            label = _exceptional_label(reps[0], st, budget=10**6)
            assert label.value == "exceptional-a"
        finally:
            del _REP_CACHE[st]

    def test_distinct_keys_split_a_b(self):
        from rauzy import parse_stratum
        from rauzy.classes import _REP_CACHE
        from rauzy.invariants import _exceptional_label

        st = parse_stratum("Q(12)")
        p_small = parse("1 1 2 / 2 3 3")
        p_big = parse("1 2 2 / 3 3 1")
        _REP_CACHE[st] = [p_small, p_big]
        try:
            assert _exceptional_label(p_small, st, budget=10**6).value == (
                "exceptional-a"
            )
            assert _exceptional_label(p_big, st, budget=10**6).value == (
                "exceptional-b"
            )
        finally:
            del _REP_CACHE[st]
