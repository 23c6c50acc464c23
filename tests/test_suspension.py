import copy
import json
import pickle
from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings

from conftest import genperms, irreducible_genperms, pl_value, rational_points, rows_of

import rauzy.linprog
from rauzy import (
    GenPerm,
    build_polygon,
    check_suspension,
    find_suspension,
    geometric_profile,
    is_irreducible,
    parse,
    polygon_json,
    polygon_svg,
    random_suspension,
)
from rauzy.combinat import PermKind, all_reduced_tables, reduce
from rauzy.classes import enumerate_irreducible
from rauzy.errors import DegeneratePolygon, DimensionMismatch, InvalidSuspension
from rauzy.linprog import canonical_choice, feasible, solve
from rauzy.suspension import (
    SuspensionDatum,
    _imag_system,
    _occurrence_balance,
    _real_system,
    is_embedded,
)


def _datum(*pairs):
    return SuspensionDatum(
        tuple((Fraction(a), Fraction(b)) for a, b in pairs)
    )


class TestCheckSuspension:
    def test_torus_witness(self):
        p = parse("1 2 / 2 1")
        assert check_suspension(p, _datum((1, 1), (1, -1)))

    def test_bad_bottom_sign(self):
        p = parse("1 2 / 2 1")
        assert not check_suspension(p, _datum((1, 1), (1, 1)))

    def test_nonpositive_length(self):
        p = parse("1 2 / 2 1")
        assert not check_suspension(p, _datum((0, 1), (1, -1)))

    def test_unequal_row_sums(self):
        p = parse("1 1 2 / 2 3 3")
        assert not check_suspension(p, _datum((1, 1), (1, -1), (1, -1)))

    def test_dimension_mismatch(self):
        p = parse("1 2 / 2 1")
        for zeta in (_datum((1, 1)), _datum((1, 1), (1, -1), (1, 1))):
            with pytest.raises(DimensionMismatch):
                check_suspension(p, zeta)


class TestDatum:
    """The constructor forms of a vector are one datum."""

    @pytest.mark.parametrize(
        "forms",
        [
            pytest.param(
                (
                    SuspensionDatum(((1, 2), (3, -1))),
                    _datum((1, 2), (3, -1)),
                    SuspensionDatum._of((6, 6, 18, 12, -6)),
                ),
                id="integer-vector",
            ),
            pytest.param(
                (
                    SuspensionDatum(((Fraction(1, 3), 1), (Fraction(2, 3), Fraction(-1, 3)))),
                    SuspensionDatum._of((3, 1, 2, 3, -1)),
                    SuspensionDatum._of((6, 2, 4, 6, -2)),
                ),
                id="thirds",
            ),
        ],
    )
    def test_forms_agree(self, forms):
        first = forms[0]
        for zeta in forms[1:]:
            assert zeta == first and hash(zeta) == hash(first)
            assert str(zeta) == str(first) and repr(zeta) == repr(first)
            assert zeta.values == first.values and zeta.d == first.d == 2
            for k in (1, 2):
                assert zeta.re(k) == first.re(k) and zeta.im(k) == first.im(k)
                assert type(zeta.re(k)) is type(zeta.im(k)) is Fraction
        assert all(type(v) is Fraction for pair in first.values for v in pair)
        moved = SuspensionDatum._of((6, 6, 18, 12, -4))
        assert all(zeta != moved for zeta in forms)

    def test_two_slots(self):
        zeta = SuspensionDatum(((Fraction(1, 3), 1), (Fraction(2, 3), Fraction(-1, 3))))
        assert SuspensionDatum.__slots__ == ("_parts", "_over")
        assert not hasattr(zeta, "__dict__")
        # the denominator, the real parts, then the imaginary parts
        assert zeta._parts == (3, 1, 2, 3, -1)
        # a datum the caller builds is over no table
        assert zeta._over is None
        with pytest.raises(AttributeError):
            zeta.scale = 3

    @pytest.mark.parametrize(
        "duplicate",
        [lambda zeta: pickle.loads(pickle.dumps(zeta)), copy.copy],
        ids=["pickle", "copy"],
    )
    def test_duplicates_are_equal(self, duplicate):
        for zeta in (
            SuspensionDatum(((Fraction(1, 3), 1), (Fraction(2, 3), Fraction(-1, 3)))),
            SuspensionDatum._of((6, 2, 4, 6, -2)),
        ):
            twin = duplicate(zeta)
            assert twin is not zeta and type(twin) is SuspensionDatum
            assert twin == zeta and hash(twin) == hash(zeta)
            assert twin._parts == zeta._parts and str(twin) == str(zeta)

    def test_printing(self):
        zeta = SuspensionDatum._of((6, 2, 6, 4, -2))
        assert str(zeta) == "(1/3+2/3i, 1-1/3i)"
        assert repr(zeta) == (
            "SuspensionDatum(values=((Fraction(1, 3), Fraction(2, 3)), "
            "(Fraction(1, 1), Fraction(-1, 3))))"
        )


def _fraction_conditions(p, zeta):
    """The four suspension conditions summed in ``Fraction`` arithmetic.

    The route ``check_suspension`` took before it scaled to integers; kept
    as the oracle of the integer route.
    """
    positive = all(re > 0 for re, _ in zeta.values)
    top_ok = bottom_ok = True
    acc = Fraction(0)
    for s in p.top[:-1]:
        acc += zeta.im(s)
        top_ok = top_ok and acc > 0
    acc = Fraction(0)
    for s in p.bottom[:-1]:
        acc += zeta.im(s)
        bottom_ok = bottom_ok and acc < 0
    closed = sum(zeta.re(s) for s in p.top) == sum(
        zeta.re(s) for s in p.bottom
    ) and sum(zeta.im(s) for s in p.top) == sum(zeta.im(s) for s in p.bottom)
    return positive, top_ok, bottom_ok, closed


def _small_tables():
    for d in range(2, 6):
        yield from enumerate_irreducible(d, PermKind.IET)
        if d >= 3:
            yield from enumerate_irreducible(d, PermKind.QUADRATIC)


def _perturbed(zeta, rng):
    """``zeta`` over a non-unit denominator, with one or two entries moved."""
    values = [[re / 7, im / 7] for re, im in zeta.values]
    span = max(abs(v) for pair in values for v in pair)
    for _ in range(rng.choice((1, 1, 2))):
        k = rng.randrange(len(values))
        part = rng.randrange(2)
        values[k][part] += span * Fraction(rng.randint(-9, 9), rng.choice((2, 3, 5)))
    return SuspensionDatum(tuple(tuple(pair) for pair in values))


class TestIntegerRoute:
    """``check_suspension`` on integers against the ``Fraction`` oracle."""

    def test_witnesses_through_five_symbols(self):
        checked = 0
        for p in _small_tables():
            rng = Random(f"route:{p}")
            for zeta in (find_suspension(p), random_suspension(p, rng)):
                assert all(_fraction_conditions(p, zeta)), p
                assert check_suspension(p, zeta), p
                checked += 1
        assert checked == 2 * 1_750

    def test_perturbed_witnesses_through_five_symbols(self):
        # Count the vectors that break exactly one condition: dropping that
        # condition from the integer route would accept them.
        sole_failures = [0, 0, 0, 0]
        for p in _small_tables():
            rng = Random(f"perturb:{p}")
            base = (find_suspension(p), random_suspension(p, rng))
            for trial in range(4):
                zeta = _perturbed(base[trial % 2], rng)
                conditions = _fraction_conditions(p, zeta)
                assert check_suspension(p, zeta) == all(conditions), (p, zeta)
                if sum(conditions) == 3:
                    sole_failures[conditions.index(False)] += 1
        assert min(sole_failures) >= 100, sole_failures

    def test_rejects_non_rational_entries(self):
        for bad in (1.0, 0.5, "1", None):
            with pytest.raises(InvalidSuspension):
                SuspensionDatum(((Fraction(1), Fraction(1)), (1, bad)))

    def test_int_entries_accepted(self):
        p = parse("1 2 / 2 1")
        assert check_suspension(p, SuspensionDatum(((1, 1), (1, -1))))
        half = Fraction(1, 2)
        assert check_suspension(p, SuspensionDatum(((1, half), (1, -half))))


def _least_gap(poly):
    """Least height of the top line over the bottom one, on ``Fraction``s.

    Evaluates both broken lines at every interior vertex abscissa, the
    route ``is_embedded`` took before it swept integer points; kept as its
    oracle.  Positive exactly when the polygon is embedded.
    """
    top, bottom = rational_points(poly)
    xs = {x for x, _ in top[1:-1] + bottom[1:-1]}
    return min(pl_value(top, x) - pl_value(bottom, x) for x in xs)


def _assert_embedding_agrees(poly):
    embedded = _least_gap(poly) > 0
    assert is_embedded(poly) == embedded
    if not embedded:
        with pytest.raises(DegeneratePolygon):
            geometric_profile(poly)
    return embedded


class TestEmbedded:
    """``is_embedded`` on valid vectors whose broken lines may touch or cross."""

    def test_top_vertex_under_bottom_edge(self):
        # The top vertex (4, 1) against the bottom edge from (1 + 1, h - 8)
        # to (5, 1 + h): the gap there is 3 - h, and the vector is valid
        # for every h < 8.
        p = parse("1 2 3 / 2 3 1")
        for h in range(-3, 8):
            zeta = _datum((3, 9), (1, -8), (1, h))
            assert check_suspension(p, zeta)
            assert _assert_embedding_agrees(build_polygon(p, zeta)) == (h < 3)

    def test_bottom_vertex_over_top_edge(self):
        # The bottom vertex (6, -1) against the top edge from (3, 7 + h)
        # to (7, h - 1): the gap there is h + 2, and the vector is valid
        # for every h > -7.
        p = parse("1 2 3 / 3 1 2")
        for h in range(-6, 4):
            zeta = _datum((2, 7), (1, h), (4, -8))
            assert check_suspension(p, zeta)
            assert _assert_embedding_agrees(build_polygon(p, zeta)) == (h > -2)

    def test_valid_perturbed_witnesses_through_five_symbols(self):
        outcomes = {True: 0, False: 0}
        for p in _small_tables():
            rng = Random(f"embedded:{p}")
            base = (find_suspension(p), random_suspension(p, rng))
            for trial in range(4):
                zeta = _perturbed(base[trial % 2], rng)
                if check_suspension(p, zeta):
                    poly = build_polygon(p, zeta)
                    outcomes[_assert_embedding_agrees(poly)] += 1
        assert outcomes[False] >= 5, outcomes


class TestFindSuspension:
    def test_torus(self):
        p = parse("1 2 / 2 1")
        z = find_suspension(p)
        assert z is not None and check_suspension(p, z)

    def test_infeasible(self):
        assert find_suspension(parse("1 1 / 2 2")) is None

    def test_worked_example_has_witness(self):
        p = parse("1 2 3 2 4 / 4 5 1 3 5")
        z = find_suspension(p)
        assert z is not None and check_suspension(p, z)

    def test_deterministic(self):
        p = parse("1 2 3 4 / 4 3 2 1")
        assert find_suspension(p) == find_suspension(p)

    @given(genperms(min_d=2, max_d=5))
    @settings(max_examples=80, deadline=None)
    def test_witness_exists_iff_irreducible(self, p):
        z = find_suspension(p)
        assert (z is not None) == is_irreducible(p)
        if z is not None:
            assert check_suspension(p, z)

    def test_witness_exists_iff_irreducible_exhaustive(self):
        from rauzy.combinat import all_reduced_tables

        for d in (2, 3, 4):
            for key in all_reduced_tables(d):
                p = GenPerm(*rows_of(key))
                z = find_suspension(p)
                assert (z is not None) == is_irreducible(p)
                if z is not None:
                    assert check_suspension(p, z)

    @given(irreducible_genperms(max_d=5))
    @settings(max_examples=50, deadline=None)
    def test_witness_polygon_is_embedded(self, p):
        poly = build_polygon(p, find_suspension(p))
        assert is_embedded(poly)

    @given(irreducible_genperms(max_d=4))
    @settings(max_examples=40, deadline=None)
    def test_random_witnesses_are_valid_and_embedded(self, p):
        rng = Random(7)
        for _ in range(3):
            z = random_suspension(p, rng)
            assert check_suspension(p, z)
            assert is_embedded(build_polygon(p, z))

    def test_chooser_gets_no_point_interval(self, monkeypatch):
        # solve hands the chooser every variable but the balance equality's
        # pivot, d - 1 per system.  The random chooser picks strictly inside
        # each interval, so it never meets a point interval either: a point
        # would only arise from a boundary pick, as the canonical rule makes.
        calls = []

        def recording_solve(nvars, ineqs, eq=None, choose=canonical_choice):
            def record(lo, hi):
                calls.append((lo, hi))
                return choose(lo, hi)

            return solve(nvars, ineqs, eq, record)

        monkeypatch.setattr(rauzy.linprog, "solve", recording_solve)
        for d in range(3, 6):
            for p in enumerate_irreducible(d, PermKind.QUADRATIC):
                calls.clear()
                find_suspension(p)
                assert len(calls) == 2 * (d - 1), p
                calls.clear()
                random_suspension(p, Random(str(p)))
                assert len(calls) == 2 * (d - 1), p
                # bounds are (num, den) pairs with den > 0: compare by value
                assert all(
                    lo is None or hi is None or lo[0] * hi[1] < hi[0] * lo[1]
                    for lo, hi in calls
                ), p


def _fraction_canonical_choice(lo, hi):
    """``linprog.canonical_choice`` as it was on ``Fraction`` bounds."""
    if (lo is None or lo <= 0) and (hi is None or hi >= 0):
        return Fraction(0)
    if lo is not None and lo > 0:
        return lo
    return hi


def _fraction_pick(rng):
    """``random_suspension``'s chooser as it was on ``Fraction`` bounds."""

    def pick(lo, hi):
        if lo is None:
            lo = (hi if hi is not None else Fraction(0)) - 4
        if hi is None:
            hi = lo + 4
        return lo + (hi - lo) * Fraction(rng.randint(1, 15), 16)

    return pick


def _as_fraction(bound):
    return None if bound is None else Fraction(*bound)


def _on_pairs(fraction_rule):
    """A ``Fraction`` chooser behind the ``(num, den)`` interface of ``solve``."""

    def choose(lo, hi):
        value = fraction_rule(_as_fraction(lo), _as_fraction(hi))
        return value.numerator, value.denominator

    return choose


def _random_pick(rng):
    """The chooser that ``random_suspension`` builds on ``rng``."""
    captured = []

    def capture(p, choose):
        captured.append(choose)
        return _datum((1, 1), (1, -1))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rauzy.suspension, "_witness", capture)
        random_suspension(parse("1 2 / 2 1"), rng)
    return captured[0]


def _bound_pairs(rng, count):
    """Seeded ``(lo, hi)`` bounds with ``lo <= hi``, as ``(num, den)`` pairs.

    Every pair is scaled by a random factor, so most are not reduced; a
    third of the intervals miss one or both bounds and some are points.
    """
    bounds = []
    for _ in range(count):
        ends = sorted(Fraction(rng.randint(-30, 30), rng.randint(1, 8)) for _ in range(2))
        lo, hi = [
            (v.numerator * k, v.denominator * k)
            for v, k in zip(ends, (rng.randint(1, 4), rng.randint(1, 4)))
        ]
        case = rng.randrange(8)
        if case == 0:
            lo = None
        elif case == 1:
            hi = None
        elif case == 2:
            lo = hi = None
        elif case == 3:
            hi = (2 * lo[0], 2 * lo[1])
        bounds.append((lo, hi))
    return bounds


class TestChooserOracle:
    """The integer choosers held against their ``Fraction`` forms."""

    def test_seeded_bound_pairs(self):
        bounds = _bound_pairs(Random(3001), 2000)
        assert sum(lo is None for lo, _ in bounds) >= 300
        assert sum(hi is None for _, hi in bounds) >= 300
        assert sum(lo is not None and gcd(*lo) > 1 for lo, _ in bounds) >= 500
        pick = _random_pick(Random(3002))
        oracle_pick = _fraction_pick(Random(3002))
        for lo, hi in bounds:
            flo, fhi = _as_fraction(lo), _as_fraction(hi)
            for (num, den), value in (
                (canonical_choice(lo, hi), _fraction_canonical_choice(flo, fhi)),
                (pick(lo, hi), oracle_pick(flo, fhi)),
            ):
                assert den > 0, (lo, hi)
                assert Fraction(num, den) == value, (lo, hi)

    def test_through_solve_to_five_symbols(self):
        sizes = [(PermKind.IET, d) for d in range(2, 6)]
        sizes += [(PermKind.QUADRATIC, d) for d in range(3, 6)]
        for kind, d in sizes:
            for p in enumerate_irreducible(d, kind):
                rules = [
                    (canonical_choice, _on_pairs(_fraction_canonical_choice)),
                    (
                        _random_pick(Random(str(p))),
                        _on_pairs(_fraction_pick(Random(str(p)))),
                    ),
                ]
                for choose, oracle in rules:
                    system = _imag_system(p)
                    ims = solve(d, *system, choose=choose)
                    assert ims is not None and ims == solve(d, *system, choose=oracle), p
                    system = _real_system(p, ims[1])
                    res = solve(d, *system, choose=choose)
                    assert res is not None and res == solve(d, *system, choose=oracle), p


# a vector of ``1 2 / 2 1`` whose entries have denominators 2, 3, 4 and 6
_HALVES_AND_THIRDS = SuspensionDatum(
    ((Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 4), Fraction(-1, 6)))
)


class TestPolygon:
    def test_torus_parallelogram(self):
        p = parse("1 2 / 2 1")
        poly = build_polygon(p, _datum((1, 1), (1, -1)))
        assert poly.top_points[-1] == poly.bottom_points[-1]
        assert poly.top_points[0] == poly.bottom_points[0] == (0, 0)
        kinds = {kind for _, _, kind in poly.pairs}
        assert kinds == {"translation"}

    def test_half_turn_pairs(self):
        p = parse("1 1 / 2 2 3 3")
        poly = build_polygon(p, find_suspension(p))
        kinds = sorted(kind for _, _, kind in poly.pairs)
        assert kinds == ["half_turn", "half_turn", "half_turn"]

    def test_octagon_with_translation_pairing(self):
        p = parse("1 2 3 4 / 4 3 2 1")
        poly = build_polygon(p, find_suspension(p))
        assert poly.l == poly.m == 4
        assert all(kind == "translation" for _, _, kind in poly.pairs)
        assert len(poly.pairs) == 4

    def test_rejects_invalid_vector(self):
        p = parse("1 2 / 2 1")
        with pytest.raises(InvalidSuspension):
            build_polygon(p, _datum((1, 1), (1, 1)))

    @given(irreducible_genperms(max_d=5))
    @settings(max_examples=60, deadline=None)
    def test_closure_is_exact(self, p):
        poly = build_polygon(p, find_suspension(p))
        assert poly.top_points[-1] == poly.bottom_points[-1]

    def test_json_export(self):
        p = parse("1 2 / 2 1")
        payload = json.loads(polygon_json(build_polygon(p, _datum((1, 1), (1, -1)))))
        assert payload["vertices"][0] == ["0/1", "0/1"]
        assert payload["pairs"] == [[0, 3, "translation"], [1, 2, "translation"]]
        poly = build_polygon(p, _HALVES_AND_THIRDS)
        assert poly.scale == 12
        assert polygon_json(poly) == (
            '{"vertices": [["0/1", "0/1"], ["1/2", "1/3"], ["5/4", "1/6"], '
            '["3/4", "-1/6"]], "pairs": [[0, 3, "translation"], [1, 2, "translation"]]}'
        )

    def test_svg_export(self):
        p = parse("1 2 / 2 1")
        svg = polygon_svg(build_polygon(p, _datum((1, 1), (1, -1))))
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert polygon_svg(build_polygon(p, _HALVES_AND_THIRDS)) == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="135" height="90">'
            '<polyline points="30.00,50.00 60.00,30.00 105.00,40.00" fill="none" '
            'stroke="black"/><polyline points="30.00,50.00 75.00,60.00 105.00,40.00" '
            'fill="none" stroke="gray"/></svg>'
        )


class TestGeometricProfile:
    def test_torus(self):
        p = parse("1 2 / 2 1")
        prof = geometric_profile(build_polygon(p, _datum((1, 1), (1, -1))))
        assert prof.angles_pi == (2,)
        assert prof.marked_pi == 2

    def test_single_six_pi_cone(self):
        p = parse("1 2 3 4 / 4 3 2 1")
        prof = geometric_profile(build_polygon(p, find_suspension(p)))
        assert prof.angles_pi == (6,)

    def test_four_poles(self):
        p = parse("1 1 / 2 2 3 3")
        prof = geometric_profile(build_polygon(p, find_suspension(p)))
        assert prof.angles_pi == (1, 1, 1, 1)
        assert prof.marked_pi == 1

    @given(irreducible_genperms(max_d=5))
    @settings(max_examples=40, deadline=None)
    def test_witness_independent(self, p):
        base = geometric_profile(build_polygon(p, find_suspension(p)))
        rng = Random(11)
        for _ in range(2):
            other = geometric_profile(build_polygon(p, random_suspension(p, rng)))
            assert other == base

    @given(irreducible_genperms(max_d=5))
    @settings(max_examples=40, deadline=None)
    def test_total_angle_counts_interior_corners(self, p):
        prof = geometric_profile(build_polygon(p, find_suspension(p)))
        l, m = p.shape
        assert sum(prof.angles_pi) == l + m - 2
        assert all(a >= 1 for a in prof.angles_pi)


def _lp_irreducible(p):
    """Irreducibility by exact feasibility of the suspension conditions.

    Lengths: positive values with zero balance exist unless the balance is
    nonzero with one sign.  Heights: Fourier-Motzkin on the imaginary system.
    """
    balance = _occurrence_balance(p)
    if any(balance) and not (max(balance) > 0 > min(balance)):
        return False
    return feasible(p.d, *_imag_system(p))


def _random_table(rng, d):
    """Uniform pairing of ``2d`` cells and a uniform split point, reduced."""
    cells = list(range(2 * d))
    rng.shuffle(cells)
    table = [0] * (2 * d)
    for s in range(d):
        table[cells[2 * s]] = table[cells[2 * s + 1]] = s + 1
    split = rng.randint(1, 2 * d - 1)
    return reduce(table[:split], table[split:])


class TestIrreducibilityOracle:
    """The combinatorial criterion against exact feasibility of the LP."""

    def test_every_reduced_table_through_six_symbols(self):
        checked, mismatches = 0, []
        for d in range(2, 7):
            for key in all_reduced_tables(d):
                p = GenPerm(*rows_of(key))
                if is_irreducible(p) != _lp_irreducible(p):
                    mismatches.append(str(p))
                checked += 1
        assert checked == 123_669
        assert mismatches == []

    @pytest.mark.parametrize("d", [7, 8])
    def test_random_tables(self, d):
        rng = Random(f"oracle:{d}")
        mismatches = []
        for _ in range(5_000):
            p = _random_table(rng, d)
            if is_irreducible(p) != _lp_irreducible(p):
                mismatches.append(str(p))
        assert mismatches == []
