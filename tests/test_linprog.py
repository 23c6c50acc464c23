from fractions import Fraction
from math import gcd
from random import Random

from hypothesis import given, settings, strategies as st

from rauzy.linprog import (
    _Contradiction,
    _norm,
    _reduce_equalities,
    canonical_choice,
    feasible,
    solve,
)


def _residuals(rows, solution):
    """Each row's value at ``nums / scale``, times the positive ``scale``."""
    scale, nums = solution
    assert scale > 0
    return [sum(c * n for c, n in zip(coeffs, nums)) + const * scale for coeffs, const in rows]


def test_infeasible_pair():
    # x >= 1 and -x >= 0
    rows = [((1,), -1), ((-1,), 0)]
    assert not feasible(1, rows)
    assert solve(1, rows) is None


def test_simple_interval():
    rows = [((1,), -1), ((-1,), 5)]  # 1 <= x <= 5
    assert feasible(1, rows)
    assert solve(1, rows) == (1, [1])


def test_equality_substitution():
    # x + y = 4, x >= 1, y >= 1
    rows = [((1, 0), -1), ((0, 1), -1)]
    eqs = [((1, 1), -4)]
    sol = solve(2, rows, eqs)
    assert sol is not None
    assert _residuals(eqs, sol) == [0]
    assert all(r >= 0 for r in _residuals(rows, sol))


def test_equality_contradiction():
    eqs = [((0, 0), 3)]
    assert not feasible(2, [], eqs)
    assert solve(2, [], eqs) is None


def test_canonical_prefers_zero():
    assert canonical_choice(None, None) == 0
    assert canonical_choice(Fraction(-3), Fraction(7)) == 0
    assert canonical_choice(Fraction(2), None) == 2
    assert canonical_choice(None, Fraction(-5)) == -5


@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(-4, 4), min_size=3, max_size=3).map(tuple),
            st.integers(-6, 6),
        ),
        max_size=6,
    )
)
@settings(max_examples=200, deadline=None)
def test_solution_satisfies_all_rows(rows):
    sol = solve(3, rows)
    if sol is None:
        assert not feasible(3, rows)
    else:
        assert feasible(3, rows)
        assert all(r >= 0 for r in _residuals(rows, sol))


@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(tuple),
            st.integers(-5, 5),
        ),
        max_size=4,
    ),
    st.tuples(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(tuple),
        st.integers(-5, 5),
    ),
)
@settings(max_examples=150, deadline=None)
def test_solution_satisfies_equalities(rows, eq):
    sol = solve(3, rows, [eq])
    if sol is not None:
        assert _residuals([eq], sol) == [0]
        assert all(r >= 0 for r in _residuals(rows, sol))


def _fraction_reduce_equalities(nvars, ineqs, eqs):
    """Gaussian elimination of the equality rows in ``Fraction`` arithmetic.

    The route ``linprog._reduce_equalities`` took before it eliminated on
    integer rows; kept as the oracle of the integer route.  Pivot
    substitutions are ``(var, coeffs_over_free, const)`` with
    ``x[var] = sum(c*x_free) + const``.
    """
    work = [([Fraction(a) for a in coeffs], Fraction(const)) for coeffs, const in eqs]
    pivots = []
    for coeffs, const in work:
        for done_var, expr, c0 in pivots:
            f = coeffs[done_var]
            if f:
                coeffs[done_var] = Fraction(0)
                for k in range(nvars):
                    coeffs[k] += f * expr[k]
                const += f * c0
        var = max((k for k in range(nvars) if coeffs[k]), default=-1)
        if var < 0:
            if const != 0:
                raise _Contradiction
            continue
        lead = coeffs[var]
        expr_row = [-coeffs[k] / lead for k in range(nvars)]
        expr_row[var] = Fraction(0)
        pivots.append((var, expr_row, -const / lead))
    for i in range(len(pivots) - 1, -1, -1):
        var, expr, c0 = pivots[i]
        for j in range(i + 1, len(pivots)):
            var_j, expr_j, c0_j = pivots[j]
            f = expr[var_j]
            if f:
                expr[var_j] = Fraction(0)
                for k in range(nvars):
                    expr[k] += f * expr_j[k]
                c0 += f * c0_j
        pivots[i] = (var, expr, c0)
    pivot_vars = {var for var, _, _ in pivots}
    free = [k for k in range(nvars) if k not in pivot_vars]
    out_rows = []
    for coeffs, const in ineqs:
        acc = [Fraction(a) for a in coeffs]
        c = Fraction(const)
        for var, expr, c0 in pivots:
            f = acc[var]
            if f:
                acc[var] = Fraction(0)
                for k in range(nvars):
                    acc[k] += f * expr[k]
                c += f * c0
        packed = [acc[v] for v in free]
        denom = 1
        for val in packed + [c]:
            denom = denom * val.denominator // gcd(denom, val.denominator)
        row = _norm([int(v * denom) for v in packed], int(c * denom))
        if row is not None:
            out_rows.append(row)
    frozen = [(var, tuple(expr[v] for v in free), c0) for var, expr, c0 in pivots]
    return out_rows, free, frozen


def _outcome(reduce, nvars, ineqs, eqs):
    try:
        return reduce(nvars, ineqs, eqs)
    except _Contradiction:
        return "contradiction"


def _random_system(rng, nvars, n_ineqs, n_eqs, span):
    def row():
        return (tuple(rng.randint(-span, span) for _ in range(nvars)), rng.randint(-6, 6))

    return [row() for _ in range(n_ineqs)], [row() for _ in range(n_eqs)]


def test_integer_elimination_matches_fraction_oracle():
    rng = Random("linprog:equalities")
    branches = {n: 0 for n in range(4)}
    for _ in range(3_000):
        nvars = rng.randint(1, 6)
        n_eqs = rng.randint(0, 3)
        ineqs, eqs = _random_system(rng, nvars, rng.randint(0, 6), n_eqs, rng.choice((1, 3, 9)))
        got = _outcome(_reduce_equalities, nvars, ineqs, eqs)
        want = _outcome(_fraction_reduce_equalities, nvars, ineqs, eqs)
        if want == "contradiction":
            assert got == want, (nvars, ineqs, eqs)
            continue
        rows, free, pivots = got
        assert (rows, free) == want[:2], (nvars, ineqs, eqs)
        substitutions = [
            (var, tuple(Fraction(-c, lead) for c in coeffs), Fraction(-const, lead))
            for var, coeffs, const, lead in pivots
        ]
        assert substitutions == want[2], (nvars, ineqs, eqs)
        branches[len(pivots)] += 1
    assert min(branches.values()) >= 100, branches


def test_solve_satisfies_several_equalities():
    rng = Random("linprog:solve")
    solved = 0
    for _ in range(500):
        nvars = rng.randint(2, 5)
        ineqs, eqs = _random_system(rng, nvars, rng.randint(0, 5), rng.randint(2, 3), 3)
        sol = solve(nvars, ineqs, eqs)
        assert (sol is not None) == feasible(nvars, ineqs, eqs)
        if sol is None:
            continue
        solved += 1
        assert all(r == 0 for r in _residuals(eqs, sol))
        assert all(r >= 0 for r in _residuals(ineqs, sol))
    assert solved >= 100

