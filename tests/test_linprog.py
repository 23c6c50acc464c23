from fractions import Fraction
from math import gcd
from random import Random

from hypothesis import given, settings, strategies as st

from rauzy.linprog import (
    _Contradiction,
    _norm,
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
    eq = ((1, 1), -4)
    sol = solve(2, rows, eq)
    assert sol is not None
    assert _residuals([eq], sol) == [0]
    assert all(r >= 0 for r in _residuals(rows, sol))


def test_equality_contradiction():
    for eq in (((0, 0), 3), ((0, 0), -3)):
        assert not feasible(2, [], eq)
        assert solve(2, [], eq) is None
    assert feasible(2, [], ((0, 0), 0))


def test_canonical_prefers_zero():
    # the chooser takes and returns (num, den) pairs; compare them by value
    assert Fraction(*canonical_choice(None, None)) == 0
    assert Fraction(*canonical_choice((-3, 1), (7, 1))) == 0
    assert Fraction(*canonical_choice((2, 1), None)) == 2
    assert Fraction(*canonical_choice(None, (-5, 1))) == -5


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
    sol = solve(3, rows, eq)
    assert (sol is not None) == feasible(3, rows, eq)
    if sol is not None:
        assert _residuals([eq], sol) == [0]
        assert all(r >= 0 for r in _residuals(rows, sol))


def _fraction_reduce_equalities(nvars, ineqs, eq):
    """Solve the equality for its highest variable in ``Fraction`` arithmetic.

    The route the Gauss-Jordan stage of ``linprog`` took before integer
    rows and before the equality was substituted inside the elimination;
    kept as an oracle.  Returns the inequality rows over the other
    variables, gcd-normalised; raises ``_Contradiction`` when the equality
    or an inequality is a constant contradiction.
    """
    var, expr, c0 = -1, None, Fraction(0)
    if eq is not None:
        coeffs, const = eq
        var = max((k for k in range(nvars) if coeffs[k]), default=-1)
        if var < 0 and const != 0:
            raise _Contradiction
        if var >= 0:
            # x[var] = sum(expr[k] * x[k]) + c0
            expr = [Fraction(-a, coeffs[var]) for a in coeffs]
            c0 = Fraction(-const, coeffs[var])
    free = [k for k in range(nvars) if k != var]
    out_rows = []
    for coeffs, const in ineqs:
        acc = [Fraction(a) for a in coeffs]
        c = Fraction(const)
        if var >= 0 and acc[var]:
            f = acc[var]
            acc = [a + f * e for a, e in zip(acc, expr)]
            c += f * c0
        packed = [acc[v] for v in free]
        denom = 1
        for val in packed + [c]:
            denom = denom * val.denominator // gcd(denom, val.denominator)
        row = _norm([int(v * denom) for v in packed], int(c * denom))
        if row is not None:
            out_rows.append(row)
    return out_rows, free


def _oracle_feasible(nvars, ineqs, eq):
    try:
        rows, free = _fraction_reduce_equalities(nvars, ineqs, eq)
    except _Contradiction:
        return False
    return feasible(len(free), rows)


def _random_system(rng, nvars, n_ineqs, span):
    def row():
        return (tuple(rng.randint(-span, span) for _ in range(nvars)), rng.randint(-6, 6))

    return [row() for _ in range(n_ineqs)], row() if rng.random() < 0.5 else None


def test_integer_elimination_matches_fraction_oracle():
    rng = Random("linprog:equalities")
    branches = {(has_eq, ok): 0 for has_eq in (False, True) for ok in (False, True)}
    for _ in range(3_000):
        nvars = rng.randint(1, 6)
        ineqs, eq = _random_system(rng, nvars, rng.randint(0, 6), rng.choice((1, 3, 9)))
        want = _oracle_feasible(nvars, ineqs, eq)
        assert feasible(nvars, ineqs, eq) == want, (nvars, ineqs, eq)
        sol = solve(nvars, ineqs, eq)
        assert (sol is not None) == want, (nvars, ineqs, eq)
        if sol is not None:
            assert all(r >= 0 for r in _residuals(ineqs, sol)), (nvars, ineqs, eq)
            if eq is not None:
                assert _residuals([eq], sol) == [0], (nvars, ineqs, eq)
        branches[eq is not None, want] += 1
    assert min(branches.values()) >= 100, branches
