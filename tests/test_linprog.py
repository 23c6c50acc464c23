from fractions import Fraction
from math import gcd
from operator import mul
from random import Random

from hypothesis import given, settings, strategies as st

from rauzy import PermKind
from rauzy.classes import enumerate_irreducible
from rauzy.linprog import (
    _Contradiction,
    _norm,
    canonical_choice,
    feasible,
    solve,
)
from rauzy.suspension import _imag_system, _real_system


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


# The level-by-level pass that ``linprog`` ran before its rows went into
# buckets by highest variable: every step re-partitions all the rows it
# still holds, and the forward pass reads each level whole, skipping the
# rows that do not read its variable.  Kept as the oracle of the bucketed
# pass, which must give the same intervals, chooser calls and solutions.


def _oracle_combine(pos, neg, j):
    a = pos[0][j]
    b = -neg[0][j]
    coeffs = [b * p + a * n for p, n in zip(pos[0], neg[0])]
    return _norm(coeffs, b * pos[1] + a * neg[1])


def _oracle_eliminate(rows, j, eq=None):
    out = {r for r in rows if r[0][j] == 0}
    if eq is not None:
        lead = eq[0][j]
        for coeffs, const in rows:
            f = coeffs[j]
            if f:
                row = _norm(
                    [lead * a - f * b for a, b in zip(coeffs, eq[0])],
                    lead * const - f * eq[1],
                )
                if row is not None:
                    out.add(row)
        return out
    pos = [r for r in rows if r[0][j] > 0]
    neg = [r for r in rows if r[0][j] < 0]
    for p in pos:
        for n in neg:
            row = _oracle_combine(p, n, j)
            if row is not None:
                out.add(row)
    return out


def _oracle_system(ineqs, eq):
    rows = set()
    for coeffs, const in ineqs:
        row = _norm(coeffs, const)
        if row is not None:
            rows.add(row)
    if eq is None:
        return rows, None, -1
    halves = [_norm(eq[0], eq[1]), _norm([-a for a in eq[0]], -eq[1])]
    if halves[0] is None:
        return rows, None, -1
    rows.update(halves)
    pivot = max(k for k, a in enumerate(halves[0][0]) if a)
    return rows, max(halves, key=lambda r: r[0][pivot]), pivot


def _oracle_solve(nvars, ineqs, eq=None, choose=canonical_choice):
    """``solve`` on the level-by-level pass; False when infeasible."""
    try:
        rows, eq, pivot = _oracle_system(ineqs, eq)
        stack = []
        for j in range(nvars - 1, -1, -1):
            stack.append(rows)
            rows = _oracle_eliminate(rows, j, eq if j == pivot else None)
    except _Contradiction:
        return False
    nums = []
    scale = 1
    for j in range(nvars):
        lo = hi = None
        for coeffs, const in stack.pop():
            a = coeffs[j]
            if a == 0:
                continue
            rest = const * scale + sum(map(mul, coeffs, nums))
            if a > 0:
                if lo is None or -rest * lo[1] > lo[0] * a:
                    lo = (-rest, a)
            elif hi is None or rest * hi[1] < hi[0] * -a:
                hi = (rest, -a)
        assert lo is None or hi is None or lo[0] * hi[1] <= hi[0] * lo[1]
        if j == pivot:
            num, den = lo[0], lo[1] * scale
        else:
            num, den = choose(
                None if lo is None else (lo[0], lo[1] * scale),
                None if hi is None else (hi[0], hi[1] * scale),
            )
        g = gcd(num, den)
        num //= g
        den //= g
        if scale % den:
            grow = den // gcd(scale, den)
            nums = [v * grow for v in nums]
            scale *= grow
        nums.append(num * (scale // den))
    return scale, nums


def _seeded_chooser(seed, calls):
    """A seeded random pick in each interval; logs the bounds by value."""
    rng = Random(seed)

    def choose(lo, hi):
        calls.append(tuple(None if b is None else Fraction(*b) for b in (lo, hi)))
        if lo is None:
            lo = (rng.randint(-8, 0), 1) if hi is None else (hi[0] - rng.randint(0, 4) * hi[1], hi[1])
        if hi is None:
            hi = (lo[0] + rng.randint(0, 4) * lo[1], lo[1])
        r = rng.randint(0, 8)
        return (lo[0] * hi[1] * (8 - r) + hi[0] * lo[1] * r, 8 * lo[1] * hi[1])

    return choose


def _agrees_with_oracle(nvars, ineqs, eq, seed):
    """Both passes on one system: the same feasibility, the same canonical
    solution, and the same chooser calls and solution with a seeded chooser."""
    want = _oracle_solve(nvars, ineqs, eq)
    assert feasible(nvars, ineqs, eq) == (want is not False), (nvars, ineqs, eq)
    got = solve(nvars, ineqs, eq)
    assert got == (want or None), (nvars, ineqs, eq)
    calls, oracle_calls = [], []
    got = solve(nvars, ineqs, eq, _seeded_chooser(seed, calls))
    want = _oracle_solve(nvars, ineqs, eq, _seeded_chooser(seed, oracle_calls))
    assert got == (want or None) and calls == oracle_calls, (nvars, ineqs, eq)
    return got


def test_bucketed_pass_matches_level_oracle_on_random_systems():
    rng = Random("linprog:equalities")
    feasible_count = 0
    for index in range(3_000):
        nvars = rng.randint(1, 6)
        ineqs, eq = _random_system(rng, nvars, rng.randint(0, 6), rng.choice((1, 3, 9)))
        feasible_count += _agrees_with_oracle(nvars, ineqs, eq, index) is not None
    assert 500 <= feasible_count <= 2_500, feasible_count


def test_bucketed_pass_matches_level_oracle_on_suspension_systems():
    sizes = [(PermKind.IET, d) for d in range(2, 6)]
    sizes += [(PermKind.QUADRATIC, d) for d in range(3, 6)]
    tables = 0
    for kind, d in sizes:
        for p in enumerate_irreducible(d, kind):
            ims = _agrees_with_oracle(d, *_imag_system(p), str(p))
            assert ims is not None, p
            assert _agrees_with_oracle(d, *_real_system(p, ims[1]), str(p)) is not None, p
            tables += 1
    assert tables == 88 + 1_662
