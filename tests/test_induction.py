import tracemalloc
from fractions import Fraction
from math import factorial
from random import Random

import pytest
from hypothesis import assume, given, settings

from conftest import iet_perms, irreducible_genperms, rows_of

from rauzy import (
    PermKind,
    build_polygon,
    find_suspension,
    check_suspension,
    format_perm,
    is_irreducible,
    parse,
    r0,
    r1,
    random_suspension,
    rv_step,
)
from rauzy.classes import enumerate_irreducible
from rauzy.combinat import GenPerm, reduce
from rauzy.errors import (
    DimensionMismatch,
    InductionHalt,
    InvalidSuspension,
    RauzyError,
    UndefinedMove,
)
from rauzy.induction import _move0, _move1, _rotation, _successors, _table_move
from rauzy.suspension import SuspensionDatum


class TestMoves:
    def test_move0_worked_example(self):
        p = parse("1 2 3 4 3 / 2 4 5 5 1")
        assert format_perm(r0(p)) == "1 2 1 3 4 3 / 2 4 5 5"

    def test_move1_worked_example(self):
        p = parse("1 2 3 4 3 / 2 4 5 5 1")
        assert format_perm(r1(p)) == "1 2 3 2 4 / 3 4 5 5 1"

    def test_moves_on_reversal(self):
        p = parse("1 2 3 4 / 4 3 2 1")
        assert format_perm(r0(p)) == "1 2 3 4 / 4 1 3 2"
        assert format_perm(r1(p)) == "1 2 3 4 / 2 4 3 1"

    def test_torus_self_loops(self):
        p = parse("1 2 / 2 1")
        assert r0(p) == p
        assert r1(p) == p

    def test_undefined_moves(self):
        assert r1(parse("1 1 / 2 2 3 3")) is None
        assert r0(parse("1 1 2 2 / 3 3")) is None


def _move1_direct(p):
    """Mirrored statement of move 1, written independently of move 0.

    The last bottom symbol wins; the last top symbol is relocated next to
    the winner's other occurrence (after it within the top row, before it
    when moving down into the bottom row, which needs another symbol
    doubled in the top row).
    """
    top, bottom = p.top, p.bottom
    winner = bottom[-1]
    loser = top[-1]
    if winner in top[:-1]:
        k = top.index(winner)
        new_top = top[: k + 1] + (loser,) + top[k + 1 : -1]
        return reduce(new_top, bottom)
    if winner in bottom[:-1]:
        rest = top[:-1]
        if any(rest.count(s) == 2 for s in set(rest)):
            k = bottom.index(winner)
            new_bottom = bottom[:k] + (loser,) + bottom[k:]
            return reduce(rest, new_bottom)
    return None


def _move0_raw(top, bottom):
    """Raw move 0 on row tuples, as the module docstring states it; None
    when undefined.  The oracle of the byte kernel."""
    winner = top[-1]
    loser = bottom[-1]
    if winner == loser:
        return None
    if winner in bottom:
        k = bottom.index(winner)
        return top, bottom[: k + 1] + (loser,) + bottom[k + 1 : -1]
    rest = bottom[:-1]
    if len(set(rest)) < len(rest):
        k = top.index(winner)
        return top[:k] + (loser,) + top[k:], rest
    return None


def _move1_raw(top, bottom):
    moved = _move0_raw(bottom, top)
    return None if moved is None else (moved[1], moved[0])


def _renumbering(raw):
    """The ``old -> new`` map that numbers the symbols of ``raw`` by first
    appearance, top row first."""
    relabel = {}
    for row in raw:
        for s in row:
            relabel.setdefault(s, len(relabel) + 1)
    return relabel


def _rotation_map(d, x, m):
    """The renumbering ``x -> m`` with the symbols between shifted by one."""
    order = [s for s in range(1, d + 1) if s != x]
    order.insert(m - 1, x)
    return {s: k for k, s in enumerate(order, 1)}


@given(irreducible_genperms(max_d=5))
@settings(max_examples=150, deadline=None)
def test_move1_is_conjugate_of_move0(p):
    assert r1(p) == _move1_direct(p)


@given(irreducible_genperms(max_d=5))
@settings(max_examples=100, deadline=None)
def test_moves_preserve_irreducibility_and_size(p):
    for mv in (r0, r1):
        q = mv(p)
        if q is not None:
            assert q.d == p.d
            assert is_irreducible(q)


def test_trusted_kernel_matches_validated_reduction():
    # The byte kernels renumber their keys without validation; every table
    # they make through five symbols, and from every irreducible generalized
    # table of six, the vertices of the d=6 class searches, is what the
    # validating reduction makes of the raw move on rows, and the
    # renumbering is the single rotation x -> m of the loser x, the last
    # symbol of the losing row, asked of ``rotation`` at most once.
    from itertools import chain

    from rauzy.combinat import all_reduced_tables

    six = (p._key for p in enumerate_irreducible(6, PermKind.QUADRATIC))
    checked = 0
    for key in chain(*map(all_reduced_tables, range(1, 6)), six):
        rows = rows_of(key)
        d = len(key) // 2
        i = key.index(0)
        both = _successors(key)(key)
        for which, raw_move, move in ((0, _move0_raw, _move0), (1, _move1_raw, _move1)):
            raw = raw_move(*rows)
            got = _table_move(key, which)
            if raw is None:
                assert got is None and both[which] is None, rows
                continue
            calls = []

            def logged(x, m):
                calls.append((x, m))
                return _rotation(x, m)

            moved = move(key, i, logged)
            want = reduce(*raw)
            assert rows_of(moved) == (want.top, want.bottom), rows
            assert both[which] == got == moved, rows
            loser = rows[1 - which][-1]
            assert len(calls) <= 1 and all(x == loser != m for x, m in calls), rows
            x, m = calls[0] if calls else (loser, loser)
            assert _renumbering(raw) == _rotation_map(d, x, m), (rows, which)
            checked += 1
    assert checked > 10_000 + 28_642


def test_permutation_kernel_matches_renumbering_kernel():
    # The class search moves permutations by slices and one translation
    # table per bottom winner; on every reduced permutation through seven
    # symbols, reducible ones and undefined moves included, it gives the
    # renumbered key and the reduction of the raw move.
    from itertools import permutations

    undefined = 0
    for d in range(1, 8):
        top = tuple(range(1, d + 1))
        kernel = _successors(GenPerm(top, top)._key)
        assert kernel.__name__ == "perm_moves"
        for bottom in permutations(top):
            key = GenPerm(top, bottom)._key
            for which, raw_move in ((0, _move0_raw), (1, _move1_raw)):
                want = _table_move(key, which)
                assert kernel(key)[which] == want, (bottom, which)
                raw = raw_move(top, bottom)
                assert (raw is None) == (want is None)
                if raw is not None:
                    assert rows_of(want) == (top, reduce(*raw).bottom)
                undefined += want is None
    assert undefined == 2 * sum(factorial(d - 1) for d in range(1, 8))


def test_one_body_kernel_matches_the_single_moves():
    # The generalized kernel of a class search makes both moves with the
    # rules of single moves; on every irreducible generalized table through
    # six symbols, the shapes l <= m of the pruned search and their row
    # exchanges, it gives what the validating reduction makes of the raw
    # moves on rows.
    from rauzy.combinat import _irreducible_tables, _reduced

    counts = {}
    for d in range(3, 7):
        keys = set()
        for key in _irreducible_tables(d):
            i = key.index(0)
            keys.update((key, _reduced(key[i + 1 :] + b"\0" + key[:i])))
        kernel = _successors(min(keys))
        assert kernel.__name__ == "table_moves"
        for key in keys:
            rows = rows_of(key)
            want = tuple(
                None if raw is None else reduce(*raw)._key
                for raw in (_move0_raw(*rows), _move1_raw(*rows))
            )
            assert kernel(key) == want, rows
        counts[d] = len(keys)
    assert counts == {3: 4, 4: 86, 5: 1_572, 6: 28_642}


def test_every_route_moves_through_the_single_rules(monkeypatch):
    # One rule per move on generalized tables: a class search, r0 and r1,
    # and the induction step all reach _move0 and _move1.
    import rauzy.induction as induction
    from rauzy.classes import rauzy_class

    calls = {}
    for name in ("_move0", "_move1"):
        rule = getattr(induction, name)

        def counted(*args, _rule=rule, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _rule(*args)

        monkeypatch.setattr(induction, name, counted)

    p = parse("1 2 3 4 3 / 2 4 5 5 1")
    assert len(rauzy_class(p)) > 1
    assert calls["_move0"] > 0 and calls["_move1"] > 0
    calls.clear()
    assert r0(p) is not None and r1(p) is not None
    assert calls == {"_move0": 1, "_move1": 1}
    calls.clear()
    q, zeta = p, random_suspension(p, Random(1))
    for _ in range(20):
        q, zeta = rv_step(q, zeta)
    assert calls["_move0"] > 0 and calls["_move1"] > 0
    assert sum(calls.values()) == 20, calls


def test_kernel_choice_follows_the_kind():
    from rauzy.combinat import GenPerm, all_reduced_tables

    for d in range(1, 5):
        for key in all_reduced_tables(d):
            iet = GenPerm._of(key).kind is PermKind.IET
            kernel = _successors(key)
            assert kernel.__name__ == ("perm_moves" if iet else "table_moves")


def test_symbol_limit_is_a_typed_error():
    # A table is its vertex key, one symbol per byte: 255 symbols move, and
    # a table of 256 raises the typed error that names the limit when it is
    # made, whether from rows, from text or by renumbering.
    from rauzy.errors import TooManySymbols

    top = tuple(range(1, 256))
    largest = GenPerm(top, top[::-1])
    assert r0(largest).d == r1(largest).d == 255
    iet = (top + (256,), (256,) + top[::-1])
    quad = ((1,) + top, top[:0:-1] + (256, 256))
    for rows in (iet, quad):
        text = " / ".join(" ".join(map(str, row)) for row in rows)
        limit = "at most 255 symbols; this table has 256"
        for make in (lambda: GenPerm(*rows), lambda: reduce(*rows), lambda: parse(text)):
            with pytest.raises(TooManySymbols, match=limit):
                make()
    assert issubclass(TooManySymbols, RauzyError)


@given(iet_perms(max_d=6))
@settings(max_examples=60, deadline=None)
def test_iet_moves_always_defined(p):
    assume(is_irreducible(p))
    assert r0(p) is not None and r1(p) is not None
    assert r0(p).shape == p.shape == r1(p).shape


def _datum(*pairs):
    return SuspensionDatum(tuple((Fraction(a), Fraction(b)) for a, b in pairs))


def _run(p, zeta, max_steps):
    """Up to ``max_steps`` ``rv_step`` moves: the (table, vector) pairs and whether it halted."""
    steps = []
    for _ in range(max_steps):
        try:
            p, zeta = rv_step(p, zeta)
        except InductionHalt:
            return steps, True
        steps.append((p, zeta))
    return steps, False


def _lengths(zeta):
    return tuple(re for re, _ in zeta.values)


class TestClassify:
    """The move ``rv_step`` selects from the two rightmost real parts."""

    def test_unequal_lengths(self):
        # The top right symbol is 3, the bottom right one 1; the shorter
        # length is subtracted from the longer one.
        p = parse("1 2 3 / 3 2 1")
        assert r0(p) != r1(p)
        q, z = rv_step(p, _datum((2, 1), (1, 0), (1, -1)))
        assert q == r1(p) and sorted(_lengths(z)) == [1, 1, 1]
        q, z = rv_step(p, _datum((1, 1), (1, 0), (2, -1)))
        assert q == r0(p) and sorted(_lengths(z)) == [1, 1, 1]

    def test_equal_lengths_halt(self):
        z = _datum((1, 2), (1, -1))
        with pytest.raises(InductionHalt):
            rv_step(parse("1 2 / 2 1"), z)

    def test_generalized_halt_on_equality(self):
        # compared symbols are 2 and 3; equal lengths there halt
        p = parse("1 1 2 / 2 3 3")
        z = _datum((2, 1), (2, -2), (2, 1))
        assert check_suspension(p, z)
        with pytest.raises(InductionHalt):
            rv_step(p, z)

    def test_dimension_mismatch(self):
        p = parse("1 2 / 2 1")
        for z in (_datum((1, 1)), _datum((1, 1), (1, -1), (1, 1))):
            with pytest.raises(DimensionMismatch):
                rv_step(p, z)

    def test_unbalanced_rows_rejected(self):
        # Only the row sums of the real parts differ: 3 on top, 5 below.
        with pytest.raises(InvalidSuspension):
            rv_step(parse("1 1 2 / 2 3 3"), _datum((1, 1), (1, -2), (2, 1)))

    def test_row_balance_shields_undefined_moves(self):
        # At this vertex move 0 is undefined, and indeed the balance
        # relation never lets a vector select it: the bottom-right
        # interval is forced to be the longer one.
        p = parse("1 1 2 2 / 3 3")
        assert r0(p) is None
        rng = Random(7)
        vectors = [find_suspension(p)] + [random_suspension(p, rng) for _ in range(20)]
        for z in vectors:
            q, _ = rv_step(p, z)
            assert q == r1(p)

    @given(irreducible_genperms(max_d=5))
    @settings(max_examples=60, deadline=None)
    def test_selected_moves_are_always_defined(self, p):
        z = find_suspension(p)
        a, b = p.top[-1], p.bottom[-1]
        try:
            q, _ = rv_step(p, z)
        except InductionHalt:
            assert a == b or z.re(a) == z.re(b)
            return
        move = r0 if z.re(a) > z.re(b) else r1
        assert move(p) is not None and q == move(p)


class TestLengthTypes:
    @pytest.mark.parametrize("lengths", [(0.7, 0.3), (1, 0.5), ("1", 1), (1, None)])
    def test_rejects_non_rational_lengths(self, lengths):
        with pytest.raises(InvalidSuspension):
            SuspensionDatum(((lengths[0], Fraction(1)), (lengths[1], Fraction(-1))))

    def test_int_and_fraction_lengths_accepted(self):
        p = parse("1 2 / 2 1")
        third = Fraction(1, 3)
        _, z = rv_step(p, SuspensionDatum(((1, 1), (2, -1))))
        assert _lengths(z) == (1, 1)
        _, z = rv_step(p, SuspensionDatum(((third, 1), (2 * third, -1))))
        assert _lengths(z) == (third, third)
        steps, halted = _run(p, SuspensionDatum(((3, 1), (1, -1))), 5)
        assert halted and _lengths(steps[-1][1]) == (1, 1)


class TestOrbit:
    def test_euclidean_behaviour_on_torus(self):
        p = parse("1 2 / 2 1")
        steps, halted = _run(p, _datum((2, 1), (1, -1)), 10)
        assert halted and len(steps) == 1
        q, z = steps[0]
        assert q == p and z.values == ((1, 2), (1, -1))

    def test_zero_step_halt(self):
        steps, halted = _run(parse("1 2 / 2 1"), _datum((1, 1), (1, -1)), 10)
        assert halted and not steps

    @given(irreducible_genperms(max_d=4))
    @settings(max_examples=40, deadline=None)
    def test_total_length_strictly_decreases(self, p):
        # Each step restricts to a shorter interval.
        z = find_suspension(p)
        steps, _ = _run(p, z, 25)
        totals = [sum(z.re(s) for s in p.top)]
        for q, zq in steps:
            totals.append(sum(zq.re(s) for s in q.top))
        assert all(b < a for a, b in zip(totals, totals[1:]))


class TestRvStep:
    def test_torus_step(self):
        p = parse("1 2 / 2 1")
        z = SuspensionDatum(
            ((Fraction(3), Fraction(1)), (Fraction(1), Fraction(-1)))
        )
        q, z2 = rv_step(p, z)
        assert q == p
        assert z2.values == (
            (Fraction(2), Fraction(2)),
            (Fraction(1), Fraction(-1)),
        )

    def test_halt_on_equal_lengths(self):
        p = parse("1 2 / 2 1")
        z = SuspensionDatum(
            ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1)))
        )
        with pytest.raises(InductionHalt):
            rv_step(p, z)

    @given(irreducible_genperms(max_d=4))
    @settings(max_examples=30, deadline=None)
    def test_steps_preserve_suspension(self, p):
        rng = Random(3)
        z = random_suspension(p, rng)
        current = p
        for _ in range(100):
            try:
                current, z = rv_step(current, z)
            except InductionHalt:
                break
            assert check_suspension(current, z)

    def test_steps_are_over_their_tables(self, monkeypatch):
        # A step makes a suspension vector over the moved table, so rv_step
        # marks its output as over that key and the next step takes it
        # unchecked.  check_suspension, which checks in full every time, is
        # the oracle of every output: every irreducible generalized table
        # through five symbols and every permutation through six, up to 100
        # steps from a random vector.
        import rauzy.suspension

        valid = rauzy.suspension._valid_parts
        calls = []

        def counting(p, zeta):
            calls.append(p)
            return valid(p, zeta)

        tables = steps = 0
        for kind, most in ((PermKind.QUADRATIC, 5), (PermKind.IET, 6)):
            for d in range(2, most + 1):
                for p in enumerate_irreducible(d, kind):
                    z = random_suspension(p, Random(d))
                    assert z._over == p._key
                    q = p
                    monkeypatch.setattr(rauzy.suspension, "_valid_parts", counting)
                    for _ in range(100):
                        try:
                            q, z = rv_step(q, z)
                        except InductionHalt:
                            break
                        assert z._over == q._key
                        steps += 1
                    monkeypatch.setattr(rauzy.suspension, "_valid_parts", valid)
                    assert check_suspension(q, z)
                    tables += 1
        assert calls == []  # no step checked its input again
        assert tables > 2000 and steps > 70000, (tables, steps)

    def test_vectors_over_other_tables_are_checked(self):
        # the vector a step made over q, passed with another table of the
        # same size, is checked in full over that table
        p = parse("1 1 / 2 3 2 4 3 4")
        q, z = rv_step(p, random_suspension(p, Random(5)))
        assert z._over == q._key and check_suspension(q, z)
        others = [r for r in enumerate_irreducible(p.d, PermKind.QUADRATIC) if r != q]
        invalid = [r for r in others if not check_suspension(r, z)]
        valid = [r for r in others if check_suspension(r, z)]
        assert invalid and valid
        for r in invalid:
            with pytest.raises(InvalidSuspension):
                rv_step(r, z)
            with pytest.raises(InvalidSuspension):
                build_polygon(r, z)
        for r in valid:
            try:
                r_next, moved = rv_step(r, z)
            except InductionHalt:
                continue
            assert moved._over == r_next._key and check_suspension(r_next, moved)
        with pytest.raises(DimensionMismatch):
            rv_step(parse("1 2 / 2 1"), z)
        # a vector the caller builds is over no table, and checked
        built = SuspensionDatum(z.values)
        assert built == z and built._over is None
        assert rv_step(q, built) == rv_step(q, z)
        with pytest.raises(InvalidSuspension):
            rv_step(invalid[0], built)

    def test_long_runs_keep_their_inputs_and_agree_with_fractions(self):
        # Two random vectors, the second over the denominator 7: each step
        # leaves its input as it was and equals the step rebuilt from the
        # input's values in Fraction arithmetic.
        p = parse("1 1 / 2 2 3 4 5 3 5 6 4 6")
        rng = Random(1)
        first, second = (random_suspension(p, rng) for _ in range(2))
        second = SuspensionDatum(tuple((re / 7, im / 7) for re, im in second.values))
        assert second._parts[0] == 7
        checked = 0
        for start in (first, second):
            q, z = p, start
            for _ in range(200):
                parts, values, text = z._parts, z.values, str(z)
                try:
                    q_next, z_next = rv_step(q, z)
                except InductionHalt:
                    break
                assert z._parts is parts and z.values == values and str(z) == text
                q_oracle, values_oracle = _fraction_rv_step(q, values)
                oracle = SuspensionDatum(values_oracle)
                assert q_next == q_oracle
                assert z_next == oracle and hash(z_next) == hash(oracle)
                assert z_next._parts[0] == start._parts[0]  # the denominator stays
                q, z = q_next, z_next
                checked += 1
        assert checked > 200, checked


def _fraction_rv_step(p, values):
    """One induction step on ``Fraction`` pairs.

    The route ``rv_step`` took before it kept a vector's integer parts:
    subtract the shorter of the two rightmost pairs from the longer one in
    ``Fraction`` arithmetic and renumber the pairs like the table.  Kept as
    the oracle of the integer route.
    """
    if not check_suspension(p, SuspensionDatum(values)):
        raise InvalidSuspension(f"not a suspension vector over {p}")
    a = p.top[-1]
    b = p.bottom[-1]
    if a == b:
        raise InductionHalt("rightmost symbols coincide")
    if values[a - 1][0] == values[b - 1][0]:
        raise InductionHalt("rightmost lengths are exactly equal")
    values = list(values)
    which = 0 if values[a - 1][0] > values[b - 1][0] else 1
    longer, shorter = (a, b) if which == 0 else (b, a)
    values[longer - 1] = (
        values[longer - 1][0] - values[shorter - 1][0],
        values[longer - 1][1] - values[shorter - 1][1],
    )
    raw = (_move0_raw if which == 0 else _move1_raw)(p.top, p.bottom)
    if raw is None:
        raise UndefinedMove(f"move {which} undefined at {p}")
    relabel = _renumbering(raw)
    rows = tuple(tuple(relabel[s] for s in row) for row in raw)
    out = [None] * p.d
    for old, new in relabel.items():
        out[new - 1] = values[old - 1]
    return GenPerm(*rows), tuple(out)


def _ending(step, p, zeta):
    """``step(p, zeta)``, or the type and message of the error it raises."""
    try:
        return step(p, zeta), None
    except RauzyError as exc:
        return None, (type(exc), str(exc))


def test_integer_step_matches_fraction_oracle():
    # Both routes run from the canonical and from a random vector of every
    # irreducible table through five symbols; the canonical vectors have
    # denominators above 1, the random ones are integers.
    steps = 0
    endings = set()
    for d in range(2, 6):
        for kind in (PermKind.IET, PermKind.QUADRATIC):
            for p in enumerate_irreducible(d, kind):
                rng = Random(f"two-route:{format_perm(p)}")
                for start in (find_suspension(p), random_suspension(p, rng)):
                    q, z = p, start
                    q_oracle, values = p, start.values
                    for _ in range(50):
                        got, error = _ending(rv_step, q, z)
                        want, oracle_error = _ending(_fraction_rv_step, q_oracle, values)
                        assert error == oracle_error, (p, start)
                        if error is not None:
                            endings.add(error[0])
                            break
                        (q, z), (q_oracle, values) = got, want
                        oracle = SuspensionDatum(values)
                        assert q == q_oracle, (p, start)
                        assert z.values == values, (p, start)
                        assert all(type(v) is Fraction for pair in z.values for v in pair)
                        assert str(z) == str(oracle) and z == oracle
                        assert hash(z) == hash(oracle)
                        steps += 1
    assert endings == {InductionHalt}
    assert steps > 50_000, steps


def test_orbit_memory():
    # 200 steps on a generalized table keep 200 tables and vectors alive;
    # a vector is one tuple of integers: its denominator and its parts.
    p = parse("1 1 / 2 2 3 4 5 3 5 6 4 6")
    z = random_suspension(p, Random(1))
    tracemalloc.start()
    try:
        q, kept = p, []
        for _ in range(200):
            q, z = rv_step(q, z)
            kept.append((q, z))
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept) == 200
    assert current < 140 * 1024, current
