"""Spin parity against a geometric oracle, and labels that need no geometry.

``spin_parity`` takes the Arf invariant of the form with ``q(c_i) = 1`` on
the mod-2 intersection form of the symbol curves.  The oracle here draws
each symbol curve in an explicit suspension polygon, reads
``q(c_i) = (turning number + 1) mod 2`` off its exact directions, and takes
the Arf invariant as the value ``q`` takes on most of the homology mod 2.
"""
import json
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from conftest import pl_value

import rauzy.linprog
import rauzy.suspension
from rauzy import (
    PermKind,
    build_polygon,
    component_label,
    enumerate_irreducible,
    find_suspension,
    parse,
    spin_parity,
    stratum,
)
from rauzy.classes import class_partition
from rauzy.invariants import _hyperelliptic_parity

REFERENCE = (
    Path(__file__).resolve().parents[1]
    / "benchmark"
    / "reference"
    / "invariants-classes.json"
)


def _winding_index(dirs: list[tuple[Fraction, Fraction]]) -> int:
    """Exact rotation number of a closed direction sequence.

    Every consecutive turn must be strictly less than a half-turn, which
    the curves of :func:`_loop_directions` guarantee.  Counts signed
    crossings of one reference ray chosen non-parallel to every direction.
    """

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    ref = None
    k = 0
    while ref is None:
        k += 1
        cand = (Fraction(1), Fraction(k))
        if all(cross(cand, u) != 0 for u in dirs):
            ref = cand
    total = 0
    n = len(dirs)
    for i in range(n):
        u = dirs[i]
        v = dirs[(i + 1) % n]
        c = cross(u, v)
        if c > 0:
            if cross(u, ref) > 0 and cross(ref, v) > 0:
                total += 1
        elif c < 0:
            if cross(v, ref) > 0 and cross(ref, u) > 0:
                total -= 1
    return total


def _loop_directions(poly, sym: int) -> list[tuple[Fraction, Fraction]]:
    """Directions along the closed curve of a translation-glued symbol.

    The curve rises vertically from the midpoint of the bottom edge to the
    curve halfway between the broken lines, follows that midline to below
    the top edge's midpoint, and rises vertically again; the gluing closes
    it up without a corner.  No two consecutive directions are opposite,
    as :func:`_winding_index` requires.
    """
    ti = poly.top_symbols.index(sym)
    bi = poly.bottom_symbols.index(sym)
    tx = (poly.top_points[ti][0] + poly.top_points[ti + 1][0]) / 2
    bx = (poly.bottom_points[bi][0] + poly.bottom_points[bi + 1][0]) / 2

    up = (Fraction(0), Fraction(1))
    dirs = [up]
    if bx != tx:
        xs = sorted(
            {pt[0] for pt in poly.top_points} | {pt[0] for pt in poly.bottom_points}
        )
        walk_x = [bx]
        if bx < tx:
            walk_x += [x for x in xs if bx < x < tx]
        else:
            walk_x += [x for x in reversed(xs) if tx < x < bx]
        walk_x.append(tx)
        mid_pts = [
            (x, (pl_value(poly.top_points, x) + pl_value(poly.bottom_points, x)) / 2)
            for x in walk_x
        ]
        for (x0, y0), (x1, y1) in zip(mid_pts, mid_pts[1:]):
            dirs.append((x1 - x0, y1 - y0))
        dirs.append(up)
    return dirs


def winding_spin_parity(p) -> int:
    """Spin parity from turning numbers of curves drawn in a polygon witness.

    ``q`` is extended to every sum of symbol curves by
    ``q(a + b) = q(a) + q(b) + a.b``; the Arf invariant is the value ``q``
    takes on more than half of them.  A tie would mean ``q`` does not
    vanish on the radical of the intersection form.
    """
    poly = build_polygon(p, find_suspension(p))
    d = p.d
    q = {
        s: (_winding_index(_loop_directions(poly, s)) + 1) % 2
        for s in range(1, d + 1)
    }
    top = {s: i for i, s in enumerate(p.top)}
    bottom = {s: i for i, s in enumerate(p.bottom)}
    ones = 0
    for mask in range(1 << d):
        syms = [s for s in range(1, d + 1) if mask >> (s - 1) & 1]
        value = sum(q[s] for s in syms) + sum(
            (top[a] < top[b]) != (bottom[a] < bottom[b])
            for a, b in combinations(syms, 2)
        )
        ones += value % 2
    assert 2 * ones != 1 << d, f"q does not vanish on the radical for {p}"
    return int(2 * ones > 1 << d)


def _all_even(p) -> bool:
    return all(k % 2 == 0 for k in stratum(p).orders)


def _reversal(d: int):
    return parse(
        " ".join(map(str, range(1, d + 1)))
        + " / "
        + " ".join(map(str, range(d, 0, -1)))
    )


class TestWindingOracle:
    def test_every_table_through_six_symbols(self):
        tables = [
            p
            for d in range(2, 7)
            for p in enumerate_irreducible(d, PermKind.IET)
            if _all_even(p)
        ]
        assert len(tables) == 424
        for p in tables:
            assert spin_parity(p) == winding_spin_parity(p), p

    def test_one_vertex_per_class_at_seven_symbols(self):
        even = [
            diag
            for diag in class_partition(enumerate_irreducible(7, PermKind.IET))
            if _all_even(diag.vertices[0])
        ]
        assert len(even) == 9
        for diag in even:
            p = diag.vertices[0]
            assert spin_parity(p) == winding_spin_parity(p), p


class TestReversal:
    """Kontsevich-Zorich: the hyperelliptic component of ``H(2g-2)``, and
    of ``H(g-1,g-1)`` for odd ``g``, has spin parity ``(g+1)//2 mod 2``.

    Labels rest on that formula (``_hyperelliptic_parity``); the reversal
    lies in the hyperelliptic component, so its spin parity checks it.
    """

    @pytest.mark.parametrize("d", [2, 4, 6, 8, 10, 12, 7, 11, 14, 16, 15])
    def test_parity(self, d):
        p = _reversal(d)
        st = stratum(p)
        g = st.genus
        expected = (2 * g - 2,) if d % 2 == 0 else (g - 1, g - 1)
        assert st.orders == expected
        assert spin_parity(p) == (g + 1) // 2 % 2 == _hyperelliptic_parity(g)


class TestNoGeometry:
    """Labels come from the table and its class alone: no LP, no polygon."""

    @pytest.fixture(autouse=True)
    def _forbid_geometry(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("component labels must not build geometry")

        monkeypatch.setattr(rauzy.suspension, "find_suspension", forbidden)
        monkeypatch.setattr(rauzy.suspension, "build_polygon", forbidden)
        monkeypatch.setattr(rauzy.linprog, "solve", forbidden)

    def test_spin_of_twelve_symbol_reversal(self):
        assert spin_parity(_reversal(12)) == 1

    def test_reference_labels(self):
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        assert len(reference) == 30
        for entry in reference:
            p = parse(entry["table"])
            assert component_label(p).value == entry["component"], entry["table"]

    def test_label_without_class_is_fast(self):
        p = parse("1 2 3 4 5 6 7 8 9 10 11 / 6 10 9 8 2 4 3 5 7 11 1")
        assert stratum(p).text == "H(6,2)"
        start = time.perf_counter()
        label = component_label(p)
        assert time.perf_counter() - start < 1.0
        assert label.value == "even-spin"
