r"""
Suspension vectors over generalized permutations and their polygons.

A suspension vector assigns to each symbol ``k`` a complex number
``zeta_k = lambda_k + i tau_k`` with exact rational parts, subject to four
conditions:

1. every real part is positive (these are the interval lengths),
2. the partial sums along the top row have positive imaginary part
   (all but the last),
3. the partial sums along the bottom row have negative imaginary part
   (all but the last),
4. the full top sum equals the full bottom sum.

Feasibility of this system depends only on the permutation; a permutation
admitting a suspension vector is called irreducible.  It is decided
combinatorially on the two rows by :func:`rauzy.combinat.irreducible_rows`,
which implements the reducibility criterion of Boissy-Lanneau ("Dynamics and
geometry of the Rauzy-Veech induction for quadratic differentials", Ergodic
Theory Dynam. Systems 29 (2009), Thm. 3.2).  Witnesses come from the real
and imaginary parts, which decouple into two independent linear systems
solved exactly (see :mod:`rauzy.linprog`); a table called irreducible whose
systems have no solution raises ``RuntimeError``.

Concatenating the ``zeta`` values of each row from a common origin draws
two broken lines with a common endpoint.  The closed region between them
is the suspension polygon; each symbol labels two of its edges, glued by a
translation when the occurrences lie in different rows and by a half-turn
when they lie in the same row.  :func:`geometric_profile` reads the cone
angles of the glued surface off this polygon by following the edge
identifications around every vertex and counting vertical directions in
each corner sector, which is exact in rational arithmetic because no edge
is ever vertical.

Witnesses returned by :func:`find_suspension` always yield an embedded
polygon.  The slack-normalised imaginary system already keeps every
interior vertex of the top line at height >= 1 and of the bottom line at
height <= -1; the only way the lines can then cross is near the common
right endpoint, when the total height is nonzero and the line rising (or
falling) to it overtakes the other line's last vertex.  One extra linear
constraint on the lengths, forcing that crossing of level zero to happen
to the right of the other line's last vertex, rules this out, and it is
always satisfiable inside the length cone because its favourable
coefficient strictly dominates.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from random import Random
from typing import Optional

from . import linprog
from .combinat import GenPerm, irreducible_rows
from .errors import DegeneratePolygon, DimensionMismatch, InvalidSuspension

Point = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class SuspensionDatum:
    """Vector of complex numbers with exact rational parts, one per symbol."""

    values: tuple[tuple[Fraction, Fraction], ...]

    @property
    def d(self) -> int:
        return len(self.values)

    def re(self, symbol: int) -> Fraction:
        return self.values[symbol - 1][0]

    def im(self, symbol: int) -> Fraction:
        return self.values[symbol - 1][1]

    def __str__(self) -> str:
        parts = [f"{re}{'+' if im >= 0 else ''}{im}i" for re, im in self.values]
        return "(" + ", ".join(parts) + ")"


def _occurrence_balance(p: GenPerm) -> list[int]:
    """Per symbol: (top occurrences) - (bottom occurrences), in -2..2."""
    c = [0] * p.d
    for s in p.top:
        c[s - 1] += 1
    for s in p.bottom:
        c[s - 1] -= 1
    return c


def _imag_system(p: GenPerm) -> tuple[list, list]:
    """Inequality/equality rows for the imaginary parts (tau variables).

    Strict inequalities are normalised to closed ones with slack 1, which
    is equivalent by homogeneity; witnesses therefore keep every interior
    vertex at distance >= 1 from the horizontal axis.
    """
    d = p.d
    ineqs = []
    acc = [0] * d
    for s in p.top[:-1]:
        acc[s - 1] += 1
        ineqs.append((tuple(acc), -1))
    acc = [0] * d
    for s in p.bottom[:-1]:
        acc[s - 1] -= 1
        ineqs.append((tuple(acc), -1))
    eqs = []
    balance = _occurrence_balance(p)
    if any(balance):
        eqs.append((tuple(balance), 0))
    return ineqs, eqs


def _real_system(p: GenPerm, ims: Optional[list[Fraction]] = None) -> tuple[list, list]:
    """Inequality/equality rows for the real parts (length variables).

    Given the imaginary parts, one fold-guard row is added when the total
    height is nonzero: the edge climbing (or descending) to the common
    right endpoint must cross level zero no earlier than the other line's
    last interior vertex.  Together with the unit margins on interior
    heights this makes the polygon embedded.
    """
    d = p.d
    ineqs = []
    for k in range(d):
        row = [0] * d
        row[k] = 1
        ineqs.append((tuple(row), -1))
    eqs = []
    balance = _occurrence_balance(p)
    if any(balance):
        eqs.append((tuple(balance), 0))
    if ims is not None:
        total = sum(ims[s - 1] for s in p.top)
        a = p.top[-1]
        b = p.bottom[-1]
        if total > 0:
            dip = -sum(ims[s - 1] for s in p.bottom[:-1])  # >= 1
            row = [Fraction(0)] * d
            row[a - 1] += total + dip
            row[b - 1] -= total
            ineqs.append(_integral_row(row))
        elif total < 0:
            rise = sum(ims[s - 1] for s in p.top[:-1])  # >= 1
            row = [Fraction(0)] * d
            row[b - 1] += -total + rise
            row[a - 1] -= -total
            ineqs.append(_integral_row(row))
    return ineqs, eqs


def _integral_row(coeffs: list[Fraction], const: Fraction = Fraction(0)):
    denom = 1
    for v in list(coeffs) + [const]:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    return (tuple(int(v * denom) for v in coeffs), int(const * denom))


def has_suspension(p: GenPerm) -> bool:
    """Whether the suspension conditions over ``p`` are feasible."""
    return irreducible_rows(p.top, p.bottom)


def _assemble(p: GenPerm, res: list[Fraction], ims: list[Fraction]) -> SuspensionDatum:
    datum = SuspensionDatum(tuple(zip(res, ims)))
    if not check_suspension(p, datum):
        raise RuntimeError(f"solver produced an invalid suspension for {p}")
    return datum


def find_suspension(p: GenPerm) -> Optional[SuspensionDatum]:
    """Canonical suspension vector over ``p``, or None when none exists.

    Deterministic for a fixed input; the witness additionally keeps the
    polygon of :func:`build_polygon` embedded.
    """
    if not has_suspension(p):
        return None
    d = p.d
    ims = linprog.solve(d, *_imag_system(p))
    if ims is None:
        raise RuntimeError(f"imaginary system unexpectedly infeasible for {p}")
    res = linprog.solve(d, *_real_system(p, ims))
    if res is None:
        raise RuntimeError(f"fold-guarded length system infeasible for {p}")
    return _assemble(p, res, ims)


def random_suspension(p: GenPerm, rng: Random) -> Optional[SuspensionDatum]:
    """A randomised suspension vector (embedded polygon included).

    The vector is rescaled to integer entries, which the conditions allow,
    so that long induction orbits stay cheap.
    """
    if not has_suspension(p):
        return None

    def pick(index: int, lo, hi) -> Fraction:
        del index
        if lo is None:
            lo = (hi if hi is not None else Fraction(0)) - 4
        if hi is None:
            hi = lo + 4
        return lo + (hi - lo) * Fraction(rng.randint(1, 15), 16)

    d = p.d
    ims = linprog.solve(d, *_imag_system(p), choose=pick)
    if ims is None:
        raise RuntimeError(f"imaginary system unexpectedly infeasible for {p}")
    res = linprog.solve(d, *_real_system(p, ims), choose=pick)
    if res is None:
        raise RuntimeError(f"fold-guarded length system infeasible for {p}")
    denom = 1
    for v in res + ims:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    res = [v * denom for v in res]
    ims = [v * denom for v in ims]
    return _assemble(p, res, ims)


def check_suspension(p: GenPerm, zeta: SuspensionDatum) -> bool:
    """Exact validation of the four suspension conditions."""
    if zeta.d != p.d:
        raise DimensionMismatch(f"expected {p.d} entries, got {zeta.d}")
    if any(re <= 0 for re, _ in zeta.values):
        return False
    acc = Fraction(0)
    for s in p.top[:-1]:
        acc += zeta.im(s)
        if acc <= 0:
            return False
    acc = Fraction(0)
    for s in p.bottom[:-1]:
        acc += zeta.im(s)
        if acc >= 0:
            return False
    top_sum_re = sum(zeta.re(s) for s in p.top)
    top_sum_im = sum(zeta.im(s) for s in p.top)
    bot_sum_re = sum(zeta.re(s) for s in p.bottom)
    bot_sum_im = sum(zeta.im(s) for s in p.bottom)
    return top_sum_re == bot_sum_re and top_sum_im == bot_sum_im


GLUE_TRANSLATION = "translation"
GLUE_HALF_TURN = "half_turn"


@dataclass(frozen=True)
class SuspensionPolygon:
    """Two broken lines with common endpoints plus the edge pairing.

    Edge ids: top edges are ``0..l-1`` (left to right), bottom edges are
    ``l..l+m-1``.  Each pair records its gluing kind: translation for
    occurrences in different rows, half-turn for a doubled row symbol.
    """

    top_points: tuple[Point, ...]
    bottom_points: tuple[Point, ...]
    top_symbols: tuple[int, ...]
    bottom_symbols: tuple[int, ...]
    pairs: tuple[tuple[int, int, str], ...]

    @property
    def l(self) -> int:
        return len(self.top_symbols)

    @property
    def m(self) -> int:
        return len(self.bottom_symbols)


def build_polygon(p: GenPerm, zeta: SuspensionDatum) -> SuspensionPolygon:
    """Suspension polygon of a valid vector over ``p``."""
    if not check_suspension(p, zeta):
        raise InvalidSuspension(f"not a suspension vector over {p}")
    top_points = [(Fraction(0), Fraction(0))]
    for s in p.top:
        x, y = top_points[-1]
        top_points.append((x + zeta.re(s), y + zeta.im(s)))
    bottom_points = [(Fraction(0), Fraction(0))]
    for s in p.bottom:
        x, y = bottom_points[-1]
        bottom_points.append((x + zeta.re(s), y + zeta.im(s)))
    l = len(p.top)
    occurrences: dict[int, list[int]] = {}
    for i, s in enumerate(p.top):
        occurrences.setdefault(s, []).append(i)
    for j, s in enumerate(p.bottom):
        occurrences.setdefault(s, []).append(l + j)
    pairs = []
    for s in sorted(occurrences):
        a, b = occurrences[s]
        same_row = (a < l) == (b < l)
        pairs.append((a, b, GLUE_HALF_TURN if same_row else GLUE_TRANSLATION))
    return SuspensionPolygon(
        tuple(top_points),
        tuple(bottom_points),
        p.top,
        p.bottom,
        tuple(pairs),
    )


def _pl_value(points: tuple[Point, ...], x: Fraction) -> Fraction:
    """Evaluate the broken line through ``points`` (x-monotone) at ``x``."""
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= x <= x1:
            if x1 == x0:
                return y0
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise ValueError("abscissa outside the polygon")


def is_embedded(poly: SuspensionPolygon) -> bool:
    """Whether the region between the two broken lines is embedded.

    Both lines are x-monotone graphs over the same interval, so it is
    enough that the top line lies strictly above the bottom one at every
    interior vertex abscissa of either line.
    """
    xs = {pt[0] for pt in poly.top_points[1:-1]}
    xs |= {pt[0] for pt in poly.bottom_points[1:-1]}
    for x in xs:
        if _pl_value(poly.top_points, x) <= _pl_value(poly.bottom_points, x):
            return False
    return True


def _cross(u: Point, v: Point) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def _sector_verticals(u: Point, w: Point) -> int:
    """Number of vertical directions in the ccw sector from ray u to ray w.

    Neither boundary ray is ever vertical here (edges have nonzero real
    part), so only strict interior tests are needed.  Rays with equal
    direction bound an empty sector (a cusp of an embedded polygon).
    """
    count = 0
    for v in ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))):
        cuw = _cross(u, w)
        if cuw > 0:
            inside = _cross(u, v) > 0 and _cross(v, w) > 0
        elif cuw < 0:
            inside = not (_cross(w, v) > 0 and _cross(v, u) > 0)
        else:
            dot = u[0] * w[0] + u[1] * w[1]
            if dot > 0:
                inside = False
            else:
                inside = _cross(u, v) > 0
        if inside:
            count += 1
    return count


@dataclass(frozen=True)
class GeometricProfile:
    """Cone angles of the glued surface, in units of pi, one per vertex class."""

    angles_pi: tuple[int, ...]
    marked_pi: int


def geometric_profile(poly: SuspensionPolygon) -> GeometricProfile:
    """Cone angles read off an embedded suspension polygon.

    Walks the corner identifications: boundary edges are listed
    counterclockwise (bottom line left to right, then top line right to
    left), each glued pair matches its two occurrences reversing the
    boundary orientation, and rotating past a corner's trailing edge lands
    on the corner at the tail of the partner edge.  Angles are accumulated
    as the number of vertical directions crossed, one per half-turn.
    """
    if not is_embedded(poly):
        raise DegeneratePolygon("broken lines touch or cross; pick another vector")
    l, m = poly.l, poly.m
    n = l + m
    dirs: list[Point] = []
    symbols: list[int] = []
    for j in range(m):
        x0, y0 = poly.bottom_points[j]
        x1, y1 = poly.bottom_points[j + 1]
        dirs.append((x1 - x0, y1 - y0))
        symbols.append(poly.bottom_symbols[j])
    for i in range(l - 1, -1, -1):
        x0, y0 = poly.top_points[i]
        x1, y1 = poly.top_points[i + 1]
        dirs.append((x0 - x1, y0 - y1))
        symbols.append(poly.top_symbols[i])
    partner = [-1] * n
    first_seen: dict[int, int] = {}
    for t, s in enumerate(symbols):
        if s in first_seen:
            partner[first_seen[s]] = t
            partner[t] = first_seen[s]
        else:
            first_seen[s] = t

    seen = [False] * n
    angles: list[int] = []
    marked = -1
    for start in range(n):
        if seen[start]:
            continue
        total = 0
        contains_origin = False
        t = start
        while not seen[t]:
            seen[t] = True
            if t == 0:
                contains_origin = True
            u = dirs[t]
            prev = dirs[(t - 1) % n]
            total += _sector_verticals(u, (-prev[0], -prev[1]))
            t = partner[(t - 1) % n]
        angles.append(total)
        if contains_origin:
            marked = total
    if marked < 0 or any(a < 1 for a in angles):
        raise DegeneratePolygon("corner identification produced an empty class")
    return GeometricProfile(tuple(sorted(angles)), marked)


def polygon_json(poly: SuspensionPolygon) -> str:
    """JSON export with rationals serialised as ``"p/q"`` strings.

    Vertices list the top line left to right, then the interior vertices
    of the bottom line (the shared endpoints appear once); pairs use the
    edge ids of :class:`SuspensionPolygon`.
    """

    def frac(v: Fraction) -> str:
        return f"{v.numerator}/{v.denominator}"

    vertices = [[frac(x), frac(y)] for x, y in poly.top_points]
    vertices += [[frac(x), frac(y)] for x, y in poly.bottom_points[1:-1]]
    return json.dumps(
        {
            "vertices": vertices,
            "pairs": [[a, b, kind] for a, b, kind in poly.pairs],
        }
    )


def polygon_svg(poly: SuspensionPolygon, scale: int = 60) -> str:
    """Minimal SVG rendering of the two broken lines (documentation aid)."""
    pts = list(poly.top_points) + list(poly.bottom_points)
    xs = [float(x) for x, _ in pts]
    ys = [float(y) for _, y in pts]
    pad = 0.5
    width = (max(xs) - min(xs) + 2 * pad) * scale
    height = (max(ys) - min(ys) + 2 * pad) * scale

    def sx(x: Fraction) -> float:
        return (float(x) - min(xs) + pad) * scale

    def sy(y: Fraction) -> float:
        return height - (float(y) - min(ys) + pad) * scale

    def path(points: tuple[Point, ...]) -> str:
        return " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)

    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}">'
        f'<polyline points="{path(poly.top_points)}" fill="none" stroke="black"/>'
        f'<polyline points="{path(poly.bottom_points)}" fill="none" stroke="gray"/>'
        "</svg>"
    )
