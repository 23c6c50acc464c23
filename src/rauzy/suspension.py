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
each corner sector, which is exact in integer arithmetic because no edge
is ever vertical.

All four conditions, the polygon's embeddedness and its cone angles are
unchanged when every entry is multiplied by the same positive number.  A
:class:`SuspensionDatum` therefore holds its vector as integers over one
common denominator: one tuple of integers, a positive ``scale`` followed by
the real parts and then the imaginary parts, the entries times ``scale``.
Symbol ``s`` of a vector over ``d`` symbols reads its real part at index
``s`` and its imaginary part at ``d + s``.  The solver returns its
witnesses so, the rules that pick their values take and return integer
pairs, and a :class:`SuspensionPolygon` keeps its points as integers.  The
checks, the induction step and the polygon read those integers;
``Fraction`` objects are made only when a caller reads ``values``, ``re``
or ``im``, and rationals only in the text of the polygon exports.  Entries
given to the constructor must be ``int`` or ``Fraction``; anything else
raises :class:`~rauzy.errors.InvalidSuspension` there.  Those four are the
only places that import ``fractions``, so ``import rauzy`` does not load it.
A datum also carries the key of the table it is known to be valid over:
the one a witness was checked over, or the one an induction step moved
to, since a step turns a suspension vector into a suspension vector
(Veech, *Ann. of Math.* 115, 1982; Boissy-Lanneau, cited above).  The
induction step and the polygon take a datum over its own table as it is,
and check any other one; :func:`check_suspension` checks every time.

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

from math import gcd, lcm
from random import Random
from typing import TYPE_CHECKING, NamedTuple, Optional

from . import linprog
from .combinat import GenPerm, is_irreducible
from .errors import DegeneratePolygon, DimensionMismatch, InvalidSuspension

if TYPE_CHECKING:
    from fractions import Fraction

Point = tuple[int, int]


class SuspensionDatum:
    """Vector of complex numbers with exact rational parts, one per symbol.

    ``SuspensionDatum(values)`` takes ``(re, im)`` pairs of ``int`` or
    ``Fraction`` entries, and anything else raises
    :class:`InvalidSuspension`.  The constructor scales them by the least
    common multiple of their denominators, so the datum is one tuple of
    integers: a positive denominator ``scale``, then the real parts, then
    the imaginary parts, each times ``scale``.  The denominator need not be
    the least one (an induction step keeps its input's), so equality,
    hashing and printing go through the reduced fractions: two data are
    equal exactly when their vectors are.  A datum made here is over no
    table; one that a witness or an induction step makes is over the key of
    its table, and equality ignores it.

    >>> from fractions import Fraction
    >>> zeta = SuspensionDatum(((Fraction(1, 2), 1), (Fraction(3, 4), -1)))
    >>> print(zeta)
    (1/2+1i, 3/4-1i)
    >>> zeta.values[1]
    (Fraction(3, 4), Fraction(-1, 1))
    """

    __slots__ = ("_parts", "_over")

    def __init__(self, values) -> None:
        scale, flat = _scaled([v for pair in values for v in pair])
        self._parts = (scale, *flat[0::2], *flat[1::2])
        self._over = None

    @classmethod
    def _of(
        cls, parts: tuple[int, ...], over: Optional[bytes] = None
    ) -> SuspensionDatum:
        """The datum of ``(scale, re_1, ..., re_d, im_1, ..., im_d)``, not
        checked; ``over`` is the key of a table it is known to be valid over."""
        datum = cls.__new__(cls)
        datum._parts = parts
        datum._over = over
        return datum

    def _pairs(self) -> zip:
        """The integer ``(re, im)`` pair of each symbol, in symbol order."""
        parts = self._parts
        d = len(parts) // 2
        return zip(parts[1 : d + 1], parts[d + 1 :])

    @property
    def values(self) -> tuple[tuple[Fraction, Fraction], ...]:
        from fractions import Fraction

        scale = self._parts[0]
        pairs = self._pairs()
        return tuple([(Fraction(x, scale), Fraction(y, scale)) for x, y in pairs])

    @property
    def d(self) -> int:
        return len(self._parts) // 2

    def re(self, symbol: int) -> Fraction:
        from fractions import Fraction

        return Fraction(self._parts[symbol], self._parts[0])

    def im(self, symbol: int) -> Fraction:
        from fractions import Fraction

        parts = self._parts
        return Fraction(parts[len(parts) // 2 + symbol], parts[0])

    def _reduced(self) -> tuple[int, ...]:
        """The parts over the least common denominator."""
        parts = self._parts
        g = gcd(*parts)
        return parts if g == 1 else tuple([x // g for x in parts])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SuspensionDatum):
            return NotImplemented
        return self._reduced() == other._reduced()

    def __hash__(self) -> int:
        return hash(self._reduced())

    def __repr__(self) -> str:
        return f"SuspensionDatum(values={self.values!r})"

    def __str__(self) -> str:
        scale = self._parts[0]
        entries = [
            f"{_ratio(x, scale)}{'+' if y >= 0 else ''}{_ratio(y, scale)}i"
            for x, y in self._pairs()
        ]
        return "(" + ", ".join(entries) + ")"


def _ratio(x: int, scale: int) -> str:
    """``str(Fraction(x, scale))`` for a positive ``scale``."""
    g = gcd(x, scale)
    return str(x // g) if g == scale else f"{x // g}/{scale // g}"


def _occurrence_balance(p: GenPerm) -> list[int]:
    """Per symbol: (top occurrences) - (bottom occurrences), in -2..2."""
    c = [0] * p.d
    top, _, bottom = p._key.partition(b"\0")
    for s in top:
        c[s - 1] += 1
    for s in bottom:
        c[s - 1] -= 1
    return c


def _systems(p: GenPerm) -> tuple[bytes, bytes, list[linprog.Row], Optional[linprog.Row]]:
    """The rows of ``p``, the imaginary parts' inequality rows, and the
    balance equality of both systems.

    The variables are the tau entries; the equality, None when every
    symbol balances, says the two lines end at one height and that the top
    and bottom sums of the lengths agree.  Strict inequalities are
    normalised to closed ones with slack 1, which is equivalent by
    homogeneity; witnesses therefore keep every interior vertex at
    distance >= 1 from the horizontal axis.
    """
    top, _, bottom = p._key.partition(b"\0")
    d = len(p._key) // 2
    ineqs = []
    for row, sign in ((top, 1), (bottom, -1)):
        acc = [0] * d
        for s in row[:-1]:
            acc[s - 1] += sign
            ineqs.append((tuple(acc), -1))
    balance = tuple(_occurrence_balance(p))
    return top, bottom, ineqs, (balance, 0) if any(balance) else None


def _real_rows(top: bytes, bottom: bytes, ims: list[int]) -> list[linprog.Row]:
    """Inequality rows for the lengths of the table ``top / bottom``.

    Every length is at least 1.  Given the imaginary parts ``ims`` times
    any positive number, one fold-guard row is added when the total height
    is nonzero: the edge climbing (or descending) to the common right
    endpoint must cross level zero no earlier than the other line's last
    interior vertex.  Together with the unit margins on interior heights
    this makes the polygon embedded.
    """
    d = len(ims)
    ineqs = [((0,) * k + (1,) + (0,) * (d - 1 - k), -1) for k in range(d)]
    total = sum(ims[s - 1] for s in top)
    if total:
        # the line whose last edge crosses level zero, and the other line
        sign = 1 if total > 0 else -1
        crossing, other = (bottom, top) if total > 0 else (top, bottom)
        depth = -sign * sum(ims[s - 1] for s in crossing[:-1])  # > 0
        row = [0] * d
        row[other[-1] - 1] += sign * total + depth
        row[crossing[-1] - 1] -= sign * total
        ineqs.append((tuple(row), 0))
    return ineqs


def _imag_system(p: GenPerm) -> tuple[list, Optional[linprog.Row]]:
    """Inequality rows and the balance equality for the imaginary parts."""
    return _systems(p)[2:]


def _real_system(p: GenPerm, ims: list[int]) -> tuple[list, Optional[linprog.Row]]:
    """Inequality rows and the balance equality for the lengths."""
    top, bottom, _, eq = _systems(p)
    return _real_rows(top, bottom, ims), eq


def _scaled(values) -> tuple[int, list[int]]:
    """The LCM of the denominators of ``values`` and the values times it.

    Entries must be ``int`` or ``Fraction``; anything else, a float
    included, raises :class:`InvalidSuspension`.
    """
    from fractions import Fraction

    for v in values:
        if not isinstance(v, (int, Fraction)):
            raise InvalidSuspension(f"entry {v!r} is neither an int nor a Fraction")
    scale = lcm(*[v.denominator for v in values])
    if scale == 1:
        return 1, [v.numerator for v in values]
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _valid_parts(p: GenPerm, zeta: SuspensionDatum) -> Optional[tuple[int, ...]]:
    """The integer parts of ``zeta``, laid out as in :class:`SuspensionDatum`.

    Returns None when ``zeta`` fails one of the four conditions over ``p``.
    Every call checks in full; :func:`_parts_over` trusts a datum over ``p``.
    """
    parts = zeta._parts
    top, _, bottom = p._key.partition(b"\0")
    d = len(parts) // 2
    if len(parts) != len(top) + len(bottom) + 1:
        raise DimensionMismatch(f"expected {p.d} entries, got {d}")
    if min(parts[1 : d + 1]) <= 0:
        return None
    # one pass per row: the imaginary prefix sums and the real balance
    acc = total = 0
    for s in top[:-1]:
        acc += parts[d + s]
        if acc <= 0:
            return None
        total += parts[s]
    s = top[-1]
    top_im = acc + parts[d + s]
    total += parts[s]
    acc = 0
    for s in bottom[:-1]:
        acc += parts[d + s]
        if acc >= 0:
            return None
        total -= parts[s]
    s = bottom[-1]
    if acc + parts[d + s] != top_im or total != parts[s]:
        return None
    return parts


def _parts_over(p: GenPerm, zeta: SuspensionDatum) -> tuple[int, ...]:
    """The integer parts of ``zeta``, a suspension vector over ``p``.

    A datum over the key of ``p`` is taken as it is; any other is checked
    by :func:`_valid_parts`, and one that fails raises
    :class:`InvalidSuspension`.
    """
    if zeta._over == p._key:
        return zeta._parts
    parts = _valid_parts(p, zeta)
    if parts is None:
        raise InvalidSuspension(f"not a suspension vector over {p}")
    return parts


def _witness(p: GenPerm, choose: linprog.IntervalChooser) -> SuspensionDatum:
    """The suspension vector of both systems solved with ``choose``.

    The key is split into its rows and the balance equality is built once,
    for both systems.  ``choose`` picks every variable but the pivot of
    each balance equality, which the equality fixes.  The two solutions
    are joined over their least common denominator, and the datum is
    checked; it is over the key of ``p``.
    """
    d = p.d
    top, bottom, ineqs, eq = _systems(p)
    ims = linprog.solve(d, ineqs, eq, choose)
    if ims is None:
        raise RuntimeError(f"imaginary system unexpectedly infeasible for {p}")
    res = linprog.solve(d, _real_rows(top, bottom, ims[1]), eq, choose)
    if res is None:
        raise RuntimeError(f"fold-guarded length system infeasible for {p}")
    scale = lcm(res[0], ims[0])
    parts = [scale] + [v * (scale // s) for s, nums in (res, ims) for v in nums]
    g = gcd(*parts)
    datum = SuspensionDatum._of(tuple([v // g for v in parts]), p._key)
    if not check_suspension(p, datum):
        raise RuntimeError(f"solver produced an invalid suspension for {p}")
    return datum


def find_suspension(p: GenPerm) -> Optional[SuspensionDatum]:
    """Canonical suspension vector over ``p``, or None when none exists.

    Deterministic for a fixed input; the witness additionally keeps the
    polygon of :func:`build_polygon` embedded.
    """
    if not is_irreducible(p):
        return None
    return _witness(p, linprog.canonical_choice)


def random_suspension(p: GenPerm, rng: Random) -> Optional[SuspensionDatum]:
    """A randomised suspension vector (embedded polygon included).

    Its entries are integers, its ``scale`` 1: the conditions allow the
    rescaling.
    """
    if not is_irreducible(p):
        return None

    def pick(lo: Optional[linprog.Ratio], hi: Optional[linprog.Ratio]) -> linprog.Ratio:
        # lo + (hi - lo) * r / 16, a missing bound 4 away from the other (or 0)
        if lo is None:
            n, q = (0, 1) if hi is None else hi
            lo = (n - 4 * q, q)
        if hi is None:
            hi = (lo[0] + 4 * lo[1], lo[1])
        r = rng.randint(1, 15)
        (a, b), (c, e) = lo, hi
        return (a * e * (16 - r) + c * b * r, 16 * b * e)

    return SuspensionDatum._of((1, *_witness(p, pick)._parts[1:]), p._key)


def check_suspension(p: GenPerm, zeta: SuspensionDatum) -> bool:
    """Exact validation of the four suspension conditions.

    The conditions are homogeneous, so they are tested on the entries
    scaled to integers by the LCM of their denominators.

    >>> from .combinat import parse
    >>> from fractions import Fraction
    >>> p = parse("1 2 / 2 1")
    >>> zeta = SuspensionDatum(((Fraction(1, 2), Fraction(1, 3)),
    ...                         (Fraction(3, 4), Fraction(-1, 6))))
    >>> check_suspension(p, zeta)
    True
    >>> check_suspension(p, SuspensionDatum(((1, 1), (1, 1))))
    False
    """
    return _valid_parts(p, zeta) is not None


GLUE_TRANSLATION = "translation"
GLUE_HALF_TURN = "half_turn"
_SVG_SCALE = 60  # pixels per unit length in polygon_svg


class SuspensionPolygon(NamedTuple):
    """Two broken lines with common endpoints plus the edge pairing.

    Points are integer points, the coordinates times the vector's ``scale``.
    Edge ids: top edges are ``0..l-1`` (left to right), bottom edges are
    ``l..l+m-1``.  Each pair records its gluing kind: translation for
    occurrences in different rows, half-turn for a doubled row symbol.
    """

    scale: int
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
    parts = _parts_over(p, zeta)
    d = len(parts) // 2

    def line(row: tuple[int, ...]) -> tuple[Point, ...]:
        x = y = 0
        points = [(0, 0)]
        for s in row:
            x += parts[s]
            y += parts[d + s]
            points.append((x, y))
        return tuple(points)

    l = len(p.top)
    occurrences: dict[int, list[int]] = {}
    for i, s in enumerate(p.top + p.bottom):
        occurrences.setdefault(s, []).append(i)
    pairs = []
    for s in sorted(occurrences):
        a, b = occurrences[s]
        same_row = (a < l) == (b < l)
        pairs.append((a, b, GLUE_HALF_TURN if same_row else GLUE_TRANSLATION))
    return SuspensionPolygon(
        parts[0],
        line(p.top),
        line(p.bottom),
        p.top,
        p.bottom,
        tuple(pairs),
    )


def _clears(vertices: tuple[Point, ...], line: tuple[Point, ...], side: int) -> bool:
    """Whether every interior vertex lies strictly on ``side`` of ``line``.

    ``side`` is 1 for above and -1 for below.  Both broken lines run
    left to right over the same interval with strictly increasing
    abscissas, so one sweep finds the segment of ``line`` under each
    vertex; the height comparison is multiplied through by the segment's
    positive run.
    """
    j = 0
    for x, y in vertices[1:-1]:
        while line[j + 1][0] < x:
            j += 1
        (x0, y0), (x1, y1) = line[j], line[j + 1]
        run = x1 - x0
        if side * (y * run - y0 * run - (y1 - y0) * (x - x0)) <= 0:
            return False
    return True


def is_embedded(poly: SuspensionPolygon) -> bool:
    """Whether the region between the two broken lines is embedded.

    Both lines are x-monotone graphs over the same interval, so it is
    enough that the top line lies strictly above the bottom one at every
    interior vertex abscissa of either line.
    """
    top, bottom = poly.top_points, poly.bottom_points
    return _clears(top, bottom, 1) and _clears(bottom, top, -1)


def _sector_verticals(u: Point, w: Point) -> int:
    """Number of vertical directions in the ccw sector from ray u to ray w.

    Neither boundary ray is ever vertical here (edges have nonzero real
    part), so only strict interior tests are needed.  Rays with equal
    direction bound an empty sector (a cusp of an embedded polygon).
    The cross product of a ray with the upward direction ``(0, 1)`` is
    its abscissa, so both tests read only the signs of ``u[0]`` and
    ``w[0]``; the downward direction flips both.
    """
    count = 0
    cuw = u[0] * w[1] - u[1] * w[0]
    for sign in (1, -1):
        ux, wx = sign * u[0], sign * w[0]
        if cuw > 0:
            inside = ux > 0 and wx < 0
        elif cuw < 0:
            inside = not (wx > 0 and ux < 0)
        else:
            inside = u[0] * w[0] + u[1] * w[1] <= 0 and ux > 0
        if inside:
            count += 1
    return count


class GeometricProfile(NamedTuple):
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
    top, bottom = poly.top_points, poly.bottom_points
    l, m = poly.l, poly.m
    n = l + m
    dirs: list[Point] = []
    symbols: list[int] = []
    for j in range(m):
        x0, y0 = bottom[j]
        x1, y1 = bottom[j + 1]
        dirs.append((x1 - x0, y1 - y0))
        symbols.append(poly.bottom_symbols[j])
    for i in range(l - 1, -1, -1):
        x0, y0 = top[i]
        x1, y1 = top[i + 1]
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
    """JSON export with coordinates serialised as reduced ``"p/q"`` strings.

    Vertices list the top line left to right, then the interior vertices
    of the bottom line (the shared endpoints appear once); pairs use the
    edge ids of :class:`SuspensionPolygon`.
    """
    import json


    def frac(v: int) -> str:
        g = gcd(v, poly.scale)
        return f"{v // g}/{poly.scale // g}"

    vertices = [[frac(x), frac(y)] for x, y in poly.top_points]
    vertices += [[frac(x), frac(y)] for x, y in poly.bottom_points[1:-1]]
    return json.dumps(
        {
            "vertices": vertices,
            "pairs": [[a, b, kind] for a, b, kind in poly.pairs],
        }
    )


def polygon_svg(poly: SuspensionPolygon) -> str:
    """Minimal SVG rendering of the two broken lines (documentation aid)."""
    scale = poly.scale
    pts = list(poly.top_points) + list(poly.bottom_points)
    xs = [x / scale for x, _ in pts]
    ys = [y / scale for _, y in pts]
    pad = 0.5
    width = (max(xs) - min(xs) + 2 * pad) * _SVG_SCALE
    height = (max(ys) - min(ys) + 2 * pad) * _SVG_SCALE

    def sx(x: int) -> float:
        return (x / scale - min(xs) + pad) * _SVG_SCALE

    def sy(y: int) -> float:
        return height - (y / scale - min(ys) + pad) * _SVG_SCALE

    def path(points: tuple[Point, ...]) -> str:
        return " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)

    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}">'
        f'<polyline points="{path(poly.top_points)}" fill="none" stroke="black"/>'
        f'<polyline points="{path(poly.bottom_points)}" fill="none" stroke="gray"/>'
        "</svg>"
    )
