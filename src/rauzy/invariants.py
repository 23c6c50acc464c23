r"""
Singularity data and connected-component labels of suspension surfaces.

The singularity structure of the surface suspended over a generalized
permutation is a purely combinatorial function of the table.  List the
polygon boundary counterclockwise (bottom row left to right, then top row
right to left) and walk the corner identifications exactly as in
:func:`rauzy.suspension.geometric_profile`; because the boundary rays of
every interior corner point into opposite half-planes, each interior
corner contributes exactly one half-turn of angle, while the two end
corners contribute none.  Angle in units of pi per identification class
is therefore just a count of interior corners, no coordinates required.
The geometric routine on an explicit polygon witness serves as an
independent oracle for this computation.

Angle conventions: a degree-``k`` zero of an orientable surface has cone
angle ``(k+1) * 2pi``; an order-``k`` singularity of a half-translation
surface has cone angle ``(k+2) * pi`` (``k = -1`` is a simple pole,
``k = 0`` a marked regular point).

Component labels follow the classification of stratum components:
orientable strata have at most three components (hyperelliptic, and for
all-even degrees an even and an odd spin structure), half-translation
strata at most two.  Hyperellipticity of a class is decided by scanning
it for a vertex fixed by the central symmetry (reverse both rows, swap
them, renumber) whose half-turn involution both has a spherical quotient
and moves the singularities the way the component's double-cover
structure dictates; bare symmetry is not enough, as symmetric vertices
also occur in non-hyperelliptic classes.  Spin parity is the Arf
invariant of the winding quadratic form, evaluated on explicit curves in
a polygon witness.

Labelling one table enumerates its Rauzy class only in the strata that
have a hyperelliptic component (for the scan) and in the four exceptional
half-translation strata (for their split); every other label, spin parity
included, is computed on the given table, since these invariants are
constant on a class.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .combinat import GenPerm, PermKind, is_irreducible, reduce
from .errors import NotAbelian, OddDegreePresent, Reducible
from .suspension import build_polygon, find_suspension

# ---------------------------------------------------------------------------
# Strata


class ComponentLabel(Enum):
    UNIQUE = "unique"
    HYPERELLIPTIC = "hyperelliptic"
    EVEN_SPIN = "even-spin"
    ODD_SPIN = "odd-spin"
    NON_HYPERELLIPTIC = "non-hyperelliptic"
    EXCEPTIONAL_A = "exceptional-a"
    EXCEPTIONAL_B = "exceptional-b"


class StratumKind(Enum):
    ABELIAN = "abelian"
    QUADRATIC = "quadratic"


@dataclass(frozen=True)
class Stratum:
    """A stratum tag: kind plus the multiset of singularity orders.

    Orders are stored ascending.  ``H(...)`` lists degrees descending,
    ``Q(...)`` lists orders ascending, matching the usual notations.
    """

    kind: StratumKind
    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", tuple(sorted(self.orders)))
        total = sum(self.orders)
        if self.kind is StratumKind.ABELIAN:
            if any(k < 0 for k in self.orders) or total % 2 or total < 0:
                raise ValueError(f"impossible degree data {self.orders}")
        else:
            if any(k < -1 for k in self.orders) or total % 4 or total < -4:
                raise ValueError(f"impossible order data {self.orders}")

    @property
    def genus(self) -> int:
        total = sum(self.orders)
        if self.kind is StratumKind.ABELIAN:
            return total // 2 + 1
        return total // 4 + 1

    @property
    def num_singularities(self) -> int:
        return len(self.orders)

    @property
    def r(self) -> int:
        """Number of distinct singularity orders (marked points count)."""
        return len(set(self.orders))

    @property
    def d(self) -> int:
        """Number of exchanged intervals realising this stratum."""
        return 2 * self.genus + self.num_singularities - 1

    @property
    def text(self) -> str:
        if self.kind is StratumKind.ABELIAN:
            return "H({})".format(",".join(map(str, reversed(self.orders))))
        return "Q({})".format(",".join(map(str, self.orders)))

    def __str__(self) -> str:
        return self.text


def parse_stratum(text: str) -> Stratum:
    """Parse ``H(2,0)`` / ``Q(-1,-1,-1,-1)`` notation."""
    text = text.strip()
    if not text or text[0] not in "HQ" or not text.endswith(")") or text[1] != "(":
        raise ValueError(f"cannot parse stratum {text!r}")
    kind = StratumKind.ABELIAN if text[0] == "H" else StratumKind.QUADRATIC
    body = text[2:-1]
    orders = tuple(int(tok) for tok in body.split(",")) if body else ()
    if not orders:
        raise ValueError("a stratum needs at least one singularity order")
    return Stratum(kind, orders)


# ---------------------------------------------------------------------------
# Singularity profile


@dataclass(frozen=True)
class Profile:
    """Multiset of singularity orders plus the marked order.

    The marked order is attached to the identification class containing
    the left end corner of the polygon; it is invariant under both moves.
    """

    orders: tuple[int, ...]
    marked: int


def _corner_cycles(l: int, m: int, boundary_symbols: list[int]) -> list[list[int]]:
    """Orbits of the corner walk on boundary positions."""
    n = l + m
    partner = [-1] * n
    first_seen: dict[int, int] = {}
    for t, s in enumerate(boundary_symbols):
        if s in first_seen:
            partner[first_seen[s]] = t
            partner[t] = first_seen[s]
        else:
            first_seen[s] = t
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = []
        t = start
        while not seen[t]:
            seen[t] = True
            cycle.append(t)
            t = partner[(t - 1) % n]
        cycles.append(cycle)
    return cycles


@lru_cache(maxsize=65536)
def _profile_rows(top: tuple[int, ...], bottom: tuple[int, ...]) -> Profile:
    p = GenPerm(top, bottom)
    l, m = p.shape
    boundary = list(bottom) + list(reversed(top))
    angles = []
    marked_angle = -1
    for cycle in _corner_cycles(l, m, boundary):
        # Interior corners contribute pi each; the two shared end corners
        # (positions 0 and m) contribute none.
        angle = sum(1 for t in cycle if t != 0 and t != m)
        angles.append(angle)
        if 0 in cycle:
            marked_angle = angle
    if p.kind is PermKind.IET:
        if any(a % 2 for a in angles):
            raise RuntimeError(f"odd angle count on an orientable surface: {p}")
        orders = sorted(a // 2 - 1 for a in angles)
        marked = marked_angle // 2 - 1
    else:
        orders = sorted(a - 2 for a in angles)
        marked = marked_angle - 2
    return Profile(tuple(orders), marked)


def singularity_profile(p: GenPerm) -> Profile:
    """Combinatorial singularity data of the suspension surface over ``p``."""
    if p.d < 2:
        raise ValueError("suspensions over a single interval are degenerate")
    if not is_irreducible(p):
        raise Reducible(f"{p} admits no suspension")
    return _profile_rows(p.top, p.bottom)


def marked_order(p: GenPerm) -> int:
    return singularity_profile(p).marked


def stratum(p: GenPerm) -> Stratum:
    """Stratum of the suspension surface, with consistency checks."""
    profile = singularity_profile(p)
    kind = (
        StratumKind.ABELIAN if p.kind is PermKind.IET else StratumKind.QUADRATIC
    )
    st = Stratum(kind, profile.orders)
    if p.d != st.d:
        raise RuntimeError(
            f"dimension check failed for {p}: d={p.d} but stratum {st} "
            f"needs d={st.d}"
        )
    return st


# ---------------------------------------------------------------------------
# Spin parity


def _winding_index(dirs: list[tuple[Fraction, Fraction]]) -> int:
    """Exact rotation number of a closed direction sequence.

    Every consecutive turn must be strictly less than a half-turn, which
    the spin representatives guarantee.  Counts signed crossings of one
    reference ray chosen non-parallel to every direction.
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
    from .suspension import _pl_value

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
            (x, (_pl_value(poly.top_points, x) + _pl_value(poly.bottom_points, x)) / 2)
            for x in walk_x
        ]
        for (x0, y0), (x1, y1) in zip(mid_pts, mid_pts[1:]):
            dirs.append((x1 - x0, y1 - y0))
        dirs.append(up)
    return dirs


def _intersection_matrix(p: GenPerm) -> list[int]:
    """Mod-2 intersection numbers of the symbol curves, as bit rows.

    Two symbols intersect once exactly when their relative order differs
    between the rows.
    """
    d = p.d
    top_pos = {s: i for i, s in enumerate(p.top)}
    bottom_pos = {s: i for i, s in enumerate(p.bottom)}
    rows = [0] * d
    for a in range(1, d + 1):
        for b in range(1, d + 1):
            if a == b:
                continue
            if (top_pos[a] < top_pos[b]) != (bottom_pos[a] < bottom_pos[b]):
                rows[a - 1] |= 1 << (b - 1)
    return rows


def _pairing(rows: list[int], u: int, v: int) -> int:
    total = 0
    x = u
    while x:
        i = (x & -x).bit_length() - 1
        total ^= bin(rows[i] & v).count("1") & 1
        x &= x - 1
    return total


def spin_parity(p: GenPerm) -> int:
    """Arf invariant of the winding quadratic form of the suspension.

    Defined for irreducible interval-exchange permutations whose
    singularity degrees are all even; constant on the class.
    """
    if p.kind is not PermKind.IET:
        raise NotAbelian(f"{p} is not an interval exchange permutation")
    profile = singularity_profile(p)
    if any(k % 2 for k in profile.orders):
        raise OddDegreePresent(f"degrees {profile.orders} are not all even")
    genus = sum(profile.orders) // 2 + 1

    zeta = find_suspension(p)
    if zeta is None:
        raise RuntimeError(f"no suspension found for irreducible {p}")
    poly = build_polygon(p, zeta)
    d = p.d
    q = [0] * d
    for sym in range(1, d + 1):
        q[sym - 1] = (_winding_index(_loop_directions(poly, sym)) + 1) % 2
    rows = _intersection_matrix(p)

    def q_of(mask: int) -> int:
        total = 0
        bits = [i for i in range(d) if mask >> i & 1]
        for i in bits:
            total ^= q[i]
        for ai in range(len(bits)):
            for bi in range(ai + 1, len(bits)):
                total ^= rows[bits[ai]] >> bits[bi] & 1
        return total

    basis = [1 << i for i in range(d)]
    arf = 0
    pairs = 0
    while True:
        found = None
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                if _pairing(rows, basis[i], basis[j]):
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i, j = found
        a, b = basis[i], basis[j]
        rest = [v for k, v in enumerate(basis) if k not in (i, j)]
        basis = [
            v ^ (a if _pairing(rows, v, b) else 0) ^ (b if _pairing(rows, v, a) else 0)
            for v in rest
        ]
        arf ^= q_of(a) & q_of(b)
        pairs += 1
    if pairs != genus:
        raise RuntimeError(
            f"symplectic rank {2 * pairs} does not match genus {genus} for {p}"
        )
    for v in basis:
        if q_of(v):
            raise RuntimeError(f"winding form does not vanish on the radical of {p}")
    return arf


# ---------------------------------------------------------------------------
# Hyperellipticity and component labels


def central_involution(p: GenPerm) -> GenPerm:
    """Reverse both rows, exchange them, renumber."""
    return reduce(tuple(reversed(p.bottom)), tuple(reversed(p.top)))


def _is_centrally_symmetric(top: tuple[int, ...], bottom: tuple[int, ...]) -> bool:
    """Whether the reduced table ``top / bottom`` is its own central involution.

    Same answer as ``central_involution(p) == p``, decided on the rows:
    renumber the reversed bottom row followed by the reversed top row and
    stop at the first symbol that differs from ``top`` followed by
    ``bottom``.
    """
    if len(top) != len(bottom):
        return False
    relabel: dict[int, int] = {}
    for image, row in ((reversed(bottom), top), (reversed(top), bottom)):
        for s, want in zip(image, row):
            new = relabel.setdefault(s, len(relabel) + 1)
            if new != want:
                return False
    return True


def _rotation_data(p: GenPerm) -> tuple[int, list[int], list[int]]:
    """Fixed points and singularity action of a symmetric vertex's involution.

    When ``p`` equals its central involution, rotating the suspension
    polygon by a half turn about its centre descends to an isometric
    involution of the glued surface.  Its fixed points are the rotation
    centre, one interior point on each edge whose glued partner is its
    own rotation image, and every singularity whose corner class the
    rotation preserves.  On the boundary listing the rotation is the shift
    by half the perimeter, so everything is counted combinatorially.

    Returns ``(fixed_points, invariant_orders, moved_orders)`` with the
    orders of the singularity classes preserved or exchanged by the
    involution (in the convention of ``p``'s kind).
    """
    l, m = p.shape
    n = l + m
    boundary = list(p.bottom) + list(reversed(p.top))
    partner = [-1] * n
    first: dict[int, int] = {}
    for t, s in enumerate(boundary):
        if s in first:
            partner[first[s]] = t
            partner[t] = first[s]
        else:
            first[s] = t
    self_paired = sum(1 for t in range(n) if partner[t] == (t + m) % n) // 2
    fixed = 1 + self_paired
    invariant: list[int] = []
    moved: list[int] = []
    iet = p.kind is PermKind.IET
    for cycle in _corner_cycles(l, m, boundary):
        angle = sum(1 for t in cycle if t != 0 and t != m)
        order = angle // 2 - 1 if iet else angle - 2
        if set(cycle) == {(t + m) % n for t in cycle}:
            fixed += 1
            invariant.append(order)
        else:
            moved.append(order)
    return fixed, invariant, moved


def _is_hyperelliptic_vertex(v: GenPerm, st: Stratum) -> bool:
    """Centrally symmetric with the component's involution structure.

    The half-turn involution of a symmetric vertex quotients the surface
    to a sphere exactly when it has ``2 genus + 2`` fixed points (an Euler
    characteristic count).  Sphericity alone only makes the surface
    hyperelliptic; membership in the hyperelliptic component also pins
    down how the involution moves the singularities:

    * orientable, single zero: the zero stays put (automatic);
    * orientable, two equal zeros: the zeros are exchanged;
    * half-translation: odd-order singularities are exchanged in pairs,
      even-order ones stay put.
    """
    if not _is_centrally_symmetric(v.top, v.bottom):
        return False
    fixed, invariant, moved = _rotation_data(v)
    if fixed != 2 * st.genus + 2:
        return False
    effective = tuple(k for k in st.orders if k != 0)
    if st.kind is StratumKind.ABELIAN:
        g = st.genus
        if effective == (g - 1, g - 1):
            return not any(k > 0 for k in invariant)
        return True
    odd_invariant = any(k % 2 for k in invariant)
    even_moved = any(k != 0 and k % 2 == 0 for k in moved)
    return not odd_invariant and not even_moved


def _class_vertices(p: GenPerm, budget: int) -> tuple[GenPerm, ...]:
    from .classes import rauzy_class

    return rauzy_class(p, budget=budget).vertices


def is_hyperelliptic_component(p: GenPerm, budget: int = 10**7) -> bool:
    """Whether the class of ``p`` lies in a hyperelliptic component.

    Scans the class for a centrally symmetric vertex whose half-turn
    involution has a spherical quotient.
    """
    if not is_irreducible(p):
        raise Reducible(f"{p} admits no suspension")
    st = stratum(p)
    return any(_is_hyperelliptic_vertex(v, st) for v in _class_vertices(p, budget))


_CONNECTED_QUADRATIC = {
    (-1, -1, -1, -1),
    (-1, -1, 1, 1),
    (-1, -1, 2),
    (1, 1, 1, 1),
    (1, 1, 2),
    (2, 2),
}

_EXCEPTIONAL_QUADRATIC = {
    (12,),
    (-1, 9),
    (-1, 3, 6),
    (-1, 3, 3, 3),
}


def _quadratic_has_hyperelliptic(orders: tuple[int, ...]) -> bool:
    """Whether a half-translation stratum contains a hyperelliptic component.

    ``orders`` lists the nonzero singularity orders in ascending order.
    The three families: two odd pairs; an odd pair plus one order
    ``2 (mod 4)``; two orders ``2 (mod 4)``.
    """
    if len(orders) == 4:
        a, a2, b, b2 = orders
        return (
            a == a2
            and b == b2
            and a % 2
            and b % 2
            and a >= -1
            and b >= 1
        )
    if len(orders) == 3:
        if orders[0] == orders[1]:
            pair, single = orders[0], orders[2]
        elif orders[1] == orders[2]:
            pair, single = orders[1], orders[0]
        else:
            return False
        return bool(pair % 2) and pair >= -1 and single >= 2 and single % 4 == 2
    if len(orders) == 2:
        return all(c >= 2 and c % 4 == 2 for c in orders)
    return False


def expected_components(st: Stratum) -> int:
    """Number of connected components per the classification theorems."""
    effective = tuple(k for k in st.orders if k != 0)
    if st.kind is StratumKind.ABELIAN:
        if not effective:
            return 1
        g = st.genus
        hyp = effective == (2 * g - 2,) or effective == (g - 1, g - 1)
        all_even = all(k % 2 == 0 for k in effective)
        if hyp:
            if g == 2:
                return 1
            if g == 3:
                return 2
            return 3 if all_even else 2
        return 2 if all_even and g >= 4 else 1
    if effective in _CONNECTED_QUADRATIC:
        return 1
    if effective in _EXCEPTIONAL_QUADRATIC:
        return 2
    return 2 if _quadratic_has_hyperelliptic(effective) else 1


def _label_needs_class(st: Stratum) -> bool:
    """Whether labelling a table of ``st`` needs the table's whole class.

    True on the strata with a hyperelliptic component, where the label
    rests on a scan of the class for a symmetric vertex, and on the
    exceptional half-translation strata, whose split compares smallest
    vertices.  Everywhere else the label is read off the table alone.  The
    abelian families ``H(2g-2)`` and ``H(g-1,g-1)`` count at every genus:
    at genus 2 they are connected and the label needs no scan, but the
    class of ``1 2 3 4 / 4 3 2 1`` in ``H(2)`` is what the tracer
    self-test of ``benchmark/run.py`` counts.  The connected
    half-translation strata are labelled without the class.
    """
    effective = tuple(k for k in st.orders if k != 0)
    if st.kind is StratumKind.ABELIAN:
        g = st.genus
        return effective == (2 * g - 2,) or effective == (g - 1, g - 1)
    if effective in _CONNECTED_QUADRATIC:
        return False
    return effective in _EXCEPTIONAL_QUADRATIC or _quadratic_has_hyperelliptic(
        effective
    )


def _label_abelian(
    st: Stratum, hyperelliptic: bool, parity
) -> ComponentLabel:
    effective = tuple(k for k in st.orders if k != 0)
    if not effective:
        return ComponentLabel.UNIQUE
    g = st.genus
    hyp_family = effective == (2 * g - 2,) or effective == (g - 1, g - 1)
    all_even = all(k % 2 == 0 for k in effective)
    if hyp_family:
        if g == 2:
            return ComponentLabel.HYPERELLIPTIC
        if hyperelliptic:
            return ComponentLabel.HYPERELLIPTIC
        if all_even:
            return (
                ComponentLabel.ODD_SPIN if parity else ComponentLabel.EVEN_SPIN
            )
        return ComponentLabel.NON_HYPERELLIPTIC
    if all_even and g >= 4:
        return ComponentLabel.ODD_SPIN if parity else ComponentLabel.EVEN_SPIN
    return ComponentLabel.UNIQUE


def label_for_class(
    vertices: tuple[GenPerm, ...], budget: int = 10**7
) -> ComponentLabel:
    """Component label of a class, given by its vertices.

    In the strata where :func:`_label_needs_class` holds, ``vertices`` must
    be the whole class: hyperellipticity is decided by scanning it, and the
    exceptional split needs its smallest vertex.  Elsewhere no scan runs
    and any nonempty subset of the class, such as one table, gives the
    same label.  Stratum and spin parity are computed on the smallest given
    vertex; both are constant on a class.
    """
    rep = min(vertices, key=lambda v: v.key)
    st = stratum(rep)
    effective = tuple(k for k in st.orders if k != 0)
    if st.kind is StratumKind.ABELIAN:
        hyp_family = _label_needs_class(st)
        hyperelliptic = hyp_family and any(
            _is_hyperelliptic_vertex(v, st) for v in vertices
        )
        parity = None
        g = st.genus
        all_even = all(k % 2 == 0 for k in effective)
        needs_parity = effective and all_even and (
            (hyp_family and not hyperelliptic and g >= 3) or
            (not hyp_family and g >= 4)
        )
        if needs_parity:
            parity = spin_parity(rep)
        return _label_abelian(st, hyperelliptic, parity)
    if effective in _CONNECTED_QUADRATIC:
        return ComponentLabel.UNIQUE
    if effective in _EXCEPTIONAL_QUADRATIC:
        return _exceptional_label(rep, st, budget)
    if _quadratic_has_hyperelliptic(effective):
        hyperelliptic = any(
            _is_hyperelliptic_vertex(v, st) for v in vertices
        )
        return (
            ComponentLabel.HYPERELLIPTIC
            if hyperelliptic
            else ComponentLabel.NON_HYPERELLIPTIC
        )
    return ComponentLabel.UNIQUE


def _exceptional_label(rep: GenPerm, st: Stratum, budget: int) -> ComponentLabel:
    """Stable two-way split of the exceptional half-translation strata.

    No combinatorial component invariant is available for these four
    strata; classes sharing a marked order are separated by comparing
    their smallest vertices, which is stable across runs.  ``rep`` must be
    the smallest vertex of its class.
    """
    from .classes import _stratum_reps_cached

    reps = _stratum_reps_cached(st, budget)
    alpha = marked_order(rep)
    group = sorted(r.key for r in reps if marked_order(r) == alpha)
    return (
        ComponentLabel.EXCEPTIONAL_A
        if group and rep.key == group[0]
        else ComponentLabel.EXCEPTIONAL_B
    )


def component_label(p: GenPerm, budget: int = 10**7) -> ComponentLabel:
    """Connected-component label of the suspension surface of ``p``.

    The Rauzy class of ``p`` is enumerated, within ``budget`` vertices,
    only when :func:`_label_needs_class` holds for its stratum; otherwise
    the label, spin parity included, is computed on ``p`` alone.
    """
    if not is_irreducible(p):
        raise Reducible(f"{p} admits no suspension")
    if _label_needs_class(stratum(p)):
        return label_for_class(_class_vertices(p, budget), budget)
    return label_for_class((p,), budget)
