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

Component labels follow the classification of stratum components, which
:func:`stratum_components` lists once for every stratum: Kontsevich–Zorich
(*Invent. Math.* 153, 2003) for orientable strata, with at most three
components (hyperelliptic, and for all-even degrees an even and an odd
spin structure); Lanneau (*Ann. Sci. ENS* 41, 2008) for half-translation
strata, with at most two; and Masur–Smillie (*Comment. Math. Helv.* 68,
1993) for the four empty half-translation strata ``Q(0)``, ``Q(-1,1)``,
``Q(4)`` and ``Q(3,1)``, with none.  The component count, the label of a
class and the verifier's check are all read off that list.

A label is decided on the table wherever the table can decide it, and
:func:`_table_label` is the one place that holds the rules.  Spin parity
is the Arf invariant of the quadratic form that takes the value 1 on every
symbol curve, over the mod-2 intersection form of those curves (Zorich,
*J. Mod. Dyn.* 2, 2008, appendix); it needs no polygon witness and splits
the spin components.  In ``H(2g-2)`` and ``H(g-1,g-1)`` the hyperelliptic
component has spin parity ``(g+1)//2 mod 2`` where spin applies
(Kontsevich–Zorich, Cor. 5), so any other parity gives the spin label,
and in genus 3, which has no even component, that parity gives
``hyperelliptic``.  Where spin cannot decide and the stratum has no marked
point (``H(3,3)``, or even spin in ``H(6)``), each component holds one
class and the hyperelliptic one is the class of the reversal
``1 ... d / d ... 1``, with ``2^(d-1) - 1`` vertices (Rauzy, *Acta
Arith.* 34, 1979): a breadth-first search from the table that meets that
many vertices without the reversal has left the hyperelliptic class.

Labelling still enumerates the table's Rauzy class elsewhere.  With
marked points and the hyperelliptic spin parity (``H(6,0)``, say), and in
the half-translation families with a hyperelliptic component, the class
is scanned for a vertex fixed by the central symmetry (reverse both rows,
swap them, renumber) whose half-turn involution both has a spherical
quotient and moves the singularities the way the component's double-cover
structure dictates; bare symmetry is not enough, as symmetric vertices
also occur in non-hyperelliptic classes.
In the four exceptional half-translation strata, which no known invariant
splits, the class holding the least table of the stratum with its marked
order is ``exceptional-a``.  Genus 2 is connected, but its class is still
built too (see :func:`component_label`).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Collection, Optional

from .combinat import (
    GenPerm,
    PermKind,
    Rows,
    _irreducible_tables,
    _smallest_vertex,
    is_irreducible,
    reduce,
)
from .errors import BudgetExceeded, NotAbelian, OddDegreePresent, Reducible

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


def _corner_walk(p: GenPerm) -> tuple[list[int], list[tuple[list[int], int]]]:
    """Boundary partner map and the corner cycles with their orders.

    The boundary lists the bottom row left to right, then the top row
    right to left; each position is paired with the other occurrence of
    its symbol.  A corner cycle is an orbit of the corner walk; interior
    corners contribute pi each and the two shared end corners (positions
    0 and m) none.  Orders are in the convention of ``p``'s kind.  The
    first cycle is the one through position 0, the marked corner.
    """
    l, m = p.shape
    n = l + m
    partner = [-1] * n
    first_seen: dict[int, int] = {}
    for t, s in enumerate(p.bottom + p.top[::-1]):
        if s in first_seen:
            partner[first_seen[s]] = t
            partner[t] = first_seen[s]
        else:
            first_seen[s] = t
    iet = p.kind is PermKind.IET
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
            t = partner[t - 1]  # index -1 wraps round to the last position
        angle = len(cycle) - (0 in cycle) - (m in cycle)
        if not iet:
            cycles.append((cycle, angle - 2))
        elif angle % 2:
            raise RuntimeError(f"odd angle count on an orientable surface: {p}")
        else:
            cycles.append((cycle, angle // 2 - 1))
    return partner, cycles


def singularity_profile(p: GenPerm) -> Profile:
    """Combinatorial singularity data of the suspension surface over ``p``."""
    if p.d < 2:
        raise ValueError("suspensions over a single interval are degenerate")
    if not is_irreducible(p):
        raise Reducible(f"{p} admits no suspension")
    return _known_profile(p)


def _known_profile(p: GenPerm) -> Profile:
    """:func:`singularity_profile` of a table already known to be irreducible.

    For callers whose tables come from an irreducibility filter, such as
    :func:`rauzy.combinat._irreducible_tables`; nothing is checked.
    """
    _, cycles = _corner_walk(p)
    orders = sorted(order for _, order in cycles)
    return Profile(tuple(orders), cycles[0][1])


def marked_order(p: GenPerm) -> int:
    return singularity_profile(p).marked


def stratum(p: GenPerm) -> Stratum:
    """Stratum of the suspension surface, with consistency checks."""
    return _stratum_of(p, singularity_profile(p))


def _stratum_of(p: GenPerm, profile: Profile) -> Stratum:
    """The stratum of ``p`` whose orders ``profile`` lists, with the dimension check."""
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
    """Parity of the spin structure of the suspension surface over ``p``.

    Symbol ``i`` gives a closed curve ``c_i`` that rises from the bottom
    copy of interval ``i`` to its top copy, where the gluing closes it up
    with no net turn of its tangent.  The quadratic form of the spin
    structure, ``q(c) = ind(c) + 1 (mod 2)`` with ``ind`` the turning
    number, therefore takes the value 1 on every ``c_i``.  These curves
    span the homology mod 2 and ``q(a + b) = q(a) + q(b) + a.b``, so the
    spin parity is the Arf invariant of the form with ``q(c_i) = 1`` on the
    mod-2 intersection form of :func:`_intersection_matrix` (Zorich,
    *J. Mod. Dyn.* 2, 2008, appendix).

    Defined for irreducible interval-exchange permutations whose
    singularity degrees are all even; constant on the class.

    >>> from rauzy.combinat import parse
    >>> spin_parity(parse("1 2 3 4 / 4 3 2 1"))
    1
    >>> spin_parity(parse("1 2 3 4 5 6 / 6 5 4 3 2 1"))
    0
    """
    if p.kind is not PermKind.IET:
        raise NotAbelian(f"{p} is not an interval exchange permutation")
    profile = singularity_profile(p)
    if any(k % 2 for k in profile.orders):
        raise OddDegreePresent(f"degrees {profile.orders} are not all even")
    genus = sum(profile.orders) // 2 + 1
    d = p.d
    rows = _intersection_matrix(p)

    def q_of(mask: int) -> int:
        bits = [i for i in range(d) if mask >> i & 1]
        total = len(bits) & 1
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
            raise RuntimeError(f"spin form does not vanish on the radical of {p}")
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
    partner, cycles = _corner_walk(p)
    self_paired = sum(1 for t in range(n) if partner[t] == (t + m) % n) // 2
    fixed = 1 + self_paired
    invariant: list[int] = []
    moved: list[int] = []
    for cycle, order in cycles:
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

_EMPTY_QUADRATIC = {(), (-1, 1), (4,), (1, 3)}


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


def stratum_components(st: Stratum) -> tuple[ComponentLabel, ...]:
    """Labels of the connected components of ``st``, one per component.

    Marked points do not change the components.  Abelian strata follow
    Kontsevich–Zorich: genus 1 and 2 are connected (genus 2 is
    hyperelliptic); ``H(2g-2)`` and ``H(g-1,g-1)`` have a hyperelliptic
    component; all-even degrees split the rest by spin parity, with only
    the odd one in genus 3; any other stratum is connected.
    Half-translation strata follow Lanneau: six connected strata of genus
    at most 2 lie in the hyperelliptic families, the other strata of
    those families have a hyperelliptic and a non-hyperelliptic
    component, four exceptional strata have two components, and the rest
    are connected.  ``Q(0)``, ``Q(-1,1)``, ``Q(4)`` and ``Q(3,1)`` are
    empty (Masur–Smillie).

    >>> stratum_components(parse_stratum("H(4)"))
    (<ComponentLabel.HYPERELLIPTIC: 'hyperelliptic'>, <ComponentLabel.ODD_SPIN: 'odd-spin'>)
    >>> stratum_components(parse_stratum("Q(3,1)"))
    ()
    """
    effective = tuple(k for k in st.orders if k != 0)
    if st.kind is StratumKind.QUADRATIC:
        if effective in _EMPTY_QUADRATIC:
            return ()
        if effective in _EXCEPTIONAL_QUADRATIC:
            return (ComponentLabel.EXCEPTIONAL_A, ComponentLabel.EXCEPTIONAL_B)
        if _quadratic_has_hyperelliptic(effective) and (
            effective not in _CONNECTED_QUADRATIC
        ):
            return (ComponentLabel.HYPERELLIPTIC, ComponentLabel.NON_HYPERELLIPTIC)
        return (ComponentLabel.UNIQUE,)
    g = st.genus
    if g == 1:
        return (ComponentLabel.UNIQUE,)
    if g == 2:
        return (ComponentLabel.HYPERELLIPTIC,)
    hyp = (
        (ComponentLabel.HYPERELLIPTIC,)
        if effective in ((2 * g - 2,), (g - 1, g - 1))
        else ()
    )
    if all(k % 2 == 0 for k in effective):
        spin = (ComponentLabel.EVEN_SPIN,) if g >= 4 else ()
        return hyp + spin + (ComponentLabel.ODD_SPIN,)
    if hyp:
        return hyp + (ComponentLabel.NON_HYPERELLIPTIC,)
    return (ComponentLabel.UNIQUE,)


def _hyperelliptic_parity(genus: int) -> int:
    """Spin parity of the hyperelliptic component in genus ``genus``.

    The component of ``H(2g-2)`` or ``H(g-1,g-1)``: Kontsevich–Zorich (*Invent. Math.* 153, 2003, Cor. 5); for
    ``H(g-1,g-1)`` it applies when ``g`` is odd, the degrees being even.
    """
    return (genus + 1) // 2 % 2


def _reversal(d: int) -> Rows:
    """Rows of the reversal ``1 ... d / d ... 1``."""
    return tuple(range(1, d + 1)), tuple(range(d, 0, -1))


class _ClassTest(Enum):
    """What decides a label that the table alone leaves open.

    The class passes ``REVERSAL`` when it holds :func:`_reversal`,
    ``SYMMETRIC`` when one of its vertices passes
    :func:`_is_hyperelliptic_vertex`, and ``LEAST_TABLE`` when it holds the
    least table of :func:`_least_table`.
    """

    REVERSAL = "reversal"
    SYMMETRIC = "symmetric"
    LEAST_TABLE = "least-table"


def _table_label(
    p: GenPerm, st: Stratum
) -> tuple[ComponentLabel, Optional[_ClassTest]]:
    """The label that the table ``p`` of stratum ``st`` gives on its own.

    Returns ``(label, None)`` when ``p`` decides its label, and
    ``(label, test)`` when its class must: the class is then hyperelliptic
    (``exceptional-a`` for ``LEAST_TABLE``) if it passes ``test``, and
    ``label`` otherwise.  The rules, in order:

    * a stratum with one component has that label;
    * an exceptional stratum is split by its least table;
    * where spin parity applies, a parity other than the hyperelliptic one
      (:func:`_hyperelliptic_parity`) gives the spin label, and the
      hyperelliptic parity gives ``hyperelliptic`` when no spin component
      has it (genus 3);
    * otherwise an orientable stratum with no marked point has one class
      per component, and the hyperelliptic one is the class of the
      reversal (Rauzy 1979); with marked points, and in the
      half-translation families, a hyperelliptic vertex decides.
    """
    components = stratum_components(st)
    if not components:
        raise RuntimeError(f"{p} realises the empty stratum {st}")
    if len(components) == 1:
        return components[0], None
    if ComponentLabel.EXCEPTIONAL_A in components:
        return ComponentLabel.EXCEPTIONAL_B, _ClassTest.LEAST_TABLE
    if ComponentLabel.ODD_SPIN in components:
        parity = spin_parity(p)
        label = ComponentLabel.ODD_SPIN if parity else ComponentLabel.EVEN_SPIN
        if (
            ComponentLabel.HYPERELLIPTIC not in components
            or parity != _hyperelliptic_parity(st.genus)
        ):
            return label, None
        if label not in components:
            return ComponentLabel.HYPERELLIPTIC, None
    else:
        label = ComponentLabel.NON_HYPERELLIPTIC
    if st.kind is StratumKind.ABELIAN and 0 not in st.orders:
        return label, _ClassTest.REVERSAL
    return label, _ClassTest.SYMMETRIC


def _settle(
    label: ComponentLabel,
    test: Optional[_ClassTest],
    rows: Collection[Rows],
    rep: GenPerm,
    st: Stratum,
) -> ComponentLabel:
    """``label``, or the label a pass of ``test`` gives to the class ``rows``.

    ``rows`` must be the whole class unless ``test`` is None; ``rep`` is
    one of its vertices and ``st`` its stratum.
    """
    if test is None:
        return label
    if test is _ClassTest.LEAST_TABLE:
        if _least_table(st, marked_order(rep)) in rows:
            return ComponentLabel.EXCEPTIONAL_A
        return label
    if test is _ClassTest.REVERSAL:
        hyperelliptic = _reversal(st.d) in rows
    else:
        hyperelliptic = any(
            _is_centrally_symmetric(top, bottom)
            and _is_hyperelliptic_vertex(GenPerm._trusted(top, bottom), st)
            for top, bottom in rows
        )
    return ComponentLabel.HYPERELLIPTIC if hyperelliptic else label


def label_for_class(rows: Collection[Rows]) -> ComponentLabel:
    """Component label of a class, given by its vertices' ``(top, bottom)`` rows.

    Stratum and spin parity are computed on the smallest given vertex, and
    :func:`_table_label` decides from it where it can, so any nonempty
    subset of the class, such as one table, gives the label there.  Where
    it cannot, ``rows`` must be the whole class, such as a diagram's table:
    an orientable class without marked points is hyperelliptic when it
    holds the reversal, one with marked points or of a half-translation
    family when it has a hyperelliptic vertex, and an exceptional class is
    ``exceptional-a`` when it holds the least table of its stratum.
    """
    rep = _smallest_vertex(rows)
    st = stratum(rep)
    label, test = _table_label(rep, st)
    return _settle(label, test, rows, rep, st)


def _least_table(st: Stratum, alpha: int) -> Optional[Rows]:
    """The least table of ``st`` with marked order ``alpha``, if any.

    Least is in :attr:`GenPerm.key` order.  This table splits an exceptional half-translation stratum: the class
    that holds it is ``exceptional-a``, and the other class with that
    marked order is ``exceptional-b``.  :func:`_irreducible_tables` yields
    tables by top-row length, shortest first, so the scan stops after the
    first length that holds a match.
    """
    least: Rows | None = None
    for top, bottom in _irreducible_tables(st.d):
        if least is not None:
            if len(top) > len(least[0]):
                break
            if (top, bottom) > least:
                continue
        p = GenPerm._trusted(top, bottom)
        profile = _known_profile(p)
        if profile.marked == alpha and _stratum_of(p, profile) == st:
            least = (top, bottom)
    return least


def _reaches_reversal(p: GenPerm, budget: int) -> bool:
    """Whether the class of the permutation ``p`` holds the reversal.

    The class of the reversal has ``2^(d-1) - 1`` vertices (Rauzy 1979),
    so a breadth-first search from ``p`` that meets that many vertices
    without it is in another class and stops there.  A smaller ``budget``
    that runs out raises :class:`BudgetExceeded`.
    """
    from .classes import _bfs_rows

    reversal = _reversal(p.d)
    seed = (p.top, p.bottom)
    limit = 2 ** (p.d - 1) - 1
    try:
        return seed == reversal or reversal in _bfs_rows(
            seed, min(budget, limit), stop=reversal
        )
    except BudgetExceeded:
        if budget < limit:
            raise
        return False


def component_label(p: GenPerm, budget: int = 10**7) -> ComponentLabel:
    """Connected-component label of the suspension surface of ``p``.

    :func:`_table_label` decides on ``p`` alone wherever it can, spin parity
    included.  An orientable table without marked points that it leaves
    open (``H(3,3)``, say, or even spin in ``H(6)``) is hyperelliptic when
    a breadth-first search meets the reversal within ``2^(d-1) - 1``
    vertices.  The Rauzy class of ``p`` is enumerated only for a table with
    marked points whose spin parity is the hyperelliptic one (``H(6,0)``,
    say), in the half-translation families with a hyperelliptic component,
    in the four exceptional strata, and in genus 2.  A search or a class
    that needs more than ``budget`` vertices raises
    :class:`BudgetExceeded`.
    """
    return _component_label(p, stratum(p), budget)


def _component_label(p: GenPerm, st: Stratum, budget: int) -> ComponentLabel:
    """:func:`component_label` of ``p``, whose stratum ``st`` is known."""
    from .classes import rauzy_class

    label, test = _table_label(p, st)
    if test is _ClassTest.REVERSAL:
        if _reaches_reversal(p, budget):
            return ComponentLabel.HYPERELLIPTIC
        return label
    if test is None:
        if stratum_components(st) == (ComponentLabel.HYPERELLIPTIC,):
            # Genus 2 is connected, but its class is still built: the tracer
            # self-test of benchmark/run.py counts the 7 vertices of the
            # class of 1 2 3 4 / 4 3 2 1.
            rauzy_class(p, budget)
        return label
    return _settle(label, test, rauzy_class(p, budget).table, p, st)
