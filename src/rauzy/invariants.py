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
strata, with at most two, among them the five exceptional strata
``Q(12)``, ``Q(-1,9)``, ``Q(-1,3,6)``, ``Q(-1,3,3,3)`` and ``Q(3,9)``,
whose two components no known invariant splits; and Masur–Smillie
(*Comment. Math. Helv.* 68, 1993) for the four empty half-translation
strata ``Q(0)``, ``Q(-1,1)``, ``Q(4)`` and ``Q(3,1)``, with none.  The
component count, the label of a class and the verifier's check are all
read off that list.

Spin parity is the Arf invariant of the quadratic form that takes the
value 1 on every symbol curve, over the mod-2 intersection form of those
curves (Zorich, *J. Mod. Dyn.* 2, 2008, appendix); it needs no polygon
witness and splits the spin components.  One symplectic reduction over
GF(2) finds it, each basis vector carrying the value of the form on it,
so the form is never recomputed.  :func:`_component_label` is the
one procedure that decides a label, and it lists the rules with their
sources.  :func:`component_label` applies it to one table, and
:func:`label_for_class` to a class that the caller holds.

Where spin parity does not decide, a permutation's label is read off the
move rule of :func:`rauzy.induction._to_standard`, which walks to a
standard permutation of the class (every class holds one: Rauzy, *Acta
Arith.* 34, 1979), with no search.  A regular point to forget lies on the
table, at the walk's end or one move 0 past it, and the label is that of
the merged table one stratum down; with no unmarked 0, the class is
hyperelliptic exactly when the walk ends at the literal standard
permutation of :func:`_standard_hyperelliptic`.  A generalized table asks
one question instead, because a component and a marked order fix the
class (Boissy, arXiv:0904.3826): does the class hold a reference table of
the stratum and marked order?  The reference is the least table
(:func:`_least_table`) in an exceptional stratum and a symmetric
hyperelliptic table (:func:`_hyperelliptic_table`) elsewhere.  One search
over row-exchange pairs between the two tables answers it, or a lookup in
the class that the caller holds.  A class is built only in genus 2.
"""
from __future__ import annotations

from enum import Enum
from typing import Collection, Iterator, NamedTuple, Optional

from .combinat import (
    GenPerm,
    PermKind,
    _irreducible_tables,
    _is_permutation,
    _reduced,
    _top_rows,
    irreducible_rows,
    is_irreducible,
)
from .errors import BudgetExceeded, MoveCapExceeded, NotAbelian, OddDegreePresent, Reducible
from .induction import _table_move, _to_standard

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


class Stratum:
    """A stratum tag: kind plus the multiset of singularity orders.

    Orders are stored ascending.  ``H(...)`` lists degrees descending,
    ``Q(...)`` lists orders ascending, matching the usual notations.
    Frozen: ``kind`` and ``orders`` are set once, by the constructor.
    """

    kind: StratumKind
    orders: tuple[int, ...]

    def __init__(self, kind: StratumKind, orders: Collection[int]) -> None:
        orders = tuple(sorted(orders))
        total = sum(orders)
        if kind is StratumKind.ABELIAN:
            if any(k < 0 for k in orders) or total % 2 or total < 0:
                raise ValueError(f"impossible degree data {orders}")
        else:
            if any(k < -1 for k in orders) or total % 4 or total < -4:
                raise ValueError(f"impossible order data {orders}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "orders", orders)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if type(other) is not Stratum:
            return NotImplemented
        return self.kind is other.kind and self.orders == other.orders

    def __hash__(self) -> int:
        return hash((self.kind, self.orders))

    def __repr__(self) -> str:
        return f"Stratum(kind={self.kind!r}, orders={self.orders!r})"

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
    try:
        orders = tuple(int(tok) for tok in body.split(",")) if body else ()
    except ValueError:
        raise ValueError(f"cannot parse stratum {text!r}") from None
    if not orders:
        raise ValueError("a stratum needs at least one singularity order")
    return Stratum(kind, orders)


# ---------------------------------------------------------------------------
# Singularity profile


class Profile(NamedTuple):
    """Multiset of singularity orders plus the marked order.

    The marked order is attached to the identification class containing
    the left end corner of the polygon; it is invariant under both moves.
    """

    orders: tuple[int, ...]
    marked: int


def _corner_walk(top: bytes, bottom: bytes) -> list[tuple[list[int], int]]:
    """The corner cycles of the table ``top / bottom``, byte rows, with their orders.

    The boundary lists the bottom row left to right, then the top row
    right to left; each position is paired with the other occurrence of
    its symbol.  A corner cycle is an orbit of the corner walk, as a list
    of boundary positions; interior corners contribute pi each and the two
    shared end corners (positions 0 and m) none.  Orders are in the
    convention of the table's kind (:func:`rauzy.combinat._is_permutation`).
    The first cycle is the one through position 0, the marked corner.  The
    walk reads the rows alone, so loops over many keys wrap none.
    """
    m = len(bottom)
    n = len(top) + m
    partner = [-1] * n
    first_seen: dict[int, int] = {}
    for t, s in enumerate(bottom + top[::-1]):
        if s in first_seen:
            partner[first_seen[s]] = t
            partner[t] = first_seen[s]
        else:
            first_seen[s] = t
    iet = _is_permutation(top, bottom)
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
            p = GenPerm._of(top + b"\0" + bottom)
            raise RuntimeError(f"odd angle count on an orientable surface: {p}")
        else:
            cycles.append((cycle, angle // 2 - 1))
    return cycles


def singularity_profile(p: GenPerm) -> Profile:
    """Combinatorial singularity data of the suspension surface over ``p``."""
    if p.d < 2:
        raise ValueError("suspensions over a single interval are degenerate")
    if not is_irreducible(p):
        raise Reducible(f"{p} admits no suspension")
    return _known_profile(p._key)


def _known_profile(key: bytes) -> Profile:
    """:func:`singularity_profile` of the key of a table known to be irreducible.

    For callers whose tables come from an irreducibility filter, such as
    :func:`rauzy.combinat._irreducible_tables`; nothing is checked, and the
    key is read as it is, with no ``GenPerm``.
    """
    top, _, bottom = key.partition(b"\0")
    cycles = _corner_walk(top, bottom)
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
    between the rows.  The top row of a reduced permutation is ``1 ... d``,
    so symbols ``a < b`` intersect exactly when ``b`` comes first in the
    bottom row.
    """
    rows = [0] * p.d
    bottom = p._key.partition(b"\0")[2]
    for j, b in enumerate(bottom):
        for a in bottom[j + 1 :]:
            if a < b:
                rows[a - 1] |= 1 << (b - 1)
                rows[b - 1] |= 1 << (a - 1)
    return rows


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
    return _spin_parity(p, sum(profile.orders) // 2 + 1)


def _spin_parity(p: GenPerm, genus: int) -> int:
    """:func:`spin_parity` of ``p``, whose profile gives its ``genus``.

    For callers that already hold the profile or the stratum of an
    irreducible interval-exchange permutation with even degrees; only the
    rank of the form is checked against ``genus``.

    One symplectic reduction over GF(2), in which each basis vector ``v``
    carries its pairing row ``M v``, for ``M`` the matrix of
    :func:`_intersection_matrix`, and the value ``q(v)``.  A vector ``a``
    with a partner ``b``, ``a.b = 1``, adds ``q(a) q(b)`` to the Arf
    invariant, and every other ``v`` becomes ``v + (v.b) a + (v.a) b``,
    orthogonal to both, with value ``q(v) + (v.b) (q(a) + v.a) + (v.a) q(b)``
    by ``q(x + y) = q(x) + q(y) + x.y``; the form is never recomputed.  A
    vector with no partner lies in the radical, where ``q`` must vanish.
    """
    basis = [(1 << i, row, 1) for i, row in enumerate(_intersection_matrix(p))]
    arf = pairs = radical = 0
    while basis:
        a, ma, qa = basis.pop()
        for k, (b, mb, qb) in enumerate(basis):
            if (ma & b).bit_count() & 1:
                break
        else:
            radical |= qa
            continue
        del basis[k]
        arf ^= qa & qb
        pairs += 1
        for k, (v, mv, qv) in enumerate(basis):
            va = (ma & v).bit_count() & 1
            vb = (mb & v).bit_count() & 1
            if va:
                v, mv, qv = v ^ b, mv ^ mb, qv ^ qb
            if vb:
                v, mv, qv = v ^ a, mv ^ ma, qv ^ qa ^ va
            basis[k] = (v, mv, qv)
    if pairs != genus:
        raise RuntimeError(
            f"symplectic rank {2 * pairs} does not match genus {genus} for {p}"
        )
    if radical:
        raise RuntimeError(f"spin form does not vanish on the radical of {p}")
    return arf


# ---------------------------------------------------------------------------
# Hyperellipticity and component labels


def central_involution(p: GenPerm) -> GenPerm:
    """Reverse both rows, exchange them, renumber: the key read backwards, reduced."""
    return GenPerm._of(_reduced(p._key[::-1]))


def _rotation_data(p: GenPerm) -> tuple[int, list[int], list[int]]:
    """Fixed points and singularity action of a symmetric vertex's involution.

    When ``p`` equals its central involution, rotating the suspension
    polygon by a half turn about its centre descends to an isometric
    involution of the glued surface.  Its fixed points are the rotation
    centre, one interior point on each edge whose glued partner is its
    own rotation image, and every singularity whose corner class the
    rotation preserves.  On the boundary listing the rotation is the shift
    by ``m`` positions, half the perimeter, so everything is counted
    combinatorially: an edge is paired with its rotation image when the
    symbol ``m`` positions on along the boundary is its own, and a corner
    cycle of :func:`_corner_walk` is preserved when the shift maps it onto
    itself.

    Returns ``(fixed_points, invariant_orders, moved_orders)`` with the
    orders of the singularity classes preserved or exchanged by the
    involution (in the convention of ``p``'s kind).
    """
    top, _, bottom = p._key.partition(b"\0")
    m = len(bottom)
    boundary = bottom + top[::-1]
    n = len(boundary)
    fixed = 1 + sum(boundary[t] == boundary[(t + m) % n] for t in range(n)) // 2
    invariant: list[int] = []
    moved: list[int] = []
    for cycle, order in _corner_walk(top, bottom):
        if set(cycle) == {(t + m) % n for t in cycle}:
            fixed += 1
            invariant.append(order)
        else:
            moved.append(order)
    return fixed, invariant, moved


def _is_hyperelliptic_vertex(v: GenPerm, st: Stratum) -> bool:
    """Centrally symmetric with the component's involution structure.

    The vertex is centrally symmetric when it is its own
    :func:`central_involution`: its key read backwards and renumbered is
    its key.  The half-turn involution of a symmetric vertex quotients the
    surface to a sphere exactly when it has ``2 genus + 2`` fixed points
    (an Euler characteristic count).  Sphericity alone only makes the surface
    hyperelliptic; membership in the hyperelliptic component also pins
    down how the involution moves the singularities:

    * orientable, single zero: the zero stays put (automatic);
    * orientable, two equal zeros: the zeros are exchanged;
    * half-translation: odd-order singularities are exchanged in pairs,
      even-order ones stay put.
    """
    if _reduced(v._key[::-1]) != v._key:
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
    (3, 9),
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
    component, five exceptional strata have two components, and the rest
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


def _forget_regular_point(key: bytes) -> Optional[bytes]:
    """A table's key with one unmarked regular point forgotten.

    A corner cycle of :func:`_corner_walk` with order 0 and two corners is
    an interior point of angle ``2 pi``, never the marked one.  Its least
    position lies between boundary letters ``x y``, and the walk glues that
    corner to one between ``y x`` elsewhere on the boundary, and to nothing
    else.  Deleting ``y`` from the key and renumbering merges the two
    intervals, which gives the same surface with that point forgotten: a
    table of the stratum with one fewer ``0``, with the same marked order
    and the same component label (marked points do not change the
    components, Kontsevich–Zorich for permutations, Lanneau for
    half-translation tables).  Returns the merge of the first such cycle,
    or None when there is none.  The merge may be reducible, and then
    :func:`stratum` rejects it.

    On a permutation each letter occurs once in each row, so one corner
    lies in each row, and with the top row ``1 ... d`` the letters are
    ``s, s+1`` side by side in both.  The walk lists the cycles by their
    least positions, which lie in the bottom row, so the first cycle is the
    first such pair along the bottom row.

    >>> from .combinat import format_perm, parse
    >>> p = parse("1 2 3 4 5 6 7 8 9 / 3 4 2 6 9 8 5 7 1")
    >>> stratum(p).text, component_label(p).value
    ('H(6,0)', 'even-spin')
    >>> q = GenPerm._of(_forget_regular_point(p._key))
    >>> format_perm(q)
    '1 2 3 4 5 6 7 8 / 3 2 5 8 7 4 6 1'
    >>> stratum(q).text, component_label(q).value
    ('H(6)', 'even-spin')
    >>> _forget_regular_point(q._key) is None
    True
    >>> p = parse("1 1 2 3 4 5 6 / 5 6 4 3 2 7 7")
    >>> stratum(p).text, marked_order(p)
    ('Q(-1,-1,0,6)', 6)
    >>> format_perm(GenPerm._of(_forget_regular_point(p._key)))
    '1 1 2 3 4 5 / 5 4 3 2 6 6'
    """
    top, _, bottom = key.partition(b"\0")
    for cycle, order in _corner_walk(top, bottom):
        if order == 0 and len(cycle) == 2:
            y = (bottom + top[::-1])[cycle[0]]
            return _reduced(key.replace(bytes([y]), b""))
    return None


def _least_table(st: Stratum, alpha: int, budget: int = 10**7) -> Optional[bytes]:
    """The key of the least table of ``st`` with marked order ``alpha``, if any.

    Least is in :attr:`GenPerm.key` order.  This table splits an
    exceptional half-translation stratum: the class that holds it is
    ``exceptional-a``, and the other class with that marked order is
    ``exceptional-b``.  :func:`_irreducible_tables` yields tables in that
    order, so the first match is the least.  It yields the shapes
    ``l <= m`` only, and the least table has such a shape: the row
    exchange, ``_reduced(bottom + b"\\0" + top)``
    (:func:`rauzy.combinat._reduced`), keeps the stratum and the
    marked order, so a table with ``l > m`` has an image with a shorter top
    row, which comes first.  Those tables are generalized, so ``st`` is a
    half-translation stratum, and a table is of ``st`` when its profile
    lists the orders of ``st``; no table is wrapped.  A scan that tries
    more than ``budget`` tables raises :class:`BudgetExceeded`.
    """
    for tried, key in enumerate(_irreducible_tables(st.d)):
        if tried >= budget:
            raise BudgetExceeded(
                f"the least-table search exceeds the {budget}-table budget"
            )
        profile = _known_profile(key)
        if profile.marked == alpha and profile.orders == st.orders:
            return key
    return None


def _involutions(letters: tuple[int, ...], swaps: int) -> Iterator[dict[int, int]]:
    """Every involution of ``letters`` with ``swaps`` transpositions, as a map."""
    if not swaps:
        yield {s: s for s in letters}
        return
    if len(letters) < 2 * swaps:
        return
    first, rest = letters[0], letters[1:]
    for sigma in _involutions(rest, swaps):
        yield {first: first, **sigma}
    for i, other in enumerate(rest):
        for sigma in _involutions(rest[:i] + rest[i + 1 :], swaps - 1):
            yield {first: other, other: first, **sigma}


def _hyperelliptic_table(
    st: Stratum, alpha: int, budget: int = 10**7
) -> Optional[bytes]:
    """The key of a hyperelliptic symmetric table of ``st`` with marked order ``alpha``.

    The table passes :func:`_is_hyperelliptic_vertex`; None when no table
    does.  A table is its own central involution exactly when its bottom
    row is its reversed top row relabelled by an involution ``sigma``;
    ``sigma`` exchanges the letters that occur once in the top row among
    themselves and sends each letter doubled there to a letter of the
    bottom row alone, numbered after the top row's letters by its first
    occurrence in the bottom row, which the top row fixes; the top row is
    reduced and keeps its numbers.  Only
    a table with the marked order and the orders of ``st`` is wrapped, for
    the hyperelliptic test.  The search runs over the reduced top rows of
    ``st.d`` cells that double ``k`` letters and the involutions of ``t``
    transpositions on their single letters, by levels ``k + t``, the
    lowest first, and returns the first irreducible table of ``st`` with
    marked order ``alpha`` that passes.  A permutation doubles no letter,
    so for an orientable stratum ``k`` is 0, the top row is ``1 ... d``,
    and level 0 is the reversal; a half-translation table doubles at least
    one.  The symmetric hyperelliptic tables lie at low levels, so the
    search ends early.  A search that tries more than ``budget`` tables
    raises :class:`BudgetExceeded`.  Labels call it for half-translation
    tables alone: a permutation's label compares with the literal of
    :func:`_standard_hyperelliptic`, and the orientable search is that
    literal's oracle in the tests.

    >>> from .combinat import GenPerm, format_perm
    >>> key = _hyperelliptic_table(parse_stratum("Q(-1,-1,6)"), 6)
    >>> format_perm(GenPerm._of(key))
    '1 1 2 3 4 5 / 5 4 3 2 6 6'
    >>> format_perm(GenPerm._of(_hyperelliptic_table(parse_stratum("H(6)"), 6)))
    '1 2 3 4 5 6 7 8 / 8 7 6 5 4 3 2 1'
    >>> p = GenPerm._of(_hyperelliptic_table(parse_stratum("H(6,0)"), 0))
    >>> format_perm(p), stratum(p).text, marked_order(p)
    ('1 2 3 4 5 6 7 8 9 / 2 8 7 6 5 4 3 9 1', 'H(6,0)', 0)
    """
    d = st.d
    tried = 0
    abelian = st.kind is StratumKind.ABELIAN
    for level in range(d // 2 + 1):
        # k doubled letters leave d - 2k singles, room for level - k swaps
        for k in (0,) if abelian else range(1, level + 1):
            for top, once in _top_rows(d, k, k):
                head = bytes(top) + b"\0"
                singles = tuple(s for s in top if once >> s & 1)
                doubled = [s for s in dict.fromkeys(reversed(top)) if not once >> s & 1]
                fresh = dict(zip(doubled, range(max(top) + 1, d + 1)))
                for sigma in _involutions(singles, level - k):
                    tried += 1
                    if tried > budget:
                        raise BudgetExceeded(
                            f"the symmetric-table search exceeds the {budget}-table budget"
                        )
                    bottom = bytes(map({**sigma, **fresh}.__getitem__, reversed(top)))
                    if not irreducible_rows(top, bottom):
                        continue
                    key = head + bottom
                    profile = _known_profile(key)
                    if (
                        profile.marked == alpha
                        and profile.orders == st.orders
                        and _is_hyperelliptic_vertex(GenPerm._of(key), st)
                    ):
                        return key
    return None


def _standard_hyperelliptic(d: int, marked: int) -> bytes:
    """The key of the standard permutation of the hyperelliptic class on
    ``d`` symbols with marked order ``marked`` and no unmarked 0.

    It is the reversal, or with a marked 0 the bottom row ``d, d-2, ...,
    2, d-1, 1``: the end of :func:`rauzy.induction._to_standard` from the
    table of :func:`_hyperelliptic_table`, checked through ten symbols on
    every such class and through twenty on the strata that random
    permutations meet.

    >>> from .combinat import GenPerm, format_perm
    >>> format_perm(GenPerm._of(_standard_hyperelliptic(5, 0)))
    '1 2 3 4 5 / 5 3 2 4 1'
    """
    bottom = range(d, 0, -1) if marked else (d, *range(d - 2, 1, -1), d - 1, 1)
    return bytes((*range(1, d + 1), 0, *bottom))


def label_for_class(
    keys: Collection[bytes], st: Optional[Stratum] = None, budget: int = 10**7
) -> ComponentLabel:
    """Component label of a class, given by its vertex keys.

    Stratum, marked order and spin parity are the same on every vertex, so
    :func:`_component_label` decides on the first of them, with ``keys`` as
    its class.  A permutation's label reads no other key: the move rule
    decides it from that vertex alone.  A rule that needs the class of a
    generalized table looks the key of its reference table up in ``keys``.
    A caller that holds the stratum ``st`` of the class passes it, and no
    corner is walked.  ``budget`` bounds the reference-table searches and
    any search one stratum down, as in :func:`component_label`.
    """
    rep = GenPerm._of(next(iter(keys)))
    return _component_label(rep, stratum(rep) if st is None else st, budget, keys)


def component_label(p: GenPerm, budget: int = 10**7) -> ComponentLabel:
    """Connected-component label of the suspension surface of ``p``.

    The rules are those of :func:`_component_label`; where spin parity
    does not decide, a permutation walks a move rule, and the class of a
    generalized table is searched for a reference table of its stratum and
    marked order.  A search or a class that needs more than ``budget``
    vertices, or a search for a reference table that tries more than
    ``budget`` tables, raises :class:`BudgetExceeded`.

    >>> from .combinat import parse
    >>> p = parse("1 2 3 4 5 6 7 8 9 / 2 4 3 8 7 6 5 9 1")
    >>> stratum(p).text, marked_order(p), component_label(p).value
    ('H(6,0)', 0, 'even-spin')
    """
    return _component_label(p, stratum(p), budget)


def _component_label(
    p: GenPerm,
    st: Stratum,
    budget: int,
    keys: Optional[Collection[bytes]] = None,
) -> ComponentLabel:
    """The label of ``p``, whose stratum ``st`` is known.

    ``keys`` is the class of ``p``, as vertex keys, when the caller holds
    it; only a generalized table reads it.  A component and a marked order
    fix the class (Boissy, arXiv:0904.3826; Lanneau, *Comment. Math. Helv.*
    79, 2004), so a rule that needs the class of a generalized table asks
    one question: does it hold a reference table of the stratum and marked
    order of ``p``?  With ``keys`` the answer is a lookup; otherwise one
    search within ``budget`` tables, from one of the two tables, stops at
    the other (:func:`rauzy.classes._holds`).  A permutation searches
    nothing: it walks the move rule of :func:`rauzy.induction._to_standard`
    to a standard permutation of its class, which every class holds
    (Rauzy, *Acta Arith.* 34, 1979).  Only genus 2 builds a class.  The
    rules, in order:

    * a stratum with one component has that label;
    * an exceptional stratum is split by its least table with the marked
      order of ``p`` (:func:`_least_table`; Boissy–Lanneau, *ETDS* 29,
      2009): the class that holds it is ``exceptional-a``, the other
      ``exceptional-b``; the search runs from ``p``.  That the names pair
      the classes of different marked orders alike is assumed here, and
      checked by the rotation links of :func:`central_involution`, which
      keeps the component and moves the marked point:
      ``TestExceptionalSplit.test_rotation_links_pair_a_with_a`` in
      ``tests/test_invariants.py`` finds that they join ``Q(-1,9)``'s
      a-classes only to a-classes and b-classes only to b-classes;
    * where spin parity applies, a parity other than the hyperelliptic one
      (:func:`_hyperelliptic_parity`, Kontsevich–Zorich, Cor. 5) gives
      the spin label, and the hyperelliptic parity gives ``hyperelliptic``
      when no spin component has it (genus 3);
    * in a stratum of either kind with an order-0 point other than the
      marked one, a table with a regular point to forget
      (:func:`_forget_regular_point`) has the label of its merged table,
      one stratum down, since marked points do not change the components
      (Kontsevich–Zorich; Lanneau, *Ann. Sci. ENS* 41, 2008).  A
      permutation tries ``p``, the end ``e`` of its walk and the move-0
      image of ``e``, and takes the first that merges; when none does, the
      label raises :class:`MoveCapExceeded`, which no permutation through
      ten symbols does (``scripts/standard_rule.py --forget``).  A
      generalized table searches its class from ``p`` for the first such
      vertex, even when ``keys`` is given;
    * otherwise a permutation is hyperelliptic exactly when its walk ends
      at the literal of :func:`_standard_hyperelliptic`: a hyperelliptic
      class with no unmarked 0 holds that one standard permutation
      (checked through ten symbols).  A generalized class is hyperelliptic
      exactly when it holds the symmetric table
      :func:`_hyperelliptic_table` finds; the search runs from that table,
      whose class is the small one, and stops at ``p``.  Bare central
      symmetry is not enough: symmetric vertices also occur in
      non-hyperelliptic classes.

    A class that fails the hyperelliptic test has the spin label found
    above, or ``non-hyperelliptic`` where spin does not apply; with no
    symmetric table to test, a generalized label raises ``RuntimeError``.
    """
    from .classes import _bfs_rows, _holds, rauzy_class

    components = stratum_components(st)
    if not components:
        raise RuntimeError(f"{p} realises the empty stratum {st}")
    if len(components) == 1:
        if keys is None and components == (ComponentLabel.HYPERELLIPTIC,):
            # Genus 2 is connected, but its class is still built: the tracer
            # self-test of benchmark/run.py counts the 7 vertices of the
            # class of 1 2 3 4 / 4 3 2 1.
            rauzy_class(p, budget)
        return components[0]
    if ComponentLabel.EXCEPTIONAL_A in components:
        ref = _least_table(st, _known_profile(p._key).marked, budget)
        found = ref in keys if keys is not None else _holds(p._key, ref, budget)
        return ComponentLabel.EXCEPTIONAL_A if found else ComponentLabel.EXCEPTIONAL_B
    if ComponentLabel.ODD_SPIN in components:
        parity = _spin_parity(p, st.genus)
        label = ComponentLabel.ODD_SPIN if parity else ComponentLabel.EVEN_SPIN
        if (
            ComponentLabel.HYPERELLIPTIC not in components
            or parity != _hyperelliptic_parity(st.genus)
        ):
            return label
        if label not in components:
            return ComponentLabel.HYPERELLIPTIC
    else:
        label = ComponentLabel.NON_HYPERELLIPTIC
    marked = _known_profile(p._key).marked
    if st.orders.count(0) > (marked == 0):  # an unmarked 0 to forget
        if st.kind is StratumKind.ABELIAN:
            merged = _forget_regular_point(p._key)
            if merged is None:
                end = _to_standard(p._key)[0]
                merged = _forget_regular_point(end) or _forget_regular_point(
                    _table_move(end, 0)
                )
            if merged is None:
                raise MoveCapExceeded(f"the walk from {p} meets no point to forget")
        else:
            last = next(reversed(_bfs_rows(p._key, budget, stop=_forget_regular_point)))
            merged = _forget_regular_point(last)
        if merged is not None:
            q = GenPerm._of(merged)
            return _component_label(q, stratum(q), budget)
    if st.kind is StratumKind.ABELIAN:
        found = _to_standard(p._key)[0] == _standard_hyperelliptic(st.d, marked)
        return ComponentLabel.HYPERELLIPTIC if found else label
    ref = _hyperelliptic_table(st, marked, budget)
    if ref is None:
        raise RuntimeError(
            f"{st.text} has no symmetric hyperelliptic table with marked order {marked}"
        )
    found = ref in keys if keys is not None else _holds(ref, p._key, budget)
    return ComponentLabel.HYPERELLIPTIC if found else label
