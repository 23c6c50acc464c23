import importlib.util
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from rauzy import GenPerm


@st.composite
def raw_tables(draw, min_d=1, max_d=5):
    """Random two-to-one tables (not necessarily reduced)."""
    d = draw(st.integers(min_d, max_d))
    positions = draw(st.permutations(list(range(2 * d))))
    l = draw(st.integers(1, 2 * d - 1))
    cells = [0] * (2 * d)
    for sym in range(1, d + 1):
        cells[positions[2 * sym - 2]] = sym
        cells[positions[2 * sym - 1]] = sym
    return tuple(cells[:l]), tuple(cells[l:])


@st.composite
def genperms(draw, min_d=1, max_d=5):
    """Random reduced generalized permutations."""
    from rauzy import reduce

    top, bottom = draw(raw_tables(min_d, max_d))
    return reduce(top, bottom)


def rows_of(key):
    """The rows of a vertex key, as tuples."""
    top, _, bottom = key.partition(b"\0")
    return tuple(top), tuple(bottom)


def key_of(top, bottom):
    """The vertex key of the rows ``top / bottom``, unchecked."""
    return bytes((*top, 0, *bottom))


def reduced_rows(top, bottom):
    """The rows of ``top / bottom`` numbered ``1, 2, ...`` by first occurrence.

    The row route, with no key: the oracle of ``rauzy.combinat._reduced``.
    """
    number = {s: n for n, s in enumerate(dict.fromkeys(top + bottom), 1)}
    return tuple(map(number.__getitem__, top)), tuple(map(number.__getitem__, bottom))


def is_centrally_symmetric(top, bottom):
    """Whether the reduced table ``top / bottom`` is its own central involution.

    The row route, with no key: the oracle of the key test in
    ``rauzy.invariants._is_hyperelliptic_vertex``.  Renumber the reversed
    bottom row followed by the reversed top row and stop at the first
    symbol that differs from ``top`` followed by ``bottom``.
    """
    if len(top) != len(bottom):
        return False
    relabel = {}
    for image, row in ((reversed(bottom), top), (reversed(top), bottom)):
        for s, want in zip(image, row):
            new = relabel.setdefault(s, len(relabel) + 1)
            if new != want:
                return False
    return True


_POOLS: dict[int, list[GenPerm]] = {}


def _irreducible_pool(d: int) -> list[GenPerm]:
    from rauzy import PermKind, enumerate_irreducible

    if d not in _POOLS:
        pool = list(enumerate_irreducible(d, PermKind.IET))
        if d >= 3:
            pool += list(enumerate_irreducible(d, PermKind.QUADRATIC))
        _POOLS[d] = pool
    return _POOLS[d]


@st.composite
def irreducible_genperms(draw, min_d=2, max_d=5):
    """Random irreducible permutation or generalized permutation."""
    d = draw(st.integers(min_d, max_d))
    pool = _irreducible_pool(d)
    return pool[draw(st.integers(0, len(pool) - 1))]


@st.composite
def iet_perms(draw, min_d=2, max_d=6):
    d = draw(st.integers(min_d, max_d))
    bottom = tuple(draw(st.permutations(list(range(1, d + 1)))))
    return GenPerm(tuple(range(1, d + 1)), bottom)


def rational_points(poly):
    """The top and bottom points of a suspension polygon as ``Fraction`` pairs."""
    return tuple(
        tuple((Fraction(x, poly.scale), Fraction(y, poly.scale)) for x, y in points)
        for points in (poly.top_points, poly.bottom_points)
    )


def pl_value(points, x):
    """Evaluate the broken line through ``points`` (x-monotone) at ``x``."""
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= x <= x1:
            if x1 == x0:
                return y0
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise ValueError("abscissa outside the polygon")


def rotation_links(tables):
    """The links that ``central_involution`` makes between classes.

    ``tables`` are classes as vertex-key tables that hold every irreducible
    image of their vertices.  Returns three values: the pairs ``(i, j)``
    for which a vertex of class ``i`` has its image in class ``j``; the
    number of vertices whose image is reducible, which no class holds; and
    for each class, one class of its component under the links.
    """
    from rauzy import is_irreducible
    from rauzy.invariants import central_involution

    class_of = {key: i for i, table in enumerate(tables) for key in table}
    links, reducible = set(), 0
    for i, table in enumerate(tables):
        for key in table:
            image = central_involution(GenPerm._of(key))
            j = class_of.get(image._key)
            if j is None:
                assert not is_irreducible(image), image
                reducible += 1
            else:
                links.add((i, j))
    root = list(range(len(tables)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i, j in links:
        root[find(i)] = find(j)
    return links, reducible, [find(i) for i in range(len(tables))]


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    """The module of ``scripts/<name>.py``; its imports run, its ``main`` does not."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
