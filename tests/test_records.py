"""The record types keep their value semantics, and importing rauzy stays light.

The eight types below are plain classes or ``NamedTuple``s.  Each prints
as the text pinned here, compares by value, hashes as the tuple of its
fields (so set and dict orders, and the orders printed from them, stay put)
and refuses assignment; ``RauzyDiagram`` is unhashable and builds its
vertices and edges once.  A fresh interpreter that imports ``rauzy`` and
``rauzy.cli`` loads none of the introspection modules behind
``dataclasses``, which took most of the import time, no argument-parsing
module, and neither ``fractions`` nor ``json``, which only some paths use.
"""
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from rauzy import (
    PermKind,
    build_polygon,
    find_suspension,
    geometric_profile,
    parse,
    rauzy_class,
    singularity_profile,
    stratum,
)
from rauzy.classes import RauzyDiagram, verify_main_theorem
from rauzy.invariants import Stratum, StratumKind

SRC = Path(__file__).resolve().parent.parent / "src"

P = parse("1 2 3 / 3 2 1")
Q = parse("1 1 2 / 2 3 3")
POLYGON = build_polygon(Q, find_suspension(Q))
REPORT = verify_main_theorem(3, PermKind.IET)

H00 = "Stratum(kind=<StratumKind.ABELIAN: 'abelian'>, orders=(0, 0))"
GROUP = (
    f"StratumGroup(stratum={H00}, label=<ComponentLabel.UNIQUE: 'unique'>, r=1, "
    "class_count=1, marked_orders=(0,), class_sizes=(3,), ok=True)"
)

# (value, a value made again, its field names, the text it prints)
RECORDS = {
    "GenPerm": (P, parse("1 2 3 / 3 2 1"), ("_key",), "GenPerm(top=(1, 2, 3), bottom=(3, 2, 1))"),
    "Stratum": (stratum(P), Stratum(StratumKind.ABELIAN, [0, 0]), ("kind", "orders"), H00),
    "Profile": (
        singularity_profile(P),
        singularity_profile(parse("1 2 3 / 3 2 1")),
        ("orders", "marked"),
        "Profile(orders=(0, 0), marked=0)",
    ),
    "SuspensionPolygon": (
        POLYGON,
        build_polygon(Q, find_suspension(Q)),
        ("scale", "top_points", "bottom_points", "top_symbols", "bottom_symbols", "pairs"),
        "SuspensionPolygon(scale=1, top_points=((0, 0), (1, 1), (2, 2), (3, 0)), "
        "bottom_points=((0, 0), (1, -2), (2, -1), (3, 0)), top_symbols=(1, 1, 2), "
        "bottom_symbols=(2, 3, 3), pairs=((0, 1, 'half_turn'), (2, 3, 'translation'), "
        "(4, 5, 'half_turn')))",
    ),
    "GeometricProfile": (
        geometric_profile(POLYGON),
        geometric_profile(build_polygon(Q, find_suspension(Q))),
        ("angles_pi", "marked_pi"),
        "GeometricProfile(angles_pi=(1, 1, 1, 1), marked_pi=1)",
    ),
    "StratumGroup": (
        REPORT.groups[0],
        verify_main_theorem(3, PermKind.IET).groups[0],
        ("stratum", "label", "r", "class_count", "marked_orders", "class_sizes", "ok"),
        GROUP,
    ),
    "TheoremReport": (
        REPORT,
        verify_main_theorem(3, PermKind.IET),
        ("d", "kind", "groups", "mismatched_strata", "coverage"),
        f"TheoremReport(d=3, kind=<PermKind.IET: 'iet'>, groups=({GROUP},), "
        "mismatched_strata=(), coverage=None)",
    ),
    "RauzyDiagram": (
        rauzy_class(P),
        rauzy_class(parse("1 2 3 / 3 2 1")),
        ("table",),
        r"RauzyDiagram(table={b'\x01\x02\x03\x00\x03\x02\x01': None, "
        r"b'\x01\x02\x03\x00\x03\x01\x02': None, b'\x01\x02\x03\x00\x02\x03\x01': None})",
    ),
}
NAMES = list(RECORDS)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_pinned(name):
    value, _, _, text = RECORDS[name]
    assert type(value).__name__ == name
    assert repr(value) == text


@pytest.mark.parametrize("name", NAMES)
def test_equal_values_hash_as_their_fields(name):
    value, twin, fields, _ = RECORDS[name]
    assert twin is not value and twin == value and not twin != value
    if name == "RauzyDiagram":
        return
    assert hash(twin) == hash(value) == hash(tuple(getattr(value, f) for f in fields))


@pytest.mark.parametrize("name", NAMES)
def test_fields_refuse_assignment(name):
    value, _, fields, _ = RECORDS[name]
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    assert repr(value) == RECORDS[name][3]


@pytest.mark.parametrize("name", ["GenPerm", "Stratum", "TheoremReport"])
def test_pickle_and_copy_keep_the_value(name):
    value = RECORDS[name][0]
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


def test_stratum_sorts_and_checks_its_orders():
    st = Stratum(StratumKind.QUADRATIC, [9, -1, 0])
    assert st.orders == (-1, 0, 9) and st == Stratum(StratumKind.QUADRATIC, (0, -1, 9))
    assert str(st) == "Q(-1,0,9)"
    for kind, orders in [
        (StratumKind.ABELIAN, (1,)),
        (StratumKind.ABELIAN, (-1, 3)),
        (StratumKind.QUADRATIC, (-2, 2)),
        (StratumKind.QUADRATIC, (1, 1)),
        (StratumKind.QUADRATIC, (-1, -1, -1, -1, -1)),
        (StratumKind.QUADRATIC, (-1,) * 8),
    ]:
        with pytest.raises(ValueError):
            Stratum(kind, orders)


def test_diagram_is_unhashable_and_builds_its_parts_once():
    diagram = rauzy_class(parse("1 2 3 4 / 4 3 2 1"))
    with pytest.raises(TypeError):
        hash(diagram)
    vertices, edges = diagram.vertices, diagram.edges
    assert len(vertices) == len(edges) == len(diagram) == 7
    assert diagram.vertices is vertices and diagram.edges is edges


def test_import_loads_no_introspection_module():
    # -S: no site start-up hooks, whose imports would not be rauzy's; then
    # the JSON report of one table, which prints its JSON by hand
    code = (
        "import sys, rauzy, rauzy.cli; print(' '.join(sorted(sys.modules)))\n"
        "rauzy.cli.main(['--output', 'json', 'invariants', '1 1 / 2 2 3 4 3 4 5 6 5 6'])\n"
        "print(' '.join(sorted(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    first, *report, last = run.stdout.splitlines()
    loaded = set(first.split())
    assert "rauzy.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize"})
    assert loaded.isdisjoint({"argparse", "gettext", "locale"})
    assert loaded.isdisjoint({"fractions", "decimal", "json"})
    assert report[-2:] == ['  "component": "non-hyperelliptic"', "}"]
    assert "json" not in last.split()
