"""Rauzy induction on permutations and generalized permutations.

Enumeration of Rauzy classes and diagrams, suspension data over linear
involutions, stratum and component invariants of the suspended flat
surfaces, and exhaustive verification of the class-count structure.
"""
from .combinat import (
    GenPerm,
    PermKind,
    format_perm,
    is_irreducible,
    parse,
    reduce,
)
from .classes import (
    RauzyDiagram,
    TheoremReport,
    enumerate_irreducible,
    export_dot,
    rauzy_class,
    same_class_bfs,
    same_class_fast,
    verify_main_theorem,
)
from .induction import (
    r0,
    r1,
    rv_step,
)
from .invariants import (
    ComponentLabel,
    Profile,
    Stratum,
    StratumKind,
    component_label,
    marked_order,
    parse_stratum,
    singularity_profile,
    spin_parity,
    stratum,
    stratum_components,
)
from .suspension import (
    SuspensionDatum,
    SuspensionPolygon,
    build_polygon,
    check_suspension,
    find_suspension,
    geometric_profile,
    polygon_json,
    polygon_svg,
    random_suspension,
)

__all__ = [
    "GenPerm",
    "PermKind",
    "format_perm",
    "is_irreducible",
    "parse",
    "reduce",
    "RauzyDiagram",
    "TheoremReport",
    "enumerate_irreducible",
    "export_dot",
    "rauzy_class",
    "same_class_bfs",
    "same_class_fast",
    "verify_main_theorem",
    "r0",
    "r1",
    "rv_step",
    "ComponentLabel",
    "Profile",
    "Stratum",
    "StratumKind",
    "component_label",
    "marked_order",
    "parse_stratum",
    "singularity_profile",
    "spin_parity",
    "stratum",
    "stratum_components",
    "SuspensionDatum",
    "SuspensionPolygon",
    "build_polygon",
    "check_suspension",
    "find_suspension",
    "geometric_profile",
    "polygon_json",
    "polygon_svg",
    "random_suspension",
]

__version__ = "0.1.0"
