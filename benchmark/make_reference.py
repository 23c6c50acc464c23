#!/usr/bin/env python3
"""Regenerate the reference data under ``benchmark/reference``.

Run from the repository root; takes a few minutes::

    python3 benchmark/make_reference.py

* ``verify-quad-d6.json``: the census of ``verify_main_theorem(6, QUADRATIC)``
  (strata, components, marked orders and class sizes), which the
  ``verify-quad-d6`` workload must reproduce exactly.
* ``invariants-classes.json``: the classes the ``invariants`` workload draws
  from, each with its smallest vertex, size, stratum, marked order and
  component.  These are the permutation classes at d=9 with 6,000 to 21,000
  vertices and, as many, the largest generalized classes at d=6.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from rauzy import (  # noqa: E402
    PermKind,
    component_label,
    enumerate_irreducible,
    format_perm,
    marked_order,
    stratum,
    verify_main_theorem,
)
from rauzy.classes import class_partition  # noqa: E402

D9_SIZES = (6_000, 21_000)


def describe(diagram) -> dict:
    rep = diagram.vertices[0]
    return {
        "table": format_perm(rep),
        "size": len(diagram),
        "stratum": stratum(rep).text,
        "marked": marked_order(rep),
        "component": component_label(rep).value,
    }


def main() -> None:
    out = os.path.join(HERE, "reference")
    report = verify_main_theorem(6, PermKind.QUADRATIC)
    with open(os.path.join(out, "verify-quad-d6.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=1)
        fh.write("\n")

    d9 = [
        diag
        for diag in class_partition(enumerate_irreducible(9, PermKind.IET))
        if D9_SIZES[0] <= len(diag) <= D9_SIZES[1]
    ]
    d6 = sorted(
        class_partition(enumerate_irreducible(6, PermKind.QUADRATIC)),
        key=lambda diag: (-len(diag), diag.vertices[0].key),
    )[: len(d9)]
    classes = [describe(diag) for diag in d9 + d6]
    with open(os.path.join(out, "invariants-classes.json"), "w", encoding="utf-8") as fh:
        json.dump(classes, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
