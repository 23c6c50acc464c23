#!/usr/bin/env python3
"""Family labels from one table, held against the scan of the whole class.

In a half-translation stratum with a hyperelliptic and a non-hyperelliptic
component, ``component_label`` decides a table by a lockstep search
against one symmetric hyperelliptic table of its stratum and marked order,
and builds no class.  This script builds every class of such a stratum
with ``d`` symbols, labels the class by the verifier's scan for a
hyperelliptic vertex, and checks ``component_label`` on random vertices of
it with ``rauzy.classes.rauzy_class`` made to raise::

    python scripts/family_labels.py --d 7 --samples 200

The classes grow from the irreducible tables whose bottom row ends with 1,
as in the verifier.  Each sampled vertex is also labelled by the class
route that ``component_label`` took before the lockstep search: build the
class of the vertex and scan it.  One line per class gives its stratum,
marked order, size, label, the number of sampled labels that disagree,
and the slowest and total time of each route.  The exit status is 1 when
any label disagrees.
"""
import argparse
import random
import sys
import time

import rauzy.classes
from rauzy.classes import _seeded_classes
from rauzy.combinat import GenPerm, _irreducible_tables
from rauzy.invariants import (
    ComponentLabel,
    _known_profile,
    _stratum_of,
    component_label,
    label_for_class,
    stratum_components,
)

FAMILY = (ComponentLabel.HYPERELLIPTIC, ComponentLabel.NON_HYPERELLIPTIC)


def forbidden(*args, **kwargs):
    raise AssertionError("a class was built for a label")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d", type=int, default=7)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    start = time.perf_counter()
    families = []
    seeds = _irreducible_tables(args.d)
    for diagram in _seeded_classes(seeds, lambda rows: rows[1][-1] == 1, 10**7):
        rep = GenPerm._trusted(*next(iter(diagram.table)))
        profile = _known_profile(rep)
        st = _stratum_of(rep, profile)
        if stratum_components(st) == FAMILY:
            families.append((st, profile.marked, diagram.table))
    print(f"{len(families)} family classes built in {time.perf_counter() - start:.1f}s")

    rng = random.Random(args.seed)
    build, rauzy.classes.rauzy_class = rauzy.classes.rauzy_class, forbidden
    wrong = 0
    try:
        for st, marked, table in sorted(families, key=lambda f: (f[0].text, f[1], len(f[2]))):
            expected = label_for_class(table, st)
            sample = rng.sample(list(table), min(args.samples, len(table)))
            times = {"search": [], "class": []}
            disagree = 0
            for rows in sample:
                p = GenPerm._trusted(*rows)
                tick = time.perf_counter()
                label = component_label(p)
                tock = time.perf_counter()
                scanned = label_for_class(build(p).table)
                times["search"].append(tock - tick)
                times["class"].append(time.perf_counter() - tock)
                disagree += label is not expected or scanned is not expected
            wrong += disagree
            spent = ", ".join(
                f"{route} slowest {max(took) * 1000:.1f} ms total {sum(took):.2f}s"
                for route, took in times.items()
            )
            print(
                f"{st.text:>14} marked {marked:>2} size {len(table):>6} "
                f"{expected.value:>17}: {disagree}/{len(sample)} disagree; {spent}"
            )
    finally:
        rauzy.classes.rauzy_class = build
    print(f"total {time.perf_counter() - start:.1f}s, {wrong} labels disagree")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
