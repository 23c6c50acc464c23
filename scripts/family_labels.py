#!/usr/bin/env python3
"""Hyperelliptic labels from one table, held against the scan of the whole class.

Where spin parity does not decide a label, ``component_label`` decides a
table by a search from one symmetric hyperelliptic table of its stratum
and marked order, and builds no class.  This script builds every class
with ``d`` symbols whose label needs that test, labels the class by a scan
of all of it for a hyperelliptic vertex, and checks ``component_label`` on
random vertices of it with ``rauzy.classes.rauzy_class`` made to raise::

    python scripts/family_labels.py --d 7 --samples 200
    python scripts/family_labels.py --kind iet --d 10 --samples 30

``--kind quad`` (the default) takes the half-translation strata with a
hyperelliptic and a non-hyperelliptic component; its classes grow from the
verifier's seeds, the irreducible tables whose bottom row ends with 1,
found among the shapes l <= m and their row exchanges.
``--kind iet`` takes the classes of orientable strata with a hyperelliptic
component where spin parity gives no label: those of the hyperelliptic
parity, or every class where the degrees are not all even; its classes
grow from the standard permutations.  In either kind ``component_label``
labels a class with an unmarked regular point to forget one stratum down,
where the search runs (at ``--d 7`` the quad classes of ``Q(-1,-1,0,6)``
with marked order -1 or 6 search ``Q(-1,-1,6)``); the scan uses neither
rule.

Each sampled vertex is also labelled by the class route: build the class
of the vertex and scan it.  One line per class gives its stratum, marked
order, size, label, the number of sampled labels that disagree, and the
slowest and total time of each route.  The exit status is 1 when any label
disagrees.
"""
import argparse
import random
import sys
import time
from itertools import permutations

import rauzy.classes
from rauzy.classes import _seeded_classes, _seeds
from rauzy.combinat import GenPerm, _irreducible_tables, _reduced
from rauzy.invariants import (
    ComponentLabel,
    StratumKind,
    _hyperelliptic_parity,
    _is_hyperelliptic_vertex,
    _known_profile,
    _spin_parity,
    _stratum_of,
    component_label,
    stratum_components,
)

FAMILY = (ComponentLabel.HYPERELLIPTIC, ComponentLabel.NON_HYPERELLIPTIC)


def forbidden(*args, **kwargs):
    raise AssertionError("a class was built for a label")


def searched(st, components, spin):
    """Whether a class of ``st`` with the spin label ``spin`` (None where
    spin does not apply) needs the hyperelliptic test."""
    if st.kind is StratumKind.QUADRATIC:
        return components == FAMILY
    if ComponentLabel.HYPERELLIPTIC not in components or len(components) == 1:
        return False
    spins = (ComponentLabel.EVEN_SPIN, ComponentLabel.ODD_SPIN)
    hyperelliptic_spin = spins[_hyperelliptic_parity(st.genus)]
    return spin is None or (spin is hyperelliptic_spin and spin in components)


def scan_label(table, st, spin):
    """The label of a class, given by its vertex keys, by a scan of all of it
    for a hyperelliptic vertex.

    ``spin`` is the spin label of the class, or None where spin does not
    apply; neither the forget rule nor the symmetric-table search is used.
    """
    if any(
        _reduced(key[::-1]) == key and _is_hyperelliptic_vertex(GenPerm._of(key), st)
        for key in table
    ):
        return ComponentLabel.HYPERELLIPTIC
    return spin or ComponentLabel.NON_HYPERELLIPTIC


def classes(d, kind):
    """The classes with ``d`` symbols of one kind, each built once."""
    if kind == "quad":
        candidates = _irreducible_tables(d)
    else:
        top = tuple(range(1, d + 1))
        candidates = (
            bytes((*top, 0, d, *middle, 1)) for middle in permutations(top[1:-1])
        )
    return _seeded_classes(_seeds(candidates), 10**7)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=["quad", "iet"], default="quad")
    parser.add_argument("--d", type=int, default=7)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    start = time.perf_counter()
    rng = random.Random(args.seed)
    build = rauzy.classes.rauzy_class
    lines = []
    wrong = 0
    # each class is labelled as soon as it is built, so only one is held
    for diagram in classes(args.d, args.kind):
        table = diagram.table
        rep = GenPerm._of(next(iter(table)))
        profile = _known_profile(rep._key)
        st = _stratum_of(rep, profile)
        components = stratum_components(st)
        spin = None
        if ComponentLabel.ODD_SPIN in components:
            parity = _spin_parity(rep, st.genus)
            spin = ComponentLabel.ODD_SPIN if parity else ComponentLabel.EVEN_SPIN
        if not searched(st, components, spin):
            continue
        expected = scan_label(table, st, spin)
        sample = rng.sample(list(table), min(args.samples, len(table)))
        times = {"search": [], "class": []}
        disagree = 0
        for key in sample:
            p = GenPerm._of(key)
            rauzy.classes.rauzy_class = forbidden
            try:
                tick = time.perf_counter()
                label = component_label(p)
                tock = time.perf_counter()
            finally:
                rauzy.classes.rauzy_class = build
            scanned = scan_label(build(p).table, st, spin)
            times["search"].append(tock - tick)
            times["class"].append(time.perf_counter() - tock)
            disagree += label is not expected or scanned is not expected
        wrong += disagree
        spent = ", ".join(
            f"{route} slowest {max(took) * 1000:.1f} ms total {sum(took):.2f}s"
            for route, took in times.items()
        )
        line = (
            f"{st.text:>14} marked {profile.marked:>2} size {len(table):>6} "
            f"{expected.value:>17}: {disagree}/{len(sample)} disagree; {spent}"
        )
        lines.append(((st.text, profile.marked, len(table)), line))
    for _, line in sorted(lines):
        print(line)
    print(
        f"{len(lines)} classes, total {time.perf_counter() - start:.1f}s, "
        f"{wrong} labels disagree"
    )
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
