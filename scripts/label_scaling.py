#!/usr/bin/env python3
"""Component-label time of random irreducible tables, size by size.

For each size ``d`` from ``--min-d`` to ``--max-d``, labels ``--count``
random irreducible tables of one kind through ``component_label`` and
prints one line: the median, p99 and maximum label time, the peak
resident memory, and how many labels each rule decided, each with the
maximum time of its labels::

    python scripts/label_scaling.py --kind iet --min-d 12 --max-d 16 --count 300
    python scripts/label_scaling.py --kind quad --min-d 6 --max-d 8 --count 100

Permutations are uniform among the irreducible ones: a uniform bottom row
under ``1 ... d``, kept when irreducible.  Generalized tables are drawn as
in the benchmark's ``suspension`` workload, a uniform pairing of ``2d``
cells and a uniform split point, reduced, kept when it is not a
permutation and irreducible; they are not uniform among the irreducible
tables.  The tables of a size depend only on ``--seed``, the kind and
``d``.

Each size runs in a child process of its own, so its peak memory
(``ru_maxrss``, which includes the interpreter and the import) is that
size's alone.  The rule that decided a label is read from the calls the
label made, the outermost rule first:

* ``forget-a-point``: the label is that of a table one stratum down;
* ``exceptional``: a search toward the least table of the stratum;
* ``hyperelliptic rule``: the move rule to a standard permutation from the
  table, whose end is compared with the literal standard permutation of
  the hyperelliptic class, with no search;
* ``hyperelliptic search``: a search from a symmetric hyperelliptic table;
* ``spin``: spin parity, with no search;
* ``one component``: the stratum has one component.

A label that raises ``BudgetExceeded`` counts as ``over budget``.
"""
import argparse
import math
import multiprocessing
import resource
import statistics
import sys
import time
from random import Random

import rauzy.invariants
from rauzy import GenPerm, PermKind, component_label, is_irreducible, reduce
from rauzy.errors import BudgetExceeded

RULES = (
    "one component",
    "spin",
    "forget-a-point",
    "hyperelliptic rule",
    "hyperelliptic search",
    "exceptional",
    "over budget",
)
# the label's private functions that measure() wraps to see which rule decided
WRAPPED = (
    "_component_label",
    "_least_table",
    "_hyperelliptic_table",
    "_to_standard",
    "_spin_parity",
)


def random_tables(kind: str, d: int, count: int, seed: int):
    """``count`` random irreducible tables of ``kind`` with ``d`` symbols."""
    rng = Random(f"{seed}:{kind}:{d}")
    top = tuple(range(1, d + 1))
    tables = []
    while len(tables) < count:
        if kind == "iet":
            p = GenPerm(top, tuple(rng.sample(top, d)))
        else:
            cells = list(range(2 * d))
            rng.shuffle(cells)
            table = [0] * (2 * d)
            for s in range(d):
                table[cells[2 * s]] = table[cells[2 * s + 1]] = s + 1
            split = rng.randint(1, 2 * d - 1)
            p = reduce(table[:split], table[split:])
            if p.kind is PermKind.IET:
                continue
        if is_irreducible(p):
            tables.append(p)
    return tables


def decided(calls: list[str]) -> str:
    """The outermost rule among the ``calls`` one label made."""
    if "over budget" in calls:
        return "over budget"
    if calls.count("_component_label") > 1:
        return "forget-a-point"
    if "_least_table" in calls:
        return "exceptional"
    if "_to_standard" in calls:
        return "hyperelliptic rule"
    if "_hyperelliptic_table" in calls:
        return "hyperelliptic search"
    if "_spin_parity" in calls:
        return "spin"
    return "one component"


def measure(kind: str, d: int, count: int, seed: int) -> dict:
    """Label the tables of one size; their times, rules and peak memory."""
    calls = []

    def noted(name):
        inner = getattr(rauzy.invariants, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        setattr(rauzy.invariants, name, wrapper)

    # each is called a few times per label at most, so the wrappers cost
    # nothing next to the label
    for name in WRAPPED:
        noted(name)
    times = []
    rules = []
    for p in random_tables(kind, d, count, seed):
        calls.clear()
        start = time.perf_counter()
        try:
            component_label(p)
        except BudgetExceeded:
            calls.append("over budget")
        times.append(time.perf_counter() - start)
        rules.append(decided(calls))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"times": times, "rules": rules, "peak_mib": peak}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=["iet", "quad"], default="iet")
    parser.add_argument("--min-d", type=int, default=12)
    parser.add_argument("--max-d", type=int, default=16)
    parser.add_argument("--count", type=int, default=300)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.count < 1:
        parser.error("--count must be at least 1")

    context = multiprocessing.get_context("spawn")
    start = time.perf_counter()
    for d in range(args.min_d, args.max_d + 1):
        tick = time.perf_counter()
        with context.Pool(1) as pool:
            result = pool.apply(measure, (args.kind, d, args.count, args.seed))
        by_rule = {rule: [] for rule in RULES}
        for rule, t in zip(result["rules"], result["times"]):
            by_rule[rule].append(t * 1000)
        rules = ", ".join(
            f"{rule} {len(ms)} (max {max(ms):.2f} ms)"
            for rule, ms in by_rule.items()
            if ms
        )
        ms = sorted(t * 1000 for t in result["times"])
        p99 = ms[math.ceil(0.99 * len(ms)) - 1]  # nearest rank
        print(
            f"{args.kind} d={d}: {len(ms)} tables, median {statistics.median(ms):.2f} ms, "
            f"p99 {p99:.2f} ms, max {ms[-1]:.2f} ms, peak {result['peak_mib']:.0f} MiB; "
            f"{rules} ({time.perf_counter() - tick:.1f}s)",
            flush=True,
        )
    print(f"total {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
