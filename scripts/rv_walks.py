#!/usr/bin/env python3
"""Check every vector of seeded Rauzy-Veech walks in full.

Draws ``--count`` seeded random irreducible tables of one kind and size,
as ``label_scaling.py`` draws them (``random_tables``), and walks up to
``--steps`` ``rv_step`` moves from a seeded ``random_suspension`` of each.
A step takes the vector the previous step made without checking it, so
here every vector a step returns is checked over its table by
``check_suspension``, which always checks in full::

    python scripts/rv_walks.py --kind quad --d 10 --count 200 --steps 1000

Each table's two witnesses, ``find_suspension`` and the seeded
``random_suspension`` the walk starts from, are timed too.  Prints one
line: the tables, steps, halts and invalid vectors, the witnesses per
second and the steps per second of the walks (the checks not counted), the
time of the witnesses, the walks and the checks, and the peak resident
memory (``ru_maxrss``).  Exits 1 when any vector fails its check.
"""
import argparse
import resource
import sys
import time
from pathlib import Path
from random import Random

from rauzy import check_suspension, find_suspension, random_suspension, rv_step
from rauzy.errors import InductionHalt

sys.path.insert(0, str(Path(__file__).resolve().parent))
from label_scaling import random_tables  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=["iet", "quad"], default="quad")
    parser.add_argument("--d", type=int, default=8)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--steps", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.count < 1 or args.steps < 1:
        parser.error("--count and --steps must be at least 1")

    steps = halts = invalid = 0
    witnessing = walking = checking = 0.0
    for index, p in enumerate(random_tables(args.kind, args.d, args.count, args.seed)):
        start = time.perf_counter()
        find_suspension(p)
        q, z = p, random_suspension(p, Random(f"{args.seed}:{index}"))
        witnessing += time.perf_counter() - start
        for _ in range(args.steps):
            start = time.perf_counter()
            try:
                q, z = rv_step(q, z)
            except InductionHalt:
                halts += 1
                break
            tick = time.perf_counter()
            ok = check_suspension(q, z)
            checking += time.perf_counter() - tick
            walking += tick - start
            steps += 1
            if not ok:
                invalid += 1
                print(f"invalid vector after step {steps}: {q} | {z}", file=sys.stderr)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rate = steps / walking if walking else 0.0
    print(
        f"{args.kind} d={args.d}: {args.count} tables, {steps} steps, {halts} halts, "
        f"{invalid} invalid, {2 * args.count / witnessing:,.0f} witnesses/s, "
        f"{rate:,.0f} steps/s (witnesses {witnessing:.2f}s, walks {walking:.2f}s, "
        f"checks {checking:.2f}s), peak {peak:.0f} MiB"
    )
    return 1 if invalid else 0


if __name__ == "__main__":
    sys.exit(main())
