#!/usr/bin/env python3
"""The standard-permutation rule held against the class search, size by size.

For each size ``d`` from ``--min-d`` to ``--max-d``, walks the move rule of
``rauzy.induction._to_standard`` from irreducible permutations, every one
of them or ``--random N`` uniform ones, and checks two things:

* each walk ends at a standard permutation (bottom row ``d ... 1``) within
  the cap of ``(d - 1)(d - 2) / 2`` moves, or the rule raises;
* on each table whose hyperelliptic label the rule decides, one of a
  stratum with a hyperelliptic component and no unmarked 0, the verdict
  (the walk ends where the walk from the symmetric table of
  ``rauzy.invariants._hyperelliptic_table`` ends) equals membership in the
  class of that symmetric table, built once by the class search.  Uniform
  tables seldom fall in a hyperelliptic class, so with ``--random`` every
  vertex of each class built is walked as well, and must end where the
  symmetric table's walk ends::

    python scripts/standard_rule.py --min-d 3 --max-d 9
    python scripts/standard_rule.py --min-d 11 --max-d 16 --random 10000

One line per size gives the tables walked, the most moves any walk made
against the cap, the tables the rule decides, how many of them are
hyperelliptic, the mismatches and the time.  The exit status is 1 when any
verdict disagrees.

With ``--forget``, the script checks instead how a permutation label
forgets a regular point: on each table whose stratum has an order-0 point
other than the marked one, it tries the table, the end of its walk and the
move-0 image of that end, and takes the first that
``rauzy.invariants._forget_regular_point`` merges.  It counts the tables
that merge at each of the three, and a failure where none merges or the
merge is reducible.  Through nine symbols it also searches the class
breadth first for the first vertex that merges, as labels did before the
walk, and counts a mismatch where the two merged tables have different
labels::

    python scripts/standard_rule.py --forget --min-d 9 --max-d 10
    python scripts/standard_rule.py --forget --min-d 11 --max-d 20 --random 2000

The exit status is 1 on any failure or mismatch.
"""
import argparse
import sys
import time
from itertools import permutations
from random import Random

from rauzy.classes import _bfs_rows, rauzy_class
from rauzy.combinat import GenPerm, irreducible_rows
from rauzy.induction import _standard_cap, _table_move, _to_standard
from rauzy.invariants import (
    ComponentLabel,
    _forget_regular_point,
    _hyperelliptic_table,
    _known_profile,
    _stratum_of,
    component_label,
    stratum_components,
)


def tables(d: int, count: int, seed: int):
    """The keys of every irreducible permutation with ``d`` symbols, or of
    ``count`` uniform ones when ``count`` is positive."""
    top = bytes(range(1, d + 1))
    if count:
        rng = Random(f"{seed}:{d}")
        bottoms = (bytes(rng.sample(top, d)) for _ in iter(int, 1))
    else:
        bottoms = map(bytes, permutations(top))
    made = 0
    for bottom in bottoms:
        if irreducible_rows(top, bottom):
            yield top + b"\0" + bottom
            made += 1
            if made == count:
                return


def rule_line(d: int, count: int, seed: int) -> int:
    """Walk the tables of one size, print their line, return the mismatches."""
    tick = time.perf_counter()
    walked = most = decided = hyperelliptic = mismatched = 0
    references = {}  # (stratum, marked) -> (end of the reference, its class)

    def walk(key):
        nonlocal walked, most
        end, moves = _to_standard(key)
        assert end[d + 1] == d and end[-1] == 1, key
        walked += 1
        most = max(most, moves)
        return end

    for key in tables(d, count, seed):
        end = walk(key)
        profile = _known_profile(key)
        st = _stratum_of(GenPerm._of(key), profile)
        marked = profile.marked
        if (
            ComponentLabel.HYPERELLIPTIC not in stratum_components(st)
            or st.orders.count(0) > (marked == 0)
        ):
            continue
        if (st, marked) not in references:
            ref = _hyperelliptic_table(st, marked)
            references[st, marked] = (
                _to_standard(ref)[0],
                rauzy_class(GenPerm._of(ref)).table,
            )
        ref_end, held = references[st, marked]
        decided += 1
        hyperelliptic += key in held
        mismatched += (end == ref_end) != (key in held)
    if count:
        for ref_end, held in references.values():
            for key in held:
                decided += 1
                hyperelliptic += 1
                mismatched += walk(key) != ref_end
    print(
        f"d={d}: {walked} tables, most moves {most} (cap {_standard_cap(d)}), "
        f"{decided} decided by the rule, {hyperelliptic} hyperelliptic, "
        f"{mismatched} mismatches ({time.perf_counter() - tick:.1f}s)",
        flush=True,
    )
    return mismatched


def forget_line(d: int, count: int, seed: int) -> int:
    """Forget a point on the tables of one size by the walk, print their
    line, return the failures and mismatches."""
    tick = time.perf_counter()
    found = [0, 0, 0]  # merged at the table, at the walk's end, by move 0
    zeros = failed = mismatched = 0
    for key in tables(d, count, seed):
        profile = _known_profile(key)
        if profile.orders.count(0) <= (profile.marked == 0):
            continue
        zeros += 1
        end = _to_standard(key)[0]
        for where, tried in enumerate((key, end, _table_move(end, 0))):
            merged = _forget_regular_point(tried)
            if merged is not None:
                break
        if merged is None or not irreducible_rows(*merged.split(b"\0")):
            failed += 1
            continue
        found[where] += 1
        if d <= 9 and where:
            last = next(reversed(_bfs_rows(key, 10**7, stop=_forget_regular_point)))
            searched = _forget_regular_point(last)
            labels = {component_label(GenPerm._of(k)) for k in (merged, searched)}
            mismatched += len(labels) > 1
    start, at_end, moved = found
    compared = f", {mismatched} mismatches" if d <= 9 else ""
    print(
        f"d={d}: {zeros} tables with an unmarked 0, {start} at the start, "
        f"{at_end} at the end, {moved} by move 0, {failed} failures{compared} "
        f"({time.perf_counter() - tick:.1f}s)",
        flush=True,
    )
    return failed + mismatched


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-d", type=int, default=3)
    parser.add_argument("--max-d", type=int, default=8)
    parser.add_argument("--random", type=int, default=0, metavar="N")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--forget", action="store_true")
    args = parser.parse_args()

    line = forget_line if args.forget else rule_line
    sizes = range(args.min_d, args.max_d + 1)
    wrong = sum(line(d, args.random, args.seed) for d in sizes)
    return 1 if wrong else 0

if __name__ == "__main__":
    sys.exit(main())
