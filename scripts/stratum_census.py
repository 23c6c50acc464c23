#!/usr/bin/env python3
"""Census of Rauzy classes by stratum and component.

Builds every Rauzy class up to a chosen number of symbols with the
verifier, and tabulates class counts and sizes per (stratum, component)
pair, checking the expected count structure as it goes.  Permutation
classes grow from their standard permutations (Rauzy 1979) and must cover
the irreducible permutations (OEIS A003319); generalized classes grow from
the irreducible tables whose bottom row ends with 1 and must cover every
irreducible table.  The verifier generates the shapes l <= m only and
takes the rest as their row exchanges: the seeds with l > m as exchanges
of tables with l < m, and the count as 2 N(l<m) + N(l=m).  The seed rule
is checked through eight symbols but not proven; the count turns a missed
class into a failed report, printed as ``coverage found=...
expected=...``, instead of a silent pass.  Useful for eyeballing how the
table grows::

    python scripts/stratum_census.py --max-d 6 --kind both

Each size's header gives its elapsed time and the peak resident memory of
the process so far (``ru_maxrss``, so a size's peak includes the sizes
before it).
"""
import argparse
import resource
import sys
import time

from rauzy import PermKind, verify_main_theorem


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-d", type=int, default=6)
    parser.add_argument("--min-d", type=int, default=2)
    parser.add_argument("--kind", choices=["iet", "quad", "both"], default="both")
    args = parser.parse_args()

    kinds = {
        "iet": [PermKind.IET],
        "quad": [PermKind.QUADRATIC],
        "both": [PermKind.IET, PermKind.QUADRATIC],
    }[args.kind]

    all_ok = True
    for kind in kinds:
        for d in range(args.min_d, args.max_d + 1):
            start = time.perf_counter()
            report = verify_main_theorem(d, kind)
            elapsed = time.perf_counter() - start
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(f"== {kind.value} d={d}  ({elapsed:.1f}s, peak {peak:.0f} MiB)")
            for g in report.groups:
                status = "ok" if g.ok else "FAIL"
                print(
                    f"  {g.stratum.text:>22} {g.label.value:>17}"
                    f"  classes={g.class_count} (r={g.r})"
                    f"  sizes={list(g.class_sizes)} {status}"
                )
            if not report.passed:
                all_ok = False
                print("  !! count structure violated")
                if report.coverage is not None:
                    found, expected = report.coverage
                    print(f"  !! coverage found={found} expected={expected}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
