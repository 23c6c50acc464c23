#!/usr/bin/env python3
"""Digests of the census reports over whole sizes.

For each size and kind, the digest is the sha256 of
``verify_main_theorem(d, kind).to_json()``: class sizes, marked orders,
component labels and pass flags.  Two versions of the package produce the
same digests exactly when their census JSON is byte-identical::

    python scripts/census_digest.py

prints one ``kind d sha256`` line per size, for permutations with 2 to
``MAX_IET_D`` symbols and generalized permutations with 3 to
``MAX_QUAD_D`` symbols.  A last line gives the digest of the
``verify --stratum`` census of ``STRATUM`` alone, the smallest
exceptional half-translation stratum; it takes about four seconds, and
the tests pin it apart from the ``SIZES``.
"""
import hashlib
import sys

from rauzy import PermKind, parse_stratum, verify_main_theorem

MAX_IET_D = 8
MAX_QUAD_D = 7

SIZES = [(PermKind.IET, d) for d in range(2, MAX_IET_D + 1)] + [
    (PermKind.QUADRATIC, d) for d in range(3, MAX_QUAD_D + 1)
]
STRATUM = parse_stratum("Q(-1,9)")


def census_digest(d: int, kind: PermKind) -> str:
    """sha256 of the census JSON of one size and kind."""
    report = verify_main_theorem(d, kind)
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def stratum_digest() -> str:
    """sha256 of the census JSON of ``STRATUM`` alone."""
    report = verify_main_theorem(STRATUM.d, PermKind.QUADRATIC, only_stratum=STRATUM)
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def main() -> int:
    for kind, d in SIZES:
        print(f"{kind.value} {d} {census_digest(d, kind)}", flush=True)
    print(f"quadratic {STRATUM.d} {STRATUM} {stratum_digest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
