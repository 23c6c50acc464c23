#!/usr/bin/env python3
"""Digests of the witness, polygon and induction outputs over whole sizes.

For every irreducible table of each size and kind, the digest covers
``str`` of the ``find_suspension`` witness, ``polygon_json`` of its
polygon, its ``geometric_profile``, ``str`` of a ``random_suspension``
seeded by the table, and up to 50 ``rv_step`` moves from that vector
(each step's table and vector, or the name of the error that ended the
run).  Two versions of the package produce the same digests exactly
when these outputs are byte-identical::

    python scripts/witness_digest.py

prints one ``kind d tables sha256`` line per size and kind, for sizes 2
to ``MAX_D``, and the seconds each size took on standard error, so the
digest lines on standard output can be compared byte for byte.
"""
import hashlib
import sys
import time
from random import Random

from rauzy import (
    PermKind,
    build_polygon,
    enumerate_irreducible,
    find_suspension,
    format_perm,
    geometric_profile,
    polygon_json,
    random_suspension,
    rv_step,
)
from rauzy.errors import RauzyError

RV_STEPS = 50
MAX_D = 6


def _table_record(p) -> str:
    text = format_perm(p)
    zeta = find_suspension(p)
    poly = build_polygon(p, zeta)
    profile = geometric_profile(poly)
    rand = random_suspension(p, Random(f"witness-digest:{text}"))
    lines = [text, str(zeta), polygon_json(poly), repr(profile), str(rand)]
    q, z = p, rand
    for _ in range(RV_STEPS):
        try:
            q, z = rv_step(q, z)
        except RauzyError as exc:
            lines.append(type(exc).__name__)
            break
        lines.append(f"{format_perm(q)} {z}")
    return "\n".join(lines) + "\n"


def witness_digest(d: int, kind: PermKind) -> tuple[int, str]:
    """Number of irreducible tables of size ``d`` and kind, and their digest."""
    h = hashlib.sha256()
    count = 0
    for p in enumerate_irreducible(d, kind):
        h.update(_table_record(p).encode())
        count += 1
    return count, h.hexdigest()


def main() -> int:
    for kind in (PermKind.IET, PermKind.QUADRATIC):
        for d in range(2, MAX_D + 1):
            start = time.perf_counter()
            count, digest = witness_digest(d, kind)
            print(f"{kind.value} {d} {count} {digest}", flush=True)
            print(f"{kind.value} {d}: {time.perf_counter() - start:.2f} s",
                  file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
