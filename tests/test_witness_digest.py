"""Byte-identity pin of the witness, polygon and induction outputs.

The digests below were computed with ``scripts/witness_digest.py`` before
the suspension path moved to integer arithmetic.  Any change to a
``find_suspension`` or ``random_suspension`` vector, a ``polygon_json``
export, a ``geometric_profile`` or an ``rv_step`` run from an irreducible
table with at most five symbols changes one of them; ``SAMPLED`` pins
seeded random generalized tables with six and seven symbols the same way.
"""
import hashlib
import importlib.util
from pathlib import Path

import pytest

from conftest import load_script

from rauzy import PermKind

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "witness_digest.py"

PINNED = {
    (PermKind.IET, 2): (1, "059d5d9f7ae461190575bebad2bef808b45952f55dd9b5f1f788f2d1ceeef2aa"),
    (PermKind.IET, 3): (3, "048eb331b79189a0ab0b53a56ffcb0e1e24446a386d11f1447c40f179d9abcc4"),
    (PermKind.IET, 4): (13, "12785ae22b935628e5d6b3770650839e78692ecb22f361522f2c19727ca5a561"),
    (PermKind.IET, 5): (71, "c2eedd20ff0956f55a1fe4b4e72d05aed8d93a8c59eb6d49595a259ce71f7ccb"),
    (PermKind.QUADRATIC, 3): (4, "76bfca7cf6fb3baf8b6b59ba1ee7dbb4d009cc5cea3f04eca1eb9852115afc67"),
    (PermKind.QUADRATIC, 4): (86, "12549eb4e32ea712132ae9d57caf6dc53f4a8c6b3e6815a5ff24923e325e1cbd"),
    (PermKind.QUADRATIC, 5): (1572, "4dc79fd4b38272f32a319899c789888157272d6384ea2a8aae563dbf6b25870d"),
}


@pytest.fixture(scope="module")
def digest_script():
    spec = importlib.util.spec_from_file_location("witness_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind, d", sorted(PINNED, key=lambda key: (key[0].value, key[1])))
def test_witness_digest_is_pinned(digest_script, kind, d):
    assert digest_script.witness_digest(d, kind) == PINNED[(kind, d)]


# sha256 of the ``_table_record`` lines of 150 seeded random generalized
# tables per size, drawn by ``scripts/label_scaling.py``'s ``random_tables``
# (kind "quad", seed 52), the sizes the benchmark's ``suspension`` workload
# runs; computed at commit 3cca53d, before the elimination pass of
# ``linprog`` put its rows into buckets by highest variable
SAMPLED = {
    6: "6f8fcb7ce43bc30b041e140ab58abc152c7f475e5d62d15680a98319247a2376",
    7: "2a86fec8e2a5b8e80b1c64faa2d03a7173831b6a4e874c1945d4ebddf4e7fcbb",
}


@pytest.mark.parametrize("d", sorted(SAMPLED))
def test_sampled_witness_digest_is_pinned(digest_script, d):
    """Byte identity of the witness path at six and seven symbols."""
    h = hashlib.sha256()
    for p in load_script("label_scaling").random_tables("quad", d, 150, 52):
        h.update(digest_script._table_record(p).encode())
    assert h.hexdigest() == SAMPLED[d]
