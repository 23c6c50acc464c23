"""Byte-identity pin of the census reports.

The digests below are the sha256 of ``verify_main_theorem(d, kind).to_json()``
as computed with ``scripts/census_digest.py`` before the component
classification was gathered into one table; the generalized census at
seven symbols, the smallest whose classes reach the exceptional split and
the families ``Q(2,6)``, ``Q(-1,-1,3,3)`` and ``Q(-1,-1,0,6)``, was pinned
before every class-level label became one reference-table lookup.  Any
change to a class size, marked order, component label or pass flag of a
permutation census with at most eight symbols, or a generalized one with
at most seven, changes one of them.  The census of ``Q(-1,9)`` alone, the
``verify --stratum`` route, is pinned apart.
"""
import importlib.util
from pathlib import Path

import pytest

from rauzy import PermKind

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "census_digest.py"

PINNED = {
    (PermKind.IET, 2): "e900b682220b8eb33cc0eb08f2f1b44698a84f18b931449e68641f912415c85e",
    (PermKind.IET, 3): "7aa0b853754f0e452e086381388f496fa131e84de59c99eb1db3b1bbe2d29c81",
    (PermKind.IET, 4): "c2374d6335253eb85c7e6262084333289cf9557c8246a7937da41a2e8cf623e1",
    (PermKind.IET, 5): "43b4b942dc64354799d9172b6605bfd5d75523d18b7edbd5c4b18e27c25a84f1",
    (PermKind.IET, 6): "9196045fde6260eb5b1a0b934364ac1240a964a0e259fdef59ba04a7aedce4ad",
    (PermKind.IET, 7): "9f2c522f906ae9b6ae293622e89cc02967f95f303c6cebbb67de8153d63cd044",
    (PermKind.IET, 8): "b48716790872e8c4691e9ce19c32995993e62ef3fe1ea165e6de1bdbc7b83ce9",
    (PermKind.QUADRATIC, 3): "d5842bfc4fe0e76bca674fa4ffe4af69f0fe67170e689c94f3f95c52abcbf220",
    (PermKind.QUADRATIC, 4): "21cdb496ac3790677f5b6f88ebd14cbab2dbbf05095cf18bbb2826e705f1b4f7",
    (PermKind.QUADRATIC, 5): "3e54d0204c81d019c6db5ae0b05afca7e6cd29fe2e088531db84f545bc9ccc6a",
    (PermKind.QUADRATIC, 6): "3563d384c7e4dbcaee7ff566a33162f19405567c656e74fdb4a35de221a68820",
    (PermKind.QUADRATIC, 7): "189d914685564e1944697415d980d8b1fb08ebb9b9717d1f13f84a707ec56890",
}
STRATUM_DIGEST = "740982c54b486d75015e012555d95779361b7bcea8c52ab2428a9eb0eb058adc"


@pytest.fixture(scope="module")
def digest_script():
    spec = importlib.util.spec_from_file_location("census_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_script_covers_the_pinned_sizes(digest_script):
    assert sorted(digest_script.SIZES, key=str) == sorted(PINNED, key=str)


@pytest.mark.parametrize("kind, d", sorted(PINNED, key=lambda key: (key[0].value, key[1])))
def test_census_digest_is_pinned(digest_script, kind, d):
    assert digest_script.census_digest(d, kind) == PINNED[(kind, d)]


def test_stratum_census_digest_is_pinned(digest_script):
    assert digest_script.STRATUM.text == "Q(-1,9)"
    assert digest_script.stratum_digest() == STRATUM_DIGEST
