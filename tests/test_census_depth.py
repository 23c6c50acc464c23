"""Deeper census regression at nine symbols.

The smallest realisations of several component-structure cases live here:
a two-equal-zeros stratum splitting into hyperelliptic and
non-hyperelliptic halves (no spin available, the degrees are odd), a
non-minimal all-even stratum separated purely by spin parity, and a
three-component stratum carrying a marked point.  The whole report is
pinned by its sha256, computed before the verifier kept per-class
summaries instead of diagrams and before it grew permutation classes from
standard permutations.  About two seconds.
"""
import hashlib

from rauzy import PermKind, verify_main_theorem

D9_DIGEST = "d66a8980954f6c4b4b8e2c3ac31e5132730f42f7d423f907bc8614c70b2bab00"


def test_nine_symbol_class_counts():
    report = verify_main_theorem(9, PermKind.IET)
    assert report.passed, report.to_json()
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == D9_DIGEST

    groups = {}
    for g in report.groups:
        groups.setdefault(g.stratum.text, {})[g.label.value] = g

    h33 = groups["H(3,3)"]
    assert set(h33) == {"hyperelliptic", "non-hyperelliptic"}
    assert h33["hyperelliptic"].class_sizes == (255,)
    assert h33["non-hyperelliptic"].class_sizes == (15568,)

    h42 = groups["H(4,2)"]
    assert set(h42) == {"even-spin", "odd-spin"}

    h60 = groups["H(6,0)"]
    assert set(h60) == {"hyperelliptic", "even-spin", "odd-spin"}
    assert all(g.class_count == 2 for g in h60.values())
    assert h60["hyperelliptic"].class_sizes == (135, 1143)
