import doctest

import rauzy.combinat
import rauzy.induction
import rauzy.classes
import rauzy.invariants
import rauzy.linprog
import rauzy.suspension


def test_docstring_examples():
    for module in (
        rauzy.combinat,
        rauzy.induction,
        rauzy.classes,
        rauzy.invariants,
        rauzy.linprog,
        rauzy.suspension,
    ):
        failures, _ = doctest.testmod(module)
        assert failures == 0, module.__name__
