import doctest
import importlib
import pkgutil

import rauzy


def test_docstring_examples():
    names = [info.name for info in pkgutil.iter_modules(rauzy.__path__)]
    assert {
        "classes",
        "cli",
        "combinat",
        "errors",
        "induction",
        "invariants",
        "linprog",
        "suspension",
    } <= set(names)
    for name in names:
        module = importlib.import_module(f"rauzy.{name}")
        failures, _ = doctest.testmod(module)
        assert failures == 0, module.__name__
