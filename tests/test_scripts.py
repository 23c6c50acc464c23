"""The scripts under ``scripts/`` still load against the package.

Each script is loaded as a module, so its imports run but its ``main``
does not; the argparse scripts print their help; and the private names
that ``label_scaling.py`` wraps by string still exist.  A rename in the
package then fails here rather than on the next run of a script.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

import rauzy.invariants

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
PATHS = sorted(SCRIPTS.glob("*.py"))
NAMES = [path.stem for path in PATHS]
ARGPARSE = [path.stem for path in PATHS if "import argparse" in path.read_text()]


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", NAMES)
def test_script_loads(name):
    assert callable(load(name).main)


@pytest.mark.parametrize("name", ARGPARSE)
def test_help(name, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [f"{name}.py", "--help"])
    with pytest.raises(SystemExit) as exit_info:
        load(name).main()
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


def test_label_scaling_wraps_existing_names():
    wrapped = load("label_scaling").WRAPPED
    assert len(wrapped) == 4
    for name in wrapped:
        assert callable(getattr(rauzy.invariants, name)), name
