"""The scripts under ``scripts/`` still load against the package.

Each script is loaded as a module, so its imports run but its ``main``
does not; the argparse scripts print their help; and the private names
that ``label_scaling.py`` wraps by string still exist.  A rename in the
package then fails here rather than on the next run of a script.  One
tiny run of ``label_scaling.py`` checks the lines it prints, one of
``rv_walks.py`` checks its line and its exit status, as does one of
``standard_rule.py --forget``, and ``code_lines.py`` counts the code
lines of a small source exactly and stops without a traceback when its
reader closes the pipe.
"""
import os
import re
import subprocess
import sys

import pytest

from conftest import SCRIPTS, load_script as load

import rauzy.invariants

PATHS = sorted(SCRIPTS.glob("*.py"))
NAMES = [path.stem for path in PATHS]
ARGPARSE = [path.stem for path in PATHS if "import argparse" in path.read_text()]


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
    assert len(wrapped) == 5
    for name in wrapped:
        assert callable(getattr(rauzy.invariants, name)), name


def test_label_scaling_names_the_rule_apart_from_the_search():
    decided = load("label_scaling").decided
    calls = ["_component_label", "_spin_parity", "_hyperelliptic_table"]
    assert decided(calls) == "hyperelliptic search"
    assert decided(calls + ["_to_standard", "_to_standard"]) == "hyperelliptic rule"
    assert decided(calls + ["_to_standard", "_component_label"]) == "forget-a-point"


def test_label_scaling_prints_a_maximum_for_each_rule():
    # a subprocess, because measure() patches rauzy.invariants for good
    path = [str(SCRIPTS.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = ["--kind", "iet", "--min-d", "8", "--max-d", "9", "--count", "10"]
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "label_scaling.py"), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    *lines, total = run.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["iet d=8", "iet d=9"]
    assert total.startswith("total ")
    names = load("label_scaling").RULES
    for line in lines:
        overall = float(re.search(r", max ([0-9.]+) ms,", line).group(1))
        rules = re.findall(r"([a-z -]+) (\d+) \(max ([0-9.]+) ms\)", line)
        assert [name.strip(" ,;") for name, _, _ in rules] == [
            name for name in names if name in line
        ], line
        assert len(rules) >= 2, line
        assert sum(int(count) for _, count, _ in rules) == 10, line
        assert max(float(worst) for _, _, worst in rules) == overall, line


def test_rv_walks_checks_every_step(capsys, monkeypatch):
    rv_walks = load("rv_walks")
    argv = ["rv_walks.py", "--kind", "quad", "--d", "5", "--count", "4", "--steps", "30"]
    monkeypatch.setattr(sys, "argv", argv)
    assert rv_walks.main() == 0
    line = capsys.readouterr().out
    assert re.match(
        r"quad d=5: 4 tables, (\d+) steps, (\d+) halts, 0 invalid, [\d,]+ witnesses/s, "
        r"[\d,]+ steps/s ",
        line,
    ), line
    # a vector that fails its check makes the run fail
    monkeypatch.setattr(rv_walks, "check_suspension", lambda p, zeta: False)
    assert rv_walks.main() == 1
    out, err = capsys.readouterr()
    assert " 0 invalid" not in out and err.startswith("invalid vector after step 1: ")



def test_standard_rule_forgets_by_walking(capsys, monkeypatch):
    standard_rule = load("standard_rule")
    argv = ["standard_rule.py", "--forget", "--min-d", "3", "--max-d", "6"]
    monkeypatch.setattr(sys, "argv", argv)
    assert standard_rule.main() == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "d=6: 276 tables with an unmarked 0, 250 at the start, 24 at the end, "
        "2 by move 0, 0 failures, 0 mismatches ("
    )
    # a label that tells the two merged tables apart fails the run
    monkeypatch.setattr(standard_rule, "component_label", lambda p: p._key)
    assert standard_rule.main() == 1
    assert " 0 mismatches" not in capsys.readouterr().out.splitlines()[-1]
    # so does a walk that merges nowhere
    monkeypatch.setattr(standard_rule, "_forget_regular_point", lambda key: None)
    assert standard_rule.main() == 1
    assert ", 276 failures, 0 mismatches (" in capsys.readouterr().out

def test_code_lines_counts_code_only():
    source = '''"""Module docstring,
over two lines."""
import os  # a comment after code counts


# a comment alone
class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring
        on two lines.
        """
        total = (x
                 + 1)
        text = """a string that is
        no docstring"""
        return total, text


def g(): "a docstring beside code"
'''
    # import, class, def f, the two lines of total, the two of text,
    # return, def g
    assert load("code_lines").code_lines(source) == 9


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_code_lines_stops_quietly_on_a_closed_pipe(tmp_path, unbuffered):
    # A repository of its own, counted against git's empty tree; the reader
    # closes the pipe before the first line, as `| head -1` may.  Unbuffered,
    # the first print fails; buffered, the flush at exit does.
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True, timeout=60)
    (tmp_path / "src").mkdir()
    for name in "abc":
        (tmp_path / "src" / f"{name}.py").write_text("x = 1\n")
    empty_tree = "4b825dc642cb6eb9a060e54bf8d69288fbee4904"
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPTS / "code_lines.py"), "--rev", empty_tree, "src"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == ""
    assert proc.returncode == 1
