import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import rauzy.classes
from rauzy import component_label, parse, singularity_profile, stratum
from rauzy.cli import _COMMANDS, _parse, main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    """The budget and output format that ``main`` resolves for a handler."""

    def test_defaults(self, capsys, monkeypatch):
        monkeypatch.delenv("RAUZY_BUDGET", raising=False)
        monkeypatch.delenv("RAUZY_OUTPUT", raising=False)
        budgets = []
        rauzy_class = rauzy.classes.rauzy_class

        def spy(p, budget):
            budgets.append(budget)
            return rauzy_class(p, budget)

        monkeypatch.setattr(rauzy.classes, "rauzy_class", spy)
        code, out, _ = run_cli(capsys, "class", "1 2 / 2 1")
        assert code == 0 and out == "1 2 / 2 1\n"
        assert budgets == [10**7]

    def test_validation(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, "--budget", "0", "class", "1 2 / 2 1")
        assert code == 1 and out == ""
        assert err == "error: budget must be at least 1\n"
        monkeypatch.setenv("RAUZY_BUDGET", "0")
        code, out, err = run_cli(capsys, "class", "1 2 / 2 1")
        assert code == 1 and out == ""
        assert err == "error: budget must be at least 1\n"


class TestInduce:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "induce", "1 2 3 4 3 / 2 4 5 5 1", "0")
        assert code == 0
        assert out.strip() == "1 2 1 3 4 3 / 2 4 5 5"

    def test_self_loops(self, capsys):
        code, out, _ = run_cli(capsys, "induce", "1 2 / 2 1", "0101")
        assert code == 0
        assert out.splitlines() == ["1 2 / 2 1"] * 4

    def test_reducible_input(self, capsys):
        code, _, err = run_cli(capsys, "induce", "1 1 / 2 2", "0")
        assert code == 1
        assert "suspension" in err

    def test_undefined_move_reports_step(self, capsys):
        code, _, err = run_cli(capsys, "induce", "1 1 2 2 / 3 3", "0")
        assert code == 1
        assert "step 0" in err


class TestInvariants:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "--output", "json", "invariants", "1 2 3 4 / 4 3 2 1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "stratum": "H(2)",
            "genus": 2,
            "orders": [2],
            "marked": 2,
            "component": "hyperelliptic",
        }

    @pytest.mark.parametrize(
        "table",
        [
            "1 2 / 2 1",  # H(0)
            "1 2 3 4 / 4 3 2 1",
            "1 2 3 4 5 6 7 8 9 / 2 4 3 8 7 6 5 9 1",  # H(6,0), marked 0
            "1 1 / 2 2 3 3",  # Q(-1,-1,-1,-1), marked -1
            "1 2 1 / 3 2 4 3 5 4 6 7 6 7 5",  # Q(-1,9), marked -1
            "1 1 / 2 2 3 4 3 4 5 6 5 6",  # Q(-1,-1,6)
            "1 2 2 3 4 5 6 / 6 1 4 3 7 7 5",  # Q(-1,-1,0,6), marked 0
            "1 1 / 2 2 3 4 3 5 6 4 6 5",  # Q(-1,-1,0,0,2), marked 0
        ],
    )
    def test_json_report_is_the_json_module_text(self, capsys, table):
        # the report is printed without the json module, byte for byte as
        # json.dumps(payload, indent=2) prints it
        p = parse(table)
        st, profile = stratum(p), singularity_profile(p)
        payload = {
            "stratum": st.text,
            "genus": st.genus,
            "orders": list(profile.orders),
            "marked": profile.marked,
            "component": component_label(p).value,
        }
        code, out, _ = run_cli(capsys, "--output", "json", "invariants", table)
        assert code == 0
        assert out == json.dumps(payload, indent=2) + "\n"
        code, text, _ = run_cli(capsys, "invariants", table)
        assert code == 0
        assert text.splitlines() == [f"{key}: {value}" for key, value in payload.items()]

    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "1 1 / 2 2 3 3")
        assert code == 0
        assert "stratum: Q(-1,-1,-1,-1)" in out

    def test_budget_bounds_the_reversal_search(self, capsys):
        # H(3,3): the standard-permutation rule decides this label with no
        # search, where a search from the reversal would close its class of
        # 255 vertices; the reversal is the first symmetric table tried.
        table = "1 2 3 4 5 6 7 8 9 / 2 4 1 6 5 7 9 3 8"
        code, out, _ = run_cli(capsys, "--budget", "1", "invariants", table)
        assert code == 0 and "component: non-hyperelliptic" in out
        # Q(-1,-1,6): the search from the symmetric table closes its class
        # of 347 vertices without meeting this table
        table = "1 1 / 2 2 3 4 3 4 5 6 5 6"
        code, _, err = run_cli(capsys, "--budget", "346", "invariants", table)
        assert code == 1 and "budget" in err
        code, out, _ = run_cli(capsys, "--budget", "347", "invariants", table)
        assert code == 0 and "component: non-hyperelliptic" in out

    def test_symbol_limit_when_the_table_is_read(self, capsys):
        # a table is its vertex key, one byte per symbol: the reversal of 256
        # symbols fails as it is parsed, with the typed message, no traceback
        top = " ".join(map(str, range(1, 257)))
        bottom = " ".join(map(str, range(256, 0, -1)))
        code, out, err = run_cli(capsys, "invariants", f"{top} / {bottom}")
        assert (code, out) == (1, "")
        assert err == "error: a vertex key holds at most 255 symbols; this table has 256\n"


    def test_budget_bounds_the_least_table_search(self, capsys):
        # Q(-1,9), marked order -1: the search from this table closes its
        # class of 684 vertices, but the least table of the stratum and
        # marked order is the 18,323rd table the scan tries.
        table = "1 2 1 / 3 2 4 5 6 3 7 4 5 6 7"
        code, _, err = run_cli(capsys, "--budget", "1000", "invariants", table)
        assert code == 1 and "budget" in err
        code, out, _ = run_cli(capsys, "--budget", "18323", "invariants", table)
        assert code == 0 and "component: exceptional-b" in out


class TestClass:
    def test_count(self, capsys):
        code, out, _ = run_cli(capsys, "class", "1 2 3 4 / 4 3 2 1", "--count")
        assert code == 0 and out.strip() == "7"

    def test_dot(self, capsys):
        code, out, _ = run_cli(capsys, "class", "1 2 / 2 1", "--dot")
        assert code == 0 and out.count("->") == 2

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "class", "1 1 2 / 2 3 3", "--json")
        payload = json.loads(out)
        assert len(payload["vertices"]) == 4

    def test_budget_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "--budget", "3", "class", "1 2 3 4 / 4 3 2 1", "--count"
        )
        assert code == 1 and "budget" in err

    def test_format_flag_beats_the_environment_twin(self, capsys, monkeypatch):
        monkeypatch.setenv("RAUZY_OUTPUT", "dot")
        code, out, _ = run_cli(capsys, "class", "1 2 / 2 1", "--json")
        assert code == 0 and json.loads(out)["vertices"] == ["1 2 / 2 1"]
        monkeypatch.setenv("RAUZY_OUTPUT", "json")
        code, out, _ = run_cli(capsys, "class", "1 2 / 2 1", "--dot")
        assert code == 0 and out.startswith("digraph rauzy {")

    def test_format_flag_beats_the_global_flag(self, capsys):
        table = "1 2 / 2 1"
        code, out, _ = run_cli(capsys, "--output", "dot", "class", table, "--json")
        assert code == 0 and json.loads(out)["vertices"] == [table]
        code, out, _ = run_cli(capsys, "--output", "json", "class", table, "--dot")
        assert code == 0 and out.startswith("digraph rauzy {")


class TestSameClass:
    def test_fast_and_bfs_agree(self, capsys):
        for mode in ("--fast", "--bfs", "--both"):
            code, out, _ = run_cli(
                capsys,
                "same-class",
                "1 2 3 4 / 4 3 2 1",
                "1 2 3 4 / 2 4 1 3",
                mode,
            )
            assert code == 0
            assert out.strip() == "same-class"

    def test_fast_in_twelve_symbols(self, capsys):
        # H(10): the reversal is hyperelliptic and odd, like this table.
        reversal = "1 2 3 4 5 6 7 8 9 10 11 12 / 12 11 10 9 8 7 6 5 4 3 2 1"
        odd = "1 2 3 4 5 6 7 8 9 10 11 12 / 12 3 7 4 9 5 11 8 6 10 2 1"
        code, out, _ = run_cli(capsys, "same-class", reversal, odd, "--fast")
        assert code == 0 and out.strip() == "different-class"

    def test_fast_on_marked_point_tables(self, capsys):
        # H(6,0) with marked order 6: an even-spin and a hyperelliptic table
        even = "1 2 3 4 5 6 7 8 9 / 3 4 2 6 9 8 5 7 1"
        hyp = "1 2 3 4 5 6 7 8 9 / 2 3 5 1 7 4 9 6 8"
        code, out, _ = run_cli(capsys, "same-class", even, hyp, "--fast")
        assert code == 0 and out == "different-class\n"

    def test_disjoint(self, capsys):
        code, out, _ = run_cli(
            capsys, "same-class", "1 2 3 4 / 4 3 2 1", "1 2 / 2 1", "--both"
        )
        assert code == 0 and out.strip() == "different-class"


class TestVerify:
    def test_by_size(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--d", "3", "--kind", "iet")
        assert code == 0
        assert "result: pass" in out

    def test_by_stratum(self, capsys):
        code, out, _ = run_cli(
            capsys, "--output", "json", "verify", "--stratum", "H(2)"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["groups"][0]["stratum"] == "H(2)"

    @pytest.mark.parametrize(
        "argv, d",
        [(("--stratum", "H(300)"), 302), (("--d", "300", "--kind", "iet"), 300)],
    )
    def test_symbol_limit_before_any_candidate(self, capsys, argv, d):
        # the limit is checked before the stratum filter walks a candidate
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {d} symbols: a vertex key holds at most 255\n"

    def test_names_the_stratum_with_wrong_labels(self, capsys, monkeypatch):
        import rauzy.classes
        from rauzy.invariants import ComponentLabel

        original = rauzy.classes.label_for_class

        def mislabel(rows, *args):
            label = original(rows, *args)
            if label is ComponentLabel.ODD_SPIN:
                return ComponentLabel.EVEN_SPIN
            return label

        monkeypatch.setattr(rauzy.classes, "label_for_class", mislabel)
        code, out, _ = run_cli(capsys, "verify", "--stratum", "H(4)")
        assert code == 1
        lines = out.splitlines()
        # the group lines match their marked orders; the component line fails
        assert [line.split()[-1] for line in lines[:-2]] == ["ok", "ok"]
        assert lines[-2].split() == [
            "H(4)",
            "components=['even-spin',",
            "'hyperelliptic']",
            "expected=['hyperelliptic',",
            "'odd-spin']",
            "FAIL",
        ]
        assert lines[-1] == "result: FAIL"

    def test_names_the_count_that_fails(self, capsys, monkeypatch):
        import rauzy.classes
        from rauzy import stratum
        from rauzy.combinat import GenPerm

        # Q(2,2) has one class of 73 tables at five symbols; dropping it
        # leaves every group line ok, so only the count can say why
        original = rauzy.classes._seeded_classes

        def dropping(*args):
            for diagram in original(*args):
                seed = GenPerm._of(next(iter(diagram.table)))
                if stratum(seed).text != "Q(2,2)":
                    yield diagram

        monkeypatch.setattr(rauzy.classes, "_seeded_classes", dropping)
        code, out, _ = run_cli(capsys, "verify", "--d", "5", "--kind", "quad")
        assert code == 1
        lines = out.splitlines()
        assert [line.split()[-1] for line in lines[:-2]] == ["ok"] * (len(lines) - 2)
        assert lines[-2:] == ["coverage: found 1499, expected 1572", "result: FAIL"]

    def test_missing_arguments(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 1 and "need --stratum" in err

    @pytest.mark.parametrize(
        "extra", [["--d", "3", "--kind", "quad"], ["--d", "4"], ["--kind", "iet"]]
    )
    def test_stratum_takes_no_size_or_kind(self, capsys, extra):
        code, out, err = run_cli(capsys, "verify", *extra, "--stratum", "H(2)")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--stratum alone" in err

    def test_bad_stratum_names_the_input(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--stratum", "H(2,)")
        assert (code, out) == (1, "")
        assert err == "error: cannot parse stratum 'H(2,)'\n"

    @pytest.mark.parametrize("name", ["Q(-1,1)", "Q(4)", "Q(3,1)", "Q(0,0)"])
    def test_empty_stratum(self, capsys, name):
        code, out, _ = run_cli(
            capsys, "--output", "json", "verify", "--stratum", name
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["groups"] == []
        assert payload["components_ok"] is True and payload["passed"] is True


class TestEnvOverrides:
    def test_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RAUZY_BUDGET", "3")
        code, _, err = run_cli(capsys, "class", "1 2 3 4 / 4 3 2 1", "--count")
        assert code == 1 and "budget" in err

    def test_budget_env_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("RAUZY_BUDGET", "abc")
        code, out, err = run_cli(capsys, "invariants", "1 2 / 2 1")
        assert code == 1 and out == ""
        assert "RAUZY_BUDGET" in err and "'abc'" in err

    def test_budget_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RAUZY_BUDGET", "3")
        code, out, _ = run_cli(
            capsys, "--budget", "7", "class", "1 2 3 4 / 4 3 2 1", "--count"
        )
        assert code == 0 and out.strip() == "7"

    def test_output_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RAUZY_OUTPUT", "json")
        code, out, _ = run_cli(capsys, "invariants", "1 2 / 2 1")
        assert code == 0
        assert json.loads(out)["stratum"] == "H(0)"

    def test_output_env_not_a_format(self, capsys, monkeypatch):
        monkeypatch.setenv("RAUZY_OUTPUT", "xml")
        code, out, err = run_cli(capsys, "invariants", "1 2 / 2 1")
        assert code == 1 and out == ""
        assert err == "error: output must be text, json or dot\n"


class TestReuseAcrossCalls:
    """Several ``main`` calls in one process, as a script or test makes."""

    def test_env_twins_are_read_per_call(self, capsys, monkeypatch):
        monkeypatch.delenv("RAUZY_OUTPUT", raising=False)
        monkeypatch.delenv("RAUZY_BUDGET", raising=False)
        code, out, _ = run_cli(capsys, "invariants", "1 2 / 2 1")
        assert code == 0 and out.startswith("stratum: H(0)")
        monkeypatch.setenv("RAUZY_OUTPUT", "json")
        code, out, _ = run_cli(capsys, "invariants", "1 2 / 2 1")
        assert code == 0 and json.loads(out)["stratum"] == "H(0)"

        code, out, _ = run_cli(capsys, "class", "1 2 3 4 / 4 3 2 1", "--count")
        assert code == 0 and out == "7\n"
        monkeypatch.setenv("RAUZY_BUDGET", "3")
        code, _, err = run_cli(capsys, "class", "1 2 3 4 / 4 3 2 1", "--count")
        assert code == 1 and "budget" in err

    def test_flag_does_not_leak_into_the_next_call(self, capsys, monkeypatch):
        monkeypatch.delenv("RAUZY_OUTPUT", raising=False)
        code, out, _ = run_cli(capsys, "class", "1 2 3 4 / 4 3 2 1", "--count")
        assert code == 0 and out == "7\n"
        code, out, _ = run_cli(capsys, "class", "1 2 3 4 / 4 3 2 1")
        assert code == 0 and len(out.splitlines()) == 7
        assert "1 2 3 4 / 4 3 2 1" in out.splitlines()


def _argparse_oracle() -> argparse.ArgumentParser:
    """The ``argparse`` parser the command line had, kept as the oracle of ``_parse``."""
    parser = argparse.ArgumentParser(prog="rauzy")
    parser.add_argument("--budget", type=int)
    parser.add_argument("--output", choices=["text", "json", "dot"])
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = sub.add_parser("induce")
    cmd.add_argument("perm")
    cmd.add_argument("moves")
    cmd = sub.add_parser("invariants")
    cmd.add_argument("perm")
    cmd = sub.add_parser("class")
    cmd.add_argument("perm")
    group = cmd.add_mutually_exclusive_group()
    group.add_argument("--dot", action="store_true")
    group.add_argument("--json", action="store_true")
    group.add_argument("--count", action="store_true")
    cmd = sub.add_parser("same-class")
    cmd.add_argument("perm1")
    cmd.add_argument("perm2")
    group = cmd.add_mutually_exclusive_group()
    group.add_argument("--fast", action="store_true")
    group.add_argument("--bfs", action="store_true")
    group.add_argument("--both", action="store_true")
    cmd = sub.add_parser("verify")
    cmd.add_argument("--d", type=int)
    cmd.add_argument("--kind", choices=["iet", "quad"])
    cmd.add_argument("--stratum")
    return parser


T, U = "1 2 3 4 / 4 3 2 1", "1 2 3 4 / 2 4 1 3"

VALID = [
    ["induce", T, "0101"],
    ["--budget", "9", "induce", "--", T, "0"],
    ["invariants", T],
    ["--output", "json", "invariants", T],
    ["--output=json", "--budget=5", "invariants", T],
    ["--bud", "5", "--out", "text", "invariants", T],
    ["--budget", "5", "--budget", "7", "--output", "dot", "--output=json", "invariants", T],
    ["invariants", "-1 2 / 2 1"],
    ["class", T],
    ["class", T, "--count"],
    ["class", "--dot", T],
    ["class", T, "--js"],
    ["class", T, "--dot", "--dot"],
    ["--output", "dot", "class", "--co", T],
    ["same-class", T, U],
    ["same-class", "--fast", T, U],
    ["same-class", T, "--bfs", U],
    ["same-class", T, U, "--bo"],
    ["verify", "--d", "5", "--kind", "iet"],
    ["verify", "--kind=quad", "--d=4"],
    ["verify", "--st", "H(2)"],
    ["verify", "--stratum=Q(-1,-1,-1,-1)", "--d", "3", "--d", "4"],
    ["verify", "--d", "-3", "--k", "quad"],
    ["--budget", "-2", "verify", "--stratum", "H(2)"],
]

INVALID = [
    [],
    ["--budget", "5"],
    ["bogus", T],
    ["induce", T],
    ["same-class", T],
    ["class", T, "--dot", "--json"],
    ["same-class", T, U, "--fast", "--both"],
    ["--budget", "abc", "invariants", T],
    ["--output", "xml", "invariants", T],
    ["verify", "--kind", "xyz"],
    ["verify", "--d", "x"],
    ["verify", "--d"],
    ["verify", "--d", "--kind", "iet"],
    ["invariants", T, "--budget", "5"],
    ["class", T, "--output", "json"],
    ["same-class", T, U, "--b"],
    ["invariants", T, U],
    ["class", T, "--dot=1"],
    ["--foo", "invariants", T],
]


class TestParserOracle:
    """``_parse`` reads every command line as the ``argparse`` parser did."""

    @pytest.mark.parametrize("argv", VALID, ids=" ".join)
    def test_valid_lines_give_the_same_fields(self, argv):
        assert vars(_parse(argv)) == vars(_argparse_oracle().parse_args(argv))

    @pytest.mark.parametrize("argv", INVALID, ids=" ".join)
    def test_invalid_lines_exit_2_on_both(self, capsys, argv):
        with pytest.raises(SystemExit) as oracle:
            _argparse_oracle().parse_args(argv)
        capsys.readouterr()
        with pytest.raises(SystemExit) as ours:
            _parse(argv)
        out, err = capsys.readouterr()
        assert oracle.value.code == ours.value.code == 2
        assert out == "" and err.startswith("usage: rauzy ")
        assert err.splitlines()[-1].startswith("rauzy: error: ")

    def test_usage_error_names_the_argument(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--kind", "xyz"])
        err = capsys.readouterr().err
        assert err.endswith(
            "rauzy: error: argument --kind: invalid choice: 'xyz' (choose from 'iet', 'quad')\n"
        )

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["class", T, "--he"]])
    def test_help_names_every_command(self, capsys, argv):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        out, err = capsys.readouterr()
        assert raised.value.code == 0 and err == ""
        assert out.startswith("usage: rauzy ")
        assert all(f"  {command} " in out for command in _COMMANDS)


def test_closed_pipe_stops_quietly():
    # the class has 20,943 vertices, far more text than a pipe holds, so
    # the command is still printing when the reader closes the pipe
    table = "1 2 3 4 5 6 7 8 9 / 2 3 5 1 7 9 4 6 8"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "rauzy.cli", "class", table],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == (table + "\n").encode()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err and err == b""


def _readme_commands() -> list[str]:
    """The ``rauzy ...`` lines of README's "Command line" block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("rauzy ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_examples_run(capsys, line):
    code = main(shlex.split(line, comments=True)[1:])
    out, err = capsys.readouterr()
    assert code == 0 and out and err == ""
