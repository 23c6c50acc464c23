import json

import pytest

from rauzy.cli import Config, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert cfg.node_budget == 10**7

    def test_validation(self):
        with pytest.raises(ValueError):
            Config(node_budget=0)
        with pytest.raises(ValueError):
            Config(output="yaml")


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

    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "1 1 / 2 2 3 3")
        assert code == 0
        assert "stratum: Q(-1,-1,-1,-1)" in out

    def test_budget_bounds_the_reversal_search(self, capsys):
        # H(3,3): deciding this label takes a search of 255 vertices.
        table = "1 2 3 4 5 6 7 8 9 / 2 4 1 6 5 7 9 3 8"
        code, _, err = run_cli(capsys, "--budget", "100", "invariants", table)
        assert code == 1 and "budget" in err
        code, out, _ = run_cli(capsys, "--budget", "255", "invariants", table)
        assert code == 0 and "component: non-hyperelliptic" in out


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

    def test_names_the_stratum_with_wrong_labels(self, capsys, monkeypatch):
        import rauzy.classes
        from rauzy.invariants import ComponentLabel

        original = rauzy.classes.label_for_class

        def mislabel(rows):
            label = original(rows)
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
                seed = GenPerm._trusted(*next(iter(diagram.table)))
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
