import json
from importlib import resources

import jsonschema
import pytest

from mpst import analysis, cli
from mpst.cli import run

from .conftest import golden_path


def schema(name: str) -> dict:
    text = resources.files("mpst.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


def run_json(capsys, argv):
    code = run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


SOCIAL = str(golden_path("social_media.mpst"))
BUYER = str(golden_path("buyer_seller.mpst"))
UNBOUNDED = str(golden_path("unbounded.mpst"))
EMPTY = str(golden_path("empty.mpst"))
MUTUAL = str(golden_path("mutual_loop.mpst"))


class TestCheck:
    def test_social_media_accepted(self, capsys):
        code, data = run_json(
            capsys, ["check", "--global", "G", "--session", "M", "--ignored", "u", SOCIAL]
        )
        assert code == 0
        jsonschema.validate(data, schema("check"))
        assert data["accepted"] is True
        assert data["derivation"]["rule"] == "Comm"

    def test_named_ignored_set(self, capsys):
        code, data = run_json(
            capsys, ["check", "--global", "G", "--session", "M", "--ignored", "JustU", SOCIAL]
        )
        assert code == 0 and data["ignored"] == ["u"]

    def test_social_media_rejected_without_u(self, capsys):
        code, data = run_json(
            capsys, ["check", "--global", "G", "--session", "M", "--ignored", "", SOCIAL]
        )
        assert code == 1
        jsonschema.validate(data, schema("check"))
        assert data["rejection"]["reason"] == "ParticipantEquationFailed"

    def test_end_types_empty(self, capsys):
        code, _ = run_json(capsys, ["check", "--global", "End", "--session", "Empty", EMPTY])
        assert code == 0

    def test_unknown_selector_is_usage_error(self, capsys):
        code = run(["check", "--global", "Nope", "--session", "M", SOCIAL])
        assert code == 2

    def test_parse_error_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mpst"
        bad.write_text("process = !")
        code = run(["check", "--global", "G", "--session", "M", str(bad)])
        assert code == 2

    def test_text_output(self, capsys):
        code = run(["check", "--global", "G", "--session", "M", "--ignored", "u", SOCIAL])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("accepted")
        assert "[Comm]" in out


class TestInfer:
    def test_minimal_social_media(self, capsys):
        code, data = run_json(capsys, ["infer", "--session", "M", "--minimal", SOCIAL])
        assert code == 0
        jsonschema.validate(data, schema("infer"))
        (sol,) = data["solutions"]
        assert sol["ignored"] == ["u"]

    def test_minimal_buyer_seller(self, capsys):
        code, data = run_json(capsys, ["infer", "--session", "M", "--minimal", BUYER])
        assert code == 0
        (sol,) = data["solutions"]
        assert sol["ignored"] == ["c", "s"]
        assert "add" in sol["global"] and "pay" in sol["global"]

    def test_empty_session(self, capsys):
        code, data = run_json(capsys, ["infer", "--session", "Empty", "--minimal", EMPTY])
        assert code == 0
        (sol,) = data["solutions"]
        assert sol["ignored"] == []
        assert sol["global"].endswith("end")

    def test_show_equations(self, capsys):
        code, data = run_json(
            capsys,
            ["infer", "--session", "M", "--minimal", "--show-equations", SOCIAL],
        )
        assert code == 0
        jsonschema.validate(data, schema("infer"))
        eqs = data["solutions"][0]["equations"]
        assert eqs["root"] == {"type": "X", "pset": "x"}
        assert any(line.startswith("X = ") for line in eqs["type_equations"])
        assert any(line.startswith("cond ") for line in eqs["conditions"])


class TestAnalyze:
    def test_bounded(self, capsys):
        code, data = run_json(capsys, ["analyze", "--global", "G", "--bounded", SOCIAL])
        assert code == 0
        jsonschema.validate(data, schema("analyze"))
        assert data["results"][0]["holds"] is True

    def test_unbounded_witness(self, capsys):
        code, data = run_json(capsys, ["analyze", "--global", "G", "--bounded", UNBOUNDED])
        assert code == 1
        jsonschema.validate(data, schema("analyze"))
        assert data["results"][0]["witness"]["participant"] == "r"

    def test_depth(self, capsys):
        code, data = run_json(capsys, ["analyze", "--global", "G", "--depth", "u", SOCIAL])
        assert code == 0
        assert data["results"][0]["value"] == 2

    def test_lockfree_holds(self, capsys):
        code, data = run_json(
            capsys, ["analyze", "--session", "M", "--lockfree", "--ignored", "u", SOCIAL]
        )
        assert code == 0
        jsonschema.validate(data, schema("analyze"))
        assert data["results"][0]["holds"] is True
        assert data["results"][0]["note"]

    def test_lockfree_fails(self, capsys):
        code, data = run_json(capsys, ["analyze", "--session", "M", "--lockfree", MUTUAL])
        assert code == 1
        assert data["results"][0]["witness"]["participant"] == "r"

    def test_liveness_checks_share_one_exploration(self, capsys, monkeypatch):
        explored = []
        for module in (cli, analysis):
            real = module.explore
            monkeypatch.setattr(
                module, "explore", lambda *args, real=real, **kw: explored.append(1) or real(*args, **kw)
            )
        code, data = run_json(
            capsys, ["analyze", "--session", "M", "--lockfree", "--deadlockfree", MUTUAL]
        )
        assert code == 1
        assert [r["holds"] for r in data["results"]] == [False, True]
        assert len(explored) == 1

    def test_stategraph_json_schema(self, capsys):
        code, data = run_json(capsys, ["analyze", "--session", "M", "--stategraph", BUYER])
        assert code == 0
        jsonschema.validate(data, schema("stategraph"))
        assert len(data["states"]) == 3
        assert data["initial"] == 0

    def test_stategraph_dot(self, capsys):
        code = run(["analyze", "--session", "M", "--stategraph", "--format", "dot", SOCIAL])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph")

    def test_nothing_requested(self, capsys):
        assert run(["analyze", SOCIAL]) == 2


class TestMeta:
    def test_social_media(self, capsys):
        code, data = run_json(capsys, ["meta", SOCIAL])
        assert code == 0
        jsonschema.validate(data, schema("meta"))
        assert data["ok"] is True

    def test_unbounded_reports_rejection(self, capsys):
        code, data = run_json(capsys, ["meta", UNBOUNDED])
        assert code == 0  # no violations: the judgment is simply not derivable
        combos = [c for c in data["combos"] if c["global"] == "G"]
        assert combos and all(c["rejection"] == "Unbounded" for c in combos)

    def test_empty_file(self, tmp_path, capsys):
        f = tmp_path / "nothing.mpst"
        f.write_text("# nothing here\n")
        code, data = run_json(capsys, ["meta", str(f)])
        assert code == 0 and data["combos"] == []


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--global", "G", "--session", "M", "--ignored", "u", SOCIAL],
            ["infer", "--session", "M", "--minimal", "--show-equations", SOCIAL],
            ["analyze", "--session", "M", "--stategraph", BUYER],
            ["meta", "--seed", "5", SOCIAL],
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        run(argv + ["--format", "json"])
        first = capsys.readouterr().out
        run(argv + ["--format", "json"])
        second = capsys.readouterr().out
        assert first == second


class TestBudgetEnv:
    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("MPST_BUDGET", "size=1,outcomes=4")
        code = run(["infer", "--session", "M", "--minimal", SOCIAL])
        assert code == 1  # size 1 cannot derive anything for this session
        monkeypatch.setenv("MPST_BUDGET", "size=28")
        code = run(["infer", "--session", "M", "--minimal", SOCIAL])
        assert code == 0

    def test_env_malformed(self, capsys, monkeypatch):
        monkeypatch.setenv("MPST_BUDGET", "bogus")
        assert run(["infer", "--session", "M", SOCIAL]) == 2

    @pytest.mark.parametrize(
        "budget, argv",
        [
            ("states=0", ["analyze", "--session", "M", "--lockfree", BUYER]),
            ("outcomes=-1", ["infer", "--session", "M", BUYER]),
            ("size=0", ["infer", "--session", "M", BUYER]),
        ],
    )
    def test_env_values_must_be_positive(self, capsys, monkeypatch, budget, argv):
        monkeypatch.setenv("MPST_BUDGET", budget)
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: budget values must be positive\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--session", "M", "--lockfree"],
        ["infer", "--session", "M"],
        ["meta"],
    ],
)
def test_state_budget_exceeded_is_exit_3(capsys, argv):
    code = run(argv + ["--max-states", "1", BUYER])
    captured = capsys.readouterr()
    assert code == cli.BUDGET_EXCEEDED == 3
    assert captured.err.startswith("error: state limit of 1")
    assert "Traceback" not in captured.out + captured.err
