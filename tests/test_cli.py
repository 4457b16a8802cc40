import argparse
import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from mpst import analysis, cli, inference
from mpst.cli import run
from mpst.frontend import format_global, parse
from mpst.inference import NoSolutionWithinBudget, infer_minimal, render_outcome
from mpst.semantics import subsets
from mpst.terms import participants

from .conftest import GOLDEN, global_chain, golden_path, load_golden, two_party_chain
from .oracles import pick_minimal, solved


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
TWO_LOOPS = str(golden_path("two_loops.mpst"))


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


def test_infer_keeps_the_state_budget_under_an_explicit_size(tmp_path, capsys):
    # Comm reaches 4 states of 2 cyclic pairs: --max-size does not lift
    # --max-states.
    from .test_inference import _pairs_text

    path = tmp_path / "pairs2.mpst"
    path.write_text(_pairs_text(2), encoding="utf-8")
    code = run(["infer", "--session", "M", "--max-states", "2", "--max-size", "6", str(path)])
    captured = capsys.readouterr()
    assert code == cli.BUDGET_EXCEEDED
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: state limit of 2")
    assert "Traceback" not in captured.err


# The checker still recurses once per step of the global type.
@pytest.mark.parametrize("argv", [["check", "--global", "G0", "--session", "M", "--ignored", "q"]])
def test_input_nested_too_deeply_is_exit_3(tmp_path, capsys, argv):
    path = tmp_path / "deep.mpst"
    path.write_text(two_party_chain(400))
    code = run(argv + [str(path)])
    captured = capsys.readouterr()
    assert code == cli.BUDGET_EXCEEDED
    assert captured.err.startswith("error: ") and "recursion limit" in captured.err
    assert "Traceback" not in captured.out + captured.err


# The parser is a loop: one definition 2,000 communications long is read.
@pytest.mark.parametrize("argv, want", [(["--stategraph"], 0), (["--lockfree"], 1)])
def test_analyze_answers_on_a_long_single_definition(tmp_path, capsys, argv, want):
    path = tmp_path / "deep.mpst"
    path.write_text("process P = " + "q!a . " * 2000 + "0\nsession M = p: P\nglobal G = end\n")
    code = run(["analyze", "--session", "M", *argv, str(path)])
    captured = capsys.readouterr()
    assert code == want and captured.err == ""
    assert captured.out.startswith("* state 0: p: q!a . q!a" if want == 0 else "lock-freedom: fails")


def test_depth_on_a_chain_deeper_than_the_recursion_limit(tmp_path, capsys):
    path = tmp_path / "chain.mpst"
    path.write_text(global_chain(2000))
    code = run(["analyze", "--global", "G0", "--bounded", "--depth", "r", str(path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert "depth of r: 2001" in captured.out.splitlines()


@pytest.mark.parametrize(
    "make",
    [
        lambda path: path.write_bytes(b"\xff\xfe bad"),
        lambda path: path.mkdir(),
        lambda path: path.symlink_to(path.name),
    ],
    ids=["not_utf8", "directory", "symlink_loop"],
)
def test_an_unreadable_file_is_a_usage_error(tmp_path, capsys, make):
    path = tmp_path / "input.mpst"
    make(path)
    code = run(["check", "--global", "G", "--session", "M", str(path)])
    captured = capsys.readouterr()
    assert code == cli.USAGE_ERROR
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1


def test_a_byte_order_mark_is_read_past(tmp_path, capsys):
    path = tmp_path / "bom.mpst"
    path.write_bytes(b"\xef\xbb\xbf" + Path(SOCIAL).read_bytes())
    argv = ["check", "--global", "G", "--session", "M", "--ignored", "u"]
    assert run(argv + [SOCIAL]) == 0
    plain = capsys.readouterr()
    assert run(argv + [str(path)]) == 0
    assert capsys.readouterr() == plain


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--global", "G", "--session", "M", "--ignored", "u", SOCIAL],
        ["analyze", "--session", "M", "--stategraph", "--format", "json", SOCIAL],
    ],
    ids=["check", "stategraph"],
)
def test_a_full_stdout_gives_no_answer(argv):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-c", "from mpst.cli import main; main()", *argv],
            stdout=full, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    err = proc.stderr
    assert proc.returncode == cli.BUDGET_EXCEEDED == 3
    assert err.startswith(b"error: cannot write output: ") and err.count(b"\n") == 1


def test_a_closed_stdout_pipe_ends_quietly(tmp_path):
    path = tmp_path / "pairs.mpst"
    pairs = range(7)  # 128 states: the JSON state graph is far larger than a pipe's buffer
    path.write_text(
        "".join(f"process P{i} = q{i}!a . q{i}?b . P{i}\nprocess Q{i} = p{i}?a . p{i}!b . Q{i}\n" for i in pairs)
        + "session M = "
        + " | ".join(f"p{i}: P{i} | q{i}: Q{i}" for i in pairs)
        + "\n"
    )
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["analyze", "--session", "M", "--stategraph", "--format", "json", str(path)]
    proc = subprocess.Popen(
        [sys.executable, "-c", "from mpst.cli import main; main()", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.BROKEN_PIPE == 141
    assert err == b""


STARTUP_PROBE = """
import contextlib, io, json, sys
# modules that generate code at import, unless the interpreter loaded them already
slow = [m for m in ("dataclasses", "inspect") if m not in sys.modules]
from mpst import cli

loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    watched = ["mpst.inference", "mpst.metatheory", *slow]
    loaded.append([code, sorted(m for m in watched if m in sys.modules)])
print(json.dumps(loaded))
"""


def test_each_command_imports_only_what_it_runs():
    # check and analyze decide a judgment or a property: no inference, no metatheory;
    # no command loads dataclasses or inspect
    runs = [
        ["check", "--global", "G", "--session", "M", "--ignored", "Service", BUYER],
        ["analyze", "--global", "G", "--session", "M", "--ignored", "Service", "--bounded", "--lockfree",
         "--deadlockfree", BUYER],
        ["infer", "--session", "M", "--minimal", BUYER],
        ["meta", BUYER],
    ]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, json.dumps(runs)], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [0, []],
        [0, []],
        [0, ["mpst.inference"]],
        [0, ["mpst.inference", "mpst.metatheory"]],
    ]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["check", "--global", "G", "--session", "M", "--ignored", "{u}"], "{u}"),
        (["check", "--global", "G", "--session", "M", "--ignored", "u, p q"], "p q"),
        (["analyze", "--session", "M", "--lockfree", "--ignored", "\u00e9"], "\u00e9"),
        (["analyze", "--global", "G", "--depth", "\u00e9"], "\u00e9"),
    ],
)
def test_participant_names_on_the_command_line_are_checked(capsys, argv, name):
    assert run(argv + [SOCIAL]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: participant {name!r} is not a valid identifier\n"


class TestTwoLoops:
    """Two independent loops: 4 session states, unboundedly many typed triples."""

    def test_check_accepts(self, capsys):
        assert run(["check", "--global", "G", "--session", "M", "--ignored", "", TWO_LOOPS]) == 0

    def test_session_exploration_fits_the_budget(self, capsys):
        assert run(["analyze", "--session", "M", "--lockfree", "--max-states", "200", TWO_LOOPS]) == 0

    def test_meta_walks_stop_at_the_state_budget(self, capsys):
        start = time.monotonic()
        code = run(["meta", "--max-states", "200", TWO_LOOPS])
        elapsed = time.monotonic() - start
        captured = capsys.readouterr()
        assert code == cli.BUDGET_EXCEEDED
        assert elapsed < 5
        assert captured.err.startswith("error: state limit of 200")
        assert "Traceback" not in captured.out + captured.err


class TestFrontDoor:
    """Each subcommand accepts exactly the options its handler reads."""

    OPTIONS = {
        "check": {"--format", "--global", "--session", "--ignored"},
        "infer": {
            "--format",
            "--max-size",
            "--max-outcomes",
            "--max-states",
            "--session",
            "--minimal",
            "--show-equations",
        },
        "analyze": {
            "--format",
            "--max-states",
            "--global",
            "--session",
            "--ignored",
            "--bounded",
            "--depth",
            "--lockfree",
            "--deadlockfree",
            "--stategraph",
        },
        "meta": {"--format", "--max-states", "--seed"},
    }

    def test_option_table(self):
        (subparsers,) = [
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        found = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in subparsers.choices.items()
        }
        assert found == self.OPTIONS

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--global", "G", "--session", "M", "--max-states", "5"],
            ["analyze", "--global", "G", "--bounded", "--seed", "1"],
        ],
    )
    def test_options_a_command_does_not_read_are_usage_errors(self, capsys, argv):
        assert run(argv + [SOCIAL]) == cli.USAGE_ERROR
        assert capsys.readouterr().out == ""

    def test_a_dropped_option_is_reported_by_its_subcommand(self, capsys):
        code = run(["check", "--max-states", "5", "--global", "G", "--session", "M", SOCIAL])
        captured = capsys.readouterr()
        assert code == cli.USAGE_ERROR
        assert captured.out == ""
        assert captured.err.startswith("usage: mpst check ")
        error = captured.err.splitlines()[-1]
        assert error == "mpst check: error: unrecognized arguments: --max-states"
        assert SOCIAL not in captured.err

    @pytest.mark.parametrize("check", [["--bounded"], ["--depth", "p"], ["--lockfree"], ["--deadlockfree"]])
    def test_stategraph_with_another_check_is_a_usage_error(self, capsys, check):
        code = run(["analyze", "--global", "G", "--session", "M", "--stategraph"] + check + [MUTUAL])
        captured = capsys.readouterr()
        assert code == cli.USAGE_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: --stategraph cannot be combined with")

    def test_dot_needs_stategraph(self, capsys):
        code = run(["analyze", "--global", "G", "--bounded", "--format", "dot", SOCIAL])
        captured = capsys.readouterr()
        assert code == cli.USAGE_ERROR
        assert (captured.out, captured.err) == ("", "error: --format dot needs --stategraph\n")

    def test_flag_beats_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("MPST_BUDGET", "size=1")
        code, data = run_json(capsys, ["infer", "--session", "M", "--minimal", "--max-size", "28", SOCIAL])
        assert code == 0 and data["solutions"][0]["ignored"] == ["u"]
        monkeypatch.setenv("MPST_BUDGET", "states=1")
        assert run(["analyze", "--session", "M", "--lockfree", "--max-states", "100", BUYER]) == 0

    def test_env_budget_is_checked_for_commands_without_budgets(self, capsys, monkeypatch):
        monkeypatch.setenv("MPST_BUDGET", "states=0")
        assert run(["check", "--global", "G", "--session", "M", "--ignored", "u", SOCIAL]) == 2
        assert capsys.readouterr().err == "error: budget values must be positive\n"

    def test_one_parser_serves_every_run(self, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        check = ["check", "--global", "G", "--session", "M", "--ignored", "u", SOCIAL]
        run(check)
        built = []
        real_init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(
            argparse.ArgumentParser, "__init__", lambda *args, **kw: built.append(1) or real_init(*args, **kw)
        )
        for _ in range(10):
            assert run(check) == 0
        assert built == []
        capsys.readouterr()

        def outcome(argv):
            code = run(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        infer = ["infer", "--session", "M", "--format", "json", SOCIAL]
        analyze = ["analyze", "--session", "M", "--lockfree", BUYER]
        pairs = [
            (["check", "--global", "G", "--session", "M", "--bogus", SOCIAL], check, (2, 0)),
            (["check", "--help"], check, (0, 0)),
            (infer + ["--minimal"], infer, (0, 0)),
            (analyze + ["--max-states", "2"], analyze, (cli.BUDGET_EXCEEDED, 0)),
        ]
        for first, then, codes in pairs:
            in_order = [outcome(first), outcome(then)]
            reversed_order = [outcome(then), outcome(first)]
            assert in_order == reversed_order[::-1]
            assert tuple(code for code, _, _ in in_order) == codes
        assert json.loads(outcome(infer)[1])["minimal"] is False

        monkeypatch.setenv("MPST_BUDGET", "states=2")
        assert outcome(analyze)[0] == cli.BUDGET_EXCEEDED

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.mpst")), ids=lambda p: p.stem)
    def test_infer_minimal_matches_the_library(self, capsys, path):
        for name, m in load_golden(path.name).sessions.items():
            code, data = run_json(capsys, ["infer", "--session", name, "--minimal", str(path)])
            best = pick_minimal(m, solved(m))
            if best is None:
                assert code == 1 and data["solutions"] == []
                continue
            assert code == 0
            assert data["solutions"] == [{"global": format_global(best[2]), "ignored": sorted(best[3])}]


class TestMinimalInference:
    """infer_minimal and mpst infer --minimal keep a running least over the
    raw answers and make public objects only for what they show;
    tests/oracles.py::pick_minimal takes the least of the whole solved list.
    They give the same answer, wrong ones included.  The running least stops
    at the first answer whose ignored set is empty: its key, (0, 0, ()), is
    the least there is, and ties keep the first answer.  The pick is
    re-checked with accepts, which makes no derivation records."""

    def test_minimal_inputs(self, capsys, tmp_path):
        from .test_inference import minimal_inputs

        path = tmp_path / "in.mpst"
        answered = 0
        for case, text, name, budget in minimal_inputs():
            m = parse(text).sessions[name]
            best = pick_minimal(m, solved(m, budget))
            try:
                assert infer_minimal(m, budget) == (best[2], best[3]), case
            except NoSolutionWithinBudget:
                assert best is None, case
            path.write_text(text, encoding="utf-8")
            argv = ["infer", "--session", name, "--minimal", "--max-outcomes", str(budget.max_outcomes), str(path)]
            if budget.max_size is not None:
                argv[1:1] = ["--max-size", str(budget.max_size)]
            want = [] if best is None else [{"global": format_global(best[2]), "ignored": sorted(best[3])}]
            payload = {"command": "infer", "session": name, "minimal": True, "solutions": want}
            assert run_json(capsys, argv) == (1 if best is None else 0, payload), case
            if best is not None:
                answered += 1
                want[0]["equations"] = render_outcome(best[0])
            assert run_json(capsys, argv + ["--show-equations"]) == (1 if best is None else 0, payload), case
        assert answered > 200

    def test_minimal_builds_one_outcome_only_to_show_it(self, capsys, monkeypatch):
        made = []

        def counted(cls):
            return lambda *args: made.append(cls.__name__) or cls(*args)

        for cls in (inference.InferenceOutcome, inference.Substitution):
            monkeypatch.setattr(inference, cls.__name__, counted(cls))
        argv = ["infer", "--session", "M", "--minimal", SOCIAL]
        assert run(argv) == 0
        assert made == []
        assert run(argv + ["--show-equations"]) == 0
        assert made == ["InferenceOutcome"]
        assert run(argv[:3] + [SOCIAL]) == 0
        assert made == ["InferenceOutcome"]
        capsys.readouterr()

    def test_minimal_stops_at_the_first_empty_ignored_set(self, monkeypatch):
        from .test_inference import _pairs_text, _server_text

        real = inference.infer
        drawn = []

        def counted(*args, **kwargs):
            for item in real(*args, **kwargs):
                drawn.append(item)
                yield item

        monkeypatch.setattr(inference, "infer", counted)
        cases = [
            (load_golden("two_loops.mpst").sessions["M"], frozenset()),
            (parse(_pairs_text(2)).sessions["M"], frozenset()),
            (parse(_server_text(3)).sessions["M"], {"u"}),
        ]
        for m, answer in cases:
            # A full pass: each raw derivation's ignored sets, solved one by one.
            sets = []
            for piece, first, space in real(m, raw=True):
                outcome = inference._relabel(piece, first, space)
                sets.append([theta.psets[outcome.root_psetvar] for theta in inference.solutions(outcome)])
            empty = next((k + 1 for k, found in enumerate(sets) if frozenset() in found), None)
            drawn.clear()
            assert infer_minimal(m)[1] == answer
            if answer:
                assert empty is None
                assert len(drawn) == len(sets)
            else:
                assert empty < len(sets)
                assert len(drawn) == empty

    def test_a_pick_the_checker_rejects_is_a_bug(self, monkeypatch):
        checker = importlib.import_module("mpst.typecheck")
        monkeypatch.setattr(checker.Typechecker, "accepts", lambda self, g, m, ignored: False)
        with pytest.raises(RuntimeError, match="this is a bug"):
            infer_minimal(load_golden("social_media.mpst").sessions["M"])

    def test_minimal_rechecks_its_pick_without_records(self, capsys, monkeypatch):
        checker = importlib.import_module("mpst.typecheck")
        real = checker._record
        made = []
        monkeypatch.setattr(checker, "_record", lambda *args: made.append(args) or real(*args))
        assert run(["infer", "--session", "M", "--minimal", SOCIAL]) == 0
        assert made == []
        assert run(["check", "--global", "G", "--session", "M", "--ignored", "u", SOCIAL]) == 0
        assert len(made) == 1
        capsys.readouterr()


def _digest_inputs(tmp_path):
    """(case name, file, session) for every session of every golden and for
    1 to 3 cyclic ping-pong pairs."""
    from .test_inference import _pairs_text

    out = []
    for path in sorted(GOLDEN.glob("*.mpst")):
        for name in load_golden(path.name).sessions:
            out.append((f"{path.stem}:{name}", str(path), name))
    for k in range(1, 4):
        path = tmp_path / f"pairs{k}.mpst"
        path.write_text(_pairs_text(k), encoding="utf-8")
        out.append((f"pairs{k}", str(path), "M"))
    return out


def _judgment_runs(command, path):
    """The argument lists of command on one golden: meta once, under a state
    budget two_loops.mpst exceeds; check on every global x session x subset
    of the session's participants."""
    if command == "meta":
        return [["meta", "--max-states", "150", str(path)]]
    spec = load_golden(path.name)
    return [
        ["check", "--global", gname, "--session", sname, "--ignored", ",".join(sorted(sub)), str(path)]
        for gname in spec.globals
        for sname, m in spec.sessions.items()
        for sub in subsets(participants(m))
    ]


_DIGEST_COMMANDS = {
    "infer-equations": ["infer", "--show-equations"],
    "infer-minimal": ["infer", "--minimal"],
    "stategraph": ["analyze", "--stategraph"],
}


class TestOutputDigests:
    """The JSON reports of inference and exploration, byte for byte: the
    SHA-256 of the exit code and stdout of each command on each input."""

    DIGESTS = {
        "infer-equations": {
            "buyer_seller:M": "f50955705ab8c13c5f9962c77e1c8fa8aac2f2927be6643f7bd7fcfc83b18e59",
            "empty:Empty": "c946438dfd37260deb32749f03974d140a18585de6c1878c15f8a440503d53d6",
            "mutual_loop:M": "0beffa421067542a085d7992487e453a1e931a4186342e709a1bc58068502b11",
            "social_media:M": "cc581ab968504fbd96ee513d1b7bf114655ca4c1bac46cbbf155807cb4227961",
            "two_loops:M": "bba4354cf9ba0dec18b2ec3a4e73b57318c91b4c159c8db0bd72c91597553ef3",
            "unbounded:M": "c1940e6454d0f269b7f3e5e90ab24814975633055d4164ec5d11de8d6745b5d2",
            "pairs1": "763a4b3efa9fa7abe2a984c0c449e4422cf2f2074e617a6bc4895d5fae6ad065",
            "pairs2": "bba4354cf9ba0dec18b2ec3a4e73b57318c91b4c159c8db0bd72c91597553ef3",
            "pairs3": "b753831084189ee059e3dd7ed1d808996b4d6f702340b06c59513447e313244a",
        },
        "infer-minimal": {
            "buyer_seller:M": "4ffa7a7897a0f54de2f9d85941d68805b3001443e4a4b872b9763dda4d60d6ac",
            "empty:Empty": "cc9f8f0f5ef809847d6120e387d298d6d1c61665a7c3d24e579fd00870b2e38e",
            "mutual_loop:M": "e65bc46b577357257053bbd004bb6d04fc141dc4dc3d963002b3a07c201a4087",
            "social_media:M": "4a82218222ce7ea88aa1c0dfa20590cf1b3478c6229db8f9cb1ca8775a31e41d",
            "two_loops:M": "4e229d3600cb9c7733b46a5de4c97b68c5aece2db359b4fa2951374ad77dedb7",
            "unbounded:M": "ba0b4adf7244afe0d4da613e09a9db7f25c22a5b655594e700cdf6d8df5ae772",
            "pairs1": "333090969dfb57eb0346570590d08178055a7450d8196b9b27004fcdf982251c",
            "pairs2": "4e229d3600cb9c7733b46a5de4c97b68c5aece2db359b4fa2951374ad77dedb7",
            "pairs3": "c415f23f4c3f0cb488c619579ec27774b69e5bf19ef896a7c58987c9dae07b83",
        },
        "stategraph": {
            "buyer_seller:M": "5df7a7ef21f7429130bae35c31f0ae0b6f5a7a1c7242c848b71eb693e03cd8ff",
            "empty:Empty": "ef5e52a5a0e23af1e29c3f060afa9e9f2dd563cde079e2adec693426702c5176",
            "mutual_loop:M": "18a4ed6e336acda4515670b464d65c91aebd6f0af9b0eafadecbfcb27f3d415d",
            "social_media:M": "47e9f9217ae6aa422ea9fdeba381e1c208b55b3754ba320e39fd68bde650c8b9",
            "two_loops:M": "123aecc33479122cb612f96067f25e7afaac9a6e5d2b12ca87c1e3dc8c7be0e2",
            "unbounded:M": "68af3b4b98b2b3345e21a0a5337833349b0eec6a3253f95b22bbb2f11dabd8de",
            "pairs1": "cee3d2486a3134358b77f66715d9dbfa1537331716685ba5407938a08e3da845",
            "pairs2": "123aecc33479122cb612f96067f25e7afaac9a6e5d2b12ca87c1e3dc8c7be0e2",
            "pairs3": "d6b965e5d76096b659368803c3f6a21fbfd4f0d230a35f5007120c5b5935c3b3",
        },
    }

    # check on every global x session x subset of the session's
    # participants of a golden, and meta on it, in text and JSON.
    JUDGMENT_DIGESTS = {
        "check": {
            "buyer_seller": "0e590507a9d04bac6d4e89857263db14052aca45d8c58c26c7179a59e20d495e",
            "empty": "c56b2d83c120a4abcc173f0fa619f5a08bcf91e55bb21eb035d73997727615d0",
            "mutual_loop": "cf0a0cc1684e57073462c6df59f962e832651c497bb2c887453ba8f2703116ae",
            "social_media": "857a784328e8a0fbf3977774205938aa576ae5ec6c4c14fd075d6e9e98231055",
            "two_loops": "8ddc76d5cc6266305fbaf707872cbf1a906cb3429894edc265975a2f3849663c",
            "unbounded": "6730f843ea33f2a41fc3ecc82cbcda0fec4a2fb6aa14e113c4d656d3a1558a09",
        },
        "meta": {
            "buyer_seller": "da4c2973232bfa150cbdf60df9d1828f98ae193757b165af4cbd59eb72883b48",
            "empty": "125992c9cdfbe5262f67b726ca31297425e40b13ca8a5530006e1075111daf83",
            "mutual_loop": "d497fb6bb8a83d12cf1488db370afb6f3b0330370a610baf84e777e9f171032f",
            "social_media": "09fc06d140de5476660f62f65bcd582613deeee5e811dc252937763f76d12c1f",
            "two_loops": "9422b95a5e9325e99b4848aa8d911c6ddf0745dea8d00a54dc8915fa23de5d2f",
            "unbounded": "4084a1d91f936039addb6e5c3b95a7741d17613efe96fba993822b10e7d7a377",
        },
    }

    @pytest.mark.parametrize("command", sorted(_DIGEST_COMMANDS))
    def test_report_is_unchanged(self, capsys, tmp_path, command):
        got = {}
        for case, path, session in _digest_inputs(tmp_path):
            code = run(_DIGEST_COMMANDS[command] + ["--session", session, "--format", "json", path])
            text = f"{code}\n{capsys.readouterr().out}"
            got[case] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert got == self.DIGESTS[command]

    @pytest.mark.parametrize("command", sorted(JUDGMENT_DIGESTS))
    def test_judgments_are_unchanged(self, capsys, command):
        got = {}
        for path in sorted(GOLDEN.glob("*.mpst")):
            digest = hashlib.sha256()
            for argv in _judgment_runs(command, path):
                for fmt in ("text", "json"):
                    code = run(argv + ["--format", fmt])
                    digest.update(f"{code}\n{capsys.readouterr().out}".encode("utf-8"))
            got[path.stem] = digest.hexdigest()
        assert got == self.JUDGMENT_DIGESTS[command]
