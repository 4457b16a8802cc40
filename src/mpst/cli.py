"""Command-line driver: check, infer, analyze and meta over .mpst files.

Exit codes: 0 when the property holds / a derivation or solution was found,
1 when it fails / nothing was found, 2 on usage or parse errors, 3 when an
exploration hit its state or edge budget or the input is nested deeper than
the interpreter's recursion limit allows (no answer is given then).  The
state budget also bounds ``meta``'s walks over typed triples, which never
close on tests/golden/two_loops.mpst.  JSON output is byte-stable for fixed
inputs, seeds and budgets.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

from . import inference
from .analysis import bounded, depth, excluded_deadlock_free, excluded_lock_free
from .frontend import ParseError, SpecFile, format_global, format_session, parse
from .inference import SearchBudget, enumerate_solutions, minimal_key, render_outcome
from .metatheory import run_file_suite
from .semantics import ExploreConfig, StateLimitExceeded, explore
from .terms import GlobalGraph, Session, TermError, check_ident
from .typecheck import Derivation, typecheck

USAGE_ERROR = 2
BUDGET_EXCEEDED = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


@dataclass
class RunConfig:
    path: str
    command: str
    global_name: str | None = None
    session_name: str | None = None
    ignored_spec: str | None = None
    fmt: str = "text"
    seed: int = 0
    max_size: int | None = None
    max_outcomes: int = 64
    max_states: int = 1_000_000
    minimal: bool = False
    show_equations: bool = False
    checks: list[str] = field(default_factory=list)
    depth_of: str | None = None

    def __post_init__(self) -> None:
        self.check_budget()

    def check_budget(self) -> None:
        if self.max_outcomes <= 0 or self.max_states <= 0:
            raise CliError("budget values must be positive")
        if self.max_size is not None and self.max_size <= 0:
            raise CliError("budget values must be positive")

    def budget(self) -> SearchBudget:
        return SearchBudget(
            max_size=self.max_size,
            max_outcomes=self.max_outcomes,
            explore=self.explore_config(),
        )

    def explore_config(self) -> ExploreConfig:
        return ExploreConfig(max_states=self.max_states)


def _apply_env_budget(config: RunConfig) -> None:
    """MPST_BUDGET=size=28,outcomes=64,states=1000000 overrides defaults."""
    raw = os.environ.get("MPST_BUDGET")
    if not raw:
        return
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise CliError(f"malformed MPST_BUDGET entry {piece!r}")
        key, _, value = piece.partition("=")
        try:
            number = int(value)
        except ValueError:
            raise CliError(f"malformed MPST_BUDGET value {value!r}") from None
        if key == "size":
            config.max_size = number
        elif key == "outcomes":
            config.max_outcomes = number
        elif key == "states":
            config.max_states = number
        else:
            raise CliError(f"unknown MPST_BUDGET key {key!r}")
    config.check_budget()


def _load(config: RunConfig) -> SpecFile:
    try:
        with open(config.path, encoding="utf-8") as handle:
            return parse(handle.read())
    except FileNotFoundError:
        raise CliError(f"no such file: {config.path}")
    except ParseError as exc:
        raise CliError(f"{config.path}:{exc}")


def _pick_session(spec: SpecFile, config: RunConfig) -> Session:
    name = config.session_name
    if name is None:
        raise CliError("--session is required")
    if name not in spec.sessions:
        raise CliError(f"session {name!r} is not defined in {config.path}")
    return spec.sessions[name]


def _pick_global(spec: SpecFile, config: RunConfig) -> GlobalGraph:
    name = config.global_name
    if name is None:
        raise CliError("--global is required")
    if name not in spec.globals:
        raise CliError(f"global type {name!r} is not defined in {config.path}")
    return spec.globals[name]


def _pick_ignored(spec: SpecFile, config: RunConfig) -> frozenset[str]:
    spec_text = config.ignored_spec
    if spec_text is None or spec_text == "":
        return frozenset()
    if spec_text in spec.ignored_sets:
        return spec.ignored_sets[spec_text]
    return frozenset(_participant(p.strip()) for p in spec_text.split(",") if p.strip())


def _participant(name: str) -> str:
    try:
        return check_ident(name, "participant")
    except TermError as exc:
        raise CliError(str(exc)) from None


def _emit(payload: dict, config: RunConfig) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def cmd_check(config: RunConfig) -> int:
    spec = _load(config)
    g = _pick_global(spec, config)
    m = _pick_session(spec, config)
    ignored = _pick_ignored(spec, config)
    result = typecheck(g, m, ignored)
    accepted = isinstance(result, Derivation)
    if config.fmt == "json":
        _emit(
            {
                "command": "check",
                "global": config.global_name,
                "session": config.session_name,
                "ignored": sorted(ignored),
                "accepted": accepted,
                "derivation": result.to_json_dict() if accepted else None,
                "rejection": None if accepted else result.to_json_dict(),
            },
            config,
        )
    else:
        if accepted:
            print("accepted")
            print(result.to_text())
        else:
            print(f"rejected: {result.reason}")
            print(f"  {result.detail}")
            print(f"  at: {format_session(result.judgment.session)}")
    return 0 if accepted else 1


def cmd_infer(config: RunConfig) -> int:
    spec = _load(config)
    m = _pick_session(spec, config)
    budget = config.budget()
    found = []
    try:
        for outcome, theta, g, p in enumerate_solutions(m, budget):
            found.append((outcome, theta, g, p))
    except inference.BudgetExhausted:
        pass
    if config.minimal:
        found.sort(key=lambda item: minimal_key(item[0], item[3]))
        found = found[:1]
    payload_outcomes = []
    for outcome, theta, g, p in found:
        entry = {
            "global": format_global(g),
            "ignored": sorted(p),
        }
        if config.show_equations:
            entry["equations"] = render_outcome(outcome)
        payload_outcomes.append(entry)
    if config.fmt == "json":
        _emit(
            {
                "command": "infer",
                "session": config.session_name,
                "minimal": config.minimal,
                "solutions": payload_outcomes,
            },
            config,
        )
    else:
        if not payload_outcomes:
            print("no solution within budget")
        for k, entry in enumerate(payload_outcomes):
            print(f"solution {k}: ignored = {{{', '.join(entry['ignored'])}}}")
            print(entry["global"])
            if config.show_equations:
                eqs = entry["equations"]
                for line in eqs["type_equations"]:
                    print(f"  {line}")
                for line in eqs["pset_equations"]:
                    print(f"  {line}")
                for line in eqs["conditions"]:
                    print(f"  {line}")
    return 0 if payload_outcomes else 1


def cmd_analyze(config: RunConfig) -> int:
    spec = _load(config)
    results = []
    failed = False

    if "stategraph" in config.checks:
        m = _pick_session(spec, config)
        graph = explore(m, config.explore_config())
        if config.fmt == "dot":
            print(graph.to_dot())
        elif config.fmt == "json":
            print(json.dumps(graph.to_json_dict(), sort_keys=True, indent=2))
        else:
            for i, st in enumerate(graph.states):
                mark = "*" if i == graph.initial else " "
                print(f"{mark} state {i}: {format_session(st)}")
            for i, lab, j in graph.edges:
                print(f"  {i} --{lab}--> {j}")
        return 0

    if "bounded" in config.checks:
        g = _pick_global(spec, config)
        verdict = bounded(g)
        results.append(
            {
                "property": "boundedness",
                "global": config.global_name,
                "holds": verdict.holds,
                "witness": None
                if verdict.holds
                else {
                    "node": verdict.witness_node,
                    "participant": verdict.witness_participant,
                },
            }
        )
        failed = failed or not verdict.holds
    if config.depth_of is not None:
        g = _pick_global(spec, config)
        value = depth(g, _participant(config.depth_of))
        results.append(
            {
                "property": "depth",
                "global": config.global_name,
                "participant": config.depth_of,
                "value": "inf" if value == float("inf") else value,
            }
        )
    if "lockfree" in config.checks or "deadlockfree" in config.checks:
        m = _pick_session(spec, config)
        ignored = _pick_ignored(spec, config)
        graph = explore(m, config.explore_config())  # one exploration serves both checks
        verdicts = []
        if "lockfree" in config.checks:
            verdicts.append(excluded_lock_free(m, ignored, graph=graph))
        if "deadlockfree" in config.checks:
            verdicts.append(excluded_deadlock_free(m, ignored, graph=graph))
        for verdict in verdicts:
            results.append(verdict.to_json_dict())
            failed = failed or not verdict.holds

    if not results:
        raise CliError("nothing to analyze: pass --bounded, --depth, --lockfree, --deadlockfree or --stategraph")

    if config.fmt == "json":
        _emit({"command": "analyze", "results": results}, config)
    else:
        for entry in results:
            if entry["property"] == "depth":
                print(f"depth of {entry['participant']}: {entry['value']}")
                continue
            line = f"{entry['property']}: {'holds' if entry['holds'] else 'fails'}"
            if entry.get("witness"):
                line += f"  (witness: {entry['witness']})"
            if entry.get("note"):
                line += f"\n  note: {entry['note']}"
            print(line)
    return 1 if failed else 0


def cmd_meta(config: RunConfig) -> int:
    spec = _load(config)
    report = run_file_suite(spec, config.seed, config.explore_config())
    if config.fmt == "json":
        _emit({"command": "meta", "seed": config.seed, **report.to_json_dict()}, config)
    else:
        for combo in report.combos:
            head = (
                f"{combo['global']} |- {combo['session']} "
                f"[{', '.join(combo['ignored'])}]"
            )
            if not combo["accepted"]:
                print(f"{head}: not derivable ({combo['rejection']})")
            elif combo["violations"]:
                print(f"{head}: VIOLATIONS")
                for v in combo["violations"]:
                    print(f"  {v}")
            else:
                print(f"{head}: ok")
        print("meta: ok" if report.ok else "meta: violations found")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpst",
        description="Check, analyze and infer global types for multiparty sessions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, fmt_choices=("text", "json")) -> None:
        p.add_argument("file", help="input .mpst file")
        p.add_argument("--format", choices=fmt_choices, default="text")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-size", type=int, default=None, help="derivation size cap")
        p.add_argument("--max-outcomes", type=int, default=64)
        p.add_argument("--max-states", type=int, default=1_000_000)

    p_check = sub.add_parser("check", help="decide a typing judgment")
    common(p_check)
    p_check.add_argument("--global", dest="global_name", required=True)
    p_check.add_argument("--session", dest="session_name", required=True)
    p_check.add_argument("--ignored", default="")

    p_infer = sub.add_parser("infer", help="infer global types and ignored sets")
    common(p_infer)
    p_infer.add_argument("--session", dest="session_name", required=True)
    p_infer.add_argument("--minimal", action="store_true")
    p_infer.add_argument("--show-equations", action="store_true")

    p_analyze = sub.add_parser("analyze", help="boundedness, liveness, state graphs")
    common(p_analyze, ("text", "json", "dot"))
    p_analyze.add_argument("--global", dest="global_name")
    p_analyze.add_argument("--session", dest="session_name")
    p_analyze.add_argument("--ignored", default="")
    p_analyze.add_argument("--bounded", action="store_true")
    p_analyze.add_argument("--depth", dest="depth_of", metavar="PARTICIPANT")
    p_analyze.add_argument("--lockfree", action="store_true")
    p_analyze.add_argument("--deadlockfree", action="store_true")
    p_analyze.add_argument("--stategraph", action="store_true")

    p_meta = sub.add_parser("meta", help="run the metatheory suite over a file")
    common(p_meta)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    checks = [
        name
        for name in ("bounded", "lockfree", "deadlockfree", "stategraph")
        if getattr(ns, name, False)
    ]
    try:
        config = RunConfig(
            path=ns.file,
            command=ns.command,
            global_name=getattr(ns, "global_name", None),
            session_name=getattr(ns, "session_name", None),
            ignored_spec=getattr(ns, "ignored", None),
            fmt=ns.format,
            seed=ns.seed,
            max_size=ns.max_size,
            max_outcomes=ns.max_outcomes,
            max_states=ns.max_states,
            minimal=getattr(ns, "minimal", False),
            show_equations=getattr(ns, "show_equations", False),
            checks=checks,
            depth_of=getattr(ns, "depth_of", None),
        )
        _apply_env_budget(config)
        handler = {
            "check": cmd_check,
            "infer": cmd_infer,
            "analyze": cmd_analyze,
            "meta": cmd_meta,
        }[config.command]
        return handler(config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except StateLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_EXCEEDED
    except RecursionError:
        limit = sys.getrecursionlimit()
        print(f"error: input nested too deeply for the recursion limit of {limit}", file=sys.stderr)
        return BUDGET_EXCEEDED


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
