"""Command-line driver: check, infer, analyze and meta over .mpst files.

Each subcommand takes only the options its handler reads: ``check`` the
judgment and ``--format``; ``infer`` the session, ``--minimal``,
``--show-equations`` and all three budgets; ``analyze`` its checks and
``--max-states``; ``meta`` ``--seed`` and ``--max-states``.  A budget option
left unset takes its value from MPST_BUDGET, else its built-in default, and
the variable is checked as a whole for every subcommand.  ``check`` and
``analyze`` load neither ``mpst.inference`` nor ``mpst.metatheory``: the
``infer`` and ``meta`` handlers import theirs when they run.

Exit codes: 0 when the property holds / a derivation or solution was found,
1 when it fails / nothing was found, 2 on usage or parse errors or an
unreadable input file, 3 when an exploration hit its state or edge budget or
the input is nested deeper than the interpreter's recursion limit allows (no
answer is given then) or, from ``main``, when stdout cannot take the report
(``error: cannot write output: ...``, as on a full disk), and 141 from
``main`` when the reader of stdout went away (128 + SIGPIPE, as ``cat``
gives; nothing more is printed).  The state budget also bounds ``meta``'s
walks over typed triples, which never close on tests/golden/two_loops.mpst.
JSON output is byte-stable for fixed inputs, seeds and budgets.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .analysis import bounded, depth, excluded_deadlock_free, excluded_lock_free
from .frontend import ParseError, SpecFile, format_global, format_session, parse
from .semantics import ExploreConfig, StateLimitExceeded, explore
from .terms import GlobalGraph, Session, TermError, check_ident
from .typecheck import Derivation, typecheck

USAGE_ERROR = 2
BUDGET_EXCEEDED = 3  # every exit that gives no answer, not only a budget
BROKEN_PIPE = 141

# Budget options by their MPST_BUDGET key: the flag is --max-<key>.  A size of
# None means four times the number of reachable session states.
BUDGET_DEFAULTS = {"size": None, "outcomes": 64, "states": 1_000_000}


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _env_budget() -> dict[str, int]:
    """The values of MPST_BUDGET=size=28,outcomes=64,states=1000000 by key."""
    values = {}
    for piece in os.environ.get("MPST_BUDGET", "").split(","):
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
        if key not in BUDGET_DEFAULTS:
            raise CliError(f"unknown MPST_BUDGET key {key!r}")
        values[key] = number
    return values


def _resolve_budgets(ns: argparse.Namespace) -> None:
    """Set each budget option ns has: the flag, else MPST_BUDGET, else the default."""
    env = _env_budget()
    for key, default in BUDGET_DEFAULTS.items():
        if hasattr(ns, f"max_{key}") and getattr(ns, f"max_{key}") is None:
            setattr(ns, f"max_{key}", env.get(key, default))
    values = [*env.values(), *(getattr(ns, f"max_{key}", None) for key in BUDGET_DEFAULTS)]
    if any(v is not None and v <= 0 for v in values):
        raise CliError("budget values must be positive")


def _load(ns: argparse.Namespace) -> SpecFile:
    try:
        with open(ns.file, encoding="utf-8-sig") as handle:
            return parse(handle.read())
    except FileNotFoundError:
        raise CliError(f"no such file: {ns.file}")
    except OSError as exc:  # a directory, a symlink loop, no permission
        raise CliError(f"{ns.file}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise CliError(f"{ns.file}: {exc}")
    except ParseError as exc:
        raise CliError(f"{ns.file}:{exc}")


def _pick_session(spec: SpecFile, ns: argparse.Namespace) -> Session:
    name = ns.session_name
    if name is None:
        raise CliError("--session is required")
    if name not in spec.sessions:
        raise CliError(f"session {name!r} is not defined in {ns.file}")
    return spec.sessions[name]


def _pick_global(spec: SpecFile, ns: argparse.Namespace) -> GlobalGraph:
    name = ns.global_name
    if name is None:
        raise CliError("--global is required")
    if name not in spec.globals:
        raise CliError(f"global type {name!r} is not defined in {ns.file}")
    return spec.globals[name]


def _pick_ignored(spec: SpecFile, ns: argparse.Namespace) -> frozenset[str]:
    if not ns.ignored:
        return frozenset()
    if ns.ignored in spec.ignored_sets:
        return spec.ignored_sets[ns.ignored]
    return frozenset(_participant(p.strip()) for p in ns.ignored.split(",") if p.strip())


def _participant(name: str) -> str:
    try:
        return check_ident(name, "participant")
    except TermError as exc:
        raise CliError(str(exc)) from None


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def cmd_check(ns: argparse.Namespace) -> int:
    spec = _load(ns)
    g = _pick_global(spec, ns)
    m = _pick_session(spec, ns)
    ignored = _pick_ignored(spec, ns)
    result = typecheck(g, m, ignored)
    accepted = isinstance(result, Derivation)
    if ns.format == "json":
        _emit(
            {
                "command": "check",
                "global": ns.global_name,
                "session": ns.session_name,
                "ignored": sorted(ignored),
                "accepted": accepted,
                "derivation": result.to_json_dict() if accepted else None,
                "rejection": None if accepted else result.to_json_dict(),
            }
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


def cmd_infer(ns: argparse.Namespace) -> int:
    from . import inference

    spec = _load(ns)
    m = _pick_session(spec, ns)
    budget = inference.SearchBudget(
        max_size=ns.max_size, max_outcomes=ns.max_outcomes, explore=ExploreConfig(max_states=ns.max_states)
    )
    payload_outcomes = []
    for g, p, outcome in inference.chosen(m, budget, ns.minimal):
        entry = {
            "global": format_global(g),
            "ignored": sorted(p),
        }
        if ns.show_equations:
            entry["equations"] = inference.render_outcome(outcome())
        payload_outcomes.append(entry)
    if ns.format == "json":
        _emit(
            {
                "command": "infer",
                "session": ns.session_name,
                "minimal": ns.minimal,
                "solutions": payload_outcomes,
            }
        )
    else:
        if not payload_outcomes:
            print("no solution within budget")
        for k, entry in enumerate(payload_outcomes):
            print(f"solution {k}: ignored = {{{', '.join(entry['ignored'])}}}")
            print(entry["global"])
            if ns.show_equations:
                eqs = entry["equations"]
                for line in eqs["type_equations"]:
                    print(f"  {line}")
                for line in eqs["pset_equations"]:
                    print(f"  {line}")
                for line in eqs["conditions"]:
                    print(f"  {line}")
    return 0 if payload_outcomes else 1


def cmd_analyze(ns: argparse.Namespace) -> int:
    if ns.stategraph and (ns.bounded or ns.depth_of is not None or ns.lockfree or ns.deadlockfree):
        raise CliError("--stategraph cannot be combined with --bounded, --depth, --lockfree or --deadlockfree")
    if ns.format == "dot" and not ns.stategraph:
        raise CliError("--format dot needs --stategraph")
    spec = _load(ns)
    explore_config = ExploreConfig(max_states=ns.max_states)

    if ns.stategraph:
        graph = explore(_pick_session(spec, ns), explore_config)
        if ns.format == "dot":
            print(graph.to_dot())
        elif ns.format == "json":
            _emit(graph.to_json_dict())
        else:
            for i, text in enumerate(graph.texts()):
                mark = "*" if i == graph.initial else " "
                print(f"{mark} state {i}: {text}")
            for i, lab, j in graph.edges:
                print(f"  {i} --{lab}--> {j}")
        return 0

    results = []
    if ns.bounded:
        verdict = bounded(_pick_global(spec, ns))
        results.append(
            {
                "property": "boundedness",
                "global": ns.global_name,
                "holds": verdict.holds,
                "witness": None
                if verdict.holds
                else {
                    "node": verdict.witness_node,
                    "participant": verdict.witness_participant,
                },
            }
        )
    if ns.depth_of is not None:
        g = _pick_global(spec, ns)
        value = depth(g, _participant(ns.depth_of))
        results.append(
            {
                "property": "depth",
                "global": ns.global_name,
                "participant": ns.depth_of,
                "value": "inf" if value == float("inf") else value,
            }
        )
    if ns.lockfree or ns.deadlockfree:
        m = _pick_session(spec, ns)
        ignored = _pick_ignored(spec, ns)
        graph = explore(m, explore_config)  # one exploration serves both checks
        if ns.lockfree:
            results.append(excluded_lock_free(m, ignored, graph=graph).to_json_dict())
        if ns.deadlockfree:
            results.append(excluded_deadlock_free(m, ignored, graph=graph).to_json_dict())

    if not results:
        raise CliError("nothing to analyze: pass --bounded, --depth, --lockfree, --deadlockfree or --stategraph")

    if ns.format == "json":
        _emit({"command": "analyze", "results": results})
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
    return 1 if any(entry.get("holds") is False for entry in results) else 0


def cmd_meta(ns: argparse.Namespace) -> int:
    from .metatheory import run_file_suite

    spec = _load(ns)
    report = run_file_suite(spec, ns.seed, ExploreConfig(max_states=ns.max_states))
    if ns.format == "json":
        _emit({"command": "meta", "seed": ns.seed, **report.to_json_dict()})
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


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which rejects what it does not take under its
    own usage line.  An option it does not know may be followed by its value,
    which argparse then takes for the file, so only the unknown options are
    named when there are any."""

    def parse_known_args(self, args=None, namespace=None):
        ns, extras = super().parse_known_args(args, namespace)
        if extras:
            options = [arg for arg in extras if arg.startswith("-")]
            self.error(f"unrecognized arguments: {' '.join(options or extras)}")
        return ns, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``mpst`` parser, built once per process on first use (never at
    import) and reused by every ``run``.  It holds no per-run state: budget
    options default to None and ``_resolve_budgets`` reads MPST_BUDGET on each
    run, and the handlers look up what they call when they are called."""
    parser = argparse.ArgumentParser(
        prog="mpst",
        description="Check, analyze and infer global types for multiparty sessions.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    def command(name, handler, help, budgets=(), formats=("text", "json")):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("file", help="input .mpst file")
        p.add_argument("--format", choices=formats, default="text")
        for key in budgets:  # None until _resolve_budgets fills it in
            p.add_argument(f"--max-{key}", type=int, help="derivation size cap" if key == "size" else None)
        return p

    p_check = command("check", cmd_check, "decide a typing judgment")
    p_check.add_argument("--global", dest="global_name", required=True)
    p_check.add_argument("--session", dest="session_name", required=True)
    p_check.add_argument("--ignored", default="")

    p_infer = command("infer", cmd_infer, "infer global types and ignored sets", BUDGET_DEFAULTS)
    p_infer.add_argument("--session", dest="session_name", required=True)
    p_infer.add_argument("--minimal", action="store_true")
    p_infer.add_argument("--show-equations", action="store_true")

    p_analyze = command(
        "analyze", cmd_analyze, "boundedness, liveness, state graphs", ["states"], ("text", "json", "dot")
    )
    p_analyze.add_argument("--global", dest="global_name")
    p_analyze.add_argument("--session", dest="session_name")
    p_analyze.add_argument("--ignored", default="")
    p_analyze.add_argument("--bounded", action="store_true")
    p_analyze.add_argument("--depth", dest="depth_of", metavar="PARTICIPANT")
    p_analyze.add_argument("--lockfree", action="store_true")
    p_analyze.add_argument("--deadlockfree", action="store_true")
    p_analyze.add_argument("--stategraph", action="store_true")

    p_meta = command("meta", cmd_meta, "run the metatheory suite over a file", ["states"])
    p_meta.add_argument("--seed", type=int, default=0)
    return parser


def run(argv: list[str]) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        _resolve_budgets(ns)
        return ns.handler(ns)
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
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``mpst ... | head``).  Point stdout at
        # devnull so the flush at exit cannot fail again, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = BROKEN_PIPE
    except OSError as exc:
        # stdout could not take the report (a full disk, ``> /dev/full``):
        # no answer was given, so exit 1 ("fails") would be a false verdict.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        code = BUDGET_EXCEEDED
    sys.exit(code)


if __name__ == "__main__":
    main()
