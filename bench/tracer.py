"""Outside-in tracer: spans around the program's layers, from the benchmark.

The program is not edited.  ``Tracer.install`` replaces every module binding
of each traced function (``from x import f`` copies the binding, so each copy
is replaced) and the traced methods on their classes.  Each call records a
span: name, start, end, parent span and op id.  Spans stay in memory, in flat
arrays, until the round ends.

A span's self time is its duration minus the part of it that its child spans
cover.  With one thread, spans nest and siblings never overlap, so the
covered part is the sum of the children's durations.

A generator function (``inference.infer``) gets one span per resumption, so
its spans nest inside whatever consumer resumed it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.op = array("l")
        self.stack: list[int] = []
        self.op_id = -1
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # recorded at the layer boundaries
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def wrap(self, span: str, fn, after=None):
        """A stand-in for fn that records one span per call.

        ``after(tracer, result, args)`` runs once the span is closed and bumps
        counts; its cost lands in the caller's self time and in the tracing
        overhead, never in this span.
        """
        nid = self._name_id(span)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(span, nid, fn, after)

        def traced(*args, **kwargs):
            self.calls[span] += 1
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, span: str, nid: int, fn, after):
        def traced(*args, **kwargs):
            self.calls[span] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    if after is not None:
                        after(self, item, args)
                    yield item
            finally:
                inner.close()

        traced.__wrapped__ = fn
        return traced

    def _name_id(self, span: str) -> int:
        if span not in self.names:
            self.names.append(span)
        return self.names.index(span)

    # -- installing --------------------------------------------------------

    def patch_function(self, fn, span: str, after=None) -> None:
        """Replace fn in every loaded module of the mpst package that binds it."""
        traced = self.wrap(span, fn, after)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "mpst" or modname.startswith("mpst.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, traced)

    def patch_method(self, cls, attr: str, span: str, after=None) -> None:
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self.wrap(span, original, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- arithmetic --------------------------------------------------------

    def self_times(self) -> tuple[array, array]:
        """(self time, covered time) of every span; self + covered = duration."""
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            if parent[i] >= 0:
                covered[parent[i]] += end[i] - start[i]
        own = array("d", (end[i] - start[i] - covered[i] for i in range(n)))
        return own, covered

    def summary(self) -> dict[str, float]:
        """Per span name: calls and summed self time, plus the counts."""
        own, _ = self.self_times()
        out: dict[str, float] = {}
        for span in self.names:
            out[f"{span}.calls"] = float(self.calls[span])
            out[f"{span}.self_s"] = 0.0
        for i, nid in enumerate(self.name):
            out[f"{self.names[nid]}.self_s"] += own[i]
        for key, value in self.counts.items():
            out[key] = float(value)
        return out

    def write(self, path) -> None:
        """All spans as tab-separated lines: id, parent, op, name, start, end."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\top\tname\tstart\tend\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


# ---------------------------------------------------------------------------
# What is traced.  Span names are the metric prefixes of BENCHMARK.json.
# ---------------------------------------------------------------------------


def _noop(key: str):
    def after(t: Tracer, result, args) -> None:
        if result == args[0]:
            t.counts[key] += 1

    return after


def _explored(t: Tracer, graph, args) -> None:
    t.counts["semantics.explore.states"] += len(graph.states)
    t.counts["semantics.explore.edges"] += len(graph.edges)


def _typed(t: Tracer, result, args) -> None:
    from mpst.typecheck import Derivation

    if isinstance(result, Derivation):
        t.counts["typecheck.accepted"] += 1
        t.counts["typecheck.derivation_nodes"] += sum(1 for _ in result.iter_nodes())


def _outcome(t: Tracer, item, args) -> None:
    t.counts["inference.infer.outcomes"] += 1


def _solved(t: Tracer, result, args) -> None:
    if result:
        t.counts["inference.solutions.solved"] += 1


def install(tracer: Tracer) -> None:
    """Trace the layers of an imported ``mpst``; call after importing mpst.cli."""
    # importlib, because the package re-exports a function named typecheck
    analysis, cli, frontend, inference, metatheory, semantics, terms, typecheck = (
        importlib.import_module(f"mpst.{name}")
        for name in ("analysis", "cli", "frontend", "inference", "metatheory", "semantics", "terms", "typecheck")
    )

    functions = [
        (terms.minimize, "terms.minimize", _noop("terms.minimize.noop")),
        (terms.minimize_global, "terms.minimize_global", _noop("terms.minimize_global.noop")),
        (terms.normalize_session, "terms.normalize_session", None),
        (terms.build_process_graph, "terms.build", None),
        (terms.build_global_graph, "terms.build", None),
        (semantics.explore, "semantics.explore", _explored),
        (semantics.session_transitions, "semantics.session_transitions", None),
        (semantics.global_successor, "semantics.global_successor", None),
        (analysis.bounded, "analysis.bounded", None),
        (analysis.depth, "analysis.depth", None),
        (analysis.excluded_lock_free, "analysis.liveness", None),
        (analysis.excluded_deadlock_free, "analysis.liveness", None),
        (typecheck.typecheck, "typecheck", _typed),
        (inference.infer, "inference.infer", _outcome),
        (inference.solutions, "inference.solutions", _solved),
        (metatheory.check_subject_reduction, "metatheory.subject_reduction", None),
        (metatheory.check_session_fidelity, "metatheory.session_fidelity", None),
        (metatheory.check_replacement, "metatheory.replacement", None),
        (frontend.parse, "frontend.parse", None),
        (frontend.format_process, "frontend.format", None),
        (frontend.format_global, "frontend.format", None),
        (frontend.format_session, "frontend.format", None),
        (cli.run, "cli.run", None),
    ]
    for fn, span, after in functions:
        tracer.patch_function(fn, span, after)
    tracer.patch_method(terms.ProcessGraph, "step", "terms.step")
    tracer.patch_method(terms.GlobalGraph, "at", "terms.at")
    tracer.patch_method(semantics.StateGraph, "path_to", "semantics.path_to")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced round, ratios included."""
    out = tracer.summary()
    for span in ("terms.minimize", "terms.minimize_global"):
        out[f"{span}.noop_share"] = out.pop(f"{span}.noop", 0.0) / max(out[f"{span}.calls"], 1.0)
    solved = out.pop("inference.solutions.solved", 0.0)
    out["inference.solutions.solved_share"] = solved / max(out["inference.solutions.calls"], 1.0)
    out.setdefault("semantics.explore.states", 0.0)
    out.setdefault("semantics.explore.edges", 0.0)
    out.setdefault("typecheck.accepted", 0.0)
    out.setdefault("typecheck.derivation_nodes", 0.0)
    out.setdefault("inference.infer.outcomes", 0.0)
    out["trace.spans"] = float(len(tracer.start))
    return out
