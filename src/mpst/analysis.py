"""Boundedness of global types and excluded lock/deadlock-freedom of sessions.

Depth of a participant in a global type is the supremum, over all paths, of
the index of the first communication involving that participant; a path that
terminates or loops without ever involving the participant pushes the
supremum to infinity.  A global type is bounded when every participant of
every subterm has finite depth there.

Liveness verdicts are decided exactly on the finite reachable-state graph.
A participant is locked in a state when no path from that state contains a
communication involving it.  Only the existence of such a continuation is
required: a verdict of "lock-free" does not promise that every scheduler
eventually takes it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from .semantics import ExploreConfig, StateGraph, Trace, explore
from .terms import COMM, GlobalGraph, Session, participants

# Fixed note attached to lock-freedom reports: the verdict follows the literal
# existential-continuation reading, which accepts sessions that a fairness
# argument would call locked (a branch may be postponed forever by a loop).
LOCKFREEDOM_NOTE = (
    "lock-freedom is decided with the existential reading: a participant is "
    "lock-free in a state when some continuation contains one of its "
    "communications; schedulers that forever avoid that continuation are not "
    "counted as locks"
)


def _plays_at(g: GlobalGraph, node_id: int) -> frozenset[str]:
    return g.cached(("plays", node_id), lambda: _collect_plays(g, node_id))


def _collect_plays(g: GlobalGraph, node_id: int) -> frozenset[str]:
    seen = {node_id}
    todo = [node_id]
    out = set()
    while todo:
        n = g.nodes[todo.pop()]
        if n.kind == COMM:
            out.add(n.sender)
            out.add(n.receiver)
            for _, t in n.branches:
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
    return frozenset(out)


def plays_global(g: GlobalGraph) -> frozenset[str]:
    """All participants occurring in the (paths of the) global type."""
    return _plays_at(g, g.root)


def _depth_at(g: GlobalGraph, start: int, p: str) -> int | float:
    if p not in _plays_at(g, start):
        return 0
    # Walk the region reachable without touching p.  An End node or a cycle
    # inside the region means some path avoids p forever.
    color: dict[int, int] = {}  # 1 = on stack, 2 = done
    best: dict[int, int | float] = {}

    def visit(i: int) -> int | float:
        node = g.nodes[i]
        if node.kind != COMM:
            return math.inf  # terminated without meeting p
        if p in (node.sender, node.receiver):
            return 1
        if color.get(i) == 1:
            return math.inf  # p-avoiding cycle
        if color.get(i) == 2:
            return best[i]
        color[i] = 1
        worst: int | float = 0
        for _, t in node.branches:
            sub = visit(t)
            worst = max(worst, math.inf if sub is math.inf else 1 + sub)
        color[i] = 2
        best[i] = worst
        return worst

    return visit(start)


def depth(g: GlobalGraph, p: str) -> int | float:
    """Depth of p in g: 0 when absent, the longest wait otherwise, inf if
    some path never involves p."""
    return _depth_at(g, g.root, p)


@dataclass(frozen=True)
class BoundednessVerdict:
    holds: bool
    witness_node: int | None = None
    witness_participant: str | None = None

    def __bool__(self) -> bool:
        return self.holds


def bounded(g: GlobalGraph) -> BoundednessVerdict:
    """True iff every participant of every subterm has finite depth there.

    Depth of p at a node is infinite exactly when p plays below the node (some
    path from it meets p) and some path from it avoids p forever, to End or
    around a cycle.  So one pass per participant p over the nodes reachable
    from the root decides every node at once: a backward closure from the
    nodes where p is sender or receiver gives where p plays, and a count-down
    over the same predecessor lists (a node is settled once each of its
    branches leads to a settled node or to p) gives the nodes whose every
    p-avoiding path meets p.  A node in the first set and not in the second is
    a witness; the verdict names the least such node, then the least
    participant.  O(P * (N + E)) for P participants, N nodes and E branches.
    Kept on g.
    """
    return g.cached("bounded", lambda: _bounded(g))


def _bounded(g: GlobalGraph) -> BoundednessVerdict:
    reachable = [g.root]  # grows while it is read
    preds: dict[int, list[int]] = {}  # one entry per branch into the node
    for i in reachable:
        for _, t in g.nodes[i].branches:
            if t not in preds:
                preds[t] = []
                if t != g.root:
                    reachable.append(t)
            preds[t].append(i)
    meets: dict[str, list[int]] = {}
    for i in reachable:
        node = g.nodes[i]
        if node.kind == COMM:
            meets.setdefault(node.sender, []).append(i)
            meets.setdefault(node.receiver, []).append(i)
    witnesses = []  # (least witness node, p) per participant p that has one
    for p in meets:
        plays = set(meets[p])
        todo = list(plays)
        while todo:
            for i in preds.get(todo.pop(), ()):
                if i not in plays:
                    plays.add(i)
                    todo.append(i)
        settled = set(meets[p])
        waiting = {i: len(g.nodes[i].branches) for i in plays}
        todo = list(settled)
        while todo:
            for i in preds.get(todo.pop(), ()):
                if i not in settled:
                    waiting[i] -= 1
                    if waiting[i] == 0:
                        settled.add(i)
                        todo.append(i)
        unsettled = plays - settled
        if unsettled:
            witnesses.append((min(unsettled), p))
    if not witnesses:
        return BoundednessVerdict(True)
    return BoundednessVerdict(False, *min(witnesses))


def top_partner(s: Session, p: str) -> str | None:
    """The participant addressed at the root of p's process, if p is active."""
    g = s.get(p)
    return None if g is None else g.root_node.partner  # an end node has none


# ---------------------------------------------------------------------------
# Liveness.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LivenessVerdict:
    prop: str  # "lock-freedom" or "deadlock-freedom"
    ignored: frozenset[str]
    holds: bool
    witness_state: int | None = None
    witness_session: Session | None = None
    witness_participant: str | None = None
    witness_trace: Trace | None = None  # how to reach the witness state
    note: str | None = None

    def __bool__(self) -> bool:
        return self.holds

    def to_json_dict(self) -> dict:
        from .frontend import format_session

        out: dict = {
            "property": self.prop,
            "ignored": sorted(self.ignored),
            "holds": self.holds,
        }
        if self.holds:
            out["witness"] = None
        else:
            out["witness"] = {
                "state": self.witness_state,
                "session": format_session(self.witness_session),
                "participant": self.witness_participant,
                "trace": [str(lab) for lab in self.witness_trace.labels],
            }
        if self.note:
            out["note"] = self.note
        return out


def _states_reaching(graph: StateGraph, seeds: set[int]) -> set[int]:
    """The seeds and the states with a path into them."""
    reach = set(seeds)
    todo = list(seeds)
    while todo:
        for i in graph.predecessors(todo.pop()):
            if i not in reach:
                reach.add(i)
                todo.append(i)
    return reach


def excluded_lock_free(
    s: Session,
    ignored: frozenset[str] | set[str] = frozenset(),
    config: ExploreConfig = ExploreConfig(),
    graph: StateGraph | None = None,
) -> LivenessVerdict:
    """Exact decision of excluded lock-freedom on the reachable-state graph.

    Fails on the first (in BFS order) reachable state holding an active,
    non-ignored participant from which no continuation involves it.
    """
    ignored = frozenset(ignored)
    if graph is None:
        graph = explore(s, config)
    involving: defaultdict[str, set[int]] = defaultdict(set)  # p -> sources of edges involving p
    for i, lab, _ in graph.edges:
        involving[lab.sender].add(i)
        involving[lab.receiver].add(i)
    live: dict[str, set[int]] = {}  # p -> states some path from which involves p
    for i, state in enumerate(graph.states):
        for p in sorted(participants(state) - ignored):
            if p not in live:
                live[p] = _states_reaching(graph, involving[p])
            if i not in live[p]:
                return LivenessVerdict(
                    "lock-freedom",
                    ignored,
                    False,
                    i,
                    state,
                    p,
                    graph.path_to(i),
                    LOCKFREEDOM_NOTE,
                )
    return LivenessVerdict("lock-freedom", ignored, True, note=LOCKFREEDOM_NOTE)


def excluded_deadlock_free(
    s: Session,
    ignored: frozenset[str] | set[str] = frozenset(),
    config: ExploreConfig = ExploreConfig(),
    graph: StateGraph | None = None,
) -> LivenessVerdict:
    """Every stuck reachable state may hold only ignored participants."""
    ignored = frozenset(ignored)
    if graph is None:
        graph = explore(s, config)
    for i in graph.terminal_states():
        stuck = sorted(participants(graph.states[i]) - ignored)
        if stuck:
            return LivenessVerdict(
                "deadlock-freedom", ignored, False, i, graph.states[i], stuck[0], graph.path_to(i)
            )
    return LivenessVerdict("deadlock-freedom", ignored, True)
