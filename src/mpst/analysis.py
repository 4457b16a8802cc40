"""Boundedness of global types and excluded lock/deadlock-freedom of sessions.

Depth of a participant in a global type is the supremum, over all paths, of
the index of the first communication involving that participant; a path that
terminates or loops without ever involving the participant pushes the
supremum to infinity.  A global type is bounded when every participant of
every subterm has finite depth there.  Both are read off count-downs from
the nodes where the participant plays, over the predecessor index that the
global step uses too (semantics._settle), so neither recurses.

Liveness verdicts are decided exactly on the finite reachable-state graph.
A participant is locked in a state when no path from that state contains a
communication involving it: when the state is not in the count-down, every
wait 1, from the sources of the edges involving it.  Only the existence of
such a continuation is required: a verdict of "lock-free" does not promise
that every scheduler eventually takes it.
"""

from __future__ import annotations

import math
from collections import defaultdict

from .semantics import ExploreConfig, StateGraph, Trace, _settle, explore
from .terms import COMM, GlobalGraph, Session, _Value, _predecessors

# Fixed note attached to lock-freedom reports: the verdict follows the literal
# existential-continuation reading, which accepts sessions that a fairness
# argument would call locked (a branch may be postponed forever by a loop).
LOCKFREEDOM_NOTE = (
    "lock-freedom is decided with the existential reading: a participant is "
    "lock-free in a state when some continuation contains one of its "
    "communications; schedulers that forever avoid that continuation are not "
    "counted as locks"
)


def plays_global(g: GlobalGraph) -> frozenset[str]:
    """All participants occurring in the (paths of the) global type."""
    return _tables(g)[0][g.root]


def _meets(g: GlobalGraph) -> dict[str, list[int]]:
    """Each participant of g with the nodes the root reaches where it is
    sender or receiver."""
    meets: dict[str, list[int]] = {}
    for i in _predecessors(g):
        node = g.nodes[i]
        if node.kind == COMM:
            meets.setdefault(node.sender, []).append(i)
            meets.setdefault(node.receiver, []).append(i)
    return meets


def _settling(g: GlobalGraph, meets: list[int]) -> tuple[list[int], list[int]]:
    """Where p plays in g and where p has finite depth, as settle orders
    from meets, the nodes where p is sender or receiver: a node settles at
    one branch into the first (some path from it meets p), and at all of its
    branches into the second (every path from it meets p)."""
    preds = _predecessors(g)
    region = _settle(preds, meets, dict.fromkeys(preds, 1))
    return region, _settle(preds, meets, {i: len(g.nodes[i].branches) for i in region})


def depth(g: GlobalGraph, p: str) -> int | float:
    """Depth of p in g: 0 when absent, the longest wait otherwise, inf if
    some path never involves p.  Read off p's count-down, where every node
    settles after its branches: 1 where p plays, else one more than its
    deepest branch."""
    region, order = _settling(g, _meets(g).get(p, []))
    value: dict[int, int] = {}
    for i in order:
        node = g.nodes[i]
        value[i] = 1 if p in (node.sender, node.receiver) else 1 + max(value[t] for _, t in node.branches)
    if g.root in value:
        return value[g.root]
    return math.inf if g.root in region else 0


class BoundednessVerdict(_Value):
    __slots__ = ("holds", "witness_node", "witness_participant")

    def __init__(self, holds: bool, witness_node: int | None = None, witness_participant: str | None = None) -> None:
        self._set(holds, witness_node, witness_participant)

    def __bool__(self) -> bool:
        return self.holds


def bounded(g: GlobalGraph) -> BoundednessVerdict:
    """True iff every participant of every subterm has finite depth there.

    Depth of p at a node is infinite exactly when p plays below the node (some
    path from it meets p) and some path from it avoids p forever, to End or
    around a cycle.  So one pass per participant p over the nodes reachable
    from the root decides every node at once: where p plays and p's
    count-down are two settle orders over the same predecessor lists (see
    _settling), and a node in the first and not in the second is a witness.
    The verdict names the least such node, then the least participant.
    O(P * (N + E)) for P participants, N nodes and E branches.
    Kept on g.
    """
    return _tables(g)[2]


def _tables(g: GlobalGraph) -> tuple[dict[int, frozenset[str]], set[int], BoundednessVerdict]:
    """What _bounded computes, once per graph and kept on it."""
    return g.cached("bounded", lambda: _bounded(g))


def _bounded(g: GlobalGraph) -> tuple[dict[int, frozenset[str]], set[int], BoundednessVerdict]:
    """Per node the root of g reaches, who plays in its subterm and whether
    it is unbounded, which is whether it reaches a witness (a count-down
    from the witnesses, every wait 1); then the verdict of g."""
    preds = _predecessors(g)
    plays = dict.fromkeys(preds, frozenset())
    unbounded: set[int] = set()
    witnesses = []  # (least witness node, p) per participant p that has one
    for p, meets in _meets(g).items():
        region, order = _settling(g, meets)
        for i in region:
            plays[i] = plays[i] | {p}
        unsettled = set(region).difference(order)
        if unsettled:
            witnesses.append((min(unsettled), p))
            unbounded |= unsettled
    unbounded = set(_settle(preds, unbounded, dict.fromkeys(preds, 1)))
    return plays, unbounded, BoundednessVerdict(False, *min(witnesses)) if witnesses else BoundednessVerdict(True)


def top_partner(s: Session, p: str) -> str | None:
    """The participant addressed at the root of p's process, if p is active."""
    g = s.get(p)
    return None if g is None else g.root_node.partner  # an end node has none


# ---------------------------------------------------------------------------
# Liveness.
# ---------------------------------------------------------------------------


class LivenessVerdict(_Value):
    __slots__ = (
        "prop", "ignored", "holds", "witness_state", "witness_session", "witness_participant", "witness_trace", "note"
    )

    def __init__(
        self,
        prop: str,  # "lock-freedom" or "deadlock-freedom"
        ignored: frozenset[str],
        holds: bool,
        witness_state: int | None = None,
        witness_session: Session | None = None,
        witness_participant: str | None = None,
        witness_trace: Trace | None = None,  # how to reach the witness state
        note: str | None = None,
    ) -> None:
        self._set(prop, ignored, holds, witness_state, witness_session, witness_participant, witness_trace, note)

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
    preds, n = graph._predecessor_index, len(graph.states)
    live: dict[str, set[int]] = {}  # p -> states some path from which involves p
    for i in range(n):
        for p in sorted(graph.plays(i) - ignored):
            if p not in live:
                live[p] = set(_settle(preds, involving[p], dict.fromkeys(range(n), 1)))
            if i not in live[p]:
                witness = (i, graph.states[i], p, graph.path_to(i))
                return LivenessVerdict("lock-freedom", ignored, False, *witness, LOCKFREEDOM_NOTE)
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
        stuck = sorted(graph.plays(i) - ignored)
        if stuck:
            return LivenessVerdict("deadlock-freedom", ignored, False, i, graph.states[i], stuck[0], graph.path_to(i))
    return LivenessVerdict("deadlock-freedom", ignored, True)
