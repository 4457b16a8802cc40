"""Synchronous operational semantics for sessions and global types.

Session steps: a sender whose whole label set is accepted by the matching
receiver hands over one message and both move to the chosen continuations;
nobody else changes.  Global steps: a root communication fires directly, or a
communication between two roles untouched by the root choice fires inside
every branch at once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .terms import (
    COMM,
    GNode,
    GlobalGraph,
    IN,
    OUT,
    PNode,
    ProcessGraph,
    Session,
    _derived_session,
    minimize_global,
    normalize_session,
)


@dataclass(frozen=True, order=True)
class CommLabel:
    sender: str
    message: str
    receiver: str

    def __post_init__(self) -> None:
        if self.sender == self.receiver:
            raise ValueError("sender and receiver must differ")

    @property
    def plays(self) -> frozenset[str]:
        return frozenset((self.sender, self.receiver))

    def __str__(self) -> str:
        return f"{self.sender} {self.message} {self.receiver}"


@dataclass(frozen=True)
class Trace:
    labels: tuple[CommLabel, ...] = ()

    @property
    def plays(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for lab in self.labels:
            out |= lab.plays
        return out

    def __len__(self) -> int:
        return len(self.labels)


class StateLimitExceeded(Exception):
    def __init__(self, limit: int, kind: str = "state"):
        super().__init__(f"{kind} limit of {limit} exceeded during exploration")
        self.limit = limit


@dataclass(frozen=True)
class ExploreConfig:
    max_states: int = 1_000_000
    max_edges: int = 4_000_000


def _comm_enabled(p: str, node: PNode, qnode: PNode) -> bool:
    """The Comm side condition on p's root node and its partner's.

    p sends, its partner receives from p, and every label p may send is one
    the partner accepts.  The partner is found by name, so the caller passes
    the root node of the process bound to ``node.partner``.
    """
    return (
        node.kind == OUT
        and qnode.kind == IN
        and qnode.partner == p
        and set(node.labels()) <= set(qnode.labels())
    )


def ready_pairs(m: Session) -> Iterator[tuple[str, str, tuple[str, ...]]]:
    """(p, q, labels) for every p sending labels to q that q can all receive.

    These are the pairs the Comm rule can fire on, in the order of p.
    """
    for p, gp in m.items():
        node = gp.root_node
        if node.kind != OUT:
            continue
        gq = m.get(node.partner)
        if gq is not None and _comm_enabled(p, node, gq.root_node):
            yield p, node.partner, node.labels()


def communicate(m: Session, p: str, q: str, label: str) -> Session:
    """The normal session after p sends label to q; nobody else moves."""
    return normalize_session(m.replace(p, m.get(p).step(label)).replace(q, m.get(q).step(label)))


def session_transitions(s: Session) -> list[tuple[CommLabel, Session]]:
    """All enabled single steps of a session, with canonical successors.

    One entry per ready pair (p, q) and message h that p may send.
    """
    s = normalize_session(s)
    return [
        (CommLabel(p, h, q), communicate(s, p, q, h))
        for p, q, labels in ready_pairs(s)
        for h in labels
    ]


def reduce(s: Session, label: CommLabel) -> Session | None:
    """The unique successor of s under the given label, or None if disabled."""
    return dict(session_transitions(s)).get(label)


@dataclass(frozen=True)
class StateGraph:
    """Finite closure of the session step relation, states deduplicated."""

    states: tuple[Session, ...]
    edges: tuple[tuple[int, CommLabel, int], ...]
    initial: int = 0

    @cached_property
    def _successor_index(self) -> list[list[tuple[CommLabel, int]]]:
        index: list[list[tuple[CommLabel, int]]] = [[] for _ in self.states]
        for i, lab, j in self.edges:
            index[i].append((lab, j))
        return index

    @cached_property
    def _predecessor_index(self) -> list[tuple[int, ...]]:
        index: list[list[int]] = [[] for _ in self.states]
        for i, _, j in self.edges:
            index[j].append(i)
        return [tuple(sources) for sources in index]

    def successors(self, state: int) -> list[tuple[CommLabel, int]]:
        return list(self._successor_index[state])

    def predecessors(self, state: int) -> tuple[int, ...]:
        """The sources of the edges into state, one per edge, in edge order."""
        return self._predecessor_index[state]

    def terminal_states(self) -> list[int]:
        sources = {i for i, _, _ in self.edges}
        return [i for i in range(len(self.states)) if i not in sources]

    def path_to(self, state: int) -> Trace:
        """A shortest label sequence from the initial state to the given one."""
        best: dict[int, tuple[CommLabel, ...]] = {self.initial: ()}
        queue = deque([self.initial])
        while queue:
            i = queue.popleft()
            if i == state:
                return Trace(best[i])
            for lab, j in self._successor_index[i]:
                if j not in best:
                    best[j] = best[i] + (lab,)
                    queue.append(j)
        raise ValueError(f"state {state} unreachable from the initial state")

    def to_json_dict(self) -> dict:
        from .frontend import format_session

        return {
            "states": [format_session(st) for st in self.states],
            "edges": [
                {"from": i, "label": str(lab), "to": j} for i, lab, j in self.edges
            ],
            "initial": self.initial,
        }

    def to_dot(self) -> str:
        from .frontend import format_session

        lines = ["digraph session_states {", "  rankdir=LR;"]
        for i, st in enumerate(self.states):
            shape = "doublecircle" if i == self.initial else "circle"
            text = format_session(st).replace('"', '\\"')
            lines.append(f'  s{i} [shape={shape}, label="{i}: {text}"];')
        for i, lab, j in self.edges:
            lines.append(f'  s{i} -> s{j} [label="{lab}"];')
        lines.append("}")
        return "\n".join(lines)


def closure(start, successors, config: ExploreConfig = ExploreConfig()) -> tuple[list, list]:
    """Breadth-first closure of successors from start, within config's budget.

    successors(state) gives (label, state) pairs.  Returns the states in the
    order found, start first, and the (i, label, j) edges between them.
    """
    ids = {start: 0}
    states = [start]
    edges = []
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for lab, succ in successors(states[i]):
            j = ids.get(succ)
            if j is None:
                if len(states) >= config.max_states:
                    raise StateLimitExceeded(config.max_states, "state")
                j = len(states)
                ids[succ] = j
                states.append(succ)
                queue.append(j)
            if len(edges) >= config.max_edges:
                raise StateLimitExceeded(config.max_edges, "edge")
            edges.append((i, lab, j))
    return states, edges


def explore(s: Session, config: ExploreConfig = ExploreConfig()) -> StateGraph:
    """The closure of session_transitions from a canonical start.

    The walk runs on state vectors, not sessions.  Each distinct process
    graph met gets a small id, and a state is the tuple of the ids of the
    start session's participants, in its order, with -1 for a terminated
    one.  Three tables, all local to the call, make the work per distinct
    term instead of per transition:

    * ``step`` maps (graph id, label) to the id of the graph after that
      label, so ``ProcessGraph.step`` runs once per distinct pair;
    * ``ready`` maps (sender index, sender graph id, receiver graph id) to
      the labels the Comm rule can fire on, () when it cannot; the sender
      is part of the key because the receiver accepts one sender by name;
    * ``labels`` holds one CommLabel per (sender index, label, receiver
      index).

    closure gives the same state numbering, edge order and budget point as
    on sessions, and one normal Session is built per state at the end.
    """
    start = normalize_session(s)
    names = [p for p, _ in start.bindings]
    index = {p: k for k, p in enumerate(names)}
    graphs: list[ProcessGraph] = []
    ids: dict[ProcessGraph, int] = {}

    def intern(g: ProcessGraph) -> int:
        if g.is_end:
            return -1
        gid = ids.get(g)
        if gid is None:
            gid = ids[g] = len(graphs)
            graphs.append(g)
        return gid

    step: dict[tuple[int, str], int] = {}
    ready: dict[tuple[int, int, int], tuple[str, ...]] = {}
    labels: dict[tuple[int, str, int], CommLabel] = {}

    def stepped(gid: int, h: str) -> int:
        nxt = step.get((gid, h))
        if nxt is None:
            nxt = step[gid, h] = intern(graphs[gid].step(h))
        return nxt

    def successors(state: tuple[int, ...]) -> list[tuple[CommLabel, tuple[int, ...]]]:
        out = []
        for i, gp in enumerate(state):
            if gp < 0:
                continue
            node = graphs[gp].root_node
            if node.kind != OUT:
                continue
            j = index.get(node.partner)
            if j is None or state[j] < 0:
                continue
            gq = state[j]
            hs = ready.get((i, gp, gq))
            if hs is None:
                enabled = _comm_enabled(names[i], node, graphs[gq].root_node)
                hs = ready[i, gp, gq] = node.labels() if enabled else ()
            for h in hs:
                lab = labels.get((i, h, j))
                if lab is None:
                    lab = labels[i, h, j] = CommLabel(names[i], h, names[j])
                succ = list(state)
                succ[i] = stepped(gp, h)
                succ[j] = stepped(gq, h)
                out.append((lab, tuple(succ)))
        return out

    vectors, edges = closure(tuple(intern(g) for _, g in start.bindings), successors, config)
    states = tuple(
        _derived_session(tuple((names[k], graphs[gid]) for k, gid in enumerate(v) if gid >= 0), True)
        for v in vectors
    )
    return StateGraph(states, tuple(edges), 0)


# ---------------------------------------------------------------------------
# Global-type transitions.
# ---------------------------------------------------------------------------


def _candidate_labels(g: GlobalGraph) -> list[CommLabel]:
    labels = set()
    for node in g.nodes:
        if node.kind == COMM:
            for lab, _ in node.branches:
                labels.add(CommLabel(node.sender, lab, node.receiver))
    return sorted(labels)


def _direct_branch(node: GNode, label: CommLabel) -> int | None:
    """Target of the root-fire rule at this node, if it applies."""
    if node.kind != COMM:
        return None
    if node.sender != label.sender or node.receiver != label.receiver:
        return None
    for lab, tgt in node.branches:
        if lab == label.message:
            return tgt
    return None


def global_successor(g: GlobalGraph, label: CommLabel) -> GlobalGraph | None:
    """The global type after one step with the given label, or None.

    Least fixpoint over the nodes of g: a node steps when the label fires at
    its root, to that branch's target, or when its roles are disjoint from
    the label's and every branch has stepped, to a copy of it over the
    stepped branches, appended after the nodes of g.  Cyclic dependencies
    never step: they would require an infinite derivation.
    """
    nodes = list(g.nodes)
    stepped: dict[int, int] = {}  # node of g -> its successor in nodes
    changed = True
    while changed:
        changed = False
        for i, node in enumerate(g.nodes):
            if i in stepped or node.kind != COMM:
                continue
            tgt = _direct_branch(node, label)
            if tgt is None and not ({node.sender, node.receiver} & label.plays) and all(
                t in stepped for _, t in node.branches
            ):
                tgt = len(nodes)
                nodes.append(node.rebranch(tuple((lab, stepped[t]) for lab, t in node.branches)))
            if tgt is not None:
                stepped[i] = tgt
                changed = True
    if g.root not in stepped:
        return None
    return minimize_global(GlobalGraph(tuple(nodes), stepped[g.root]))


def global_transitions(g: GlobalGraph) -> list[tuple[CommLabel, GlobalGraph]]:
    """All single steps of a global type, in label order."""
    out = []
    for label in _candidate_labels(g):
        succ = global_successor(g, label)
        if succ is not None:
            out.append((label, succ))
    return out
