"""Synchronous operational semantics for sessions and global types.

Session steps: a sender whose whole label set is accepted by the matching
receiver hands over one message and both move to the chosen continuations;
nobody else changes.  Global steps: a root communication fires directly, or a
communication between two roles untouched by the root choice fires inside
every branch at once.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .terms import (
    COMM,
    END,
    GNode,
    GlobalGraph,
    IN,
    OUT,
    Session,
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


def ready_pairs(m: Session) -> Iterator[tuple[str, str, tuple[str, ...]]]:
    """(p, q, labels) for every p sending labels to q that q can all receive.

    These are the pairs the Comm rule can fire on, in the order of p.
    """
    for p, gp in m.items():
        node = gp.root_node
        if node.kind != OUT:
            continue
        q = node.partner
        gq = m.get(q)
        if gq is None:
            continue
        qnode = gq.root_node
        if qnode.kind == IN and qnode.partner == p and set(node.labels()) <= set(qnode.labels()):
            yield p, q, node.labels()


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
    for lab, succ in session_transitions(s):
        if lab == label:
            return succ
    return None


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

    def successors(self, state: int) -> list[tuple[CommLabel, int]]:
        return list(self._successor_index[state])

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

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


def explore(s: Session, config: ExploreConfig = ExploreConfig()) -> StateGraph:
    """Breadth-first closure of session_transitions from a canonical start."""
    start = normalize_session(s)
    ids: dict[Session, int] = {start: 0}
    states: list[Session] = [start]
    edges: list[tuple[int, CommLabel, int]] = []
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for lab, succ in session_transitions(states[i]):
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
    return StateGraph(tuple(states), tuple(edges), 0)


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


def _enabled_nodes(g: GlobalGraph, label: CommLabel) -> set[int]:
    """Least set of nodes at which the label can fire.

    A node joins the set either because the label matches its own root
    communication, or because its roles are disjoint from the label's and the
    label is already enabled in every branch.  Cyclic dependencies never join:
    they would require an infinite derivation.
    """
    enabled: set[int] = set()
    changed = True
    while changed:
        changed = False
        for i, node in enumerate(g.nodes):
            if i in enabled or node.kind != COMM:
                continue
            if _direct_branch(node, label) is not None:
                enabled.add(i)
                changed = True
            elif not ({node.sender, node.receiver} & set(label.plays)) and all(
                t in enabled for _, t in node.branches
            ):
                enabled.add(i)
                changed = True
    return enabled


def global_successor(g: GlobalGraph, label: CommLabel) -> GlobalGraph | None:
    """The global type after one step with the given label, or None."""
    enabled = _enabled_nodes(g, label)
    if g.root not in enabled:
        return None

    # New graph over keys: ("succ", i) for rebuilt nodes, ("orig", i) for
    # untouched subgraphs reached after the communication fired.
    key_ids: dict[tuple[str, int], int] = {}
    nodes: list[GNode | None] = []

    def key_id(key: tuple[str, int]) -> int:
        tag, i = key
        if tag == "succ":
            tgt = _direct_branch(g.nodes[i], label)
            if tgt is not None:
                return key_id(("orig", tgt))
        if key in key_ids:
            return key_ids[key]
        nid = len(nodes)
        key_ids[key] = nid
        nodes.append(None)
        node = g.nodes[i]
        if tag == "orig":
            if node.kind == END:
                nodes[nid] = GNode(END, None, None, ())
            else:
                branches = tuple(
                    (lab, key_id(("orig", t))) for lab, t in node.branches
                )
                nodes[nid] = GNode(COMM, node.sender, node.receiver, branches)
        else:
            branches = tuple((lab, key_id(("succ", t))) for lab, t in node.branches)
            nodes[nid] = GNode(COMM, node.sender, node.receiver, branches)
        return nid

    root = key_id(("succ", g.root))
    assert all(n is not None for n in nodes)
    return minimize_global(GlobalGraph(tuple(nodes), root))


def global_transitions(g: GlobalGraph) -> list[tuple[CommLabel, GlobalGraph]]:
    """All single steps of a global type, in label order."""
    out = []
    for label in _candidate_labels(g):
        succ = global_successor(g, label)
        if succ is not None:
            out.append((label, succ))
    return out
