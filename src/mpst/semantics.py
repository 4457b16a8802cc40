"""Synchronous operational semantics for sessions and global types.

Session steps: a sender whose whole label set is accepted by the matching
receiver hands over one message and both move to the chosen continuations;
nobody else changes.  Global steps: a root communication fires directly, or a
communication between two roles untouched by the root choice fires inside
every branch at once.  A step is one count-down (_settle), as boundedness,
depth and lock-freedom in analysis are.

A SessionSpace numbers the sessions reachable from one start by Comm and
Weak steps, so that explore, inference, the checker and meta walk small
ints and build a Session only for what they report.  It is the one place the
session step is taken; session_transitions is a view of it on sessions.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import combinations, groupby
from typing import Iterable, Iterator, Sequence

from .terms import (
    COMM,
    END,
    GlobalGraph,
    IN,
    OUT,
    ProcessGraph,
    Session,
    _Ordered,
    _Value,
    _canonical_forms,
    _derived_session,
    _make,
    _predecessors,
    minimize_global,
    normalize_session,
    participants,
)


class CommLabel(_Ordered):
    __slots__ = ("sender", "message", "receiver")

    def __init__(self, sender: str, message: str, receiver: str) -> None:
        if sender == receiver:
            raise ValueError("sender and receiver must differ")
        self._set(sender, message, receiver)

    @property
    def plays(self) -> frozenset[str]:
        return frozenset((self.sender, self.receiver))

    def __str__(self) -> str:
        return f"{self.sender} {self.message} {self.receiver}"


class Trace(_Value):
    __slots__ = ("labels",)

    def __init__(self, labels: tuple[CommLabel, ...] = ()) -> None:
        self._set(labels)


class StateLimitExceeded(Exception):
    def __init__(self, limit: int, kind: str = "state"):
        super().__init__(f"{kind} limit of {limit} exceeded during exploration")
        self.limit = limit


class ExploreConfig(_Value):
    __slots__ = ("max_states", "max_edges")

    def __init__(self, max_states: int = 1_000_000, max_edges: int = 4_000_000) -> None:
        self._set(max_states, max_edges)


class StateGraph(_Value):
    """Finite closure of the session step relation, states deduplicated: a
    tuple of sessions, or explore's view of state ids, built when read."""

    __slots__ = ("states", "edges", "initial", "__dict__")  # a __dict__ for the cached indexes

    def __init__(
        self, states: Sequence[Session], edges: tuple[tuple[int, CommLabel, int], ...], initial: int = 0
    ) -> None:
        self._set(states, edges, initial)

    @cached_property
    def _successor_index(self) -> list[list[tuple[CommLabel, int]]]:
        index: list[list[tuple[CommLabel, int]]] = [[] for _ in range(len(self.states))]
        for i, lab, j in self.edges:
            index[i].append((lab, j))
        return index

    @cached_property
    def _predecessor_index(self) -> list[tuple[int, ...]]:
        index: list[list[int]] = [[] for _ in range(len(self.states))]
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

    def plays(self, i: int) -> frozenset[str]:
        """The active participants of state i."""
        states = self.states
        return states.space.plays(states.ids[i]) if isinstance(states, _States) else participants(states[i])

    def texts(self) -> list[str]:
        """The format_session text of every state, in order."""
        from .frontend import format_session

        states = self.states
        if isinstance(states, _States):
            return [states.space.text(s) for s in states.ids]
        return [*map(format_session, states)]

    def path_to(self, state: int) -> Trace:
        """A shortest label sequence from the initial state to the given one."""
        parent: dict[int, tuple[int, CommLabel] | None] = {self.initial: None}
        queue = deque([self.initial])
        while queue:
            i = queue.popleft()
            if i == state:
                labels = []
                while parent[i] is not None:
                    i, lab = parent[i]
                    labels.append(lab)
                return Trace(tuple(reversed(labels)))
            for lab, j in self._successor_index[i]:
                if j not in parent:
                    parent[j] = (i, lab)
                    queue.append(j)
        raise ValueError(f"state {state} unreachable from the initial state")

    def to_json_dict(self) -> dict:
        edges = [{"from": i, "label": str(lab), "to": j} for i, lab, j in self.edges]
        return {"states": self.texts(), "edges": edges, "initial": self.initial}

    def to_dot(self) -> str:
        lines = ["digraph session_states {", "  rankdir=LR;"]
        for i, text in enumerate(self.texts()):
            shape = "doublecircle" if i == self.initial else "circle"
            text = text.replace('"', '\\"')
            lines.append(f'  s{i} [shape={shape}, label="{i}: {text}"];')
        for i, lab, j in self.edges:
            lines.append(f'  s{i} -> s{j} [label="{lab}"];')
        lines.append("}")
        return "\n".join(lines)


class _States(Sequence):
    """A SessionSpace's states by id, as sessions, equal to the same sessions."""

    def __init__(self, space: "SessionSpace", ids: list[int]) -> None:
        self.space, self.ids = space, ids

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, k: int) -> Session:
        return self.space.session(self.ids[k])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


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


def subsets(pool: Iterable[str]) -> Iterator[frozenset[str]]:
    """All subsets of pool, smallest first, then lexicographic."""
    pool = sorted(pool)
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            yield frozenset(combo)


class SessionSpace:
    """The sessions reachable from one start by Comm and Weak, as small ints.

    The space keeps the canonical graph of each of the start's participants,
    in its order, and a state is the vector of their node ids, with -1 for
    one that has terminated or been split off: the normal form, as
    normalize_session drops exactly those.  The nodes of a canonical graph
    are pairwise non-bisimilar, so a node id names one process.  Vectors get
    state ids in the order met, the start first.  What the Comm rule needs
    (side condition, labels, node ids after each label) is read off the two
    nodes once per (sender index, sender node, receiver node) and kept in a
    move table; the sender is in the key because the receiver accepts one
    sender by name.  Every layer steps sessions here; the tests check it
    against a walk over sessions of their own.
    """

    def __init__(self, start: Session):
        start = normalize_session(start)
        self.names = tuple(p for p, _ in start.bindings)
        self._index = {p: k for k, p in enumerate(self.names)}
        self._graphs = tuple(g for _, g in start.bindings)
        self._ready: dict[tuple[int, int, int], tuple[tuple[CommLabel, int, int], ...]] = {}
        self.vectors: list[tuple[int, ...]] = []
        self._ids: dict[tuple[int, ...], int] = {}
        self._plays: dict[int, frozenset[str]] = {}
        self._comms: dict[int, tuple] = {}
        self._sessions: dict[int, Session] = {}
        self._texts: dict[tuple[int, int, int], tuple[str, list[str]]] = {}
        self.start = self._state(tuple(g.root for g in self._graphs))

    def _state(self, vector: tuple[int, ...]) -> int:
        s = self._ids.setdefault(vector, len(self.vectors))
        if s == len(self.vectors):
            self.vectors.append(vector)
        return s

    def _move_table(self, i: int, np: int, nq: int) -> tuple[tuple[CommLabel, int, int], ...]:
        """The move table entry of sender index i at send node np and its
        partner at node nq, which the caller missed in _ready: (label, node
        ids after it) per message when the Comm side condition holds, none
        otherwise.  The condition: the partner receives from i and accepts
        every label i may send."""
        p, pg = self.names[i], self._graphs[i]
        node = pg.nodes[np]
        qg = self._graphs[self._index[node.partner]]
        qnode, after = qg.nodes[nq], dict(qg.nodes[nq].branches)
        ready = qnode.kind == IN and qnode.partner == p and all(h in after for h in node.labels())
        moves = self._ready[i, np, nq] = tuple(
            (CommLabel(p, h, node.partner), _live(pg, t), _live(qg, after[h])) for h, t in node.branches
        ) if ready else ()
        return moves

    def plays(self, s: int) -> frozenset[str]:
        """The active participants of state s, none when s is null."""
        out = self._plays.get(s)
        if out is None:
            out = self._plays[s] = frozenset(p for p, n in zip(self.names, self.vectors[s]) if n >= 0)
        return out

    def node(self, s: int, p: str):
        """The node of participant p in state s, None when p is not active."""
        i = self._index.get(p)
        n = -1 if i is None else self.vectors[s][i]
        return None if n < 0 else self._graphs[i].nodes[n]

    def transitions(self, s: int) -> list[tuple[CommLabel, int]]:
        """The Comm edges of state s as (label, successor id): one per ready
        pair and message, in the order of the senders, so the edges of one
        sender are adjacent."""
        vector, ids, vectors = self.vectors[s], self._ids, self.vectors
        out = []
        for i, np in enumerate(vector):
            if np < 0 or (node := self._graphs[i].nodes[np]).kind != OUT:
                continue
            j = self._index.get(node.partner)
            if j is None or vector[j] < 0:
                continue
            nq = vector[j]
            moves = self._ready.get((i, np, nq))
            if moves is None:
                moves = self._move_table(i, np, nq)
            for lab, np2, nq2 in moves:
                after = list(vector)
                after[i], after[j] = np2, nq2
                after = tuple(after)
                t = ids.setdefault(after, len(vectors))  # _state, inlined in the hot loop
                if t == len(vectors):
                    vectors.append(after)
                out.append((lab, t))
        return out

    def moves(self, s: int, p: str, q: str) -> list[tuple[CommLabel, int]]:
        """The Comm edges of state s on the pair p -> q alone: its group of
        comms(s), none when the pair is not ready."""
        return next((list(e) for e in self.comms(s) if (e[0][0].sender, e[0][0].receiver) == (p, q)), [])

    def comms(self, s: int) -> tuple[tuple[tuple[CommLabel, int], ...], ...]:
        """The transitions of s grouped by ready pair, in the order of the
        sender, one (label, successor id) per message; computed once."""
        out = self._comms.get(s)
        if out is None:
            by_sender = groupby(self.transitions(s), lambda edge: edge[0].sender)
            out = self._comms[s] = tuple(tuple(edges) for _, edges in by_sender)
        return out

    def without(self, s: int, names: frozenset[str]) -> int:
        """The id of the state left when the participants names are split off
        state s, as a Weak step does."""
        return self._state(tuple(-1 if p in names else n for p, n in zip(self.names, self.vectors[s])))

    def session(self, s: int) -> Session:
        """The normal session of state s, built once: a binding is the subgraph
        of its participant's graph at its node, which the graph keeps."""
        m = self._sessions.get(s)
        if m is None:
            graphs = zip(self.names, self._graphs, self.vectors[s])
            m = self._sessions[s] = _derived_session(tuple((p, g._subgraph(n)) for p, g, n in graphs if n >= 0))
        return m

    def text(self, s: int) -> str:
        """format_session of state s, from binding texts kept per (participant, node, position)."""
        from .frontend import _binding_text, _join_bindings

        texts, live = self._texts, [(i, n) for i, n in enumerate(self.vectors[s]) if n >= 0]
        for k, (i, n) in enumerate(live):
            if (i, n, k) not in texts:
                texts[i, n, k] = _binding_text(self.names[i], self._graphs[i]._subgraph(n), k)
        return _join_bindings([texts[i, n, k] for k, (i, n) in enumerate(live)])


def _live(g: ProcessGraph, n: int) -> int:
    """Node n of g as a state vector holds it: -1 when it has terminated."""
    return -1 if g.nodes[n].kind == END else n


def session_transitions(s: Session) -> list[tuple[CommLabel, Session]]:
    """All enabled single steps of a session, with canonical successors."""
    space = SessionSpace(s)
    return [(lab, space.session(t)) for lab, t in space.transitions(space.start)]


def explore(s: Session, config: ExploreConfig = ExploreConfig()) -> StateGraph:
    """The closure of the Comm steps from a canonical start, walked on the
    state ids of one SessionSpace: the state numbering, edge order and
    budget point are those of a breadth-first walk on sessions."""
    space = SessionSpace(s)
    ids, edges = closure(space.start, space.transitions, config)
    return StateGraph(_States(space, ids), tuple(edges), 0)


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


def _settle(
    preds: dict[int, list[int]] | list[tuple[int, ...]], seeds: Iterable[int], waits: dict[int, int]
) -> list[int]:
    """The nodes that settle, in order: the seeds, then each node i of waits
    once waits[i] of its edges lead to settled nodes; waits is used up.
    preds[i] lists the sources of the edges into i, one per edge (a global
    type's _predecessors, a state graph's predecessor index); with every
    wait 1 the order is the seeds and all that reach them.  The least model
    of those rules (Dowling and Gallier 1984): a node that only a cycle
    through it would settle never does.  O(N + E) over preds."""
    order = list(seeds)
    settled = set(order)
    for i in order:  # grows while it is read
        for j in preds[i]:
            if j not in settled and j in waits:
                waits[j] -= 1
                if not waits[j]:
                    settled.add(j)
                    order.append(j)
    return order


def global_successor(g: GlobalGraph, label: CommLabel) -> GlobalGraph | None:
    """The global type after one step with the given label, or None.

    Least fixpoint over the nodes of g's canonical form: a node steps when
    the label fires at its root, to that branch's target, or when its roles
    are disjoint from the label's and every branch has stepped, to a copy of
    it over the stepped branches.  One count-down from the nodes where the
    label fires decides it.  Cyclic dependencies never step: they would
    require an infinite derivation.  The nodes of a canonical graph are
    pairwise non-bisimilar and a copy points only at nodes settled before
    it, so a copy equal in value to a known node is that node, and a new one
    is no other: the result is renumbered from its root, never refined.
    """
    g = minimize_global(g)
    nodes, plays = g.nodes, label.plays
    fires: dict[int, int] = {}  # node where the label fires -> that branch's target
    waits: dict[int, int] = {}  # node that steps once its branches have -> their count
    for i in _predecessors(g):
        node = nodes[i]
        if node.sender == label.sender and node.receiver == label.receiver:
            fires.update((i, t) for lab, t in node.branches if lab == label.message)
        elif node.kind == COMM and node.sender not in plays and node.receiver not in plays:
            waits[i] = len(node.branches)
    stepped, out = dict(fires), list(nodes)
    ids = {node: i for i, node in enumerate(nodes)}
    for i in _settle(_predecessors(g), fires, waits)[len(fires):]:
        copy = nodes[i].rebranch(tuple((lab, stepped[t]) for lab, t in nodes[i].branches))
        stepped[i] = k = ids.setdefault(copy, len(out))
        if k == len(out):
            out.append(copy)
    if g.root not in stepped:
        return None
    # the copies keep the validated shapes of g's nodes and point into out
    return _canonical_forms(_make(GlobalGraph, tuple(out), g.root), refine=False)(stepped[g.root])


def global_transitions(g: GlobalGraph) -> list[tuple[CommLabel, GlobalGraph]]:
    """All single steps of a global type, in label order."""
    out = []
    for label in _candidate_labels(g):
        succ = global_successor(g, label)
        if succ is not None:
            out.append((label, succ))
    return out
