"""Processes, sessions and global types as finite graphs over regular terms.

A regular (possibly infinite) term has finitely many distinct subterms, so it
is stored as a finite rooted graph.  Graphs are brought to a canonical form
(bisimulation-minimal, breadth-first numbered, branches sorted by label), which
makes equality of regular terms plain structural equality of the dataclasses.

Canonical forms are kept, not recomputed: every graph remembers its hash, its
canonical form and the subgraphs asked of it, and every session its normal
form.  Minimizing a canonical graph is O(1), and stepping one only renumbers
the nodes reachable from the new root.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Union

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

END = "end"
OUT = "!"
IN = "?"
COMM = "comm"


class TermError(Exception):
    """Base class for malformed process/session/global-type structures."""


class BadIdentifier(TermError):
    pass


class UndefinedName(TermError):
    pass


class UnguardedRecursion(TermError):
    pass


class DuplicateBranchLabel(TermError):
    pass


class EmptyChoice(TermError):
    pass


class DuplicateParticipant(TermError):
    pass


def check_ident(name: str, what: str = "identifier") -> str:
    if not isinstance(name, str) or not IDENT_RE.match(name):
        raise BadIdentifier(f"{what} {name!r} is not a valid identifier")
    return name


# ---------------------------------------------------------------------------
# Syntax trees for recursive equation systems (the input of the builders).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcEnd:
    pass


@dataclass(frozen=True)
class ProcRef:
    name: str


@dataclass(frozen=True)
class ProcComm:
    kind: str  # OUT or IN
    partner: str
    branches: tuple[tuple[str, "ProcExpr"], ...]


ProcExpr = Union[ProcEnd, ProcRef, ProcComm]


@dataclass(frozen=True)
class GlobalEnd:
    pass


@dataclass(frozen=True)
class GlobalRef:
    name: str


@dataclass(frozen=True)
class GlobalComm:
    sender: str
    receiver: str
    branches: tuple[tuple[str, "GlobalExpr"], ...]


GlobalExpr = Union[GlobalEnd, GlobalRef, GlobalComm]


# ---------------------------------------------------------------------------
# Graph nodes.
# ---------------------------------------------------------------------------


def _check_choice(labels: Sequence[str]) -> None:
    """A choice has at least one branch and distinct, valid labels."""
    if not labels:
        raise EmptyChoice("choice with no branches")
    seen = set()
    for lab in labels:
        check_ident(lab, "message label")
        if lab in seen:
            raise DuplicateBranchLabel(f"duplicate branch label {lab!r}")
        seen.add(lab)


@dataclass(frozen=True)
class PNode:
    """One process state: terminated, or a send/receive choice."""

    kind: str  # END, OUT or IN
    partner: str | None
    branches: tuple[tuple[str, int], ...]  # (label, successor), sorted by label

    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.branches)

    def signature(self) -> tuple:
        """Everything but the successors: what bisimilar states share."""
        return (self.kind, self.partner)

    def rebranch(self, branches: tuple[tuple[str, int], ...]) -> "PNode":
        return PNode(self.kind, self.partner, branches)

    def check(self) -> None:
        """The shape rules of a process state; successors are not looked at."""
        if self.kind == END:
            if self.partner is not None or self.branches:
                raise TermError("end node must carry no partner or branches")
        elif self.kind in (OUT, IN):
            check_ident(self.partner, "participant")
            _check_choice(self.labels())
        else:
            raise TermError(f"unknown process node kind {self.kind!r}")


@dataclass(frozen=True)
class GNode:
    """One global-type state: End, or a communication between two roles."""

    kind: str  # END or COMM
    sender: str | None
    receiver: str | None
    branches: tuple[tuple[str, int], ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.branches)

    def signature(self) -> tuple:
        return (self.kind, self.sender, self.receiver)

    def rebranch(self, branches: tuple[tuple[str, int], ...]) -> "GNode":
        return GNode(self.kind, self.sender, self.receiver, branches)

    def check(self) -> None:
        """The shape rules of a global-type state; successors are not looked at."""
        if self.kind == END:
            if self.sender is not None or self.branches:
                raise TermError("end node must carry no roles or branches")
        elif self.kind == COMM:
            check_ident(self.sender, "participant")
            check_ident(self.receiver, "participant")
            if self.sender == self.receiver:
                raise TermError(f"self-communication {self.sender!r}")
            _check_choice(self.labels())
        else:
            raise TermError(f"unknown global node kind {self.kind!r}")


class _Value:
    """Frozen value whose hash is computed once, on first use.

    Subclasses keep their fields and their memo in ``__slots__``.  Equality
    is structural, as for a dataclass, but tries identity and the hashes
    first.
    """

    __slots__ = ("_hash",)

    def _key(self) -> tuple:
        raise NotImplementedError

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
            return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return hash(self) == hash(other) and self._key() == other._key()

    def __reduce__(self):
        # Copies and pickles go through the validating constructor.
        return (self.__class__, self._key())


def _make(cls, *fields, **memo):
    """An instance built from already-validated parts, without re-validating."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, fields):
        object.__setattr__(obj, name, value)
    for name, value in memo.items():
        object.__setattr__(obj, name, value)
    return obj


class _Graph(_Value):
    """What ProcessGraph and GlobalGraph share: canonical forms and memos.

    A graph computes its canonical form once and keeps it in ``_canon``
    (``None`` when the graph is canonical itself, so that a canonical graph
    holds no reference to itself there).  Subgraphs and analysis results are
    kept in ``_memo``, see ``cached``.  All of it lives and dies with the
    graph: no table outside it keeps a term alive.
    """

    __slots__ = ("_canon", "_memo")

    def __post_init__(self) -> None:
        n = len(self.nodes)
        if not (0 <= self.root < n):
            raise TermError("root out of range")
        for node in self.nodes:
            node.check()
            for _, tgt in node.branches:
                if not (0 <= tgt < n):
                    raise TermError(f"branch target {tgt} out of range")

    def _key(self) -> tuple:
        return (self.nodes, self.root)

    @property
    def root_node(self):
        return self.nodes[self.root]

    @property
    def is_end(self) -> bool:
        return self.root_node.kind == END

    def _canonical(self):
        """The canonical form; a canonical graph is returned as it is."""
        try:
            canon = self._canon
        except AttributeError:
            canon = _canonical_form(self, self.root, refine=True)
            if canon == self:
                canon = None
            object.__setattr__(self, "_canon", canon)
        return self if canon is None else canon

    def _known_canonical(self) -> bool:
        return getattr(self, "_canon", self) is None

    def cached(self, key, compute):
        """compute(), computed once per graph and kept on it under key.

        Integer keys are taken: they hold the subgraphs of ``_subgraph``.
        """
        try:
            memo = self._memo
        except AttributeError:
            memo = {}
            object.__setattr__(self, "_memo", memo)
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = compute()
            return value

    def _subgraph(self, node_id: int):
        """Canonical graph of the subterm at node_id, computed once."""
        if not (0 <= node_id < len(self.nodes)):
            raise TermError("root out of range")
        if node_id == self.root:
            return self._canonical()
        # The nodes of a canonical graph are pairwise non-bisimilar, so
        # re-rooting one only renumbers: partition refinement is skipped.
        refine = not self._known_canonical()
        return self.cached(node_id, lambda: _canonical_form(self, node_id, refine))


@dataclass(frozen=True, eq=False)
class ProcessGraph(_Graph):
    """Finite rooted graph of process states.

    Construction validates node shape; re-rooting may leave unreachable
    nodes, which minimize prunes (canonical graphs hold reachable nodes
    only).
    """

    __slots__ = ("nodes", "root")
    nodes: tuple[PNode, ...]
    root: int

    def step(self, label: str) -> "ProcessGraph":
        """Canonical graph re-rooted at the continuation of the given branch."""
        canon = self._canonical()
        for lab, tgt in canon.root_node.branches:
            if lab == label:
                return canon._subgraph(tgt)
        raise KeyError(label)


@dataclass(frozen=True, eq=False)
class GlobalGraph(_Graph):
    __slots__ = ("nodes", "root")
    nodes: tuple[GNode, ...]
    root: int

    def at(self, node_id: int) -> "GlobalGraph":
        """Canonical subgraph rooted at the given node."""
        return self._subgraph(node_id)


END_PROCESS = ProcessGraph((PNode(END, None, ()),), 0)
END_GLOBAL = GlobalGraph((GNode(END, None, None, ()),), 0)


# ---------------------------------------------------------------------------
# Bisimulation minimization and canonical numbering.
#
# Partition refinement: start from node signatures, split blocks until the
# label-indexed successor blocks stabilize, then renumber blocks in BFS order
# from the root with branches sorted by label.  Two graphs denote the same
# regular tree iff their canonical forms are identical.
# ---------------------------------------------------------------------------


def _refine(sigs: list, branches: list[tuple[tuple[str, int], ...]]) -> list[int]:
    block = {}
    cls = []
    for s in sigs:
        if s not in block:
            block[s] = len(block)
        cls.append(block[s])
    while True:
        keys = [
            (cls[i], tuple((lab, cls[t]) for lab, t in branches[i]))
            for i in range(len(sigs))
        ]
        remap: dict = {}
        new_cls = []
        for k in keys:
            if k not in remap:
                remap[k] = len(remap)
            new_cls.append(remap[k])
        if new_cls == cls:
            return cls
        cls = new_cls


def _canonical_order(
    cls: Sequence[int], branches: list[tuple[tuple[str, int], ...]], root: int
) -> tuple[list[int], dict[int, int]]:
    """BFS over blocks from the root block.

    Returns one representative node per reachable block, in visit order, and
    the new number of every reachable block.
    """
    rep: dict[int, int] = {}
    for i, c in enumerate(cls):
        rep.setdefault(c, i)
    order: list[int] = [rep[cls[root]]]
    number: dict[int, int] = {cls[root]: 0}
    queue = deque(order)
    while queue:
        i = queue.popleft()
        for lab, tgt in branches[i]:
            tb = cls[tgt]
            if tb not in number:
                number[tb] = len(number)
                order.append(rep[tb])
                queue.append(rep[tb])
    return order, number


def _canonical_form(g: _Graph, root: int, refine: bool) -> _Graph:
    """Canonical graph of the subterm of g at root.

    Without refine, the nodes of g must be pairwise non-bisimilar (g is
    canonical) and only the numbering is redone.
    """
    nodes = g.nodes
    branches = [n.branches for n in nodes]
    if refine:
        cls = _refine([n.signature() for n in nodes], branches)
    else:
        cls = range(len(nodes))
    order, number = _canonical_order(cls, branches, root)
    new_nodes = []
    for i in order:
        n = nodes[i]
        new_branches = tuple(sorted((lab, number[cls[t]]) for lab, t in n.branches))
        new_nodes.append(n if new_branches == n.branches else n.rebranch(new_branches))
    return _make(type(g), tuple(new_nodes), 0, _canon=None)


def minimize(g: ProcessGraph) -> ProcessGraph:
    """The canonical form of g, computed once per graph: O(1) when canonical."""
    return g._canonical()


def minimize_global(g: GlobalGraph) -> GlobalGraph:
    return g._canonical()


def processes_equivalent(a: ProcessGraph, b: ProcessGraph) -> bool:
    return minimize(a) == minimize(b)


def globals_equivalent(a: GlobalGraph, b: GlobalGraph) -> bool:
    return minimize_global(a) == minimize_global(b)


# ---------------------------------------------------------------------------
# Building graphs from named recursive equations.
# ---------------------------------------------------------------------------


def _build(end: _Graph, definitions: Mapping, root: str | None, what: str, head) -> _Graph:
    """The canonical graph of the equation named root (default: the first).

    end is the kind's terminated graph and what its name in messages; head
    turns a communication into its node, whose branches still hold the
    continuations.  A communication's head is checked before its branches
    are placed, which fixes the fault reported on input with several.
    """
    nodes: list = [end.root_node]  # node 0 is End; minimization drops it when unused
    named: dict[str, int] = {}

    def resolve(name: str, trail: tuple[str, ...] = ()) -> int:
        if name not in definitions:
            raise UndefinedName(f"undefined {what} {name!r}")
        if name in trail:
            raise UnguardedRecursion(
                f"{what} {name!r} is defined in terms of itself without any communication"
            )
        expr = definitions[name]
        if isinstance(expr, (ProcRef, GlobalRef)):
            return resolve(expr.name, trail + (name,))
        return place(expr, name)

    def place(expr, name: str | None = None) -> int:
        if isinstance(expr, (ProcEnd, GlobalEnd)):
            return 0
        if isinstance(expr, (ProcRef, GlobalRef)):
            return resolve(expr.name)
        if name in named:
            return named[name]
        node = head(expr)
        if node.kind == END:
            raise TermError(f"unknown {what} node kind {node.kind!r}")
        node.check()
        nid = len(nodes)
        nodes.append(node)
        if name is not None:
            named[name] = nid
        nodes[nid] = node.rebranch(tuple(sorted((lab, place(sub)) for lab, sub in node.branches)))
        return nid

    root_id = resolve(next(iter(definitions)) if root is None else root)
    # every node has been checked, so the graph is made without re-checking
    return _make(type(end), tuple(nodes), root_id)._canonical()


def build_process_graph(
    definitions: Mapping[str, ProcExpr], root: str | None = None
) -> ProcessGraph:
    """Turn named recursive process equations into a canonical ProcessGraph.

    Every name must be defined and every recursion must pass through at least
    one send or receive; pure aliasing cycles (``P = P``) are rejected.
    """
    return _build(
        END_PROCESS, definitions, root, "process", lambda e: PNode(e.kind, e.partner, e.branches)
    )


def build_global_graph(
    definitions: Mapping[str, GlobalExpr], root: str | None = None
) -> GlobalGraph:
    """Same construction for global-type equations."""
    return _build(
        END_GLOBAL, definitions, root, "global type",
        lambda e: GNode(COMM, e.sender, e.receiver, e.branches),
    )


# ---------------------------------------------------------------------------
# Sessions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Session(_Value):
    """Parallel composition of participant-owned processes.

    Bindings are kept sorted by participant.  A binding to a terminated
    process is legal here and erased by normalize_session.  A session keeps
    its normal form in ``_normal`` (``None`` when it is normal itself).
    """

    __slots__ = ("bindings", "_normal")
    bindings: tuple[tuple[str, ProcessGraph], ...]

    def __post_init__(self) -> None:
        names = [p for p, _ in self.bindings]
        for p in names:
            check_ident(p, "participant")
        if len(set(names)) != len(names):
            dup = sorted({p for p in names if names.count(p) > 1})
            raise DuplicateParticipant(f"participant(s) bound twice: {', '.join(dup)}")
        if names != sorted(names):
            raise TermError("session bindings must be sorted by participant")

    def _key(self) -> tuple:
        return (self.bindings,)

    def _known_normal(self) -> bool:
        return getattr(self, "_normal", self) is None

    @property
    def is_null(self) -> bool:
        return all(g.is_end for _, g in self.bindings)

    def get(self, participant: str) -> ProcessGraph | None:
        for p, g in self.bindings:
            if p == participant:
                return g
        return None

    def items(self) -> Iterator[tuple[str, ProcessGraph]]:
        return iter(self.bindings)

    def replace(self, participant: str, graph: ProcessGraph) -> "Session":
        for k, (p, _) in enumerate(self.bindings):
            if p == participant:
                bindings = self.bindings[:k] + ((p, graph),) + self.bindings[k + 1 :]
                normal = self._known_normal() and graph._known_canonical() and not graph.is_end
                return _derived_session(bindings, normal)
        pairs = dict(self.bindings)
        pairs[participant] = graph
        return session_of(pairs)

    def without(self, participants: Iterable[str]) -> "Session":
        drop = set(participants)
        bindings = tuple((p, g) for p, g in self.bindings if p not in drop)
        return _derived_session(bindings, self._known_normal())


def _derived_session(bindings: tuple[tuple[str, ProcessGraph], ...], normal: bool) -> Session:
    """A session whose bindings come, in order, from a validated one."""
    return _make(Session, bindings, _normal=None) if normal else _make(Session, bindings)


def session_of(bindings: Mapping[str, ProcessGraph] | Iterable[tuple[str, ProcessGraph]]) -> Session:
    pairs = bindings.items() if isinstance(bindings, Mapping) else bindings
    return Session(tuple(sorted(pairs, key=lambda kv: kv[0])))


EMPTY_SESSION = Session(())


def normalize_session(s: Session) -> Session:
    """The canonical representative modulo structural congruence.

    Drops terminated participants, minimizes every process and keeps the
    bindings sorted, so == on normalized sessions decides equivalence.
    Computed once per session: a normal session is returned as it is.
    """
    try:
        normal = s._normal
    except AttributeError:
        kept = tuple((p, g._canonical()) for p, g in s.bindings if not g.is_end)
        normal = None if kept == s.bindings else _derived_session(kept, True)
        object.__setattr__(s, "_normal", normal)
    return s if normal is None else normal


def participants(s: Session) -> frozenset[str]:
    """The active participants: those bound to a process that is not 0."""
    return frozenset(p for p, g in s.bindings if not g.is_end)


def sessions_equivalent(a: Session, b: Session) -> bool:
    return normalize_session(a) == normalize_session(b)
