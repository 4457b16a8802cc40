"""Processes, sessions and global types as finite graphs over regular terms.

A regular (possibly infinite) term has finitely many distinct subterms, so it
is stored as a finite rooted graph.  Graphs are brought to a canonical form
(bisimulation-minimal, breadth-first numbered, branches sorted by label), which
makes equality of regular terms plain equality of their fields (see _Value).

Canonical forms are kept, not recomputed: every graph remembers its hash, its
canonical form and the subgraphs asked of it, and every session its normal
form.  Minimizing a canonical graph is O(1), and stepping one only renumbers
the nodes reachable from the new root.
"""

from __future__ import annotations

import re
from functools import total_ordering
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

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


class _Value:
    """An immutable value whose fields are its ``__slots__``.

    A subclass lists its fields in ``__slots__``, where names that start
    with an underscore hold memos, and sets them in its ``__init__`` with
    ``_set``.  Values hash as the tuple of their fields and are equal when
    their classes are the same and their fields are equal; they are shown,
    copied and pickled through their fields, in order.  Assigning to a
    field raises AttributeError.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _key = property(lambda self: ())  # the tuple of the fields

    def __init_subclass__(cls) -> None:
        if "__slots__" in vars(cls):
            fields = cls.__match_args__ = tuple(n for n in cls.__slots__ if not n.startswith("_"))
            if fields:
                get = attrgetter(*fields)  # a tuple from two names or more
                cls._key = property(get if len(fields) > 1 else lambda self: (get(self),))

    def _set(self, *values) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._key)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        # Copies and pickles go through the validating constructor.
        return (self.__class__, self._key)


@total_ordering
class _Ordered(_Value):
    """A value ordered as the tuple of its fields, against its own class only."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        return self._key < other._key if other.__class__ is self.__class__ else NotImplemented


# ---------------------------------------------------------------------------
# Syntax trees for recursive equation systems (the input of the builders).
# ---------------------------------------------------------------------------


class ProcEnd(_Value):
    __slots__ = ()


class ProcRef(_Value):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self._set(name)


class ProcComm(_Value):
    __slots__ = ("kind", "partner", "branches")

    def __init__(self, kind: str, partner: str, branches: tuple[tuple[str, "ProcExpr"], ...]) -> None:
        self._set(kind, partner, branches)  # kind is OUT or IN


ProcExpr = Union[ProcEnd, ProcRef, ProcComm]


class GlobalEnd(_Value):
    __slots__ = ()


class GlobalRef(_Value):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self._set(name)


class GlobalComm(_Value):
    __slots__ = ("sender", "receiver", "branches")

    def __init__(self, sender: str, receiver: str, branches: tuple[tuple[str, "GlobalExpr"], ...]) -> None:
        self._set(sender, receiver, branches)


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


class PNode(_Value):
    """One process state: terminated, or a send/receive choice."""

    __slots__ = ("kind", "partner", "branches")

    def __init__(self, kind: str, partner: str | None, branches: tuple[tuple[str, int], ...]) -> None:
        # kind is END, OUT or IN; branches are (label, successor), sorted by label.
        # Nodes are the values built most often, so their fields are set one by one.
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "partner", partner)
        object.__setattr__(self, "branches", branches)

    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.branches)

    def signature(self) -> tuple:
        """Everything but the successors: what bisimilar states share."""
        return (self.kind, self.partner)

    def rebranch(self, branches: tuple[tuple[str, int], ...]) -> "PNode":
        return PNode(self.kind, self.partner, branches)

    @staticmethod
    def check(head: tuple, labels: Sequence[str]) -> None:
        """The shape rules of a process state; successors are not looked at."""
        kind, partner = head
        if kind == END:
            if partner is not None or labels:
                raise TermError("end node must carry no partner or branches")
        elif kind in (OUT, IN):
            check_ident(partner, "participant")
            _check_choice(labels)
        else:
            raise TermError(f"unknown process node kind {kind!r}")


class GNode(_Value):
    """One global-type state: End, or a communication between two roles."""

    __slots__ = ("kind", "sender", "receiver", "branches")

    def __init__(
        self, kind: str, sender: str | None, receiver: str | None, branches: tuple[tuple[str, int], ...]
    ) -> None:
        # kind is END or COMM; the fields are set one by one, as PNode's are
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "sender", sender)
        object.__setattr__(self, "receiver", receiver)
        object.__setattr__(self, "branches", branches)

    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.branches)

    def signature(self) -> tuple:
        return (self.kind, self.sender, self.receiver)

    def rebranch(self, branches: tuple[tuple[str, int], ...]) -> "GNode":
        return GNode(self.kind, self.sender, self.receiver, branches)

    @staticmethod
    def check(head: tuple, labels: Sequence[str]) -> None:
        """The shape rules of a global-type state, as PNode.check's."""
        kind, sender, receiver = head
        if kind == END:
            if sender is not None or receiver is not None or labels:
                raise TermError("end node must carry no roles or branches")
        elif kind == COMM:
            check_ident(sender, "participant")
            check_ident(receiver, "participant")
            if sender == receiver:
                raise TermError(f"self-communication {sender!r}")
            _check_choice(labels)
        else:
            raise TermError(f"unknown global node kind {kind!r}")


def _kept_hash(value: _Value) -> int:
    """The hash of a graph or a session, computed once: both are deep and hashed often."""
    try:
        return value._hash
    except AttributeError:
        h = hash(value._key)
        object.__setattr__(value, "_hash", h)
        return h


def _make(cls, *fields, **memo):
    """An instance built from already-validated parts, without re-validating."""
    obj = object.__new__(cls)
    obj._set(*fields)
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

    __slots__ = ("_canon", "_memo", "_hash")
    __hash__ = _kept_hash

    def __init__(self, nodes: tuple, root: int) -> None:
        n = len(nodes)
        if not (0 <= root < n):
            raise TermError("root out of range")
        for node in nodes:
            node.check(node.signature(), node.labels())
            for _, tgt in node.branches:
                if not (0 <= tgt < n):
                    raise TermError(f"branch target {tgt} out of range")
        self._set(nodes, root)

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
            canon = _canonical_forms(self, refine=True)(self.root)
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
        return self.cached(node_id, lambda: _canonical_forms(self, refine)(node_id))


class ProcessGraph(_Graph):
    """Finite rooted graph of process states.

    Construction validates node shape; re-rooting may leave unreachable
    nodes, which minimize prunes (canonical graphs hold reachable nodes
    only).
    """

    __slots__ = ("nodes", "root")  # tuple[PNode, ...], int

    def step(self, label: str) -> "ProcessGraph":
        """Canonical graph re-rooted at the continuation of the given branch."""
        canon = self._canonical()
        for lab, tgt in canon.root_node.branches:
            if lab == label:
                return canon._subgraph(tgt)
        raise KeyError(label)


class GlobalGraph(_Graph):
    __slots__ = ("nodes", "root")  # tuple[GNode, ...], int

    def at(self, node_id: int) -> "GlobalGraph":
        """Canonical subgraph rooted at the given node."""
        return self._subgraph(node_id)


END_PROCESS = ProcessGraph((PNode(END, None, ()),), 0)
END_GLOBAL = GlobalGraph((GNode(END, None, None, ()),), 0)


def _predecessors(g: _Graph) -> dict[int, list[int]]:
    """The nodes the root of g reaches, in the order found, each with the
    nodes that branch to it, one entry per branch.  Kept on g."""

    def compute() -> dict[int, list[int]]:
        reachable = [g.root]  # grows while it is read
        preds: dict[int, list[int]] = {g.root: []}
        for i in reachable:
            for _, t in g.nodes[i].branches:
                if t not in preds:
                    preds[t] = []
                    reachable.append(t)
                preds[t].append(i)
        return preds

    return g.cached("preds", compute)


# ---------------------------------------------------------------------------
# Bisimulation minimization and canonical numbering.
#
# Partition refinement: start from node signatures, split blocks until the
# label-indexed successor blocks stabilize, then renumber blocks in BFS order
# from the root with branches sorted by label.  Two graphs denote the same
# regular tree iff their canonical forms are identical.
# ---------------------------------------------------------------------------


def _refine(sigs: list, branches: list[tuple[tuple[str, int], ...]]) -> list[int]:
    """The coarsest partition, as a block id per node, that refines sigs and
    puts in one block only nodes with the same labels, in the same order, and
    successors in the same blocks.  Driven by the blocks that split (Paige and
    Tarjan 1987): only the predecessors of nodes that moved are keyed again,
    and the largest part of a split keeps its id, so a node moves O(log n)
    times.  Most small graphs are stable after one round, and cost only that.
    """
    ids: dict = {}
    cls = [ids.setdefault(s, len(ids)) for s in sigs]
    keys = [tuple((lab, cls[t]) for lab, t in bs) for bs in branches]
    if len(set(zip(cls, keys))) == len(ids):
        return cls
    members = [set() for _ in ids]
    for i, c in enumerate(cls):
        members[c].add(i)
    preds: list[list[int]] = [[] for _ in sigs]
    for i, bs in enumerate(branches):
        for _, t in bs:
            preds[t].append(i)
    dirty: Iterable[int] = range(len(sigs))
    while dirty:
        # A node is keyed again only when a successor moved to a new block,
        # so its key differs from those of the members not keyed again.
        parts: dict = {}
        for i in dirty:
            parts.setdefault(cls[i], {}).setdefault(keys[i], []).append(i)
        moved: list[int] = []
        for b, by_key in parts.items():
            rest, leaving = members[b], list(by_key.values())
            if len(leaving) == 1 and len(leaving[0]) == len(rest):  # the block keeps together
                continue
            for p in leaving:
                rest.difference_update(p)
            leaving.sort(key=len)
            if len(leaving[-1]) > len(rest):
                members[b] = set(leaving.pop())
                if rest:
                    leaving.append(list(rest))
            for p in leaving:
                for i in p:
                    cls[i] = len(members)
                members.append(set(p))
                moved += p
        dirty = {j for i in moved for j in preds[i]}
        for i in dirty:
            keys[i] = tuple((lab, cls[t]) for lab, t in branches[i])
    return cls


def _canonical_forms(g: _Graph, refine: bool) -> Callable[[int], _Graph]:
    """The canonical graph of the subterm of g at a node, as a function of
    the node: one partition refinement now, and each block renumbered on its
    first read, so that the nodes of one block share one graph.

    Without refine, the nodes of g must be pairwise non-bisimilar (g is
    canonical) and only the numbering is redone.
    """
    nodes = g.nodes
    if refine:
        cls = _refine([n.signature() for n in nodes], [n.branches for n in nodes])
        rep: Sequence[int] | dict[int, int] = {}  # one node of every block
        for i, c in enumerate(cls):
            rep.setdefault(c, i)
    else:
        cls = rep = range(len(nodes))
    forms: dict[int, _Graph] = {}

    def form(root: int) -> _Graph:
        if cls[root] in forms:
            return forms[cls[root]]
        # BFS over the blocks reachable from the root's: order grows as it is read
        order = [rep[cls[root]]]
        number = {cls[root]: 0}
        for i in order:
            for _, t in nodes[i].branches:
                if cls[t] not in number:
                    number[cls[t]] = len(number)
                    order.append(rep[cls[t]])
        new_nodes = []
        for i in order:
            n = nodes[i]
            new_branches = tuple(sorted((lab, number[cls[t]]) for lab, t in n.branches))
            new_nodes.append(n if new_branches == n.branches else n.rebranch(new_branches))
        out = forms[cls[root]] = _make(type(g), tuple(new_nodes), 0, _canon=None)
        return out

    return form


def minimize(g: ProcessGraph) -> ProcessGraph:
    """The canonical form of g, computed once per graph: O(1) when canonical."""
    return g._canonical()


def minimize_global(g: GlobalGraph) -> GlobalGraph:
    return g._canonical()


# ---------------------------------------------------------------------------
# Building graphs from named recursive equations.
# ---------------------------------------------------------------------------


def _resolve(definitions: Mapping, name: str, what: str):
    """The target of the first equation on the alias chain from name that is no alias."""
    trail = set()
    while True:
        if name not in definitions:
            raise UndefinedName(f"undefined {what} {name!r}")
        if name in trail:
            raise UnguardedRecursion(
                f"{what} {name!r} is defined in terms of itself without any communication"
            )
        target = definitions[name]
        if target.__class__ is not str:
            return target
        trail.add(name)
        name = target


def _build(end: _Graph, rows: Sequence, definitions: Mapping, roots: Iterable[str], what: str) -> Callable:
    """The reader of the canonical graphs of the equations named in roots.

    A row is a communication (head, labels, targets): head is its node's
    signature and each target a row index, an equation's name, or None for
    the end.  definitions maps every name to its target.  end is the kind's
    terminated graph and what its name in messages.  All roots share one node
    list and one partition refinement, and every fault is raised here, not by
    the reader.  Rows are placed depth first from each root in turn, with a
    head checked before its branches are placed, which fixes the fault
    reported on input with several.
    """
    node = type(end.root_node)
    placed: dict[int, int] = {}  # row -> node id; node 0 is End, which minimization drops when unused
    made: list = []  # the head, labels and successors of node 1, 2, ..., in branch order
    root_ids: dict[str, int] = {}
    for root in roots:
        try:
            # (target, table and key to store its node id under)
            stack = [(_resolve(definitions, root, what), root_ids, root)]
            while stack:
                target, slot, k = stack.pop()
                if target.__class__ is str:
                    target = _resolve(definitions, target, what)
                if target is None:
                    nid = 0
                elif target in placed:
                    nid = placed[target]
                else:
                    head, labels, subs = rows[target]
                    if head[0] == END:
                        raise TermError(f"unknown {what} node kind {END!r}")
                    node.check(head, labels)
                    nid = placed[target] = len(placed) + 1
                    out = [0] * len(subs)
                    made.append((head, labels, out))
                    # pushed last branch first, so that the first is placed first
                    stack += [(subs[j], out, j) for j in reversed(range(len(subs)))]
                slot[k] = nid
        except TermError as exc:
            exc.root = root
            raise
    nodes = [end.root_node, *(node(*head, tuple(sorted(zip(labels, out)))) for head, labels, out in made)]
    # every node has been checked, so the graph is made without re-checking
    form = _canonical_forms(_make(type(end), tuple(nodes), 0), refine=True)
    return lambda root: form(root_ids[root])


def _rows(definitions: Mapping, head: Callable) -> tuple[list, dict]:
    """The rows of _build for equations written as syntax trees, and each
    name's target; head(expr) is the signature of a communication."""
    rows, named = [], dict.fromkeys(definitions)
    todo = [(expr, named, name) for name, expr in definitions.items()]
    while todo:
        expr, slot, k = todo.pop()
        if isinstance(expr, (ProcRef, GlobalRef)):
            slot[k] = expr.name
        elif isinstance(expr, (ProcEnd, GlobalEnd)):
            slot[k] = None
        else:
            slot[k] = len(rows)
            subs = [None] * len(expr.branches)
            rows.append((head(expr), [lab for lab, _ in expr.branches], subs))
            todo += [(sub, subs, j) for j, (_, sub) in enumerate(expr.branches)]
    return rows, named


def process_system(
    definitions: Mapping[str, ProcExpr], roots: Iterable[str]
) -> Callable[[str], ProcessGraph]:
    """Build named recursive process equations once, from the names in
    roots, and return the reader of each root's canonical ProcessGraph.

    Every name must be defined and every recursion must pass through at least
    one send or receive; pure aliasing cycles (``P = P``) are rejected.  A
    TermError names the root it was reached from in its ``root`` attribute.
    A root's graph is numbered when it is first read, and bisimilar roots
    read one graph.
    """
    return _build(END_PROCESS, *_rows(definitions, lambda e: (e.kind, e.partner)), roots, "process")


def global_system(
    definitions: Mapping[str, GlobalExpr], roots: Iterable[str]
) -> Callable[[str], GlobalGraph]:
    """Same construction for global-type equations."""
    return _build(END_GLOBAL, *_rows(definitions, lambda e: (COMM, e.sender, e.receiver)), roots, "global type")


def build_process_graph(
    definitions: Mapping[str, ProcExpr], root: str | None = None
) -> ProcessGraph:
    """The canonical graph of the equation named root (default: the first)."""
    root = next(iter(definitions)) if root is None else root
    return process_system(definitions, [root])(root)


def build_global_graph(
    definitions: Mapping[str, GlobalExpr], root: str | None = None
) -> GlobalGraph:
    root = next(iter(definitions)) if root is None else root
    return global_system(definitions, [root])(root)


# ---------------------------------------------------------------------------
# Sessions.
# ---------------------------------------------------------------------------


class Session(_Value):
    """Parallel composition of participant-owned processes.

    Bindings are kept sorted by participant.  A binding to a terminated
    process is legal here and erased by normalize_session.  A session keeps
    its normal form in ``_normal`` (``None`` when it is normal itself).
    """

    __slots__ = ("bindings", "_normal", "_hash")
    __hash__ = _kept_hash

    def __init__(self, bindings: tuple[tuple[str, ProcessGraph], ...]) -> None:
        names = [p for p, _ in bindings]
        for p in names:
            check_ident(p, "participant")
        if len(set(names)) != len(names):
            dup = sorted({p for p in names if names.count(p) > 1})
            raise DuplicateParticipant(f"participant(s) bound twice: {', '.join(dup)}")
        if names != sorted(names):
            raise TermError("session bindings must be sorted by participant")
        self._set(bindings)

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
        return session_of({**dict(self.bindings), participant: graph})


def _derived_session(bindings: tuple[tuple[str, ProcessGraph], ...]) -> Session:
    """A normal session whose bindings come, in order, from a validated one."""
    return _make(Session, bindings, _normal=None)


def session_of(bindings: Mapping[str, ProcessGraph] | Iterable[tuple[str, ProcessGraph]]) -> Session:
    pairs = bindings.items() if isinstance(bindings, Mapping) else bindings
    return Session(tuple(sorted(pairs, key=lambda kv: kv[0])))


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
        normal = None if kept == s.bindings else _derived_session(kept)
        object.__setattr__(s, "_normal", normal)
    return s if normal is None else normal


def participants(s: Session) -> frozenset[str]:
    """The active participants: those bound to a process that is not 0."""
    return frozenset(p for p, g in s.bindings if not g.is_end)
