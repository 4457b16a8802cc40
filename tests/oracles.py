"""Independent reference implementations the primary code is checked against.

These deliberately avoid the library's own algorithms: trees instead of
minimized graphs, path enumeration instead of count-downs (depth_oracle,
bounded_oracle), per-state forward search instead of one backward closure.
Others keep the library's earlier, direct algorithms instead: the session
step taken on sessions (ready_pairs, communicate, session_transitions,
reduce and without, with their own statement of the Comm side condition),
exploration over sessions (explore_oracle), meta's walks over sessions
(replay_oracle), the global step in rounds over every node
(global_successor_oracle), type equations solved through the file
parser's builder, one graph per variable (solve_oracle), the character loop
of the tokenizer (tokenize_oracle), the recursive-descent parser over
syntax trees (parse_oracle), partition refinement in rounds over every
node (refine_oracle), p-set equations solved in Kleene rounds
(pset_oracle), enumeration that makes every outcome public and solves it
(enumerate_oracle), and the checker's search with a public record at
every step (check_oracle).  gfp_accepts decides typing with no search at
all, as the greatest fixpoint over the triples the root reaches.  The
equivalences, the participant equation and
the agreement check are the plain definitions the tests state facts with.
"""

from __future__ import annotations

import math
from collections import defaultdict

from mpst import frontend, terms
from mpst.analysis import _tables
from mpst.frontend import DuplicateDefinition, ParseError, Span, SpecFile
from mpst.semantics import CommLabel, ExploreConfig, SessionSpace, StateGraph, closure, subsets
from mpst.terms import (
    COMM,
    END,
    IN,
    OUT,
    GlobalComm,
    GlobalEnd,
    GlobalExpr,
    GlobalGraph,
    GlobalRef,
    ProcComm,
    ProcEnd,
    ProcessGraph,
    ProcExpr,
    ProcRef,
    Session,
    TermError,
    minimize,
    minimize_global,
    normalize_session,
    participants,
    session_of,
)
from mpst.typecheck import Derivation, Judgment, Rejection


def processes_equivalent(a: ProcessGraph, b: ProcessGraph) -> bool:
    return minimize(a) == minimize(b)


def globals_equivalent(a: GlobalGraph, b: GlobalGraph) -> bool:
    return minimize_global(a) == minimize_global(b)


def sessions_equivalent(a: Session, b: Session) -> bool:
    return normalize_session(a) == normalize_session(b)


# ---------------------------------------------------------------------------
# The session step over sessions.
# ---------------------------------------------------------------------------


def without(m: Session, names) -> Session:
    """m with the participants names split off, as a Weak step does."""
    drop = set(names)
    return Session(tuple((p, g) for p, g in m.bindings if p not in drop))


def ready_pairs(m: Session):
    """(p, q, labels) for every p sending labels to q that q can all receive.

    These are the pairs the Comm rule can fire on, in the order of p.
    """
    for p, gp in m.items():
        node = gp.root_node
        gq = m.get(node.partner) if node.kind == OUT else None
        if gq is None:
            continue
        qnode = gq.root_node
        if qnode.kind == IN and qnode.partner == p and set(node.labels()) <= set(qnode.labels()):
            yield p, node.partner, node.labels()


def communicate(m: Session, p: str, q: str, label: str) -> Session:
    """The normal session after p sends label to q; nobody else moves."""
    return normalize_session(m.replace(p, m.get(p).step(label)).replace(q, m.get(q).step(label)))


def session_transitions(s: Session) -> list:
    """All enabled single steps of a session as (label, normal successor):
    one per ready pair (p, q) and message that p may send."""
    s = normalize_session(s)
    return [
        (CommLabel(p, h, q), communicate(s, p, q, h))
        for p, q, labels in ready_pairs(s)
        for h in labels
    ]


def reduce(s: Session, label) -> Session | None:
    """The unique successor of s under the given label, or None if disabled."""
    return dict(session_transitions(s)).get(label)


def unfold_process(g: ProcessGraph, depth: int, node: int | None = None):
    """Finite tree unfolding of a process graph, as nested tuples."""
    node_id = g.root if node is None else node
    n = g.nodes[node_id]
    if n.kind == END:
        return ("end",)
    if depth == 0:
        return ("...",)
    return (
        n.kind,
        n.partner,
        tuple((lab, unfold_process(g, depth - 1, t)) for lab, t in n.branches),
    )


def unfold_global(g: GlobalGraph, depth: int, node: int | None = None):
    node_id = g.root if node is None else node
    n = g.nodes[node_id]
    if n.kind == END:
        return ("end",)
    if depth == 0:
        return ("...",)
    return (
        n.sender,
        n.receiver,
        tuple((lab, unfold_global(g, depth - 1, t)) for lab, t in n.branches),
    )


def global_step_oracle(
    g: GlobalGraph, label, depth: int, node: int | None = None, budget: int | None = None
):
    """Tree unfolding, as unfold_global, of g after one step with label; None
    when the label cannot fire.

    A root match yields the unfolded branch.  A root whose roles are disjoint
    from the label's steps when every branch steps; a finite derivation
    passes each node at most once, so len(g.nodes) nested steps suffice.
    """
    node_id = g.root if node is None else node
    budget = len(g.nodes) if budget is None else budget
    n = g.nodes[node_id]
    if n.kind == END or budget == 0:
        return None
    if (n.sender, n.receiver) == (label.sender, label.receiver):
        targets = [t for lab, t in n.branches if lab == label.message]
        return unfold_global(g, depth, targets[0]) if targets else None
    if {n.sender, n.receiver} & {label.sender, label.receiver}:
        return None
    branches = []
    for lab, t in n.branches:
        sub = global_step_oracle(g, label, max(depth - 1, 0), t, budget - 1)
        if sub is None:
            return None
        branches.append((lab, sub))
    return ("...",) if depth == 0 else (n.sender, n.receiver, tuple(branches))


def global_successor_oracle(g: GlobalGraph, label):
    """semantics.global_successor as rounds over every node of g, until none
    steps anew: a node steps when the label fires at its root, to that
    branch's target, or when its roles are disjoint from the label's and
    every branch has stepped, to a copy of it over the stepped branches."""
    nodes = list(g.nodes)
    stepped: dict[int, int] = {}  # node of g -> its successor in nodes
    changed = True
    while changed:
        changed = False
        for i, node in enumerate(g.nodes):
            if i in stepped or node.kind == END:
                continue
            tgt = None
            if (node.sender, node.receiver) == (label.sender, label.receiver):
                tgt = next((t for lab, t in node.branches if lab == label.message), None)
            elif not ({node.sender, node.receiver} & label.plays) and all(t in stepped for _, t in node.branches):
                tgt = len(nodes)
                nodes.append(node.rebranch(tuple((lab, stepped[t]) for lab, t in node.branches)))
            if tgt is not None:
                stepped[i] = tgt
                changed = True
    if g.root not in stepped:
        return None
    return minimize_global(GlobalGraph(tuple(nodes), stepped[g.root]))


def explore_oracle(s, config: ExploreConfig = ExploreConfig()) -> StateGraph:
    """The closure of session_transitions over sessions: every transition
    builds its successor session and normalizes it."""
    states, edges = closure(normalize_session(s), session_transitions, config)
    return StateGraph(tuple(states), tuple(edges), 0)


def replay_oracle(check, g, m, ignored, checker=None, config: ExploreConfig = ExploreConfig()):
    """metatheory.check_subject_reduction (check "subject-reduction") or
    check_session_fidelity ("session-fidelity") walked over sessions: each
    session step is a session_transitions entry, each global step taken by
    reduce, and the triples hold normal sessions."""
    from mpst.analysis import plays_global
    from mpst.metatheory import Violation
    from mpst.semantics import global_successor, global_transitions
    from mpst.typecheck import Typechecker

    def session_steps(g, m, p):
        gplays = plays_global(g)
        for lab, m2 in session_transitions(m):
            if lab.plays <= gplays:
                g2 = global_successor(g, lab)
                if g2 is None:
                    yield lab, None, f"session step {lab} has no matching global step"
                    continue
            elif lab.plays.isdisjoint(gplays):
                g2 = g
            else:
                yield lab, None, f"step {lab}: exactly one endpoint occurs in the global type"
                continue
            yield lab, (g2, m2), f"after step {lab}: no ignored subset of {sorted(p)} re-types the session"

    def global_steps(g, m, p):
        for lab, g2 in global_transitions(g):
            m2 = reduce(m, lab)
            if m2 is None:
                yield lab, None, f"global step {lab} cannot be taken by the session"
            else:
                yield lab, (g2, m2), f"after global step {lab}: no ignored subset of {sorted(p)} re-types"

    steps = session_steps if check == "subject-reduction" else global_steps
    checker = checker or Typechecker()
    root = (minimize_global(g), normalize_session(m), frozenset(ignored))
    if not checker.accepts(*root):
        return [Violation(check, "the root judgment is not derivable")]
    out = []

    def successors(triple):
        _, _, p1 = triple
        for lab, succ, why in steps(*triple):
            p2 = None if succ is None else checker.smallest_accepted_subset(*succ, p1)
            if p2 is None:
                out.append(Violation(check, why))
            else:
                yield lab, (*succ, p2)

    closure(root, successors, config)
    return out


def _reachable(g) -> set[int]:
    reachable = {g.root}
    todo = [g.root]
    while todo:
        for _, t in g.nodes[todo.pop()].branches:
            if t not in reachable:
                reachable.add(t)
                todo.append(t)
    return reachable


def plays_oracle(g: GlobalGraph) -> frozenset[str]:
    """The senders and receivers of the nodes the root reaches."""
    return frozenset(r for i in _reachable(g) for r in (g.nodes[i].sender, g.nodes[i].receiver) if r is not None)


def bounded_oracle(g: GlobalGraph):
    """Boundedness by one path enumeration (depth_oracle) per reachable node
    and participant, in node order, then participant order; the first
    infinite depth is the witness."""
    from mpst.analysis import BoundednessVerdict

    for node_id in sorted(_reachable(g)):
        sub = GlobalGraph(g.nodes, node_id)
        for p in sorted(plays_oracle(sub)):
            if depth_oracle(sub, p) == math.inf:
                return BoundednessVerdict(False, node_id, p)
    return BoundednessVerdict(True)


def lock_free_oracle(graph: StateGraph, ignored: frozenset[str]) -> bool:
    """Forward search per state and participant for a reachable involvement."""
    outgoing: dict[int, list] = {}
    for a, lab, b in graph.edges:
        outgoing.setdefault(a, []).append((lab, b))
    for i, state in enumerate(graph.states):
        for p in participants(state) - ignored:
            seen = {i}
            todo = [i]
            found = False
            while todo and not found:
                cur = todo.pop()
                for lab, nxt in outgoing.get(cur, ()):
                    if p in lab.plays:
                        found = True
                        break
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
            if not found:
                return False
    return True


def deadlock_free_oracle(graph: StateGraph, ignored: frozenset[str]) -> bool:
    has_out = {a for a, _, _ in graph.edges}
    for i, state in enumerate(graph.states):
        if i not in has_out and participants(state) - ignored:
            return False
    return True


def depth_oracle(g: GlobalGraph, p: str) -> int | float:
    """Depth by path enumeration.

    An avoiding path that reaches End, or one as long as the node count
    (hence revisiting a node, hence extendable forever), pushes the value to
    infinity; otherwise every path meets p within the bound and the supremum
    of first-hit indices is taken directly.
    """
    from mpst.analysis import plays_global

    if p not in plays_global(g):
        return 0
    limit = len(g.nodes)
    worst = 0

    def walk(node_id: int, steps: int) -> bool:
        # returns False once an infinite witness is found
        nonlocal worst
        node = g.nodes[node_id]
        if node.kind == END:
            return False  # avoided p all the way to termination
        if p in (node.sender, node.receiver):
            worst = max(worst, steps + 1)
            return True
        if steps + 1 >= limit:
            return False  # pigeonhole: some node repeats on this avoiding path
        return all(walk(t, steps + 1) for _, t in node.branches)

    return worst if walk(g.root, 0) else math.inf


class OracleWorkExceeded(Exception):
    """The brute-force search was about to blow its work allowance."""


def naive_typecheck(g, m, ignored, hyps=frozenset(), work=None) -> bool:
    """Brute-force decision of the typing judgment.

    No caching, no pruning: branch ignored sets range over all subsets of the
    premise's participants, splits over all subsets of the active
    participants.  Exponential, only for tiny inputs.  ``work`` is an
    optional one-element list acting as a call countdown.
    """
    from itertools import chain, combinations

    from mpst.analysis import bounded, plays_global
    from mpst.terms import COMM

    if work is not None:
        work[0] -= 1
        if work[0] < 0:
            raise OracleWorkExceeded()
    g = minimize_global(g)
    m = normalize_session(m)
    p_set = frozenset(ignored)
    triple = (g, m, p_set)
    if triple in hyps:
        return True
    if g.nodes[g.root].kind == END and m.is_null:
        return p_set == frozenset()

    def subsets(pool):
        return chain.from_iterable(combinations(sorted(pool), k) for k in range(len(pool) + 1))

    hyps2 = hyps | {triple}
    node = g.nodes[g.root]
    if node.kind == COMM:
        p, q = node.sender, node.receiver
        gp, gq = m.get(p), m.get(q)
        if (
            gp is not None
            and gq is not None
            and gp.root_node.kind == OUT
            and gp.root_node.partner == q
            and gq.root_node.kind == IN
            and gq.root_node.partner == p
            and set(gp.root_node.labels()) == set(lab for lab, _ in node.branches)
            and set(lab for lab, _ in node.branches) <= set(gq.root_node.labels())
            and bounded(g).holds
        ):
            residual_plays = participants(without(m, (p, q)))
            per_branch = []
            for lab, target in node.branches:
                gi = g.at(target)
                mi = communicate(m, p, q, lab)
                good = [
                    frozenset(cand)
                    for cand in subsets(participants(mi))
                    if (plays_global(gi) | frozenset(cand)) - {p, q} == residual_plays
                    and naive_typecheck(gi, mi, cand, hyps2, work)
                ]
                per_branch.append(good)

            def cover(idx, union):
                if idx == len(per_branch):
                    return union == p_set
                return any(cover(idx + 1, union | pi) for pi in per_branch[idx])

            if all(per_branch) and cover(0, frozenset()):
                return True
    # Weak: split off any nonempty subset of the active participants
    for q_raw in subsets(participants(m)):
        q_split = frozenset(q_raw)
        if not q_split or not q_split <= p_set:
            continue
        m1 = normalize_session(without(m, q_split))
        for p1_extra in subsets(p_set & q_split):
            p1 = (p_set - q_split) | frozenset(p1_extra)
            if p1 | q_split != p_set:
                continue
            if naive_typecheck(g, m1, p1, hyps2, work):
                return True
    return False


def gfp_accepts(g, m, ignored) -> bool:
    """The typing judgment as a greatest fixpoint, with no hypothesis sets
    and no search order.  A triple is a node of canonical g, a state id of
    one SessionSpace and an ignored set P.  First collect the triples the
    root reaches through End, Comm and Weak, each with its premises; then a
    worklist refutes a triple when End fails, every Weak premise is refuted
    and no choice of unrefuted Comm premises, one per branch, unions to P,
    and puts the parents of each refuted triple back.  The root holds when
    it is never refuted.  No recursion, so deep chains decide too."""
    g = minimize_global(g)
    space = SessionSpace(m)
    plays, unbounded, _ = _tables(g)
    root = (g.root, space.start, frozenset(ignored))
    rules: dict[tuple, tuple] = {}  # triple -> (End holds, Comm premises per branch or None, Weak premises)
    parents: defaultdict[tuple, set[tuple]] = defaultdict(set)
    todo = [root]
    while todo:
        triple = todo.pop()
        if triple in rules:
            continue
        n, s, p_set = triple
        node = g.nodes[n]
        end = node.kind == END and not space.plays(s) and not p_set
        comm = None
        if node.kind == COMM and n not in unbounded:
            p, q = node.sender, node.receiver
            np, nq = space.node(s, p), space.node(s, q)
            labels = set(node.labels())
            if (
                np is not None and np.kind == OUT and np.partner == q and set(np.labels()) == labels
                and nq is not None and nq.kind == IN and nq.partner == p and labels <= set(nq.labels())
            ):
                after = {lab.message: t for lab, t in space.moves(s, p, q)}
                comm = []
                for lab, target in node.branches:
                    si = after[lab]
                    base = space.plays(si) - plays[target]
                    if not (plays[target] <= space.plays(si) and base <= p_set):
                        comm = None  # no premise ignored set solves the participant equation
                        break
                    comm.append([(target, si, base | extra) for extra in subsets(plays[target] & p_set)])
        pool = (space.plays(s) & p_set) - plays[n]
        weak = [(n, space.without(s, split), p_set - split) for split in subsets(pool) if split]
        rules[triple] = (end, comm, weak)
        for premise in weak + [t for options in comm or () for t in options]:
            parents[premise].add(triple)
            todo.append(premise)

    refuted: set[tuple] = set()

    def holds(triple) -> bool:
        end, comm, weak = rules[triple]
        if end or any(t not in refuted for t in weak):
            return True
        if comm is None:
            return False
        unions = {frozenset()}
        for options in comm:
            unions = {u | t[2] for u in unions for t in options if t not in refuted}
        return triple[2] in unions

    todo = list(rules)
    while todo:
        triple = todo.pop()
        if triple not in refuted and not holds(triple):
            refuted.add(triple)
            todo.extend(parents[triple])
    return root not in refuted


class _OracleSpace(SessionSpace):
    """typecheck._Space: a session space with tables of public records, and
    each session it builds entered in located."""

    def __init__(self, start: Session, located: dict):
        super().__init__(start)
        self.located, self.accepted, self.rejected = located, {}, {}

    def session(self, s: int) -> Session:
        m = super().session(s)
        self.located.setdefault(m, (self, s))
        return m


def check_oracle(g, m, ignored, located=None):
    """typecheck.Typechecker.check as it was when its search made a public
    record at every step: a Judgment per judgment met, and a Derivation or a
    Rejection with its detail per answer of _judge; Comm picks its premise
    ignored sets by a depth-first search over branches.  located, a dict kept
    over calls, shares session spaces and their tables as one Typechecker
    does."""
    located = {} if located is None else located
    m = normalize_session(m)
    if m not in located:
        start = _OracleSpace(m, located)
        located[m] = (start, start.start)
    space, s = located[m]
    g = minimize_global(g)
    result = _OracleSearch(space, g).judge(g.root, s, frozenset(ignored), frozenset())
    return result if isinstance(result, Rejection) else result[0]


class _OracleSearch:
    """The search of check_oracle over node ids of g and state ids of space:
    judge gives (Derivation, refs) or a Rejection, and the tables hold them."""

    def __init__(self, space: _OracleSpace, g: GlobalGraph):
        self.space, self.g = space, g

    def judge(self, n: int, s: int, p_set: frozenset, hyps: frozenset):
        space = self.space
        triple = (self.g.at(n), s, p_set)
        judgment = Judgment(self.g.at(n), space.session(s), p_set)
        if triple in hyps:
            return Derivation("Cycle", judgment), frozenset([triple])
        for refs, deriv in space.accepted.get(triple, ()):
            if refs <= hyps:
                return deriv, refs
        for cached_hyps, rej in space.rejected.get(triple, ()):
            if hyps <= cached_hyps:
                return rej
        result = self.decide(n, s, judgment, hyps)
        if isinstance(result, Rejection):
            space.rejected.setdefault(triple, []).append((hyps, result))
        else:
            space.accepted.setdefault(triple, []).append((result[1], result[0]))
        return result

    def decide(self, n: int, s: int, judgment: Judgment, hyps: frozenset):
        if self.g.nodes[n].kind == END and not self.space.plays(s):
            if not judgment.ignored:
                return Derivation("End", judgment), frozenset()
            return Rejection("IgnoredMismatch", judgment, "the null session carries an empty ignored set")
        comm = self.try_comm(n, s, judgment, hyps) if self.g.nodes[n].kind == COMM else None
        if comm is not None and not isinstance(comm, Rejection):
            return comm
        weak = self.try_weak(n, s, judgment, hyps)
        # The deeper rejection is the better one; Comm's on a tie.
        return weak if comm is None or not isinstance(weak, Rejection) or weak.depth > comm.depth else comm

    def try_comm(self, n: int, s: int, judgment: Judgment, hyps: frozenset):
        from mpst.analysis import _tables
        from mpst.semantics import subsets
        from mpst.typecheck import _unbounded_detail

        g, space, p_set = self.g, self.space, judgment.ignored
        node = g.nodes[n]
        p, q = node.sender, node.receiver
        labels = node.labels()
        np, nq = space.node(s, p), space.node(s, q)
        if np is None or np.kind != OUT or np.partner != q:
            why = f"the global type wants {p} to send to {q}, but the session has no such pair"
            return Rejection("RootMismatch", judgment, why)
        if nq is None or nq.kind != IN or nq.partner != p:
            why = f"the global type wants {q} to receive from {p}, but the session has no such pair"
            return Rejection("RootMismatch", judgment, why)
        if set(np.labels()) != set(labels):
            why = f"{p} sends {sorted(np.labels())} but the global type lists {sorted(labels)}"
            return Rejection("LabelSetMismatch", judgment, why)
        if not set(labels) <= set(nq.labels()):
            why = f"{q} accepts {sorted(nq.labels())}, missing some of {sorted(labels)}"
            return Rejection("LabelSetMismatch", judgment, why)
        plays, unbounded, _ = _tables(g)
        if n in unbounded:
            return Rejection("Unbounded", judgment, _unbounded_detail(g, n))

        after = {lab.message: t for lab, t in space.moves(s, p, q)}
        here = (g.at(n), s, p_set)
        hyps2 = hyps | {here}
        branch_options = []
        best_premise_rej = None
        for lab, target in node.branches:
            si = after[lab]
            plays_gi = plays[target]
            plays_mi = space.plays(si)
            base = plays_mi - plays_gi
            if not (plays_gi <= plays_mi and base <= p_set):
                why = (
                    f"branch {lab!r}: no ignored subset can satisfy "
                    f"(plays(G_{lab}) | P_{lab}) \\ {{{p},{q}}} = {sorted(space.plays(s) - {p, q})}"
                )
                return Rejection("ParticipantEquationFailed", judgment, why)
            options = []
            for pi in (base | extra for extra in subsets(plays_gi & p_set)):
                sub = self.judge(target, si, pi, hyps2)
                if isinstance(sub, Rejection):
                    if best_premise_rej is None or sub.depth >= best_premise_rej.depth:
                        best_premise_rej = Rejection(sub.reason, sub.judgment, sub.detail, sub.depth + 1)
                else:
                    options.append((pi, sub[0], sub[1]))
            if not options:
                return best_premise_rej
            branch_options.append(options)

        combo = _first_combination(branch_options, p_set)
        if combo is None:
            if best_premise_rej is not None:
                return best_premise_rej
            why = f"no choice of branch ignored sets unions to {sorted(p_set)}"
            return Rejection("IgnoredMismatch", judgment, why)
        refs = frozenset().union(*(r for _, _, r in combo)) - {here}
        return Derivation("Comm", judgment, tuple(d for _, d, _ in combo), labels), refs

    def try_weak(self, n: int, s: int, judgment: Judgment, hyps: frozenset):
        from mpst.analysis import _tables
        from mpst.semantics import subsets

        space, p_set = self.space, judgment.ignored
        pool = (space.plays(s) & p_set) - _tables(self.g)[0][n]
        if not pool:
            why = "no active ignored participant outside the global type can be split off"
            return Rejection("IgnoredMismatch", judgment, why)
        here = (self.g.at(n), s, p_set)
        hyps2 = hyps | {here}
        best = None
        for split in subsets(pool):
            if not split:
                continue
            sub = self.judge(n, space.without(s, split), p_set - split, hyps2)
            if isinstance(sub, Rejection):
                if best is None or sub.depth >= best.depth:
                    best = Rejection(sub.reason, sub.judgment, sub.detail, sub.depth + 1)
                continue
            return Derivation("Weak", judgment, (sub[0],), (), split), sub[1] - {here}
        return best


def _first_combination(branch_options, p_set: frozenset):
    """The first choice of one option per branch, depth first over branches
    and then options, whose ignored sets union to p_set; None if none does."""

    def go(idx: int, union: frozenset, acc: list):
        if idx == len(branch_options):
            return list(acc) if union == p_set else None
        # Prune when the options left cannot cover p_set any more.
        if not p_set <= union.union(*(pi for opts in branch_options[idx:] for pi, _, _ in opts)):
            return None
        for option in branch_options[idx]:
            acc.append(option)
            found = go(idx + 1, union | option[0], acc)
            if found is not None:
                return found
            acc.pop()
        return None

    return go(0, frozenset(), [])


def solve_oracle(eqs):
    """Type equations solved through the file parser's path: each pattern
    becomes a global-type expression with its variables named by str, and
    global_system gives one canonical graph per variable."""
    from mpst.inference import FreeVariable, PatEnd, PatVar, UnguardedEquations
    from mpst.terms import UndefinedName, UnguardedRecursion, global_system

    def as_global(pat):
        if isinstance(pat, PatEnd):
            return GlobalEnd()
        if isinstance(pat, PatVar):
            return GlobalRef(str(pat.var))
        return GlobalComm(pat.sender, pat.receiver, tuple((lab, as_global(sub)) for lab, sub in pat.branches))

    names = [str(v) for v in eqs]
    try:
        read = global_system(dict(zip(names, map(as_global, eqs.values()))), names)
    except UndefinedName as exc:
        raise FreeVariable(str(exc)) from exc
    except UnguardedRecursion as exc:
        raise UnguardedEquations(str(exc)) from exc
    return dict(zip(eqs, map(read, names)))


def check_participant_equation(gi: GlobalGraph, pi, p: str, q: str, residual: Session) -> bool:
    """Evaluate (plays(gi) | pi) \\ {p, q} = plays(residual)."""
    from mpst.analysis import plays_global

    return (plays_global(gi) | frozenset(pi)) - {p, q} == participants(residual)


def eval_pset(pat, values) -> frozenset[str]:
    """The value of a p-set pattern: its literals and its variables' values;
    FreeVariable at the first variable with no value."""
    from mpst.inference import FreeVariable

    out = frozenset(pat.literals)
    for v in pat.vars:
        if v not in values:
            raise FreeVariable(f"p-set variable {v} has no equation")
        out |= values[v]
    return out


def check_agreement(theta, conditions):
    """(True, None) when every participant condition holds under theta, else
    (False, the first that fails)."""
    from mpst.analysis import plays_global

    for c in conditions:
        plays = plays_global(theta.types[c.typevar])
        if (plays | theta.psets[c.psetvar]) - {c.p, c.q} != c.target:
            return False, c
    return True, None


def pset_oracle(eqs, lower_bounds):
    """Least solution of p-set equations above lower_bounds, by Kleene rounds
    over every equation until none changes."""
    lb = {v: frozenset(lower_bounds.get(v, ())) for v in eqs}
    values = dict(lb)
    changed = True
    while changed:
        changed = False
        for v, pat in eqs.items():
            new = lb[v] | eval_pset(pat, values)
            if new != values[v]:
                values[v] = new
                changed = True
    return values


def solutions_oracle(outcome):
    """inference.solutions with every variable solved by solve_oracle and
    checked for boundedness on its own graph by bounded_oracle."""
    from mpst.analysis import plays_global
    from mpst.inference import Substitution

    tsol = solve_oracle(outcome.type_eqs)
    if not all(bounded_oracle(g) for g in tsol.values()):
        return []
    lb = {v: frozenset() for v in outcome.pset_eqs}
    for c in outcome.conditions:
        lb[c.psetvar] |= c.target - plays_global(tsol[c.typevar])
    psol = pset_oracle(outcome.pset_eqs, lb)
    if any(psol[v] != eval_pset(pat, psol) for v, pat in outcome.pset_eqs.items()):
        return []
    theta = Substitution(tsol, psol)
    return [theta] if check_agreement(theta, outcome.conditions)[0] else []


def enumerate_oracle(s, budget):
    """inference.enumerate_solutions one public outcome at a time: infer
    makes every derivation an InferenceOutcome, solutions solves each on an
    interned table shared by the call, and a (type, ignored set) pair met
    before is dropped."""
    from mpst.inference import infer, solutions

    seen = set()
    interned = {}
    for outcome in infer(s, budget):
        for theta in solutions(outcome, interned=interned):
            g = theta.types[outcome.root_typevar]
            p = theta.psets[outcome.root_psetvar]
            if (g, p) in seen:
                continue
            seen.add((g, p))
            yield outcome, theta, g, p


def refine_oracle(sigs, branches):
    """Partition refinement in rounds: every node is keyed by its block and
    its label-indexed successor blocks until a round splits nothing."""
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


_PUNCT = ("->", "!", "?", "{", "}", ",", ".", ":", "|", "=")


def tokenize_oracle(text):
    """The tokens of text as (kind, text, line, column), one character at a
    time; a ParseError at the first character no token starts with."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "0":
            tokens.append(("zero", "0", line, col))
            i += 1
            col += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", Span(line, col))
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    """The recursive-descent parser over the tokens of tokenize_oracle, which
    builds a syntax tree per definition."""

    def __init__(self, text: str):
        self.tokens = tokenize_oracle(text)
        self.pos = 0

    def peek(self) -> tuple[str, str]:
        """The kind and the text of the next token."""
        kind, text, _, _ = self.tokens[self.pos]
        return kind, text

    def span(self, back: int = 0) -> Span:
        """Where the next token starts, or the token back tokens before it."""
        _, _, line, column = self.tokens[self.pos - back]
        return Span(line, column)

    def next(self) -> str:
        """The text of the next token, which is consumed."""
        _, text = self.peek()
        self.pos += 1
        return text

    def expect(self, kind: str, text: str | None = None) -> str:
        found_kind, found = self.peek()
        if found_kind != kind or (text is not None and found != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {found or found_kind!r}", self.span())
        return self.next()

    def ident(self, what: str) -> str:
        kind, text = self.peek()
        if kind != "ident":
            raise ParseError(f"expected {what}, found {text or kind!r}", self.span())
        if text in frontend.KEYWORDS:
            raise ParseError(f"keyword {text!r} cannot be used as {what}", self.span())
        return self.next()

    def name(self, what: str) -> str:
        """An identifier checked now; names inside terms are left to the builders."""
        text = self.ident(f"a {what}")
        try:
            terms.check_ident(text, what)
        except TermError as exc:
            raise ParseError(str(exc), self.span(back=1)) from None
        return text

    # -- processes ---------------------------------------------------------

    def proc(self) -> ProcExpr:
        if self.peek() == ("zero", "0"):
            self.next()
            return ProcEnd()
        name = self.ident("a process name or participant")
        kind, text = self.peek()
        if kind == "punct" and text in (OUT, IN):
            self.next()
            branches = self.branches(self.proc, ProcEnd())
            return ProcComm(text, name, branches)
        return ProcRef(name)

    def branches(self, sub, empty):
        if self.peek() == ("punct", "{"):
            self.next()
            out = [self.branch(sub, empty)]
            while self.peek() == ("punct", ","):
                self.next()
                out.append(self.branch(sub, empty))
            self.expect("punct", "}")
            return tuple(out)
        return (self.branch(sub, empty),)

    def branch(self, sub, empty):
        label = self.ident("a message label")
        if self.peek() == ("punct", "."):
            self.next()
            return (label, sub())
        return (label, empty)

    # -- global types -------------------------------------------------------

    def glob(self) -> GlobalExpr:
        if self.peek() == ("ident", "end"):
            self.next()
            return GlobalEnd()
        name = self.ident("a global-type name or participant")
        if self.peek() == ("punct", "->"):
            self.next()
            receiver = self.ident("a participant")
            self.expect("punct", ":")
            branches = self.branches(self.glob, GlobalEnd())
            return GlobalComm(name, receiver, branches)
        return GlobalRef(name)

    # -- sessions and ignored sets -------------------------------------------

    def sess(self) -> list[tuple[str, ProcExpr, Span]]:
        if self.peek() == ("zero", "0"):
            self.next()
            return []
        out = [self.binding()]
        while self.peek() == ("punct", "|"):
            self.next()
            out.append(self.binding())
        return out

    def binding(self) -> tuple[str, ProcExpr, Span]:
        span = self.span()
        part = self.ident("a participant")
        self.expect("punct", ":")
        return (part, self.proc(), span)

    def pset(self) -> frozenset[str]:
        self.expect("punct", "{")
        names = []
        if self.peek() != ("punct", "}"):
            names.append(self.name("participant"))
            while self.peek() == ("punct", ","):
                self.next()
                names.append(self.name("participant"))
        self.expect("punct", "}")
        return frozenset(names)


def parse_oracle(text: str) -> SpecFile:
    """frontend.parse as a recursive-descent parser: the same terms, ignored
    sets and faults, each fault at the same position.  Terms are built when
    the file is parsed, not when first read."""
    p = _Parser(text)
    proc_defs: dict[str, ProcExpr] = {}
    sess_defs: dict[str, list[tuple[str, ProcExpr, Span]]] = {}
    glob_defs: dict[str, GlobalExpr] = {}
    pset_defs: dict[str, frozenset[str]] = {}
    spans: dict[str, Span] = {}

    def define(name: str, span: Span) -> None:
        if name in spans:
            raise DuplicateDefinition(
                f"name {name!r} already defined at {spans[name]}", span
            )
        spans[name] = span

    while p.peek() != ("eof", ""):
        kw = p.expect("ident")
        if kw not in ("process", "session", "global", "ignored"):
            raise ParseError(
                f"expected a definition keyword, found {kw!r}", p.span(back=1)
            )
        span = p.span()
        name = p.name("definition name")
        define(name, span)
        p.expect("punct", "=")
        if kw == "process":
            proc_defs[name] = p.proc()
        elif kw == "session":
            bindings = p.sess()
            seen: dict[str, Span] = {}
            for part, _, span in bindings:
                if part in seen:
                    raise DuplicateDefinition(
                        f"participant {part!r} bound twice in session {name!r}",
                        span,
                    )
                seen[part] = span
            sess_defs[name] = bindings
        elif kw == "global":
            glob_defs[name] = p.glob()
        else:
            pset_defs[name] = p.pset()

    # One build of the process system: the definitions are its first roots,
    # so that their faults are met first, then the bindings, under keys that
    # are no identifiers, so that no process name can clash with them.
    system = dict(proc_defs)
    for name, bindings in sess_defs.items():
        for part, expr, span in bindings:
            system[f"{name}: {part}"], spans[f"{name}: {part}"] = expr, span
    fault = None
    try:
        process = terms.process_system(system, system)
    except TermError as exc:
        if exc.root in proc_defs:
            raise ParseError(str(exc), spans[exc.root]) from exc
        fault = exc
    try:
        global_type = terms.global_system(glob_defs, glob_defs)
    except TermError as exc:
        raise ParseError(str(exc), spans[exc.root]) from exc
    # A session is checked after its own bindings and before later ones.
    for name, bindings in sess_defs.items():
        if fault is not None and fault.root.startswith(f"{name}: "):
            raise ParseError(str(fault), spans[fault.root]) from fault
        try:
            session_of((part, terms.END_PROCESS) for part, _, _ in bindings)
        except TermError as exc:
            raise ParseError(str(exc), spans[name]) from exc

    def session(name: str) -> Session:
        return session_of((part, process(f"{name}: {part}")) for part, _, _ in sess_defs[name])

    return SpecFile(
        {name: process(name) for name in proc_defs},
        {name: session(name) for name in sess_defs},
        {name: global_type(name) for name in glob_defs},
        pset_defs,
    )
