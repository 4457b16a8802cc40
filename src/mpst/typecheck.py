"""Decision procedure for the judgment "session follows global type G, up to
an ignored participant set".

The coinductive rules (End/Comm/Weak) are decided through their inductive
reformulation: a hypothesis set collects the judgments currently being
derived, and a repeated judgment closes the branch (rule Cycle).  Cycle is
applied eagerly; a derivation containing a repetition can always be truncated
there, so eagerness loses nothing.

Rule mechanics, given judgment (G, M, P):

* End    -- M is the null session, G is End, P is empty.
* Comm   -- G's root is a communication p->q over labels I; p must send to q
            exactly I, q must receive from p at least I; G must be bounded;
            every branch premise (G_i, M_i, P_i) must hold with the side
            condition (plays(G_i) | P_i) \\ {p,q} = plays of the residual
            session, and the P_i must union to P (the first such choice in
            branch, then subset order, found in one pass over the branches).
* Weak   -- a nonempty set of active participants outside plays(G) is split
            off and added to the ignored set of the premise's conclusion.
* Cycle  -- the exact triple already appears in the hypothesis set.

The search runs on plain ids, as explore and inference do: a judgment is
its key (G at a node, state id, P), a success the tuple (rule, key, premises,
branch labels, discharged) and a rejection (depth, reason, key, detail).
Typechecker.check makes the public records, Judgment, Derivation and
Rejection, from its answer alone; accepts makes none.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .analysis import _tables, bounded
from .semantics import SessionSpace, subsets
from .terms import (
    COMM,
    END,
    GlobalGraph,
    IN,
    OUT,
    Session,
    _Value,
    minimize_global,
    normalize_session,
)


class Judgment(_Value):
    """A judgment (G, M, P)."""

    __slots__ = ("global_type", "session", "ignored")

    def __init__(self, global_type: GlobalGraph, session: Session, ignored: frozenset[str]) -> None:
        self._set(global_type, session, ignored)

    def to_json_dict(self) -> dict:
        from .frontend import format_global, format_session

        return {
            "global": format_global(self.global_type),
            "session": format_session(self.session),
            "ignored": sorted(self.ignored),
        }


class Derivation(_Value):
    __slots__ = ("rule", "judgment", "premises", "branch_labels", "discharged")

    def __init__(
        self,
        rule: str,  # "End", "Comm", "Cycle" or "Weak"
        judgment: Judgment,
        premises: tuple["Derivation", ...] = (),
        branch_labels: tuple[str, ...] = (),  # Comm: message per premise
        discharged: frozenset[str] = frozenset(),  # Weak: participants split off
    ) -> None:
        self._set(rule, judgment, premises, branch_labels, discharged)

    def rule_counts(self) -> Counter:
        return Counter(d.rule for d in self.iter_nodes())

    def iter_nodes(self):
        stack = [self]
        while stack:
            d = stack.pop()
            yield d
            stack.extend(d.premises)

    def to_json_dict(self) -> dict:
        out: dict = {"rule": self.rule, **self.judgment.to_json_dict()}
        if self.rule == "Comm":
            out["premises"] = [
                {"branch": lab, "derivation": d.to_json_dict()}
                for lab, d in zip(self.branch_labels, self.premises)
            ]
        elif self.rule == "Weak":
            out["discharged"] = sorted(self.discharged)
            out["premises"] = [{"derivation": self.premises[0].to_json_dict()}]
        return out

    def to_text(self, indent: int = 0) -> str:
        from .frontend import format_session

        j = self.judgment
        pad = "  " * indent
        node = j.global_type.root_node
        if node.kind == COMM:
            head = f"{node.sender}->{node.receiver}"
        else:
            head = "end"
        ign = "{" + ",".join(sorted(j.ignored)) + "}"
        line = f"{pad}[{self.rule}] {head} |-{ign} {format_session(j.session)}"
        if self.rule == "Weak":
            line += f"   (splitting off {{{','.join(sorted(self.discharged))}}})"
        lines = [line]
        for k, d in enumerate(self.premises):
            if self.rule == "Comm":
                lines.append(f"{pad}  branch {self.branch_labels[k]}:")
                lines.append(d.to_text(indent + 2))
            else:
                lines.append(d.to_text(indent + 1))
        return "\n".join(lines)


class Rejection(_Value):
    __slots__ = ("reason", "judgment", "detail", "depth")

    def __init__(self, reason: str, judgment: Judgment, detail: str, depth: int = 0) -> None:
        # reason is RootMismatch, LabelSetMismatch, ParticipantEquationFailed,
        # Unbounded or IgnoredMismatch; depth is how far below the queried
        # judgment the failure sits
        self._set(reason, judgment, detail, depth)

    def to_json_dict(self) -> dict:
        return {"reason": self.reason, **self.judgment.to_json_dict(), "detail": self.detail}


def _unbounded_detail(g: GlobalGraph, n: int) -> str:
    """The Unbounded detail at node n of g, in the numbering of its subterm."""
    v = bounded(g.at(n))
    where = f"at node {v.witness_node} of the global type"
    return f"participant {v.witness_participant!r} can be postponed forever {where}"


def _deeper(kept, rejection, up: int = 0):
    """Of kept (None or a rejection) and a later rejection found up levels
    below, the one to keep: the later, raised by up, when strictly deeper."""
    depth = rejection[0] + up
    return kept if kept is not None and depth <= kept[0] else (depth, *rejection[1:])


def _record(space: SessionSpace, node, found) -> Derivation | Rejection:
    """The public record of an answer of the search: the Rejection found when
    node is None, else the Derivation of node, one per node of the answer."""

    def judgment(key: tuple) -> Judgment:
        return Judgment(key[0], space.session(key[1]), key[2])

    if node is None:
        depth, reason, key, why = found
        why = _unbounded_detail(key[0], key[0].root) if why is None else why
        return Rejection(reason, judgment(key), why, depth)
    made: dict[int, Derivation] = {}  # by id of the node, which the answer keeps alive

    def derivation(node: tuple) -> Derivation:
        d = made.get(id(node))
        if d is None:
            rule, key, premises, labels, discharged = node
            premises = tuple(map(derivation, premises))
            d = made[id(node)] = Derivation(rule, judgment(key), premises, labels, discharged)
        return d

    return derivation(node)


class _Space(SessionSpace):
    """A session space with the judgment tables of its states, keyed on
    (G, state id, P).  Each session it builds is entered in located, the
    checker's table of sessions, so that a query on it is decided here."""

    def __init__(self, start: Session, located: dict):
        super().__init__(start)
        self.located = located
        self.accepted: dict[tuple, list[tuple[tuple, frozenset]]] = {}
        self.rejected: dict[tuple, list[tuple[frozenset, tuple]]] = {}

    def session(self, s: int) -> Session:
        m = super().session(s)
        self.located.setdefault(m, (self, s))
        return m


class Typechecker:
    """The decision procedure, with caches that persist across queries: one
    session space per start session asked about, with its judgments."""

    def __init__(self) -> None:
        self._located: dict[Session, tuple[_Space, int]] = {}

    def locate(self, m: Session) -> tuple[SessionSpace, int]:
        """The space that decides queries on session m, and m's state id
        there: the space that built m when there is one, else a new space
        started at m."""
        m = normalize_session(m)
        found = self._located.get(m)
        if found is None:
            space = _Space(m, self._located)
            found = self._located[m] = (space, space.start)
        return found

    def check(self, g: GlobalGraph, m: Session, ignored: Iterable[str]) -> Derivation | Rejection:
        """A full derivation of the judgment, or the best rejection."""
        return _record(*self._search(g, m, ignored))

    def accepts(self, g: GlobalGraph, m: Session, ignored: Iterable[str]) -> bool:
        return self._search(g, m, ignored)[1] is not None

    def smallest_accepted_subset(self, g: GlobalGraph, m: Session, p_set: frozenset) -> frozenset | None:
        """The first subset of p_set (smallest, then lexicographic) that types."""
        return next((sub for sub in subsets(p_set) if self.accepts(g, m, sub)), None)

    def _search(self, g: GlobalGraph, m: Session, ignored: Iterable[str]) -> tuple:
        """The space of m and the answer of the search on the judgment."""
        space, s = self.locate(m)
        g = minimize_global(g)
        return space, *self._judge(space, g, g.root, s, frozenset(ignored), frozenset())

    # _judge walks node n of canonical g and state s under the hypothesis keys
    # hyps.  The key (g.at(n), s, P) is computed once and handed down, so
    # types that share a subterm share its triples.  It gives (success, refs),
    # refs the keys the success's Cycle leaves point at, reusable under any
    # hypothesis superset of refs; or (None, rejection), reusable under any
    # hypothesis subset of the recorded one.  An Unbounded detail is None
    # until _record writes it for the one rejection returned.

    def _judge(self, space: _Space, g: GlobalGraph, n: int, s: int, p_set: frozenset, hyps: frozenset):
        key = (g.at(n), s, p_set)
        if key in hyps:
            return ("Cycle", key, (), (), frozenset()), frozenset([key])
        for result in space.accepted.get(key, ()):
            if result[1] <= hyps:
                return result
        for cached_hyps, result in space.rejected.get(key, ()):
            if hyps <= cached_hyps:
                return result
        result = self._decide(space, g, n, s, key, hyps)
        if result[0] is None:
            space.rejected.setdefault(key, []).append((hyps, result))
        else:
            space.accepted.setdefault(key, []).append(result)
        return result

    def _decide(self, space: _Space, g: GlobalGraph, n: int, s: int, key: tuple, hyps: frozenset):
        kind = g.nodes[n].kind
        if kind == END and not space.plays(s):
            if not key[2]:
                return ("End", key, (), (), frozenset()), frozenset()
            return None, (0, "IgnoredMismatch", key, "the null session carries an empty ignored set")
        comm = self._try_comm(space, g, n, s, key, hyps) if kind == COMM else None
        if comm is not None and comm[0] is not None:
            return comm
        weak = self._try_weak(space, g, n, s, key, hyps)
        # The deeper rejection is the better one; Comm's on a tie.
        return weak if comm is None or weak[0] is not None else (None, _deeper(comm[1], weak[1]))

    def _try_comm(self, space: _Space, g: GlobalGraph, n: int, s: int, key: tuple, hyps: frozenset):
        p_set = key[2]
        node = g.nodes[n]
        p, q = node.sender, node.receiver
        labels = node.labels()
        np, nq = space.node(s, p), space.node(s, q)
        if np is None or np.kind != OUT or np.partner != q:
            why = f"the global type wants {p} to send to {q}, but the session has no such pair"
            return None, (0, "RootMismatch", key, why)
        if nq is None or nq.kind != IN or nq.partner != p:
            why = f"the global type wants {q} to receive from {p}, but the session has no such pair"
            return None, (0, "RootMismatch", key, why)
        if set(np.labels()) != set(labels):
            why = f"{p} sends {sorted(np.labels())} but the global type lists {sorted(labels)}"
            return None, (0, "LabelSetMismatch", key, why)
        if not set(labels) <= set(nq.labels()):
            why = f"{q} accepts {sorted(nq.labels())}, missing some of {sorted(labels)}"
            return None, (0, "LabelSetMismatch", key, why)
        plays, unbounded, _ = _tables(g)
        if n in unbounded:
            return None, (0, "Unbounded", key, None)

        # The checks above are the Comm side condition, so p -> q is ready.
        after = {lab.message: t for lab, t in space.moves(s, p, q)}
        hyps2 = hyps | {key}
        # picks: each union of the premise ignored sets chosen so far, in the
        # order first reached, to the first choice reaching it (premises, refs);
        # so picks[P] is the choice a depth-first search would find first.
        picks: dict[frozenset, tuple[tuple, frozenset]] = {frozenset(): ((), frozenset())}
        best = None  # the premise rejection kept

        for lab, target in node.branches:
            si = after[lab]
            plays_gi = plays[target]
            plays_mi = space.plays(si)
            base = plays_mi - plays_gi
            # Under these two guards every P_i = base | extra, extra within
            # plays(G_i), solves the participant equation: (plays(G_i) | P_i)
            # \ {p,q} is plays(M_i) \ {p,q}, which is plays(M) \ {p,q}, as a
            # Comm step changes only p's and q's activity.
            if not (plays_gi <= plays_mi and base <= p_set):
                why = (
                    f"branch {lab!r}: no ignored subset can satisfy "
                    f"(plays(G_{lab}) | P_{lab}) \\ {{{p},{q}}} = {sorted(space.plays(s) - {p, q})}"
                )
                return None, (0, "ParticipantEquationFailed", key, why)
            options = []
            for pi in (base | extra for extra in subsets(plays_gi & p_set)):
                sub, found = self._judge(space, g, target, si, pi, hyps2)
                if sub is None:
                    best = _deeper(best, found, 1)
                else:
                    options.append((pi, sub, found))
            if not options:
                return None, best
            # entries outer, options inner: the entry kept per union is the DFS's
            extended: dict[frozenset, tuple[tuple, frozenset]] = {}
            for union, (subs, refs) in picks.items():
                for pi, sub, found in options:
                    extended.setdefault(union | pi, (subs + (sub,), refs | found))
            picks = extended

        if p_set not in picks:
            why = f"no choice of branch ignored sets unions to {sorted(p_set)}"
            return None, best or (0, "IgnoredMismatch", key, why)
        subs, refs = picks[p_set]
        return ("Comm", key, subs, labels, frozenset()), refs - {key}

    def _try_weak(self, space: _Space, g: GlobalGraph, n: int, s: int, key: tuple, hyps: frozenset):
        p_set = key[2]
        pool = (space.plays(s) & p_set) - _tables(g)[0][n]
        if not pool:
            why = "no active ignored participant outside the global type can be split off"
            return None, (0, "IgnoredMismatch", key, why)
        hyps2 = hyps | {key}
        best = None
        for split in subsets(pool):
            if not split:
                continue
            sub, found = self._judge(space, g, n, space.without(s, split), p_set - split, hyps2)
            if sub is not None:
                return ("Weak", key, (sub,), (), split), found - {key}
            best = _deeper(best, found, 1)
        return None, best


def typecheck(global_type: GlobalGraph, session: Session, ignored: Iterable[str] = ()) -> Derivation | Rejection:
    """Decide the judgment and return a full derivation or the best rejection."""
    return Typechecker().check(global_type, session, ignored)


def accepts(global_type: GlobalGraph, session: Session, ignored: Iterable[str] = ()) -> bool:
    return Typechecker().accepts(global_type, session, ignored)
