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
            session, and the P_i must union to P.
* Weak   -- a nonempty set of active participants outside plays(G) is split
            off and added to the ignored set of the premise's conclusion.
* Cycle  -- the exact triple already appears in the hypothesis set.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
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
    _make,
    _Value,
    minimize_global,
    normalize_session,
)


class Judgment(_Value):
    """A judgment (G, M, P).  One the checker makes holds a node of G and a
    state of a session space, and builds G and M when they are first read."""

    __slots__ = ("global_type", "session", "ignored", "_ids")

    def __init__(self, global_type: GlobalGraph, session: Session, ignored: frozenset[str]) -> None:
        self._set(global_type, session, ignored)

    def __getattr__(self, name: str):
        if name not in ("global_type", "session"):
            raise AttributeError(name)
        g, n, space, s = self._ids
        object.__setattr__(self, "global_type", g.at(n))
        object.__setattr__(self, "session", space.session(s))
        return getattr(self, name)

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
    __slots__ = ("reason", "judgment", "detail", "depth", "_why")

    def __init__(self, reason: str, judgment: Judgment, detail: str, depth: int = 0) -> None:
        # reason is RootMismatch, LabelSetMismatch, ParticipantEquationFailed,
        # Unbounded or IgnoredMismatch; depth is how far below the queried
        # judgment the failure sits
        self._set(reason, judgment, detail, depth)

    def __getattr__(self, name: str):
        # the detail of a rejection made by _rejection, why(), written when first read
        if name != "detail":
            raise AttributeError(name)
        object.__setattr__(self, "detail", self._why())
        return self.detail

    def to_json_dict(self) -> dict:
        return {"reason": self.reason, **self.judgment.to_json_dict(), "detail": self.detail}


def _rejection(reason: str, judgment: Judgment, why, depth: int = 0) -> Rejection:
    return _make(Rejection, reason, judgment, depth=depth, _why=why)


def _unbounded_detail(g: GlobalGraph, n: int) -> str:
    """The Unbounded detail at node n of g, in the numbering of its subterm."""
    v = bounded(g.at(n))
    where = f"at node {v.witness_node} of the global type"
    return f"participant {v.witness_participant!r} can be postponed forever {where}"


class _Space(SessionSpace):
    """A session space with the judgment tables of its states, keyed on
    (G, state id, P).  Each session it builds is entered in located, the
    checker's table of sessions, so that a query on it is decided here."""

    def __init__(self, start: Session, located: dict):
        super().__init__(start)
        self.located = located
        self.accepted: dict[tuple, list[tuple[frozenset, Derivation]]] = {}
        self.rejected: dict[tuple, list[tuple[frozenset, Rejection]]] = {}

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
        space, s = self.locate(m)
        g = minimize_global(g)
        result = self._judge(space, g, g.root, s, frozenset(ignored), frozenset())
        return result if isinstance(result, Rejection) else result[0]

    def accepts(self, g: GlobalGraph, m: Session, ignored: Iterable[str]) -> bool:
        return isinstance(self.check(g, m, ignored), Derivation)

    def smallest_accepted_subset(
        self, g: GlobalGraph, m: Session, p_set: frozenset
    ) -> frozenset | None:
        """The first subset of p_set (smallest, then lexicographic) that types."""
        return next((sub for sub in subsets(p_set) if self.accepts(g, m, sub)), None)

    # The search walks node n of canonical g and state s, keyed on g.at(n), kept
    # on g, so types that share a subterm share its triples.  _judge gives
    # (Derivation, refs) on success, where refs is the set of hypothesis triples
    # the derivation's Cycle leaves point at, else a Rejection.  A success is
    # reusable under any hypothesis superset of refs; a rejection under any
    # hypothesis subset of the recorded one.

    def _judge(self, space: _Space, g: GlobalGraph, n: int, s: int, p_set: frozenset, hyps: frozenset):
        triple = (g.at(n), s, p_set)
        if triple in hyps:
            return Derivation("Cycle", _judgment(g, n, space, s, p_set)), frozenset([triple])
        for refs, deriv in space.accepted.get(triple, ()):
            if refs <= hyps:
                return deriv, refs
        for cached_hyps, rej in space.rejected.get(triple, ()):
            if hyps <= cached_hyps:
                return rej
        result = self._decide(_judgment(g, n, space, s, p_set), hyps)
        if isinstance(result, Rejection):
            space.rejected.setdefault(triple, []).append((hyps, result))
        else:
            space.accepted.setdefault(triple, []).append((result[1], result[0]))
        return result

    def _decide(self, judgment: Judgment, hyps: frozenset):
        g, n, space, s = judgment._ids
        if g.nodes[n].kind == END and not space.plays(s):
            if not judgment.ignored:
                return Derivation("End", judgment), frozenset()
            return _rejection("IgnoredMismatch", judgment, lambda: "the null session carries an empty ignored set")
        comm = self._try_comm(judgment, hyps) if g.nodes[n].kind == COMM else None
        if comm is not None and not isinstance(comm, Rejection):
            return comm
        weak = self._try_weak(judgment, hyps)
        # The deeper rejection is the better one; Comm's on a tie.
        return weak if comm is None or not isinstance(weak, Rejection) or weak.depth > comm.depth else comm

    def _try_comm(self, judgment: Judgment, hyps: frozenset):
        g, n, space, s = judgment._ids
        p_set = judgment.ignored
        node = g.nodes[n]
        p, q = node.sender, node.receiver
        labels = node.labels()
        np, nq = space.node(s, p), space.node(s, q)
        if np is None or np.kind != OUT or np.partner != q:
            why = f"the global type wants {p} to send to {q}, but the session has no such pair"
            return _rejection("RootMismatch", judgment, lambda: why)
        if nq is None or nq.kind != IN or nq.partner != p:
            why = f"the global type wants {q} to receive from {p}, but the session has no such pair"
            return _rejection("RootMismatch", judgment, lambda: why)
        if set(np.labels()) != set(labels):
            why = f"{p} sends {sorted(np.labels())} but the global type lists {sorted(labels)}"
            return _rejection("LabelSetMismatch", judgment, lambda: why)
        if not set(labels) <= set(nq.labels()):
            why = f"{q} accepts {sorted(nq.labels())}, missing some of {sorted(labels)}"
            return _rejection("LabelSetMismatch", judgment, lambda: why)
        plays, unbounded, _ = _tables(g)
        if n in unbounded:
            return _rejection("Unbounded", judgment, lambda: _unbounded_detail(g, n))

        # The checks above are the Comm side condition, so p -> q is ready.
        after = {lab.message: t for lab, t in space.moves(s, p, q)}
        here = (g.at(n), s, p_set)
        hyps2 = hyps | {here}
        branch_options: list[list[tuple[frozenset, Derivation, frozenset]]] = []
        best_premise_rej: Rejection | None = None

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
                return _rejection(
                    "ParticipantEquationFailed",
                    judgment,
                    lambda: f"branch {lab!r}: no ignored subset can satisfy "
                    f"(plays(G_{lab}) | P_{lab}) \\ {{{p},{q}}} = {sorted(space.plays(s) - {p, q})}",
                )
            options = []
            for pi in (base | extra for extra in subsets(plays_gi & p_set)):
                sub = self._judge(space, g, target, si, pi, hyps2)
                if isinstance(sub, Rejection):
                    if best_premise_rej is None or sub.depth >= best_premise_rej.depth:
                        best_premise_rej = _rejection(sub.reason, sub.judgment, sub._why, sub.depth + 1)
                else:
                    options.append((pi, sub[0], sub[1]))
            if not options:
                assert best_premise_rej is not None
                return best_premise_rej
            branch_options.append(options)

        combo = self._combine(branch_options, p_set)
        if combo is None:
            if best_premise_rej is not None:
                return best_premise_rej
            why = f"no choice of branch ignored sets unions to {sorted(p_set)}"
            return _rejection("IgnoredMismatch", judgment, lambda: why)
        refs = frozenset(chain.from_iterable(r for _, _, r in combo)) - {here}
        return Derivation("Comm", judgment, tuple(d for _, d, _ in combo), labels), refs

    @staticmethod
    def _combine(branch_options, p_set: frozenset):
        """Pick one option per branch so the ignored sets union to p_set."""

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

    def _try_weak(self, judgment: Judgment, hyps: frozenset):
        g, n, space, s = judgment._ids
        p_set = judgment.ignored
        pool = (space.plays(s) & p_set) - _tables(g)[0][n]
        if not pool:
            why = "no active ignored participant outside the global type can be split off"
            return _rejection("IgnoredMismatch", judgment, lambda: why)
        here = (g.at(n), s, p_set)
        hyps2 = hyps | {here}
        best: Rejection | None = None
        for split in subsets(pool):
            if not split:
                continue
            sub = self._judge(space, g, n, space.without(s, split), p_set - split, hyps2)
            if isinstance(sub, Rejection):
                if best is None or sub.depth >= best.depth:
                    best = _rejection(sub.reason, sub.judgment, sub._why, sub.depth + 1)
                continue
            return Derivation("Weak", judgment, (sub[0],), (), split), sub[1] - {here}
        return best


def _judgment(g: GlobalGraph, n: int, space: SessionSpace, s: int, p_set: frozenset) -> Judgment:
    """The judgment at node n of g and state s of space, on ids."""
    return _make(Judgment, ignored=p_set, _ids=(g, n, space, s))


def typecheck(
    global_type: GlobalGraph,
    session: Session,
    ignored: Iterable[str] = (),
) -> Derivation | Rejection:
    """Decide the judgment and return a full derivation or the best rejection."""
    return Typechecker().check(global_type, session, ignored)


def accepts(global_type: GlobalGraph, session: Session, ignored: Iterable[str] = ()) -> bool:
    return isinstance(typecheck(global_type, session, ignored), Derivation)
