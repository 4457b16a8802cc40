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

import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator

from .analysis import bounded, plays_global
from .semantics import communicate
from .terms import (
    COMM,
    GlobalGraph,
    IN,
    OUT,
    Session,
    minimize_global,
    normalize_session,
    participants,
)


@dataclass(frozen=True)
class Judgment:
    global_type: GlobalGraph
    session: Session
    ignored: frozenset[str]


@dataclass(frozen=True)
class Derivation:
    rule: str  # "End", "Comm", "Cycle" or "Weak"
    judgment: Judgment
    premises: tuple["Derivation", ...] = ()
    branch_labels: tuple[str, ...] = ()  # Comm: message per premise
    discharged: frozenset[str] = frozenset()  # Weak: participants split off

    def rule_counts(self) -> Counter:
        counts: Counter = Counter()
        stack = [self]
        while stack:
            d = stack.pop()
            counts[d.rule] += 1
            stack.extend(d.premises)
        return counts

    def iter_nodes(self):
        stack = [self]
        while stack:
            d = stack.pop()
            yield d
            stack.extend(d.premises)

    def to_json_dict(self) -> dict:
        from .frontend import format_global, format_session

        out: dict = {
            "rule": self.rule,
            "global": format_global(self.judgment.global_type),
            "session": format_session(self.judgment.session),
            "ignored": sorted(self.judgment.ignored),
        }
        if self.rule == "Comm":
            out["premises"] = [
                {"branch": lab, "derivation": d.to_json_dict()}
                for lab, d in zip(self.branch_labels, self.premises)
            ]
        elif self.rule == "Weak":
            out["discharged"] = sorted(self.discharged)
            out["premises"] = [{"derivation": self.premises[0].to_json_dict()}]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

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


@dataclass(frozen=True)
class Rejection:
    reason: str  # RootMismatch, LabelSetMismatch, ParticipantEquationFailed,
    #              Unbounded or IgnoredMismatch
    judgment: Judgment
    detail: str
    depth: int = 0  # how far below the queried judgment the failure sits

    def to_json_dict(self) -> dict:
        from .frontend import format_global, format_session

        return {
            "reason": self.reason,
            "global": format_global(self.judgment.global_type),
            "session": format_session(self.judgment.session),
            "ignored": sorted(self.judgment.ignored),
            "detail": self.detail,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def check_participant_equation(
    gi: GlobalGraph, pi: Iterable[str], p: str, q: str, residual: Session
) -> bool:
    """Evaluate (plays(gi) | pi) \\ {p, q} = plays(residual)."""
    return (plays_global(gi) | frozenset(pi)) - {p, q} == participants(residual)


def subsets(pool: Iterable[str]) -> Iterator[frozenset[str]]:
    """All subsets of pool, smallest first, then lexicographic."""
    pool = sorted(pool)
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            yield frozenset(combo)


_Triple = tuple[GlobalGraph, Session, frozenset]


class Typechecker:
    """The decision procedure, with caches that persist across queries."""

    def __init__(self) -> None:
        self.accepted: dict[_Triple, list[tuple[frozenset, Derivation]]] = {}
        self.rejected: dict[_Triple, list[tuple[frozenset, Rejection]]] = {}

    def check(self, g: GlobalGraph, m: Session, ignored: Iterable[str]) -> Derivation | Rejection:
        """A full derivation of the judgment, or the best rejection."""
        result = self._judge(
            minimize_global(g), normalize_session(m), frozenset(ignored), frozenset()
        )
        return result if isinstance(result, Rejection) else result[0]

    def accepts(self, g: GlobalGraph, m: Session, ignored: Iterable[str]) -> bool:
        return isinstance(self.check(g, m, ignored), Derivation)

    def smallest_accepted_subset(
        self, g: GlobalGraph, m: Session, p_set: frozenset
    ) -> frozenset | None:
        """The first subset of p_set (smallest, then lexicographic) that types."""
        return next((sub for sub in subsets(p_set) if self.accepts(g, m, sub)), None)

    # Result of _judge: (Derivation, refs) on success, where refs is the set of
    # hypothesis triples the derivation's Cycle leaves point at; a Rejection
    # otherwise.  A success is reusable under any hypothesis superset of refs;
    # a rejection under any hypothesis subset of the recorded one.

    def _judge(self, g: GlobalGraph, m: Session, p_set: frozenset, hyps: frozenset):
        triple = (g, m, p_set)
        if triple in hyps:
            return Derivation("Cycle", Judgment(g, m, p_set)), frozenset([triple])
        for refs, deriv in self.accepted.get(triple, ()):
            if refs <= hyps:
                return deriv, refs
        for cached_hyps, rej in self.rejected.get(triple, ()):
            if hyps <= cached_hyps:
                return rej
        result = self._decide(g, m, p_set, hyps)
        if isinstance(result, Rejection):
            self.rejected.setdefault(triple, []).append((hyps, result))
        else:
            _, refs = result
            self.accepted.setdefault(triple, []).append((refs, result[0]))
        return result

    def _decide(self, g: GlobalGraph, m: Session, p_set: frozenset, hyps: frozenset):
        judgment = Judgment(g, m, p_set)
        if g.is_end and m.is_null:
            if not p_set:
                return Derivation("End", judgment), frozenset()
            return Rejection(
                "IgnoredMismatch",
                judgment,
                "the null session carries an empty ignored set",
            )
        rejections: list[Rejection] = []
        if g.root_node.kind == COMM:
            result = self._try_comm(judgment, hyps)
            if not isinstance(result, Rejection):
                return result
            rejections.append(result)
        result = self._try_weak(judgment, hyps)
        if not isinstance(result, Rejection):
            return result
        rejections.append(result)
        return max(rejections, key=lambda r: r.depth)

    def _try_comm(self, judgment: Judgment, hyps: frozenset):
        g, m, p_set = judgment.global_type, judgment.session, judgment.ignored
        node = g.root_node
        p, q = node.sender, node.receiver
        labels = node.labels()
        gp = m.get(p)
        if gp is None or gp.root_node.kind != OUT or gp.root_node.partner != q:
            return Rejection(
                "RootMismatch",
                judgment,
                f"the global type wants {p} to send to {q}, but the session has no such pair",
            )
        gq = m.get(q)
        if gq is None or gq.root_node.kind != IN or gq.root_node.partner != p:
            return Rejection(
                "RootMismatch",
                judgment,
                f"the global type wants {q} to receive from {p}, but the session has no such pair",
            )
        if set(gp.root_node.labels()) != set(labels):
            return Rejection(
                "LabelSetMismatch",
                judgment,
                f"{p} sends {sorted(gp.root_node.labels())} but the global type lists {sorted(labels)}",
            )
        if not set(labels) <= set(gq.root_node.labels()):
            return Rejection(
                "LabelSetMismatch",
                judgment,
                f"{q} accepts {sorted(gq.root_node.labels())}, missing some of {sorted(labels)}",
            )
        verdict = bounded(g)
        if not verdict:
            return Rejection(
                "Unbounded",
                judgment,
                f"participant {verdict.witness_participant!r} can be postponed forever "
                f"at node {verdict.witness_node} of the global type",
            )

        residual = m.without((p, q))
        residual_plays = participants(residual)
        hyps2 = hyps | {(g, m, p_set)}
        branch_options: list[list[tuple[frozenset, Derivation, frozenset]]] = []
        best_premise_rej: Rejection | None = None

        for lab in labels:
            target = dict(node.branches)[lab]
            gi = g.at(target)
            mi = communicate(m, p, q, lab)
            plays_gi = plays_global(gi)
            plays_mi = participants(mi)
            base = plays_mi - plays_gi
            candidates = []
            if plays_gi <= plays_mi and base <= p_set:
                for extra in subsets(plays_mi & plays_gi & p_set):
                    pi = base | extra
                    if (plays_gi | pi) - {p, q} == residual_plays:
                        candidates.append(pi)
            if not candidates:
                return Rejection(
                    "ParticipantEquationFailed",
                    judgment,
                    f"branch {lab!r}: no ignored subset can satisfy "
                    f"(plays(G_{lab}) | P_{lab}) \\ {{{p},{q}}} = {sorted(residual_plays)}",
                )
            options = []
            for pi in candidates:
                sub = self._judge(gi, mi, pi, hyps2)
                if isinstance(sub, Rejection):
                    lifted = Rejection(sub.reason, sub.judgment, sub.detail, sub.depth + 1)
                    if best_premise_rej is None or lifted.depth > best_premise_rej.depth:
                        best_premise_rej = lifted
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
            return Rejection(
                "IgnoredMismatch",
                judgment,
                f"no choice of branch ignored sets unions to {sorted(p_set)}",
            )
        premises = tuple(d for _, d, _ in combo)
        refs = frozenset(chain.from_iterable(r for _, _, r in combo)) - {(g, m, p_set)}
        deriv = Derivation("Comm", judgment, premises, tuple(labels))
        return deriv, refs

    @staticmethod
    def _combine(branch_options, p_set: frozenset):
        """Pick one option per branch so the ignored sets union to p_set."""

        def go(idx: int, union: frozenset, acc: list):
            if idx == len(branch_options):
                return list(acc) if union == p_set else None
            remaining_max = union
            for opts in branch_options[idx:]:
                for pi, _, _ in opts:
                    remaining_max = remaining_max | pi
            if not p_set <= remaining_max:
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
        g, m, p_set = judgment.global_type, judgment.session, judgment.ignored
        pool = (participants(m) & p_set) - plays_global(g)
        if not pool:
            return Rejection(
                "IgnoredMismatch",
                judgment,
                "no active ignored participant outside the global type can be split off",
            )
        hyps2 = hyps | {(g, m, p_set)}
        best: Rejection | None = None
        for split in subsets(pool):
            if not split:
                continue
            m1 = normalize_session(m.without(split))
            p1 = p_set - split
            sub = self._judge(g, m1, p1, hyps2)
            if isinstance(sub, Rejection):
                lifted = Rejection(sub.reason, sub.judgment, sub.detail, sub.depth + 1)
                if best is None or lifted.depth > best.depth:
                    best = lifted
                continue
            deriv = Derivation("Weak", judgment, (sub[0],), (), frozenset(split))
            return deriv, sub[1] - {(g, m, p_set)}
        return best


def typecheck(
    global_type: GlobalGraph,
    session: Session,
    ignored: Iterable[str] = (),
) -> Derivation | Rejection:
    """Decide the judgment and return a full derivation or the best rejection."""
    return Typechecker().check(global_type, session, ignored)


def accepts(global_type: GlobalGraph, session: Session, ignored: Iterable[str] = ()) -> bool:
    return isinstance(typecheck(global_type, session, ignored), Derivation)
