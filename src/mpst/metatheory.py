"""Cross-checks tying the checker, the two semantics and the analyses together.

For an accepted judgment these verify:

* subject reduction  -- every session step is matched by the global type
  (when both communicating participants occur in it) or leaves the judgment
  intact (when neither does), with a no-larger ignored set;
* session fidelity   -- every global step can be taken by the session,
  re-typed at the successor;
* lock-freedom       -- the session is excluded-lock-free for the judgment's
  ignored set;
* the participant accounting equation plays(G) | P = plays(M) at every
  derivation node, the top-partner closure, and stability of typing under
  replacement of processes the global type does not mention.

The first two walk the reachable typed triples (G, M, P) breadth first, up to
the state budget (``--max-states``), and raise StateLimitExceeded past it: a
session has finitely many states, but the global types reachable from
independent loops need not be finite in number.
"""

from __future__ import annotations

import random

from .analysis import excluded_lock_free, plays_global, top_partner
from .semantics import ExploreConfig, closure, global_successor, global_transitions
from .terms import (
    GlobalGraph,
    Session,
    _Value,
    minimize_global,
    normalize_session,
    participants,
)
from .typecheck import Derivation, Rejection, Typechecker


class _Record(_Value):
    """A value whose fields may be assigned, and so has no hash."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


class Violation(_Record):
    __slots__ = ("check", "detail")

    def __init__(self, check: str, detail: str) -> None:
        self._set(check, detail)

    def __str__(self) -> str:
        return f"[{self.check}] {self.detail}"


def _session_steps(space, g: GlobalGraph, s: int, p: frozenset):
    """Subject reduction's edges: each session step and the global step matching it.

    Yields (label, (G', successor id) or None, why), where why says what went
    wrong if the step has no successor or no ignored subset re-types it.
    """
    gplays = plays_global(g)
    for lab, t in space.transitions(s):
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
        yield lab, (g2, t), f"after step {lab}: no ignored subset of {sorted(p)} re-types the session"


def _global_steps(space, g: GlobalGraph, s: int, p: frozenset):
    """Session fidelity's edges: each global step, taken by the session."""
    for lab, g2 in global_transitions(g):
        t = dict(space.moves(s, lab.sender, lab.receiver)).get(lab)
        if t is None:
            yield lab, None, f"global step {lab} cannot be taken by the session"
        else:
            yield lab, (g2, t), f"after global step {lab}: no ignored subset of {sorted(p)} re-types"


def _replay(check, steps, g, m, ignored, checker, config) -> list[Violation]:
    """Close the accepted triple (G, M, P) under steps, re-typing every successor.

    The triples hold state ids of the checker's space of M.  Each step that
    fails, or whose successor no subset of P re-types, is a violation; the
    walk raises StateLimitExceeded past config's budget.
    """
    checker = checker or Typechecker()
    g, p0 = minimize_global(g), frozenset(ignored)
    if not checker.accepts(g, m, p0):
        return [Violation(check, "the root judgment is not derivable")]
    space, s0 = checker.locate(m)
    out: list[Violation] = []

    def successors(triple):
        _, _, p1 = triple
        for lab, succ, why in steps(space, *triple):
            p2 = None if succ is None else checker.smallest_accepted_subset(succ[0], space.session(succ[1]), p1)
            if p2 is None:
                out.append(Violation(check, why))
            else:
                yield lab, (*succ, p2)

    closure((g, s0, p0), successors, config)
    return out


def check_subject_reduction(
    g: GlobalGraph,
    m: Session,
    ignored,
    checker: Typechecker | None = None,
    config: ExploreConfig = ExploreConfig(),
) -> list[Violation]:
    """Walk the reachable states, threading a typed judgment along each session step."""
    return _replay("subject-reduction", _session_steps, g, m, ignored, checker, config)


def check_session_fidelity(
    g: GlobalGraph,
    m: Session,
    ignored,
    checker: Typechecker | None = None,
    config: ExploreConfig = ExploreConfig(),
) -> list[Violation]:
    """Walk the reachable states, threading a typed judgment along each global step."""
    return _replay("session-fidelity", _global_steps, g, m, ignored, checker, config)


def check_lock_freedom_soundness(
    g: GlobalGraph, m: Session, ignored, config: ExploreConfig = ExploreConfig()
) -> list[Violation]:
    verdict = excluded_lock_free(m, frozenset(ignored), config)
    if verdict.holds:
        return []
    return [
        Violation(
            "lock-freedom",
            f"typed session is not lock-free for {sorted(frozenset(ignored))}: "
            f"participant {verdict.witness_participant} locked in state {verdict.witness_state}",
        )
    ]


def check_plays_equation(derivation: Derivation) -> list[Violation]:
    out = []
    for node in derivation.iter_nodes():
        j = node.judgment
        lhs = plays_global(j.global_type) | j.ignored
        rhs = participants(j.session)
        if lhs != rhs:
            out.append(
                Violation(
                    "plays-equation",
                    f"plays(G) | P = {sorted(lhs)} but plays(M) = {sorted(rhs)} at a {node.rule} node",
                )
            )
    return out


def check_top_partner_closure(g: GlobalGraph, m: Session, ignored) -> list[Violation]:
    out = []
    gplays = plays_global(g)
    for p in sorted(gplays & participants(m)):
        partner = top_partner(m, p)
        if partner is None or partner not in gplays:
            out.append(
                Violation(
                    "top-partner",
                    f"{p} occurs in the global type but its top partner {partner!r} does not",
                )
            )
    return out


def check_replacement(
    g: GlobalGraph,
    m: Session,
    ignored,
    rng: random.Random,
    samples: int = 3,
    checker: Typechecker | None = None,
) -> list[Violation]:
    """Processes of participants outside plays(G) can be swapped freely."""
    from .random_sessions import random_process

    checker = checker or Typechecker()
    g = minimize_global(g)
    m = normalize_session(m)
    p0 = frozenset(ignored)
    out: list[Violation] = []
    outside = sorted(participants(m) - plays_global(g))
    pool = sorted(participants(m) | plays_global(g))
    for p in outside:
        for _ in range(samples):
            repl = random_process(rng, [x for x in pool if x != p] or ["z"])
            m2 = normalize_session(m.replace(p, repl))
            acceptable = checker.smallest_accepted_subset(g, m2, p0)
            if acceptable is None:
                out.append(
                    Violation(
                        "replacement",
                        f"swapping the process of {p} broke typability for every subset of {sorted(p0)}",
                    )
                )
    return out


class SuiteReport(_Record):
    __slots__ = ("combos",)

    def __init__(self, combos: list[dict] | None = None) -> None:
        self._set([] if combos is None else combos)

    @property
    def violations(self) -> list[str]:
        out = []
        for combo in self.combos:
            out.extend(combo["violations"])
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "combos": self.combos}


def run_suite(
    g: GlobalGraph,
    m: Session,
    ignored,
    rng: random.Random,
    checker: Typechecker | None = None,
    config: ExploreConfig = ExploreConfig(),
) -> tuple[bool, list[Violation]]:
    """Run every check against one judgment; (accepted, violations)."""
    checker = checker or Typechecker()
    result = checker.check(g, m, ignored)
    if isinstance(result, Rejection):
        return False, []
    return True, _violations(result, g, m, ignored, rng, checker, config)


def _violations(result: Derivation, g, m, ignored, rng, checker, config) -> list[Violation]:
    """The violations of every check against the judgment derived as result."""
    violations = []
    violations += check_plays_equation(result)
    violations += check_top_partner_closure(g, normalize_session(m), ignored)
    violations += check_subject_reduction(g, m, ignored, checker, config)
    violations += check_session_fidelity(g, m, ignored, checker, config)
    violations += check_lock_freedom_soundness(g, m, ignored, config)
    violations += check_replacement(g, m, ignored, rng, checker=checker)
    return violations


def run_file_suite(spec, seed: int = 0, config: ExploreConfig = ExploreConfig()) -> SuiteReport:
    """Try every global/session/ignored combination defined in a file."""
    report = SuiteReport()
    checker = Typechecker()
    ignored_choices: dict[str, frozenset] = {"{}": frozenset()}
    for name, pset in spec.ignored_sets.items():
        ignored_choices[name] = pset
    for gname, g in spec.globals.items():
        for sname, m in spec.sessions.items():
            for iname, pset in ignored_choices.items():
                result = checker.check(g, m, pset)
                entry = {
                    "global": gname,
                    "session": sname,
                    "ignored": sorted(pset),
                    "accepted": isinstance(result, Derivation),
                    "violations": [],
                }
                if entry["accepted"]:
                    violations = _violations(result, g, m, pset, random.Random(seed), checker, config)
                    entry["violations"] = [str(v) for v in violations]
                else:
                    entry["rejection"] = result.reason
                report.combos.append(entry)
    return report
