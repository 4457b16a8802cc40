"""Cross-checks tying the checker, the two semantics and the analyses together.

For an accepted judgment these verify, exhaustively over the finite state
graphs:

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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .analysis import excluded_lock_free, plays_global, top_partner
from .semantics import (
    ExploreConfig,
    global_successor,
    global_transitions,
    reduce,
    session_transitions,
)
from .terms import (
    GlobalGraph,
    Session,
    minimize_global,
    normalize_session,
    participants,
)
from .typecheck import Derivation, Rejection, Typechecker


@dataclass
class Violation:
    check: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.detail}"


def check_subject_reduction(
    g: GlobalGraph,
    m: Session,
    ignored,
    checker: Typechecker | None = None,
) -> list[Violation]:
    """Walk the reachable states, threading a typed judgment along each edge."""
    checker = checker or Typechecker()
    g = minimize_global(g)
    m = normalize_session(m)
    p0 = frozenset(ignored)
    out: list[Violation] = []
    if not checker.accepts(g, m, p0):
        return [Violation("subject-reduction", "the root judgment is not derivable")]
    seen = {(g, m, p0)}
    stack = [(g, m, p0)]
    while stack:
        g1, m1, p1 = stack.pop()
        gplays = plays_global(g1)
        for lab, m2 in session_transitions(m1):
            pq = lab.plays
            if pq <= gplays:
                g2 = global_successor(g1, lab)
                if g2 is None:
                    out.append(
                        Violation(
                            "subject-reduction",
                            f"session step {lab} has no matching global step",
                        )
                    )
                    continue
            elif pq.isdisjoint(gplays):
                g2 = g1
            else:
                out.append(
                    Violation(
                        "subject-reduction",
                        f"step {lab}: exactly one endpoint occurs in the global type",
                    )
                )
                continue
            p2 = checker.smallest_accepted_subset(g2, m2, p1)
            if p2 is None:
                out.append(
                    Violation(
                        "subject-reduction",
                        f"after step {lab}: no ignored subset of {sorted(p1)} re-types the session",
                    )
                )
                continue
            key = (g2, m2, p2)
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return out


def check_session_fidelity(
    g: GlobalGraph,
    m: Session,
    ignored,
    checker: Typechecker | None = None,
) -> list[Violation]:
    checker = checker or Typechecker()
    g = minimize_global(g)
    m = normalize_session(m)
    p0 = frozenset(ignored)
    out: list[Violation] = []
    if not checker.accepts(g, m, p0):
        return [Violation("session-fidelity", "the root judgment is not derivable")]
    seen = {(g, m, p0)}
    stack = [(g, m, p0)]
    while stack:
        g1, m1, p1 = stack.pop()
        for lab, g2 in global_transitions(g1):
            m2 = reduce(m1, lab)
            if m2 is None:
                out.append(
                    Violation(
                        "session-fidelity",
                        f"global step {lab} cannot be taken by the session",
                    )
                )
                continue
            p2 = checker.smallest_accepted_subset(g2, m2, p1)
            if p2 is None:
                out.append(
                    Violation(
                        "session-fidelity",
                        f"after global step {lab}: no ignored subset of {sorted(p1)} re-types",
                    )
                )
                continue
            key = (g2, m2, p2)
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return out


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


@dataclass
class SuiteReport:
    combos: list[dict] = field(default_factory=list)

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
    violations = []
    violations += check_plays_equation(result)
    violations += check_top_partner_closure(g, normalize_session(m), ignored)
    violations += check_subject_reduction(g, m, ignored, checker)
    violations += check_session_fidelity(g, m, ignored, checker)
    violations += check_lock_freedom_soundness(g, m, ignored, config)
    violations += check_replacement(g, m, ignored, rng, checker=checker)
    return True, violations


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
                rng = random.Random(seed)
                accepted, violations = run_suite(g, m, pset, rng, checker, config)
                entry = {
                    "global": gname,
                    "session": sname,
                    "ignored": sorted(pset),
                    "accepted": accepted,
                    "violations": [str(v) for v in violations],
                }
                if not accepted:
                    rej = checker.check(g, m, pset)
                    entry["rejection"] = rej.reason
                report.combos.append(entry)
    return report
