"""Global-type inference: goal resolution emitting regular equation systems.

A goal is a triple (session, p-set variable, type variable).  Resolving a
goal nondeterministically applies one of four steps:

* End    -- the session is null: emit X = End and x = {}.
* Cycle  -- the session already occurs in the goal set: unify the variables.
* Comm   -- pick a sender/receiver pair whose output labels are all accepted,
            recurse into every branch with fresh variables, emit the
            communication equation, the union equation and one participant
            condition per branch.
* Weak   -- split off a nonempty set of active participants, recurse on the
            remainder.  Two stacked splits equal one bigger split, so a Weak
            premise never applies Weak again; this keeps every emitted system
            guarded.

The choice tree is enumerated by iterative deepening on derivation size, so
smaller derivations stream out first and every derivation is found
eventually.  Solving a resulting system yields the unique regular tree for
each type variable; p-set systems are solved to their least fixpoint above
condition-derived lower bounds and then verified exactly.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Union

from .analysis import bounded, plays_global
from .semantics import ExploreConfig, communicate, explore, ready_pairs
from .terms import (
    COMM,
    END,
    GNode,
    GlobalGraph,
    Session,
    minimize_global,
    normalize_session,
    participants,
)
from .typecheck import Derivation, subsets, typecheck

log = logging.getLogger(__name__)


class UnguardedEquations(Exception):
    pass


class FreeVariable(Exception):
    pass


class BudgetExhausted(Exception):
    pass


class NoSolutionWithinBudget(Exception):
    pass


@dataclass(frozen=True, order=True)
class TypeVar:
    id: int

    def __str__(self) -> str:
        return f"T{self.id}"


@dataclass(frozen=True, order=True)
class PSetVar:
    id: int

    def __str__(self) -> str:
        return f"t{self.id}"


@dataclass(frozen=True)
class PatEnd:
    pass


@dataclass(frozen=True)
class PatVar:
    var: TypeVar


@dataclass(frozen=True)
class PatComm:
    sender: str
    receiver: str
    branches: tuple[tuple[str, "TypePattern"], ...]


TypePattern = Union[PatEnd, PatVar, PatComm]


@dataclass(frozen=True)
class PSetPattern:
    """A flattened union of literal participants and p-set variables."""

    literals: frozenset[str] = frozenset()
    vars: tuple[PSetVar, ...] = ()


@dataclass(frozen=True)
class PCondition:
    """(plays(typevar) | psetvar) \\ {p, q} must equal target."""

    typevar: TypeVar
    psetvar: PSetVar
    p: str
    q: str
    target: frozenset[str]


@dataclass(frozen=True)
class Substitution:
    types: Mapping[TypeVar, GlobalGraph]
    psets: Mapping[PSetVar, frozenset[str]]


@dataclass(frozen=True)
class InferenceOutcome:
    """One resolved derivation: the emitted systems plus bookkeeping."""

    type_eqs: Mapping[TypeVar, TypePattern]
    pset_eqs: Mapping[PSetVar, PSetPattern]
    conditions: tuple[PCondition, ...]
    root_typevar: TypeVar
    root_psetvar: PSetVar
    goals: tuple[tuple[Session, PSetVar, TypeVar], ...]
    size: int
    weak_count: int


@dataclass(frozen=True)
class SearchBudget:
    max_size: int | None = None  # None: 4 x reachable session count
    max_outcomes: int = 64
    width: int = 256  # alternatives considered per goal
    explore: ExploreConfig = field(default_factory=ExploreConfig)


def default_max_size(s: Session, config: ExploreConfig = ExploreConfig()) -> int:
    return 4 * len(explore(s, config).states)


# ---------------------------------------------------------------------------
# Derivation search.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Piece:
    eqs: tuple
    peqs: tuple
    conds: tuple
    goals: tuple
    size: int
    weaks: int


class _Search:
    def __init__(self, supply: Iterator[int], width: int):
        self.supply = supply
        self.width = width
        self.pruned = False

    def fresh_tv(self) -> TypeVar:
        return TypeVar(next(self.supply))

    def fresh_pv(self) -> PSetVar:
        return PSetVar(next(self.supply))

    def derive(
        self,
        m: Session,
        tv: TypeVar,
        pv: PSetVar,
        goals: tuple,
        budget: int,
        allow_weak: bool,
    ) -> Iterator[_Piece]:
        if budget < 1:
            self.pruned = True
            return
        here = ((m, pv, tv),)
        width_left = self.width

        if m.is_null:
            yield _Piece(
                ((tv, PatEnd()),), ((pv, PSetPattern()),), (), here, 1, 0
            )
            width_left -= 1

        for ms, pv2, tv2 in goals:
            if ms == m:
                if width_left <= 0:
                    self.pruned = True
                    return
                width_left -= 1
                yield _Piece(
                    ((tv, PatVar(tv2)),),
                    ((pv, PSetPattern(frozenset(), (pv2,))),),
                    (),
                    here,
                    1,
                    0,
                )

        goals2 = goals + ((m, pv, tv),)
        for p, q, labels in ready_pairs(m):
            if width_left <= 0:
                self.pruned = True
                return
            width_left -= 1
            residual_plays = participants(m.without((p, q)))
            branch_goals = []
            for lab in labels:
                mi = communicate(m, p, q, lab)
                branch_goals.append((lab, mi, self.fresh_tv(), self.fresh_pv()))
            eq = (
                tv,
                PatComm(p, q, tuple((lab, PatVar(yv)) for lab, _, yv, _ in branch_goals)),
            )
            peq = (pv, PSetPattern(frozenset(), tuple(pw for _, _, _, pw in branch_goals)))
            conds = tuple(
                PCondition(yv, pw, p, q, residual_plays)
                for _, _, yv, pw in branch_goals
            )
            for sub in self.derive_seq(branch_goals, goals2, budget - 1):
                yield _Piece(
                    (eq,) + sub.eqs,
                    (peq,) + sub.peqs,
                    conds + sub.conds,
                    here + sub.goals,
                    1 + sub.size,
                    sub.weaks,
                )

        if allow_weak:
            for split in subsets(participants(m)):
                if not split:
                    continue
                if width_left <= 0:
                    self.pruned = True
                    return
                width_left -= 1
                m1 = normalize_session(m.without(split))
                yv, pw = self.fresh_tv(), self.fresh_pv()
                eq = (tv, PatVar(yv))
                peq = (pv, PSetPattern(split, (pw,)))
                for sub in self.derive(m1, yv, pw, goals, budget - 1, False):
                    yield _Piece(
                        (eq,) + sub.eqs,
                        (peq,) + sub.peqs,
                        sub.conds,
                        here + sub.goals,
                        1 + sub.size,
                        1 + sub.weaks,
                    )

    def derive_seq(self, items: list, goals: tuple, budget: int) -> Iterator[_Piece]:
        if not items:
            yield _Piece((), (), (), (), 0, 0)
            return
        (_, mi, yv, pw), rest = items[0], items[1:]
        for sub in self.derive(mi, yv, pw, goals, budget - len(rest), True):
            for tail in self.derive_seq(rest, goals, budget - sub.size):
                yield _Piece(
                    sub.eqs + tail.eqs,
                    sub.peqs + tail.peqs,
                    sub.conds + tail.conds,
                    sub.goals + tail.goals,
                    sub.size + tail.size,
                    sub.weaks + tail.weaks,
                )


def _relabel(piece: _Piece, tv0: TypeVar, pv0: PSetVar, counter: Iterator[int]) -> InferenceOutcome:
    """Renumber variables so every emitted outcome binds fresh, canonical ids."""
    tmap: dict[TypeVar, TypeVar] = {}
    pmap: dict[PSetVar, PSetVar] = {}

    def see_tv(v: TypeVar) -> TypeVar:
        if v not in tmap:
            tmap[v] = TypeVar(next(counter))
        return tmap[v]

    def see_pv(v: PSetVar) -> PSetVar:
        if v not in pmap:
            pmap[v] = PSetVar(next(counter))
        return pmap[v]

    see_tv(tv0)
    see_pv(pv0)

    def map_pat(pat: TypePattern) -> TypePattern:
        if isinstance(pat, PatVar):
            return PatVar(see_tv(pat.var))
        if isinstance(pat, PatComm):
            return PatComm(
                pat.sender,
                pat.receiver,
                tuple((lab, map_pat(sub)) for lab, sub in pat.branches),
            )
        return pat

    eqs = {}
    for v, pat in piece.eqs:
        eqs[see_tv(v)] = map_pat(pat)
    peqs = {}
    for v, pat in piece.peqs:
        peqs[see_pv(v)] = PSetPattern(pat.literals, tuple(see_pv(w) for w in pat.vars))
    conds = tuple(
        PCondition(see_tv(c.typevar), see_pv(c.psetvar), c.p, c.q, c.target)
        for c in piece.conds
    )
    goals = tuple((m, see_pv(pw), see_tv(yv)) for m, pw, yv in piece.goals)
    return InferenceOutcome(
        eqs, peqs, conds, tmap[tv0], pmap[pv0], goals, piece.size, piece.weaks
    )


def infer(s: Session, budget: SearchBudget = SearchBudget()) -> Iterator[InferenceOutcome]:
    """Enumerate resolution outcomes, smallest derivations first.

    Deterministic for a fixed budget; raises BudgetExhausted only when the
    size cap pruned the tree before anything at all could be emitted.
    """
    m0 = normalize_session(s)
    max_size = budget.max_size
    if max_size is None:
        max_size = default_max_size(m0, budget.explore)
    supply = itertools.count()
    emit_counter = itertools.count()
    emitted = 0
    pruned_any = max_size < 1
    for cap in range(1, max_size + 1):
        search = _Search(supply, budget.width)
        tv0, pv0 = search.fresh_tv(), search.fresh_pv()
        for piece in search.derive(m0, tv0, pv0, (), cap, True):
            if piece.size != cap:
                continue
            yield _relabel(piece, tv0, pv0, emit_counter)
            emitted += 1
            if emitted >= budget.max_outcomes:
                return
        pruned_any = pruned_any or search.pruned
        if not search.pruned and cap > 1:
            # The whole tree fits under this cap; nothing deeper exists.
            return
    if emitted == 0 and pruned_any:
        raise BudgetExhausted(f"no complete derivation within size {max_size}")


# ---------------------------------------------------------------------------
# Solving.
# ---------------------------------------------------------------------------


def solve_type_equations(eqs: Mapping[TypeVar, TypePattern]) -> dict[TypeVar, GlobalGraph]:
    """The unique regular-tree solution of a closed, guarded system."""

    def resolve(v: TypeVar, trail: tuple) -> TypeVar:
        if v not in eqs:
            raise FreeVariable(f"type variable {v} has no equation")
        if v in trail:
            raise UnguardedEquations(
                f"variable cycle {' = '.join(map(str, trail + (v,)))} has no communication"
            )
        pat = eqs[v]
        if isinstance(pat, PatVar):
            return resolve(pat.var, trail + (v,))
        return v

    nodes: list[GNode | None] = []
    var_node: dict[TypeVar, int] = {}

    def node_of_var(v: TypeVar) -> int:
        v = resolve(v, ())
        if v in var_node:
            return var_node[v]
        nid = len(nodes)
        nodes.append(None)
        var_node[v] = nid
        fill(nid, eqs[v])
        return nid

    def place(pat: TypePattern) -> int:
        if isinstance(pat, PatVar):
            return node_of_var(pat.var)
        nid = len(nodes)
        nodes.append(None)
        fill(nid, pat)
        return nid

    def fill(nid: int, pat: TypePattern) -> None:
        if isinstance(pat, PatEnd):
            nodes[nid] = GNode(END, None, None, ())
        else:
            assert isinstance(pat, PatComm)
            branches = tuple(sorted((lab, place(sub)) for lab, sub in pat.branches))
            nodes[nid] = GNode(COMM, pat.sender, pat.receiver, branches)

    for v in eqs:
        node_of_var(v)
    graph_nodes = tuple(nodes)
    out = {}
    for v in eqs:
        root = var_node[resolve(v, ())]
        out[v] = minimize_global(GlobalGraph(graph_nodes, root))
    return out


def _eval_pset(pat: PSetPattern, values: Mapping[PSetVar, frozenset[str]]) -> frozenset[str]:
    out = pat.literals
    for v in pat.vars:
        if v not in values:
            raise FreeVariable(f"p-set variable {v} has no equation")
        out = out | values[v]
    return out


def solve_pset_equations(
    eqs: Mapping[PSetVar, PSetPattern],
    lower_bounds: Mapping[PSetVar, frozenset[str]] | None = None,
) -> dict[PSetVar, frozenset[str]]:
    """Least solution above the given lower bounds, by Kleene iteration."""
    lb = {v: frozenset(lower_bounds.get(v, ())) for v in eqs} if lower_bounds else {
        v: frozenset() for v in eqs
    }
    values = dict(lb)
    changed = True
    while changed:
        changed = False
        for v, pat in eqs.items():
            new = lb[v] | _eval_pset(pat, values)
            if new != values[v]:
                values[v] = new
                changed = True
    return values


def check_agreement(
    theta: Substitution, conditions: Iterable[PCondition]
) -> tuple[bool, PCondition | None]:
    for c in conditions:
        plays = plays_global(theta.types[c.typevar])
        if (plays | theta.psets[c.psetvar]) - {c.p, c.q} != c.target:
            return False, c
    return True, None


def solutions(outcome: InferenceOutcome) -> list[Substitution]:
    """Solve one outcome: zero or one substitution under this strategy.

    Types are solved first and every bound graph must be bounded.  Conditions
    then force lower bounds on the p-set variables (target participants the
    solved type cannot supply); the least p-set solution above those bounds is
    verified against the equations and conditions exactly.
    """
    tsol = solve_type_equations(outcome.type_eqs)
    for v, g in tsol.items():
        if not bounded(g):
            return []
    lb: dict[PSetVar, frozenset[str]] = {v: frozenset() for v in outcome.pset_eqs}
    for c in outcome.conditions:
        missing = c.target - plays_global(tsol[c.typevar])
        lb[c.psetvar] = lb[c.psetvar] | missing
    psol = solve_pset_equations(outcome.pset_eqs, lb)
    for v, pat in outcome.pset_eqs.items():
        if psol[v] != _eval_pset(pat, psol):
            log.debug(
                "outcome rejected at p-set equality verification: %s != its right-hand side",
                v,
            )
            return []
    theta = Substitution(tsol, psol)
    ok, failing = check_agreement(theta, outcome.conditions)
    if not ok:
        log.debug("outcome rejected at agreement verification: condition on %s", failing.typevar)
        return []
    return [theta]


# ---------------------------------------------------------------------------
# Front door: enumerate solved outcomes, pick the minimal one.
# ---------------------------------------------------------------------------


def enumerate_solutions(
    s: Session, budget: SearchBudget = SearchBudget()
) -> Iterator[tuple[InferenceOutcome, Substitution, GlobalGraph, frozenset[str]]]:
    """Solved outcomes with duplicates (same type up to bisimilarity and same
    ignored set) removed."""
    seen: set[tuple[GlobalGraph, frozenset[str]]] = set()
    for outcome in infer(s, budget):
        for theta in solutions(outcome):
            g = theta.types[outcome.root_typevar]
            p = theta.psets[outcome.root_psetvar]
            if (g, p) in seen:
                continue
            seen.add((g, p))
            yield outcome, theta, g, p


def minimal_key(outcome: InferenceOutcome, ignored: frozenset[str]) -> tuple:
    """What "minimal" orders solutions by: fewest ignored participants, then
    fewest Weak steps, then the ignored names."""
    return (len(ignored), outcome.weak_count, tuple(sorted(ignored)))


def infer_minimal(
    s: Session, budget: SearchBudget = SearchBudget()
) -> tuple[GlobalGraph, frozenset[str]]:
    """The solution with the fewest ignored participants within the budget.

    Among equal keys the first solution found wins.
    """
    best = None
    best_key = None
    try:
        for outcome, _, g, p in enumerate_solutions(s, budget):
            key = minimal_key(outcome, p)
            if best_key is None or key < best_key:
                best_key = key
                best = (g, p)
    except BudgetExhausted:
        pass
    if best is None:
        raise NoSolutionWithinBudget("inference found no solution within the budget")
    result = typecheck(best[0], s, best[1])
    if not isinstance(result, Derivation):
        raise RuntimeError(
            "inference produced a solution the checker rejects; this is a bug"
        )
    return best


# ---------------------------------------------------------------------------
# Rendering (the CLI's --show-equations view).
# ---------------------------------------------------------------------------


def _display_names(outcome: InferenceOutcome) -> tuple[dict, dict]:
    tnames = {outcome.root_typevar: "X"}
    pnames = {outcome.root_psetvar: "x"}

    def walk_pat(pat: TypePattern) -> None:
        if isinstance(pat, PatVar):
            tnames.setdefault(pat.var, f"Y{len(tnames)}")
        elif isinstance(pat, PatComm):
            for _, sub in pat.branches:
                walk_pat(sub)

    for v, pat in outcome.type_eqs.items():
        tnames.setdefault(v, f"Y{len(tnames)}")
        walk_pat(pat)
    for v, pat in outcome.pset_eqs.items():
        pnames.setdefault(v, f"y{len(pnames)}")
        for w in pat.vars:
            pnames.setdefault(w, f"y{len(pnames)}")
    return tnames, pnames


def _pset_text(s: Iterable[str]) -> str:
    return "{" + ", ".join(sorted(s)) + "}"


def render_outcome(outcome: InferenceOutcome) -> dict:
    """Equation systems in textual form, e.g. ``X = q->p:hello . Y1``."""
    tnames, pnames = _display_names(outcome)

    def pat_text(pat: TypePattern) -> str:
        if isinstance(pat, PatEnd):
            return "end"
        if isinstance(pat, PatVar):
            return tnames[pat.var]
        parts = []
        for lab, sub in pat.branches:
            if isinstance(sub, PatEnd):
                parts.append(lab)
            else:
                parts.append(f"{lab} . {pat_text(sub)}")
        body = parts[0] if len(parts) == 1 else "{ " + ", ".join(parts) + " }"
        return f"{pat.sender}->{pat.receiver}:{body}"

    type_eqs = [f"{tnames[v]} = {pat_text(pat)}" for v, pat in outcome.type_eqs.items()]
    pset_eqs = []
    for v, pat in outcome.pset_eqs.items():
        pieces = [pnames[w] for w in pat.vars]
        if pat.literals or not pieces:
            pieces.append(_pset_text(pat.literals))
        pset_eqs.append(f"{pnames[v]} = {' ∪ '.join(pieces)}")
    conds = [
        f"cond (plays {tnames[c.typevar]} ∪ {pnames[c.psetvar]}) \\ "
        f"{{{c.p},{c.q}}} = {_pset_text(c.target)}"
        for c in outcome.conditions
    ]
    return {
        "type_equations": type_eqs,
        "pset_equations": pset_eqs,
        "conditions": conds,
        "root": {"type": tnames[outcome.root_typevar], "pset": pnames[outcome.root_psetvar]},
    }
