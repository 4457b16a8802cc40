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

An ``infer`` call walks one SessionSpace, shared by every size cap: goals
hold its state ids, so the Cycle test compares ints, and sessions are built
only for the goals of emitted outcomes.  At budget 1 every Comm or Weak
premise would get budget 0 and derive nothing, so the search only marks the
cap as pruned when such a premise exists, which is all entering it would do.
Each outcome is solved on its own equation graph: one refinement gives the
root's canonical graph, every variable the root reaches is a subgraph kept
on it, and boundedness runs once on it.  ``enumerate_solutions`` interns the
root graphs it solves, so what is memoized on one is computed once per
distinct graph of an enumeration.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Union

from .analysis import bounded, plays_global
from .semantics import ExploreConfig, SessionSpace, closure
from .terms import COMM, END, GlobalGraph, GNode, Session, minimize_global
from .typecheck import Derivation, typecheck


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

    def __hash__(self) -> int:
        return hash(self.id)

    def __str__(self) -> str:
        return f"T{self.id}"


@dataclass(frozen=True, order=True)
class PSetVar:
    id: int

    def __hash__(self) -> int:
        return hash(self.id)

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
    explore: ExploreConfig = field(default_factory=ExploreConfig)


def default_max_size(space: SessionSpace, config: ExploreConfig = ExploreConfig()) -> int:
    """Four times the number of states Comm reaches from the space's start."""
    return 4 * len(closure(space.start, space.transitions, config)[0])


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


_WIDTH = 256  # alternatives considered per goal


class _Search:
    """One infer call's search: the fresh-variable supply, the session space
    shared by every size cap, and whether the current cap cut a premise
    short.  Goals hold state ids of the space."""

    def __init__(self, space: SessionSpace):
        self.supply = itertools.count()
        self.space = space
        self.pruned = False

    def fresh_tv(self) -> TypeVar:
        return TypeVar(next(self.supply))

    def fresh_pv(self) -> PSetVar:
        return PSetVar(next(self.supply))

    def derive(
        self,
        m: int,
        tv: TypeVar,
        pv: PSetVar,
        goals: tuple,
        budget: int,
        allow_weak: bool,
    ) -> Iterator[_Piece]:
        here = ((m, pv, tv),)
        width_left = _WIDTH
        plays = self.space.plays(m)

        if not plays:
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

        pairs = self.space.comms(m)
        if budget == 1:
            # Every Comm or Weak premise would get budget 0 and derive
            # nothing; all that entering one does is mark the cap pruned.
            if pairs or (allow_weak and plays):
                self.pruned = True
            return

        goals2 = goals + ((m, pv, tv),)
        for succ in pairs:
            if width_left <= 0:
                self.pruned = True
                return
            width_left -= 1
            p, q = succ[0][0].sender, succ[0][0].receiver
            residual_plays = plays - {p, q}
            branch_goals = [(lab.message, mi, self.fresh_tv(), self.fresh_pv()) for lab, mi in succ]
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
            for i in range((1 << len(plays)) - 1):
                if width_left <= 0:
                    self.pruned = True
                    return
                width_left -= 1
                split, m1 = self.space.split(m, i)
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
        if budget < len(items):
            # Every premise needs a budget of 1 at least, so derive never
            # gets less: the cap cuts this sequence short.
            self.pruned = True
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


def _relabel(
    piece: _Piece, tv0: TypeVar, pv0: PSetVar, counter: Iterator[int], space: SessionSpace
) -> InferenceOutcome:
    """Renumber variables so every emitted outcome binds fresh, canonical ids,
    and give each goal its session."""
    renamed: dict = {}  # old variable -> new one of the same kind

    def see(v):
        if v not in renamed:
            renamed[v] = type(v)(next(counter))
        return renamed[v]

    see(tv0)
    see(pv0)

    def map_pat(pat: TypePattern) -> TypePattern:
        if isinstance(pat, PatVar):
            return PatVar(see(pat.var))
        if isinstance(pat, PatComm):
            return PatComm(
                pat.sender,
                pat.receiver,
                tuple((lab, map_pat(sub)) for lab, sub in pat.branches),
            )
        return pat

    eqs = {see(v): map_pat(pat) for v, pat in piece.eqs}
    peqs = {see(v): PSetPattern(pat.literals, tuple(map(see, pat.vars))) for v, pat in piece.peqs}
    conds = tuple(PCondition(see(c.typevar), see(c.psetvar), c.p, c.q, c.target) for c in piece.conds)
    goals = tuple((space.session(m), see(pw), see(yv)) for m, pw, yv in piece.goals)
    return InferenceOutcome(eqs, peqs, conds, renamed[tv0], renamed[pv0], goals, piece.size, piece.weaks)


def infer(s: Session, budget: SearchBudget = SearchBudget()) -> Iterator[InferenceOutcome]:
    """Enumerate resolution outcomes, smallest derivations first.

    Deterministic for a fixed budget; raises BudgetExhausted only when the
    size cap pruned the tree before anything at all could be emitted.
    """
    space = SessionSpace(s)
    max_size = budget.max_size
    if max_size is None:
        max_size = default_max_size(space, budget.explore)
    search = _Search(space)
    emit_counter = itertools.count()
    emitted = 0
    pruned_any = max_size < 1
    for cap in range(1, max_size + 1):
        search.pruned = False
        tv0, pv0 = search.fresh_tv(), search.fresh_pv()
        for piece in search.derive(space.start, tv0, pv0, (), cap, True):
            if piece.size != cap:
                continue
            yield _relabel(piece, tv0, pv0, emit_counter, space)
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


def _solve(
    eqs: Mapping[TypeVar, TypePattern],
    root: TypeVar,
    interned: dict[GlobalGraph, GlobalGraph] | None = None,
) -> tuple[list[GlobalGraph], dict[TypeVar, GlobalGraph]]:
    """The graphs whose subterms are all the solutions, and every variable's.

    One refinement of the system's graph (End at node 0, one node per
    PatComm, an alias at the end of its chain) gives root's canonical graph,
    replaced by its instance in ``interned``; a variable it reaches is solved
    as ``at`` of it, kept on it, and any other on a graph of its own."""
    heads: list = [None]  # the PatComm behind each node, placed in order

    def place(pat: TypePattern) -> int | TypeVar:
        if isinstance(pat, PatComm):
            heads.append(pat)
            return len(heads) - 1
        return 0 if isinstance(pat, PatEnd) else pat.var

    first = {v: place(pat) for v, pat in eqs.items()}

    def resolve(ref: int | TypeVar) -> int:
        trail = set()
        while not isinstance(ref, int):
            if ref not in first:
                raise FreeVariable(f"type variable {ref} has no equation")
            if ref in trail:
                raise UnguardedEquations(f"type variable {ref} is bound to itself without any communication")
            trail.add(ref)
            ref = first[ref]
        return ref

    at = {v: resolve(ref) for v, ref in first.items()}
    nodes = [GNode(END, None, None, ())]
    while len(nodes) < len(heads):  # heads grows while nested patterns are placed
        pat = heads[len(nodes)]
        branches = tuple(sorted((lab, resolve(place(sub))) for lab, sub in pat.branches))
        nodes.append(GNode(COMM, pat.sender, pat.receiver, branches))
    g = GlobalGraph(tuple(nodes), resolve(root))
    canon = minimize_global(g)
    if interned is not None:
        canon = interned.setdefault(canon, canon)
    # A walk of g beside its canonical form finds the block of each node.
    block = {g.root: canon.root}
    todo = [g.root]
    while todo:
        i = todo.pop()
        targets = dict(canon.nodes[block[i]].branches)
        for lab, t in g.nodes[i].branches:
            if t not in block:
                block[t] = targets[lab]
                todo.append(t)
    roots = [canon]
    types = {}
    for v, k in at.items():
        if k in block:
            types[v] = canon.at(block[k])
        else:
            types[v] = minimize_global(GlobalGraph(g.nodes, k))
            roots.append(types[v])
    return roots, types


def solve_type_equations(eqs: Mapping[TypeVar, TypePattern]) -> dict[TypeVar, GlobalGraph]:
    """The unique regular-tree solution of a closed, guarded system."""
    return _solve(eqs, next(iter(eqs)))[1] if eqs else {}


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
    """Least solution above the given lower bounds: each equation is
    evaluated once, in order, and again only when a variable it reads grows."""
    values = {v: frozenset(lower_bounds.get(v, ())) if lower_bounds else frozenset() for v in eqs}
    readers: dict[PSetVar, list[PSetVar]] = {}
    for v, pat in eqs.items():
        for w in pat.vars:
            readers.setdefault(w, []).append(v)
    todo = deque(eqs)
    while todo:
        v = todo.popleft()
        new = values[v] | _eval_pset(eqs[v], values)
        if new != values[v]:
            values[v] = new
            todo.extend(readers.get(v, ()))
    return values


def check_agreement(
    theta: Substitution, conditions: Iterable[PCondition]
) -> tuple[bool, PCondition | None]:
    for c in conditions:
        plays = plays_global(theta.types[c.typevar])
        if (plays | theta.psets[c.psetvar]) - {c.p, c.q} != c.target:
            return False, c
    return True, None


def solutions(
    outcome: InferenceOutcome, *, interned: dict[GlobalGraph, GlobalGraph] | None = None
) -> list[Substitution]:
    """Solve one outcome: zero or one substitution under this strategy.

    Types are solved first and every bound graph must be bounded.  Conditions
    then force lower bounds on the p-set variables (target participants the
    solved type cannot supply); the least p-set solution above those bounds is
    verified against the equations and conditions exactly.

    The system is solved on its own equation graph, and boundedness runs on
    the root's graph, which covers every subterm, and on the graph of any
    variable the root does not reach.

    ``interned`` maps each root graph solved so far to its first equal
    instance; the root is replaced by it, so the analyses and subgraphs
    memoized on a graph are computed once per distinct graph across the
    outcomes that share the table.
    """
    roots, tsol = _solve(outcome.type_eqs, outcome.root_typevar, interned)
    if not all(bounded(g) for g in roots):
        return []
    lb: dict[PSetVar, frozenset[str]] = {v: frozenset() for v in outcome.pset_eqs}
    for c in outcome.conditions:
        missing = c.target - plays_global(tsol[c.typevar])
        lb[c.psetvar] = lb[c.psetvar] | missing
    psol = solve_pset_equations(outcome.pset_eqs, lb)
    if any(psol[v] != _eval_pset(pat, psol) for v, pat in outcome.pset_eqs.items()):
        return []
    theta = Substitution(tsol, psol)
    return [theta] if check_agreement(theta, outcome.conditions)[0] else []


# ---------------------------------------------------------------------------
# Front door: enumerate solved outcomes, pick the minimal one.
# ---------------------------------------------------------------------------

Solved = tuple[InferenceOutcome, Substitution, GlobalGraph, frozenset[str]]


def enumerate_solutions(s: Session, budget: SearchBudget = SearchBudget()) -> Iterator[Solved]:
    """Solved outcomes with duplicates (same type up to bisimilarity and same
    ignored set) removed."""
    seen: set[tuple[GlobalGraph, frozenset[str]]] = set()
    interned: dict[GlobalGraph, GlobalGraph] = {}
    for outcome in infer(s, budget):
        for theta in solutions(outcome, interned=interned):
            g = theta.types[outcome.root_typevar]
            p = theta.psets[outcome.root_psetvar]
            if (g, p) in seen:
                continue
            seen.add((g, p))
            yield outcome, theta, g, p


def solved(s: Session, budget: SearchBudget = SearchBudget()) -> list[Solved]:
    """All of enumerate_solutions; none when the size cap cut every derivation."""
    try:
        return list(enumerate_solutions(s, budget))
    except BudgetExhausted:
        return []


def minimal_key(outcome: InferenceOutcome, ignored: frozenset[str]) -> tuple:
    """What "minimal" orders solutions by: fewest ignored participants, then
    fewest Weak steps, then the ignored names."""
    return (len(ignored), outcome.weak_count, tuple(sorted(ignored)))


def pick_minimal(s: Session, found: list[Solved]) -> Solved | None:
    """The entry of found with the least minimal_key, the first among equals,
    re-checked through typecheck; None when found is empty."""
    if not found:
        return None
    best = min(found, key=lambda entry: minimal_key(entry[0], entry[3]))
    if not isinstance(typecheck(best[2], s, best[3]), Derivation):
        raise RuntimeError("inference produced a solution the checker rejects; this is a bug")
    return best


def infer_minimal(
    s: Session, budget: SearchBudget = SearchBudget()
) -> tuple[GlobalGraph, frozenset[str]]:
    """The solution with the fewest ignored participants within the budget."""
    best = pick_minimal(s, solved(s, budget))
    if best is None:
        raise NoSolutionWithinBudget("inference found no solution within the budget")
    return best[2], best[3]


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
