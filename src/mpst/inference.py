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

The search and the solver keep plain data.  A call walks one SessionSpace,
whose Comm closure runs under the state budget first, and goals hold its
state ids.  A variable is an int of the call's supply; a derivation is a
tuple of type equations (variable, pattern), a pattern being None for End, a
variable, or (sender, receiver, ((label, variable), ...)); p-set equations
(variable, (literals, variables)); conditions (type variable, p-set
variable, p, q, target); goals (state, p-set variable, type variable); size
and Weak count.  A premise at budget 1 can only end or close a cycle, so it
is decided where it is entered, without a generator.
Public objects are made in ``_relabel`` only, which numbers the variables
from a counter shared by the call in order of first occurrence; every
derivation advances the counter by its number of equations, one per
variable.  ``infer`` relabels each derivation, or with ``raw`` yields it
unnumbered with the id its first variable is given.
The answers come from one raw pass (``_answers``): each derivation is
placed on the call's solving table and keyed by its canonical root type and
its root p-set in the least solution, both read before any p-set is solved;
boundedness, the least p-set solution and its exact verification run for a
new key only.  ``enumerate_solutions`` relabels each answer it yields, so
each outcome keeps the ids ``infer`` gives it.  ``chosen`` keeps every
answer or a running least ``minimal_key`` over them, and makes an answer's
outcome only when it is shown.  The table keys each equation graph by its
nodes, (sender, receiver, branches) with aliases resolved, and its root; a
new key alone is built and refined, and the table keeps its canonical
graph, interned, with each node's block.  Public outcomes (``solutions``)
and ``solve_type_equations`` flatten into the same solver.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .analysis import _tables, bounded
from .semantics import ExploreConfig, SessionSpace, closure, subsets
from .terms import COMM, END, GlobalGraph, GNode, Session, _Ordered, _Value, minimize_global
from .typecheck import Derivation, typecheck


class UnguardedEquations(Exception):
    pass


class FreeVariable(Exception):
    pass


class BudgetExhausted(Exception):
    pass


class NoSolutionWithinBudget(Exception):
    pass


class TypeVar(_Ordered):
    __slots__ = ("id",)

    def __init__(self, id: int) -> None:
        self._set(id)

    def __hash__(self) -> int:
        return hash(self.id)

    def __str__(self) -> str:
        return f"T{self.id}"


class PSetVar(_Ordered):
    __slots__ = ("id",)

    def __init__(self, id: int) -> None:
        self._set(id)

    def __hash__(self) -> int:
        return hash(self.id)

    def __str__(self) -> str:
        return f"t{self.id}"


class PatEnd(_Value):
    __slots__ = ()


class PatVar(_Value):
    __slots__ = ("var",)

    def __init__(self, var: TypeVar) -> None:
        self._set(var)


class PatComm(_Value):
    __slots__ = ("sender", "receiver", "branches")

    def __init__(self, sender: str, receiver: str, branches: tuple[tuple[str, "TypePattern"], ...]) -> None:
        self._set(sender, receiver, branches)


TypePattern = Union[PatEnd, PatVar, PatComm]


class PSetPattern(_Value):
    """A flattened union of literal participants and p-set variables."""

    __slots__ = ("literals", "vars")

    def __init__(self, literals: frozenset[str] = frozenset(), vars: tuple[PSetVar, ...] = ()) -> None:
        self._set(literals, vars)


class PCondition(_Value):
    """(plays(typevar) | psetvar) \\ {p, q} must equal target."""

    __slots__ = ("typevar", "psetvar", "p", "q", "target")

    def __init__(self, typevar: TypeVar, psetvar: PSetVar, p: str, q: str, target: frozenset[str]) -> None:
        self._set(typevar, psetvar, p, q, target)


class Substitution(_Value):
    __slots__ = ("types", "psets")

    def __init__(self, types: Mapping[TypeVar, GlobalGraph], psets: Mapping[PSetVar, frozenset[str]]) -> None:
        self._set(types, psets)


class InferenceOutcome(_Value):
    """One resolved derivation: the emitted systems plus bookkeeping."""

    __slots__ = ("type_eqs", "pset_eqs", "conditions", "root_typevar", "root_psetvar", "goals", "size", "weak_count")

    def __init__(
        self,
        type_eqs: Mapping[TypeVar, TypePattern],
        pset_eqs: Mapping[PSetVar, PSetPattern],
        conditions: tuple[PCondition, ...],
        root_typevar: TypeVar,
        root_psetvar: PSetVar,
        goals: tuple[tuple[Session, PSetVar, TypeVar], ...],
        size: int,
        weak_count: int,
    ) -> None:
        self._set(type_eqs, pset_eqs, conditions, root_typevar, root_psetvar, goals, size, weak_count)


class SearchBudget(_Value):
    __slots__ = ("max_size", "max_outcomes", "explore")

    def __init__(
        self,
        max_size: int | None = None,  # None: 4 x reachable session count
        max_outcomes: int = 64,
        explore: ExploreConfig = ExploreConfig(),  # immutable, so one default serves every budget
    ) -> None:
        self._set(max_size, max_outcomes, explore)


# ---------------------------------------------------------------------------
# Derivation search.
# ---------------------------------------------------------------------------


_WIDTH = 256  # alternatives considered per goal
_NO_NAMES: frozenset[str] = frozenset()


def _leaf(m: int, tv: int, pv: int, pat: int | None, pvars: tuple) -> tuple:
    """The derivation of goal (m, pv, tv) by one End or Cycle step."""
    return (((tv, pat),), ((pv, (_NO_NAMES, pvars)),), (), ((m, pv, tv),), 1, 0)


class _Search:
    """One infer call's search: the fresh-variable supply, the session space
    and each state's Weak splits, shared by every size cap, and whether the
    current cap cut a premise short.  Goals hold state ids of the space."""

    def __init__(self, s: Session):
        self.supply = itertools.count()
        self.space = SessionSpace(s)
        self.splits: dict[int, list[tuple[frozenset[str], int]]] = {}
        self.pruned = False

    def derivations(self, budget: SearchBudget) -> Iterator[tuple]:
        """The complete derivations of the start, smallest first, at most
        max_outcomes of them; raises BudgetExhausted only when the size cap
        pruned the tree before any was found."""
        space = self.space
        reachable = len(closure(space.start, space.transitions, budget.explore)[0])
        max_size = 4 * reachable if budget.max_size is None else budget.max_size
        emitted = 0
        pruned_any = max_size < 1
        for cap in range(1, max_size + 1):
            self.pruned = False
            tv0, pv0 = next(self.supply), next(self.supply)
            for piece in self.premise(space.start, tv0, pv0, (), cap, True):
                if piece[4] != cap:
                    continue
                yield piece
                emitted += 1
                if emitted >= budget.max_outcomes:
                    return
            pruned_any = pruned_any or self.pruned
            if not self.pruned and cap > 1:
                # The whole tree fits under this cap; nothing deeper exists.
                return
        if emitted == 0 and pruned_any:
            raise BudgetExhausted(f"no complete derivation within size {max_size}")

    def ends(self, m: int, goals: tuple) -> list:
        """The End and Cycle steps of a goal at state m, as the (type pattern,
        p-set variables) each binds it to, within the width."""
        out = [] if self.space.plays(m) else [(None, ())]
        for ms, pv2, tv2 in goals:
            if ms == m:
                if len(out) >= _WIDTH:
                    self.pruned = True
                    break
                out.append((tv2, (pv2,)))
        return out

    def dead(self, m: int, goals: tuple, allow_weak: bool) -> list:
        """The steps of a premise at budget 1: End and Cycle.  A Comm or Weak
        step would give its own premise budget 0, which derives nothing, so
        all it does is mark the cap pruned; once the cap is pruned, there is
        nothing left to look up."""
        if not self.pruned and (self.space.comms(m) or (allow_weak and self.space.plays(m))):
            self.pruned = True
        return self.ends(m, goals)

    def premise(self, m: int, tv: int, pv: int, goals: tuple, budget: int, allow_weak: bool) -> Iterable[tuple]:
        """The derivations of goal (m, pv, tv) within budget; at budget 1,
        decided at once, without a generator."""
        if budget > 1:
            return self.derive(m, tv, pv, goals, budget, allow_weak)
        return [_leaf(m, tv, pv, *leaf) for leaf in self.dead(m, goals, allow_weak)]

    def derive(
        self, m: int, tv: int, pv: int, goals: tuple, budget: int, allow_weak: bool
    ) -> Iterator[tuple]:
        leaves = self.ends(m, goals)
        for leaf in leaves:
            yield _leaf(m, tv, pv, *leaf)
        # When the ends used up the width, each loop below stops at once.
        width_left = _WIDTH - len(leaves)
        here = ((m, pv, tv),)
        goals2 = goals + here
        plays = self.space.plays(m)
        for succ in self.space.comms(m):
            if width_left <= 0:
                self.pruned = True
                return
            width_left -= 1
            p, q = succ[0][0].sender, succ[0][0].receiver
            residual_plays = plays - {p, q}
            items = [(lab.message, mi, next(self.supply), next(self.supply)) for lab, mi in succ]
            eq = (tv, (p, q, tuple((lab, yv) for lab, _, yv, _ in items)))
            peq = (pv, (_NO_NAMES, tuple(pw for _, _, _, pw in items)))
            conds = tuple((yv, pw, p, q, residual_plays) for _, _, yv, pw in items)
            for sub in self.derive_seq(items, goals2, budget - 1):
                yield ((eq,) + sub[0], (peq,) + sub[1], conds + sub[2], here + sub[3], 1 + sub[4], sub[5])

        if allow_weak:
            if m not in self.splits:
                # A goal takes at most _WIDTH splits; one more shows the cut.
                firsts = itertools.islice(subsets(plays), 1, _WIDTH + 2)
                self.splits[m] = [(split, self.space.without(m, split)) for split in firsts]
            for split, m1 in self.splits[m]:
                if width_left <= 0:
                    self.pruned = True
                    return
                width_left -= 1
                yv, pw = next(self.supply), next(self.supply)
                eq, peq = (tv, yv), (pv, (split, (pw,)))
                for sub in self.premise(m1, yv, pw, goals, budget - 1, False):
                    yield ((eq,) + sub[0], (peq,) + sub[1], sub[2], here + sub[3], 1 + sub[4], 1 + sub[5])

    def derive_seq(self, items: list, goals: tuple, budget: int) -> Iterable[tuple]:
        """The derivations of the premises items, in order, within budget."""
        if budget < len(items):
            # Every premise needs a budget of 1 at least, so derive never
            # gets less: the cap cuts this sequence short.
            self.pruned = True
            return ()
        (_, mi, yv, pw), rest = items[0], items[1:]
        subs = self.premise(mi, yv, pw, goals, budget - len(rest), True)
        if not rest:
            return subs
        return (tuple(map(add, sub, tail)) for sub in subs for tail in self.derive_seq(rest, goals, budget - sub[4]))


def _relabel(piece: tuple, first: int, space: SessionSpace) -> InferenceOutcome:
    """The public outcome of a raw derivation: its variables numbered from
    first in order of first occurrence, the root's first, and each goal given
    its session."""
    eqs, peqs, conds, goals, size, weaks = piece
    renamed: dict[int, TypeVar | PSetVar] = {}

    def see(v: int, kind: type) -> TypeVar | PSetVar:
        out = renamed.get(v)
        if out is None:
            out = renamed[v] = kind(first + len(renamed))
        return out

    def pattern(pat) -> TypePattern:
        if pat is None:
            return PatEnd()
        if pat.__class__ is tuple:
            return PatComm(pat[0], pat[1], tuple((lab, PatVar(see(t, TypeVar))) for lab, t in pat[2]))
        return PatVar(see(pat, TypeVar))

    _, pv0, tv0 = goals[0]
    root = see(tv0, TypeVar), see(pv0, PSetVar)
    type_eqs = {see(v, TypeVar): pattern(pat) for v, pat in eqs}
    pset_eqs = {see(v, PSetVar): PSetPattern(lits, tuple(see(w, PSetVar) for w in vs)) for v, (lits, vs) in peqs}
    conditions = tuple(PCondition(see(tv, TypeVar), see(pv, PSetVar), p, q, t) for tv, pv, p, q, t in conds)
    sessions = tuple((space.session(m), see(pv, PSetVar), see(tv, TypeVar)) for m, pv, tv in goals)
    return InferenceOutcome(type_eqs, pset_eqs, conditions, *root, sessions, size, weaks)


def infer(s: Session, budget: SearchBudget = SearchBudget(), *, raw: bool = False) -> Iterator:
    """Enumerate resolution outcomes, smallest derivations first.

    Deterministic for a fixed budget; raises BudgetExhausted only when the
    size cap pruned the tree before anything at all could be emitted.  With
    raw, each derivation comes as the search made it, with the id its first
    variable is given and the session space, so that the answers are made
    public only when they are kept.
    """
    search = _Search(s)
    first = 0
    for piece in search.derivations(budget):
        yield (piece, first, search.space) if raw else _relabel(piece, first, search.space)
        first += len(piece[0]) + len(piece[1])


# ---------------------------------------------------------------------------
# Solving.
# ---------------------------------------------------------------------------


def _graph(table: dict, nodes: tuple, root: int) -> tuple[GlobalGraph, dict[int, int]]:
    """The canonical graph of the equation graph (End, then nodes) at root,
    and the block of each node root reaches.  The table keeps both under
    (nodes, root), and each canonical graph as its first equal instance, so
    each equation graph is refined once and what is memoized on a canonical
    graph is computed once."""
    entry = table.get((nodes, root))
    if entry is None:
        g = GlobalGraph((GNode(END, None, None, ()),) + tuple(GNode(COMM, *n) for n in nodes), root)
        canon = minimize_global(g)
        canon = table.setdefault(canon, canon)
        # A walk of g beside its canonical form finds the block of each node.
        block = {root: canon.root}
        todo = [root]
        while todo:
            i = todo.pop()
            targets = dict(canon.nodes[block[i]].branches)
            for lab, t in g.nodes[i].branches:
                if t not in block:
                    block[t] = targets[lab]
                    todo.append(t)
        entry = table[nodes, root] = (canon, block)
    return entry


def _places(table: dict, eqs: Sequence[tuple], root) -> tuple[list[GlobalGraph], dict]:
    """Solve type equations (variable, raw pattern): the graphs whose
    subterms are all the solutions, the root's first, and each variable's
    solution as (graph, node), in the order of eqs.  A variable the root
    does not reach is solved on a graph of its own."""
    node_of: dict = {None: 0}  # End is node 0, and None stands for it
    alias: dict = {}
    heads: list[tuple] = []
    for v, pat in eqs:
        if pat.__class__ is tuple:
            heads.append(pat)
            node_of[v] = len(heads)
        else:
            alias[v] = pat

    def resolve(ref) -> int:
        trail = set()
        while ref not in node_of:
            if ref not in alias:
                raise FreeVariable(f"type variable {ref} has no equation")
            if ref in trail:
                raise UnguardedEquations(f"type variable {ref} is bound to itself without any communication")
            trail.add(ref)
            ref = alias[ref]
        return node_of[ref]

    at = {v: node_of[v] if v in node_of else resolve(alias[v]) for v, _ in eqs}
    nodes = tuple((p, q, tuple(sorted((lab, resolve(t)) for lab, t in bs))) for p, q, bs in heads)
    canon, block = _graph(table, nodes, resolve(root))
    roots = [canon]
    where = {}
    for v, k in at.items():
        if k in block:
            where[v] = (canon, block[k])
        else:
            own = _graph(table, nodes, k)[0]
            roots.append(own)
            where[v] = (own, own.root)
    return roots, where


def _bounds(table: dict, eqs: Sequence[tuple], root, peqs: dict, conds: Sequence[tuple]) -> tuple:
    """One system before its p-sets are solved: the (type, ignored set) it
    solves to if it does (every p-set variable of a derivation is read from
    the root's, so the root's least p-set is the union of every literal and
    lower bound), the places of its type variables, who plays in the type
    of each condition, and the lower bounds the conditions force, in the
    order of peqs: variable -> (literals, variables).  conds are (type
    variable, p-set variable, p, q, target)."""
    roots, where = _places(table, eqs, root)
    plays = [_tables(g)[0][n] for g, n in (where[c[0]] for c in conds)]
    lb = dict.fromkeys(peqs, _NO_NAMES)
    for (_, pv, _, _, target), have in zip(conds, plays):
        lb[pv] = lb[pv] | (target - have)
    key = roots[0], _NO_NAMES.union(*(lits for lits, _ in peqs.values()), *lb.values())
    return key, roots, where, plays, lb


def _psets(roots: list, peqs: dict, conds: Sequence[tuple], plays: list, lb: dict) -> dict | None:
    """The p-set solution of a system _bounds has placed, the least above
    lb, which it updates; None when the system has none under this strategy
    (see solutions)."""
    if not all(bounded(g) for g in roots):
        return None
    psol = _least(peqs, lb)
    if any(psol[v] != _union(lits, vs, psol) for v, (lits, vs) in peqs.items()):
        return None
    agreed = all((have | psol[pv]) - {p, q} == target for (_, pv, p, q, target), have in zip(conds, plays))
    return psol if agreed else None


def _flatten(eqs: Mapping[TypeVar, TypePattern]) -> list[tuple]:
    """A public type system as raw equations: PatEnd becomes None, PatVar its
    variable, and each nested PatComm a fresh int variable whose equation
    follows the given ones, in breadth-first order."""
    out: list[tuple] = list(eqs.items())

    def raw(pat: TypePattern) -> TypeVar | int | None:
        if isinstance(pat, PatComm):
            out.append((len(out), pat))
            return len(out) - 1
        return None if isinstance(pat, PatEnd) else pat.var

    for k, (v, pat) in enumerate(out):  # out grows while it is read
        if isinstance(pat, PatComm):
            out[k] = (v, (pat.sender, pat.receiver, tuple((lab, raw(sub)) for lab, sub in pat.branches)))
        else:
            out[k] = (v, raw(pat))
    return out


def solve_type_equations(eqs: Mapping[TypeVar, TypePattern]) -> dict[TypeVar, GlobalGraph]:
    """The unique regular-tree solution of a closed, guarded system."""
    if not eqs:
        return {}
    where = _places({}, _flatten(eqs), next(iter(eqs)))[1]
    return {v: g.at(n) for v, (g, n) in itertools.islice(where.items(), len(eqs))}


def _union(literals: frozenset[str], variables: Iterable, values: Mapping) -> frozenset[str]:
    out = literals
    for v in variables:
        if v not in values:
            raise FreeVariable(f"p-set variable {v} has no equation")
        out = out | values[v]
    return out


def _least(eqs: Mapping, values: dict) -> dict:
    """The least solution of p-set equations, variable -> (literals,
    variables), above values, which it updates: each equation is evaluated
    once, in order, and again only when a variable it reads grows."""
    readers: dict = {}
    for v, (_, vs) in eqs.items():
        for w in vs:
            readers.setdefault(w, []).append(v)
    todo = deque(eqs)
    while todo:
        v = todo.popleft()
        lits, vs = eqs[v]
        new = values[v] | _union(lits, vs, values)
        if new != values[v]:
            values[v] = new
            todo.extend(readers.get(v, ()))
    return values


def solve_pset_equations(
    eqs: Mapping[PSetVar, PSetPattern],
    lower_bounds: Mapping[PSetVar, frozenset[str]] | None = None,
) -> dict[PSetVar, frozenset[str]]:
    """Least solution above the given lower bounds."""
    values = {v: frozenset(lower_bounds.get(v, ())) if lower_bounds else frozenset() for v in eqs}
    return _least({v: (pat.literals, pat.vars) for v, pat in eqs.items()}, values)


def solutions(outcome: InferenceOutcome, *, interned: dict | None = None) -> list[Substitution]:
    """Solve one outcome: zero or one substitution under this strategy.

    Types are solved first and every bound graph must be bounded.  Conditions
    then force lower bounds on the p-set variables (target participants the
    solved type cannot supply); the least p-set solution above those bounds is
    verified against the equations and conditions exactly.

    ``interned`` is a solving table shared by the calls of one enumeration:
    it keeps each equation graph solved so far, and each canonical graph as
    its first equal instance, on which solutions are read, so each equation
    graph is refined once and what is memoized on a graph is computed once.
    """
    eqs = _flatten(outcome.type_eqs)
    peqs = {v: (pat.literals, pat.vars) for v, pat in outcome.pset_eqs.items()}
    conds = [(c.typevar, c.psetvar, c.p, c.q, c.target) for c in outcome.conditions]
    _, roots, where, plays, lb = _bounds({} if interned is None else interned, eqs, outcome.root_typevar, peqs, conds)
    psol = _psets(roots, peqs, conds, plays, lb)
    if psol is None:
        return []
    # where follows eqs, which list the outcome's own variables first.
    return [Substitution({v: g.at(n) for v, (g, n) in itertools.islice(where.items(), len(outcome.type_eqs))}, psol)]


# ---------------------------------------------------------------------------
# Front door: enumerate solved outcomes, pick the minimal one.
# ---------------------------------------------------------------------------

Solved = tuple[InferenceOutcome, Substitution, GlobalGraph, frozenset[str]]


def _answers(s: Session, budget: SearchBudget) -> Iterator[tuple]:
    """Each derivation whose (type, ignored set) is new and whose system
    solves, raw: (type, ignored set, derivation, the id of its first
    variable, session space, places, p-set solution).  Only a key not
    answered before is checked for boundedness, solved and verified."""
    table: dict = {}
    seen: set[tuple[GlobalGraph, frozenset[str]]] = set()
    for piece, first, space in infer(s, budget, raw=True):
        peqs, conds = dict(piece[1]), piece[2]
        key, roots, where, plays, lb = _bounds(table, piece[0], piece[3][0][2], peqs, conds)
        if key in seen:
            continue
        psol = _psets(roots, peqs, conds, plays, lb)
        if psol is not None:
            seen.add(key)
            yield key + (piece, first, space, where, psol)


def enumerate_solutions(s: Session, budget: SearchBudget = SearchBudget()) -> Iterator[Solved]:
    """Solved outcomes with duplicates (same type up to bisimilarity and same
    ignored set) removed.  Each derivation is solved raw, on one table for
    the call, and made public only when it is yielded."""
    for g, p, piece, first, space, where, psol in _answers(s, budget):
        outcome = _relabel(piece, first, space)
        # _relabel keeps the order of the equations, and so do the solutions.
        types = {v: h.at(n) for v, (h, n) in zip(outcome.type_eqs, where.values())}
        yield outcome, Substitution(types, dict(zip(outcome.pset_eqs, psol.values()))), g, p


def minimal_key(weak_count: int, ignored: frozenset[str]) -> tuple:
    """What "minimal" orders solutions by: fewest ignored participants, then
    fewest Weak steps, then the ignored names."""
    return (len(ignored), weak_count, tuple(sorted(ignored)))


def chosen(s: Session, budget: SearchBudget, minimal: bool) -> list[tuple]:
    """What ``mpst infer`` prints, as (type, ignored set, outcome): every
    answer, or with minimal the one of least minimal_key, the first among
    equals, re-checked through typecheck; none when the size cap cut every
    derivation.  outcome() makes the answer's InferenceOutcome."""
    found: list[tuple] = []
    least = None
    try:
        for g, p, piece, first, space, _, _ in _answers(s, budget):
            if minimal:
                key = minimal_key(piece[5], p)
                if least is not None and key >= least:
                    continue
                least = key
                found.clear()
            found.append((g, p, functools.partial(_relabel, piece, first, space)))
    except BudgetExhausted:
        pass
    if minimal and found and not isinstance(typecheck(found[0][0], s, found[0][1]), Derivation):
        raise RuntimeError("inference produced a solution the checker rejects; this is a bug")
    return found


def infer_minimal(
    s: Session, budget: SearchBudget = SearchBudget()
) -> tuple[GlobalGraph, frozenset[str]]:
    """The solution with the fewest ignored participants within the budget."""
    found = chosen(s, budget, minimal=True)
    if not found:
        raise NoSolutionWithinBudget("inference found no solution within the budget")
    return found[0][0], found[0][1]


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
