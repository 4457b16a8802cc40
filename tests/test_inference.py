import random

import pytest

from mpst.analysis import plays_global
from mpst.frontend import parse
from mpst.inference import (
    BudgetExhausted,
    InferenceOutcome,
    NoSolutionWithinBudget,
    PatComm,
    PatEnd,
    PatVar,
    PCondition,
    PSetPattern,
    PSetVar,
    SearchBudget,
    Substitution,
    TypeVar,
    UnguardedEquations,
    check_agreement,
    enumerate_solutions,
    infer,
    infer_minimal,
    minimal_key,
    pick_minimal,
    render_outcome,
    solutions,
    solve_pset_equations,
    solve_type_equations,
    solved,
)
from mpst.random_sessions import random_session
from mpst.terms import minimize_global, participants, session_of
from mpst.typecheck import accepts


# Variables for hand-built systems.
X, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8 = (TypeVar(i) for i in range(9))
x, y1, y2, y3, y4, y5, y6, y7, y8 = (PSetVar(100 + i) for i in range(9))


def social_media_type_system():
    """The nine type equations of the worked social-media inference."""
    return {
        X: PatComm("q", "p", (("hello", PatVar(Y1)),)),
        Y1: PatComm("p", "u", (("req", PatVar(Y2)),)),
        Y2: PatComm("u", "p", (("dnd", PatVar(Y3)), ("grtd", PatVar(Y4)))),
        Y3: PatComm("u", "q", (("dnd", PatVar(Y5)),)),
        Y4: PatComm("u", "q", (("grtd", PatVar(Y6)),)),
        Y5: PatVar(X),
        Y6: PatVar(Y7),
        Y7: PatComm("p", "q", (("hello", PatVar(Y8)),)),
        Y8: PatEnd(),
    }


def social_media_pset_system():
    return {
        x: PSetPattern(frozenset(), (y1,)),
        y1: PSetPattern(frozenset(), (y2,)),
        y2: PSetPattern(frozenset(), (y3, y4)),
        y3: PSetPattern(frozenset(), (y5,)),
        y4: PSetPattern(frozenset(), (y6,)),
        y5: PSetPattern(frozenset(), (x,)),
        y6: PSetPattern(frozenset({"u"}), (y7,)),
        y7: PSetPattern(frozenset(), (y8,)),
        y8: PSetPattern(),
    }


def social_media_conditions():
    return (
        PCondition(Y1, y1, "q", "p", frozenset({"u"})),
        PCondition(Y2, y2, "p", "u", frozenset({"q"})),
        PCondition(Y3, y3, "u", "p", frozenset({"q"})),
        PCondition(Y4, y4, "u", "p", frozenset({"q"})),
        PCondition(Y5, y5, "u", "q", frozenset({"p"})),
        PCondition(Y6, y6, "u", "q", frozenset({"p"})),
        PCondition(Y8, y8, "p", "q", frozenset()),
    )


class TestSolveTypeEquations:
    def test_single_end(self):
        sol = solve_type_equations({X: PatEnd()})
        assert sol[X].is_end

    def test_variable_cycle_rejected(self):
        with pytest.raises(UnguardedEquations):
            solve_type_equations({X: PatVar(Y1), Y1: PatVar(X)})

    def test_free_variable_rejected(self):
        from mpst.inference import FreeVariable

        with pytest.raises(FreeVariable):
            solve_type_equations({X: PatVar(Y1)})

    def test_social_media_system(self, social_media):
        sol = solve_type_equations(social_media_type_system())
        assert sol[X] == minimize_global(social_media.globals["G"])
        # the alias chain Y6 = Y7 resolves to the same graph
        assert sol[Y6] == sol[Y7]

    def test_nested_patterns(self):
        sys = {X: PatComm("p", "q", (("a", PatEnd()), ("b", PatComm("r", "s", (("c", PatVar(X)),)))))}
        sol = solve_type_equations(sys)
        g = sol[X]
        branches = dict(g.root_node.branches)
        inner = g.nodes[branches["b"]]
        assert (inner.sender, inner.receiver) == ("r", "s")
        assert dict(inner.branches)["c"] == g.root


class TestSolvePsetEquations:
    def test_social_media_least_solution(self):
        sol = solve_pset_equations(social_media_pset_system())
        assert sol[x] == {"u"}
        assert sol[y8] == frozenset()

    def test_single_empty(self):
        v = PSetVar(0)
        assert solve_pset_equations({v: PSetPattern()}) == {v: frozenset()}

    def test_lower_bound_breaks_equality(self):
        # x = x | {a}, y = x with a bound y >= {b}: least values x={a},
        # y={a,b}, and then the equation y = x does not verify
        vx, vy = PSetVar(0), PSetVar(1)
        eqs = {
            vx: PSetPattern(frozenset({"a"}), (vx,)),
            vy: PSetPattern(frozenset(), (vx,)),
        }
        sol = solve_pset_equations(eqs, {vy: frozenset({"b"})})
        assert sol[vx] == {"a"}
        assert sol[vy] == {"a", "b"}
        from mpst.inference import _eval_pset

        assert sol[vy] != _eval_pset(eqs[vy], sol)


class TestAgreement:
    def test_social_media_agrees(self, social_media):
        tsol = solve_type_equations(social_media_type_system())
        psol = solve_pset_equations(
            social_media_pset_system(),
            {y1: frozenset({"u"})},  # target u missing from plays(Y1)? no: present
        )
        theta = Substitution(tsol, solve_pset_equations(social_media_pset_system()))
        # least solution already assigns {u} everywhere needed
        ok, failing = check_agreement(theta, social_media_conditions())
        assert ok, failing

    def test_trivial_condition(self):
        g = solve_type_equations({X: PatComm("p", "q", (("l", PatEnd()),))})[X]
        theta = Substitution({X: g}, {x: frozenset()})
        ok, _ = check_agreement(theta, (PCondition(X, x, "p", "q", frozenset()),))
        assert ok

    def test_leftover_participant_fails(self):
        g = solve_type_equations({X: PatComm("p", "q", (("l", PatEnd()),))})[X]
        theta = Substitution({X: g}, {x: frozenset({"r"})})
        ok, failing = check_agreement(theta, (PCondition(X, x, "p", "q", frozenset()),))
        assert not ok and failing is not None


class TestSolutions:
    def test_social_media_outcome(self, social_media):
        outcome = InferenceOutcome(
            social_media_type_system(),
            social_media_pset_system(),
            social_media_conditions(),
            X,
            x,
            goals=(),
            size=9,
            weak_count=1,
        )
        (theta,) = solutions(outcome)
        assert theta.types[X] == minimize_global(social_media.globals["G"])
        assert theta.psets[x] == {"u"}

    def test_unbounded_solution_filtered(self):
        # X = p->q:{l1 . r->s:l, l2 . X} solves to an unbounded type
        sys = {
            X: PatComm(
                "p",
                "q",
                (("l1", PatComm("r", "s", (("l", PatEnd()),))), ("l2", PatVar(X))),
            )
        }
        outcome = InferenceOutcome(sys, {x: PSetPattern()}, (), X, x, (), 1, 0)
        assert solutions(outcome) == []

    def test_trivial_end_outcome(self):
        outcome = InferenceOutcome({X: PatEnd()}, {x: PSetPattern()}, (), X, x, (), 1, 0)
        (theta,) = solutions(outcome)
        assert theta.types[X].is_end and theta.psets[x] == frozenset()


class TestInfer:
    def test_null_session(self):
        outs = list(infer(session_of({}), SearchBudget(max_size=4)))
        assert len(outs) == 1
        o = outs[0]
        assert o.type_eqs == {o.root_typevar: PatEnd()}
        assert o.pset_eqs == {o.root_psetvar: PSetPattern()}
        assert o.conditions == ()

    def test_two_senders_need_weak(self):
        spec = parse("process P = q!l.P\nprocess Q = p!l.Q\nsession M = p: P | q: Q")
        outs = list(infer(spec.sessions["M"], SearchBudget(max_size=8)))
        assert outs
        for o in outs:
            # no communication rule can fire: the root equation is an alias
            assert isinstance(o.type_eqs[o.root_typevar], PatVar)

    def test_social_media_reproduces_worked_example(self, social_media):
        target_g = minimize_global(social_media.globals["G"])
        hit = None
        for outcome, theta, g, p in enumerate_solutions(social_media.sessions["M"]):
            if g == target_g and p == {"u"}:
                hit = outcome
                break
        assert hit is not None
        assert len(hit.type_eqs) == 9
        assert len(hit.pset_eqs) == 9
        assert len(hit.conditions) == 7

    def test_emitted_systems_are_guarded_and_closed(self, social_media):
        for outcome in infer(social_media.sessions["M"], SearchBudget(max_size=12, max_outcomes=24)):
            defined = set(outcome.type_eqs)
            for v, pat in outcome.type_eqs.items():
                if isinstance(pat, PatVar):
                    target = outcome.type_eqs[pat.var]
                    assert not isinstance(target, PatVar), "variable chain of length 2"

            def pattern_vars(pat):
                if isinstance(pat, PatVar):
                    yield pat.var
                elif isinstance(pat, PatComm):
                    for _, sub in pat.branches:
                        yield from pattern_vars(sub)

            used = {v for pat in outcome.type_eqs.values() for v in pattern_vars(pat)}
            assert used <= defined
            pdefined = set(outcome.pset_eqs)
            pused = {w for pat in outcome.pset_eqs.values() for w in pat.vars}
            assert pused <= pdefined

    def test_goal_accounting(self, social_media):
        for outcome, theta, g, p in enumerate_solutions(
            social_media.sessions["M"], SearchBudget(max_size=10, max_outcomes=24)
        ):
            for m_goal, pvar, tvar in outcome.goals:
                assert plays_global(theta.types[tvar]) | theta.psets[pvar] == participants(
                    m_goal
                )

    def test_fresh_variables_across_one_run(self, social_media):
        seen = set()
        for outcome in infer(social_media.sessions["M"], SearchBudget(max_size=10, max_outcomes=24)):
            for v in outcome.type_eqs:
                assert v not in seen
                seen.add(v)
            for w in outcome.pset_eqs:
                assert w not in seen
                seen.add(w)

    def test_deterministic_stream(self, social_media):
        budget = SearchBudget(max_size=10, max_outcomes=16)
        a = [render_outcome(o) for o in infer(social_media.sessions["M"], budget)]
        b = [render_outcome(o) for o in infer(social_media.sessions["M"], budget)]
        assert a == b

    def test_budget_exhausted(self):
        spec = parse("session M = p: q!a")
        with pytest.raises(BudgetExhausted):
            list(infer(spec.sessions["M"], SearchBudget(max_size=1)))


class TestInferMinimal:
    def test_social_media(self, social_media):
        g, p = infer_minimal(social_media.sessions["M"])
        assert p == {"u"}
        assert g == minimize_global(social_media.globals["G"])

    def test_buyer_seller(self, buyer_seller):
        g, p = infer_minimal(buyer_seller.sessions["M"])
        assert p == {"s", "c"}
        assert g == minimize_global(buyer_seller.globals["G"])

    def test_null_session(self):
        g, p = infer_minimal(session_of({}), SearchBudget(max_size=4))
        assert g.is_end and p == frozenset()

    def test_mutual_loop(self, mutual_loop):
        g, p = infer_minimal(mutual_loop.sessions["M"])
        assert p == {"r"}
        assert g == minimize_global(mutual_loop.globals["Loop"])

    def test_endless_greetings_variant(self):
        # cycles in both branches, no weakening anywhere, u still minimal
        spec = parse(
            "process P = q?hello . u!req . u?{ dnd . P, grtd . P2 }\n"
            "process P2 = q!hello . P2\n"
            "process Q = p!hello . u?{ dnd . Q, grtd . Q2 }\n"
            "process Q2 = p?hello . Q2\n"
            "process U = p?req . p!{ dnd . q!dnd . U, grtd . q!grtd . U }\n"
            "session M = p: P | q: Q | u: U\n"
            "global G = q->p:hello . p->u:req . u->p:{ dnd . u->q:dnd . G, "
            "grtd . u->q:grtd . GH }\n"
            "global GH = p->q:hello . GH"
        )
        g, p = infer_minimal(spec.sessions["M"])
        assert p == {"u"}
        assert g == minimize_global(spec.globals["G"])

    def test_least_solution_wins_on_loops(self):
        # the loop judgment also holds with {p}, {q} or {p,q} ignored, but
        # the least solution of the emitted p-set system is the empty set
        spec = parse(
            "process P = q?{ a . P, b . P }\nprocess Q = p!b . Q\n"
            "session M = p: P | q: Q\nglobal G = q->p:b . G"
        )
        g, p = infer_minimal(spec.sessions["M"])
        assert p == frozenset()
        assert g == minimize_global(spec.globals["G"])

    def test_no_solution_within_budget(self):
        spec = parse("session M = p: q!a")
        with pytest.raises(NoSolutionWithinBudget):
            infer_minimal(spec.sessions["M"], SearchBudget(max_size=1))

    def test_pick_minimal_takes_the_first_least_key(self, social_media):
        m = social_media.sessions["M"]
        found = solved(m)
        least = min(minimal_key(entry[0], entry[3]) for entry in found)
        first = next(e for e in found if minimal_key(e[0], e[3]) == least)
        assert pick_minimal(m, found) is first
        assert pick_minimal(m, []) is None
        assert solved(m, SearchBudget(max_size=1)) == []


class TestSoundness:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_solutions_typecheck(self, seed):
        m = random_session(random.Random(seed), 3, 3, labels=("a", "b"))
        for outcome, theta, g, p in enumerate_solutions(
            m, SearchBudget(max_size=10, max_outcomes=12)
        ):
            assert accepts(g, m, p)


class TestRendering:
    def test_render_uses_paper_style_names(self, social_media):
        outcome = next(iter(infer(social_media.sessions["M"], SearchBudget(max_size=10))))
        text = render_outcome(outcome)
        assert text["root"] == {"type": "X", "pset": "x"}
        assert text["type_equations"][0].startswith("X = ")
        assert text["pset_equations"][0].startswith("x = ")
