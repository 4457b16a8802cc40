import hashlib
import importlib
import json
import pkgutil
import random
from collections import Counter

import pytest

import mpst
from mpst import analysis, inference, metatheory, semantics, terms, typecheck
from mpst.analysis import plays_global
from mpst.frontend import format_global, format_process, parse
from mpst.inference import (
    BudgetExhausted,
    FreeVariable,
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
    enumerate_solutions,
    infer,
    infer_minimal,
    minimal_key,
    render_outcome,
    solutions,
    solve_pset_equations,
    solve_type_equations,
)
from mpst.random_sessions import random_session
from mpst.terms import Session, minimize_global, participants, session_of
from mpst.typecheck import accepts

from .conftest import GOLDEN
from .oracles import (
    check_agreement,
    enumerate_oracle,
    eval_pset,
    pick_minimal,
    pset_oracle,
    solutions_oracle,
    solve_oracle,
    solved,
)


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
        assert sol[vy] != eval_pset(eqs[vy], sol)


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
        least = min(minimal_key(entry[0].weak_count, entry[3]) for entry in found)
        first = next(e for e in found if minimal_key(e[0].weak_count, e[3]) == least)
        assert pick_minimal(m, found) is first
        assert pick_minimal(m, []) is None
        assert solved(m, SearchBudget(max_size=1)) == []

    def test_a_weak_step_makes_the_ignored_set_nonempty(self):
        # A Weak step's split is nonempty and a literal of the root p-set, so
        # an answer with an empty ignored set took no Weak step: its key is
        # the least, (0, 0, ()), exactly when its ignored set is empty.
        weak = 0
        for case, text, name, budget in minimal_inputs():
            for outcome, _, _, p in solved(parse(text).sessions[name], budget):
                weak += outcome.weak_count > 0
                assert p or outcome.weak_count == 0, case
                assert (minimal_key(outcome.weak_count, p) == (0, 0, ())) == (not p), case
        assert weak > 300


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


def _server_text(n):
    """n clients each send u one request and get one reply; u serves them in
    order, forever."""
    clients = [f"c{i}" for i in range(n)]
    lines = ["process U = " + " . ".join(f"{c}?req . {c}!ok" for c in clients) + " . U"]
    lines += [f"process C{i} = u!req . u?ok" for i in range(n)]
    lines.append("session M = " + " | ".join([f"c{i}: C{i}" for i in range(n)] + ["u: U"]))
    return "\n".join(lines) + "\n"


def _pairs_text(k, cyclic=True):
    """k independent pairs p_i <-> q_i exchanging a then b, forever when cyclic."""
    lines, binds = [], []
    for i in range(k):
        loop_p, loop_q = (f" . P{i}", f" . Q{i}") if cyclic else ("", "")
        lines.append(f"process P{i} = q{i}!a . q{i}?b{loop_p}")
        lines.append(f"process Q{i} = p{i}?a . p{i}!b{loop_q}")
        binds.append(f"p{i}: P{i} | q{i}: Q{i}")
    lines.append("session M = " + " | ".join(binds))
    return "\n".join(lines) + "\n"


def _pinned_sessions():
    out = {f"server{n}": parse(_server_text(n)).sessions["M"] for n in range(1, 6)}
    out.update({f"pairs{k}": parse(_pairs_text(k)).sessions["M"] for k in range(1, 4)})
    for path in sorted(GOLDEN.glob("*.mpst")):
        if path.stem == "two_loops":
            continue
        for name, m in parse(path.read_text(encoding="utf-8")).sessions.items():
            out[f"{path.stem}:{name}"] = m
    return out


_PINNED_BUDGETS = {
    "default": SearchBudget(),
    "size1": SearchBudget(max_size=1),
    "size2": SearchBudget(max_size=2),
    "size3": SearchBudget(max_size=3),
    "size9": SearchBudget(max_size=9),
    "outcomes1": SearchBudget(max_outcomes=1),
    "outcomes7": SearchBudget(max_outcomes=7),
}


def _enumeration_digest(m, budget):
    """SHA-256 of the infer stream and the enumerate_solutions stream, as
    rendered text, and of whether the size cap cut everything."""
    record = {"outcomes": [], "solved": [], "exhausted": False}
    try:
        record["outcomes"] = [render_outcome(o) for o in infer(m, budget)]
        record["solved"] = [
            [render_outcome(o), format_global(g), sorted(p)]
            for o, _, g, p in enumerate_solutions(m, budget)
        ]
    except BudgetExhausted:
        record["exhausted"] = True
    text = json.dumps(record, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPinnedEnumeration:
    """The enumeration, byte for byte, on servers, cyclic pairs and the
    goldens under several budgets; a faster search must not move it."""

    DIGESTS = {
        "default": {
            "server1": "d2ae9cf785ac13459b8ff437a1aa9174f20a8992bec74b99c080c6e5542ce682",
            "server2": "870777c9e6e9ed1ff0d521b583d0d4d8c4eaa622c928e114bfa648a669aa5252",
            "server3": "0f36b90fd1e02efb28e662549ee7ec934559f46a01e07e9f36e60715a25610ae",
            "server4": "1151adf1a30d438874e4913b78e3058b5e055fd123bab36396615cb87b1386c1",
            "server5": "61e53885c04b05c78a6b1e45cac2516b458d32b25b50967b232b16856708cc33",
            "pairs1": "8482b40605ae098c8aa1a7b304b2c9cd824a26cc15617640fdf6ccac2ab5e35b",
            "pairs2": "a2b9188da7d79fa1624f58701b3b9da05c68b8a54d5071c69932c5ed8c807f4c",
            "pairs3": "025855bfb67088fd765a9fe35641ba415e391086aeecde061c33c63cbb2b988c",
            "buyer_seller:M": "e36a2b099de14713241fbda924e177b15cc0a1bc917b6ed3fb97f4c5d7fc0e90",
            "empty:Empty": "319a9009c7daa414efe6ab40d9e227631275fd79d379abd6ae2cb44a0a6c8392",
            "mutual_loop:M": "c170304c24b27fa22cb9dd8701515c083c13b551b93f5af79bbf9e4c86f6b13a",
            "social_media:M": "2406805d21a2077d6e69562b2052c8cc1cb2b62908666511d005fa917c1e4a8f",
            "unbounded:M": "92d4421631cb098157f7d52cbeccedccb663f90a38ea76080e44f6c3496bf218",
        },
        "outcomes1": {
            "server1": "2e6613e6e64ef5d9ae0bb3087ceaf3bfcd17bbb0c0360a82aa17c691eb964b05",
            "server2": "aefb68e017a99c4b30932b5fd59376a683b6a93422e59fda07d70a7f3d0c815d",
            "server3": "087bef27c29a07a7089154cd404f0edd889ac4014e384ca8dd897a25541c9480",
            "server4": "ebc64080c0f803e7e9e9c56977922da1e1958adca8b98de950c8cba15aa82d1a",
            "server5": "93ca82af196ebed65058daba3ddff41db4ea74cde8f1fcfbf0f02e8525fbc86d",
            "pairs1": "3f6c5cba90cac1e61bb25a2f35a68ce03a2f5b784f1d2c7ec82314df8bbe78f7",
            "pairs2": "17b7137253c616ce05352fcd508da4fd75c7effdb6e5dac70676a6eb6d6b8d57",
            "pairs3": "9e7aa6d760eebdb2584857d0c83d440a9c5cde9c530437c06ace316512b31e2d",
            "buyer_seller:M": "8e5b80fe0f3f2b9642291ff4ed8c5067a75fff322079c86dcf79fa04e438d2a3",
            "empty:Empty": "319a9009c7daa414efe6ab40d9e227631275fd79d379abd6ae2cb44a0a6c8392",
            "mutual_loop:M": "708e9921d55847d73533e3e0c3dbb7f0bc62b557ab69267bb42f5172acd06515",
            "social_media:M": "ed9f77d0edf1cd9b1b7d8e6d9a87d9325a89e09e5fd5b92e4eed87acad4c7272",
            "unbounded:M": "a1fece4b2cb77956f61ffc74fbe3b5b0601257162204f1e7615f7da09e6e8768",
        },
        "outcomes7": {
            "server1": "d2ae9cf785ac13459b8ff437a1aa9174f20a8992bec74b99c080c6e5542ce682",
            "server2": "7810d774c5bb2a0c4af10f0ad00592f5d115202a05e1b52f9c446e7e869b9e90",
            "server3": "ba6af219ab23ee0f7b4a911306e37420ef54319b2e799cc7a4356df021a24aca",
            "server4": "50d32f5c8835249c1b4b4bac9d49109b87fd627ce87ce49d82f05d2e298d79fb",
            "server5": "5931688af34b5582fdd7033058e6f44e84bbee0a2d1bbdaf0bf9eb69f85d10c6",
            "pairs1": "300bc83af4e6bd7c714ba39aaebf70144f6e7dda041c6a92479663ed78245145",
            "pairs2": "bb8c55e9f3f5172ef5a8961a5f311d84a73f76bd7949b4a3a3e212c3f1080cb4",
            "pairs3": "0e21337b5b395ff606d95dbeb2a1248b79645aadf405ed6a8a5056230cec5404",
            "buyer_seller:M": "db853bdffd492dd485062db3e1b935ce8bc74e5de6559ea2f732c11172001d58",
            "empty:Empty": "319a9009c7daa414efe6ab40d9e227631275fd79d379abd6ae2cb44a0a6c8392",
            "mutual_loop:M": "7060c738f96b95545915a536d36b26f9f9be91e63c1f56a3c68063f07112f3e7",
            "social_media:M": "3c6a400525a86698d4fb172b50ee91f4d15286ea9491dbf1414887e7eab2204b",
            "unbounded:M": "289a838c30f9b1dca4d399179a43d750b55f8792ea3a31277a65074f883a0da8",
        },
        "size1": {
            "server1": "1afcf6ccf4927ab2734bdb32b423eb081d0d579de38d086b905f2e2e6ca807c3",
            "server2": "1afcf6ccf4927ab2734bdb32b423eb081d0d579de38d086b905f2e2e6ca807c3",
            "server3": "1afcf6ccf4927ab2734bdb32b423eb081d0d579de38d086b905f2e2e6ca807c3",
            "server4": "1afcf6ccf4927ab2734bdb32b423eb081d0d579de38d086b905f2e2e6ca807c3",
            "server5": "1afcf6ccf4927ab2734bdb32b423eb081d0d579de38d086b905f2e2e6ca807c3",
            "pairs1": "1afcf6ccf4927ab2734bdb32b423eb081d0d579de38d086b905f2e2e6ca807c3",
            "pairs2": "1afcf6ccf4927ab2734bdb32b423eb081d0d579de38d086b905f2e2e6ca807c3",
            "pairs3": "1afcf6ccf4927ab2734bdb32b423eb081d0d579de38d086b905f2e2e6ca807c3",
            "buyer_seller:M": "1afcf6ccf4927ab2734bdb32b423eb081d0d579de38d086b905f2e2e6ca807c3",
            "empty:Empty": "319a9009c7daa414efe6ab40d9e227631275fd79d379abd6ae2cb44a0a6c8392",
            "mutual_loop:M": "1afcf6ccf4927ab2734bdb32b423eb081d0d579de38d086b905f2e2e6ca807c3",
            "social_media:M": "1afcf6ccf4927ab2734bdb32b423eb081d0d579de38d086b905f2e2e6ca807c3",
            "unbounded:M": "1afcf6ccf4927ab2734bdb32b423eb081d0d579de38d086b905f2e2e6ca807c3",
        },
        "size2": {
            "server1": "2e6613e6e64ef5d9ae0bb3087ceaf3bfcd17bbb0c0360a82aa17c691eb964b05",
            "server2": "aefb68e017a99c4b30932b5fd59376a683b6a93422e59fda07d70a7f3d0c815d",
            "server3": "087bef27c29a07a7089154cd404f0edd889ac4014e384ca8dd897a25541c9480",
            "server4": "ebc64080c0f803e7e9e9c56977922da1e1958adca8b98de950c8cba15aa82d1a",
            "server5": "93ca82af196ebed65058daba3ddff41db4ea74cde8f1fcfbf0f02e8525fbc86d",
            "pairs1": "3f6c5cba90cac1e61bb25a2f35a68ce03a2f5b784f1d2c7ec82314df8bbe78f7",
            "pairs2": "17b7137253c616ce05352fcd508da4fd75c7effdb6e5dac70676a6eb6d6b8d57",
            "pairs3": "9e7aa6d760eebdb2584857d0c83d440a9c5cde9c530437c06ace316512b31e2d",
            "buyer_seller:M": "8e5b80fe0f3f2b9642291ff4ed8c5067a75fff322079c86dcf79fa04e438d2a3",
            "empty:Empty": "319a9009c7daa414efe6ab40d9e227631275fd79d379abd6ae2cb44a0a6c8392",
            "mutual_loop:M": "71575d650dae540f0426021e6a93c8946e8d8e36f750f53b5a30d1c3e1b9ecc2",
            "social_media:M": "ed9f77d0edf1cd9b1b7d8e6d9a87d9325a89e09e5fd5b92e4eed87acad4c7272",
            "unbounded:M": "a1fece4b2cb77956f61ffc74fbe3b5b0601257162204f1e7615f7da09e6e8768",
        },
        "size3": {
            "server1": "8997e1c4b1cd6f04eab277e75938ae14049b3e3b48f8c178e3f35660c3f63da4",
            "server2": "83e9ecaa085c0cf3e17c47d3d1054d0e2e0082398c20c418ea42ba00b1126753",
            "server3": "90547c0e22f3daa1a2293e1ae53b657dcbb991d3e83f106aa990c432fdd856bd",
            "server4": "dd74bff81c3a127557665c1ed8cacad2347e69961f4d445270556d7503a4d4e1",
            "server5": "aea8e62a3c25f3f804d1ee7dcc8f687663fa25a72a33fa9f097b6236730e156a",
            "pairs1": "629b06bf98818745b5cd96b6df61b827dd22b40021dd7f7bdbd91e4a80cf9801",
            "pairs2": "59d1ed8f92b8da72a598782fe5a28541df11fc2455f1262fbcbd3c4495d23d5d",
            "pairs3": "0e21337b5b395ff606d95dbeb2a1248b79645aadf405ed6a8a5056230cec5404",
            "buyer_seller:M": "8e5b80fe0f3f2b9642291ff4ed8c5067a75fff322079c86dcf79fa04e438d2a3",
            "empty:Empty": "319a9009c7daa414efe6ab40d9e227631275fd79d379abd6ae2cb44a0a6c8392",
            "mutual_loop:M": "62293247483c49779ffa4bb6ab673c5dc4ae048dac652cc5d3d62f3958581293",
            "social_media:M": "fa8c64634f35d17cb52b1a5e0fafa8e1cc49b70f99ba0362b4a64dcdbad18bda",
            "unbounded:M": "bf77b7c13152f4c7a601749997fb458ab21dc0b80115ef735bae5014b1303575",
        },
        "size9": {
            "server1": "d2ae9cf785ac13459b8ff437a1aa9174f20a8992bec74b99c080c6e5542ce682",
            "server2": "870777c9e6e9ed1ff0d521b583d0d4d8c4eaa622c928e114bfa648a669aa5252",
            "server3": "0f36b90fd1e02efb28e662549ee7ec934559f46a01e07e9f36e60715a25610ae",
            "server4": "1151adf1a30d438874e4913b78e3058b5e055fd123bab36396615cb87b1386c1",
            "server5": "61e53885c04b05c78a6b1e45cac2516b458d32b25b50967b232b16856708cc33",
            "pairs1": "3acff75a3be56e5a42b3c2f5edaeaacafd7a147a375e2f84d8ea7503a99d04b1",
            "pairs2": "a2b9188da7d79fa1624f58701b3b9da05c68b8a54d5071c69932c5ed8c807f4c",
            "pairs3": "025855bfb67088fd765a9fe35641ba415e391086aeecde061c33c63cbb2b988c",
            "buyer_seller:M": "76257c439e5f7c04eaec55d65857299931948934006e4052126b3dc19428f2b7",
            "empty:Empty": "319a9009c7daa414efe6ab40d9e227631275fd79d379abd6ae2cb44a0a6c8392",
            "mutual_loop:M": "bd13b25dee9b1e31e048dea6a67a779f0369446ff820b004f0dd95a87b30857e",
            "social_media:M": "60818d8835e6ab65145e8f1ded11554577cc7ff7e1ac471be785f8d4d56e6d90",
            "unbounded:M": "92d4421631cb098157f7d52cbeccedccb663f90a38ea76080e44f6c3496bf218",
        },
    }

    @pytest.mark.parametrize("budget_name", sorted(_PINNED_BUDGETS))
    def test_stream_is_unchanged(self, budget_name):
        budget = _PINNED_BUDGETS[budget_name]
        got = {name: _enumeration_digest(m, budget) for name, m in _pinned_sessions().items()}
        assert got == self.DIGESTS[budget_name]


class TestWidthCuts:
    """A goal takes at most _WIDTH alternatives: its Cycle leaves first, then
    its Comm steps and Weak splits.  Each cut marks the size cap pruned, so
    a search that the width leaves empty raises BudgetExhausted."""

    LOOP = "process P = q!a . P\nprocess Q = p?a . Q\nsession M = p: P | q: Q"

    def _search(self):
        search = inference._Search(parse(self.LOOP).sessions["M"])
        return search, search.space.start

    def test_cycle_leaves_past_the_width_are_cut(self, monkeypatch):
        search, m = self._search()
        goals = ((m, 0, 1), (m, 2, 3))
        assert search.ends(m, goals) == [(1, (0,)), (3, (2,))] and not search.pruned
        monkeypatch.setattr(inference, "_WIDTH", 1)
        search, m = self._search()
        assert search.ends(m, goals) == [(1, (0,))]
        assert search.pruned

    def test_comm_steps_past_the_width_are_cut(self, monkeypatch):
        # The Cycle leaf back to the goal on the stack takes the one
        # alternative there is.
        monkeypatch.setattr(inference, "_WIDTH", 1)
        search, m = self._search()
        assert list(search.derive(m, 4, 5, ((m, 0, 1),), 3, False)) == [inference._leaf(m, 4, 5, 1, (0,))]
        assert search.pruned

    def test_nothing_within_the_width_is_budget_exhausted(self, monkeypatch):
        m = parse(self.LOOP).sessions["M"]
        budget = SearchBudget(max_size=8)
        assert list(infer(m, budget))
        monkeypatch.setattr(inference, "_WIDTH", 0)
        with pytest.raises(BudgetExhausted, match="no complete derivation within size 8"):
            list(infer(m, budget))


class TestReuse:
    """Inference computes each successor, split and solved-graph analysis
    once per call, and keeps the solver's contract while doing so."""

    def test_weak_splits_are_built_on_demand(self, monkeypatch):
        # 20 participants: 2^20 - 1 nonempty splits, of which the search can
        # consume at most _WIDTH per goal.
        m = parse(_pairs_text(10, cyclic=False)).sessions["M"]
        calls = 0
        original = semantics.SessionSpace.without

        def counting(self, s, drop):
            nonlocal calls
            calls += 1
            return original(self, s, drop)

        monkeypatch.setattr(semantics.SessionSpace, "without", counting)
        with pytest.raises(BudgetExhausted):
            list(infer(m, SearchBudget(max_size=2)))
        assert 0 < calls <= 5038

    def test_unreachable_unbounded_variable_still_rejects(self):
        # X = end, Y = p->q:{l1 . r->s:l, l2 . Y}: only X is the root, but
        # every variable's solution must be bounded.
        sys = {
            X: PatEnd(),
            Y1: PatComm(
                "p",
                "q",
                (("l1", PatComm("r", "s", (("l", PatEnd()),))), ("l2", PatVar(Y1))),
            ),
        }
        outcome = InferenceOutcome(sys, {x: PSetPattern()}, (), X, x, (), 1, 0)
        assert solutions(outcome) == []
        assert solutions(outcome, interned={}) == []

    def test_boundedness_runs_once_per_distinct_solved_graph(self, monkeypatch):
        m = parse(_server_text(5)).sessions["M"]
        seen = []
        original = analysis._bounded
        monkeypatch.setattr(analysis, "_bounded", lambda g: seen.append(g) or original(g))
        assert solved(m)
        assert len(seen) == len(set(seen)) <= 11

    def test_work_is_paid_per_kept_solution(self, monkeypatch):
        # The 5-client server's 64 derivations have 5 distinct equation
        # graphs and 5 distinct solutions; about half of its premises get
        # budget 1 and are decided without a generator.
        from mpst import inference

        m = parse(_server_text(5)).sessions["M"]
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(inference, "minimize_global", counted("refine", inference.minimize_global))
        monkeypatch.setattr(inference, "InferenceOutcome", counted("outcome", inference.InferenceOutcome))
        monkeypatch.setattr(inference._Search, "derive", counted("derive", inference._Search.derive))
        assert len(solved(m)) == 5
        assert calls["refine"] == 5
        assert calls["outcome"] == 5
        assert calls["derive"] <= 1000

    def test_enumeration_goes_through_infer_and_solutions(self, monkeypatch):
        # enumerate_solutions takes its derivations from infer and keys each
        # before solving it: of the 5-client server's 64 derivations only
        # the 5 with a new key solve their p-sets, and only the 5 answers
        # get a Substitution.
        from mpst import inference

        m = parse(_server_text(5)).sessions["M"]
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def counted_infer(*args, **kwargs):
            calls["infer"] += 1
            for item in infer(*args, **kwargs):
                calls["derivation"] += 1
                yield item

        monkeypatch.setattr(inference, "infer", counted_infer)
        monkeypatch.setattr(inference, "_least", counted("least", inference._least))
        monkeypatch.setattr(inference, "Substitution", counted("substitution", inference.Substitution))
        assert len(list(enumerate_solutions(m))) == 5
        assert calls == {"infer": 1, "derivation": 64, "least": 5, "substitution": 5}

    def test_an_infer_call_steps_state_ids_not_sessions(self, monkeypatch):
        # Once the start is normalized, every successor and split is a state
        # id of the call's SessionSpace: no session is stepped or rebuilt.
        m = parse(_server_text(3)).sessions["M"]
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        transitions = counted("session_transitions", semantics.session_transitions)
        for module in (mpst, semantics):
            monkeypatch.setattr(module, "session_transitions", transitions)
        monkeypatch.setattr(Session, "replace", counted("replace", Session.replace))
        normalize = counted("normalize", terms.normalize_session)
        for module in (terms, semantics):
            monkeypatch.setattr(module, "normalize_session", normalize)
        assert list(infer(m))
        assert calls == {"normalize": 1}

    def test_check_and_meta_step_state_ids_not_sessions(self, monkeypatch, social_media):
        # The checker and meta step the state ids of a SessionSpace too.  The
        # step over sessions is the tests' reference alone: no mpst module
        # binds it, and the view session_transitions is never called.
        from mpst import inference

        names = [info.name for info in pkgutil.iter_modules(mpst.__path__)]
        for module in [mpst, *(importlib.import_module(f"mpst.{name}") for name in names)]:
            for name in ("ready_pairs", "communicate", "reduce"):
                assert not hasattr(module, name), (module.__name__, name)
        assert not hasattr(Session, "without")
        for module in (inference, typecheck, metatheory):
            assert not hasattr(module, "session_transitions"), module.__name__
        calls = Counter()
        original = semantics.session_transitions

        def counted(*args, **kwargs):
            calls["session_transitions"] += 1
            return original(*args, **kwargs)

        for module in (mpst, semantics):
            monkeypatch.setattr(module, "session_transitions", counted)
        g, m = social_media.globals["G"], social_media.sessions["M"]
        assert accepts(g, m, {"u"})
        assert metatheory.run_file_suite(social_media).ok
        assert calls == {}


def _random_pattern(rng, variables, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return PatVar(rng.choice(variables)) if roll < 0.2 else PatEnd()
    p, q = rng.sample(["p", "q", "r", "s"], 2)
    labels = rng.sample(["a", "b", "c"], rng.randint(1, 2))
    return PatComm(p, q, tuple((lab, _random_pattern(rng, variables, depth - 1)) for lab in labels))


def _random_system(rng):
    """A closed system over up to five variables, some of them aliases."""
    variables = [TypeVar(i) for i in range(rng.randint(1, 5))]
    return {
        v: PatVar(rng.choice(variables)) if rng.random() < 0.2 else _random_pattern(rng, variables, 2)
        for v in variables
    }


def _solved_or_error(solve, eqs):
    try:
        return solve(eqs)
    except (FreeVariable, UnguardedEquations) as exc:
        return type(exc)


class TestSolverAgainstTheOracle:
    """The solver on its own equation graph against the round trip through
    build_global_graphs that it replaced."""

    @pytest.mark.parametrize("name", sorted(_pinned_sessions()))
    def test_pinned_outcomes(self, name):
        for outcome in infer(_pinned_sessions()[name]):
            assert solve_type_equations(outcome.type_eqs) == solve_oracle(outcome.type_eqs)
            got, want = solutions(outcome), solutions_oracle(outcome)
            assert got == want
            for _, _, tv in outcome.goals:
                assert all(theta.types[tv] == oracle.types[tv] for theta, oracle in zip(got, want))

    @pytest.mark.parametrize("seed", range(0, 400, 50))
    def test_random_systems(self, seed):
        kinds = Counter()
        for s in range(seed, seed + 50):
            rng = random.Random(s)
            eqs = _random_system(rng)
            got = _solved_or_error(solve_type_equations, eqs)
            assert got == _solved_or_error(solve_oracle, eqs)
            if isinstance(got, dict):
                root = rng.choice(list(eqs))
                outcome = InferenceOutcome(eqs, {x: PSetPattern()}, (), root, x, (), 1, 0)
                accepted = solutions(outcome)
                assert accepted == solutions_oracle(outcome)
                kinds["accepted" if accepted else "rejected"] += 1
            else:
                kinds[got.__name__] += 1
        assert len(kinds) >= 2


def _pset_solution_or_fault(solve, eqs, lower_bounds):
    try:
        return solve(eqs, lower_bounds)
    except FreeVariable as exc:
        return str(exc)


class TestPsetWorklistAgainstTheOracle:
    """solve_pset_equations, a worklist, against the Kleene rounds of
    tests/oracles.py::pset_oracle."""

    @pytest.mark.parametrize("name", sorted(_pinned_sessions()))
    def test_pinned_outcomes(self, name):
        for outcome in infer(_pinned_sessions()[name]):
            targets = {c.psetvar: c.target for c in outcome.conditions}
            for lb in ({}, targets):
                want = pset_oracle(outcome.pset_eqs, lb)
                assert solve_pset_equations(outcome.pset_eqs, lb) == want

    @pytest.mark.parametrize("seed", range(0, 2000, 500))
    def test_random_systems(self, seed):
        faults = 0
        for s in range(seed, seed + 500):
            rng = random.Random(s)
            variables = [PSetVar(i) for i in range(rng.randint(1, 7))]
            pool = variables + [PSetVar(90), PSetVar(91)] * (rng.random() < 0.1)  # sometimes free ones
            eqs = {
                v: PSetPattern(
                    frozenset(rng.sample("abcde", rng.randint(0, 2))),
                    tuple(rng.choice(pool) for _ in range(rng.randint(0, 3))),
                )
                for v in variables
            }
            lb = {v: frozenset(rng.sample("abcdef", rng.randint(0, 2))) for v in variables if rng.random() < 0.5}
            got = _pset_solution_or_fault(solve_pset_equations, eqs, lb)
            assert got == _pset_solution_or_fault(pset_oracle, eqs, lb)
            faults += isinstance(got, str)
        assert 0 < faults < 200


def _enumerated(enumeration, m, budget):
    try:
        return list(enumeration(m, budget))
    except BudgetExhausted:
        return BudgetExhausted


class TestEnumerationAgainstTheOracle:
    """enumerate_solutions, which solves raw derivations and makes public only
    what it yields, against tests/oracles.py::enumerate_oracle, which makes
    every outcome public and solves it: the same outcomes with the same
    variable ids, substitutions, types and ignored sets, or BudgetExhausted
    from both."""

    @pytest.mark.parametrize("budget_name", sorted(_PINNED_BUDGETS))
    def test_pinned_sessions(self, budget_name):
        budget = _PINNED_BUDGETS[budget_name]
        for m in _pinned_sessions().values():
            assert _enumerated(enumerate_solutions, m, budget) == _enumerated(enumerate_oracle, m, budget)

    @pytest.mark.parametrize("seed", range(0, 240, 40))
    def test_random_sessions(self, seed):
        kinds = Counter()
        for s in range(seed, seed + 40):
            rng = random.Random(s)
            m = random_session(rng, 3, 3, labels=("a", "b"))
            budget = SearchBudget(max_size=rng.randint(1, 9), max_outcomes=rng.choice([1, 7, 64]))
            got = _enumerated(enumerate_solutions, m, budget)
            assert got == _enumerated(enumerate_oracle, m, budget)
            kinds["exhausted" if got is BudgetExhausted else "solved" if got else "none"] += 1
        assert kinds["solved"] and kinds["exhausted"]


def _session_file(m):
    """File text whose session M is m: one process definition per binding."""
    lines, binds = [], []
    for k, (p, g) in enumerate(m.items()):
        lines += [f"process {line}" for line in format_process(g, f"B{k}").splitlines()]
        binds.append(f"{p}: B{k}")
    return "\n".join(lines + ["session M = " + (" | ".join(binds) or "0")]) + "\n"


def minimal_inputs():
    """(case, file text, session name, budget) on which minimal inference is
    judged: every golden session, the random sessions and budgets of
    TestEnumerationAgainstTheOracle, servers of 1 to 5 clients and 1 to 3
    cyclic pairs.  The answer is wrong on some of them (ROADMAP item 3),
    and a faster path must keep it as it is."""
    out = []
    for path in sorted(GOLDEN.glob("*.mpst")):
        text = path.read_text(encoding="utf-8")
        out += [(f"{path.stem}:{name}", text, name, SearchBudget()) for name in parse(text).sessions]
    for s in range(240):
        rng = random.Random(s)
        m = random_session(rng, 3, 3, labels=("a", "b"))
        text = _session_file(m)
        assert parse(text).sessions["M"] == m
        budget = SearchBudget(max_size=rng.randint(1, 9), max_outcomes=rng.choice([1, 7, 64]))
        out.append((f"random{s}", text, "M", budget))
    out += [(f"server{n}", _server_text(n), "M", SearchBudget()) for n in range(1, 6)]
    out += [(f"pairs{k}", _pairs_text(k), "M", SearchBudget()) for k in range(1, 4)]
    return out


class TestKeyBeforeSolving:
    """enumerate_solutions keys each derivation before solving its p-sets;
    wherever the system solves, the key is the solved root type and root
    p-set."""

    def test_key_is_the_solved_root(self):
        from mpst import inference

        solved_count = 0
        for _, text, name, budget in minimal_inputs():
            table = {}
            try:
                raws = list(infer(parse(text).sessions[name], budget, raw=True))
            except BudgetExhausted:
                continue
            for piece, first, space in raws:
                peqs = dict(piece[1])
                key = inference._bounds(table, piece[0], piece[3][0][2], peqs, piece[2])[0]
                outcome = inference._relabel(piece, first, space)
                for theta in solutions(outcome):
                    solved_count += 1
                    assert key == (theta.types[outcome.root_typevar], theta.psets[outcome.root_psetvar])
        assert solved_count > 500
