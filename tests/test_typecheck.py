import importlib
import random
import time
from collections import Counter
from itertools import chain

import pytest

from mpst import terms
from mpst.frontend import format_session, parse
from mpst.metatheory import (
    check_plays_equation,
    check_replacement,
    check_session_fidelity,
    check_subject_reduction,
    run_file_suite,
)
from mpst.random_sessions import random_global, random_session
from mpst.semantics import ExploreConfig, StateLimitExceeded, global_transitions, subsets
from mpst.terms import END_GLOBAL, normalize_session, participants, session_of
from mpst.typecheck import Derivation, Judgment, Rejection, Typechecker, accepts, typecheck

from .conftest import GOLDEN, load_golden, two_party_chain
from .oracles import check_oracle, check_participant_equation, gfp_accepts, without


def first_global(text):
    return next(iter(parse(text).globals.values()))


class TestAxioms:
    def test_end_types_null_session(self):
        result = typecheck(END_GLOBAL, session_of({}), set())
        assert isinstance(result, Derivation)
        assert result.rule == "End"

    def test_end_rejects_nonempty_ignored_on_null(self):
        result = typecheck(END_GLOBAL, session_of({}), {"p"})
        assert isinstance(result, Rejection)
        assert result.reason == "IgnoredMismatch"

    def test_end_types_anything_with_full_ignored(self, mutual_loop):
        m = mutual_loop.sessions["M"]
        assert accepts(END_GLOBAL, m, {"p", "q", "r"})
        assert not accepts(END_GLOBAL, m, {"p", "q"})


class TestSocialMedia:
    def test_accepted_with_figure_skeleton(self, social_media):
        result = typecheck(social_media.globals["G"], social_media.sessions["M"], {"u"})
        assert isinstance(result, Derivation)
        counts = result.rule_counts()
        assert counts["Weak"] == 1
        assert counts["End"] == 1
        assert counts["Cycle"] == 1
        assert counts["Comm"] == 6

    def test_rejected_without_ignoring_u(self, social_media):
        result = typecheck(social_media.globals["G"], social_media.sessions["M"], set())
        assert isinstance(result, Rejection)
        assert result.reason == "ParticipantEquationFailed"
        assert "grtd" in result.detail or "u" in result.detail

    def test_cycle_nodes_close_on_an_ancestor(self, social_media):
        result = typecheck(social_media.globals["G"], social_media.sessions["M"], {"u"})

        def walk(node, ancestors):
            if node.rule == "Cycle":
                assert node.judgment in ancestors
            extended = ancestors | {node.judgment} if node.rule in ("Comm", "Weak") else ancestors
            for child in node.premises:
                walk(child, extended)

        walk(result, set())

    def test_plays_equation_at_every_node(self, social_media):
        result = typecheck(social_media.globals["G"], social_media.sessions["M"], {"u"})
        assert check_plays_equation(result) == []

    def test_endless_greetings_need_no_weakening(self):
        # when p and q keep exchanging hello forever after the grant, every
        # branch of the derivation is infinite and closes with a cycle; u
        # stays ignored without ever being split off
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
        result = typecheck(spec.globals["G"], spec.sessions["M"], {"u"})
        assert isinstance(result, Derivation)
        counts = result.rule_counts()
        assert counts["Weak"] == 0
        assert counts["End"] == 0
        assert counts["Cycle"] >= 2  # both loops close coinductively


class TestBuyerSeller:
    def test_rejects_empty_ignored(self, buyer_seller):
        result = typecheck(buyer_seller.globals["G"], buyer_seller.sessions["M"], set())
        assert isinstance(result, Rejection)

    def test_accepts_service_ignored(self, buyer_seller):
        result = typecheck(buyer_seller.globals["G"], buyer_seller.sessions["M"], {"s", "c"})
        assert isinstance(result, Derivation)
        assert result.rule_counts()["Cycle"] == 1

    def test_no_smaller_ignored_set_works(self, buyer_seller):
        g, m = buyer_seller.globals["G"], buyer_seller.sessions["M"]
        for small in [set(), {"s"}, {"c"}, {"b"}]:
            assert not accepts(g, m, small)


class TestLoopWithBystander:
    # G = p->q:l.G over p/q looping forever, r: anything nonzero
    def test_bystander_must_be_ignored(self, mutual_loop):
        g = mutual_loop.globals["Loop"]
        m = mutual_loop.sessions["M"]
        result = typecheck(g, m, set())
        assert isinstance(result, Rejection)
        assert result.reason == "ParticipantEquationFailed"
        assert accepts(g, m, {"r"})


class TestRejectionKinds:
    def test_unbounded_global_refused(self, unbounded):
        result = typecheck(unbounded.globals["G"], unbounded.sessions["M"], set())
        assert isinstance(result, Rejection)
        assert result.reason == "Unbounded"

    def test_root_mismatch(self):
        spec = parse(
            "process P = q?l.P\nprocess Q = p?l.Q\nsession M = p: P | q: Q\nglobal G = p->q:l.G"
        )
        result = typecheck(spec.globals["G"], spec.sessions["M"], set())
        assert isinstance(result, Rejection)
        assert result.reason == "RootMismatch"

    def test_label_set_mismatch_output(self):
        spec = parse(
            "process P = q!{ l1, l2 . P }\nprocess Q = p?{ l1, l2 . Q }\n"
            "session M = p: P | q: Q\nglobal G = p->q:l1.end"
        )
        result = typecheck(spec.globals["G"], spec.sessions["M"], set())
        assert isinstance(result, Rejection)
        assert result.reason == "LabelSetMismatch"

    def test_label_set_mismatch_input(self):
        spec = parse(
            "process P = q!{ l1, l2 }\nprocess Q = p?l1.Q\n"
            "session M = p: P | q: Q\nglobal G = p->q:{ l1, l2 }"
        )
        result = typecheck(spec.globals["G"], spec.sessions["M"], set())
        assert isinstance(result, Rejection)
        assert result.reason == "LabelSetMismatch"

    def test_input_may_be_wider_than_global(self):
        spec = parse(
            "process P = q!l1\nprocess Q = p?{ l1, l2 }\n"
            "session M = p: P | q: Q\nglobal G = p->q:l1.end"
        )
        assert accepts(spec.globals["G"], spec.sessions["M"], set())

    def test_ignored_mismatch(self):
        spec = parse(
            "process P = q!l1\nprocess Q = p?l1\nsession M = p: P | q: Q\nglobal G = p->q:l1.end"
        )
        result = typecheck(spec.globals["G"], spec.sessions["M"], {"p"})
        assert isinstance(result, Rejection)


class TestParticipantEquation:
    def test_social_media_root_step(self, social_media):
        g = social_media.globals["G"]
        m = normalize_session(social_media.sessions["M"])
        # after q-hello-p the continuation keeps all three roles; u is ignored
        g1 = g.at(dict(g.root_node.branches)["hello"])
        residual = without(m, ("q", "p"))
        assert check_participant_equation(g1, {"u"}, "q", "p", residual)

    def test_trivial_empty(self):
        assert check_participant_equation(END_GLOBAL, set(), "p", "q", session_of({}))

    def test_wrong_residual(self):
        g = first_global("global G = p->q:{ a . r->p:x . G, b . r->p:x . G }")
        spec = parse("process S = p!z.S\nsession R = s: S")
        assert not check_participant_equation(
            g, set(), "p", "q", spec.sessions["R"]
        )


class TestAgainstBruteForce:
    """The production checker must agree with an unpruned exponential search."""

    def _globals_for(self, m):
        from mpst.inference import SearchBudget, enumerate_solutions

        seen = []
        for _, _, g, _ in enumerate_solutions(m, SearchBudget(max_size=8, max_outcomes=6)):
            seen.append(g)
        return seen

    @pytest.mark.parametrize("seed", range(12))
    def test_differential_on_random_sessions(self, seed):
        import random

        from mpst.random_sessions import random_global, random_session
        from mpst.terms import participants

        from .oracles import naive_typecheck

        rng = random.Random(3000 + seed)
        m = random_session(rng, 3, 3, labels=("a", "b"))
        candidates = self._globals_for(m)
        candidates.append(random_global(rng, sorted(participants(m) | {"p", "q"}), 3, ("a", "b")))
        parts = sorted(participants(m))
        for g in candidates:
            for k in range(len(parts) + 1):
                import itertools

                for combo in itertools.combinations(parts, k):
                    expected = naive_typecheck(g, m, frozenset(combo))
                    got = accepts(g, m, frozenset(combo))
                    assert got == expected, (combo, seed)

    def test_loop_judgment_holds_for_every_subset(self):
        # a send/receive loop can ignore any subset of its two participants:
        # each choice closes the cycle at a different triple
        spec = parse(
            "process P = q?{ a . P, b . P }\nprocess Q = p!b . Q\n"
            "session M = p: P | q: Q\nglobal G = q->p:b . G"
        )
        from .oracles import naive_typecheck

        for combo in [set(), {"p"}, {"q"}, {"p", "q"}]:
            assert accepts(spec.globals["G"], spec.sessions["M"], combo)
            assert naive_typecheck(spec.globals["G"], spec.sessions["M"], combo)

    @pytest.mark.parametrize(
        "fname,gname,sname",
        [
            ("buyer_seller.mpst", "G", "M"),
            ("mutual_loop.mpst", "Loop", "M"),
        ],
    )
    def test_differential_on_goldens(self, fname, gname, sname):
        import itertools

        from mpst.terms import participants

        from .conftest import load_golden
        from .oracles import naive_typecheck

        spec = load_golden(fname)
        g, m = spec.globals[gname], spec.sessions[sname]
        parts = sorted(participants(m))
        for k in range(len(parts) + 1):
            for combo in itertools.combinations(parts, k):
                assert accepts(g, m, frozenset(combo)) == naive_typecheck(
                    g, m, frozenset(combo)
                ), combo


class TestSerialization:
    def test_derivation_json_tree(self, social_media):
        result = typecheck(social_media.globals["G"], social_media.sessions["M"], {"u"})
        data = result.to_json_dict()
        assert data["rule"] == "Comm"
        assert data["ignored"] == ["u"]
        assert data["premises"][0]["branch"] == "hello"

    def test_derivation_text_tree(self, social_media):
        result = typecheck(social_media.globals["G"], social_media.sessions["M"], {"u"})
        text = result.to_text()
        assert "[Comm]" in text and "[Weak]" in text and "[Cycle]" in text and "[End]" in text

    def test_rejection_json(self, unbounded):
        result = typecheck(unbounded.globals["G"], unbounded.sessions["M"], set())
        data = result.to_json_dict()
        assert data["reason"] == "Unbounded"
        assert "detail" in data


class TestSessionSpaces:
    def test_one_space_per_start_session(self, social_media, buyer_seller):
        # A session a space has built is decided in that space, on its state
        # id; a session no space has built starts a space of its own.
        checker = Typechecker()
        m = social_media.sessions["M"]
        space, s = checker.locate(m)
        assert checker.locate(session_of(dict(m.bindings))) == (space, s)
        for _, t in space.transitions(s):
            assert checker.locate(space.session(t)) == (space, t)
        other, start = checker.locate(buyer_seller.sessions["M"])
        assert other is not space and start == other.start

    def test_judgments_are_keyed_on_state_ids(self, social_media):
        checker = Typechecker()
        g, m = social_media.globals["G"], social_media.sessions["M"]
        assert checker.accepts(g, m, {"u"})
        space, _ = checker.locate(m)
        assert space.accepted and all(isinstance(s, int) for _, s, _ in space.accepted)

    def test_the_table_keeps_only_successes_that_depend_on_no_hypothesis(self, social_media):
        # The derivation under {u} closes its one Cycle at its root: the
        # root is kept, and three of its six Comm steps, which lean on the
        # root's hypothesis, are decided again when met again.
        checker = Typechecker()
        g, m = social_media.globals["G"], social_media.sessions["M"]
        assert checker.check(g, m, {"u"}).rule_counts() == Counter(Comm=6, Weak=1, End=1, Cycle=1)
        space, _ = checker.locate(m)
        assert all(success is not None and not refs for success, refs in space.accepted.values())
        assert Counter(success[0] for success, _ in space.accepted.values()) == Counter(Comm=3, Weak=1, End=1)


def _report(result):
    """What a check reports: its JSON, and a derivation's text or a
    rejection's depth."""
    extra = result.to_text() if isinstance(result, Derivation) else result.depth
    return type(result).__name__, result.to_json_dict(), extra


def _golden_triples():
    """Every global x session x ignored subset of the session's participants
    of every golden."""
    for path in sorted(GOLDEN.glob("*.mpst")):
        spec = load_golden(path.name)
        for g in spec.globals.values():
            for m in spec.sessions.values():
                for p in subsets(participants(m)):
                    yield g, m, p


def _random_triples(seeds):
    """Per seed a random session against a random global type over its
    participants and against each step of that type, under every ignored
    subset of the session's participants."""
    for seed in seeds:
        rng = random.Random(seed)
        m = random_session(rng, 3, 3, labels=("a", "b"))
        parts = participants(m)
        g = random_global(rng, sorted(parts if len(parts) > 1 else parts | {"p", "q"}), 3, ("a", "b"))
        for g2 in [g, *(step for _, step in global_transitions(g))]:
            for p in subsets(parts):
                yield g2, m, p


def _inferred_triples():
    """The solved types of each golden session under every ignored subset of
    its participants, and of the random sessions of seeds 0-399 under their
    own ignored sets."""
    from mpst.inference import SearchBudget

    from .oracles import solved

    for path in sorted(GOLDEN.glob("*.mpst")):
        for m in load_golden(path.name).sessions.values():
            for *_, g, _ in solved(m):
                for p in subsets(participants(m)):
                    yield g, m, p
    for seed in range(400):
        m = random_session(random.Random(seed), 3, 3, labels=("a", "b"))
        for *_, g, p in solved(m, SearchBudget(max_size=8, max_outcomes=6)):
            yield g, m, p


def _chain_triples(n):
    """Every step G_i of the typed two-party chain of n definitions, and of
    the chain that deadlocks at its end, under every ignored subset of
    {p, q}."""
    for last_q in ("p?a", "p?a . p?b"):
        spec = parse(two_party_chain(n, last_q=last_q))
        m = spec.sessions["M"]
        for g in spec.globals.values():
            for p in subsets(frozenset({"p", "q"})):
                yield g, m, p


class TestAgainstTheOracle:
    """The search on plain tuples against check_oracle, the search that made
    a public record at every step: the same report from one checker shared
    over all inputs, whose tables carry over from query to query, and from a
    fresh checker per input."""

    def _agree(self, triples):
        checker, located = Typechecker(), {}
        for g, m, p in triples:
            shared, fresh = checker.check(g, m, p), Typechecker().check(g, m, p)
            assert _report(shared) == _report(check_oracle(g, m, p, located)), (g, m, p)
            assert _report(fresh) == _report(check_oracle(g, m, p)), (g, m, p)
            # a reused checker may give another derivation, never another verdict
            assert isinstance(shared, Derivation) == isinstance(fresh, Derivation), (g, m, p)
            assert gfp_accepts(g, m, p) == isinstance(fresh, Derivation), (g, m, p)

    def test_goldens(self):
        self._agree(_golden_triples())

    def test_random_sessions(self):
        self._agree(_random_triples(range(400)))

    def test_inferred_triples(self):
        self._agree(_inferred_triples())

    def test_typed_chains(self):
        # The steps of a chain share most of their judgments, so here the
        # shared checker's table and the oracle's reuse rules differ most.
        self._agree(_chain_triples(12))


class TestFixpointJudgeOnChains:
    """gfp_accepts on typed chains too long for naive_typecheck, and for the
    checker in tier-1 time or within the recursion limit."""

    def test_a_150_chain_types_one_step_behind_under_both_ignored(self):
        spec = parse(two_party_chain(150))
        assert gfp_accepts(spec.globals["G1"], spec.sessions["M"], {"p", "q"})

    def test_a_400_chain_types_under_no_ignored(self):
        spec = parse(two_party_chain(400))
        assert gfp_accepts(spec.globals["G0"], spec.sessions["M"], set())

    def test_a_50_chain_is_decided_in_time_and_its_table_keeps_no_rejection(self):
        # The chain's judgments come back under many search stacks; this
        # takes under a second on a 2-core x86-64 machine.
        spec = parse(two_party_chain(50))
        g, m = spec.globals["G1"], spec.sessions["M"]
        checker = Typechecker()
        start = time.perf_counter()
        assert checker.accepts(g, m, {"p", "q"})
        assert time.perf_counter() - start < 2.5
        space, _ = checker.locate(m)
        assert space.accepted
        assert all(success is not None and not refs for success, refs in space.accepted.values())

    def test_a_30_chain_that_deadlocks_at_its_end_is_rejected_as_the_checker_says(self):
        spec = parse(two_party_chain(30, last_q="p?a . p?b"))
        g, m = spec.globals["G0"], spec.sessions["M"]
        assert not gfp_accepts(g, m, {"p", "q"})
        assert not accepts(g, m, {"p", "q"})


class TestPremiseTieRule:
    """Among the rejections of a judgment's premises, a later one replaces the
    kept one only when it sits strictly deeper; on a tie the earlier stays."""

    def test_a_later_rejection_one_level_deeper_replaces_the_kept_one(self):
        # Under {p, q} the root's branch-a premise is tried under {}, {p}, {q}
        # and {p, q} in turn.  It fails one level below itself under {} and
        # two under {p} and {q}, so the answer is {p}'s, three levels below
        # the root, not {}'s at two; the tie with {q} keeps {p}'s.
        spec = parse(
            "process P0 = q?{ a . P0, b . P01 }\nprocess P01 = q!{ a . P02, b . P01 }\n"
            "process P02 = q!b . P02\nprocess P1 = p!{ a . P1, b . P1 }\n"
            "session M = p: P0 | q: P1\nglobal G = q->p:{ a . G, b . G }"
        )
        result = typecheck(spec.globals["G"], spec.sessions["M"], {"p", "q"})
        assert isinstance(result, Rejection)
        assert (result.reason, result.depth, result.judgment.ignored) == ("RootMismatch", 3, frozenset())
        assert format_session(result.judgment.session) == (
            "p: P0 | q: P1  where  P0 = q!{ a . P01, b . P0 } ; P01 = q!b . P01 ; P1 = p!{ a . P1, b . P1 }"
        )

    def test_on_a_tie_the_earlier_rejection_stays(self):
        # After the root step q sends a or b, and the global type lists only
        # a: the premise fails at once under {} and under {p}, and the answer
        # names the first, under {}.
        spec = parse(
            "process P0 = q?a . P0\nprocess P1 = p!a . p!{ a . P1, b . p!a . P1 }\n"
            "session M = p: P0 | q: P1\nglobal G = q->p:a . G"
        )
        result = typecheck(spec.globals["G"], spec.sessions["M"], {"p"})
        assert isinstance(result, Rejection)
        assert (result.reason, result.depth, result.judgment.ignored) == ("LabelSetMismatch", 1, frozenset())
        assert format_session(result.judgment.session) == (
            "p: P0 | q: P1  where  P0 = q?a . P0 ; P1 = p!{ a . P11, b . p!a . P11 } ; P11 = p!a . P1"
        )


class TestPremisePickOrder:
    """Comm takes the first choice of premise ignored sets that unions to P,
    in branch order and then in each branch's subset order."""

    @pytest.mark.parametrize("ignored", [{"p"}, {"q"}, {"p", "q"}])
    def test_the_first_branch_takes_the_smallest_set(self, ignored):
        # Each branch types under {} as a Comm and under P as a Cycle back to
        # the root: the first choice keeps {} on branch a and gives P to b.
        spec = parse(
            "process P0 = q!{ a . P0, b . P0 }\nprocess P1 = p?{ a . P1, b . P1 }\n"
            "session M = p: P0 | q: P1\nglobal G = p->q:{ a . G, b . G }"
        )
        result = typecheck(spec.globals["G"], spec.sessions["M"], ignored)
        assert isinstance(result, Derivation) and result.rule == "Comm"
        premises = [(d.rule, d.judgment.ignored) for d in result.premises]
        assert result.branch_labels == ("a", "b")
        assert premises == [("Comm", frozenset()), ("Cycle", frozenset(ignored))]


class TestRecordsOnlyForAnswers:
    """The search builds no Judgment, Derivation or Rejection: check makes
    them for its answer alone, one per node, and accepts, the subset search
    and meta's walks make none."""

    @pytest.fixture
    def made(self, monkeypatch):
        made = Counter()
        classes = (Judgment, Derivation, Rejection)
        for cls in classes:

            def counted(self, *args, _init=cls.__init__, **kwargs):
                made[type(self).__name__] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        make = terms._make

        def counting_make(cls, *fields, **memo):
            if cls in classes:
                made[cls.__name__] += 1
            return make(cls, *fields, **memo)

        monkeypatch.setattr(terms, "_make", counting_make)
        monkeypatch.setattr(importlib.import_module("mpst.typecheck"), "_make", counting_make, raising=False)
        return made

    def test_accepts_and_walks_build_none(self, made):
        config = ExploreConfig(max_states=150)
        for g, m, p in _golden_triples():
            checker = Typechecker()
            checker.accepts(g, m, p)
            accepts(g, m, p)
            checker.smallest_accepted_subset(g, m, participants(m))
            for walk in (check_subject_reduction, check_session_fidelity):
                try:
                    walk(g, m, p, checker, config)
                except StateLimitExceeded:
                    pass
            check_replacement(g, m, p, random.Random(0), checker=checker)
        assert made == {}

    def test_check_builds_one_record_per_node_of_its_answer(self, made):
        checker, shared = Typechecker(), 0
        for g, m, p in chain(_golden_triples(), _inferred_triples()):
            made.clear()
            result = checker.check(g, m, p)
            if isinstance(result, Derivation):
                nodes = list(result.iter_nodes())
                distinct = len({id(d) for d in nodes})
                shared += len(nodes) - distinct
                assert made == {"Derivation": distinct, "Judgment": distinct}
            else:
                assert made == {"Rejection": 1, "Judgment": 1}
        assert shared  # some answer reaches one node twice

    def test_meta_builds_only_its_answers(self, made, monkeypatch):
        answers, check = [], Typechecker.check

        def kept(self, *args):
            answers.append(check(self, *args))
            return answers[-1]

        monkeypatch.setattr(Typechecker, "check", kept)
        for path in sorted(GOLDEN.glob("*.mpst")):
            try:
                run_file_suite(load_golden(path.name), config=ExploreConfig(max_states=400))
            except StateLimitExceeded:
                pass
        want = Counter()
        for result in answers:
            if isinstance(result, Derivation):
                distinct = len({id(d) for d in result.iter_nodes()})
                want.update(Derivation=distinct, Judgment=distinct)
            else:
                want.update(Rejection=1, Judgment=1)
        assert made == want == {"Judgment": 28, "Derivation": 23, "Rejection": 5}
