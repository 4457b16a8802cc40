import pytest

from mpst.frontend import parse
from mpst.metatheory import check_plays_equation
from mpst.terms import END_GLOBAL, normalize_session, session_of
from mpst.typecheck import Derivation, Rejection, Typechecker, accepts, typecheck

from .oracles import check_participant_equation, without


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
        keys = [*space.accepted, *space.rejected]
        assert keys and all(isinstance(s, int) for _, s, _ in keys)
