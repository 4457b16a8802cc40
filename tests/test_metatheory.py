import random

import pytest

from mpst import cli, metatheory
from mpst.frontend import parse
from mpst.inference import SearchBudget, enumerate_solutions
from mpst.metatheory import (
    Typechecker,
    check_lock_freedom_soundness,
    check_plays_equation,
    check_replacement,
    check_session_fidelity,
    check_subject_reduction,
    check_top_partner_closure,
    run_file_suite,
    run_suite,
)
from mpst.random_sessions import random_session
from mpst.semantics import ExploreConfig, StateLimitExceeded, subsets
from mpst.terms import END_GLOBAL, normalize_session, participants
from mpst.typecheck import Derivation, Judgment

from .conftest import GOLDEN, load_golden
from .oracles import replay_oracle


GOLDEN_TRIPLES = [
    ("social_media.mpst", "G", "M", {"u"}),
    ("buyer_seller.mpst", "G", "M", {"s", "c"}),
    ("mutual_loop.mpst", "Loop", "M", {"r"}),
]


@pytest.fixture(scope="module")
def checker():
    return Typechecker()


@pytest.mark.parametrize("fname,gname,sname,ignored", GOLDEN_TRIPLES)
class TestGoldenTriples:
    def test_subject_reduction(self, fname, gname, sname, ignored, checker):
        from .conftest import load_golden

        spec = load_golden(fname)
        assert check_subject_reduction(spec.globals[gname], spec.sessions[sname], ignored, checker) == []

    def test_session_fidelity(self, fname, gname, sname, ignored, checker):
        from .conftest import load_golden

        spec = load_golden(fname)
        assert check_session_fidelity(spec.globals[gname], spec.sessions[sname], ignored, checker) == []

    def test_lock_freedom(self, fname, gname, sname, ignored, checker):
        from .conftest import load_golden

        spec = load_golden(fname)
        assert check_lock_freedom_soundness(spec.globals[gname], spec.sessions[sname], ignored) == []

    def test_lemmas(self, fname, gname, sname, ignored, checker):
        from .conftest import load_golden

        spec = load_golden(fname)
        g, m = spec.globals[gname], spec.sessions[sname]
        derivation = checker.check(g, m, ignored)
        assert check_plays_equation(derivation) == []
        assert check_top_partner_closure(g, normalize_session(m), ignored) == []

    def test_replacement(self, fname, gname, sname, ignored, checker):
        from .conftest import load_golden

        spec = load_golden(fname)
        violations = check_replacement(
            spec.globals[gname], spec.sessions[sname], ignored, random.Random(11), checker=checker
        )
        assert violations == []


class TestFileSuite:
    def test_social_media_all_green(self, tmp_path):
        from .conftest import golden_path

        spec = parse(golden_path("social_media.mpst").read_text())
        report = run_file_suite(spec, seed=3)
        assert report.ok
        accepted = [c for c in report.combos if c["accepted"]]
        assert any(c["ignored"] == ["u"] for c in accepted)

    def test_unbounded_never_accepted(self):
        from .conftest import golden_path

        spec = parse(golden_path("unbounded.mpst").read_text())
        report = run_file_suite(spec, seed=3)
        assert report.ok  # nothing accepted, so no obligations and no violations
        g_combos = [c for c in report.combos if c["global"] == "G"]
        assert g_combos and all(not c["accepted"] for c in g_combos)
        assert all(c["rejection"] == "Unbounded" for c in g_combos)

    def test_each_combo_is_decided_once(self, monkeypatch):
        # Both combos of unbounded.mpst are rejected; the rejection the suite
        # reports is the one its single check gave.
        from .conftest import golden_path

        calls = []
        check = Typechecker.check

        def counted(self, *args):
            calls.append(args)
            return check(self, *args)

        monkeypatch.setattr(Typechecker, "check", counted)
        report = run_file_suite(parse(golden_path("unbounded.mpst").read_text()), seed=3)
        assert [c["accepted"] for c in report.combos] == [False, False]
        assert len(calls) == 2

    def test_empty_file_suite_is_vacuous(self):
        report = run_file_suite(parse(""), seed=0)
        assert report.ok and report.combos == []


class TestRandomTriples:
    @pytest.mark.parametrize("seed", range(10))
    def test_inference_produced_triples_satisfy_metatheory(self, seed, checker):
        rng = random.Random(900 + seed)
        m = random_session(rng, 3, 3, labels=("a", "b"))
        budget = SearchBudget(max_size=10, max_outcomes=8)
        for outcome, theta, g, p in enumerate_solutions(m, budget):
            accepted, violations = run_suite(g, m, p, random.Random(seed), checker)
            assert accepted
            assert violations == []


class _RetypesNothing(Typechecker):
    """Accepts the root triple as Typechecker does, but re-types no successor."""

    def smallest_accepted_subset(self, g, m, p_set):
        return None


class TestWalks:
    def test_each_walk_reports_a_successor_it_cannot_retype(self, social_media):
        g, m = social_media.globals["G"], social_media.sessions["M"]
        checker = _RetypesNothing()
        assert [str(v) for v in check_subject_reduction(g, m, {"u"}, checker)] == [
            "[subject-reduction] after step q hello p: no ignored subset of ['u'] re-types the session"
        ]
        assert [str(v) for v in check_session_fidelity(g, m, {"u"}, checker)] == [
            "[session-fidelity] after global step q hello p: no ignored subset of ['u'] re-types"
        ]

    @pytest.mark.parametrize("walk", [check_subject_reduction, check_session_fidelity])
    def test_unbounded_walk_stops_at_the_state_budget(self, walk):
        from .conftest import load_golden

        # The session has 4 states, but one loop may run ahead of the other
        # in the global type, so the typed triples never close.
        spec = load_golden("two_loops.mpst")
        with pytest.raises(StateLimitExceeded, match="state limit of 50"):
            walk(spec.globals["G"], spec.sessions["M"], set(), config=ExploreConfig(max_states=50))


class _Recording(Typechecker):
    """A Typechecker that records, in order, the successors it is asked to
    re-type.  It re-types them as Typechecker does ("check"), none of them
    ("none"), or every one with the empty set, the root included ("all"),
    so that the walks also reach triples that do not type."""

    def __init__(self, mode: str):
        super().__init__()
        self.mode = mode
        self.asked: list[tuple] = []

    def accepts(self, g, m, ignored):
        return self.mode == "all" or super().accepts(g, m, ignored)

    def smallest_accepted_subset(self, g, m, p_set):
        self.asked.append((g, m, p_set))
        if self.mode == "check":
            return super().smallest_accepted_subset(g, m, p_set)
        return frozenset() if self.mode == "all" else None


_WALKS = [("subject-reduction", check_subject_reduction), ("session-fidelity", check_session_fidelity)]


def _walked(walk, g, m, p, mode, config):
    """The violations of one walk, or the budget it ran out of, and the
    successors it asked to re-type."""
    checker = _Recording(mode)
    try:
        found = [str(v) for v in walk(g, m, p, checker, config)]
    except StateLimitExceeded as exc:
        found = str(exc)
    return found, checker.asked


def _assert_walks_agree(g, m, p, config=ExploreConfig(max_states=40)) -> None:
    for check, walk in _WALKS:
        for mode in ("check", "none", "all"):
            ours = _walked(walk, g, m, p, mode, config)
            theirs = _walked(lambda *args: replay_oracle(check, *args), g, m, p, mode, config)
            assert ours == theirs, (check, mode)


class TestWalksAgainstTheOracle:
    """meta's walks on the state ids of the checker's session space against
    the same walks over sessions: the same violations, or the same budget
    exceeded, after the same successors were asked to be re-typed."""

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.mpst")), ids=lambda path: path.stem)
    def test_goldens(self, path):
        spec = load_golden(path.name)
        for g in spec.globals.values():
            for m in spec.sessions.values():
                for p in subsets(participants(m)):
                    _assert_walks_agree(g, m, p)

    @pytest.mark.parametrize("seed", range(0, 10, 2))
    def test_random_accepted_triples(self, seed):
        for s in (seed, seed + 1):
            m = random_session(random.Random(900 + s), 3, 3, labels=("a", "b"))
            for _, _, g, p in enumerate_solutions(m, SearchBudget(max_size=10, max_outcomes=8)):
                _assert_walks_agree(g, m, p)

    @pytest.mark.parametrize("states,edges", [(1, 100), (2, 100), (40, 1000), (1000, 1), (1000, 30)])
    def test_same_budget_point_on_two_loops(self, states, edges):
        spec = load_golden("two_loops.mpst")
        g, m = spec.globals["G"], spec.sessions["M"]
        config = ExploreConfig(max_states=states, max_edges=edges)
        for check, walk in _WALKS:
            ours = _walked(walk, g, m, frozenset(), "check", config)
            assert isinstance(ours[0], str)
            assert ours == _walked(lambda *args: replay_oracle(check, *args), g, m, frozenset(), "check", config)


class TestViolationReports:
    """Each check's report on a planted fault: a judgment no derivation of
    the checker carries, a session step or state the checks exist to rule
    out, or an analysis that answers wrongly."""

    SPEC = (
        "session Split = p: r!a . q!a | q: p?a | r: p?a\n"
        "session Stuck = p: q?a | q: p?a\n"
        "session Aside = p: r!a | q: p?a | r: p?a\n"
        "global G = p->q:a"
    )

    def test_plays_equation(self):
        spec = parse(self.SPEC)
        node = Derivation("End", Judgment(END_GLOBAL, spec.sessions["Stuck"], frozenset()))
        assert [str(v) for v in check_plays_equation(node)] == [
            "[plays-equation] plays(G) | P = [] but plays(M) = ['p', 'q'] at a End node"
        ]

    def test_top_partner_outside_the_global_type(self):
        spec = parse(self.SPEC)
        m = normalize_session(spec.sessions["Aside"])
        assert [str(v) for v in check_top_partner_closure(spec.globals["G"], m, set())] == [
            "[top-partner] p occurs in the global type but its top partner 'r' does not"
        ]

    def test_lock_freedom(self):
        spec = parse(self.SPEC)
        assert [str(v) for v in check_lock_freedom_soundness(spec.globals["G"], spec.sessions["Stuck"], set())] == [
            "[lock-freedom] typed session is not lock-free for []: participant p locked in state 0"
        ]

    def test_a_session_step_with_one_endpoint_in_the_global_type(self):
        # p talks to r, which the global type does not mention, so the step
        # can neither be matched nor leave the judgment intact.
        spec = parse(self.SPEC)
        g, m = spec.globals["G"], spec.sessions["Split"]
        assert [str(v) for v in check_subject_reduction(g, m, set(), _Recording("all"))] == [
            "[subject-reduction] step p a r: exactly one endpoint occurs in the global type"
        ]

    def test_meta_prints_each_violation_of_a_combo(self, capsys, monkeypatch):
        # With top_partner answering a participant no global type plays, the
        # one accepted combo of social_media.mpst fails the closure for
        # every participant of G.
        monkeypatch.setattr(metatheory, "top_partner", lambda m, p: "z")
        assert cli.run(["meta", str(GOLDEN / "social_media.mpst")]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == [
            "G |- M []: not derivable (ParticipantEquationFailed)",
            "G |- M [u]: VIOLATIONS",
            "  [top-partner] p occurs in the global type but its top partner 'z' does not",
            "  [top-partner] q occurs in the global type but its top partner 'z' does not",
            "  [top-partner] u occurs in the global type but its top partner 'z' does not",
            "meta: violations found",
        ]
