"""Acceptance gates: golden-example reproduction plus the property suites.

Each test prints one PASS/FAIL line (visible with -s / -rA); all checks are
exact, no tolerances.
"""

import json
import random
from contextlib import contextmanager

from mpst.analysis import (
    bounded,
    excluded_deadlock_free,
    excluded_lock_free,
)
from mpst.cli import run
from mpst.frontend import format_global, format_process, parse, parse_global, parse_process
from mpst.inference import SearchBudget, enumerate_solutions, infer_minimal
from mpst.metatheory import Typechecker, run_suite
from mpst.random_sessions import random_session
from mpst.semantics import ExploreConfig, explore
from mpst.terms import minimize_global, participants, session_of
from mpst.typecheck import Derivation, Rejection, typecheck

from .conftest import golden_path, load_golden
from .oracles import deadlock_free_oracle, globals_equivalent, lock_free_oracle, processes_equivalent

GOLDEN_FILES = [
    "social_media.mpst",
    "buyer_seller.mpst",
    "unbounded.mpst",
    "mutual_loop.mpst",
    "empty.mpst",
]

GOLDEN_ACCEPTED_TRIPLES = [
    ("social_media.mpst", "G", "M", frozenset({"u"})),
    ("buyer_seller.mpst", "G", "M", frozenset({"s", "c"})),
    ("mutual_loop.mpst", "Loop", "M", frozenset({"r"})),
]


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_social_media_reproduction(social_media):
    with criterion(1, "social-media reproduction"):
        g, m = social_media.globals["G"], social_media.sessions["M"]
        result = typecheck(g, m, {"u"})
        assert isinstance(result, Derivation)
        counts = result.rule_counts()
        assert counts["Weak"] == 1
        assert counts["End"] == 1
        assert counts["Cycle"] == 1
        assert set(counts) == {"Weak", "End", "Cycle", "Comm"}

        target = minimize_global(g)
        assert any(
            solved == target and p == {"u"}
            for _, _, solved, p in enumerate_solutions(m)
        )


def test_criterion_2_buyer_seller_reproduction(buyer_seller):
    with criterion(2, "buyer-seller reproduction"):
        g, m = buyer_seller.globals["G"], buyer_seller.sessions["M"]
        assert isinstance(typecheck(g, m, set()), Rejection)
        assert isinstance(typecheck(g, m, {"s", "c"}), Derivation)
        solved, p = infer_minimal(m)
        assert p == {"s", "c"}
        assert solved == minimize_global(g)


def test_criterion_3_unbounded_gate_and_refusal(unbounded):
    with criterion(3, "counterexample gates: unbounded refusal"):
        verdict = bounded(unbounded.globals["G"])
        assert not verdict.holds
        result = typecheck(unbounded.globals["G"], unbounded.sessions["M"], set())
        assert isinstance(result, Rejection)
        assert result.reason == "Unbounded"
        # no ignored set rescues an unbounded communication step
        for ign in [{"r"}, {"r", "s"}, {"p", "q", "r", "s"}]:
            rej = typecheck(unbounded.globals["G"], unbounded.sessions["M"], ign)
            assert isinstance(rej, Rejection)


def test_criterion_3_bounded_gate_on_leading_exchange(unbounded):
    # G runs the r-s exchange once, after the p-q loop ends; moving that
    # exchange in front of the choice gives GL = r->s:l . L with the bare
    # p-q loop L, which is bounded and types M.  The golden GB is not this
    # reordering: it repeats the exchange on every lap, and its l1 branch
    # ends without r while the l2 loop involves r, so GB is unbounded at its
    # inner choice (test_analysis pins that verdict); loosening depth to
    # accept GB would let subject reduction fail.
    with criterion(3, "counterexample gates: leading-exchange type bounded"):
        gl = parse("global GL = r->s:l . L\nglobal L = p->q:{ l1, l2 . L }\n").globals["GL"]
        assert bounded(gl).holds
        assert isinstance(typecheck(gl, unbounded.sessions["M"], set()), Derivation)


def test_criterion_4_liveness_exactness():
    with criterion(4, "liveness exactness vs brute-force oracle"):
        rng = random.Random(20260810)
        sessions = []
        for name in GOLDEN_FILES:
            spec = load_golden(name)
            sessions.extend(spec.sessions.values())
        for _ in range(200):
            sessions.append(random_session(rng, max_participants=4, max_nodes=5))
        checked = 0
        for m in sessions:
            graph = explore(m, ExploreConfig(max_states=2000))
            if len(graph.states) > 500:
                continue
            parts = sorted(participants(m))
            ignored_sets = {frozenset(), frozenset(parts)}
            for _ in range(3):
                ignored_sets.add(
                    frozenset(rng.sample(parts, rng.randint(0, len(parts))))
                    if parts
                    else frozenset()
                )
            for ign in sorted(ignored_sets, key=sorted):
                assert (
                    excluded_lock_free(m, ign, graph=graph).holds
                    == lock_free_oracle(graph, ign)
                )
                assert (
                    excluded_deadlock_free(m, ign, graph=graph).holds
                    == deadlock_free_oracle(graph, ign)
                )
                checked += 1
        assert checked >= 400


def test_criterion_5_metatheory_suite():
    with criterion(5, "metatheory suite: SR, SF, LF, lemmas"):
        checker = Typechecker()
        suite_rng = random.Random(5)

        for fname, gname, sname, ignored in GOLDEN_ACCEPTED_TRIPLES:
            spec = load_golden(fname)
            accepted, violations = run_suite(
                spec.globals[gname], spec.sessions[sname], ignored, suite_rng, checker
            )
            assert accepted, (fname, gname, sname)
            assert violations == [], (fname, violations)

        rng = random.Random(20260810)
        triples = 0
        while triples < 100:
            m = random_session(rng, max_participants=3, max_nodes=3, labels=("a", "b"))
            budget = SearchBudget(max_size=10, max_outcomes=8)
            for outcome, theta, g, p in enumerate_solutions(m, budget):
                accepted, violations = run_suite(g, m, p, random.Random(triples), checker)
                assert accepted
                assert violations == [], (violations, sorted(p))
                triples += 1
                if triples >= 100:
                    break
        assert triples == 100


def test_criterion_6_inference_soundness_and_completeness():
    with criterion(6, "inference soundness and desk-scale completeness"):
        checker = Typechecker()

        # soundness: every emitted solution typechecks
        rng = random.Random(66)
        solution_count = 0
        for _ in range(30):
            m = random_session(rng, 3, 3, labels=("a", "b"))
            for outcome, theta, g, p in enumerate_solutions(
                m, SearchBudget(max_size=10, max_outcomes=8)
            ):
                assert checker.accepts(g, m, p)
                solution_count += 1
        assert solution_count >= 30

        # completeness at desk scale: the golden triples are rediscovered
        # within the default budget
        for fname, gname, sname, ignored in GOLDEN_ACCEPTED_TRIPLES:
            spec = load_golden(fname)
            target = minimize_global(spec.globals[gname])
            m = spec.sessions[sname]
            assert checker.accepts(spec.globals[gname], m, ignored)
            assert any(
                g == target and p == ignored for _, _, g, p in enumerate_solutions(m)
            ), (fname, gname)
        # and the null session yields exactly (end, {})
        g, p = infer_minimal(session_of({}), SearchBudget(max_size=4))
        assert g.is_end and p == frozenset()


def test_criterion_7_roundtrip_and_determinism(capsys):
    with criterion(7, "round-trip and byte-stable reports"):
        for name in GOLDEN_FILES:
            spec = load_golden(name)
            for g in spec.globals.values():
                assert globals_equivalent(parse_global(format_global(g)), g)
            for proc in spec.processes.values():
                assert processes_equivalent(parse_process(format_process(proc)), proc)

        social = str(golden_path("social_media.mpst"))
        runs = []
        for _ in range(2):
            for argv in (
                ["check", "--global", "G", "--session", "M", "--ignored", "u", social],
                ["infer", "--session", "M", "--minimal", "--show-equations", social],
                ["meta", "--seed", "9", social],
            ):
                code = run(argv + ["--format", "json"])
                assert code == 0
                json.loads(capsys.readouterr().out)  # well-formed
        for _ in range(2):
            run(["meta", "--seed", "9", "--format", "json", social])
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]


def test_criterion_8_documented_lock_freedom_discrepancy(buyer_seller):
    with criterion(8, "buyer-seller lock-freedom reading is documented"):
        verdict = excluded_lock_free(buyer_seller.sessions["M"], set())
        assert verdict.holds is True
        data = verdict.to_json_dict()
        assert "note" in data and "existential" in data["note"]
