import math
import random

import pytest

from mpst.analysis import (
    LOCKFREEDOM_NOTE,
    _tables,
    bounded,
    depth,
    excluded_deadlock_free,
    excluded_lock_free,
    plays_global,
    top_partner,
)
from mpst.frontend import parse
from mpst.random_sessions import random_global, random_session
from mpst.semantics import explore
from mpst.terms import (
    COMM,
    END,
    GNode,
    GlobalGraph,
    minimize_global,
    normalize_session,
    participants,
    session_of,
)
from mpst.typecheck import _unbounded_detail

from .conftest import GOLDEN, global_chain, load_golden, sessions_made
from .oracles import bounded_oracle, deadlock_free_oracle, lock_free_oracle, plays_oracle


def glob(text: str):
    return next(iter(parse(text).globals.values()))


class TestPlays:
    def test_social_media(self, social_media):
        assert plays_global(social_media.globals["G"]) == {"p", "q", "u"}

    def test_end(self):
        assert plays_global(glob("global G = end")) == frozenset()

    def test_buyer_seller(self, buyer_seller):
        assert plays_global(buyer_seller.globals["G"]) == {"b", "s"}


class TestDepth:
    def test_absent_participant(self):
        assert depth(glob("global G = end"), "p") == 0

    def test_social_media_u_waits_one_exchange(self, social_media):
        # every path is q-hello-p then p-req-u
        assert depth(social_media.globals["G"], "u") == 2

    def test_postponable_forever(self, unbounded):
        # the l2 loop avoids r
        assert depth(unbounded.globals["G"], "r") == math.inf

    def test_every_participant_at_root(self, buyer_seller):
        g = buyer_seller.globals["G"]
        assert depth(g, "b") == 1
        assert depth(g, "s") == 1

    def test_terminating_avoiding_path_is_infinite(self):
        # r occurs, but the l1 path ends without it
        g = glob("global G = p->q:{ l1 . end, l2 . r->s:x . end }")
        assert depth(g, "r") == math.inf

    @pytest.mark.parametrize("seed", range(40))
    def test_against_path_enumeration_oracle(self, seed):
        from mpst.random_sessions import random_global

        from .oracles import depth_oracle

        g = random_global(random.Random(seed), ("p", "q", "r"), max_nodes=5)
        for participant in ("p", "q", "r"):
            assert depth(g, participant) == depth_oracle(g, participant), (seed, participant)


class TestLongChain:
    """The count-downs are loops: a chain deeper than the recursion limit
    gets its depth and its verdict."""

    def test_depth_and_bounded(self):
        g = parse(global_chain(2000)).globals["G0"]
        assert depth(g, "r") == 2001
        assert depth(g, "p") == 1
        assert bounded(g).holds


class TestBounded:
    def test_social_media(self, social_media):
        assert bounded(social_media.globals["G"]).holds

    def test_buyer_seller(self, buyer_seller):
        assert bounded(buyer_seller.globals["G"]).holds

    def test_loop_postponing_pair(self, unbounded):
        verdict = bounded(unbounded.globals["G"])
        assert not verdict.holds
        assert verdict.witness_node == 0  # the root choice itself
        assert verdict.witness_participant == "r"

    def test_leading_exchange_stays_unbounded_inside(self, unbounded):
        # GB fires r-s first, but its inner choice still has a finite path
        # avoiding r, so some subterm has infinite depth.
        verdict = bounded(unbounded.globals["GB"])
        assert not verdict.holds
        assert verdict.witness_participant in {"r", "s"}

    def test_unreachable_nodes_do_not_count(self):
        # nodes 2 and 3 form an unbounded region (the b-loop at node 2 avoids
        # r forever) but hang off nothing reachable
        nodes = (
            GNode(COMM, "p", "q", (("l", 1),)),
            GNode(END, None, None, ()),
            GNode(COMM, "p", "q", (("a", 3), ("b", 2))),
            GNode(COMM, "r", "s", (("l", 1),)),
        )
        g = GlobalGraph(nodes, 0)
        assert math.inf == depth(g.at(2), "r")  # the region really is unbounded
        assert bounded(g).holds  # but it does not occur in g

    def test_consistency_with_depth(self, social_media, buyer_seller, unbounded):
        for g in [
            social_media.globals["G"],
            buyer_seller.globals["G"],
            unbounded.globals["G"],
            unbounded.globals["GB"],
        ]:
            verdict = bounded(g)
            finite_everywhere = all(
                depth(g.at(i), p) != math.inf
                for i in range(len(g.nodes))
                for p in plays_global(g.at(i))
            )
            assert verdict.holds == finite_everywhere


class TestBoundedAgainstTheOracle:
    """The one-pass verdict, witness included, against one depth search per
    node and participant."""

    @pytest.mark.parametrize("chunk", range(10))
    def test_random_globals_and_every_subterm(self, chunk):
        holds = []
        for seed in range(250 * chunk, 250 * (chunk + 1)):
            g = random_global(random.Random(seed), max_nodes=12 if seed % 5 == 0 else 5)
            for h in [g] + [g.at(i) for i in range(len(g.nodes))]:
                assert bounded(h) == bounded_oracle(h), (seed, h)
                holds.append(bounded(h).holds)
        assert True in holds and False in holds

    def test_goldens_and_every_subterm(self):
        graphs = [
            g for path in sorted(GOLDEN.glob("*.mpst")) for g in load_golden(path.name).globals.values()
        ]
        # two of three branches share a target: a node is settled per branch
        graphs.append(glob("global G = p->q:{ a . r->s:x, b . r->s:x, c . end }"))
        # a graph that is not canonical: nodes 2 and 3 are unreachable
        graphs.append(GlobalGraph(
            (
                GNode(COMM, "p", "q", (("l", 1),)),
                GNode(END, None, None, ()),
                GNode(COMM, "p", "q", (("a", 3), ("b", 2))),
                GNode(COMM, "r", "s", (("l", 1),)),
            ),
            0,
        ))
        for g in graphs:
            for h in [g] + [g.at(i) for i in range(len(g.nodes))]:
                assert bounded(h) == bounded_oracle(h)
        assert not bounded(load_golden("unbounded.mpst").globals["GB"]).holds


class TestNodeTables:
    """The per-node tables the checker reads at every node of a global type,
    against the oracles on the subterm there."""

    @pytest.mark.parametrize("chunk", range(4))
    def test_random_globals_at_every_node(self, chunk):
        holds = set()
        for seed in range(100 * chunk, 100 * (chunk + 1)):
            g = minimize_global(random_global(random.Random(seed), max_nodes=8))
            plays, unbounded, verdict = _tables(g)
            assert verdict == bounded_oracle(g)
            assert set(plays) == set(range(len(g.nodes)))
            for n in range(len(g.nodes)):
                want = bounded_oracle(g.at(n))
                assert plays[n] == plays_oracle(g.at(n)), (seed, n)
                assert (n not in unbounded) == want.holds, (seed, n)
                if not want.holds:
                    # the Unbounded rejection names its witness in the subterm's numbering
                    assert _unbounded_detail(g, n) == (
                        f"participant {want.witness_participant!r} can be postponed forever "
                        f"at node {want.witness_node} of the global type"
                    )
                holds.add(want.holds)
        assert holds == {True, False}


class TestLivenessOnStateIds:
    @pytest.mark.parametrize("check", [excluded_lock_free, excluded_deadlock_free])
    def test_only_a_witness_session_is_built(self, social_media, monkeypatch, check):
        m = social_media.sessions["M"]
        graph = explore(m)
        made = sessions_made(monkeypatch)
        assert check(m, {"u"}, graph=graph).holds
        assert made == []
        verdict = check(m, set(), graph=graph)
        verdict.to_json_dict()
        assert not verdict.holds
        assert made == [(verdict.witness_session.bindings,)]


class TestTopPartner:
    def test_social_media(self, social_media):
        m = normalize_session(social_media.sessions["M"])
        assert top_partner(m, "p") == "q"
        assert top_partner(m, "u") == "p"

    def test_terminated_participant(self):
        m = parse("session M = p: 0 | q: r!x").sessions["M"]
        assert top_partner(normalize_session(m), "p") is None


class TestLockFreedom:
    def test_social_media_excluding_u(self, social_media):
        assert excluded_lock_free(social_media.sessions["M"], {"u"}).holds

    def test_social_media_plain_fails_on_u(self, social_media):
        verdict = excluded_lock_free(social_media.sessions["M"], set())
        assert not verdict.holds
        assert verdict.witness_participant == "u"
        # the fully-drained state u: U is reachable and locked as well
        graph = explore(social_media.sessions["M"])
        (terminal,) = graph.terminal_states()
        assert participants(graph.states[terminal]) == {"u"}

    def test_mutual_loop(self, mutual_loop):
        m = mutual_loop.sessions["M"]
        verdict = excluded_lock_free(m, set())
        assert not verdict.holds and verdict.witness_participant == "r"
        assert excluded_lock_free(m, {"r"}).holds

    def test_witness_carries_reaching_trace(self, social_media):
        from .oracles import reduce

        verdict = excluded_lock_free(social_media.sessions["M"], set())
        state = normalize_session(social_media.sessions["M"])
        for lab in verdict.witness_trace.labels:
            state = reduce(state, lab)
            assert state is not None
        assert state == verdict.witness_session

    def test_verdict_carries_note(self, buyer_seller):
        verdict = excluded_lock_free(buyer_seller.sessions["M"], set())
        assert verdict.note == LOCKFREEDOM_NOTE
        assert verdict.to_json_dict()["note"]

    def test_json_shape(self, social_media):
        data = excluded_lock_free(social_media.sessions["M"], {"u"}).to_json_dict()
        assert data["property"] == "lock-freedom"
        assert data["ignored"] == ["u"]
        assert data["holds"] is True
        assert data["witness"] is None


class TestDeadlockFreedom:
    def test_mutual_loop_always(self, mutual_loop):
        assert excluded_deadlock_free(mutual_loop.sessions["M"], set()).holds

    def test_social_media_fails(self, social_media):
        verdict = excluded_deadlock_free(social_media.sessions["M"], set())
        assert not verdict.holds
        assert verdict.witness_participant == "u"

    def test_empty_session(self):
        assert excluded_deadlock_free(session_of({}), set()).holds


class TestLivenessProperties:
    @pytest.mark.parametrize("seed", range(40))
    def test_oracle_agreement_and_relations(self, seed):
        rng = random.Random(seed)
        m = random_session(rng, 4, 5)
        graph = explore(m)
        parts = sorted(participants(m))
        choices = [frozenset(), frozenset(parts)]
        if parts:
            choices.append(frozenset(rng.sample(parts, rng.randint(0, len(parts)))))
        for ignored in choices:
            lf = excluded_lock_free(m, ignored, graph=graph)
            df = excluded_deadlock_free(m, ignored, graph=graph)
            assert lf.holds == lock_free_oracle(graph, ignored)
            assert df.holds == deadlock_free_oracle(graph, ignored)
            # lock-freedom implies deadlock-freedom
            if lf.holds:
                assert df.holds
            if not lf.holds:
                st = graph.states[lf.witness_state]
                assert lf.witness_participant in participants(st)

    @pytest.mark.parametrize("seed", range(20))
    def test_monotone_in_ignored(self, seed):
        rng = random.Random(1000 + seed)
        m = random_session(rng, 4, 5)
        graph = explore(m)
        parts = sorted(participants(m))
        small = frozenset(rng.sample(parts, rng.randint(0, len(parts)))) if parts else frozenset()
        big = small | (frozenset(rng.sample(parts, rng.randint(0, len(parts)))) if parts else frozenset())
        if excluded_lock_free(m, small, graph=graph).holds:
            assert excluded_lock_free(m, big, graph=graph).holds
        if excluded_deadlock_free(m, small, graph=graph).holds:
            assert excluded_deadlock_free(m, big, graph=graph).holds
