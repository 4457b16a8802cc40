import random
import time

import pytest

from mpst import semantics, terms
from mpst.frontend import format_session, parse
from mpst.random_sessions import random_global, random_process, random_session
from mpst.semantics import (
    CommLabel,
    ExploreConfig,
    SessionSpace,
    StateLimitExceeded,
    _candidate_labels,
    closure,
    explore,
    global_successor,
    global_transitions,
    subsets,
)
from mpst.terms import (
    COMM,
    END,
    GNode,
    GlobalGraph,
    ProcessGraph,
    Session,
    minimize_global,
    normalize_session,
    participants,
    session_of,
)
from mpst.typecheck import typecheck

from .conftest import GOLDEN, load_golden, pairs_text, sessions_made
from .oracles import (
    explore_oracle,
    global_step_oracle,
    global_successor_oracle,
    globals_equivalent,
    reduce,
    session_transitions,
    unfold_global,
    without,
)


def sess(text: str):
    return normalize_session(parse(text).sessions["M"])


def glob(text: str):
    spec = parse(text)
    return next(iter(spec.globals.values()))


class TestSessionTransitions:
    def test_social_media_first_step(self, social_media):
        m = normalize_session(social_media.sessions["M"])
        steps = session_transitions(m)
        assert [lab for lab, _ in steps] == [CommLabel("q", "hello", "p")]
        succ = steps[0][1]
        assert participants(succ) == {"p", "q", "u"}

    def test_label_containment_blocks(self):
        m = sess("session M = p: q!a | q: p?b")
        assert session_transitions(m) == []

    def test_wider_input_allows(self):
        m = sess("session M = p: q!a | q: p?{ a, b }")
        steps = session_transitions(m)
        assert len(steps) == 1
        lab, succ = steps[0]
        assert lab == CommLabel("p", "a", "q")
        assert succ.is_null

    def test_narrower_input_blocks(self):
        m = sess("session M = p: q!{ a, b } | q: p?a")
        assert session_transitions(m) == []

    def test_reduce_matches_transitions(self, social_media):
        m = normalize_session(social_media.sessions["M"])
        for lab, succ in session_transitions(m):
            assert reduce(m, lab) == succ

    def test_reduce_absent_label(self, social_media):
        m = normalize_session(social_media.sessions["M"])
        assert reduce(m, CommLabel("p", "req", "u")) is None

    def test_reduce_on_empty(self):
        assert reduce(session_of({}), CommLabel("p", "x", "q")) is None

    @pytest.mark.parametrize("seed", range(20))
    def test_transition_locality(self, seed):
        # replacing a bystander's process must not disturb a step
        rng = random.Random(seed)
        for _ in range(100):
            m = random_session(rng, 4, 4)
            steps = session_transitions(m)
            if steps and sorted(participants(m) - steps[0][0].plays):
                break
        else:
            pytest.fail("no session with a step and a bystander in 100 draws")
        lab, succ = steps[0]
        bystanders = sorted(participants(m) - lab.plays)
        victim = rng.choice(bystanders)
        new_proc = random_process(rng, sorted(participants(m)) or ["q"])
        m2 = normalize_session(m.replace(victim, new_proc))
        succ2 = reduce(m2, lab)
        assert succ2 is not None
        # everyone except the two endpoints and the victim is unchanged
        for p, g in succ2.items():
            if p == victim:
                continue
            assert succ.get(p) == g
        assert succ2.get(victim) == (None if new_proc.is_end else new_proc)


class TestExplore:
    def test_terminated_session(self):
        graph = explore(sess("session M = p: 0"))
        assert len(graph.states) == 1
        assert graph.edges == ()

    def test_social_media_terminal_state(self, social_media):
        graph = explore(social_media.sessions["M"])
        assert len(graph.states) == 7
        terminals = graph.terminal_states()
        assert len(terminals) == 1
        (t,) = terminals
        assert format_session(graph.states[t]).startswith("u: ")

    def test_buyer_seller_three_states(self, buyer_seller):
        graph = explore(buyer_seller.sessions["M"])
        assert len(graph.states) == 3
        post_pay = [
            st
            for st in graph.states
            if participants(st) == {"s", "c"}
        ]
        assert len(post_pay) == 1
        assert any(st.is_null for st in graph.states)

    def test_state_cap(self, social_media):
        with pytest.raises(StateLimitExceeded):
            explore(social_media.sessions["M"], ExploreConfig(max_states=3))

    @pytest.mark.parametrize("seed", range(10))
    def test_order_independent(self, seed):
        m = random_session(random.Random(seed), 3, 4)
        bfs = explore(m)

        # depth-first exploration with reversed transition order
        seen = {m: 0}
        states = [m]
        edges = set()
        stack = [0]
        while stack:
            i = stack.pop()
            for lab, succ in reversed(session_transitions(states[i])):
                j = seen.get(succ)
                if j is None:
                    j = len(states)
                    seen[succ] = j
                    states.append(succ)
                    stack.append(j)
                edges.add((i, lab, j))

        assert set(states) == set(bfs.states)
        remap = {i: bfs.states.index(st) for i, st in enumerate(states)}
        assert {(remap[i], lab, remap[j]) for i, lab, j in edges} == set(bfs.edges)

    def test_json_shape(self, buyer_seller):
        graph = explore(buyer_seller.sessions["M"])
        data = graph.to_json_dict()
        assert set(data) == {"states", "edges", "initial"}
        assert data["initial"] == 0
        assert all(set(e) == {"from", "label", "to"} for e in data["edges"])

    def test_dot_output(self, buyer_seller):
        text = explore(buyer_seller.sessions["M"]).to_dot()
        assert text.startswith("digraph")
        assert "->" in text

    @pytest.mark.parametrize("seed", range(10))
    def test_edges_are_exactly_the_transitions(self, seed):
        m = random_session(random.Random(2000 + seed), 3, 4)
        graph = explore(m)
        for i, state in enumerate(graph.states):
            expected = {(lab, succ) for lab, succ in session_transitions(state)}
            actual = {(lab, graph.states[j]) for lab, j in graph.successors(i)}
            assert actual == expected

    def test_path_to_terminal(self, buyer_seller):
        graph = explore(buyer_seller.sessions["M"])
        (terminal,) = [i for i in graph.terminal_states() if graph.states[i].is_null]
        trace = graph.path_to(terminal)
        assert [str(lab) for lab in trace.labels] == ["b pay s", "s ship c"]
        with pytest.raises(ValueError):
            graph.path_to(99)


def _explore_outcome(explorer, m, config):
    try:
        return explorer(m, config)
    except StateLimitExceeded as exc:
        return str(exc)


def _assert_explore_matches_the_oracle(m):
    """Same states, edges and initial state as the closure over sessions,
    under the default budget and under every state budget and edge budget
    up to the one the full graph needs; the same limit error below it."""
    want = explore_oracle(m)
    assert explore(m) == want
    configs = [ExploreConfig(max_states=n) for n in range(1, len(want.states) + 1)]
    configs += [ExploreConfig(max_edges=n) for n in range(1, len(want.edges) + 1)]
    for config in configs:
        assert _explore_outcome(explore, m, config) == _explore_outcome(explore_oracle, m, config)


class TestExploreAgainstTheOracle:
    @pytest.mark.parametrize("accepted, refused", [("p", "q"), ("q", "p")])
    def test_one_graph_bound_to_two_senders_of_one_receiver(self, accepted, refused):
        # p and q are bound to one graph, r!a . 0; r receives from one of them
        # only, so whether a pair is ready depends on the sender, not only on
        # the two graphs.
        m = sess(f"session M = p: r!a | q: r!a | r: {accepted}?a . {refused}?b")
        graph = explore(m)
        assert m.get("p") == m.get("q")
        assert [str(lab) for lab, _ in graph.successors(0)] == [f"{accepted} a r"]
        _assert_explore_matches_the_oracle(m)

    def test_one_graph_bound_to_two_senders_on_a_loop(self):
        m = sess(
            "process S = r!a . S\n"
            "process R = p?a . R\n"
            "session M = p: S | q: S | r: R"
        )
        graph = explore(m)
        assert [str(lab) for _, lab, _ in graph.edges] == ["p a r"]
        _assert_explore_matches_the_oracle(m)

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.mpst")), ids=lambda path: path.stem)
    def test_goldens(self, path):
        sessions = load_golden(path.name).sessions.values()
        for m in sessions:
            _assert_explore_matches_the_oracle(m)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("loop", [" . P{i}", ""], ids=["cyclic", "finite"])
    def test_ping_pong_pairs(self, k, loop):
        text = "".join(
            f"process P{i} = q{i}!a . q{i}?b{loop.format(i=i)}\n"
            f"process Q{i} = p{i}?a . p{i}!b{loop.format(i=i).replace('P', 'Q')}\n"
            for i in range(k)
        )
        m = sess(text + "session M = " + " | ".join(f"p{i}: P{i} | q{i}: Q{i}" for i in range(k)))
        assert len(explore(m).states) == (2 if loop else 3) ** k
        _assert_explore_matches_the_oracle(m)

    @pytest.mark.parametrize("seed", range(0, 200, 20))
    def test_random_sessions(self, seed):
        sizes = []
        for s in range(seed, seed + 20):
            m = random_session(random.Random(s), 4, 5)
            _assert_explore_matches_the_oracle(m)
            sizes.append(len(explore(m).states))
        assert max(sizes) > 2


def _assert_space_matches_sessions(m) -> int:
    """Walk every state a SessionSpace reaches from m by Comm and Weak and
    check it against the same step on its Session; return the state count.

    Comm edges, mapped through space.session, are the oracle's
    session_transitions of the state's session, as is the library's view
    semantics.session_transitions, and the moves of one pair are its edges.
    For each Weak split, in subsets order, the remainder is the vector with
    the split's positions cleared, whose session is the normal form of the
    session without the split.
    """
    space = SessionSpace(m)
    assert space.session(space.start) == normalize_session(m)
    seen, todo = {space.start}, [space.start]
    while todo:
        s = todo.pop()
        session = space.session(s)
        assert normalize_session(Session(session.bindings)) == session
        assert space.plays(s) == participants(session)
        edges = [edge for pair in space.comms(s) for edge in pair]
        assert edges == space.transitions(s)
        assert [(lab, space.session(t)) for lab, t in edges] == session_transitions(session)
        assert semantics.session_transitions(session) == session_transitions(session)
        for p in space.names:
            for q in space.names:
                assert space.moves(s, p, q) == [e for e in edges if (e[0].sender, e[0].receiver) == (p, q)]
        splits = [(split, space.without(s, split)) for split in list(subsets(space.plays(s)))[1:]]
        for split, t in splits:
            cleared = tuple(-1 if p in split else g for p, g in zip(space.names, space.vectors[s]))
            assert space.vectors[t] == cleared
            assert space.session(t) == normalize_session(without(session, split))
        for _, t in edges + splits:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return len(seen)


class TestSessionSpace:
    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.mpst")), ids=lambda path: path.stem)
    def test_goldens(self, path):
        for m in load_golden(path.name).sessions.values():
            _assert_space_matches_sessions(m)

    @pytest.mark.parametrize("seed", range(0, 200, 20))
    def test_random_sessions(self, seed):
        sessions = [random_session(random.Random(s), 4, 5) for s in range(seed, seed + 20)]
        assert max(map(_assert_space_matches_sessions, sessions)) > 2

    def test_one_graph_bound_to_two_senders_of_one_receiver(self):
        m = sess("session M = p: r!a | q: r!a | r: p?a . q?b")
        space = SessionSpace(m)
        assert [str(lab) for lab, _ in space.transitions(space.start)] == ["p a r"]
        assert _assert_space_matches_sessions(m) > 1


class TestGlobalTransitions:
    def test_root_choice(self):
        g = glob("global G = p->q:{ a . r->s:x, b . end }")
        labels = {str(lab) for lab, _ in global_transitions(g)}
        assert labels == {"p a q", "p b q"}

    def test_inner_step_through_outer_choice(self):
        # the l1/l2 choice between p and q fires below the leading r-s exchange
        g = glob("global G = r->s:l . p->q:{ l1 . end, l2 . G }")
        steps = dict((str(lab), succ) for lab, succ in global_transitions(g))
        assert "r l s" in steps
        assert "p l1 q" in steps
        expected = glob("global H = r->s:l . end")
        assert globals_equivalent(steps["p l1 q"], expected)

    def test_cyclic_inner_dependency_not_enabled(self):
        # firing r-s inside the l2 loop would need an infinite derivation
        g = glob("global G = p->q:{ l1 . r->s:l, l2 . G }")
        labels = {str(lab) for lab, _ in global_transitions(g)}
        assert labels == {"p l1 q", "p l2 q"}

    def test_end_has_no_steps(self):
        g = glob("global G = end")
        assert global_transitions(g) == []

    def test_inner_steps_enabled_in_every_branch(self):
        # whenever a step fires below a choice, each branch can take it alone
        g = glob("global G = r->s:{ l . p->q:x . end, m . p->q:x . r->s:y }")
        for lab, _ in global_transitions(g):
            root = g.root_node
            if {root.sender, root.receiver} & set(lab.plays):
                continue
            for _, target in root.branches:
                assert global_successor(g.at(target), lab) is not None

    def test_successor_is_rebuilt_in_all_branches(self):
        g = glob("global G = r->s:{ l . p->q:x . end, m . p->q:x . end }")
        (succ,) = [s for lab, s in global_transitions(g) if str(lab) == "p x q"]
        expected = glob("global H = r->s:{ l . end, m . end }")
        assert globals_equivalent(succ, expected)

    def test_step_through_two_outer_exchanges(self):
        g = glob("global G = a->b:x . c->d:y . p->q:l . end")
        steps = {str(lab): succ for lab, succ in global_transitions(g)}
        assert set(steps) == {"a x b", "c y d", "p l q"}
        expected = glob("global H = a->b:x . c->d:y . end")
        assert globals_equivalent(steps["p l q"], expected)


@pytest.mark.parametrize("seed", range(0, 300, 30))
def test_global_successor_agrees_with_the_tree_oracle(seed):
    pairs = 0
    for s in range(seed, seed + 30):
        g = random_global(random.Random(s))
        for lab in _candidate_labels(g):
            succ = global_successor(g, lab)
            found = None if succ is None else unfold_global(succ, 8)
            assert found == global_step_oracle(g, lab, 8), (s, str(lab))
            pairs += 1
    assert pairs > 0


def _every_subterm(g):
    return [g] + [g.at(i) for i in range(len(g.nodes))]


@pytest.mark.parametrize("seed", range(0, 300, 60))
def test_global_successor_agrees_with_the_rounds_oracle(seed):
    graphs = [h for s in range(seed, seed + 60) for h in _every_subterm(random_global(random.Random(s)))]
    if seed == 0:
        graphs += [
            h
            for path in sorted(GOLDEN.glob("*.mpst"))
            for g in load_golden(path.name).globals.values()
            for h in _every_subterm(g)
        ]
    fired = 0
    for g in graphs:
        for lab in _candidate_labels(g):
            succ = global_successor(g, lab)
            assert succ == global_successor_oracle(g, lab), (g, str(lab))
            fired += succ is not None
    assert fired > 0


def test_global_successor_on_a_long_chain_is_one_pass():
    # p->q:a n-1 times, then r->s:b: r b s fires at the last node only, and
    # every node above it steps by a copy; rounds over every node take
    # seconds here
    n = 3000
    chain = [GNode(COMM, "p", "q", (("a", i + 1),)) for i in range(n - 1)]
    g = GlobalGraph(tuple(chain + [GNode(COMM, "r", "s", (("b", n),)), GNode(END, None, None, ())]), 0)
    start = time.perf_counter()
    succ = global_successor(g, CommLabel("r", "b", "s"))
    assert time.perf_counter() - start < 1.0
    assert succ == minimize_global(GlobalGraph(tuple(chain + [GNode(END, None, None, ())]), 0))


class TestStepsAreLookups:
    """A session step reads the move table among the nodes of the start's
    graphs, and a global step looks its copies up among the nodes of a
    canonical type: neither builds a graph per step nor refines one."""

    @staticmethod
    def _count(monkeypatch, owner, name) -> list:
        calls = []
        original = getattr(owner, name)

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def test_explore_hashes_and_steps_no_process_graph(self, monkeypatch):
        m = sess(pairs_text(7))
        hashes = self._count(monkeypatch, ProcessGraph, "__hash__")
        steps = self._count(monkeypatch, ProcessGraph, "step")
        graph = explore(m)
        assert len(graph.states) == 128 and len(graph.edges) == 7 * 128
        assert hashes == [] and steps == []  # 70 and 28 with a table of graphs

    def test_check_steps_no_process_graph(self, monkeypatch):
        spec = load_golden("social_media.mpst")
        g, m = spec.globals["G"], spec.sessions["M"]
        steps = self._count(monkeypatch, ProcessGraph, "step")
        assert typecheck(g, m, {"u"}).rule == "Comm"
        assert steps == []  # 14 with a table of graphs

    def test_closure_builds_no_graph_until_a_session_is_read(self, monkeypatch):
        n = 2000
        lines = [f"process P{i} = q!a . P{i + 1}" for i in range(n - 1)]
        lines += [f"process P{n - 1} = q!a . 0", "process Q = p?a . Q", "session M = p: P0 | q: Q"]
        space = SessionSpace(sess("\n".join(lines)))
        forms = self._count(monkeypatch, terms, "_canonical_forms")
        states, edges = closure(space.start, space.transitions)
        assert len(states) == n + 1 and len(edges) == n
        assert forms == []  # one per step when each step built the sender's graph
        assert len(space.session(states[n // 2]).get("p").nodes) == n // 2 + 1
        assert len(forms) == 1

    def test_global_steps_of_the_goldens_refine_nothing(self, monkeypatch):
        types = [
            g for path in sorted(GOLDEN.glob("*.mpst")) for g in load_golden(path.name).globals.values()
        ]
        refines = self._count(monkeypatch, terms, "_refine")
        steps = [step for g in types for i in range(len(g.nodes)) for step in global_transitions(g.at(i))]
        assert steps and refines == []  # 26 when every stepped type was refined

    def test_global_steps_of_growing_types_refine_nothing(self, monkeypatch):
        # two_loops' G reaches a larger global type on every lap
        frontier = [load_golden("two_loops.mpst").globals["G"]]
        refines = self._count(monkeypatch, terms, "_refine")
        for _ in range(10):
            frontier = [succ for g in frontier for _, succ in global_transitions(g)][:50]
        assert frontier and refines == []  # 526 when every stepped type was refined


class TestStatesAreIds:
    """explore's graph holds the state ids of its space: counting, stepping,
    plays, traces and texts build no session; reading a state builds one."""

    def test_explore_and_its_queries_build_no_session(self, monkeypatch):
        m = normalize_session(sess(pairs_text(3)))
        made = sessions_made(monkeypatch)
        graph = explore(m)
        n = len(graph.states)
        assert n == 8 and len(graph.edges) == 3 * 8
        for i in range(n):
            graph.successors(i)
            graph.predecessors(i)
            graph.path_to(i)
        assert graph.terminal_states() == []
        texts = graph.texts()
        plays = [graph.plays(i) for i in range(n)]
        assert made == []
        assert graph.states[5] is graph.states[5] and len(made) == 1
        assert plays == [participants(st) for st in graph.states]
        assert texts == [format_session(st) for st in graph.states]
        assert len(made) == n

    @pytest.mark.parametrize("seed", range(5))
    def test_texts_and_plays_are_those_of_the_sessions(self, seed):
        sessions = [random_session(random.Random(seed * 40 + k), 4, 5) for k in range(40)]
        if seed == 0:
            sessions += [m for path in sorted(GOLDEN.glob("*.mpst")) for m in load_golden(path.name).sessions.values()]
        for m in sessions:
            graph = explore(m)
            plain = explore_oracle(m)
            assert graph.texts() == plain.texts() == [format_session(st) for st in graph.states]
            assert graph.to_dot() == plain.to_dot() and graph.to_json_dict() == plain.to_json_dict()
            assert [graph.plays(i) for i in range(len(graph.states))] == list(map(participants, plain.states))

    @pytest.mark.parametrize("seed", range(5))
    def test_path_to_is_the_first_shortest_trace(self, seed):
        graph = explore(random_session(random.Random(300 + seed), 4, 5))
        best = {graph.initial: ()}  # label sequences, breadth first, the first found kept
        queue = [graph.initial]
        for i in queue:
            for lab, j in graph.successors(i):
                if j not in best:
                    best[j] = best[i] + (lab,)
                    queue.append(j)
        assert {i: graph.path_to(i).labels for i in best} == best
