import copy
import pickle
import random
import time

import pytest

from mpst import frontend, terms
from mpst.frontend import parse
from mpst.inference import PatComm, PatEnd, PatVar, TypeVar, solve_type_equations
from mpst.random_sessions import random_global, random_process, random_session
from mpst.semantics import explore
from mpst.terms import (
    BadIdentifier,
    DuplicateBranchLabel,
    DuplicateParticipant,
    EmptyChoice,
    END,
    END_GLOBAL,
    END_PROCESS,
    GNode,
    GlobalComm,
    GlobalEnd,
    GlobalGraph,
    GlobalRef,
    IN,
    OUT,
    PNode,
    ProcComm,
    ProcEnd,
    ProcessGraph,
    ProcRef,
    Session,
    TermError,
    UndefinedName,
    UnguardedRecursion,
    build_global_graph,
    build_process_graph,
    minimize,
    minimize_global,
    normalize_session,
    participants,
    session_of,

)

from .conftest import pairs_text
from .oracles import refine_oracle, sessions_equivalent, unfold_process


def out(partner, *branches):
    return ProcComm(OUT, partner, tuple(branches))


def inp(partner, *branches):
    return ProcComm(IN, partner, tuple(branches))


class TestBuildProcessGraph:
    def test_looping_choice(self):
        # P = q!{add.P, pay.0}: an output choice looping on add, ending on pay
        g = build_process_graph({"P": out("q", ("add", ProcRef("P")), ("pay", ProcEnd()))})
        assert len(g.nodes) == 2
        root = g.root_node
        assert root.kind == OUT and root.partner == "q"
        targets = dict(root.branches)
        assert targets["add"] == g.root
        assert g.nodes[targets["pay"]].kind == END

    def test_terminated(self):
        g = build_process_graph({"P": ProcEnd()})
        assert g.nodes == (PNode(END, None, ()),)

    def test_self_alias_rejected(self):
        with pytest.raises(UnguardedRecursion):
            build_process_graph({"P": ProcRef("P")})

    def test_alias_cycle_rejected(self):
        with pytest.raises(UnguardedRecursion):
            build_process_graph({"X": ProcRef("Y"), "Y": ProcRef("X")}, "X")

    def test_guarded_alias_ok(self):
        g = build_process_graph({"P": ProcRef("Q"), "Q": out("q", ("a", ProcRef("P")))}, "P")
        assert g.root_node.kind == OUT
        assert dict(g.root_node.branches)["a"] == g.root

    def test_undefined_name(self):
        with pytest.raises(UndefinedName):
            build_process_graph({"P": ProcRef("Nope")})

    def test_duplicate_label(self):
        with pytest.raises(DuplicateBranchLabel):
            build_process_graph({"P": out("q", ("a", ProcEnd()), ("a", ProcEnd()))})

    def test_empty_choice(self):
        with pytest.raises(EmptyChoice):
            build_process_graph({"P": ProcComm(OUT, "q", ())})


class _ProcessEquations:
    build = staticmethod(build_process_graph)
    end, ref = ProcEnd(), ProcRef

    @staticmethod
    def comm(*branches, who="q"):
        return ProcComm(OUT, who, branches)


class _GlobalEquations:
    build = staticmethod(build_global_graph)
    end, ref = GlobalEnd(), GlobalRef

    @staticmethod
    def comm(*branches, who="q"):
        return GlobalComm("p", who, branches)


BUILDERS = [_ProcessEquations, _GlobalEquations]

# One table of malformed equation systems, written once for both builders.
MALFORMED = {
    "undefined name": (lambda t: {"X": t.comm(("a", t.ref("Nope")))}, UndefinedName),
    "alias cycle": (lambda t: {"X": t.ref("Y"), "Y": t.ref("X")}, UnguardedRecursion),
    "duplicate label": (
        lambda t: {"X": t.comm(("a", t.end), ("a", t.end))},
        DuplicateBranchLabel,
    ),
    "empty choice": (lambda t: {"X": t.comm()}, EmptyChoice),
    "bad label": (lambda t: {"X": t.comm(("not a label", t.end))}, BadIdentifier),
    "bad participant": (lambda t: {"X": t.comm(("a", t.end), who="not ok")}, BadIdentifier),
}


class TestBothBuilders:
    @pytest.mark.parametrize("kind", BUILDERS, ids=["process", "global"])
    @pytest.mark.parametrize("case", MALFORMED, ids=list(MALFORMED))
    def test_malformed_equations(self, kind, case):
        equations, error = MALFORMED[case]
        with pytest.raises(TermError) as excinfo:
            kind.build(equations(kind), "X")
        assert excinfo.type is error

    def test_self_communication_in_a_global_type(self):
        with pytest.raises(TermError) as excinfo:
            build_global_graph({"G": GlobalComm("p", "p", (("a", GlobalEnd()),))})
        assert excinfo.type is TermError
        assert "self-communication" in str(excinfo.value)

    @pytest.mark.parametrize("kind", BUILDERS, ids=["process", "global"])
    def test_head_is_checked_before_branches(self, kind):
        # the duplicate label of X is reported, not the undefined name below it
        equations = {"X": kind.comm(("a", kind.ref("Nope")), ("a", kind.end))}
        with pytest.raises(DuplicateBranchLabel):
            kind.build(equations, "X")

    def test_global_loop_through_alias(self):
        loop = GlobalComm("p", "q", (("a", GlobalRef("G")), ("b", GlobalEnd())))
        g = build_global_graph({"G": GlobalRef("H"), "H": loop})
        assert g.root_node.sender == "p" and dict(g.root_node.branches)["a"] == g.root
        assert g.nodes[dict(g.root_node.branches)["b"]].kind == END


class TestMinimize:
    def test_unrolled_loop_collapses(self):
        # P = q!a.P and P' = q!a.q!a.P' denote the same regular term
        a = build_process_graph({"P": out("q", ("a", ProcRef("P")))})
        b = build_process_graph(
            {"P2": out("q", ("a", out("q", ("a", ProcRef("P2")))))}
        )
        assert a == b
        bound = 2 * max(len(a.nodes), len(b.nodes))
        assert unfold_process(a, bound) == unfold_process(b, bound)

    def test_idempotent(self):
        g = build_process_graph(
            {"P": inp("q", ("x", out("r", ("y", ProcRef("P")), ("z", ProcEnd()))))}
        )
        assert minimize(g) == g

    def test_end(self):
        assert minimize(END_PROCESS) == END_PROCESS

    def test_unreachable_nodes_pruned(self):
        nodes = (
            PNode(OUT, "q", (("a", 0),)),
            PNode(IN, "r", (("b", 1),)),  # unreachable from root
        )
        g = minimize(ProcessGraph(nodes, 0))
        assert len(g.nodes) == 1

    @pytest.mark.parametrize("seed", range(30))
    def test_minimize_preserves_unfoldings(self, seed):
        rng = random.Random(seed)
        raw = random_process(rng, ["q", "r"], max_nodes=6)
        small = minimize(raw)
        bound = 2 * max(len(raw.nodes), len(small.nodes))
        assert unfold_process(raw, bound) == unfold_process(small, bound)


class TestSessions:
    def test_normalize_erases_terminated(self):
        q = build_process_graph({"Q": out("p", ("hi", ProcEnd()))})
        s = session_of({"p": END_PROCESS, "q": q})
        norm = normalize_session(s)
        assert [p for p, _ in norm.bindings] == ["q"]

    def test_bindings_sorted(self):
        q = build_process_graph({"Q": out("p", ("hi", ProcEnd()))})
        p = build_process_graph({"P": inp("q", ("hi", ProcEnd()))})
        s = session_of([("q", q), ("p", p)])
        assert [name for name, _ in s.bindings] == ["p", "q"]

    def test_fully_terminated_is_null(self):
        s = normalize_session(session_of({"p": END_PROCESS, "q": END_PROCESS}))
        assert s.bindings == ()
        assert s.is_null

    def test_normalize_idempotent(self):
        q = build_process_graph({"Q": out("p", ("hi", ProcRef("Q")))})
        s = session_of({"p": END_PROCESS, "q": q})
        assert normalize_session(normalize_session(s)) == normalize_session(s)

    def test_participants_invariant_under_normalize(self):
        q = build_process_graph({"Q": out("p", ("hi", ProcRef("Q")))})
        s = session_of({"p": END_PROCESS, "q": q})
        assert participants(s) == participants(normalize_session(s)) == {"q"}

    def test_participants_of_golden_sessions(self, social_media, buyer_seller):
        assert participants(social_media.sessions["M"]) == {"p", "q", "u"}
        assert participants(buyer_seller.sessions["M"]) == {"b", "s", "c"}
        assert participants(session_of({"p": END_PROCESS})) == frozenset()

    def test_duplicate_participant(self):
        with pytest.raises(DuplicateParticipant):
            Session((("p", END_PROCESS), ("p", END_PROCESS)))

    def test_equivalence_ignores_terminated(self):
        q = build_process_graph({"Q": inp("p", ("hi", ProcEnd()))})
        a = session_of({"q": q, "p": END_PROCESS})
        b = session_of({"q": q})
        assert sessions_equivalent(a, b)

    def test_empty_equivalent_to_all_zero(self):
        assert sessions_equivalent(session_of({}), session_of({"p": END_PROCESS}))

    def test_replace_adds_an_absent_participant(self, social_media):
        m = normalize_session(social_media.sessions["M"])
        z = build_process_graph({"Z": out("p", ("hi", ProcEnd()))})
        s = m.replace("z", z)
        assert [p for p, _ in s.bindings] == ["p", "q", "u", "z"]
        assert s.get("z") == z and s == session_of({**dict(m.bindings), "z": z})

    def test_replace_is_the_session_of_the_merged_bindings(self, social_media):
        raw = social_media.sessions["M"]
        z = build_process_graph({"Z": out("p", ("hi", ProcRef("Z")))})
        for m in (raw, normalize_session(raw)):
            for p, _ in m.bindings:
                for g in (z, _doubled(z), END_PROCESS):
                    merged = session_of({**dict(m.bindings), p: g})
                    assert m.replace(p, g) == merged
                    assert normalize_session(m.replace(p, g)) == normalize_session(merged)

    def test_step_changes_equivalence(self, social_media):
        from mpst.semantics import session_transitions

        m = normalize_session(social_media.sessions["M"])
        (_, m2), *_ = session_transitions(m)
        assert not sessions_equivalent(m, m2)


class TestGraphInvariants:
    @pytest.mark.parametrize("seed", range(20))
    def test_branch_labels_distinct_and_nonempty(self, seed):
        g = random_process(random.Random(seed), ["q", "r"], max_nodes=6)
        for node in g.nodes:
            if node.kind != END:
                labels = [lab for lab, _ in node.branches]
                assert labels, "empty choice"
                assert len(set(labels)) == len(labels)


# ---------------------------------------------------------------------------
# Canonical by construction: canonical terms are never minimized again.
# ---------------------------------------------------------------------------


def _doubled(g):
    """A bisimilar but non-minimal copy of g: every node points into a
    duplicate of the graph, and the duplicate points back."""
    n = len(g.nodes)

    def shifted(node, by):
        return node.rebranch(tuple((lab, (t + by) % (2 * n)) for lab, t in node.branches))

    nodes = tuple(shifted(node, n) for node in g.nodes) + tuple(shifted(node, 0) for node in g.nodes)
    return type(g)(nodes, g.root)


def _minimize(g):
    return minimize_global(g) if isinstance(g, GlobalGraph) else minimize(g)


def _random_graphs(seed):
    rng = random.Random(seed)
    graphs = [random_process(rng, ["q", "r"], max_nodes=6), random_global(rng, max_nodes=6)]
    graphs += [g for _, g in random_session(rng).bindings]
    return graphs


class TestCanonicalByConstruction:
    def test_minimize_returns_canonical_input_itself(self, social_media):
        for g in list(social_media.processes.values()) + [END_PROCESS]:
            c = minimize(g)
            assert minimize(c) is c
        for g in list(social_media.globals.values()) + [END_GLOBAL]:
            c = minimize_global(g)
            assert minimize_global(c) is c

    def test_minimize_of_a_canonical_copy_is_the_copy(self, social_media):
        g = social_media.processes["U"]
        copy = ProcessGraph(tuple(g.nodes), g.root)
        assert copy is not g and minimize(copy) is copy and copy == g

    @pytest.mark.parametrize("seed", range(10))
    def test_repeated_step_and_at_are_equal_and_canonical(self, seed):
        for g in _random_graphs(seed):
            if isinstance(g, GlobalGraph):
                pairs = [(g.at(i), g.at(i)) for i in range(len(g.nodes))]
            else:
                pairs = [(g.step(lab), g.step(lab)) for lab in g.root_node.labels()]
            for first, again in pairs:
                assert again is first  # computed once, then reused
                assert _minimize(first) is first

    @pytest.mark.parametrize("seed", range(40))
    def test_cached_results_match_fresh_minimization(self, seed):
        for g in _random_graphs(seed):
            raw = _doubled(g)
            assert _minimize(raw) == g and _minimize(raw) is not raw
            for node_id in range(len(g.nodes)):
                # A structurally equal, distinct, unminimized copy of the subterm.
                fresh = _minimize(type(g)(tuple(g.nodes), node_id))
                if isinstance(g, GlobalGraph):
                    assert g.at(node_id) == fresh
                    assert raw.at(node_id) == fresh
                    assert raw.at(node_id + len(g.nodes)) == fresh
                else:
                    sub = g if node_id == g.root else None
                    for lab, t in g.root_node.branches:
                        if t == node_id:
                            sub = g.step(lab)
                            assert raw.step(lab) == sub
                    if sub is not None:
                        assert sub == fresh
                assert hash(fresh) == hash(type(g)(tuple(fresh.nodes), fresh.root))

    def test_session_normal_form_is_kept(self, social_media):
        m = normalize_session(social_media.sessions["M"])
        assert normalize_session(m) is m
        raw = session_of({p: _doubled(g) for p, g in m.bindings} | {"z": END_PROCESS})
        assert normalize_session(raw) == m
        assert normalize_session(raw) is normalize_session(raw)

    @staticmethod
    def _count_refinements(monkeypatch) -> list:
        calls = []
        refine = terms._refine

        def counting(*args):
            calls.append(1)
            return refine(*args)

        monkeypatch.setattr(terms, "_refine", counting)
        return calls

    def test_explore_does_not_rerun_partition_refinement(self, monkeypatch):
        m = parse(pairs_text(7)).sessions["M"]
        calls = self._count_refinements(monkeypatch)
        graph = explore(m)
        assert len(graph.states) == 128 and len(graph.edges) == 7 * 128
        assert len(calls) <= 100  # 16,142 when every step re-minimized

    def test_explore_works_once_per_distinct_process_graph(self, monkeypatch):
        m = normalize_session(parse(pairs_text(7)).sessions["M"])
        renumbered, sessions, renders = [], [], []
        forms, make, render = terms._canonical_forms, terms._make, frontend._render

        def counting_forms(g, refine):
            form = forms(g, refine)

            def counting_form(root):
                out = form(root)
                renumbered.extend(out.nodes)
                return out

            return counting_form

        def counting_make(cls, *args, **memo):
            if cls is Session:
                sessions.append(args)
            return make(cls, *args, **memo)

        def counting_render(*args):
            renders.append(args)
            return render(*args)

        monkeypatch.setattr(terms, "_canonical_forms", counting_forms)
        monkeypatch.setattr(terms, "_make", counting_make)
        monkeypatch.setattr(frontend, "_render", counting_render)
        graph = explore(m)
        assert len(graph.states) == 128 and len(graph.edges) == 7 * 128
        # the states are ids: explore builds no session and no subgraph
        assert renumbered == [] and sessions == []
        # 128 states share 28 (participant, node, position) binding texts:
        # 14 participants with a 2-node process graph each, renumbered once at
        # its other node and rendered once; still no session is built
        graph.to_json_dict()
        assert len(renumbered) == 28 and len(renders) == 28
        assert sessions == []

    @pytest.mark.parametrize("seed", range(10))
    def test_subgraphs_of_canonical_graphs_are_only_renumbered(self, monkeypatch, seed):
        graphs = _random_graphs(seed)
        calls = self._count_refinements(monkeypatch)
        for g in graphs:
            if isinstance(g, GlobalGraph):
                for node_id in range(len(g.nodes)):
                    g.at(node_id)
                continue
            walk = [g]
            for _ in range(2 * len(g.nodes)):  # every subterm, and some repeats
                walk = [h.step(lab) for h in walk for lab in h.root_node.labels()][:20]
        assert calls == []

    def test_a_file_runs_one_refinement_per_equation_system(self, monkeypatch):
        text = pairs_text(7)
        calls = self._count_refinements(monkeypatch)
        parse(text)
        assert len(calls) <= 3  # processes, global types, bindings; 28 when built one by one

    def test_a_type_equation_system_is_solved_with_one_refinement(self, monkeypatch):
        x, y, z = TypeVar(0), TypeVar(1), TypeVar(2)
        eqs = {
            x: PatComm("p", "q", (("a", PatVar(y)), ("b", PatEnd()))),
            y: PatVar(z),
            z: PatComm("q", "p", (("c", PatVar(x)),)),
        }
        calls = self._count_refinements(monkeypatch)
        sol = solve_type_equations(eqs)
        assert len(calls) == 1
        assert sol[y] == sol[z] == sol[x].at(dict(sol[x].root_node.branches)["a"])

    def test_copies_and_pickles_are_equal_values(self, social_media):
        m = social_media.sessions["M"]
        for value in (m, m.bindings[0][1], social_media.globals["G"]):
            for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert twin == value and hash(twin) == hash(value)

    def test_direct_construction_still_validates(self):
        with pytest.raises(BadIdentifier):
            ProcessGraph((PNode(OUT, "not an ident", (("a", 0),)),), 0)
        with pytest.raises(BadIdentifier):
            Session((("bad name", END_PROCESS),))
        with pytest.raises(TermError):
            END_GLOBAL.at(1)


def test_an_end_node_carries_no_receiver():
    # it would be a terminated global type unequal to END_GLOBAL
    with pytest.raises(TermError):
        GlobalGraph((GNode(END, None, "x", ()),), 0)


# Splitter-driven refinement against the rounds it replaced.  Two partitions
# are equal as equivalence relations when numbering blocks by first
# occurrence makes them equal lists.
def _blocks(cls) -> list[int]:
    first: dict = {}
    return [first.setdefault(c, len(first)) for c in cls]


def _random_refine_input(rng: random.Random):
    """Few signatures and labels, so that blocks are large and split often."""
    n = rng.randint(1, 14)
    sigs = [rng.choice("abc"[: rng.randint(1, 3)]) for _ in range(n)]
    branches = []
    for _ in range(n):
        labels = rng.sample("xyz", rng.randint(0, 2))
        if rng.random() < 0.8:
            labels.sort()
        branches.append(tuple((lab, rng.randrange(n)) for lab in labels))
    return sigs, branches


def _family(kind: str, n: int):
    """A chain ending in a distinct node, a cycle, and a cycle with one odd node."""
    if kind == "chain":
        return ["s"] * n + ["e"], [(("x", i + 1),) for i in range(n)] + [()]
    sigs = ["s"] * n
    if kind == "odd":
        sigs[0] = "t"
    return sigs, [(("x", (i + 1) % n),) for i in range(n)]


FAMILY_BLOCKS = {"chain": lambda n: n + 1, "cycle": lambda n: 1, "odd": lambda n: n}


class TestRefinementAgainstTheOracle:
    @pytest.mark.parametrize("seed", range(0, 10000, 2500))
    def test_random_graphs(self, seed):
        splits = 0
        for s in range(seed, seed + 2500):
            sigs, branches = _random_refine_input(random.Random(s))
            want = _blocks(refine_oracle(sigs, branches))
            assert _blocks(terms._refine(sigs, branches)) == want, (sigs, branches)
            splits += len(set(want)) > len(set(sigs))
        assert splits > 500

    def test_graphs_of_terms(self):
        for seed in range(200):
            for g in _random_graphs(seed):
                sigs, branches = [n.signature() for n in g.nodes], [n.branches for n in g.nodes]
                assert _blocks(terms._refine(sigs, branches)) == _blocks(refine_oracle(sigs, branches))

    @pytest.mark.parametrize("kind", sorted(FAMILY_BLOCKS))
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 100, 300])
    def test_families(self, kind, n):
        sigs, branches = _family(kind, n)
        got = _blocks(terms._refine(sigs, branches))
        assert got == _blocks(refine_oracle(sigs, branches))
        assert len(set(got)) == FAMILY_BLOCKS[kind](n)

    @pytest.mark.parametrize("kind", sorted(FAMILY_BLOCKS))
    def test_long_families_refine_in_linear_time(self, kind):
        # the rounds take about 7 s on a chain of 2,000; the splitter 0.01 s
        n = 2000
        sigs, branches = _family(kind, n)
        start = time.perf_counter()
        assert len(set(terms._refine(sigs, branches))) == FAMILY_BLOCKS[kind](n)
        assert time.perf_counter() - start < 1.0
