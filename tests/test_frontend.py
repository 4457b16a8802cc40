import random
import time

import pytest

from bench import workloads
from mpst import terms
from mpst.frontend import (
    DuplicateDefinition,
    ParseError,
    Span,
    _PUNCT,
    _positions,
    _tokenize,
    format_global,
    format_process,
    format_session,
    parse,
    parse_global,
    parse_process,
)
from mpst.random_sessions import random_process
from mpst.terms import (
    END,
    IN,
    OUT,
    ProcComm,
    ProcEnd,
    ProcessGraph,
    ProcRef,
    build_process_graph,
    minimize_global,
    normalize_session,
)

from .conftest import GOLDEN
from .oracles import globals_equivalent, parse_oracle, processes_equivalent, tokenize_oracle


class TestParsing:
    def test_unbounded_request_loop(self):
        spec = parse(
            "process U = p?req . p!{ dnd . q!dnd . U, grtd . q!grtd . U }"
        )
        g = spec.processes["U"]
        root = g.root_node
        assert root.kind == IN and root.partner == "p" and root.labels() == ("req",)
        reply = g.nodes[dict(root.branches)["req"]]
        assert reply.kind == OUT and set(reply.labels()) == {"dnd", "grtd"}
        for lab, t in reply.branches:
            forward = g.nodes[t]
            assert forward.kind == OUT and forward.partner == "q"
            assert dict(forward.branches)[lab] == g.root  # loops back to U

    def test_global_self_loop(self):
        spec = parse("global G = b->s:{ add . G, pay . end }")
        g = spec.globals["G"]
        root = g.root_node
        assert (root.sender, root.receiver) == ("b", "s")
        branches = dict(root.branches)
        assert branches["add"] == g.root
        assert g.nodes[branches["pay"]].kind == END

    def test_duplicate_participant_in_session(self):
        with pytest.raises(DuplicateDefinition):
            parse("process P = q!a\nsession M = p: P | p: P")

    def test_duplicate_definition_name(self):
        with pytest.raises(DuplicateDefinition):
            parse("process P = q!a\nprocess P = q!b")

    def test_empty_session_literal(self):
        spec = parse("session Empty = 0")
        assert normalize_session(spec.sessions["Empty"]).is_null

    def test_binding_to_zero_is_legal(self):
        spec = parse("session M = p: 0 | q: r!x")
        assert [p for p, _ in normalize_session(spec.sessions["M"]).bindings] == ["q"]

    def test_diagnostics_carry_positions(self):
        with pytest.raises(ParseError) as err:
            parse("process P =\n  q!{ a . , b }")
        assert err.value.span.line == 2
        assert err.value.span.column > 0

    def test_unguarded_recursion_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("process P = P")
        assert "without any communication" in str(err.value)
        assert err.value.span.line == 1

    def test_undefined_reference(self):
        with pytest.raises(ParseError) as err:
            parse("process P = q!a . Missing")
        assert "Missing" in str(err.value)

    def test_comments_and_whitespace(self):
        spec = parse("# heading\nprocess P = q!a  # trailing\n\n# done\n")
        assert "P" in spec.processes

    def test_keyword_cannot_name_things(self):
        with pytest.raises(ParseError):
            parse("process end = q!a")

    def test_session_binding_error_has_binding_position(self):
        with pytest.raises(ParseError) as err:
            parse("session M = p: q!a . Nowhere")
        assert "Nowhere" in str(err.value)
        assert err.value.span.line == 1

    def test_user_process_named_like_internals(self):
        # any identifier is a legal process name, including odd ones
        spec = parse("process binding = q!a . binding\nsession M = p: binding")
        assert not spec.sessions["M"].is_null

    def test_ignored_sets(self):
        spec = parse("ignored S = { a, b }\nignored N = { }")
        assert spec.ignored_sets["S"] == {"a", "b"}
        assert spec.ignored_sets["N"] == frozenset()


class TestPrinting:
    def test_end_prints_end(self):
        spec = parse("global E = end")
        assert format_global(spec.globals["E"], "E") == "E = end"

    def test_single_comm_round_trip(self):
        g = parse("global G = p->q:hello . end").globals["G"]
        assert format_global(g) == "G = p->q:hello"
        assert globals_equivalent(parse_global(format_global(g)), g)

    def test_social_media_global_round_trip(self, social_media):
        g = social_media.globals["G"]
        again = parse_global(format_global(g))
        assert globals_equivalent(again, g)
        assert minimize_global(again) == minimize_global(g)

    @pytest.mark.parametrize(
        "name", ["social_media.mpst", "buyer_seller.mpst", "unbounded.mpst", "mutual_loop.mpst"]
    )
    def test_golden_round_trips(self, name):
        from .conftest import load_golden

        spec = load_golden(name)
        for g in spec.globals.values():
            assert globals_equivalent(parse_global(format_global(g)), g)
        for p in spec.processes.values():
            assert processes_equivalent(parse_process(format_process(p)), p)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_process_round_trip(self, seed):
        g = random_process(random.Random(seed), ["q", "r", "s"], max_nodes=6)
        assert processes_equivalent(parse_process(format_process(g)), g)

    def test_format_session_shows_terminated(self):
        spec = parse("session M = p: 0 | q: r!x")
        assert format_session(spec.sessions["M"]) == "p: 0 | q: r!x"

    def test_format_null_session(self):
        spec = parse("session Empty = 0")
        assert format_session(spec.sessions["Empty"]) == "0"

    def test_format_session_inlines_by_structure_not_by_name(self):
        # a label P0 and a partner P1x are no local equation names, and the
        # loop still gets one
        spec = parse(
            "process A = P1x!P0\nprocess B = p?P0\nprocess L = r?x . L\n"
            "session M = P1x: B | p: A | s: L"
        )
        assert format_session(spec.sessions["M"]) == "P1x: p?P0 | p: P1x!P0 | s: P2  where  P2 = r?x . P2"


def _chain(n: int, last: str) -> str:
    lines = [f"process P{i} = q!a . P{i + 1}" for i in range(n - 1)]
    return "\n".join(lines + [f"process P{n - 1} = q!a . {last}"])


# The wall bound is generous: an open chain of 2,000 takes about 0.1 s, and
# a refinement or numbering that is quadratic in n again takes over 20 s.
@pytest.mark.parametrize(
    "n, last, states",
    [
        # closed into a loop, every definition is the same one-state process
        (2000, "P0", 1),
        # an open chain gives every definition its own graph
        (400, "0", 401),
        (2000, "0", 2001),
    ],
)
def test_long_definition_chains_parse(n, last, states):
    start = time.perf_counter()
    spec = parse(_chain(n, last))
    assert len(spec.processes) == n
    assert len(spec.processes["P0"].nodes) == states
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
def test_chains_deeper_than_the_recursion_limit_print(closed):
    # 3,000 distinct nodes, inlined into one equation; a closed chain names
    # its root at the back reference
    n = 3000
    procs = [f"process P{i} = q!a{i} . P{i + 1}" for i in range(n - 1)]
    globs = [f"global G{i} = p->q:a{i} . G{i + 1}" for i in range(n - 1)]
    spec = parse("\n".join(
        procs + [f"process P{n - 1} = q!a{n - 1} . {'P0' if closed else '0'}"]
        + globs + [f"global G{n - 1} = p->q:a{n - 1} . {'G0' if closed else 'end'}"]
    ))
    p, g = spec.processes["P0"], spec.globals["G0"]
    assert len(p.nodes) == n + (not closed) and len(g.nodes) == n + (not closed)
    assert format_process(p) == "P = " + " . ".join([f"q!a{i}" for i in range(n)] + ["P"] * closed)
    assert format_global(g) == "G = " + " . ".join([f"p->q:a{i}" for i in range(n)] + ["G"] * closed)


def test_long_global_type_chain_parses():
    n = 2000
    lines = [f"global G{i} = p->q:a . G{i + 1}" for i in range(n - 1)]
    start = time.perf_counter()
    spec = parse("\n".join(lines + [f"global G{n - 1} = p->q:a . end"]))
    assert len(spec.globals) == n
    assert len(spec.globals["G0"].nodes) == n + 1
    assert len(spec.globals["G1500"].nodes) == n - 1500 + 1
    assert time.perf_counter() - start < 5.0


class TestLazyMappings:
    """A file's terms are built when first read, behind plain mappings."""

    TEXT = "process B = q!a . A\nglobal H = p->q:a\nprocess A = q!b\nsession M = r: A | p: B\nglobal G = end"

    def test_mappings_keep_definition_order_and_act_as_dicts(self):
        spec = parse(self.TEXT)
        assert list(spec.processes) == ["B", "A"] and list(spec.globals) == ["H", "G"]
        assert len(spec.processes) == 2 and len(spec.sessions) == 1 and len(spec.globals) == 2
        assert "A" in spec.processes and "M" not in spec.processes and "M: p" not in spec.processes
        with pytest.raises(KeyError):
            spec.processes["M: p"]  # a binding is a root of the build, not a definition
        b = ProcComm(OUT, "q", (("a", ProcRef("A")),))
        a = ProcComm(OUT, "q", (("b", ProcEnd()),))
        want = {"B": build_process_graph({"B": b, "A": a}, "B"), "A": build_process_graph({"A": a})}
        assert spec.processes == want and want == spec.processes
        assert dict(spec.processes.items()) == want
        assert spec.globals == {"H": parse_global("H = p->q:a", "H"), "G": parse_global("G = end")}
        assert spec.sessions == {"M": parse("process A = q!b\nsession M = p: q!a . A | r: A").sessions["M"]}

    @pytest.mark.parametrize("binding_first", [True, False])
    def test_a_binding_and_its_definition_are_one_object(self, binding_first):
        spec = parse(self.TEXT)
        reads = [lambda: spec.sessions["M"].get("r"), lambda: spec.processes["A"]]
        first, second = reads if binding_first else reads[::-1]
        assert first() is second()
        assert spec.sessions["M"].get("p") is spec.processes["B"]

    def test_a_file_costs_two_refinements_and_reads_refine_nothing(self, monkeypatch):
        calls = []
        refine = terms._refine
        monkeypatch.setattr(terms, "_refine", lambda *args: calls.append(args) or refine(*args))
        spec = parse(self.TEXT)
        assert len(calls) == 2  # the processes with the bindings, the global types
        spec.sessions["M"], spec.processes["A"], spec.globals["H"]
        assert len(calls) == 2

    def test_only_the_roots_read_are_numbered(self, monkeypatch):
        made = []
        make = terms._make
        monkeypatch.setattr(
            terms, "_make", lambda cls, *args, **memo: made.append(cls) or make(cls, *args, **memo)
        )
        spec = parse(_chain(50, "0"))
        assert made.count(ProcessGraph) == 1  # the system's one raw graph
        assert len(spec.processes["P49"].nodes) == 2 and len(spec.processes["P0"].nodes) == 51
        assert made.count(ProcessGraph) == 3

    def test_bisimilar_roots_share_one_graph(self):
        spec = parse("process A = q!a . A\nprocess B = q!a . q!a . B\nsession M = p: q!a . B")
        assert spec.processes["A"] is spec.processes["B"] is spec.sessions["M"].get("p")


# Files with several faults: the first met is reported, processes before
# global types before session bindings, each at the definition it was
# reached from; a session's own check comes before later sessions.
SEVERAL_FAULTS = {
    "two bad processes": (
        "process B = Missing\nprocess A = q!{ a, a }", "undefined process 'Missing'", 1
    ),
    "good A reaches bad B": (
        "process A = q!a . B\nprocess B = q!{ b, b }", "duplicate branch label 'b'", 1
    ),
    "bad global and bad binding": (
        "session M = p: Nowhere\nglobal G = p->p:a", "self-communication 'p'", 2
    ),
    "bad binding in the second session": (
        "process P = q!a\nsession M = p: P\nsession N = p: P | q: Gone",
        "undefined process 'Gone'",
        3,
    ),
    "bad participant and a later bad binding": (
        "session M = \u00e9: 0\nsession N = p: Gone",
        "participant '\u00e9' is not a valid identifier",
        1,
    ),
    "bad participant with a bad binding": (
        "session M = \u00e9: Gone", "undefined process 'Gone'", 1
    ),
    "bad process after a bad binding": (
        "session M = p: Gone\nprocess P = q!{ a, a }", "duplicate branch label 'a'", 2
    ),
    "bad process that no session references": (
        "process P = q!a\nprocess Q = r!b . Nowhere\nsession M = p: P", "undefined process 'Nowhere'", 2
    ),
    "two bad branches, the first written first": (
        "global G = p->q:{ b . p->r:{ c, c }, a . q->q:d }", "duplicate branch label 'c'", 1
    ),
}


@pytest.mark.parametrize("case", SEVERAL_FAULTS)
def test_the_first_of_several_faults_is_reported(case):
    text, message, line = SEVERAL_FAULTS[case]
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.message, err.value.span.line) == (message, line)


# Names the parser takes as they are, not through a term builder, follow the
# same identifier rule as participants and labels inside terms.
BAD_NAMES = {
    "ignored-set member": ("ignored S = { p, \u00e9 }", "participant '\u00e9' is not a valid identifier", 18),
    "process name": ("process \u00e9 = q!a", "definition name '\u00e9' is not a valid identifier", 9),
    "global-type name": ("global \u00e9 = end", "definition name '\u00e9' is not a valid identifier", 8),
}


@pytest.mark.parametrize("case", BAD_NAMES)
def test_names_outside_terms_must_be_identifiers(case):
    text, message, column = BAD_NAMES[case]
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.message, err.value.span.line, err.value.span.column) == (message, 1, column)


# The tokenizer against the character loop it replaced: the same tokens, or
# the same fault at the same position.
TOKEN_CASES = [
    "",
    "\n\n",
    "process \u00e9 = q!a",  # a letter beyond ASCII starts a word
    "process x\u00b2 = q!a",  # a digit beyond ASCII continues one
    "process \u0663 = q!a",  # but starts none
    "process \u00b2x = q!a",
    "\tprocess\tP =\tq!a",
    "process P = q!a\r\nprocess Q = q!b\r",
    "global G = p->q:a",
    "global G = p-q:a",
    "global G = p->-q:a",
    "global G = p-->q:a",
    "0P0 00 01 _a1 a_",
    "process P = q!a # tail",  # no final newline: the end is at the '#'
    "process P = q!a\n# tail",
    "# only",
    "a\u00a0b",
    "a\x0bb",
    "p @ q",
]

FRAGMENTS = [
    "->", "-", ">", "!", "?", "{", "}", ",", ".", ":", "|", "=", "#", "# c", "\n", "\r", "\t", " ",
    "0", "00", "1", "\u00e9", "\u00b2", "\u0663", "x\u00b2", "_", "a", "@", "\u00a0", "\r\n", "end",
]


def _tokens_or_fault(tokenize, text: str):
    try:
        return [tuple(tok) for tok in tokenize(text)]
    except ParseError as exc:
        return (exc.message, exc.span)


def _kind(tok: str) -> str:
    return "eof" if not tok else "zero" if tok == "0" else "ident" if tok[0].isalpha() or tok[0] == "_" else "punct"


def _positioned(text: str):
    """The tokens of text as the oracle gives them: each with its kind, and
    its line and column from the position helper."""
    return [(_kind(tok), tok, *at) for tok, at in zip(_tokenize(text), _positions(text), strict=True)]


def _mutated(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + rng.choice(FRAGMENTS) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + rng.randint(1, 3):]
        elif op == 2:
            text = text[:i] + rng.choice(FRAGMENTS) + text[i + 1:]
        else:
            text = text[:i]
    return text


def _source_files() -> list[str]:
    texts = [path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*.mpst"))]
    for workload in workloads.WORKLOADS:
        texts.extend(workloads.make(workload, 1, 0).files.values())
    return texts


class TestTokenizerAgainstTheOracle:
    @pytest.mark.parametrize("text", TOKEN_CASES)
    def test_edge_cases(self, text):
        assert _tokens_or_fault(_positioned, text) == _tokens_or_fault(tokenize_oracle, text)

    def test_a_trailing_comment_ends_the_file_at_its_hash(self):
        assert _positioned("process P = q!a # tail")[-1] == ("eof", "", 1, 17)
        assert _positioned("process P = q!a\n  # tail")[-1] == ("eof", "", 2, 3)

    def test_a_bad_character_is_reported_at_its_position(self):
        with pytest.raises(ParseError) as err:
            parse("process P = q!a\n\t \u00b2")
        assert (err.value.message, err.value.span) == ("unexpected character '\u00b2'", Span(2, 3))

    def test_source_files(self):
        texts = _source_files()
        assert len(texts) > 100
        for text in texts:
            got = _tokens_or_fault(_positioned, text)
            assert isinstance(got, list) and got == _tokens_or_fault(tokenize_oracle, text)

    @pytest.mark.parametrize("seed", range(4))
    def test_mutated_text(self, seed):
        rng = random.Random(seed)
        texts = _source_files()
        faults = 0
        for _ in range(500):
            text = _mutated(rng, rng.choice(texts))
            got = _tokens_or_fault(_positioned, text)
            assert got == _tokens_or_fault(tokenize_oracle, text), repr(text)
            faults += isinstance(got, tuple)
        assert 50 < faults < 450  # both outcomes are exercised


# The parser against the recursive-descent parser over syntax trees it
# replaced: the same terms and ignored sets, or the same fault at the same
# position.  Small files add what the sources lack: alias chains, ignored
# sets, duplicate labels and participants, self-communications and names
# beyond ASCII.
FEATURES = [
    "process ZA = ZB\nprocess ZB = q!a . ZA\nprocess ZC = ZA\nsession ZM = p: ZC | q: p?a . ZQ\nprocess ZQ = p?a . ZQ",
    "global ZG = ZH\nglobal ZH = p->q:{ a . ZG, b . ZK }\nglobal ZK = end\nignored ZS = { p, q }\nignored ZN = { }",
    "process \u00e9x = q!a\nsession ZM = x\u00e9: 0 | p: q!\u00e9 . \u00e9x\nglobal \u00b5G = p->q:\u00e9",
    "process ZA = ZB\nprocess ZB = ZA\nsession ZM = p: ZA",
    "process ZD = q!{ a . 0, b . ZD, a }\nglobal ZE = p->q:{ a, a . end }",
    "global ZS = p->p:a . end\nsession ZM = p: q!a | q: p?{ a, b . 0 }",
    "session ZM = p: 0 | q: p!a | p: q?a | p: 0",
    "process \u00e9 = q!a\nignored ZI = { \u00e9 }",
    "process ZP = q!a . ZP\nglobal ZP = end",
]

# Faults every seed of the mutants meets.
FAULT_KINDS = [
    "unexpected character", "expected", "keyword", "already defined", "bound twice", "undefined",
    "without any communication", "duplicate branch label", "self-communication", "is not a valid identifier",
]

# Tokens a token-level mutant puts in place of one of the text's own.
TOKEN_POOL = ["process", "session", "global", "ignored", "end", "0", "p", "q", "a", "P", "G", "\u00e9", *sorted(_PUNCT)]


def _outcome(parse, text: str):
    try:
        spec = parse(text)
    except ParseError as exc:
        return (type(exc), exc.message, exc.span)
    return [list(m.items()) for m in (spec.processes, spec.sessions, spec.globals, spec.ignored_sets)]


def _token_mutated(rng: random.Random, text: str) -> str:
    """text with one to three of its tokens deleted, doubled or replaced."""
    for _ in range(rng.randint(1, 3)):
        try:
            tokens = tokenize_oracle(text)[:-1]
        except ParseError:
            return text
        if not tokens:
            return text
        starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
        _, tok, line, column = rng.choice(tokens)
        i = starts[line - 1] + column - 1
        new = ["", tok + " " + tok, rng.choice(TOKEN_POOL + [t for _, t, _, _ in tokens])][rng.randrange(3)]
        text = text[:i] + new + text[i + len(tok):]
    return text


class TestParserAgainstTheOracle:
    def test_source_files(self):
        for text in _source_files() + FEATURES:
            assert _outcome(parse, text) == _outcome(parse_oracle, text)

    @pytest.mark.parametrize("seed", range(3))
    def test_mutated_text(self, seed):
        rng = random.Random(seed)
        texts = _source_files()
        kinds = []
        for k in range(700):
            text = rng.choice(texts)
            if k % 3 == 0:
                text += "\n" + rng.choice(FEATURES)
            else:
                text = (_mutated if k % 3 == 1 else _token_mutated)(rng, text)
            got = _outcome(parse, text)
            assert got == _outcome(parse_oracle, text), repr(text)
            kinds.append(next(kind for kind in FAULT_KINDS if kind in got[1]) if isinstance(got, tuple) else None)
        assert kinds.count(None) > 40 and all(kind in kinds for kind in FAULT_KINDS)
