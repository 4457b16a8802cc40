import random

import pytest

from mpst.frontend import (
    DuplicateDefinition,
    ParseError,
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
    globals_equivalent,
    minimize_global,
    normalize_session,
    processes_equivalent,
)


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


def _chain(n: int, last: str) -> str:
    lines = [f"process P{i} = q!a . P{i + 1}" for i in range(n - 1)]
    return "\n".join(lines + [f"process P{n - 1} = q!a . {last}"])


@pytest.mark.parametrize(
    "n, last, states",
    [
        # closed into a loop, every definition is the same one-state process
        (2000, "P0", 1),
        # an open chain gives every definition its own graph, quadratic in n
        (400, "0", 401),
    ],
)
def test_long_definition_chains_parse(n, last, states):
    spec = parse(_chain(n, last))
    assert len(spec.processes) == n
    assert len(spec.processes["P0"].nodes) == states


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
