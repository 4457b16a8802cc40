"""Textual format for processes, sessions, global types and ignored sets.

Grammar (comments run from ``#`` to end of line)::

    file     := def*
    def      := "process" NAME "=" proc
              | "session" NAME "=" sess
              | "global"  NAME "=" glob
              | "ignored" NAME "=" "{" [ part ("," part)* ] "}"
    proc     := "0" | NAME | part "!" branches | part "?" branches
    branches := branch | "{" branch ("," branch)* "}"
    branch   := label [ "." proc ]
    glob     := "end" | NAME | part "->" part ":" gbranches
    gbranches:= gbranch | "{" gbranch ("," gbranch)* "}"
    gbranch  := label [ "." glob ]
    sess     := "0" | part ":" proc ("|" part ":" proc)*

An omitted branch continuation stands for the terminated process / ``end``.
Recursion is written through named definitions, never a binder.

A file is read in one pass from text to graph nodes: its tokens are plain
strings from one regular expression, a loop with a stack of the open
communications writes each communication as a row for ``terms._build``, and
a token's line and column are computed again from the text only for a
diagnostic.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator, Mapping

from . import terms
from .terms import COMM, END, IN, OUT, GlobalGraph, ProcessGraph, Session, TermError, _Value, _predecessors, session_of

KEYWORDS = {"process", "session", "global", "ignored", "end"}


class Span(_Value):
    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int) -> None:
        self._set(line, column)

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(Exception):
    def __init__(self, message: str, span: Span):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class DuplicateDefinition(ParseError):
    pass


class SpecFile(_Value):
    """All definitions of one source file, checked; each mapping keeps
    definition order and builds a term when it is first read."""

    __slots__ = ("processes", "sessions", "globals", "ignored_sets")

    def __init__(
        self,
        processes: Mapping[str, ProcessGraph],
        sessions: Mapping[str, Session],
        globals: Mapping[str, GlobalGraph],
        ignored_sets: Mapping[str, frozenset[str]],
    ) -> None:
        self._set(processes, sessions, globals, ignored_sets)


class _OnRead(Mapping):
    """Names, in their order, each mapped to make(name) on its first read."""

    def __init__(self, make: Callable[[str], object], names: Iterable[str]):
        self._make, self._values = make, dict.fromkeys(names)

    def __getitem__(self, name: str):
        if self._values[name] is None:
            self._values[name] = self._make(name)
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)


# Blanks and comments are skipped, then one token is taken: "->" or a
# punctuation mark, "0" (before words, so that "0P" is two tokens), a word,
# any other character, which is bad, or the end of the text, so that the last
# token is "" (without it, findall would go on inside a trailing comment).
# \w is str.isalnum() or "_", character by character.
_TOKEN_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*(->|[!?{},.:|=]|0|\w+|.|\Z)")
_PUNCT = frozenset(("->", "!", "?", "{", "}", ",", ".", ":", "|", "="))
_NOT_NAMES = _PUNCT | {"0", ""} | KEYWORDS  # a name is any other token


def _tokenize(text: str) -> list[str]:
    """The tokens of text as plain strings, "" last; a word that starts with
    no letter or underscore, and any other character, is bad."""
    tokens = _TOKEN_RE.findall(text)
    if len(tokens) > 1 and not tokens[-2]:  # after blanks at its end, the end matches twice
        tokens.pop()
    bad = {tok for tok in set(tokens).difference(_PUNCT, ("0", "")) if not (tok[0].isalpha() or tok[0] == "_")}
    if bad:
        i = next(i for i, tok in enumerate(tokens) if tok in bad)
        raise ParseError(f"unexpected character {tokens[i][0]!r}", _span(text, i))
    return tokens


def _positions(text: str) -> list[tuple[int, int]]:
    """The line and column of every token of text, found again from the
    text: only a diagnostic needs them.  A comment on the last line ends the
    file where it starts, as no column is counted in it."""
    out = []
    line, start, last = 1, 0, 0  # start is the index of the line's first character
    for m in _TOKEN_RE.finditer(text):
        pos = m.start(1)
        line += text.count("\n", last, pos)
        start = text.rfind("\n", last, pos) + 1 or start  # rfind gives -1 when no line ends between
        out.append((line, pos - start + 1))
        if pos == len(text):
            break  # the end, which matches twice after blanks at the end
        last = pos
    end = text.find("#", start)
    out[-1] = (line, (len(text) if end < 0 else end) - start + 1)
    return out


def _span(text: str, i: int) -> Span:
    return Span(*_positions(text)[i])


def _expected(text: str, tokens: list[str], i: int, want: str) -> ParseError:
    return ParseError(f"expected {want}, found {tokens[i] or 'eof'!r}", _span(text, i))


def _not_a_name(text: str, tokens: list[str], i: int, what: str) -> ParseError:
    """The fault of token i where a name, what, is due: a keyword or no word."""
    if tokens[i] in KEYWORDS:
        return ParseError(f"keyword {tokens[i]!r} cannot be used as {what}", _span(text, i))
    return _expected(text, tokens, i, what)


def _word(text: str, tokens: list[str], i: int, what: str) -> str:
    """Token i, which must be a name: a word and no keyword."""
    if tokens[i] in _NOT_NAMES:
        raise _not_a_name(text, tokens, i, what)
    return tokens[i]


def _name(text: str, tokens: list[str], i: int, what: str) -> str:
    """Token i as an identifier checked now; names inside terms are left to the builder."""
    try:
        return terms.check_ident(_word(text, tokens, i, f"a {what}"), what)
    except TermError as exc:
        raise ParseError(str(exc), _span(text, i)) from None


def _term(text: str, tokens: list[str], i: int, rows: list, glob: bool) -> tuple:
    """The process, or with glob the global type, at token i: its target for
    terms._build, and the index of the token after it.  Every communication
    is appended to rows as (head, labels, targets); the open ones wait on a
    stack, so that nesting costs no recursion."""
    end, what = ("end", "a global-type name or participant") if glob else ("0", "a process name or participant")
    stack = []  # (row, braced) of the open communications
    while True:
        # a term starts at token i
        tok = tokens[i]
        label_due = False
        if tok == end:
            target, i = None, i + 1
        elif tok in _NOT_NAMES:
            raise _not_a_name(text, tokens, i, what)
        elif glob and tokens[i + 1] == "->":
            receiver = _word(text, tokens, i + 2, "a participant")
            if tokens[i + 3] != ":":
                raise _expected(text, tokens, i + 3, "':'")
            label_due, head, i = True, (COMM, tok, receiver), i + 4
        elif not glob and (tokens[i + 1] == OUT or tokens[i + 1] == IN):
            label_due, head, i = True, (tokens[i + 1], tok), i + 2
        else:
            target, i = tok, i + 1  # a name
        if label_due:
            stack.append((len(rows), tokens[i] == "{"))
            rows.append((head, [], []))
            i += stack[-1][1]
        # the term is over: its target ends the branch of the innermost open
        # communication, and a label comes first when a branch is due
        while True:
            if label_due:
                tok = tokens[i]
                if tok in _NOT_NAMES:
                    raise _not_a_name(text, tokens, i, "a message label")
                rows[stack[-1][0]][1].append(tok)
                i += 1
                if tokens[i] == ".":
                    i += 1
                    break  # the branch goes on with a term
                target = None
            if not stack:
                return target, i
            row, braced = stack[-1]
            rows[row][2].append(target)
            label_due = braced and tokens[i] == ","
            if label_due:
                i += 1
                continue
            if braced:
                if tokens[i] != "}":
                    raise _expected(text, tokens, i, "'}'")
                i += 1
            stack.pop()
            target = row


def parse(text: str) -> SpecFile:
    """Parse and check one source file; diagnostics carry positions."""
    tokens = _tokenize(text)
    proc_rows, glob_rows = [], []  # the rows of terms._build: processes and bindings, global types
    proc_defs: dict = {}  # name -> target, as terms._build takes them
    bindings: dict = {}  # "session: participant" -> target
    glob_defs: dict = {}
    sess_defs: dict[str, list[str]] = {}  # name -> its participants
    pset_defs: dict[str, frozenset[str]] = {}
    where: dict[str, int] = {}  # definition name or binding key -> its token
    i = 0
    while tokens[i]:
        kw = tokens[i]
        if kw in _PUNCT or kw == "0":
            raise _expected(text, tokens, i, "'ident'")
        if kw not in ("process", "session", "global", "ignored"):
            raise ParseError(f"expected a definition keyword, found {kw!r}", _span(text, i))
        name = _name(text, tokens, i + 1, "definition name")
        if name in where:
            raise DuplicateDefinition(
                f"name {name!r} already defined at {_span(text, where[name])}", _span(text, i + 1)
            )
        where[name] = i + 1
        if tokens[i + 2] != "=":
            raise _expected(text, tokens, i + 2, "'='")
        i += 3
        if kw == "process":
            proc_defs[name], i = _term(text, tokens, i, proc_rows, False)
        elif kw == "global":
            glob_defs[name], i = _term(text, tokens, i, glob_rows, True)
        elif kw == "ignored":
            if tokens[i] != "{":
                raise _expected(text, tokens, i, "'{'")
            names = []
            i += 1
            if tokens[i] != "}":
                names.append(_name(text, tokens, i, "participant"))
                while tokens[i + 1] == ",":
                    i += 2
                    names.append(_name(text, tokens, i, "participant"))
                i += 1
            if tokens[i] != "}":
                raise _expected(text, tokens, i, "'}'")
            pset_defs[name] = frozenset(names)
            i += 1
        elif tokens[i] == "0":
            sess_defs[name] = []
            i += 1
        else:
            parts, starts = [], []
            while True:
                parts.append(_word(text, tokens, i, "a participant"))
                starts.append(i)
                if tokens[i + 1] != ":":
                    raise _expected(text, tokens, i + 1, "':'")
                bindings[f"{name}: {parts[-1]}"], i = _term(text, tokens, i + 2, proc_rows, False)
                if tokens[i] != "|":
                    break
                i += 1
            for k, part in enumerate(parts):  # the first participant bound twice is the fault
                if part in parts[:k]:
                    message = f"participant {part!r} bound twice in session {name!r}"
                    raise DuplicateDefinition(message, _span(text, starts[k]))
                where[f"{name}: {part}"] = starts[k]
            sess_defs[name] = parts

    # One build of the process system: the definitions are its first roots,
    # so that their faults are met first, then the bindings, under keys that
    # are no identifiers, so that no process name can clash with them.
    system = {**proc_defs, **bindings}
    fault = None
    try:
        process = terms._build(terms.END_PROCESS, proc_rows, system, system, "process")
    except TermError as exc:
        if exc.root in proc_defs:
            raise ParseError(str(exc), _span(text, where[exc.root])) from exc
        fault = exc
    try:
        global_type = terms._build(terms.END_GLOBAL, glob_rows, glob_defs, glob_defs, "global type")
    except TermError as exc:
        raise ParseError(str(exc), _span(text, where[exc.root])) from exc
    # A session is checked after its own bindings and before later ones.
    for name, parts in sess_defs.items():
        if fault is not None and fault.root.startswith(f"{name}: "):
            raise ParseError(str(fault), _span(text, where[fault.root])) from fault
        try:
            session_of((part, terms.END_PROCESS) for part in parts)
        except TermError as exc:
            raise ParseError(str(exc), _span(text, where[name])) from exc

    def session(name: str) -> Session:
        return session_of((part, process(f"{name}: {part}")) for part in sess_defs[name])

    return SpecFile(
        _OnRead(process, proc_defs), _OnRead(session, sess_defs), _OnRead(global_type, glob_defs), pset_defs
    )


# ---------------------------------------------------------------------------
# Printing.  Cyclic graphs are rendered as named equations; acyclic subterms
# are inlined.  parse(print(...)) yields a bisimilar graph.
# ---------------------------------------------------------------------------


def _render(g: ProcessGraph | GlobalGraph, head, end_text: str, base: str) -> str:
    """The equations of g named base, base1, ...; head(node) is the text of a
    communication node before its branches."""
    root = g.root

    def is_end(i: int) -> bool:
        return g.nodes[i].kind == END

    # the root and every node it reaches by several references: a node it
    # enters by one reference is no ancestor of that reference
    named = [i for i, js in _predecessors(g).items() if (i == root or len(js) > 1) and not is_end(i)]
    names: dict[int, str] = {}
    for k, i in enumerate(sorted(named, key=lambda i: (i != root, i))):
        names[i] = base if k == 0 else f"{base}{k}"

    def body(i: int) -> str:
        # the nodes inlined into i's equation, parents first; texts children first
        order = [i]
        for k in order:  # grows while it is read
            order += [t for _, t in g.nodes[k].branches if t not in names and not is_end(t)]
        text: dict[int, str] = {}
        for k in reversed(order):
            node = g.nodes[k]
            parts = [lab if is_end(t) else f"{lab} . {names.get(t, text.get(t))}" for lab, t in node.branches]
            text[k] = head(node) + (parts[0] if len(parts) == 1 else "{ " + ", ".join(parts) + " }")
        return text[i]

    if is_end(root):
        return f"{base} = {end_text}" if base else end_text
    chunks = [f"{names[i]} = {body(i)}" for i in names]
    return "\n".join(chunks)


def format_process(g: ProcessGraph, name: str = "P") -> str:
    """Equation text for a process graph, e.g. ``P = q!{ add . P, pay }``.

    Rendered once per (graph, name) and kept on the canonical graph, so the
    states of a state graph that share a process share its text.
    """
    g = terms.minimize(g)
    return g.cached(("text", name), lambda: _render(g, lambda n: f"{n.partner}{n.kind}", "0", name))


def format_global(g: GlobalGraph, name: str = "G") -> str:
    """Equation text for a global graph, e.g. ``G = b->s:{ add . G, pay }``."""
    g = terms.minimize_global(g)
    return g.cached(("text", name), lambda: _render(g, lambda n: f"{n.sender}->{n.receiver}:", "end", name))


def parse_global(text: str, name: str = "G") -> GlobalGraph:
    """Parse the output of format_global back into a graph."""
    spec = parse("\n".join(f"global {line}" for line in text.splitlines() if line.strip()))
    return spec.globals[name]


def parse_process(text: str, name: str = "P") -> ProcessGraph:
    spec = parse("\n".join(f"process {line}" for line in text.splitlines() if line.strip()))
    return spec.processes[name]


def format_session(s: Session) -> str:
    """One-line session text; looping processes get local equation suffixes."""
    return _join_bindings([_binding_text(p, g, k) for k, (p, g) in enumerate(s.items())])


def _binding_text(p: str, g: ProcessGraph, k: int) -> tuple[str, list[str]]:
    """The text of binding p: g at position k of a session, and the equations
    it names: none when one line with no branch back to the root says it."""
    g = terms.minimize(g)
    lines = format_process(g, f"P{k}").splitlines()
    if len(lines) == 1 and not _predecessors(g)[g.root]:
        return f"{p}: {lines[0].split(' = ', 1)[1]}", []
    return f"{p}: P{k}", lines


def _join_bindings(texts: list[tuple[str, list[str]]]) -> str:
    """A session's text from the texts of its bindings, in order."""
    if not texts:
        return "0"
    out = " | ".join(piece for piece, _ in texts)
    defs = [line for _, lines in texts for line in lines]
    return out + "  where  " + " ; ".join(defs) if defs else out
