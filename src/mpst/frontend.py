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
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator, Mapping

from . import terms
from .terms import (
    END,
    GlobalComm,
    GlobalEnd,
    GlobalExpr,
    GlobalGraph,
    GlobalRef,
    IN,
    OUT,
    ProcComm,
    ProcEnd,
    ProcExpr,
    ProcessGraph,
    ProcRef,
    Session,
    TermError,
    _Value,
    session_of,
)

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


# One alternative per token kind, tried in order at every position; a word
# that starts with no letter or underscore, and any other character, is
# "bad".  \w is str.isalnum() or "_", character by character.
_TOKEN_RE = re.compile(
    r"(?P<nl>\n)|[ \t\r]+|#[^\n]*|(?P<zero>0)|(?P<punct>->|[!?{},.:|=])|(?P<ident>\w+)|(?P<bad>.)"
)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The tokens of text, each (kind, text, line, column) with kind 'ident',
    'punct', 'zero' or 'eof'."""
    tokens = []
    line, start = 1, 0  # the line and the index of its first character
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:  # blanks and comments
            continue
        pos = m.start()
        if kind == "nl":
            line, start = line + 1, pos + 1
            continue
        if kind == "bad" or kind == "ident" and not (text[pos].isalpha() or text[pos] == "_"):
            raise ParseError(f"unexpected character {text[pos]!r}", Span(line, pos - start + 1))
        tokens.append((kind, m.group(), line, pos - start + 1))
    # a comment on the last line ends where it starts, as no column is counted in it
    end = text.find("#", start)
    tokens.append(("eof", "", line, (len(text) if end < 0 else end) - start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str]:
        """The kind and the text of the next token."""
        kind, text, _, _ = self.tokens[self.pos]
        return kind, text

    def span(self, back: int = 0) -> Span:
        """Where the next token starts, or the token back tokens before it."""
        _, _, line, column = self.tokens[self.pos - back]
        return Span(line, column)

    def next(self) -> str:
        """The text of the next token, which is consumed."""
        _, text = self.peek()
        self.pos += 1
        return text

    def expect(self, kind: str, text: str | None = None) -> str:
        found_kind, found = self.peek()
        if found_kind != kind or (text is not None and found != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {found or found_kind!r}", self.span())
        return self.next()

    def ident(self, what: str) -> str:
        kind, text = self.peek()
        if kind != "ident":
            raise ParseError(f"expected {what}, found {text or kind!r}", self.span())
        if text in KEYWORDS:
            raise ParseError(f"keyword {text!r} cannot be used as {what}", self.span())
        return self.next()

    def name(self, what: str) -> str:
        """An identifier checked now; names inside terms are left to the builders."""
        text = self.ident(f"a {what}")
        try:
            terms.check_ident(text, what)
        except TermError as exc:
            raise ParseError(str(exc), self.span(back=1)) from None
        return text

    # -- processes ---------------------------------------------------------

    def proc(self) -> ProcExpr:
        if self.peek() == ("zero", "0"):
            self.next()
            return ProcEnd()
        name = self.ident("a process name or participant")
        kind, text = self.peek()
        if kind == "punct" and text in (OUT, IN):
            self.next()
            branches = self.branches(self.proc, ProcEnd())
            return ProcComm(text, name, branches)
        return ProcRef(name)

    def branches(self, sub, empty):
        if self.peek() == ("punct", "{"):
            self.next()
            out = [self.branch(sub, empty)]
            while self.peek() == ("punct", ","):
                self.next()
                out.append(self.branch(sub, empty))
            self.expect("punct", "}")
            return tuple(out)
        return (self.branch(sub, empty),)

    def branch(self, sub, empty):
        label = self.ident("a message label")
        if self.peek() == ("punct", "."):
            self.next()
            return (label, sub())
        return (label, empty)

    # -- global types -------------------------------------------------------

    def glob(self) -> GlobalExpr:
        if self.peek() == ("ident", "end"):
            self.next()
            return GlobalEnd()
        name = self.ident("a global-type name or participant")
        if self.peek() == ("punct", "->"):
            self.next()
            receiver = self.ident("a participant")
            self.expect("punct", ":")
            branches = self.branches(self.glob, GlobalEnd())
            return GlobalComm(name, receiver, branches)
        return GlobalRef(name)

    # -- sessions and ignored sets -------------------------------------------

    def sess(self) -> list[tuple[str, ProcExpr, Span]]:
        if self.peek() == ("zero", "0"):
            self.next()
            return []
        out = [self.binding()]
        while self.peek() == ("punct", "|"):
            self.next()
            out.append(self.binding())
        return out

    def binding(self) -> tuple[str, ProcExpr, Span]:
        span = self.span()
        part = self.ident("a participant")
        self.expect("punct", ":")
        return (part, self.proc(), span)

    def pset(self) -> frozenset[str]:
        self.expect("punct", "{")
        names = []
        if self.peek() != ("punct", "}"):
            names.append(self.name("participant"))
            while self.peek() == ("punct", ","):
                self.next()
                names.append(self.name("participant"))
        self.expect("punct", "}")
        return frozenset(names)


def parse(text: str) -> SpecFile:
    """Parse and check one source file; diagnostics carry positions."""
    p = _Parser(text)
    proc_defs: dict[str, ProcExpr] = {}
    sess_defs: dict[str, list[tuple[str, ProcExpr, Span]]] = {}
    glob_defs: dict[str, GlobalExpr] = {}
    pset_defs: dict[str, frozenset[str]] = {}
    spans: dict[str, Span] = {}

    def define(name: str, span: Span) -> None:
        if name in spans:
            raise DuplicateDefinition(
                f"name {name!r} already defined at {spans[name]}", span
            )
        spans[name] = span

    while p.peek() != ("eof", ""):
        kw = p.expect("ident")
        if kw not in ("process", "session", "global", "ignored"):
            raise ParseError(
                f"expected a definition keyword, found {kw!r}", p.span(back=1)
            )
        span = p.span()
        name = p.name("definition name")
        define(name, span)
        p.expect("punct", "=")
        if kw == "process":
            proc_defs[name] = p.proc()
        elif kw == "session":
            bindings = p.sess()
            seen: dict[str, Span] = {}
            for part, _, span in bindings:
                if part in seen:
                    raise DuplicateDefinition(
                        f"participant {part!r} bound twice in session {name!r}",
                        span,
                    )
                seen[part] = span
            sess_defs[name] = bindings
        elif kw == "global":
            glob_defs[name] = p.glob()
        else:
            pset_defs[name] = p.pset()

    # One build of the process system: the definitions are its first roots,
    # so that their faults are met first, then the bindings, under keys that
    # are no identifiers, so that no process name can clash with them.
    system = dict(proc_defs)
    for name, bindings in sess_defs.items():
        for part, expr, span in bindings:
            system[f"{name}: {part}"], spans[f"{name}: {part}"] = expr, span
    fault = None
    try:
        process = terms.process_system(system, system)
    except TermError as exc:
        if exc.root in proc_defs:
            raise ParseError(str(exc), spans[exc.root]) from exc
        fault = exc
    try:
        global_type = terms.global_system(glob_defs, glob_defs)
    except TermError as exc:
        raise ParseError(str(exc), spans[exc.root]) from exc
    # A session is checked after its own bindings and before later ones.
    for name, bindings in sess_defs.items():
        if fault is not None and fault.root.startswith(f"{name}: "):
            raise ParseError(str(fault), spans[fault.root]) from fault
        try:
            session_of((part, terms.END_PROCESS) for part, _, _ in bindings)
        except TermError as exc:
            raise ParseError(str(exc), spans[name]) from exc

    def session(name: str) -> Session:
        return session_of((part, process(f"{name}: {part}")) for part, _, _ in sess_defs[name])

    return SpecFile(
        _OnRead(process, proc_defs), _OnRead(session, sess_defs), _OnRead(global_type, glob_defs), pset_defs
    )


# ---------------------------------------------------------------------------
# Printing.  Cyclic graphs are rendered as named equations; acyclic subterms
# are inlined.  parse(print(...)) yields a bisimilar graph.
# ---------------------------------------------------------------------------


def _named_nodes(g: ProcessGraph | GlobalGraph) -> list[int]:
    """Root plus every node the root reaches by several references.  A back
    reference needs no more: a node other than the root that a walk from the
    root enters by its one reference is no ancestor of that reference."""
    indeg = dict.fromkeys(range(len(g.nodes)), 0)
    seen, todo = {g.root}, [g.root]
    while todo:
        for _, t in g.nodes[todo.pop()].branches:
            indeg[t] += 1
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return sorted({g.root} | {i for i, d in indeg.items() if d > 1})


def _render(g: ProcessGraph | GlobalGraph, head, end_text: str, base: str) -> str:
    """The equations of g named base, base1, ...; head(node) is the text of a
    communication node before its branches."""
    root = g.root

    def is_end(i: int) -> bool:
        return g.nodes[i].kind == END

    named = [i for i in _named_nodes(g) if not is_end(i)]
    if root not in named and not is_end(root):
        named.insert(0, root)
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
    if len(lines) == 1 and all(t != g.root for node in g.nodes for _, t in node.branches):
        return f"{p}: {lines[0].split(' = ', 1)[1]}", []
    return f"{p}: P{k}", lines


def _join_bindings(texts: list[tuple[str, list[str]]]) -> str:
    """A session's text from the texts of its bindings, in order."""
    if not texts:
        return "0"
    out = " | ".join(piece for piece, _ in texts)
    defs = [line for _, lines in texts for line in lines]
    return out + "  where  " + " ; ".join(defs) if defs else out
