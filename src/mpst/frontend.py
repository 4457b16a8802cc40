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

from dataclasses import dataclass
from typing import Mapping

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
    session_of,
)

KEYWORDS = {"process", "session", "global", "ignored", "end"}


@dataclass(frozen=True)
class Span:
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(Exception):
    def __init__(self, message: str, span: Span):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class DuplicateDefinition(ParseError):
    pass


@dataclass(frozen=True)
class SpecFile:
    """All definitions of one source file, with terms already built."""

    processes: Mapping[str, ProcessGraph]
    sessions: Mapping[str, Session]
    globals: Mapping[str, GlobalGraph]
    ignored_sets: Mapping[str, frozenset[str]]


@dataclass(frozen=True)
class _Token:
    kind: str  # 'ident', 'punct', 'zero', 'eof'
    text: str
    span: Span


_PUNCT = ("->", "!", "?", "{", "}", ",", ".", ":", "|", "=")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        span = Span(line, col)
        if c == "0":
            tokens.append(_Token("zero", "0", span))
            i += 1
            col += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], span))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(_Token("punct", p, span))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", span)
    tokens.append(_Token("eof", "", Span(line, col)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text or tok.kind!r}", tok.span)
        return self.next()

    def ident(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected {what}, found {tok.text or tok.kind!r}", tok.span)
        if tok.text in KEYWORDS:
            raise ParseError(f"keyword {tok.text!r} cannot be used as {what}", tok.span)
        return self.next()

    # -- processes ---------------------------------------------------------

    def proc(self) -> ProcExpr:
        tok = self.peek()
        if tok.kind == "zero":
            self.next()
            return ProcEnd()
        name = self.ident("a process name or participant")
        nxt = self.peek()
        if nxt.kind == "punct" and nxt.text in (OUT, IN):
            self.next()
            branches = self.branches(self.proc, ProcEnd())
            return ProcComm(nxt.text, name.text, branches)
        return ProcRef(name.text)

    def branches(self, sub, empty):
        if self.peek().kind == "punct" and self.peek().text == "{":
            self.next()
            out = [self.branch(sub, empty)]
            while self.peek().text == ",":
                self.next()
                out.append(self.branch(sub, empty))
            self.expect("punct", "}")
            return tuple(out)
        return (self.branch(sub, empty),)

    def branch(self, sub, empty):
        label = self.ident("a message label")
        if self.peek().kind == "punct" and self.peek().text == ".":
            self.next()
            return (label.text, sub())
        return (label.text, empty)

    # -- global types -------------------------------------------------------

    def glob(self) -> GlobalExpr:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "end":
            self.next()
            return GlobalEnd()
        name = self.ident("a global-type name or participant")
        if self.peek().text == "->":
            self.next()
            receiver = self.ident("a participant")
            self.expect("punct", ":")
            branches = self.branches(self.glob, GlobalEnd())
            return GlobalComm(name.text, receiver.text, branches)
        return GlobalRef(name.text)

    # -- sessions and ignored sets -------------------------------------------

    def sess(self) -> list[tuple[str, ProcExpr, Span]]:
        if self.peek().kind == "zero":
            self.next()
            return []
        out = [self.binding()]
        while self.peek().text == "|":
            self.next()
            out.append(self.binding())
        return out

    def binding(self) -> tuple[str, ProcExpr, Span]:
        part = self.ident("a participant")
        self.expect("punct", ":")
        return (part.text, self.proc(), part.span)

    def pset(self) -> frozenset[str]:
        self.expect("punct", "{")
        names = []
        if self.peek().text != "}":
            names.append(self.ident("a participant").text)
            while self.peek().text == ",":
                self.next()
                names.append(self.ident("a participant").text)
        self.expect("punct", "}")
        return frozenset(names)


def parse(text: str) -> SpecFile:
    """Parse one source file into built graphs; diagnostics carry positions."""
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

    while p.peek().kind != "eof":
        kw = p.expect("ident")
        if kw.text not in ("process", "session", "global", "ignored"):
            raise ParseError(
                f"expected a definition keyword, found {kw.text!r}", kw.span
            )
        name = p.ident("a definition name")
        define(name.text, name.span)
        p.expect("punct", "=")
        if kw.text == "process":
            proc_defs[name.text] = p.proc()
        elif kw.text == "session":
            bindings = p.sess()
            seen: dict[str, Span] = {}
            for part, _, span in bindings:
                if part in seen:
                    raise DuplicateDefinition(
                        f"participant {part!r} bound twice in session {name.text!r}",
                        span,
                    )
                seen[part] = span
            sess_defs[name.text] = bindings
        elif kw.text == "global":
            glob_defs[name.text] = p.glob()
        else:
            pset_defs[name.text] = p.pset()

    processes: dict[str, ProcessGraph] = {}
    for name in proc_defs:
        try:
            processes[name] = terms.build_process_graph(proc_defs, name)
        except TermError as exc:
            raise ParseError(str(exc), spans[name]) from exc

    globals_: dict[str, GlobalGraph] = {}
    for name in glob_defs:
        try:
            globals_[name] = terms.build_global_graph(glob_defs, name)
        except TermError as exc:
            raise ParseError(str(exc), spans[name]) from exc

    sessions: dict[str, Session] = {}
    binding_key = "binding expression"  # not a lexable identifier, cannot collide
    for name, bindings in sess_defs.items():
        built: dict[str, ProcessGraph] = {}
        for part, expr, span in bindings:
            try:
                defs = dict(proc_defs)
                defs[binding_key] = expr
                built[part] = terms.build_process_graph(defs, binding_key)
            except TermError as exc:
                raise ParseError(str(exc), span) from exc
        try:
            sessions[name] = session_of(built)
        except TermError as exc:
            raise ParseError(str(exc), spans[name]) from exc

    return SpecFile(processes, sessions, globals_, pset_defs)


# ---------------------------------------------------------------------------
# Printing.  Cyclic graphs are rendered as named equations; acyclic subterms
# are inlined.  parse(print(...)) yields a bisimilar graph.
# ---------------------------------------------------------------------------


def _named_nodes(branches_of, root: int, n: int) -> list[int]:
    """Root plus every node with several references or a back reference."""
    indeg = {i: 0 for i in range(n)}
    back: set[int] = set()
    state: dict[int, int] = {}

    def dfs(i: int) -> None:
        state[i] = 1
        for _, t in branches_of(i):
            indeg[t] += 1
            if state.get(t) == 1:
                back.add(t)
            elif t not in state:
                dfs(t)
        state[i] = 2

    dfs(root)
    named = {root} | back | {i for i, d in indeg.items() if d > 1}
    return sorted(named)


def _render(
    branches_of,
    node_text,
    is_end,
    end_text: str,
    root: int,
    n: int,
    base: str,
) -> str:
    named = [i for i in _named_nodes(branches_of, root, n) if not is_end(i)]
    if root not in named and not is_end(root):
        named.insert(0, root)
    names: dict[int, str] = {}
    for k, i in enumerate(sorted(named, key=lambda i: (i != root, i))):
        names[i] = base if k == 0 else f"{base}{k}"

    def go(i: int, at_def: bool) -> str:
        if is_end(i):
            return end_text
        if i in names and not at_def:
            return names[i]
        parts = []
        for lab, t in branches_of(i):
            if is_end(t):
                parts.append(lab)
            else:
                parts.append(f"{lab} . {go(t, False)}")
        body = parts[0] if len(parts) == 1 else "{ " + ", ".join(parts) + " }"
        return node_text(i, body)

    if is_end(root):
        return f"{base} = {end_text}" if base else end_text
    chunks = [f"{names[i]} = {go(i, True)}" for i in names]
    return "\n".join(chunks)


def format_process(g: ProcessGraph, name: str = "P") -> str:
    """Equation text for a process graph, e.g. ``P = q!{ add . P, pay }``."""
    g = terms.minimize(g)
    return _render(
        lambda i: g.nodes[i].branches,
        lambda i, body: f"{g.nodes[i].partner}{g.nodes[i].kind}{body}",
        lambda i: g.nodes[i].kind == END,
        "0",
        g.root,
        len(g.nodes),
        name,
    )


def format_global(g: GlobalGraph, name: str = "G") -> str:
    """Equation text for a global graph, e.g. ``G = b->s:{ add . G, pay }``."""
    g = terms.minimize_global(g)
    return _render(
        lambda i: g.nodes[i].branches,
        lambda i, body: f"{g.nodes[i].sender}->{g.nodes[i].receiver}:{body}",
        lambda i: g.nodes[i].kind == END,
        "end",
        g.root,
        len(g.nodes),
        name,
    )


def parse_global(text: str, name: str = "G") -> GlobalGraph:
    """Parse the output of format_global back into a graph."""
    spec = parse("\n".join(f"global {line}" for line in text.splitlines() if line.strip()))
    return spec.globals[name]


def parse_process(text: str, name: str = "P") -> ProcessGraph:
    spec = parse("\n".join(f"process {line}" for line in text.splitlines() if line.strip()))
    return spec.processes[name]


def format_session(s: Session) -> str:
    """One-line session text; looping processes get local equation suffixes."""
    if not s.bindings:
        return "0"
    pieces = []
    defs = []
    for idx, (p, g) in enumerate(s.items()):
        text = format_process(g, f"P{idx}")
        lines = text.splitlines()
        head = lines[0].split(" = ", 1)[1]
        if len(lines) == 1 and f"P{idx}" not in head:
            pieces.append(f"{p}: {head}")
        else:
            pieces.append(f"{p}: P{idx}")
            defs.extend(lines)
    out = " | ".join(pieces)
    if defs:
        out += "  where  " + " ; ".join(defs)
    return out
