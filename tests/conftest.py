from __future__ import annotations

from pathlib import Path

import pytest

from mpst import terms
from mpst.frontend import SpecFile, parse

GOLDEN = Path(__file__).parent / "golden"


def golden_path(name: str) -> Path:
    return GOLDEN / name


def global_chain(n: int) -> str:
    """A file of n + 1 globals: G0 = p->q:a . G1, ..., Gn = r->s:b."""
    lines = [f"global G{i} = p->q:a . G{i + 1}" for i in range(n)]
    return "\n".join(lines + [f"global G{n} = r->s:b"]) + "\n"


def two_party_chain(n: int, last_q: str = "p?a") -> str:
    """Process chains P0, Q0 and a global chain G0 of n definitions each, and
    the session M = p: P0 | q: Q0; the last definition of Q is last_q."""
    lines = []
    for i in range(n - 1):
        lines += [f"process P{i} = q!a . P{i + 1}", f"process Q{i} = p?a . Q{i + 1}"]
        lines.append(f"global G{i} = p->q:a . G{i + 1}")
    last = [f"process P{n - 1} = q!a", f"process Q{n - 1} = {last_q}", f"global G{n - 1} = p->q:a"]
    return "\n".join(lines + last + ["session M = p: P0 | q: Q0"]) + "\n"


def pairs_text(k: int) -> str:
    """A file whose session M runs k independent ping-pong pairs p{i} <-> q{i}."""
    lines, binds = [], []
    for i in range(k):
        lines.append(f"process P{i} = q{i}!a . q{i}?b . P{i}")
        lines.append(f"process Q{i} = p{i}?a . p{i}!b . Q{i}")
        binds.append(f"p{i}: P{i} | q{i}: Q{i}")
    return "\n".join(lines + ["session M = " + " | ".join(binds)])


def sessions_made(monkeypatch) -> list:
    """The field tuples of every Session built from here on, in order."""
    made, make = [], terms._make

    def counting_make(cls, *fields, **memo):
        if cls is terms.Session:
            made.append(fields)
        return make(cls, *fields, **memo)

    monkeypatch.setattr(terms, "_make", counting_make)
    return made


def load_golden(name: str) -> SpecFile:
    return parse(golden_path(name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def social_media() -> SpecFile:
    return load_golden("social_media.mpst")


@pytest.fixture(scope="session")
def buyer_seller() -> SpecFile:
    return load_golden("buyer_seller.mpst")


@pytest.fixture(scope="session")
def unbounded() -> SpecFile:
    return load_golden("unbounded.mpst")


@pytest.fixture(scope="session")
def mutual_loop() -> SpecFile:
    return load_golden("mutual_loop.mpst")


@pytest.fixture(scope="session")
def empty_spec() -> SpecFile:
    return load_golden("empty.mpst")
