"""The value behaviour of every record class of the package.

Each class is a row: its field names and a function that makes one sample
value, the same each call.  The table pins equality, hashing, immutability,
repr, keyword construction, defaults, ordering, copying and pickling.
"""

import copy
import pickle

import pytest

from mpst.analysis import BoundednessVerdict, LivenessVerdict
from mpst.frontend import Span, SpecFile
from mpst.inference import (
    InferenceOutcome,
    PatComm,
    PatEnd,
    PatVar,
    PCondition,
    PSetPattern,
    PSetVar,
    SearchBudget,
    Substitution,
    TypeVar,
)
from mpst.metatheory import SuiteReport, Violation
from mpst.semantics import CommLabel, ExploreConfig, StateGraph, Trace
from mpst.terms import (
    COMM,
    END,
    END_GLOBAL,
    END_PROCESS,
    OUT,
    GlobalComm,
    GlobalEnd,
    GlobalGraph,
    GlobalRef,
    GNode,
    PNode,
    ProcComm,
    ProcEnd,
    ProcessGraph,
    ProcRef,
    Session,
)
from mpst.typecheck import Derivation, Judgment, Rejection

LABEL = CommLabel("p", "a", "q")
SEND = ProcessGraph((PNode(OUT, "q", (("a", 1),)), PNode(END, None, ())), 0)
SESSION = Session((("p", SEND), ("q", END_PROCESS)))
PQ = GlobalGraph((GNode(COMM, "p", "q", (("a", 1),)), GNode(END, None, None, ())), 0)


def judgment():
    return Judgment(PQ, SESSION, frozenset({"r"}))


# (class, field names, sample)
ROWS = [
    (ProcEnd, (), lambda: ProcEnd()),
    (ProcRef, ("name",), lambda: ProcRef("X")),
    (ProcComm, ("kind", "partner", "branches"), lambda: ProcComm(OUT, "q", (("a", ProcEnd()),))),
    (GlobalEnd, (), lambda: GlobalEnd()),
    (GlobalRef, ("name",), lambda: GlobalRef("X")),
    (GlobalComm, ("sender", "receiver", "branches"), lambda: GlobalComm("p", "q", (("a", GlobalEnd()),))),
    (PNode, ("kind", "partner", "branches"), lambda: PNode(OUT, "q", (("a", 0),))),
    (GNode, ("kind", "sender", "receiver", "branches"), lambda: GNode(COMM, "p", "q", (("a", 0),))),
    (ProcessGraph, ("nodes", "root"), lambda: ProcessGraph(SEND.nodes, 0)),
    (GlobalGraph, ("nodes", "root"), lambda: GlobalGraph(PQ.nodes, 0)),
    (Session, ("bindings",), lambda: Session((("p", SEND), ("q", END_PROCESS)))),
    (CommLabel, ("sender", "message", "receiver"), lambda: CommLabel("p", "a", "q")),
    (Trace, ("labels",), lambda: Trace((LABEL,))),
    (ExploreConfig, ("max_states", "max_edges"), lambda: ExploreConfig(5, 7)),
    (StateGraph, ("states", "edges", "initial"), lambda: StateGraph((SESSION, Session(())), ((0, LABEL, 1),), 0)),
    (BoundednessVerdict, ("holds", "witness_node", "witness_participant"), lambda: BoundednessVerdict(False, 0, "p")),
    (
        LivenessVerdict,
        ("prop", "ignored", "holds", "witness_state", "witness_session", "witness_participant", "witness_trace",
         "note"),
        lambda: LivenessVerdict("lock-freedom", frozenset({"r"}), False, 1, SESSION, "p", Trace((LABEL,)), "n"),
    ),
    (Judgment, ("global_type", "session", "ignored"), judgment),
    (
        Derivation,
        ("rule", "judgment", "premises", "branch_labels", "discharged"),
        lambda: Derivation("Comm", judgment(), (Derivation("End", judgment()),), ("a",), frozenset()),
    ),
    (Rejection, ("reason", "judgment", "detail", "depth"), lambda: Rejection("Unbounded", judgment(), "why", 2)),
    (Span, ("line", "column"), lambda: Span(3, 4)),
    (SpecFile, ("processes", "sessions", "globals", "ignored_sets"), lambda: SpecFile({"P": SEND}, {}, {}, {})),
    (TypeVar, ("id",), lambda: TypeVar(1)),
    (PSetVar, ("id",), lambda: PSetVar(1)),
    (PatEnd, (), lambda: PatEnd()),
    (PatVar, ("var",), lambda: PatVar(TypeVar(1))),
    (PatComm, ("sender", "receiver", "branches"), lambda: PatComm("p", "q", (("a", PatEnd()),))),
    (PSetPattern, ("literals", "vars"), lambda: PSetPattern(frozenset({"p"}), (PSetVar(1),))),
    (PCondition, ("typevar", "psetvar", "p", "q", "target"),
     lambda: PCondition(TypeVar(1), PSetVar(2), "p", "q", frozenset({"r"}))),
    (Substitution, ("types", "psets"), lambda: Substitution({TypeVar(1): END_GLOBAL}, {PSetVar(1): frozenset()})),
    (
        InferenceOutcome,
        ("type_eqs", "pset_eqs", "conditions", "root_typevar", "root_psetvar", "goals", "size", "weak_count"),
        lambda: InferenceOutcome(
            {TypeVar(0): PatEnd()}, {PSetVar(0): PSetPattern()}, (), TypeVar(0), PSetVar(0),
            ((SESSION, PSetVar(0), TypeVar(0)),), 1, 0,
        ),
    ),
    (SearchBudget, ("max_size", "max_outcomes", "explore"), lambda: SearchBudget(3, 4, ExploreConfig(5, 7))),
    (Violation, ("check", "detail"), lambda: Violation("replacement", "why")),
    (SuiteReport, ("combos",), lambda: SuiteReport([{"violations": []}])),
]
IDS = [cls.__name__ for cls, _, _ in ROWS]
MUTABLE = {Violation, SuiteReport}
# their fields hold dicts or lists, so hashing them fails as hashing their fields does
UNHASHABLE = MUTABLE | {SpecFile, Substitution, InferenceOutcome}


def fields_of(value, names):
    return {name: getattr(value, name) for name in names}


@pytest.mark.parametrize("cls, names, make", ROWS, ids=IDS)
class TestEveryValue:
    def test_equal_fields_give_equal_values(self, cls, names, make):
        a, b = make(), make()
        assert type(a) is cls and a is not b
        assert a == b and not a != b
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_keyword_construction(self, cls, names, make):
        value = make()
        assert cls(**fields_of(value, names)) == value

    def test_a_different_field_gives_a_different_value(self, cls, names, make):
        value = make()
        for name in names:
            other = make()
            object.__setattr__(other, name, object())
            assert other != value and value != other

    def test_fields_cannot_be_assigned(self, cls, names, make):
        value = make()
        for name in names:
            if cls in MUTABLE:
                setattr(value, name, getattr(value, name))
            else:
                with pytest.raises(AttributeError):
                    setattr(value, name, getattr(value, name))

    def test_repr_lists_the_fields(self, cls, names, make):
        value = make()
        shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
        assert repr(value) == f"{cls.__name__}({shown})"

    def test_copies_and_pickles_are_equal(self, cls, names, make):
        value = make()
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is cls and twin == value
            assert fields_of(twin, names) == fields_of(value, names)

    def test_no_other_value_is_equal(self, cls, names, make):
        value = make()
        assert value != object() and value != tuple(fields_of(value, names).values())
        others = [m() for c, _, m in ROWS if c is not cls]
        assert value not in others


def test_same_fields_in_different_classes_are_unequal():
    assert ProcEnd() != GlobalEnd() and PatEnd() != ProcEnd()
    assert ProcRef("X") != GlobalRef("X")
    assert TypeVar(1) != PSetVar(1)
    assert TypeVar(1) != 1


def test_reprs():
    assert repr(CommLabel("p", "a", "q")) == "CommLabel(sender='p', message='a', receiver='q')"
    assert repr(ProcEnd()) == "ProcEnd()"
    assert repr(TypeVar(3)) == "TypeVar(id=3)"
    assert repr(ExploreConfig()) == "ExploreConfig(max_states=1000000, max_edges=4000000)"
    assert repr(END_PROCESS) == "ProcessGraph(nodes=(PNode(kind='end', partner=None, branches=()),), root=0)"
    assert repr(Violation("c", "d")) == "Violation(check='c', detail='d')"


def test_defaults():
    assert ExploreConfig() == ExploreConfig(1_000_000, 4_000_000)
    assert ExploreConfig(max_states=3) == ExploreConfig(3, 4_000_000)
    assert SearchBudget() == SearchBudget(None, 64, ExploreConfig())
    assert SearchBudget().explore == ExploreConfig()
    assert Trace().labels == ()
    assert StateGraph((SESSION,), ()).initial == 0
    assert Rejection("Unbounded", judgment(), "why").depth == 0
    assert BoundednessVerdict(True) == BoundednessVerdict(True, None, None)
    assert LivenessVerdict("lock-freedom", frozenset(), True) == LivenessVerdict(
        "lock-freedom", frozenset(), True, None, None, None, None, None
    )
    d = Derivation("End", judgment())
    assert (d.premises, d.branch_labels, d.discharged) == ((), (), frozenset())
    assert PSetPattern() == PSetPattern(frozenset(), ())
    assert SuiteReport().combos == [] and SuiteReport().combos is not SuiteReport().combos


def test_hashes():
    assert hash(TypeVar(7)) == hash(7) and hash(PSetVar(7)) == hash(7)
    assert hash(CommLabel("p", "a", "q")) == hash(("p", "a", "q"))
    assert hash(ProcEnd()) == hash(())
    assert hash(Span(3, 4)) == hash((3, 4))


def test_ordering():
    labels = [CommLabel("q", "a", "p"), CommLabel("p", "b", "q"), CommLabel("p", "a", "r"), CommLabel("p", "a", "q")]
    assert sorted(labels) == [labels[3], labels[2], labels[1], labels[0]]
    assert CommLabel("p", "a", "q") <= CommLabel("p", "a", "q") < CommLabel("p", "b", "q")
    assert CommLabel("q", "a", "p") >= CommLabel("p", "b", "q") > CommLabel("p", "a", "q")
    assert sorted([TypeVar(2), TypeVar(0), TypeVar(1)]) == [TypeVar(0), TypeVar(1), TypeVar(2)]
    assert sorted([PSetVar(2), PSetVar(0)]) == [PSetVar(0), PSetVar(2)]
    with pytest.raises(TypeError):
        TypeVar(1) < PSetVar(2)
    with pytest.raises(TypeError):
        ProcRef("a") < ProcRef("b")


def test_a_self_send_is_no_label():
    with pytest.raises(ValueError, match="sender and receiver must differ"):
        CommLabel("p", "a", "p")
    with pytest.raises(ValueError):
        CommLabel(sender="p", message="a", receiver="p")
