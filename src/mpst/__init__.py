"""Multiparty sessions, global types, liveness analysis and type inference."""

from types import ModuleType as _ModuleType

from .analysis import (
    BoundednessVerdict,
    LivenessVerdict,
    bounded,
    depth,
    excluded_deadlock_free,
    excluded_lock_free,
    plays_global,
    top_partner,
)
from .frontend import (
    ParseError,
    SpecFile,
    format_global,
    format_process,
    format_session,
    parse,
)
from .semantics import (
    CommLabel,
    ExploreConfig,
    StateGraph,
    StateLimitExceeded,
    Trace,
    explore,
    global_successor,
    global_transitions,
    session_transitions,
)
from .terms import (
    GlobalGraph,
    ProcessGraph,
    Session,
    build_global_graph,
    build_process_graph,
    global_system,
    minimize,
    minimize_global,
    normalize_session,
    participants,
    process_system,
    session_of,
)
from .typecheck import (
    Derivation,
    Judgment,
    Rejection,
    accepts,
    typecheck,
)

# Loaded on first access (PEP 562): deciding a judgment or a property never imports inference.
_INFERENCE = frozenset(
    "BudgetExhausted InferenceOutcome NoSolutionWithinBudget SearchBudget Substitution enumerate_solutions infer"
    " infer_minimal render_outcome solutions solve_pset_equations solve_type_equations".split()
)
__all__ = sorted(
    {n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)} | _INFERENCE
)


def __getattr__(name: str):
    if name in _INFERENCE:
        from . import inference

        return getattr(inference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_INFERENCE})
