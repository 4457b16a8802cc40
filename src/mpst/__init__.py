"""Multiparty sessions, global types, liveness analysis and type inference."""

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
from .inference import (
    BudgetExhausted,
    InferenceOutcome,
    NoSolutionWithinBudget,
    SearchBudget,
    Substitution,
    check_agreement,
    enumerate_solutions,
    infer,
    infer_minimal,
    render_outcome,
    solutions,
    solve_pset_equations,
    solve_type_equations,
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
    ready_pairs,
    reduce,
    session_transitions,
)
from .terms import (
    GlobalGraph,
    ProcessGraph,
    Session,
    build_global_graph,
    build_process_graph,
    minimize,
    minimize_global,
    normalize_session,
    participants,
    session_of,
    sessions_equivalent,
)
from .typecheck import (
    Derivation,
    Judgment,
    Rejection,
    accepts,
    check_participant_equation,
    typecheck,
)
