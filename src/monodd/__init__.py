"""Monotone overlapping domain-decomposition solver for nonlinear
integro-parabolic equations with Volterra memory terms."""

from .discretization import (
    Field,
    Grid1D,
    Subrange,
    WindowOperator,
    build_grid,
    build_window_operator,
    m_matrix_check,
    march_window,
    refactor_window_operator,
    sample_field,
)
from .iteration import (
    BracketError,
    ConvergenceHistory,
    Decomposition,
    IterationState,
    MonotoneChainError,
    OrderStudyResult,
    Solution,
    default_decomposition,
    init_state,
    order_study,
    run_dd,
    run_single_domain,
)
from .model import (
    BoundaryCondition,
    Bracket,
    CatalogError,
    EllipticCoefficients,
    ProblemSpec,
    Reaction,
    SpaceTimeDomain,
    VolterraKernel,
    catalog_lookup,
    catalog_names,
    validate_problem,
)
from .verify import ResidualReport, check_bracket, check_monotone_chain
from .volterra import (
    Past,
    StabilizerField,
    compute_stabilizers,
    eval_F1_field,
    eval_g_field,
    eval_g_row,
    refresh_stabilizers,
)

__all__ = [name for name in dir() if not name.startswith("_")]
