"""Monotone overlapping domain-decomposition solver for nonlinear
integro-parabolic equations with Volterra memory terms."""

from .discretization import (
    Field,
    Grid1D,
    Subrange,
    TridiagonalSystem,
    WindowOperator,
    build_grid,
    build_window_operator,
    m_matrix_check,
    march_window,
    refactor_window_operator,
    sample_field,
    set_mmatrix_audit,
    solve_linear_parabolic,
    thomas_solve,
)
from .iteration import (
    BracketError,
    ConvergenceHistory,
    Decomposition,
    IterationState,
    MonotoneChainError,
    Solution,
    dd_sweep,
    init_state,
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
from .verify import (
    OrderStudyResult,
    ResidualReport,
    check_bracket,
    check_monotone_chain,
    default_decomposition,
    order_study,
)
from .volterra import (
    StabilizerField,
    compute_stabilizers,
    eval_F1,
    eval_F1_field,
    eval_g,
    eval_g_field,
    eval_g_row,
    refresh_stabilizers,
)

__all__ = [name for name in dir() if not name.startswith("_")]
