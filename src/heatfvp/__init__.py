"""Spectral solver for heat-type equations run forward and backward.

Forward Cauchy and initial-boundary value problems on an interval in the
Dirichlet eigenbasis; backward final value problems through exact mode-wise
inversion guarded by a compatibility heuristic; graph norms of the
admissible data space; and a dense-matrix lab for the semigroup properties
the construction rests on.
"""

from .boundary import (
    BoundaryData,
    BoundarySplit,
    HarmonicLift,
    LiftPath,
    SweepReport,
    YNormReport,
    boundary_split,
    boundary_yield,
    boundary_yield_sweep,
    check_final_data,
    data_norm_inhom,
    flow_identity_residual,
    harmonic_lift,
    solution_norm_h1,
    solve_final_value_inhom,
    solve_ibvp,
    trace_norm_surrogate,
)
from .duhamel import (
    EnergyReport,
    SourceTerm,
    Trajectory,
    check_energy_estimate,
    solution_norm,
    solve_cauchy,
    source_yield,
    squared_source_dual_norm,
)
from .fdoracle import CflViolationError, FdResult, FdScheme, fd_solve
from .fvp import (
    FinalValueData,
    FvpSolution,
    IncompatibleDataError,
    InconclusiveDataError,
    instability_table,
    solve_final_value,
)
from .generator import (
    ChainReport,
    ConvexityReport,
    GeneratorReport,
    MatrixGenerator,
    SectorReport,
    check_decay,
    check_injectivity,
    check_logconvexity_criterion,
    check_sectoriality,
    exp_semigroup,
    inverse_chain_demo,
    parse_matrix,
    random_elliptic,
    random_selfadjoint,
)
from .logspace import LOG_MAX, log_sum_exp, logspace_add, merge_phase, split_phase
from .semigroup import (
    CompatReport,
    MembershipPolicy,
    apply_forward,
    apply_inverse,
    check_domain_membership,
)
from .spectral import (
    DomainSpec,
    EigenBasis,
    InvalidSpecError,
    SpectralVec,
    TripleNorms,
    analyze,
    build_basis,
    norm_h,
    project_samples,
    rel_distance,
    synthesize,
    triple_norms,
    uniform_samples,
    vec_from_json,
    vec_to_json,
)

__version__ = "0.1.0"
