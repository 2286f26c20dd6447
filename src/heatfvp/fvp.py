"""Backward solve: recover the full trajectory from final data (f, u_T).

This is the final value problem without a boundary term.  It runs the one
backward pipeline of the boundary module with g=None: the difference
v = u_T - (source yield) is formed once and probed for membership in the
domain of the backward flow with the truncation-stabilization heuristic; on
a `compatible` verdict the initial state comes from that report and the
forward solver replays the trajectory (`duhamel.solve_cauchy`), which
must land back on u_T.  The replay joins e^{-tA} u(0) with the rows of the
march that gave the source yield, so a solve on the source's own grid (the
default) marches once.  The data norm of (f, u_T) is
`boundary.data_norm_inhom(f, None, u_T, T, policy)`, built from the same v
and report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boundary import FvpSolution, _backward_solve, _validate_final_data
from .duhamel import SourceTerm
from .logspace import InvalidSpecError
# the refusal error is re-exported here, beside the solver that raises it
from .semigroup import IncompatibleDataError
from .spectral import EigenBasis, SpectralVec, _check_horizon


@dataclass
class FinalValueData:
    """Final-time observation u_T with the driving source on [0, T]."""

    f: SourceTerm | None
    u_T: SpectralVec
    T: float

    def __post_init__(self):
        _validate_final_data(self.f, None, self.u_T, self.T)


def solve_final_value(data: FinalValueData) -> FvpSolution:
    """Solve the final value problem when the data admit it, with the
    default membership policy, on the default grid.

    Raises IncompatibleDataError / InconclusiveDataError with the attached
    CompatReport otherwise.  `boundary.solve_final_value_inhom(f, None, u_T,
    T, policy, tgrid=tgrid)` is the same solve with both chosen.
    """
    return _backward_solve(data.f, None, data.u_T, data.T, None, None)


# -- conditioning demonstration ------------------------------------------

@dataclass(frozen=True)
class InstabilityRow:
    j: int
    lam: float
    final_norm: float
    log_initial_norm: float


def instability_table(basis: EigenBasis, T: float, jmax: int) -> list:
    """Per-mode backward amplification: data of unit size at the final time
    require an initial state of size e^{T*lambda_j}.

    The unit vector e_j has norm 1, and the inverse flow scales it by
    e^{T*lambda_j} exactly, so each row is read off the spectrum; the rows
    equal those of `apply_inverse` on each e_j bit for bit.  A horizon the
    basis refuses (2 T lambda_N past float64 range) is an error, so no row
    reads inf.
    """
    if not 1 <= jmax <= basis.n_modes:
        raise InvalidSpecError("jmax outside 1..n_modes")
    _check_horizon(T, basis)
    T = float(T)
    return [InstabilityRow(j, lam, 1.0, T * lam) for j, lam in enumerate(basis.lambdas[:jmax].tolist(), start=1)]
