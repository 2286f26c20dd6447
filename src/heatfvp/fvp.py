"""Backward solve: recover the full trajectory from final data (f, u_T).

This is the final value problem without a boundary term.  It runs the one
backward pipeline of the boundary module with g=None: the difference
v = u_T - (source yield) is formed once and probed for membership in the
domain of the backward flow with the truncation-stabilization heuristic; on
a `compatible` verdict the initial state comes from that report and the
forward solver replays the trajectory, which must land back on u_T.  The
data norm is built from the same v and report.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .boundary import FvpSolution, YNormReport, _backward_norm, _backward_solve, _validate_final_data
from .duhamel import SourceTerm
# the refusal errors are re-exported here, beside the solver that raises them
from .semigroup import IncompatibleDataError, InconclusiveDataError, MembershipPolicy
from .spectral import EigenBasis, InvalidSpecError, SpectralVec, _check_horizon


@dataclass
class FinalValueData:
    """Final-time observation u_T with the driving source on [0, T]."""

    f: SourceTerm | None
    u_T: SpectralVec
    T: float

    def __post_init__(self):
        _validate_final_data(self.f, None, self.u_T, self.T)

    @property
    def basis(self) -> EigenBasis:
        return self.u_T.basis


def data_norm(data: FinalValueData, policy: MembershipPolicy | None = None) -> YNormReport:
    """Graph norm of final data: (|u_T|^2 + int ||f||_*^2 + |u0|^2)^{1/2}."""
    return _backward_norm(data.f, None, data.u_T, data.T, policy)


def solve_final_value(
    data: FinalValueData,
    policy: MembershipPolicy | None = None,
    tgrid=None,
) -> FvpSolution:
    """Solve the final value problem when the data admit it.

    Raises IncompatibleDataError / InconclusiveDataError with the attached
    CompatReport otherwise.
    """
    return _backward_solve(data.f, None, data.u_T, data.T, policy, tgrid)


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


def instability_csv(rows) -> str:
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["j", "lambda", "final_norm", "log_initial_norm"])
    for r in rows:
        w.writerow([r.j, repr(r.lam), repr(r.final_norm), repr(r.log_initial_norm)])
    return out.getvalue()


def theoretical_stability_constant(basis: EigenBasis, T: float) -> float:
    """Explicit constant c with ||u||_X <= c ||(f, u_T)||_Y, assembled from
    the triple constants along the standard a-priori chain."""
    _check_horizon(T)
    K = 2.0 + basis.C2 ** 2 / (basis.C1 ** 2 * T) + basis.C2 ** 2 + 4.0 * basis.C3 ** 2
    return float(np.sqrt(K * max(1.0 / basis.C4, 1.0 / basis.C4 ** 2) + 4.0))
