"""Theta-scheme finite difference solver on the interval.

Completely independent of the spectral machinery: second-order three-point
Laplacian on a uniform grid, Dirichlet values injected through the matrix
rows next to the boundary, implicit part solved with a banded factorization.
Used as a cross-check oracle for the spectral solver, never as the primary
path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import InvalidSpecError, _check_horizon


class CflViolationError(RuntimeError):
    """Raised when an under-implicit scheme is run past its stability step."""


@dataclass(frozen=True)
class FdScheme:
    """theta = 0 explicit, 0.5 Crank-Nicolson, 1 fully implicit."""

    theta: float = 0.5
    m_interior: int = 127

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise InvalidSpecError("theta must lie in [0, 1]")
        if self.m_interior < 3:
            raise InvalidSpecError("need at least three interior points")

    def max_stable_dt(self, dx: float) -> float:
        if self.theta >= 0.5:
            return np.inf
        return dx * dx / (2.0 * (1.0 - 2.0 * self.theta))


@dataclass
class FdResult:
    x: np.ndarray          # full grid including both endpoints
    times: np.ndarray
    u_final: np.ndarray    # samples on the full grid at the final time


def fd_solve(
    u0,
    source,
    g,
    length: float,
    t_final: float,
    n_steps: int,
    scheme: FdScheme | None = None,
) -> FdResult:
    """March the heat equation u' = u_xx + f with Dirichlet data g.

    `u0` is an array of samples on the full grid, the m_interior + 2
    points of np.linspace(0, length, m_interior + 2) with both endpoints;
    `source` is None or a callable (x_interior, t) -> values; `g` is None
    for homogeneous data or an object with .sample(ts) -> (n, 2) endpoint
    values.
    """
    from scipy.linalg import solve_banded  # deferred: only the oracle needs scipy

    scheme = scheme or FdScheme()
    _check_horizon(t_final)
    if length <= 0 or n_steps < 1:
        raise InvalidSpecError("need a positive length and step count")
    m = scheme.m_interior
    x = np.linspace(0.0, length, m + 2)
    xin = x[1:-1]
    dx = x[1] - x[0]
    dt = t_final / n_steps
    if dt > scheme.max_stable_dt(dx) * (1.0 + 1e-12):
        raise CflViolationError(
            f"dt = {dt:.3e} exceeds the stability bound {scheme.max_stable_dt(dx):.3e}"
        )
    mu = dt / (dx * dx)
    theta = scheme.theta

    u_full = np.array(u0, dtype=float)
    if u_full.shape != x.shape:
        raise InvalidSpecError("initial samples must live on the full grid")
    u = u_full[1:-1].copy()

    times = np.linspace(0.0, t_final, n_steps + 1)
    gvals = g.sample(times) if g is not None else np.zeros((n_steps + 1, 2))

    # constant banded LHS: (I - theta dt Lap)
    ab = np.zeros((3, m))
    ab[0, 1:] = -theta * mu
    ab[1, :] = 1.0 + 2.0 * theta * mu
    ab[2, :-1] = -theta * mu

    def lap(v, gl, gr):
        out = np.empty_like(v)
        out[0] = (gl - 2.0 * v[0] + v[1]) / (dx * dx)
        out[-1] = (v[-2] - 2.0 * v[-1] + gr) / (dx * dx)
        if m > 2:
            out[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / (dx * dx)
        return out

    for n in range(n_steps):
        gl0, gr0 = gvals[n]
        gl1, gr1 = gvals[n + 1]
        rhs = u + (1.0 - theta) * dt * lap(u, gl0, gr0)
        # implicit boundary injection lives on the RHS of the banded solve
        rhs[0] += theta * mu * gl1
        rhs[-1] += theta * mu * gr1
        if source is not None:
            f0 = np.asarray(source(xin, times[n]), dtype=float)
            f1 = np.asarray(source(xin, times[n + 1]), dtype=float)
            rhs += dt * ((1.0 - theta) * f0 + theta * f1)
        if theta == 0.0:
            u = rhs
        else:
            u = solve_banded((1, 1), ab, rhs)

    u_final = np.empty(m + 2)
    u_final[0], u_final[-1] = gvals[-1]
    u_final[1:-1] = u
    return FdResult(x, times, u_final)
