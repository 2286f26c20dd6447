"""Theta-scheme finite difference solver on the interval.

The oracle's discretization is its own: the second-order three-point
Laplacian on a uniform grid, its finite-difference eigenvalues and the
theta-scheme in time, with Dirichlet values entering through the rows next
to the boundary.  It shares only the DST-I with the spectral machinery:
that transform diagonalizes the three-point Dirichlet Laplacian exactly, so
each time step is a scalar recurrence per grid mode.  Used as a cross-check
oracle for the spectral solver, never as the primary path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .logspace import _real
from .spectral import InvalidSpecError, _check_horizon, _dst1


class CflViolationError(InvalidSpecError):
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


@np.errstate(over="ignore", invalid="ignore")  # data past float64 range leave inf or NaN in the samples, refused
def fd_solve(
    u0,
    source,
    g,
    length: float,
    t_final: float,
    n_steps: int,
    scheme: FdScheme,
) -> FdResult:
    """March the heat equation u' = u_xx + f with Dirichlet data g.

    `u0` is an array of samples on the full grid, the m_interior + 2
    points of np.linspace(0, length, m_interior + 2) with both endpoints;
    `source` is None or a callable (x_interior, t) -> values, called once
    per time node; `g` is None for homogeneous data or an object with
    .sample(ts) -> (n, 2) endpoint values.

    The discrete affine lift of g is subtracted first.  The three-point
    Laplacian annihilates it, so the remainder solves the same scheme with
    homogeneous Dirichlet rows and the lift increments as a forcing; in the
    DST-I basis its Laplacian is diag(-mu_k), and the theta-scheme is
    w_k <- (1 - (1 - theta) dt mu_k) / (1 + theta dt mu_k) w_k + forcing_k.
    """
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
    theta = scheme.theta

    u_full = np.array(_real(u0, "initial samples"))
    if u_full.shape != x.shape:
        raise InvalidSpecError("initial samples must live on the full grid")

    times = np.linspace(0.0, t_final, n_steps + 1)
    gvals = g.sample(times) if g is not None else np.zeros((n_steps + 1, 2))
    # the lift at node n is gvals[n] @ shapes, so its increments need the
    # transforms of the two shapes only, not one per step
    ramp = np.arange(1, m + 1) / (m + 1)
    shapes = np.stack([1.0 - ramp, ramp])
    forcing = -np.diff(gvals, axis=0) @ _dst1(shapes)
    if source is not None:
        fvals = np.empty((n_steps + 1, m))
        for n, t in enumerate(times):
            fvals[n] = _real(source(xin, t), "source values")
        fhat = _dst1(fvals)
        forcing += dt * ((1.0 - theta) * fhat[:-1] + theta * fhat[1:])

    k = np.arange(1, m + 1)
    mu = (4.0 / (dx * dx)) * np.sin(k * (np.pi / (2 * (m + 1)))) ** 2
    implicit = 1.0 + theta * dt * mu
    gain = (1.0 - (1.0 - theta) * dt * mu) / implicit
    forcing /= implicit
    w = _dst1(u_full[1:-1] - gvals[0] @ shapes)
    for r in forcing:
        w = gain * w + r

    u_final = np.empty(m + 2)
    u_final[0], u_final[-1] = gvals[-1]
    u_final[1:-1] = _dst1(w) * (2.0 / (m + 1)) + gvals[-1] @ shapes
    if not np.all(np.isfinite(u_final)):
        raise InvalidSpecError("the finite-difference solution leaves floating-point range")
    return FdResult(x, times, u_final)
