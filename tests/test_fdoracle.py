"""Tests for the finite-difference reference solver."""

import numpy as np
import pytest

from heatfvp.boundary import BoundaryData
from heatfvp.fdoracle import CflViolationError, FdScheme, fd_solve
from heatfvp.spectral import InvalidSpecError


def full_grid(m_interior=127, length=np.pi):
    """The m_interior + 2 points fd_solve marches on, endpoints included."""
    return np.linspace(0.0, length, m_interior + 2)


class TestScheme:
    def test_defaults(self):
        sch = FdScheme()
        assert sch.theta == 0.5
        assert sch.m_interior == 127

    def test_theta_bounds(self):
        with pytest.raises(InvalidSpecError):
            FdScheme(theta=-0.1)
        with pytest.raises(InvalidSpecError):
            FdScheme(theta=1.1)

    def test_m_interior_too_small(self):
        with pytest.raises(InvalidSpecError):
            FdScheme(m_interior=2)

    def test_max_stable_dt(self):
        dx = 0.1
        assert FdScheme(theta=0.0).max_stable_dt(dx) == pytest.approx(
            dx * dx / 2.0, rel=1e-15
        )
        # theta = 1/4 halves the allowance relative to explicit
        assert FdScheme(theta=0.25).max_stable_dt(dx) == pytest.approx(
            dx * dx, rel=1e-15
        )
        assert FdScheme(theta=0.5).max_stable_dt(dx) == np.inf
        assert FdScheme(theta=1.0).max_stable_dt(dx) == np.inf


class TestValidation:
    def test_bad_length(self):
        with pytest.raises(InvalidSpecError):
            fd_solve(np.sin(full_grid()), None, None, 0.0, 1.0, 10, FdScheme())

    def test_bad_horizon(self):
        for T in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(InvalidSpecError, match="horizon"):
                fd_solve(np.sin(full_grid()), None, None, np.pi, T, 10, FdScheme())

    def test_bad_step_count(self):
        with pytest.raises(InvalidSpecError):
            fd_solve(np.sin(full_grid()), None, None, np.pi, 1.0, 0, FdScheme())

    def test_u0_array_wrong_shape(self):
        sch = FdScheme(m_interior=15)
        with pytest.raises(InvalidSpecError):
            fd_solve(np.zeros(10), None, None, np.pi, 1.0, 4, sch)
        # complex samples or source values are refused, not cast to their real parts
        with pytest.raises(InvalidSpecError, match="imaginary"):
            fd_solve(np.full(17, 1j), None, None, np.pi, 1.0, 4, sch)
        with pytest.raises(InvalidSpecError, match="imaginary"):
            fd_solve(np.zeros(17), lambda x, t: np.full(x.size, 1j), None, np.pi, 1.0, 4, sch)

    def test_u0_array_right_shape_accepted(self):
        sch = FdScheme(m_interior=15)
        res = fd_solve(np.sin(full_grid(15)), None, None, np.pi, 0.1, 8, sch)
        assert res.u_final.shape == (17,)

    def test_cfl_violation_raises(self):
        # dx = pi/32, explicit bound dx^2/2 ~ 4.82e-3; dt = 0.5/103 exceeds it
        sch = FdScheme(theta=0.0, m_interior=31)
        with pytest.raises(CflViolationError):
            fd_solve(np.sin(full_grid(31)), None, None, np.pi, 0.5, 103, sch)
        # one more step brings dt under the bound
        fd_solve(np.sin(full_grid(31)), None, None, np.pi, 0.5, 104, sch)


class TestResultLayout:
    def test_grid_and_dx(self):
        sch = FdScheme(m_interior=31)
        res = fd_solve(np.sin(full_grid(31)), None, None, np.pi, 0.5, 8, sch)
        assert res.x.shape == (33,)
        assert res.x[0] == 0.0
        assert res.x[-1] == pytest.approx(np.pi, rel=1e-15)
        np.testing.assert_allclose(np.diff(res.x), np.pi / 32, rtol=1e-14)
        assert res.times.shape == (9,)
        assert res.times[-1] == pytest.approx(0.5, rel=1e-15)

    def test_final_endpoints_match_boundary_data(self):
        g = BoundaryData(
            np.array([0.0, 1.0]), np.array([[0.0, 0.0], [0.7, -0.4]])
        )
        res = fd_solve(np.zeros(33), None, g, np.pi, 1.0, 16,
                       FdScheme(m_interior=31))
        assert res.u_final[0] == pytest.approx(0.7, rel=1e-15)
        assert res.u_final[-1] == pytest.approx(-0.4, rel=1e-15)


class TestAccuracy:
    def test_single_mode_decay(self):
        res = fd_solve(np.sin(full_grid()), None, None, np.pi, 1.0, 400, FdScheme())
        err = np.max(np.abs(res.u_final - np.exp(-1.0) * np.sin(res.x)))
        assert err < 1e-4

    def test_second_order_refinement(self):
        def sin_err(m, n):
            r = fd_solve(np.sin(full_grid(m)), None, None, np.pi, 0.5, n,
                         FdScheme(0.5, m))
            return np.max(np.abs(r.u_final - np.exp(-0.5) * np.sin(r.x)))

        e1 = sin_err(31, 16)
        e2 = sin_err(63, 32)
        assert e2 < e1
        assert e1 / e2 > 3.5

    def test_implicit_euler_first_order(self):
        res = fd_solve(np.sin(full_grid()), None, None, np.pi, 1.0, 8,
                       FdScheme(theta=1.0))
        err = np.max(np.abs(res.u_final - np.exp(-1.0) * np.sin(res.x)))
        # large-step backward Euler: visibly worse than trapezoid but stable
        assert 1e-3 < err < 0.05


class TestManufactured:
    def test_affine_in_space_linear_in_time_exact(self):
        # u = (1+t) x/L solves the problem with f = x/L and matching
        # boundary ramps; affine states and linear ramps are reproduced
        # without truncation error, so only rounding remains
        T = 0.5
        g = BoundaryData(np.array([0.0, T]),
                         np.array([[0.0, 1.0], [0.0, 1.0 + T]]))
        res = fd_solve(full_grid(31) / np.pi, lambda xi, t: xi / np.pi,
                       g, np.pi, T, 16, FdScheme(0.5, 31))
        want = (1 + T) * res.x / np.pi
        np.testing.assert_allclose(res.u_final, want, atol=1e-12)

    def test_affine_exact_on_explicit_path(self):
        T = 0.5
        g = BoundaryData(np.array([0.0, T]),
                         np.array([[0.0, 1.0], [0.0, 1.0 + T]]))
        res = fd_solve(full_grid(31) / np.pi, lambda xi, t: xi / np.pi,
                       g, np.pi, T, 128, FdScheme(0.0, 31))
        want = (1 + T) * res.x / np.pi
        np.testing.assert_allclose(res.u_final, want, atol=1e-12)

    def test_stationary_state_preserved(self):
        g = BoundaryData.constant(1.0, 1.0, 1.0)
        res = fd_solve(np.ones(65), None, g, np.pi, 1.0, 8,
                       FdScheme(0.5, 63))
        np.testing.assert_allclose(res.u_final, 1.0, atol=1e-12)

    def test_approach_to_steady_state(self):
        g = BoundaryData.constant(1.0, 1.0, 6.0)
        res = fd_solve(np.zeros(65), None, g, np.pi, 6.0, 96,
                       FdScheme(0.5, 63))
        assert np.max(np.abs(res.u_final - 1.0)) < 5e-3


def _banded_reference(u0, source, g, length, t_final, n_steps, scheme):
    """The theta-scheme as a banded solve per step: the three-point
    Laplacian with the Dirichlet values injected into the rows next to the
    boundary, and the source sampled at both ends of every step."""
    solve_banded = pytest.importorskip("scipy.linalg").solve_banded

    m, theta = scheme.m_interior, scheme.theta
    x = np.linspace(0.0, length, m + 2)
    dx = x[1] - x[0]
    dt = t_final / n_steps
    mu = dt / (dx * dx)
    times = np.linspace(0.0, t_final, n_steps + 1)
    gvals = g.sample(times) if g is not None else np.zeros((n_steps + 1, 2))
    ab = np.zeros((3, m))
    ab[0, 1:] = -theta * mu
    ab[1, :] = 1.0 + 2.0 * theta * mu
    ab[2, :-1] = -theta * mu
    u = np.array(u0, dtype=float)[1:-1]
    for n in range(n_steps):
        padded = np.concatenate([gvals[n, :1], u, gvals[n, 1:]])
        rhs = u + (1.0 - theta) * mu * (padded[:-2] - 2.0 * u + padded[2:])
        rhs[0] += theta * mu * gvals[n + 1, 0]
        rhs[-1] += theta * mu * gvals[n + 1, 1]
        if source is not None:
            rhs += dt * ((1.0 - theta) * source(x[1:-1], times[n]) + theta * source(x[1:-1], times[n + 1]))
        u = rhs if theta == 0.0 else solve_banded((1, 1), ab, rhs)
    return np.concatenate([gvals[-1, :1], u, gvals[-1, 1:]])


def _ramp(T, left=(0.0, 0.7), right=(0.0, -0.4)):
    return BoundaryData(np.array([0.0, T]), np.array([[left[0], right[0]], [left[1], right[1]]]))


# (u0 samples, source, boundary data, length, T, steps, m) of the cases above
ORACLE_CASES = {
    "single-mode": (np.sin(full_grid(31)), None, None, np.pi, 1.0, 40, 31),
    "ramped-zero-start": (np.zeros(33), None, _ramp(1.0), np.pi, 1.0, 16, 31),
    "affine-manufactured": (full_grid(31) / np.pi, lambda xi, t: xi / np.pi,
                            BoundaryData(np.array([0.0, 0.5]), np.array([[0.0, 1.0], [0.0, 1.5]])),
                            np.pi, 0.5, 16, 31),
    "stationary": (np.ones(65), None, BoundaryData.constant(1.0, 1.0, 1.0), np.pi, 1.0, 8, 63),
    "steady-approach": (np.zeros(65), None, BoundaryData.constant(1.0, 1.0, 6.0), np.pi, 6.0, 96, 63),
    "rough-source": (np.cos(3.0 * full_grid(15, 2.5)), lambda xi, t: np.exp(-t) * np.sign(xi - 1.2),
                     _ramp(0.3, (0.2, -1.0), (0.5, 0.9)), 2.5, 0.3, 12, 15),
}


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_dst_path_matches_the_banded_solve(name, theta):
    u0, source, g, length, T, steps, m = ORACLE_CASES[name]
    scheme = FdScheme(theta, m)
    if theta < 0.5:
        # the explicit scheme needs dt under its CFL bound
        steps = max(steps, int(np.ceil(T / scheme.max_stable_dt(length / (m + 1)))) + 1)
    got = fd_solve(u0, source, g, length, T, steps, scheme).u_final
    want = _banded_reference(u0, source, g, length, T, steps, scheme)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_dst_path_matches_a_40_digit_theta_scheme(theta):
    """The same theta-scheme on the same float inputs, marched in 40-digit
    arithmetic with a tridiagonal elimination per step."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    m, steps, length, T = 9, 6, 2.0, 0.05
    x = np.linspace(0.0, length, m + 2)
    u0 = np.exp(-x) * np.sin(2.0 * x)
    u0[0], u0[-1] = 0.3, -0.6
    g = _ramp(T, (0.3, 1.1), (-0.6, 0.2))

    def source(xi, t):
        return (1.0 + t) * np.cos(xi)

    scheme = FdScheme(theta, m)
    got = fd_solve(u0, source, g, length, T, steps, scheme).u_final

    times = np.linspace(0.0, T, steps + 1)
    gv = [[mp.mpf(v) for v in row] for row in g.sample(times)]
    fv = [[mp.mpf(v) for v in source(x[1:-1], t)] for t in times]
    dx = mp.mpf(x[1] - x[0])
    dt = mp.mpf(T) / steps
    th = mp.mpf(theta)
    r = dt / (dx * dx)
    u = [mp.mpf(v) for v in u0[1:-1]]
    for n in range(steps):
        full = [gv[n][0], *u, gv[n][1]]
        rhs = [u[i] + (1 - th) * r * (full[i] - 2 * full[i + 1] + full[i + 2])
               + dt * ((1 - th) * fv[n][i] + th * fv[n + 1][i]) for i in range(m)]
        rhs[0] += th * r * gv[n + 1][0]
        rhs[-1] += th * r * gv[n + 1][1]
        # Thomas elimination of (1 + 2 th r) on the diagonal, -th r beside it
        diag, off = 1 + 2 * th * r, -th * r
        c, d = [mp.mpf(0)] * m, [mp.mpf(0)] * m
        for i in range(m):
            denom = diag - (off * c[i - 1] if i else 0)
            c[i] = off / denom
            d[i] = (rhs[i] - (off * d[i - 1] if i else 0)) / denom
        for i in range(m - 2, -1, -1):
            d[i] -= c[i] * d[i + 1]
        u = d
    want = np.array([float(v) for v in [gv[-1][0], *u, gv[-1][1]]])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_source_is_called_once_per_time_node():
    seen = []

    def source(xi, t):
        seen.append(t)
        return np.zeros_like(xi)

    res = fd_solve(np.sin(full_grid(15)), source, None, np.pi, 0.5, 8, FdScheme(0.5, 15))
    np.testing.assert_array_equal(seen, res.times)
