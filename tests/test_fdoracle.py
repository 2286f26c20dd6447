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
            fd_solve(np.sin(full_grid()), None, None, 0.0, 1.0, 10)

    def test_bad_horizon(self):
        for T in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(InvalidSpecError, match="horizon"):
                fd_solve(np.sin(full_grid()), None, None, np.pi, T, 10)

    def test_bad_step_count(self):
        with pytest.raises(InvalidSpecError):
            fd_solve(np.sin(full_grid()), None, None, np.pi, 1.0, 0)

    def test_u0_array_wrong_shape(self):
        sch = FdScheme(m_interior=15)
        with pytest.raises(InvalidSpecError):
            fd_solve(np.zeros(10), None, None, np.pi, 1.0, 4, sch)

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
        res = fd_solve(np.sin(full_grid()), None, None, np.pi, 1.0, 400)
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
