"""Backward solve from final data, graph norm of the data, conditioning table."""

import json

import numpy as np
import pytest

from heatfvp.duhamel import SourceTerm, solve_cauchy, source_yield
from heatfvp.fvp import (
    FinalValueData,
    IncompatibleDataError,
    InconclusiveDataError,
    data_norm,
    instability_csv,
    instability_table,
    solve_final_value,
    theoretical_stability_constant,
)
from heatfvp.spectral import DomainSpec, InvalidSpecError, SpectralVec, build_basis


def smooth_data(basis, T=1.0, seed=0):
    """Manufactured solvable data: evolve a known smooth state forward."""
    rng = np.random.default_rng(seed)
    jj = np.arange(1, basis.n_modes + 1)
    u0c = rng.choice([-1.0, 1.0], basis.n_modes) * np.exp(-jj)
    fc = rng.choice([-1.0, 1.0], basis.n_modes) * np.exp(-1.2 * T * basis.lambdas)
    u0 = SpectralVec.from_coefficients(basis, u0c)
    f = SourceTerm(basis, np.array([0.0, T]), np.vstack([fc, 0.5 * fc]))
    traj = solve_cauchy(u0, f, np.array([0.0, T]))
    return u0, FinalValueData(f, traj.final_state, T)


class TestFinalValueData:
    def test_horizon_must_be_positive(self, basis16):
        for T in (0.0, np.nan, np.inf):
            with pytest.raises(InvalidSpecError):
                FinalValueData(None, SpectralVec.zero(basis16), T)

    def test_source_must_cover_horizon(self, basis16):
        f = SourceTerm.zero(basis16, 0.5)
        with pytest.raises(InvalidSpecError):
            FinalValueData(f, SpectralVec.zero(basis16), 1.0)

    def test_basis_mismatch(self, basis16, basis64):
        f = SourceTerm.zero(basis16, 1.0)
        with pytest.raises(InvalidSpecError):
            FinalValueData(f, SpectralVec.zero(basis64), 1.0)


class TestDataNorm:
    def test_single_decayed_mode(self, basis64):
        # u_T = e^{-1} e_1, T = 1: parts are (e^{-2}, 0, 1)
        uT = SpectralVec.from_coefficients(basis64, np.exp(-1.0) * np.eye(64)[0])
        rep = data_norm(FinalValueData(None, uT, 1.0))
        assert rep.uT_sq == pytest.approx(np.exp(-2.0), rel=1e-12)
        assert rep.source_sq == 0.0
        assert rep.log_backward_sq == pytest.approx(0.0, abs=1e-12)
        assert rep.total == pytest.approx(np.sqrt(1.0 + np.exp(-2.0)), rel=1e-12)
        assert rep.finite

    def test_source_only_data(self, basis64):
        # u_T equals the source yield, so the backward part vanishes
        fc = np.eye(64)[0]
        f = SourceTerm(basis64, np.array([0.0, 1.0]), np.vstack([fc, fc]))
        uT = source_yield(f)
        rep = data_norm(FinalValueData(f, uT, 1.0))
        assert rep.log_backward_sq == -np.inf
        assert rep.source_sq == pytest.approx(1.0, rel=1e-14)
        want = np.sqrt((1 - np.exp(-1.0)) ** 2 + 1.0)
        assert rep.total == pytest.approx(want, rel=1e-12)
        assert rep.finite

    def test_zero_data(self, basis64):
        rep = data_norm(FinalValueData(None, SpectralVec.zero(basis64), 1.0))
        assert rep.total == 0.0
        assert rep.log_total == -np.inf
        assert rep.finite

    def test_rough_data_is_flagged_infinite(self, basis64):
        jj = np.arange(1, 65)
        uT = SpectralVec.from_coefficients(basis64, 1.0 / jj)
        rep = data_norm(FinalValueData(None, uT, 1.0))
        assert not rep.finite
        assert rep.log_backward_sq > 1000.0

    def test_json_round_trip(self, basis64):
        rep = data_norm(FinalValueData(None, SpectralVec.zero(basis64), 1.0))
        d = json.loads(rep.to_json())
        assert set(d) == {"uT_sq", "source_sq", "log_backward_sq", "log_total", "finite"}
        assert d["log_total"] == "-inf"
        assert d["finite"] is True


class TestSolveFinalValue:
    def test_round_trip_recovers_initial_state(self, basis64):
        u0, data = smooth_data(basis64)
        sol = solve_final_value(data)
        assert sol.compat.verdict == "compatible"
        assert sol.endpoint_rel_error <= 1e-9
        got = sol.trajectory.initial_state.coefficients
        assert np.allclose(got, u0.coefficients, rtol=1e-9, atol=1e-300)
        assert sol.ynorm.finite

    def test_default_grid_is_source_grid(self, basis64):
        _, data = smooth_data(basis64, seed=3)
        sol = solve_final_value(data)
        assert np.array_equal(sol.trajectory.times, data.f.times)

    def test_decay_only_round_trip(self, basis64):
        jj = np.arange(1, 65)
        u0 = SpectralVec.from_coefficients(basis64, np.exp(-jj))
        traj = solve_cauchy(u0, None, np.array([0.0, 1.0]))
        sol = solve_final_value(FinalValueData(None, traj.final_state, 1.0))
        assert sol.endpoint_rel_error <= 1e-12
        assert np.allclose(sol.trajectory.initial_state.coefficients, u0.coefficients, rtol=1e-11, atol=0)

    def test_incompatible_raises(self, basis64):
        jj = np.arange(1, 65)
        uT = SpectralVec.from_coefficients(basis64, 1.0 / jj)
        with pytest.raises(IncompatibleDataError) as err:
            solve_final_value(FinalValueData(None, uT, 1.0))
        assert err.value.report.verdict == "incompatible"

    def test_inconclusive_raises_subclass(self, basis64):
        jj = np.arange(1, 65)
        uT = SpectralVec.from_coefficients(basis64, np.exp(-basis64.lambdas) / jj)
        with pytest.raises(InconclusiveDataError) as err:
            solve_final_value(FinalValueData(None, uT, 1.0))
        assert err.value.report.verdict == "inconclusive"
        assert isinstance(err.value, IncompatibleDataError)


class TestInstabilityTable:
    def test_log_column_is_T_lambda(self, basis64):
        rows = instability_table(basis64, 1.0, 30)
        assert len(rows) == 30
        for r in rows:
            assert r.final_norm == 1.0
            assert r.log_initial_norm == pytest.approx(1.0 * r.lam, rel=1e-12)
            assert r.lam == pytest.approx(float(r.j) ** 2, rel=1e-14)

    def test_horizon_scaling(self, basis16):
        rows = instability_table(basis16, 2.5, 5)
        for r in rows:
            assert r.log_initial_norm == pytest.approx(2.5 * r.lam, rel=1e-12)

    def test_validation(self, basis16):
        with pytest.raises(InvalidSpecError):
            instability_table(basis16, 1.0, 0)
        with pytest.raises(InvalidSpecError):
            instability_table(basis16, 1.0, 17)
        with pytest.raises(InvalidSpecError):
            instability_table(basis16, -1.0, 4)

    def test_csv_parses_back(self, basis16):
        rows = instability_table(basis16, 1.0, 8)
        lines = instability_csv(rows).strip().splitlines()
        assert lines[0] == "j,lambda,final_norm,log_initial_norm"
        assert len(lines) == 9
        got = [float(x) for x in lines[3].split(",")]
        assert got == pytest.approx([3.0, 9.0, 1.0, 9.0], rel=1e-13)


class TestStabilityConstant:
    def test_unit_constants_horizon_one(self, basis16):
        # C1..C4 all equal 1 here: K = 8, c = sqrt(12)
        assert theoretical_stability_constant(basis16, 1.0) == pytest.approx(np.sqrt(12.0), rel=1e-14)

    def test_shorter_horizon_grows(self, basis16):
        assert theoretical_stability_constant(basis16, 0.5) == pytest.approx(np.sqrt(13.0), rel=1e-14)

    def test_wide_interval(self):
        basis = build_basis(DomainSpec("interval", (2 * np.pi,), 8))
        # C1 = 2, C2 = 4: K = 2 + 16/4 + 16 + 4 = 26, c = sqrt(30)
        assert theoretical_stability_constant(basis, 1.0) == pytest.approx(np.sqrt(30.0), rel=1e-14)
