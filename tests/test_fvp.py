"""Backward solve from final data, graph norm of the data, conditioning table."""

import json

import numpy as np
import pytest

from heatfvp.boundary import BoundaryData, data_norm_inhom, solve_final_value_inhom
from heatfvp.cli import cli
from heatfvp.duhamel import SourceTerm, solve_cauchy, source_yield
from heatfvp.fvp import FinalValueData, instability_table, solve_final_value
from heatfvp.logspace import InvalidSpecError, log_sum_exp
from heatfvp.semigroup import IncompatibleDataError, InconclusiveDataError, apply_inverse
from heatfvp.spectral import DomainSpec, SpectralVec, build_basis, json_payload, strict_json, triple_norms

from conftest import unit_state, zero_source


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
        f = zero_source(basis16, 0.5)
        with pytest.raises(InvalidSpecError):
            FinalValueData(f, SpectralVec.zero(basis16), 1.0)

    def test_basis_mismatch(self, basis16, basis64):
        f = zero_source(basis16, 1.0)
        with pytest.raises(InvalidSpecError):
            FinalValueData(f, SpectralVec.zero(basis64), 1.0)


class TestDataNorm:
    def test_single_decayed_mode(self, basis64):
        # u_T = e^{-1} e_1, T = 1: parts are (e^{-2}, 0, 1)
        uT = SpectralVec.from_coefficients(basis64, np.exp(-1.0) * np.eye(64)[0])
        rep = data_norm_inhom(None, None, uT, 1.0, policy=None)
        assert rep.uT_sq == pytest.approx(np.exp(-2.0), rel=1e-12)
        assert rep.source_sq == 0.0
        assert rep.log_backward_sq == pytest.approx(0.0, abs=1e-12)
        assert rep.total == pytest.approx(np.sqrt(1.0 + np.exp(-2.0)), rel=1e-12)
        assert rep.finite

    def test_source_only_data(self, basis64):
        # u_T equals the source yield, so the backward part vanishes
        fc = np.eye(64)[0]
        f = SourceTerm(basis64, np.array([0.0, 1.0]), np.vstack([fc, fc]))
        uT = source_yield(f, 1.0)
        rep = data_norm_inhom(f, None, uT, 1.0, policy=None)
        assert rep.log_backward_sq == -np.inf
        assert rep.source_sq == pytest.approx(1.0, rel=1e-14)
        want = np.sqrt((1 - np.exp(-1.0)) ** 2 + 1.0)
        assert rep.total == pytest.approx(want, rel=1e-12)
        assert rep.finite

    def test_zero_data(self, basis64):
        rep = data_norm_inhom(None, None, SpectralVec.zero(basis64), 1.0, policy=None)
        assert rep.total == 0.0
        assert rep.log_total == -np.inf
        assert rep.finite

    @pytest.mark.parametrize("with_g", [False, True])
    def test_huge_data_keep_a_finite_log_total(self, basis16, with_g):
        # |u_T|^2 overflows to inf; its log comes from 2 log |u_T|, so the
        # total's log stays finite and sums the same parts
        uT = SpectralVec.from_coefficients(basis16, np.full(16, 1e300))
        g = BoundaryData.constant(1.0, -1.0, 0.1) if with_g else None
        rep = data_norm_inhom(None, g, uT, 0.1, policy=None)
        assert rep.uT_sq == np.inf and np.isfinite(rep.log_backward_sq)
        parts = [2.0 * triple_norms(uT).log_normH]
        if with_g:
            parts.append(np.log(rep.trace_sq))
        want = 0.5 * log_sum_exp(parts + [-np.inf, rep.log_backward_sq])
        assert rep.log_total == want and np.isfinite(want)

    def test_rough_data_is_flagged_infinite(self, basis64):
        jj = np.arange(1, 65)
        uT = SpectralVec.from_coefficients(basis64, 1.0 / jj)
        rep = data_norm_inhom(None, None, uT, 1.0, policy=None)
        assert not rep.finite
        assert rep.log_backward_sq > 1000.0

    def test_json_round_trip(self, basis64):
        rep = data_norm_inhom(None, None, SpectralVec.zero(basis64), 1.0, policy=None)
        d = json.loads(strict_json(json_payload(rep)))
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


def long_source_data(basis, ts, T, seed=0):
    """Decay data whose source grid `ts` runs past the horizon T."""
    rng = np.random.default_rng(seed)
    jj = np.arange(1, basis.n_modes + 1)
    u0 = SpectralVec.from_coefficients(basis, rng.choice([-1.0, 1.0], basis.n_modes) * np.exp(-0.3 * jj))
    fc = rng.choice([-1.0, 1.0], basis.n_modes) * np.exp(-1.2 * T * basis.lambdas)
    f = SourceTerm(basis, ts, np.outer(np.linspace(1.0, 0.2, ts.size), fc))
    return u0, FinalValueData(f, solve_cauchy(u0, f, np.array([0.0, T])).final_state, T)


class TestReplayGrid:
    """A backward solve replays on [0, T]: u(0) is its first row and the
    endpoint check reads its last."""

    @pytest.fixture(scope="class")
    def basis256(self):
        return build_basis(DomainSpec("interval", (np.pi,), 256))

    @pytest.mark.parametrize("ts, want", [
        (np.linspace(0.0, 1.0, 9), np.linspace(0.0, 0.5, 5)),   # T is a source node
        (np.array([0.0, 0.3, 0.7, 1.0]), np.array([0.0, 0.3, 0.5])),
    ], ids=["on-node", "off-node"])
    def test_default_grid_stops_at_T(self, basis256, ts, want):
        # the source runs to 2T; the replay used to follow it there and
        # compare u(2T) with u_T
        u0, data = long_source_data(basis256, ts, 0.5)
        sol = solve_final_value(data)
        assert np.array_equal(sol.trajectory.times, want)
        assert sol.endpoint_rel_error <= 1e-12
        assert triple_norms(sol.trajectory.initial_state - u0).normH <= 1e-9 * triple_norms(u0).normH

    @pytest.mark.parametrize("tgrid", [np.linspace(0.0, 0.4, 5), np.linspace(0.05, 0.5, 5), np.array([0.5])],
                             ids=["ends-before-T", "starts-after-0", "T-only"])
    def test_tgrid_must_run_from_0_to_T(self, basis256, tgrid):
        # ending early compared u(tgrid[-1]) with u_T; starting late made
        # u(tgrid[0]) the initial state
        _, data = long_source_data(basis256, np.linspace(0.0, 1.0, 9), 0.5)
        with pytest.raises(InvalidSpecError, match="start at 0 and end at T"):
            solve_final_value_inhom(data.f, None, data.u_T, data.T, tgrid=tgrid)

    def test_tgrid_error_comes_before_a_refusal(self, basis64):
        rough = SpectralVec.from_coefficients(basis64, 1.0 / np.arange(1, 65))
        with pytest.raises(InvalidSpecError):
            solve_final_value_inhom(None, None, rough, 1.0, tgrid=np.linspace(0.0, 0.5, 3))


class TestInstabilityTable:
    def test_log_column_is_T_lambda(self, basis64):
        rows = instability_table(basis64, 1.0, 30)
        assert len(rows) == 30
        for r in rows:
            assert r.final_norm == 1.0
            assert r.log_initial_norm == pytest.approx(1.0 * r.lam, rel=1e-12)
            assert r.lam == pytest.approx(float(r.j) ** 2, rel=1e-14)

    @pytest.mark.parametrize("T", [1e-3, 0.1, 1.0, 7.3])
    @pytest.mark.parametrize("L", [np.pi, 1.0, 0.01])
    def test_rows_equal_the_inverse_flow_bit_for_bit(self, T, L):
        # the table reads the rows off the spectrum; the inverse flow of
        # each unit vector must give the same bits
        basis = build_basis(DomainSpec("interval", (L,), 64))
        want = []
        for j in range(1, 65):
            uT = unit_state(basis, j)
            log_init = 0.5 * log_sum_exp(2.0 * apply_inverse(uT, T).logmag)
            want.append((j, float(basis.lambdas[j - 1]), float(triple_norms(uT).normH), float(log_init)))
        got = [(r.j, r.lam, r.final_norm, r.log_initial_norm) for r in instability_table(basis, T, 64)]
        assert [tuple(map(repr, row)) for row in got] == [tuple(map(repr, row)) for row in want]

    def test_horizon_scaling(self, basis16):
        rows = instability_table(basis16, 2.5, 5)
        for r in rows:
            assert r.log_initial_norm == pytest.approx(2.5 * r.lam, rel=1e-12)

    def test_validation(self, basis16):
        with pytest.raises(InvalidSpecError):
            instability_table(basis16, 1.0, 0)
        with pytest.raises(InvalidSpecError):
            instability_table(basis16, 1.0, 17)
        for T in (0.0, -1.0, np.nan, np.inf, 1e307):
            with pytest.raises(InvalidSpecError):
                instability_table(basis16, T, 4)

    def test_csv_parses_back(self, capsys):
        assert cli(["instability-demo", "--T", "1.0", "--jmax", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "j,lambda,final_norm,log_initial_norm"
        assert len(lines) == 9
        got = [float(x) for x in lines[3].split(",")]
        assert got == pytest.approx([3.0, 9.0, 1.0, 9.0], rel=1e-13)

