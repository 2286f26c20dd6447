"""Exponential-integrator march, closed-form Duhamel checks, space-time norms."""

import tracemalloc
import warnings

import numpy as np
import pytest

from heatfvp.boundary import BoundaryData, solve_ibvp
from heatfvp.duhamel import (
    PHI_TAYLOR_THRESHOLD,
    SourceTerm,
    _phi12,
    check_energy_estimate,
    solution_norm,
    solve_cauchy,
    source_yield,
    squared_source_dual_norm,
)
from heatfvp.logspace import LOG_MAX, InvalidSpecError
from heatfvp.spectral import DomainSpec, SpectralVec, build_basis, rel_distance

from conftest import node_csv, unit_state, zero_source


# phi1(z) = (e^z-1)/z, phi2(z) = (e^z-1-z)/z^2, 50-digit mpmath reference.
# Points straddle the Taylor handover at |z| = 1e-6.
PHI_ORACLE = {
    -1e-9: (0.99999999950000000017, 0.49999999983333333337),
    -2e-7: (0.99999990000000666667, 0.49999996666666833333),
    -9.9e-7: (0.99999950500016334996, 0.49999983500004083749),
    -1.01e-6: (0.99999949500017001662, 0.49999983166670917082),
    -1e-3: (0.99950016662500833194, 0.49983337499166805536),
    -0.1: (0.95162581964040426836, 0.48374180359595731642),
    -1.0: (0.6321205588285576784, 0.3678794411714423216),
    -10.0: (0.099995460007023751515, 0.090000453999297624849),
    -100.0: (0.01, 0.0099),
}


def const_source(basis, T, coeff):
    coeff = np.asarray(coeff, dtype=np.float64)
    return SourceTerm(basis, np.array([0.0, T]), np.vstack([coeff, coeff]))


class TestPhiFunctions:
    def test_against_reference(self):
        zs = np.array(sorted(PHI_ORACLE))
        phi1, phi2 = _phi12(zs)
        ref1 = np.array([PHI_ORACLE[z][0] for z in sorted(PHI_ORACLE)])
        ref2 = np.array([PHI_ORACLE[z][1] for z in sorted(PHI_ORACLE)])
        assert np.allclose(phi1, ref1, rtol=1e-13, atol=0)
        # phi2 cancels in the expm1 branch just above the handover; the
        # achievable accuracy there scales like eps / |z|
        tol2 = np.maximum(1e-13, 3e-16 / np.abs(zs))
        assert np.all(np.abs(phi2 - ref2) <= tol2 * np.abs(ref2))

    def test_limits_at_zero(self):
        phi1, phi2 = _phi12(np.array([0.0]))
        assert phi1[0] == 1.0
        assert phi2[0] == 0.5

    def test_branch_handover_is_smooth(self):
        eps = PHI_TAYLOR_THRESHOLD
        below = _phi12(np.array([-eps * (1 - 1e-9)]))
        above = _phi12(np.array([-eps * (1 + 1e-9)]))
        assert abs(below[0][0] - above[0][0]) < 1e-14
        # the expm1 side of phi2 carries ~eps/|z| of cancellation noise
        assert abs(below[1][0] - above[1][0]) < 1e-9

    def test_each_entry_is_its_own_branch(self):
        # a stack mixing both branches equals its entries taken one by one,
        # bit for bit
        rng = np.random.default_rng(4)
        z = -(10.0 ** rng.uniform(-12, 6, (3, 40)))
        z[0, :5] = 0.0
        stacked = _phi12(z)
        for k, zk in np.ndenumerate(z):
            alone = _phi12(np.array([zk]))
            assert [p[k].hex() for p in stacked] == [p[0].hex() for p in alone]


class TestSourceTerm:
    def test_sample_interpolates(self, basis16):
        c = np.zeros((3, 16))
        c[0, 0], c[1, 0], c[2, 0] = 1.0, 3.0, 3.0
        f = SourceTerm(basis16, np.array([0.0, 0.5, 1.0]), c)
        vals = f.sample([0.25, 0.75])
        assert vals[0, 0] == pytest.approx(2.0, rel=1e-15)
        assert vals[1, 0] == pytest.approx(3.0, rel=1e-15)

    def test_sample_outside_grid_raises(self, basis16):
        f = zero_source(basis16, 1.0)
        with pytest.raises(InvalidSpecError):
            f.sample([1.5])

    def test_needs_two_nodes(self, basis16):
        with pytest.raises(InvalidSpecError):
            SourceTerm(basis16, np.array([0.0]), np.zeros((1, 16)))

    def test_grid_must_increase(self, basis16):
        with pytest.raises(InvalidSpecError):
            SourceTerm(basis16, np.array([0.0, 0.0]), np.zeros((2, 16)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_times_must_be_finite(self, basis16, bad, at):
        ts = np.array([0.0, 0.5, 1.0])
        ts[at] = bad
        with pytest.raises(InvalidSpecError, match="finite"):
            SourceTerm(basis16, ts, np.zeros((3, 16)))

    def test_csv_rows_must_match_the_header(self, basis16):
        text = node_csv(zero_source(basis16, 1.0))
        with pytest.raises(InvalidSpecError, match="fields"):
            SourceTerm.from_csv(text + "0.5,1.0\r\n", basis16)

    def test_shape_mismatch(self, basis16):
        with pytest.raises(InvalidSpecError):
            SourceTerm(basis16, np.array([0.0, 1.0]), np.zeros((2, 7)))

    def test_rejects_nonfinite(self, basis16):
        c = np.zeros((2, 16))
        c[0, 3] = np.inf
        with pytest.raises(InvalidSpecError):
            SourceTerm(basis16, np.array([0.0, 1.0]), c)

    def test_csv_round_trip(self, basis16):
        rng = np.random.default_rng(5)
        c, im = rng.standard_normal((4, 16)), rng.standard_normal((4, 16))
        ts = np.array([0.0, 0.1, 0.6, 1.0])
        f = SourceTerm(basis16, ts, c)
        g = SourceTerm.from_csv(node_csv(f), basis16)
        assert np.array_equal(g.times, f.times)
        assert np.array_equal(g.coeffs, f.coeffs) and g.coeffs.dtype == np.float64
        # the im columns stay in the format, and one that is not 0 is refused
        assert node_csv(SourceTerm.from_csv(node_csv(f), basis16)) == node_csv(f)
        with pytest.raises(InvalidSpecError, match="imaginary"):
            SourceTerm(basis16, ts, c + 1j * im)
        text = node_csv(f).splitlines()
        fields = text[2].split(",")
        fields[2] = "0.5"  # mode_1_im of the second node
        text[2] = ",".join(fields)
        with pytest.raises(InvalidSpecError, match="imaginary"):
            SourceTerm.from_csv("\r\n".join(text), basis16)

    def test_csv_header_is_checked(self, basis16):
        f = zero_source(basis16, 1.0)
        text = node_csv(f).replace("mode_1_re", "mode_1")
        with pytest.raises(InvalidSpecError):
            SourceTerm.from_csv(text, basis16)


class TestPureDecay:
    def test_nodes_match_flow(self, basis16):
        rng = np.random.default_rng(0)
        u0 = SpectralVec.from_coefficients(basis16, rng.standard_normal(16))
        ts = np.array([0.0, 0.25, 1.0])
        traj = solve_cauchy(u0, None, ts)
        for t, phase, logmag in zip(ts, traj.phase, traj.logmag):
            want = u0.scale_log(-t * basis16.lambdas)
            assert np.allclose(logmag, want.logmag, rtol=1e-15, atol=0)
            assert np.allclose(phase, want.phase, rtol=1e-15, atol=0)

    def test_initial_and_final_properties(self, basis16):
        u0 = unit_state(basis16, 2)
        traj = solve_cauchy(u0, None, np.array([0.0, 1.0]))
        assert np.array_equal(traj.initial_state.logmag, u0.logmag)
        assert np.array_equal(traj.initial_state.logmag, traj.logmag[0])
        assert np.array_equal(traj.final_state.logmag, traj.logmag[-1])
        assert traj.final_state.logmag[1] == -4.0  # lambda_2 = 4 at t = 1

    def test_phase_is_one_row_not_one_per_node(self):
        # every node has u0's signs: one row, broadcast with a zero stride,
        # not a copy per node
        basis = build_basis(DomainSpec("interval", (np.pi,), 1024))
        u0 = SpectralVec.from_coefficients(basis, np.exp(-0.01 * np.arange(1024.0)))
        ts = np.linspace(0.0, 1e-3, 1001)
        tracemalloc.start()
        try:
            traj = solve_cauchy(u0, None, ts)
            traj.phase  # the rows are built on first read
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * traj.logmag.nbytes
        assert traj.phase.strides[0] == 0
        assert np.array_equal(traj.phase, np.broadcast_to(u0.phase, traj.phase.shape))


class TestClosedForms:
    def test_constant_source(self, basis16):
        # c_j(t) = e^{-t lam} u0_j + f_j (1 - e^{-t lam}) / lam
        rng = np.random.default_rng(1)
        u0c = rng.standard_normal(16) * np.exp(-np.arange(1, 17) / 3.0)
        fc = rng.standard_normal(16)
        u0 = SpectralVec.from_coefficients(basis16, u0c)
        f = const_source(basis16, 1.0, fc)
        lam = basis16.lambdas
        for t in [0.3, 1.0]:
            traj = solve_cauchy(u0, f, np.array([0.0, t]))
            want = np.exp(-t * lam) * u0c + fc * (1 - np.exp(-t * lam)) / lam
            assert np.allclose(traj.final_state.coefficients, want, rtol=1e-12, atol=1e-15)

    def test_linear_source(self, basis16):
        # f(t) = fa + s (t - a) on one interval; the particular solution is
        # p + q (t - a) with q = s/lam, p = fa/lam - s/lam^2.
        rng = np.random.default_rng(2)
        fa = rng.standard_normal(16)
        fb = rng.standard_normal(16)
        T = 0.7
        f = SourceTerm(basis16, np.array([0.0, T]), np.vstack([fa, fb]))
        u0c = rng.standard_normal(16)
        u0 = SpectralVec.from_coefficients(basis16, u0c)
        lam = basis16.lambdas
        s = (fb - fa) / T
        q = s / lam
        p = fa / lam - s / lam ** 2
        t = T
        want = (u0c - p) * np.exp(-lam * t) + p + q * t
        traj = solve_cauchy(u0, f, np.array([0.0, t]))
        assert np.allclose(traj.final_state.coefficients, want, rtol=1e-12, atol=1e-15)

    def test_many_interior_nodes_change_nothing(self, basis16):
        # the march is exact per interval, so refining the grid only moves
        # roundoff
        rng = np.random.default_rng(3)
        fa = rng.standard_normal(16)
        fb = rng.standard_normal(16)
        f = SourceTerm(basis16, np.array([0.0, 1.0]), np.vstack([fa, fb]))
        u0 = SpectralVec.from_coefficients(basis16, rng.standard_normal(16))
        coarse = solve_cauchy(u0, f, np.array([0.0, 1.0]))
        fine = solve_cauchy(u0, f, np.linspace(0.0, 1.0, 41))
        assert rel_distance(coarse.final_state, fine.final_state) < 1e-12

    def test_yield_single_mode_example(self, basis16):
        f = const_source(basis16, 1.0, np.eye(16)[0])
        y = source_yield(f, 1.0)
        assert y.coefficients[0] == pytest.approx(1 - np.exp(-1.0), rel=1e-14)
        assert np.all(np.abs(y.coefficients[1:]) == 0)

    def test_yield_equals_zero_state_solve(self, basis16):
        rng = np.random.default_rng(4)
        c = rng.standard_normal((3, 16))
        f = SourceTerm(basis16, np.array([0.0, 0.4, 1.0]), c)
        y = source_yield(f, 1.0)
        traj = solve_cauchy(SpectralVec.zero(basis16), f, np.array([1.0]))
        assert rel_distance(y, traj.final_state) == 0.0

    def test_yield_horizon_validation(self, basis16):
        f = zero_source(basis16, 1.0)
        with pytest.raises(InvalidSpecError):
            source_yield(f, 2.0)
        with pytest.raises(InvalidSpecError):
            source_yield(f, 0.0)
        for T in (np.nan, np.inf):
            with pytest.raises(InvalidSpecError, match="horizon"):
                source_yield(f, T)


class TestLinearity:
    def test_scaling(self, basis16):
        rng = np.random.default_rng(6)
        u0c = rng.standard_normal(16)
        fc = rng.standard_normal(16)
        ts = np.array([0.0, 0.5, 1.0])
        base = solve_cauchy(
            SpectralVec.from_coefficients(basis16, u0c), const_source(basis16, 1.0, fc), ts
        )
        scaled = solve_cauchy(
            SpectralVec.from_coefficients(basis16, 3.0 * u0c), const_source(basis16, 1.0, 3.0 * fc), ts
        )
        assert np.allclose(3.0 * base._coeffs, scaled._coeffs, rtol=1e-13, atol=1e-16)

    def test_superposition(self, basis16):
        rng = np.random.default_rng(7)
        u0c = rng.standard_normal(16)
        fc = rng.standard_normal(16)
        gc = rng.standard_normal(16)
        ts = np.array([0.0, 1.0])
        full = solve_cauchy(
            SpectralVec.from_coefficients(basis16, u0c),
            const_source(basis16, 1.0, fc + gc),
            ts,
        )
        part1 = solve_cauchy(
            SpectralVec.from_coefficients(basis16, u0c), const_source(basis16, 1.0, fc), ts
        )
        part2 = solve_cauchy(SpectralVec.zero(basis16), const_source(basis16, 1.0, gc), ts)
        lhs = full.final_state.coefficients
        rhs = part1.final_state.coefficients + part2.final_state.coefficients
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-15)


class TestSourceRange:
    def test_source_near_float_max_stays_finite_and_silent(self):
        # u_j(T) = c (1 - e^{-lambda_j T}) / lambda_j with c = 1e307 reaches
        # e^{710.8} on mode 1, past LOG_MAX: the particular part must carry
        # it without a linear-scale overflow
        basis = build_basis(DomainSpec("interval", (100.0,), 8))
        T = 50.0
        ts = np.linspace(0.0, T, 200)
        f = SourceTerm(basis, ts, np.full((ts.size, 8), 1e307))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = solve_cauchy(SpectralVec.zero(basis), f, ts)
        lam = basis.lambdas
        want = np.log(1e307) + np.log(-np.expm1(-lam * T) / lam)
        assert np.all(np.isfinite(traj.logmag[1:]))
        assert traj.final_state.logmag[0] > LOG_MAX
        assert traj.final_state.logmag == pytest.approx(want, rel=1e-13)
        assert np.allclose(traj.final_state.phase, 1.0, rtol=0.0, atol=1e-15)


class TestGridValidation:
    def test_grid_outside_source_raises(self, basis16):
        f = zero_source(basis16, 1.0)
        u0 = SpectralVec.zero(basis16)
        with pytest.raises(InvalidSpecError):
            solve_cauchy(u0, f, np.array([0.0, 2.0]))

    def test_decreasing_grid_raises(self, basis16):
        u0 = SpectralVec.zero(basis16)
        with pytest.raises(InvalidSpecError):
            solve_cauchy(u0, None, np.array([0.5, 0.2]))

    def test_negative_start_raises(self, basis16):
        u0 = SpectralVec.zero(basis16)
        f = zero_source(basis16, 1.0)
        with pytest.raises(InvalidSpecError):
            solve_cauchy(u0, f, np.array([-0.1, 1.0]))

    def test_empty_grid_raises(self, basis16):
        with pytest.raises(InvalidSpecError, match="nonempty"):
            solve_cauchy(unit_state(basis16, 1), None, np.array([]))

    def test_complex_grid_raises(self, basis16):
        u0 = unit_state(basis16, 1)
        with pytest.raises(InvalidSpecError, match="imaginary"):
            solve_cauchy(u0, None, np.array([0.0, 0.5 + 1e-9j]))
        with pytest.raises(InvalidSpecError, match="imaginary"):
            SourceTerm(basis16, np.array([0.0, 1.0 + 1j]), np.zeros((2, 16)))

    @pytest.mark.parametrize("ts", [[0.0, np.nan], [0.0, 0.5, np.inf]])
    def test_non_finite_grid_raises(self, basis16, ts):
        # neither fails an ordering comparison: nan compares false, and
        # without a source the last node sets the horizon
        u0 = unit_state(basis16, 1)
        with pytest.raises(InvalidSpecError, match="finite"):
            solve_cauchy(u0, None, np.array(ts))

    def test_basis_mismatch_raises(self, basis16, basis64):
        u0 = SpectralVec.zero(basis64)
        f = zero_source(basis16, 1.0)
        with pytest.raises(InvalidSpecError):
            solve_cauchy(u0, f, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("forcing", ["source", "boundary"])
    def test_one_node_at_zero_is_u0(self, basis16, forcing):
        # the grid merges to the one node t = 0, a march of no step: the
        # trajectory is u0, read alone or as the full arrays
        u0 = SpectralVec.from_coefficients(basis16, np.random.default_rng(3).standard_normal(16))
        f = const_source(basis16, 1.0, np.ones(16))
        g = BoundaryData.constant(1.0, -1.0, 1.0)
        lazy, full = (solve_cauchy(u0, f, [0.0]) if forcing == "source" else solve_ibvp(u0, None, g, [0.0])
                      for _ in range(2))
        assert full.phase.tobytes() == u0.phase.tobytes() and full.logmag.tobytes() == u0.logmag.tobytes()
        for traj in (lazy, full):
            assert traj.final_state is traj.initial_state
            assert traj.initial_state.phase.tobytes() == u0.phase.tobytes()
            assert traj.initial_state.logmag.tobytes() == u0.logmag.tobytes()


class TestTrajectoryCsv:
    def test_layout(self, basis16):
        u0 = unit_state(basis16, 1)
        traj = solve_cauchy(u0, None, np.array([0.0, 1.0]))
        lines = traj.to_csv().strip().splitlines()
        assert lines[0] == "t,x,u"
        assert len(lines) == 1 + 2 * 65
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        assert float(first[2]) == pytest.approx(0.0, abs=1e-14)


class TestSpaceTimeNorms:
    def test_dual_norm_exact_triangle(self, basis16):
        # f(t) = (1-t) on the first mode: int (1-t)^2 / lam_1 = 1/3
        f = SourceTerm(basis16, np.array([0.0, 1.0]), np.vstack([np.eye(16)[0], np.zeros(16)]))
        assert squared_source_dual_norm(f, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_dual_norm_clips_horizon(self, basis16):
        f = SourceTerm(basis16, np.array([0.0, 1.0]), np.vstack([np.eye(16)[0], np.zeros(16)]))
        # int_0^{1/2} (1-t)^2 dt = 7/24
        assert squared_source_dual_norm(f, 0.5) == pytest.approx(7.0 / 24.0, rel=1e-14)

    def test_dual_norm_sums_modes(self, basis16):
        c = np.zeros(16)
        c[0], c[3] = 1.0, 2.0
        f = const_source(basis16, 2.0, c)
        want = 2.0 * (1.0 / basis16.lambdas[0] + 4.0 / basis16.lambdas[3])
        assert squared_source_dual_norm(f, 2.0) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("T", [np.nan, np.inf, 0.0, -1.0])
    def test_dual_norm_horizon_validation(self, basis16, T):
        f = const_source(basis16, 1.0, np.eye(16)[0])
        with pytest.raises(InvalidSpecError, match="horizon"):
            squared_source_dual_norm(f, T)

    def test_solution_norm_matches_trapezoid_of_exact_nodes(self, basis16):
        u0 = unit_state(basis16, 1)
        ts = np.linspace(0.0, 1.0, 33)
        traj = solve_cauchy(u0, None, ts)
        c = np.exp(-ts)
        v2 = c ** 2  # lam_1 = 1 so V, H, and dual norms coincide on mode 1
        want = np.trapezoid(v2, ts) * 3.0 + 1.0
        assert solution_norm(traj) == pytest.approx(np.sqrt(want), rel=1e-12)

    def test_solution_norm_single_mode_value(self, basis16):
        # exact squared norm 3/2 (1 - e^{-2}) + 1 = 2.2969970751450809622
        u0 = unit_state(basis16, 1)
        traj = solve_cauchy(u0, None, np.linspace(0.0, 1.0, 257))
        assert solution_norm(traj) == pytest.approx(np.sqrt(2.2969970751450809622), rel=1e-5)

    def test_solution_norm_needs_two_nodes(self, basis16):
        u0 = unit_state(basis16, 1)
        traj = solve_cauchy(u0, None, np.array([1.0]))
        with pytest.raises(InvalidSpecError):
            solution_norm(traj)


class TestEnergyEstimate:
    def make_traj(self, basis, T=0.5, with_source=True, nodes=None):
        rng = np.random.default_rng(11)
        jj = np.arange(1, basis.n_modes + 1)
        u0 = SpectralVec.from_coefficients(basis, rng.standard_normal(basis.n_modes) * np.exp(-jj))
        f = None
        if with_source:
            fc = rng.standard_normal(basis.n_modes) * np.exp(-jj / 2.0)
            f = const_source(basis, T, fc)
        if nodes is None:
            # keep every mode resolved: trapezoid on h with h*lam_max > 2
            # inflates int ||u||_V^2 and can break the true inequality
            h = min(T / 32.0, 0.4 / float(basis.lambdas[-1]))
            nodes = int(np.ceil(T / h)) + 1
        return solve_cauchy(u0, f, np.linspace(0.0, T, nodes))

    def test_both_bounds_hold(self, basis16):
        rep = check_energy_estimate(self.make_traj(basis16))
        assert rep.energy_ok and rep.sobolev_ok
        assert rep.energy_lhs <= rep.energy_rhs
        assert rep.sobolev_lhs <= rep.sobolev_rhs

    def test_decay_only_bound(self, basis16):
        rep = check_energy_estimate(self.make_traj(basis16, with_source=False))
        assert rep.energy_ok and rep.sobolev_ok

    def test_report_fields_finite(self, basis16):
        rep = check_energy_estimate(self.make_traj(basis16))
        for val in (rep.energy_lhs, rep.energy_rhs, rep.sobolev_lhs, rep.sobolev_rhs):
            assert np.isfinite(val)

    def test_energy_single_mode_tight_constant(self, basis16):
        # u = e^{-t} e_1 with f = 0: int ||u||_V^2 = (1-e^{-2T})/2 <= |u0|^2
        u0 = unit_state(basis16, 1)
        traj = solve_cauchy(u0, None, np.linspace(0.0, 1.0, 129))
        rep = check_energy_estimate(traj)
        assert rep.energy_lhs == pytest.approx((1 - np.exp(-2.0)) / 2.0, rel=1e-4)
        assert rep.energy_rhs == pytest.approx(1.0, rel=1e-12)
        assert rep.energy_ok
