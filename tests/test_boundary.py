"""Dirichlet data handling: lifts, trace split, boundary-driven dynamics,
full first-order norms, and the backward solve with boundary terms."""

import json
import tracemalloc

import numpy as np
import pytest

from heatfvp import duhamel
from heatfvp.boundary import (
    BoundaryData,
    LiftPath,
    YNormReport,
    boundary_split,
    boundary_yield,
    boundary_yield_sweep,
    data_norm_inhom,
    flow_identity_residual,
    harmonic_lift,
    solution_norm_h1,
    solve_final_value_inhom,
    solve_ibvp,
    trace_norm_surrogate,
)
from heatfvp.duhamel import SourceTerm, solve_cauchy
from heatfvp.fvp import IncompatibleDataError
from heatfvp.logspace import logspace_add
from heatfvp.spectral import (
    DomainSpec,
    InvalidSpecError,
    SpectralVec,
    analyze,
    build_basis,
    json_payload,
    rel_distance,
    strict_json,
    triple_norms,
    uniform_samples,
)

from conftest import unit_state


def ramp_data(T, left_mid, right_mid, left_end=0.3, right_end=0.2):
    """Boundary signal starting from rest; kink halfway."""
    return BoundaryData(
        np.array([0.0, T / 2, T]),
        np.array([[0.0, 0.0], [left_mid, right_mid], [left_end, right_end]]),
    )


def inhom_instance(basis, T=0.05, seed=42, n_t=9):
    """Forward-manufactured solvable data for the backward boundary solve."""
    rng = np.random.default_rng(seed)
    jj = np.arange(1, basis.n_modes + 1)
    u0c = rng.choice([-1.0, 1.0], basis.n_modes) * np.exp(-2.2 * jj)
    fc = rng.choice([-1.0, 1.0], basis.n_modes) * np.exp(-1.2 * T * basis.lambdas)
    f = SourceTerm(basis, np.array([0.0, T]), np.vstack([fc, 0.5 * fc]))
    g = BoundaryData(
        np.array([0.0, T / 2, T]),
        np.array([[0.0, 0.0], [0.8, -0.5], [0.3, 0.2]]),
    )
    u0 = SpectralVec.from_coefficients(basis, u0c)
    fwd = solve_ibvp(u0, f, g, np.linspace(0.0, T, n_t))
    return u0c, f, g, fwd


class TestBoundaryData:
    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            BoundaryData(np.array([0.0]), np.array([[1.0, 1.0]]))
        with pytest.raises(InvalidSpecError):
            BoundaryData(np.array([0.0, 0.0]), np.zeros((2, 2)))
        with pytest.raises(InvalidSpecError):
            BoundaryData(np.array([0.0, 1.0]), np.zeros((2, 3)))
        with pytest.raises(InvalidSpecError):
            BoundaryData(np.array([0.0, 1.0]), np.array([[0.0, np.nan]] * 2))
        # complex values are taken only with zero imaginary parts
        assert BoundaryData(np.array([0.0, 1.0]), np.ones((2, 2)) + 0j).values.dtype == np.float64
        with pytest.raises(InvalidSpecError, match="imaginary"):
            BoundaryData(np.array([0.0, 1.0]), np.array([[0.0, 1e-300j]] * 2))
        for bad in (np.nan, np.inf):
            for at in range(3):
                ts = np.array([0.0, 0.5, 1.0])
                ts[at] = bad
                with pytest.raises(InvalidSpecError, match="finite"):
                    BoundaryData(ts, np.zeros((3, 2)))

    def test_sample_and_flags(self):
        g = ramp_data(1.0, 1.0, -1.0)
        assert not g.is_zero
        assert g.t_final == 1.0
        got = g.sample([0.25, 0.75])
        assert got[0] == pytest.approx([0.5, -0.5], rel=1e-15)
        assert got[1] == pytest.approx([0.65, -0.4], rel=1e-14)
        assert BoundaryData.constant(0.0, 0.0, 2.0).is_zero

    def test_sample_outside_grid(self):
        g = BoundaryData.constant(0.0, 0.0, 1.0)
        with pytest.raises(InvalidSpecError):
            g.sample([2.0])

    def test_csv_round_trip(self):
        g = ramp_data(1.0, 0.7, -0.3)
        h = BoundaryData.from_csv(g.to_csv())
        assert np.array_equal(h.times, g.times)
        assert np.array_equal(h.values, g.values)

    def test_csv_header_checked(self):
        text = BoundaryData.constant(0.0, 0.0, 1.0).to_csv().replace("g_left", "gl")
        with pytest.raises(InvalidSpecError):
            BoundaryData.from_csv(text)

    def test_csv_without_rows_or_with_short_rows(self):
        header = "t,g_left,g_right\r\n"
        with pytest.raises(InvalidSpecError, match="two time nodes"):
            BoundaryData.from_csv(header)
        with pytest.raises(InvalidSpecError, match="fields"):
            BoundaryData.from_csv(header + "0.0,1.0\r\n1.0,1.0,1.0\r\n")


class TestHarmonicLift:
    def test_affine_values(self, basis16):
        lift = harmonic_lift(1.0, 0.0, basis16)
        assert lift.slope == pytest.approx(-1.0 / np.pi, rel=1e-15)
        got = lift.values(np.array([0.0, np.pi / 2, np.pi]))
        assert got == pytest.approx([1.0, 0.5, 0.0], rel=1e-14)

    def test_closed_form_coefficients(self, basis16):
        # <a + bx, e_j> = sqrt(2/L) L/(j pi) (g_l - (-1)^j g_r)
        jj = np.arange(1, 17)
        assert np.allclose(basis16.lift_coefficients(1.0, 0.0), np.sqrt(2 / np.pi) / jj, rtol=1e-13)
        want = np.sqrt(2 / np.pi) * (2.0 - (-1.0) ** jj * 3.0) / jj
        assert np.allclose(basis16.lift_coefficients(2.0, 3.0), want, rtol=1e-13)

class TestBoundarySplit:
    def test_partition_and_idempotency(self, basis16):
        rng = np.random.default_rng(0)
        x = basis16.axes[0]
        for _ in range(20):
            u = rng.standard_normal() + rng.standard_normal() * x + np.sin(3 * x) * rng.standard_normal()
            sp = boundary_split(u, basis16)
            assert np.allclose(sp.zero_trace + sp.harmonic, u, rtol=0, atol=1e-12)
            assert sp.zero_trace[0] == pytest.approx(0.0, abs=1e-13)
            assert sp.zero_trace[-1] == pytest.approx(0.0, abs=1e-13)
            # zero-trace part has no harmonic component left
            again = boundary_split(sp.zero_trace, basis16)
            assert np.allclose(again.harmonic, 0.0, atol=1e-12)
            # harmonic part is reproduced by its own split
            aff = boundary_split(sp.harmonic, basis16)
            assert np.allclose(aff.harmonic, sp.harmonic, rtol=0, atol=1e-12)

    def test_wrong_grid(self, basis16):
        with pytest.raises(InvalidSpecError):
            boundary_split(np.zeros(7), basis16)
        with pytest.raises(InvalidSpecError, match="imaginary"):
            boundary_split(np.full(basis16.axes[0].size, 1j), basis16)


class TestBoundaryYield:
    def test_constant_data_closed_form(self, basis64):
        g = BoundaryData.constant(1.0, 1.0, 1.0)
        z = boundary_yield(g, 1.0, basis64).coefficients
        bj = basis64.lift_coefficients(1.0, 1.0)
        want = bj * (1 - np.exp(-basis64.lambdas))
        nz = np.abs(want) > 0
        assert np.allclose(z[nz], want[nz], rtol=1e-12)
        assert np.allclose(z[~nz], 0.0, atol=1e-15)

    def test_intermediate_time(self, basis16):
        g = BoundaryData.constant(0.5, -1.5, 2.0)
        z = boundary_yield(g, 0.7, basis16).coefficients
        want = basis16.lift_coefficients(0.5, -1.5) * (1 - np.exp(-0.7 * basis16.lambdas))
        assert np.allclose(z, want, rtol=1e-12, atol=1e-16)

    def test_linearity(self, basis16):
        T = 1.0
        g1 = ramp_data(T, 1.0, 0.0)
        g2 = ramp_data(T, 0.0, 1.0, left_end=-0.2, right_end=0.5)
        combo = BoundaryData(g1.times, 2.0 * g1.values - 3.0 * g2.values)
        z = boundary_yield(combo, T, basis16).coefficients
        want = (
            2.0 * boundary_yield(g1, T, basis16).coefficients
            - 3.0 * boundary_yield(g2, T, basis16).coefficients
        )
        assert np.allclose(z, want, rtol=1e-10, atol=1e-15)

    def test_validation(self, basis16):
        g = BoundaryData.constant(0.0, 0.0, 1.0)
        with pytest.raises(InvalidSpecError):
            boundary_yield(g, 0.0, basis16)
        with pytest.raises(InvalidSpecError):
            boundary_yield(g, 2.0, basis16)
        for t in (np.nan, np.inf):
            with pytest.raises(InvalidSpecError, match="horizon"):
                boundary_yield(g, t, basis16)


class TestImproperIntegralSweep:
    def test_contraction_toward_limit(self, basis64):
        g = BoundaryData.constant(1.0, 1.0, 1.0)
        rep = boundary_yield_sweep(g, 1.0, basis64)
        assert np.all(np.diff(rep.increments) < 0)
        # quarter-power contraction of the H-norm tail
        assert 0.2 <= rep.fitted_rate <= 0.3
        assert 0.0 < rep.limit_gap < rep.increments[0]

    # constant g = (left, right) on [0, T] at N modes on (0, pi), lambda_j = j^2
    CLOSED_FORM_CASES = [
        (g, T, n) for g in ((1.0, 1.0), (1.0, -0.5)) for T in (1.0, 0.1) for n in (64, 1024, 4096)
    ]

    @pytest.mark.parametrize("case", CLOSED_FORM_CASES, ids=lambda c: f"g{c[0][0]:g},{c[0][1]:g}-T{c[1]:g}-N{c[2]}")
    def test_matches_the_closed_form(self, case):
        # for constant g, z(s) = l (1 - e^{-s A}) with l the lift's
        # coefficients, so the partial at eps is l (e^{-eps A} - e^{-t A}),
        # the increment from eps_k to eps_{k+1} = eps_k / 2 is
        # |l (e^{-eps_{k+1} A} - e^{-eps_k A})| and the limit gap is
        # |l (1 - e^{-eps_10 A})|; expm1 keeps the low modes' digits
        (left, right), T, n = case
        basis = build_basis(DomainSpec("interval", (np.pi,), n))
        rep = boundary_yield_sweep(BoundaryData.constant(left, right, T), T, basis)
        ell, lam = basis.lift_coefficients(left, right), basis.lambdas
        half = rep.eps[1:, None] * lam
        want_inc = np.linalg.norm(ell * np.exp(-half) * -np.expm1(-half), axis=1)
        want_gap = np.linalg.norm(ell * -np.expm1(-rep.eps[-1] * lam))
        assert np.max(np.abs(rep.increments - want_inc) / want_inc) <= 1e-14
        assert abs(rep.limit_gap - want_gap) <= 1e-14 * want_gap
        # the increments fall as eps^{1/4}, the H^{1/4}(0, T) regularity of
        # the Dirichlet trace, once the top mode is damped across the
        # smallest eps (lambda_N eps_10 >= 4).  At T = 0.1, N = 64 it is
        # 0.4: the truncated series has not reached that regime and the fit
        # reads about 0.32
        if lam[-1] * rep.eps[-1] >= 4.0:
            assert abs(rep.fitted_rate - 0.25) <= 1e-3

    def test_one_march_per_sweep(self, basis64, monkeypatch):
        # every partial and the limit are rows of one march of the lift
        calls = {}

        def counting(*args, _real=duhamel._particular, **kwargs):
            calls["_particular"] = calls.get("_particular", 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(duhamel, "_particular", counting)
        boundary_yield_sweep(ramp_data(1.0, 0.8, -0.5), 1.0, basis64)
        assert calls == {"_particular": 1}

    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf, 1.5])
    def test_refuses_a_bad_horizon(self, basis16, t):
        with pytest.raises(InvalidSpecError):
            boundary_yield_sweep(BoundaryData.constant(1.0, 0.0, 1.0), t, basis16)


class TestSolveIbvp:
    def test_zero_boundary_reduces_to_cauchy(self, basis16):
        rng = np.random.default_rng(3)
        u0 = SpectralVec.from_coefficients(basis16, rng.standard_normal(16))
        f = SourceTerm(basis16, np.array([0.0, 1.0]), rng.standard_normal((2, 16)))
        ts = np.linspace(0.0, 1.0, 9)
        a = solve_ibvp(u0, f, BoundaryData.constant(0.0, 0.0, 1.0), ts)
        b = solve_cauchy(u0, f, ts)
        assert np.array_equal(a.phase, b.phase) and np.array_equal(a.logmag, b.logmag)
        assert a.lift is not None and a.lift.g.is_zero

    def test_steady_state_approach(self, basis64):
        # constant data 1 on both ends: u(T) -> 1; against the mode-limited
        # representation of 1 the remaining gap is the slowest transient
        T = 5.0
        g = BoundaryData.constant(1.0, 1.0, T)
        traj = solve_ibvp(SpectralVec.zero(basis64), None, g, np.array([0.0, T]))
        ones = SpectralVec.from_coefficients(basis64, basis64.lift_coefficients(1.0, 1.0))
        gap = triple_norms(traj.final_state - ones).normH
        b1 = basis64.lift_coefficients(1.0, 1.0)[0]
        assert gap == pytest.approx(b1 * np.exp(-T), rel=1e-3)

    def test_flow_identity_boundary_only(self, basis64):
        g = BoundaryData.constant(1.0, 1.0, 1.0)
        traj = solve_ibvp(SpectralVec.zero(basis64), None, g, np.array([0.0, 1.0]))
        assert flow_identity_residual(traj, g) <= 1e-10

    def test_flow_identity_full_data(self, basis16):
        _, f, g, fwd = inhom_instance(basis16)
        assert flow_identity_residual(fwd, g) <= 1e-10

    def test_flow_identity_zero_boundary(self, basis16):
        rng = np.random.default_rng(8)
        u0 = SpectralVec.from_coefficients(basis16, rng.standard_normal(16) * np.exp(-np.arange(1, 17)))
        f = SourceTerm(basis16, np.array([0.0, 1.0]), rng.standard_normal((2, 16)))
        traj = solve_ibvp(u0, f, None, np.linspace(0.0, 1.0, 5))
        assert flow_identity_residual(traj, None) <= 1e-10

    @pytest.mark.parametrize("modes", [4096, 8192])
    def test_round_trip_and_flow_identity_at_large_n(self, modes):
        # the sine transforms build no N x (8N+1) table, which would take
        # 1.07 GB at N = 4096; the whole check stays under 100 MB
        T = 0.05
        tracemalloc.start()
        try:
            basis = build_basis(DomainSpec("interval", (np.pi,), modes))
            x = basis.axes[0]
            u0 = analyze(x * (np.pi - x) * np.exp(np.cos(3.0 * x)), basis)
            back = analyze(uniform_samples(u0, 8 * modes), basis)
            fc = np.exp(-0.5 * np.arange(modes))
            f = SourceTerm(basis, np.array([0.0, T]), np.vstack([fc, 0.5 * fc]))
            g = ramp_data(T, 0.8, -0.5)
            residual = flow_identity_residual(solve_ibvp(u0, f, g, np.linspace(0.0, T, 9)), g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "sines" not in vars(basis)
        assert np.max(np.abs(back.coefficients - u0.coefficients)) <= 1e-13 * np.max(np.abs(u0.coefficients))
        assert residual <= 1e-10
        assert peak < 100 * 2 ** 20


def assemble_with_lift_perturbation(u0, f, g, phi, tgrid) -> list:
    """Cross-check assembly of the boundary solve through a perturbed lift.

    Any interior path phi(t) with zero trace can be added to the affine
    lift; the two extra convolution terms it introduces cancel exactly in
    the algebra, so the assembled states must match solve_ibvp.  Computing
    them separately and letting them cancel numerically is the point of
    this check.
    """
    basis = u0.basis
    lam = basis.lambdas
    ts = np.asarray(tgrid, dtype=float)
    lift = LiftPath(g, basis)

    def on_kinks(src, *kinks):
        # the same piecewise-linear source, with nodes at every kink
        times = np.union1d(src.times, np.concatenate(kinks))
        return SourceTerm(basis, times, src.sample(times))

    base = solve_cauchy(u0, on_kinks(f, g.times, phi.times), ts)
    # interior Laplacian of the perturbation acts as the source -lambda*phi
    phi_src = SourceTerm(basis, phi.times, phi.coeffs * lam[None, :])
    term_phi = solve_cauchy(SpectralVec.zero(basis), on_kinks(phi_src, g.times), ts)
    # boundary term with the perturbed lift w + phi
    merged = np.union1d(g.times, phi.times)
    wtilde = lift.sample(merged)[2] + phi.sample(merged)
    tilde_src = SourceTerm(basis, merged, wtilde * lam[None, :])
    term_lift = solve_cauchy(SpectralVec.zero(basis), tilde_src, ts)

    p, l = logspace_add(base.phase, base.logmag, -term_phi.phase, term_phi.logmag)
    p, l = logspace_add(p, l, term_lift.phase, term_lift.logmag)
    return [SpectralVec(basis, pk, lk) for pk, lk in zip(p, l)]


class TestLiftPerturbationAssembly:
    def test_matches_direct_solve(self, basis16):
        rng = np.random.default_rng(7)
        jj = np.arange(1, 17)
        ts = np.linspace(0.0, 1.0, 33)
        phi = SourceTerm(basis16, np.array([0.0, 0.4, 1.0]), rng.standard_normal((3, 16)))
        g = BoundaryData(np.array([0.0, 0.5, 1.0]), np.array([[0.0, 0.2], [1.0, -0.3], [0.5, 0.1]]))
        f = SourceTerm(basis16, np.array([0.0, 1.0]), rng.standard_normal((2, 16)) * np.exp(-jj / 2))
        u0 = SpectralVec.from_coefficients(basis16, rng.standard_normal(16) * np.exp(-jj / 2))
        ref = solve_ibvp(u0, f, g, ts)
        alt = assemble_with_lift_perturbation(u0, f, g, phi, ts)
        assert len(alt) == ref.times.size
        for k in range(1, ref.times.size):
            assert rel_distance(alt[k], SpectralVec(basis16, ref.phase[k], ref.logmag[k])) <= 1e-9


class TestTraceSurrogate:
    def test_constant_signal_value(self):
        # per active endpoint: L2^2 = T and a single flat cosine mode of
        # energy T, so the total is sqrt(2 T)
        g = BoundaryData.constant(1.0, 0.0, 2.0)
        assert trace_norm_surrogate(g, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_homogeneity(self):
        g = ramp_data(1.0, 1.0, -0.5)
        scaled = BoundaryData(g.times, 3.0 * g.values)
        assert trace_norm_surrogate(scaled, 1.0) == pytest.approx(3.0 * trace_norm_surrogate(g, 1.0), rel=1e-12)

    def test_endpoints_add_in_squares(self):
        left = BoundaryData.constant(1.0, 0.0, 1.0)
        right = BoundaryData.constant(0.0, 1.0, 1.0)
        both = BoundaryData.constant(1.0, 1.0, 1.0)
        want = np.sqrt(trace_norm_surrogate(left, 1.0) ** 2 + trace_norm_surrogate(right, 1.0) ** 2)
        assert trace_norm_surrogate(both, 1.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 128])
    def test_cosine_sum_matches_scipy_dct(self, n):
        dct = pytest.importorskip("scipy.fft").dct

        from heatfvp.boundary import _dct2_ortho

        v = np.random.default_rng(n).standard_normal((n, 2))
        want = dct(v, type=2, norm="ortho", axis=0)
        assert np.linalg.norm(_dct2_ortho(v) - want) <= 1e-13 * np.linalg.norm(want)

    def test_value_matches_scipy_dct_formula(self):
        dct = pytest.importorskip("scipy.fft").dct

        g = ramp_data(0.7, 1.0, -0.5)
        T, n = g.t_final, 128
        vals = g.sample((np.arange(n) + 0.5) * (T / n))
        k = np.arange(n, dtype=float)
        total = 0.0
        for v in vals.T:
            vhat = dct(v, type=2, norm="ortho") * np.sqrt(T / n)
            total += np.sum(v ** 2) * (T / n) + np.sum(np.sqrt(1.0 + k ** 2) * vhat ** 2)
        assert trace_norm_surrogate(g, T) == pytest.approx(np.sqrt(total), rel=1e-13)


class TestSolutionNormH1:
    def test_manufactured_decaying_lift(self, basis16):
        # u = e^{-t} e_1 + (1-t) W with W the lift of (1, 0); the equation
        # then needs the steady source f = -W
        w0 = basis16.lift_coefficients(1.0, 0.0)
        T = 1.0
        ts = np.linspace(0.0, T, 33)
        f = SourceTerm(basis16, np.array([0.0, T]), np.vstack([-w0, -w0]))
        g = BoundaryData(np.array([0.0, T]), np.array([[1.0, 0.0], [0.0, 0.0]]))
        u0 = SpectralVec.from_coefficients(basis16, np.eye(16)[0] + w0)
        traj = solve_ibvp(u0, f, g, ts)
        assert np.allclose(
            traj.final_state.coefficients, np.exp(-1.0) * np.eye(16)[0], rtol=0, atol=1e-14
        )
        s2pi = np.sqrt(2 / np.pi)
        lam = basis16.lambdas
        h1 = 2 * np.exp(-2 * ts) + 2 * s2pi * np.exp(-ts) * (1 - ts) + (1 - ts) ** 2 * (np.pi / 3 + 1 / np.pi)
        l2 = np.exp(-2 * ts) + 2 * s2pi * np.exp(-ts) * (1 - ts) + (1 - ts) ** 2 * np.pi / 3
        cjs = np.exp(-ts)[:, None] * np.eye(16)[0][None, :] + (1 - ts)[:, None] * w0[None, :]
        dual = np.sum(np.abs(cjs) ** 2 / lam, axis=1)
        resid = -w0[None, :] - lam[None, :] * (np.exp(-ts)[:, None] * np.eye(16)[0][None, :])
        rdual = np.sum(np.abs(resid) ** 2 / lam, axis=1)
        want = np.sqrt(np.trapezoid(h1 + dual + rdual, ts) + np.max(l2))
        assert solution_norm_h1(traj) == pytest.approx(want, rel=1e-12)

    def test_steady_unit_state(self, basis16):
        # u identically 1: norm^2 = pi + pi + sum_j b_j^2 / lambda_j
        g = BoundaryData.constant(1.0, 1.0, 1.0)
        b = basis16.lift_coefficients(1.0, 1.0)
        u0 = SpectralVec.from_coefficients(basis16, b)
        traj = solve_ibvp(u0, None, g, np.linspace(0.0, 1.0, 9))
        want = np.sqrt(2 * np.pi + np.sum(b ** 2 / basis16.lambdas))
        assert solution_norm_h1(traj) == pytest.approx(want, rel=1e-12)

    def test_zero_lift_agrees_with_spectral_l2(self, basis16):
        # with g = 0 the pointwise-in-time pieces match the plain
        # coefficient sums
        u0 = unit_state(basis16, 1)
        traj = solve_ibvp(u0, None, None, np.linspace(0.0, 1.0, 33))
        ts = traj.times
        h1 = 2 * np.exp(-2 * ts)
        want = np.sqrt(np.trapezoid(h1 + 2 * np.exp(-2 * ts), ts) + 1.0)
        assert solution_norm_h1(traj) == pytest.approx(want, rel=1e-12)


class TestInhomBackwardSolve:
    def test_round_trip(self, basis16):
        u0c, f, g, fwd = inhom_instance(basis16)
        sol = solve_final_value_inhom(f, g, fwd.final_state, 0.05)
        assert sol.compat.verdict == "compatible"
        assert sol.endpoint_rel_error <= 1e-12
        got = sol.trajectory.initial_state.coefficients
        h_rel = np.sqrt(np.sum(np.abs(got - u0c) ** 2) / np.sum(np.abs(u0c) ** 2))
        assert h_rel <= 1e-9
        # leading modes survive the boundary-term cancellation cleanly
        assert np.allclose(got[:6], u0c[:6], rtol=1e-8)

    def test_rough_data_raises(self, basis64):
        jj = np.arange(1, 65)
        uT = SpectralVec.from_coefficients(basis64, 1.0 / jj)
        g = BoundaryData.constant(0.3, 0.1, 1.0)
        with pytest.raises(IncompatibleDataError):
            solve_final_value_inhom(None, g, uT, 1.0)

    def test_boundary_grid_must_cover_horizon(self, basis16):
        uT = SpectralVec.zero(basis16)
        g = BoundaryData.constant(0.0, 0.0, 0.5)
        with pytest.raises(InvalidSpecError):
            solve_final_value_inhom(None, g, uT, 1.0)

    @pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("with_g", [False, True])
    def test_horizon_must_be_finite_and_positive(self, basis16, T, with_g):
        # a non-finite horizon gets no verdict, not even `inconclusive`
        uT = unit_state(basis16, 1)
        g = BoundaryData.constant(0.0, 0.0, 1.0) if with_g else None
        with pytest.raises(InvalidSpecError):
            solve_final_value_inhom(None, g, uT, T)
        with pytest.raises(InvalidSpecError):
            data_norm_inhom(None, g, uT, T)


class TestInhomDataNorm:
    def test_parts_match_their_sources(self, basis16):
        from heatfvp.duhamel import squared_source_dual_norm

        u0c, f, g, fwd = inhom_instance(basis16)
        T = 0.05
        rep = data_norm_inhom(f, g, fwd.final_state, T)
        assert rep.finite
        assert rep.uT_sq == pytest.approx(triple_norms(fwd.final_state).normH ** 2, rel=1e-12)
        assert rep.trace_sq == pytest.approx(trace_norm_surrogate(g, T) ** 2, rel=1e-12)
        assert rep.source_sq == pytest.approx(squared_source_dual_norm(f, T), rel=1e-12)
        # the backward part is the reconstructed initial state
        assert np.exp(rep.log_backward_sq) == pytest.approx(np.sum(np.abs(u0c) ** 2), rel=1e-9)
        want = np.sqrt(rep.uT_sq + rep.trace_sq + rep.source_sq + np.exp(rep.log_backward_sq))
        assert rep.total == pytest.approx(want, rel=1e-10)

    def test_json_fields(self, basis16):
        rep = data_norm_inhom(None, BoundaryData.constant(0.0, 0.0, 1.0), SpectralVec.zero(basis16), 1.0)
        d = json.loads(strict_json(json_payload(rep)))
        assert set(d) == {"uT_sq", "trace_sq", "source_sq", "log_backward_sq", "log_total", "finite"}
        assert d["log_total"] == "-inf"
        assert d["finite"] is True

    def test_json_refuses_nan(self):
        # the same rule as CompatReport: NaN is refused, not written as "inf"
        rep = YNormReport(1.0, 0.0, np.nan, np.nan, False)
        with pytest.raises(InvalidSpecError):
            strict_json(json_payload(rep))


class TestStabilityRatioFamily:
    def family_instance(self, basis, seed, T=0.05):
        rng = np.random.default_rng(seed)
        jj = np.arange(1, basis.n_modes + 1)
        u0c = rng.choice([-1.0, 1.0], basis.n_modes) * np.exp(-2.2 * jj) * rng.uniform(0.5, 2.0, basis.n_modes)
        fc = rng.choice([-1.0, 1.0], basis.n_modes) * np.exp(-1.2 * T * basis.lambdas) * rng.uniform(0.5, 2.0, basis.n_modes)
        f = SourceTerm(basis, np.array([0.0, T]), np.vstack([fc, rng.uniform(-1, 1) * fc]))
        amp = rng.uniform(0.2, 2.0, 4)
        g = BoundaryData(
            np.array([0.0, T / 2, T]),
            np.array([[0.0, 0.0], [amp[0], amp[1]], [amp[2], amp[3]]]),
        )
        fwd = solve_ibvp(SpectralVec.from_coefficients(basis, u0c), f, g, np.linspace(0.0, T, 17))
        sol = solve_final_value_inhom(f, g, fwd.final_state, T, tgrid=np.linspace(0.0, T, 17))
        return solution_norm_h1(sol.trajectory) / sol.ynorm.total

    def test_ratio_is_uniformly_bounded(self, basis16):
        fit = [self.family_instance(basis16, seed) for seed in range(10)]
        c_fit = max(fit)
        holdout = [self.family_instance(basis16, seed) for seed in range(10, 15)]
        assert all(np.isfinite(r) for r in fit + holdout)
        assert max(holdout) <= 1.25 * c_fit
