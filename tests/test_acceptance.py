"""Acceptance gate: ten end-to-end checks at fixed tolerances.

Each check prints exactly one pass/fail line.  The flow-identity check at
the end re-examines every initial-boundary solve performed by the suite,
so the checks before it register their trajectories in _IBVP_RUNS.
"""

import time

import numpy as np

from heatfvp import boundary as bd
from heatfvp import duhamel as dh
from heatfvp import fdoracle as fd
from heatfvp import fvp
from heatfvp import generator as gl
from heatfvp import spectral as sp
from heatfvp.semigroup import MembershipPolicy, check_domain_membership
from heatfvp.spectral import DomainSpec, SpectralVec, build_basis

_IBVP_RUNS: list = []


def tracked_ibvp(u0, f, g, tgrid):
    traj = bd.solve_ibvp(u0, f, g, tgrid)
    _IBVP_RUNS.append((traj, g))
    return traj


def _verdict(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _interval_basis(n_modes: int):
    return build_basis(DomainSpec("interval", (np.pi,), n_modes))


def test_criterion_01_backward_growth_table():
    t0 = time.perf_counter()
    basis = _interval_basis(30)
    rows = fvp.instability_table(basis, 1.0, 30)
    bad = []
    for row in rows:
        want = float(row.j * row.j)
        if abs(row.log_initial_norm - want) > 1e-10 * want:
            bad.append(row.j)
        if row.final_norm != 1.0:
            bad.append(row.j)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _verdict(1, ok, f"unit final states blow up like exp(T j^2) for j<=30, "
                    f"{elapsed:.3f}s")


def test_criterion_02_round_trip_well_posedness():
    t0 = time.perf_counter()
    basis = _interval_basis(64)
    j = np.arange(1, 65)
    worst_u0 = worst_end = 0.0
    n_compat = 0
    for k in range(100):
        rng = np.random.default_rng(k)
        u0 = SpectralVec.from_coefficients(
            basis,
            rng.uniform(0.5, 1.0, 64) * rng.choice([-1.0, 1.0], 64) * np.exp(-j),
        )
        ts = np.linspace(0.0, 1.0, 5)
        fc = rng.choice([-1.0, 1.0], 64) * np.exp(-1.2 * basis.lambdas)
        f = dh.SourceTerm(basis, ts, np.outer(rng.uniform(0.5, 1.0, 5), fc))
        u_T = dh.solve_cauchy(u0, f, ts).final_state
        sol = fvp.solve_final_value(fvp.FinalValueData(f, u_T, 1.0))
        n_compat += sol.compat.verdict == "compatible"
        worst_u0 = max(worst_u0, sp.rel_distance(sol.trajectory.initial_state, u0))
        worst_end = max(worst_end, sol.endpoint_rel_error)
    elapsed = time.perf_counter() - t0
    ok = (n_compat == 100 and worst_u0 <= 1e-7 and worst_end <= 1e-8
          and elapsed < 10.0)
    _verdict(2, ok, f"100/100 compatible, worst u0 rel {worst_u0:.2e}, "
                    f"worst endpoint rel {worst_end:.2e}, {elapsed:.2f}s")


def test_criterion_03_incompatibility_detection():
    basis = _interval_basis(64)
    policy = MembershipPolicy(cutoffs=(16, 32, 64))
    j = np.arange(1, 65)
    min_growth = np.inf
    ok = True
    for coeffs in (1.0 / j, np.exp(-j)):
        rep = check_domain_membership(
            SpectralVec.from_coefficients(basis, coeffs), 1.0, policy
        )
        ok = ok and rep.verdict == "incompatible"
        diffs = np.diff(rep.log_graph_norms)
        # >= 10x growth of the partial graph norms between cutoffs
        ok = ok and bool(np.all(diffs >= np.log(10.0)))
        min_growth = min(min_growth, float(np.min(diffs)))
    smooth = check_domain_membership(
        SpectralVec.from_coefficients(basis, np.exp(-1.5 * basis.lambdas)),
        1.0, policy,
    )
    ok = ok and smooth.verdict == "compatible"
    _verdict(3, ok, f"rough tails incompatible (min log-norm growth "
                    f"{min_growth:.0f}), smooth tail compatible")


def test_criterion_04_oracle_agreement():
    t0 = time.perf_counter()
    basis = _interval_basis(16)
    L = np.pi
    T = 0.5
    kinds = ["decay", "source", "boundary", "all"]

    def fd_error(u0, f, g, m, n):
        x = np.linspace(0.0, L, m + 2)
        u0s = np.real(sp.synthesize(u0, x))
        if g is not None:
            u0s[0], u0s[-1] = g.sample([0.0])[0]
        src = None
        if f is not None:
            sines = basis.mode_values(x[1:-1])

            def src(xin, t, sines=sines):
                return np.real(f.sample([t])[0] @ sines)

        res = fd.fd_solve(u0s, src, g, L, T, n, fd.FdScheme(0.5, m))
        ref = tracked_ibvp(u0, f, g, np.linspace(0.0, T, 9)).final_state
        return sp.rel_distance(sp.project_samples(res.u_final, res.x, basis), ref)

    worst_ratio = np.inf
    worst_c = 0.0
    n_boundary = 0
    ok = True
    for k in range(10):
        rng = np.random.default_rng(k)
        kind = kinds[k % 4]
        jj = np.arange(1, 17)
        u0 = SpectralVec.from_coefficients(
            basis, rng.standard_normal(16) * np.exp(-1.5 * jj)
        )
        f = g = None
        if kind in ("source", "all"):
            ts = np.linspace(0.0, T, 5)
            fc = rng.standard_normal(16) * np.exp(-0.3 * basis.lambdas)
            f = dh.SourceTerm(basis, ts, np.outer(np.linspace(1.0, 0.4, 5), fc))
        if kind in ("boundary", "all"):
            gl_, gr_ = rng.uniform(-1.0, 1.0, 2)
            # ramp from zero so the corner values agree with the zero-trace u0
            g = bd.BoundaryData(np.array([0.0, T]),
                                np.array([[0.0, 0.0], [gl_, gr_]]))
            n_boundary += 1
        coarse = fd_error(u0, f, g, 31, 16)
        fine = fd_error(u0, f, g, 63, 32)
        budget = (L / 32) ** 2 + (T / 16) ** 2
        ok = ok and fine < coarse and coarse / fine >= 3.5
        ok = ok and coarse <= 2.0 * budget
        worst_ratio = min(worst_ratio, coarse / fine)
        worst_c = max(worst_c, coarse / budget)
    elapsed = time.perf_counter() - t0
    ok = ok and n_boundary >= 4 and elapsed < 30.0
    _verdict(4, ok, f"10 instances ({n_boundary} with boundary data), "
                    f"min refinement ratio {worst_ratio:.2f}, "
                    f"max error/(dx^2+dt^2) {worst_c:.2f}, {elapsed:.2f}s")


def test_criterion_05_energy_and_sobolev_bounds():
    basis = _interval_basis(16)
    lam_max = float(basis.lambdas[-1])
    rng = np.random.default_rng(2026)
    j = np.arange(1, 17)
    violations = 0
    for k in range(200):
        T = float(rng.uniform(0.5, 1.5))
        u0 = SpectralVec.from_coefficients(
            basis, rng.standard_normal(16) * np.exp(-0.2 * j)
        )
        f = None
        if k % 2:
            ts = np.linspace(0.0, T, 4)
            coeffs = rng.standard_normal((4, 16)) * np.exp(-0.05 * basis.lambdas)
            f = dh.SourceTerm(basis, ts, coeffs)
        # resolve the stiffest mode so the quadrature cannot inflate the
        # left-hand side
        h = min(T / 32, 0.4 / lam_max)
        tgrid = np.linspace(0.0, T, int(np.ceil(T / h)) + 1)
        rep = dh.check_energy_estimate(dh.solve_cauchy(u0, f, tgrid))
        violations += (not rep.energy_ok) + (not rep.sobolev_ok)
    _verdict(5, violations == 0,
             f"energy and sup-norm bounds on 200 random instances, "
             f"{violations} violations")


def test_criterion_06_trace_split_identities():
    basis = _interval_basis(16)
    xs = basis.axes[0]
    rng = np.random.default_rng(6)
    j = np.arange(1, 17)
    worst = 0.0
    for _ in range(100):
        vec = SpectralVec.from_coefficients(
            basis, rng.standard_normal(16) * np.exp(-0.5 * j)
        )
        a, b = rng.uniform(-2.0, 2.0, 2)
        samples = np.real(sp.synthesize(vec, xs)) + a + b * xs
        scale = max(1.0, float(np.max(np.abs(samples))))
        tol = 1e-8 * scale

        split = bd.boundary_split(samples, basis)
        # partition of unity
        worst = max(worst, float(np.max(np.abs(
            split.zero_trace + split.harmonic - samples))) / scale)
        ok = np.max(np.abs(split.zero_trace + split.harmonic - samples)) <= tol
        # lifting the trace of the sample reproduces the harmonic part
        relift = bd.harmonic_lift(samples[0], samples[-1], basis).values()
        ok = ok and np.max(np.abs(relift - split.harmonic)) <= tol
        # the lift hits its boundary values exactly
        ends = split.lift.values(np.array([0.0, np.pi]))
        ok = ok and abs(ends[0] - samples[0]) <= tol
        ok = ok and abs(ends[1] - samples[-1]) <= tol
        # projecting twice changes nothing
        again = bd.boundary_split(split.zero_trace, basis)
        ok = ok and np.max(np.abs(again.zero_trace - split.zero_trace)) <= tol
        ok = ok and np.max(np.abs(again.harmonic)) <= tol
        if not ok:
            _verdict(6, False, "trace split identity broke")
    _verdict(6, True, f"split identities on 100 random samples, "
                      f"worst rel defect {worst:.1e}")


def test_criterion_07_boundary_yield_convergence():
    basis = _interval_basis(16)
    T = 1.0
    ok = True
    for k in range(10):
        rng = np.random.default_rng(70 + k)
        g = bd.BoundaryData(
            np.array([0.0, T / 3, T]), rng.uniform(-1.0, 1.0, (3, 2))
        )
        rep = bd.boundary_yield_sweep(g, T, basis)
        inc = np.asarray(rep.increments)
        ok = ok and bool(np.all(np.diff(inc) < 0))
        ok = ok and 0.0 < rep.limit_gap < inc[0]

    ones = bd.BoundaryData.constant(1.0, 1.0, T)
    z = bd.boundary_yield(ones, T, basis)
    b = basis.lift_coefficients(1.0, 1.0)
    want = b * (1.0 - np.exp(-T * basis.lambdas))
    closed = float(np.max(np.abs(z.coefficients - want) / np.abs(want).max()))
    ok = ok and np.allclose(z.coefficients, want, rtol=1e-10, atol=1e-14)

    rng = np.random.default_rng(77)
    tsg = np.array([0.0, 0.4, T])
    g1 = bd.BoundaryData(tsg, rng.uniform(-1.0, 1.0, (3, 2)))
    g2 = bd.BoundaryData(tsg, rng.uniform(-1.0, 1.0, (3, 2)))
    gmix = bd.BoundaryData(tsg, 2.0 * g1.values - 3.0 * g2.values)
    zmix = bd.boundary_yield(gmix, T, basis)
    want_mix = (bd.boundary_yield(g1, T, basis).scaled(2.0)
                - bd.boundary_yield(g2, T, basis).scaled(3.0))
    lin = sp.rel_distance(zmix, want_mix)
    ok = ok and lin <= 1e-10
    _verdict(7, ok, f"10 improper-integral sweeps Cauchy, constant-data "
                    f"closed form rel {closed:.1e}, linearity rel {lin:.1e}")


def test_criterion_08_steady_state_physics():
    basis = _interval_basis(16)
    g = bd.BoundaryData.constant(1.0, 1.0, 5.0)
    traj = tracked_ibvp(SpectralVec.zero(basis), None, g,
                        np.linspace(0.0, 5.0, 101))
    ones = SpectralVec.from_coefficients(basis, basis.lift_coefficients(1.0, 1.0))
    gap = sp.norm_h(traj.final_state - ones)
    bound = np.sqrt(np.pi) * np.exp(-5.0) + 1e-6
    _verdict(8, gap <= bound,
             f"unit-boundary state reaches 1: gap {gap:.4e} <= {bound:.4e}")


def test_criterion_09_generator_semigroup_checks():
    ok = True
    worst_law = 0.0
    for i in range(50):
        dim = int(np.random.default_rng(i).integers(2, 9))
        gen = gl.random_elliptic(dim, seed=i)
        inj = gl.check_injectivity(gen, [0.1, 1.0, 10.0])
        ok = ok and inj.all_positive
        rng = np.random.default_rng(1000 + i)
        s, t = rng.uniform(0.1, 1.0, 2)
        # one stacked call; each matrix has the bits of the scalar call
        lhs, e_s, e_t = gl.exp_semigroup(gen, [s + t, s, t])
        rhs = e_s @ e_t
        law = float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))
        worst_law = max(worst_law, law)
        ok = ok and law <= 1e-10
        sec = gl.check_sectoriality(gen)
        ok = ok and np.isfinite(sec.sup_value)
        ok = ok and np.isfinite(sec.argmax_lambda)

    sa = gl.random_selfadjoint(6, seed=11)
    # uniform grid away from t=0: divided differences amplify rounding of
    # log h by 1/dt^2, which swamps the tolerance on a geometric grid
    conv = gl.check_logconvexity_criterion(
        sa, trials=1000, seed=3, times=np.linspace(0.1, 5.0, 33)
    )
    ok = ok and conv.criterion_fraction == 1.0
    ok = ok and conv.logconvex_fraction == 1.0
    ok = ok and conv.min_second_divdiff >= -1e-10
    _verdict(9, ok, f"50 elliptic generators injective with finite sector "
                    f"sup, semigroup law worst {worst_law:.1e}, selfadjoint "
                    f"criterion {conv.n_trials}/{conv.n_trials}, "
                    f"min divided diff {conv.min_second_divdiff:.1e}")


def test_criterion_10_flow_identity_everywhere():
    basis = _interval_basis(16)
    T = 0.4
    for k in range(5):
        rng = np.random.default_rng(100 + k)
        j = np.arange(1, 17)
        u0 = SpectralVec.from_coefficients(
            basis, rng.standard_normal(16) * np.exp(-0.8 * j)
        )
        ts = np.linspace(0.0, T, 4)
        f = dh.SourceTerm(
            basis, ts, rng.standard_normal((4, 16)) * np.exp(-0.2 * basis.lambdas)
        )
        g = bd.BoundaryData(
            np.array([0.0, T / 2, T]), rng.uniform(-1.0, 1.0, (3, 2))
        )
        tracked_ibvp(u0, f, g, np.linspace(0.0, T, 9))

    worst = 0.0
    for traj, g in _IBVP_RUNS:
        worst = max(worst, bd.flow_identity_residual(traj, g))
    ok = len(_IBVP_RUNS) >= 5 and worst <= 1e-10
    _verdict(10, ok, f"final state = decayed start + source yield + boundary "
                     f"yield on {len(_IBVP_RUNS)} solves, worst rel residual "
                     f"{worst:.1e}")
