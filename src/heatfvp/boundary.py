"""Inhomogeneous Dirichlet data on the interval: harmonic lift, trace
projections, the improper boundary-flux integral, and the one backward
pipeline of the final value problem driven by (f, g, u_T).

The pipeline forms v = u_T - (source yield) [- z(T)] once, runs the
membership heuristic once, takes u(0) from its report, replays the forward
solve, and builds the data-space norm from the same v and report.  g=None
is the problem without a boundary term (`fvp.solve_final_value` is that
case); a BoundaryData, even a zero one, is Dirichlet data on the interval.

Sign convention: `boundary_yield` returns z(t) with mode values
z_j(t) = lambda_j int_0^t e^{-(t-s) lambda_j} w_j(s) ds, where w_j are the
coefficients of the affine lift of g.  With this (positive-kernel) choice
the state assembles as u = (homogeneous part) + z, the final state obeys
u(T) = e^{T Delta} u(0) + (source yield) + z(T), and the backward
compatibility difference is v = u_T - (source yield) - z(T).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .duhamel import (
    SourceTerm,
    Trajectory,
    _trapezoid,
    solve_cauchy,
    source_yield,
    squared_source_dual_norm,
)
from .logspace import kahan_sum, log_sum_exp, logspace_add
from .semigroup import (
    CompatReport,
    IncompatibleDataError,
    InconclusiveDataError,
    MembershipPolicy,
    apply_inverse,
    check_domain_membership,
)
from .spectral import EigenBasis, InvalidSpecError, SpectralVec, rel_distance, triple_norms

TRACE_SURROGATE_SAMPLES = 128


def _require_interval(basis: EigenBasis):
    if basis.spec.kind != "interval":
        raise InvalidSpecError("boundary-value operations are interval-only")


@dataclass
class BoundaryData:
    """Endpoint Dirichlet values, piecewise linear on a time grid.

    `values` has shape (n_nodes, 2) holding (left, right) at each node.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.times.size < 2:
            raise InvalidSpecError("boundary data needs at least two time nodes")
        if np.any(np.diff(self.times) <= 0):
            raise InvalidSpecError("boundary time grid must be strictly increasing")
        if self.values.shape != (self.times.size, 2) or not np.all(np.isfinite(self.values)):
            raise InvalidSpecError("boundary values must be a finite (n_nodes, 2) array")

    @classmethod
    def constant(cls, g_left: float, g_right: float, T: float) -> "BoundaryData":
        return cls(np.array([0.0, float(T)]), np.array([[g_left, g_right]] * 2))

    @classmethod
    def zero(cls, T: float) -> "BoundaryData":
        return cls.constant(0.0, 0.0, T)

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0.0))

    def sample(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if np.any(ts < self.times[0] - 1e-12) or np.any(ts > self.times[-1] + 1e-12):
            raise InvalidSpecError("sample times outside the boundary grid")
        idx = np.clip(np.searchsorted(self.times, ts, side="right") - 1, 0, self.times.size - 2)
        t0 = self.times[idx]
        t1 = self.times[idx + 1]
        w = ((ts - t0) / (t1 - t0))[:, None]
        return (1.0 - w) * self.values[idx] + w * self.values[idx + 1]

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out)
        w.writerow(["t", "g_left", "g_right"])
        for t, (gl, gr) in zip(self.times, self.values):
            w.writerow([repr(float(t)), repr(float(gl)), repr(float(gr))])
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "BoundaryData":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or [h.strip() for h in rows[0]] != ["t", "g_left", "g_right"]:
            raise InvalidSpecError("boundary CSV header must be t,g_left,g_right")
        data = [[float(x) for x in row] for row in rows[1:] if row]
        arr = np.array(data)
        return cls(arr[:, 0], arr[:, 1:])


@dataclass(frozen=True)
class HarmonicLift:
    """Affine interior extension of one pair of endpoint values."""

    basis: EigenBasis
    g_left: float
    g_right: float

    @property
    def slope(self) -> float:
        (L,) = self.basis.spec.lengths
        return (self.g_right - self.g_left) / L

    def values(self, points=None) -> np.ndarray:
        x = self.basis.axes[0] if points is None else np.asarray(points, dtype=float)
        return self.g_left + self.slope * x

    @property
    def coefficients(self) -> np.ndarray:
        """Closed-form sine coefficients; no quadrature involved."""
        return self.basis.lift_coefficients(self.g_left, self.g_right)


def harmonic_lift(g_left: float, g_right: float, basis: EigenBasis) -> HarmonicLift:
    """Solve the (1-d) boundary Poisson problem: the interior function with
    zero second derivative matching the endpoint values."""
    _require_interval(basis)
    return HarmonicLift(basis, float(g_left), float(g_right))


@dataclass(frozen=True)
class BoundarySplit:
    """Decomposition of grid samples into zero-trace + harmonic parts."""

    zero_trace: np.ndarray
    harmonic: np.ndarray
    lift: HarmonicLift


def boundary_split(samples, basis: EigenBasis) -> BoundarySplit:
    """Project samples onto the zero-trace and harmonic complements.

    The harmonic projection is the lift of the endpoint samples, so
    idempotency and the partition of unity hold pointwise by construction.
    """
    _require_interval(basis)
    u = np.asarray(samples, dtype=float)
    if u.shape != basis.axes[0].shape:
        raise InvalidSpecError("samples must live on the basis quadrature grid")
    lift = harmonic_lift(u[0], u[-1], basis)
    harm = lift.values()
    return BoundarySplit(u - harm, harm, lift)


@dataclass
class LiftPath:
    """Time-dependent affine lift of boundary data against a basis."""

    g: BoundaryData
    basis: EigenBasis

    def __post_init__(self):
        _require_interval(self.basis)
        # lift coefficients are linear in (g_left, g_right); precompute both columns
        self._col_left = self.basis.lift_coefficients(1.0, 0.0)
        self._col_right = self.basis.lift_coefficients(0.0, 1.0)

    def ab(self, ts):
        """Offset a and slope b of the lift a + b x at each time."""
        vals = self.g.sample(ts)
        (L,) = self.basis.spec.lengths
        return vals[:, 0], (vals[:, 1] - vals[:, 0]) / L

    def coeff_matrix(self, ts) -> np.ndarray:
        vals = self.g.sample(ts)
        return np.outer(vals[:, 0], self._col_left) + np.outer(vals[:, 1], self._col_right)


def boundary_yield(g: BoundaryData, t: float, basis: EigenBasis) -> SpectralVec:
    """z(t): the state accumulated from boundary data alone.

    Mode-wise z_j(t) = lambda_j int_0^t e^{-(t-s) lambda_j} w_j(s) ds with
    the lift coefficients w_j(s) piecewise linear, integrated in closed form
    per subinterval.
    """
    _require_interval(basis)
    if t <= 0 or t > g.t_final + 1e-12:
        raise InvalidSpecError("evaluation time must lie in (0, T] of the boundary data")
    lift = LiftPath(g, basis)
    lam = basis.lambdas
    traj = solve_cauchy(
        SpectralVec.zero(basis),
        None,
        np.array([float(t)]),
        lift_coeff_path=lambda ts: lift.coeff_matrix(ts) * lam[None, :],
        extra_times=g.times,
    )
    return traj.final_state


def partial_boundary_yield(g: BoundaryData, t: float, eps: float, basis: EigenBasis) -> SpectralVec:
    """Proper part int_0^{t-eps} of the boundary integral, for the sweep
    that demonstrates convergence of the improper integral."""
    if not 0.0 < eps < t:
        raise InvalidSpecError("need 0 < eps < t")
    inner = boundary_yield(g, t - eps, basis)
    return inner.scale_log(-eps * basis.lambdas)


@dataclass(frozen=True)
class SweepReport:
    """Cauchy diagnostics for the eps -> 0 limit of the boundary integral."""

    eps: np.ndarray
    increments: np.ndarray   # H-norm distances between consecutive partials
    fitted_rate: float       # exponent of the power-law fit of increments vs eps
    limit_gap: float         # H-norm distance of the last partial to the full value


def boundary_yield_sweep(g: BoundaryData, t: float, basis: EigenBasis, exponents=range(3, 11)) -> SweepReport:
    """Evaluate the partial integrals at eps = 2^{-k} t and report how they
    contract toward the improper-integral value."""
    eps = np.array([t * 2.0 ** -k for k in exponents])
    partials = [partial_boundary_yield(g, t, e, basis) for e in eps]
    full = boundary_yield(g, t, basis)
    diffs = np.array([
        triple_norms(b - a).normH for a, b in zip(partials[:-1], partials[1:])
    ])
    gap = triple_norms(full - partials[-1]).normH
    pos = diffs > 0
    if np.count_nonzero(pos) >= 2:
        # increments between eps_k and eps_{k+1} attach to the larger eps
        slope = np.polyfit(np.log(eps[:-1][pos]), np.log(diffs[pos]), 1)[0]
    else:
        slope = np.inf
    return SweepReport(eps, diffs, float(slope), float(gap))


def solve_ibvp(u0: SpectralVec, f: SourceTerm | None, g: BoundaryData | None, tgrid) -> Trajectory:
    """Forward solve with Dirichlet boundary data.

    The boundary enters as the extra mode-wise source lambda_j w_j(t); with
    g identically zero this is exactly solve_cauchy.  The returned
    trajectory carries the lift path so full first-order space norms and
    pointwise synthesis include the boundary part.
    """
    _require_interval(u0.basis)
    if g is None or g.is_zero:
        t_end = f.t_final if f is not None else float(np.asarray(tgrid, dtype=float)[-1])
        traj = solve_cauchy(u0, f, tgrid)
        traj.lift = LiftPath(BoundaryData.zero(t_end), u0.basis)
        return traj
    lift = LiftPath(g, u0.basis)
    lam = u0.basis.lambdas
    traj = solve_cauchy(
        u0,
        f,
        tgrid,
        lift_coeff_path=lambda ts: lift.coeff_matrix(ts) * lam[None, :],
        extra_times=g.times,
    )
    traj.lift = lift
    return traj


def flow_identity_residual(traj: Trajectory, g: BoundaryData | None) -> float:
    """Relative H-norm residual of the final-state identity
    u(T) = e^{T Delta} u(0) + source yield + z(T) on a computed trajectory."""
    basis = traj.basis
    T = float(traj.times[-1])
    rhs = traj.initial_state.scale_log(-T * basis.lambdas)
    if traj.source is not None:
        rhs = rhs + source_yield(traj.source, T)
    if g is not None and not g.is_zero:
        rhs = rhs + boundary_yield(g, T, basis)
    return rel_distance(traj.final_state, rhs)


def assemble_with_lift_perturbation(
    u0: SpectralVec,
    f: SourceTerm | None,
    g: BoundaryData,
    phi: SourceTerm,
    tgrid,
) -> list:
    """Cross-check assembly of the boundary solve through a perturbed lift.

    Any interior path phi(t) with zero trace can be added to the affine
    lift; the two extra convolution terms it introduces cancel exactly in
    the algebra, so the assembled states must match solve_ibvp.  Computing
    them separately and letting them cancel numerically is the point of
    this mode.
    """
    _require_interval(u0.basis)
    basis = u0.basis
    lam = basis.lambdas
    ts = np.asarray(tgrid, dtype=float)
    lift = LiftPath(g, basis)

    base = solve_cauchy(u0, f, ts, extra_times=np.union1d(g.times, phi.times))
    # interior Laplacian of the perturbation acts as the source -lambda*phi
    phi_src = SourceTerm(basis, phi.times, phi.coeffs * lam[None, :])
    term_phi = solve_cauchy(SpectralVec.zero(basis), phi_src, ts, extra_times=g.times)
    # boundary term with the perturbed lift w + phi
    merged = np.union1d(g.times, phi.times)
    wtilde = lift.coeff_matrix(merged) + phi.sample(merged)
    tilde_src = SourceTerm(basis, merged, wtilde * lam[None, :])
    term_lift = solve_cauchy(SpectralVec.zero(basis), tilde_src, ts)

    p, l = logspace_add(base.phase, base.logmag, -term_phi.phase, term_phi.logmag)
    p, l = logspace_add(p, l, term_lift.phase, term_lift.logmag)
    return [SpectralVec(basis, pk, lk) for pk, lk in zip(p, l)]


# -- data-space norm with boundary term ----------------------------------

def _dct2_ortho(values: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II along the first axis, as a direct cosine sum:
    X_k = s_k sum_n x_n cos(pi k (2n+1) / 2N), s_0 = 1/sqrt(N), s_k = sqrt(2/N)."""
    n = values.shape[0]
    k = np.arange(n)
    # reduce k(2n+1) mod 4N in integers so every cosine argument stays in [0, 2pi)
    angle = (np.outer(k, 2 * k + 1) % (4 * n)) * (np.pi / (2 * n))
    scale = np.full(n, np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    return (scale[:, None] * np.cos(angle)) @ values


def trace_norm_surrogate(g: BoundaryData, T: float | None = None) -> float:
    """Half-order Sobolev surrogate of the boundary signal in time.

    Per endpoint: ||g||^2_{L2(0,T)} plus sum_k (1+k^2)^{1/2} |ghat_k|^2 over
    a discrete cosine expansion on a fixed uniform resampling.  This stands
    in for the trace-space norm; it is documented as a surrogate, not the
    intrinsic parabolic trace norm.
    """
    T = g.t_final if T is None else float(T)
    n = TRACE_SURROGATE_SAMPLES
    mid = (np.arange(n) + 0.5) * (T / n)
    vals = g.sample(mid)
    vhat = _dct2_ortho(vals) * np.sqrt(T / n)
    total = 0.0
    k = np.arange(n, dtype=float)
    for col in range(2):
        v = vals[:, col]
        l2_sq = float(np.sum(v ** 2) * (T / n))
        total += l2_sq + float(np.sum(np.sqrt(1.0 + k ** 2) * vhat[:, col] ** 2))
    return float(np.sqrt(total))


# -- the final value problem ---------------------------------------------

@dataclass(frozen=True)
class YNormReport:
    """Squared parts of the data-space graph norm.

    parts: |u_T|^2, the trace surrogate of g squared (`trace_sq`, None
    without a boundary term), int ||f||_*^2 dt, and the backward state
    |e^{T A} v|^2 -- the last one in log space since it rides the inverse
    flow.  `finite` mirrors the membership verdict.
    """

    uT_sq: float
    source_sq: float
    log_backward_sq: float
    log_total: float
    finite: bool
    trace_sq: float | None = None

    @property
    def total(self) -> float:
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_total))

    def to_json(self) -> str:
        def clean(x):
            return x if np.isfinite(x) else ("-inf" if x < 0 else "inf")

        names = ("uT_sq", "trace_sq", "source_sq", "log_backward_sq", "log_total")
        payload = {k: clean(v) for k in names if (v := getattr(self, k)) is not None}
        return json.dumps({**payload, "finite": self.finite}, sort_keys=True)


@dataclass
class FvpSolution:
    """Everything a backward solve produces."""

    trajectory: Trajectory
    compat: CompatReport
    ynorm: YNormReport
    endpoint_rel_error: float


def _validate_final_data(f, g, u_T, T):
    """Reject a horizon that is not finite and positive and a source or
    boundary grid short of [0, T]; boundary data need the interval."""
    if not (math.isfinite(T) and T > 0):
        raise InvalidSpecError("horizon T must be finite and positive")
    if f is not None:
        if not f.basis.same_as(u_T.basis):
            raise InvalidSpecError("source and final state use different bases")
        if f.t_final < T - 1e-12:
            raise InvalidSpecError("source grid must cover [0, T]")
    if g is not None:
        _require_interval(u_T.basis)
        if g.t_final < T - 1e-12:
            raise InvalidSpecError("boundary grid must cover [0, T]")


def _admissible_part(f, g, u_T, T, policy):
    """v = u_T - (source yield) [- z(T) if g is not None] and its
    membership report."""
    _validate_final_data(f, g, u_T, T)
    basis = u_T.basis
    y = source_yield(f, T) if f is not None else SpectralVec.zero(basis)
    v = u_T - y
    if g is not None:
        v = v - (boundary_yield(g, T, basis) if not g.is_zero else SpectralVec.zero(basis))
    return v, check_domain_membership(v, T, policy)


def _data_norm(f, g, u_T, T, v, report) -> YNormReport:
    """Graph norm of the data from the difference v and its report:
    (|u_T|^2 [+ trace surrogate of g^2] + int ||f||_*^2 + |e^{T A} v|^2)^{1/2}."""
    back = report.u0 if report.u0 is not None else apply_inverse(v, T)
    log_back_sq = log_sum_exp(2.0 * back.logmag)
    uT_sq = triple_norms(u_T).normH ** 2
    f_sq = squared_source_dual_norm(f, T) if f is not None else 0.0
    trace_sq = trace_norm_surrogate(g, T) ** 2 if g is not None else None
    squares = (uT_sq, f_sq) if g is None else (uT_sq, trace_sq, f_sq)
    parts = [np.log(s) if s > 0 else -np.inf for s in squares] + [log_back_sq]
    log_total = 0.5 * log_sum_exp(parts)
    return YNormReport(uT_sq, f_sq, log_back_sq, log_total, report.verdict == "compatible", trace_sq)


def _backward_norm(f, g, u_T, T, policy) -> YNormReport:
    return _data_norm(f, g, u_T, T, *_admissible_part(f, g, u_T, T, policy))


def _backward_solve(f, g, u_T, T, policy, tgrid) -> FvpSolution:
    """Form v once, certify it, take u(0) = e^{T A} v from the report, and
    replay the forward solve, which must land back on u_T."""
    v, report = _admissible_part(f, g, u_T, T, policy)
    if report.verdict == "incompatible":
        raise IncompatibleDataError(report)
    if report.verdict == "inconclusive":
        raise InconclusiveDataError(report)
    if tgrid is None:
        tgrid = f.times if f is not None else np.linspace(0.0, T, 33)
    tgrid = np.asarray(tgrid, dtype=float)
    traj = solve_cauchy(report.u0, f, tgrid) if g is None else solve_ibvp(report.u0, f, g, tgrid)
    end_err = rel_distance(traj.final_state, u_T)
    return FvpSolution(traj, report, _data_norm(f, g, u_T, T, v, report), float(end_err))


def check_final_data(
    f: SourceTerm | None,
    g: BoundaryData | None,
    u_T: SpectralVec,
    T: float,
    policy: MembershipPolicy | None = None,
) -> CompatReport:
    """Membership report of u_T - (source yield) [- z(T)]: the verdict a
    backward solve would act on, without the solve."""
    return _admissible_part(f, g, u_T, T, policy)[1]


def data_norm_inhom(
    f: SourceTerm | None,
    g: BoundaryData | None,
    u_T: SpectralVec,
    T: float,
    policy: MembershipPolicy | None = None,
) -> YNormReport:
    """Data-space graph norm of (f, g, u_T); g=None leaves out the trace part."""
    return _backward_norm(f, g, u_T, T, policy)


def solve_final_value_inhom(
    f: SourceTerm | None,
    g: BoundaryData | None,
    u_T: SpectralVec,
    T: float,
    policy: MembershipPolicy | None = None,
    tgrid=None,
) -> FvpSolution:
    """Backward solve with boundary data.

    Forms v = u_T - (source yield) - z(T), runs the membership heuristic,
    reconstructs u(0) = e^{T A} v on `compatible`, and replays the forward
    boundary solve.  g=None is the problem without a boundary term.
    """
    return _backward_solve(f, g, u_T, T, policy, tgrid)


# -- full first-order space-time norm -------------------------------------

def solution_norm_h1(traj: Trajectory) -> float:
    """Space-time norm with the full first-order space norm.

    Square root of int ||u||_{H^1}^2 dt + sup_t ||u||_{L2}^2 + int
    (||u||_{H^{-1}}^2 + ||u'||_{H^{-1}}^2) dt.  The supremum term is kept:
    for boundary-driven runs it is not dominated by the other two terms.
    Spatial pieces use the exact affine-lift formulas plus the spectral
    part; u' comes from the equation.  Every node is one row of the same
    array pass.
    """
    if traj.times.size < 2:
        raise InvalidSpecError("a trajectory norm needs at least two nodes")
    basis = traj.basis
    _require_interval(basis)
    (L,) = basis.spec.lengths
    lam = basis.lambdas
    n = traj.times.size
    if traj.lift is not None:
        a, b = traj.lift.ab(traj.times)
        w = traj.lift.coeff_matrix(traj.times)
    else:
        a = b = np.zeros(n)
        w = np.zeros((n, basis.n_modes))
    f_nodes = traj.source.sample(traj.times) if traj.source is not None else np.zeros((n, basis.n_modes), dtype=complex)
    c = traj.state_coeff_matrix()
    # zero-trace part p plus the affine lift, with exact lift integrals
    p = c - w
    p2 = np.abs(p) ** 2
    lift_l2_sq = (np.abs(a) ** 2) * L + np.real(np.conj(a) * b) * L ** 2 + (np.abs(b) ** 2) * L ** 3 / 3.0
    cross = 2.0 * np.real(np.vecdot(w, p))  # <p, lift> over the span
    l2_sq = kahan_sum(p2) + cross + lift_l2_sq
    h1_sq = l2_sq + (kahan_sum(lam * p2) + (np.abs(b) ** 2) * L)
    dual_sq = kahan_sum(np.abs(c) ** 2 / lam)
    res_dual_sq = kahan_sum(np.abs(f_nodes - lam * p) ** 2 / lam)
    total = (
        _trapezoid(h1_sq, traj.times)
        + float(np.max(l2_sq))
        + _trapezoid(dual_sq, traj.times)
        + _trapezoid(res_dual_sq, traj.times)
    )
    return float(np.sqrt(total))
