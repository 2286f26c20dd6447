"""Inhomogeneous Dirichlet data on the interval: harmonic lift, trace
projections, the improper boundary-flux integral and its eps-sweep, and the
one backward pipeline of the final value problem driven by (f, g, u_T).

g enters the one forward path of `duhamel` as the lift forcing
lambda_j w_j(t): `solve_ibvp` is `solve_cauchy` with a `LiftPath` (exactly
`solve_cauchy` with g=None), z(T) and the source yield are T rows of
marches from the zero state, and the sweep reads every partial integral
and its limit off one such march.  The pipeline forms v = u_T - (source yield)
[- z(T)] once (without a source, v starts as u_T itself and no zero yield is
built), runs the membership heuristic once, takes u(0) from its
report, replays the forward solve, and builds the data-space norm from the
same v and report.  The replay's trajectory joins its rows when they are
read: the endpoint check joins the T row alone, u(0) is its first row as
it is, and the other rows are joined only for a caller that reads them.
Without boundary data or with a zero g (which marches nothing), a replay
on the yield grid (f's nodes in [0, T] plus 0 and T: the default, or any
tgrid whose nodes lie on it) joins e^{-tA} u(0) with the yield march's
rows, so the solve marches once.  g=None is the problem
without a boundary term (`fvp.solve_final_value` is that case); a
BoundaryData, even a zero one, is Dirichlet data on the interval.

Sign convention: `boundary_yield` returns z(t) with mode values
z_j(t) = lambda_j int_0^t e^{-(t-s) lambda_j} w_j(s) ds, where w_j are the
coefficients of the affine lift of g.  With this (positive-kernel) choice
the state assembles as u = (homogeneous part) + z, the final state obeys
u(T) = e^{T Delta} u(0) + (source yield) + z(T), and the backward
compatibility difference is v = u_T - (source yield) - z(T).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .duhamel import (
    _TIME_RTOL,
    SourceTerm,
    Trajectory,
    _default_grid,
    _forward,
    _interpolate,
    _node_times,
    _parse_node_csv,
    _trapezoid,
    _validate_tgrid,
    _yield,
    solve_cauchy,
    source_yield,
    squared_source_dual_norm,
)
from .logspace import InvalidSpecError, _real, log_sum_exp, logspace_add, merge_phase
from .semigroup import (
    CompatReport,
    IncompatibleDataError,
    InconclusiveDataError,
    MembershipPolicy,
    apply_forward,
    apply_inverse,
    check_domain_membership,
)
from .spectral import (
    EigenBasis,
    SpectralVec,
    _check_horizon,
    _read_only,
    _stacked_norms,
    rel_distance,
    triple_norms,
)

TRACE_SURROGATE_SAMPLES = 128
_CSV_HEADER = ["t", "g_left", "g_right"]


@dataclass
class BoundaryData:
    """Endpoint Dirichlet values, piecewise linear on a time grid.

    `values` has shape (n_nodes, 2) holding (left, right) at each node.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = _node_times(self.times, "boundary data")
        self.values = _real(self.values, "boundary values")
        if self.values.shape != (self.times.size, 2) or not np.all(np.isfinite(self.values)):
            raise InvalidSpecError("boundary values must be a finite (n_nodes, 2) array")

    @classmethod
    def constant(cls, g_left: float, g_right: float, T: float) -> "BoundaryData":
        return cls(np.array([0.0, float(T)]), np.array([[g_left, g_right]] * 2))

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0.0))

    def sample(self, ts) -> np.ndarray:
        """Piecewise-linear (left, right) values at arbitrary times, shape (len(ts), 2)."""
        return _interpolate(self.times, self.values, ts, "boundary data")

    @classmethod
    def from_csv(cls, text: str) -> "BoundaryData":
        rows = _parse_node_csv(text, _CSV_HEADER, "boundary CSV header must be t,g_left,g_right")
        return cls(rows[:, 0], rows[:, 1:])


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


def harmonic_lift(g_left: float, g_right: float, basis: EigenBasis) -> HarmonicLift:
    """Solve the (1-d) boundary Poisson problem: the interior function with
    zero second derivative matching the endpoint values."""
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
    u = _real(samples, "samples")
    if u.shape != basis.axes[0].shape:
        raise InvalidSpecError("samples must live on the basis quadrature grid")
    lift = harmonic_lift(u[0], u[-1], basis)
    harm = lift.values()
    return BoundarySplit(u - harm, harm, lift)


@dataclass
class LiftPath:
    """Time-dependent affine lift of boundary data against a basis; `sample`
    gives both of its forms, a + b x and the sine coefficients w."""

    g: BoundaryData
    basis: EigenBasis

    def __post_init__(self):
        # the forcing lambda_j w_j(t) and the slope are piecewise linear in
        # t: finite at g's node times means finite everywhere
        with np.errstate(over="ignore", invalid="ignore"):
            _, b, w = self.sample(self.g.times)
            finite = np.all(np.isfinite(w * self.basis.lambdas)) and np.all(np.isfinite(b))
        if not finite:
            raise InvalidSpecError("boundary data too large: the lift forcing leaves float64 range")

    def sample(self, ts):
        """Offset a and slope b of the lift a + b x at each time, and its
        coefficient rows w, shape (len(ts), n_modes), from one sample of g."""
        vals = self.g.sample(ts)
        (L,) = self.basis.spec.lengths
        left, right = self.basis._lift_columns
        w = np.outer(vals[:, 0], left) + np.outer(vals[:, 1], right)
        return vals[:, 0], (vals[:, 1] - vals[:, 0]) / L, w


def boundary_yield(g: BoundaryData, t: float, basis: EigenBasis) -> SpectralVec:
    """z(t): the state accumulated from boundary data alone.

    Mode-wise z_j(t) = lambda_j int_0^t e^{-(t-s) lambda_j} w_j(s) ds with
    the lift coefficients w_j(s) piecewise linear, integrated in closed form
    per subinterval.
    """
    _check_horizon(t)
    return _yield(basis, None, LiftPath(g, basis), float(t))[0]


@dataclass(frozen=True)
class SweepReport:
    """Cauchy diagnostics for the eps -> 0 limit of the boundary integral."""

    eps: np.ndarray
    increments: np.ndarray   # H-norm distances between consecutive partials
    fitted_rate: float       # exponent of the power-law fit of increments vs eps
    limit_gap: float         # H-norm distance of the last partial to the full value


def boundary_yield_sweep(g: BoundaryData, t: float, basis: EigenBasis) -> SweepReport:
    """The partial integrals int_0^{t-eps} at eps = 2^{-k} t, k = 3 .. 10,
    and how they contract toward the improper integral.  One march of g's
    lift from zero gives z at every t - eps and at t: the partial at eps is
    e^{-eps A} z(t - eps), exact in log space, and the limit is z(t)."""
    _check_horizon(t)
    eps = np.array([t * 2.0 ** -k for k in range(3, 11)])
    _, ph, lg, _ = _forward(SpectralVec.zero(basis), None, np.append(t - eps, t), LiftPath(g, basis), None)
    partials = lg[:-1] - eps[:, None] * basis.lambdas
    # each partial from the next one, then the last from the limit, as one
    # stack of differences that builds no state
    later = np.concatenate([partials[1:], lg[-1:]])
    p, l = logspace_add(ph[1:], later, -ph[:-1], partials)
    norms = _stacked_norms(basis, merge_phase(p, l), l).normH
    diffs, gap = norms[:-1], norms[-1]
    pos = diffs > 0
    if np.count_nonzero(pos) >= 2:
        # increments between eps_k and eps_{k+1} attach to the larger eps
        slope = np.polyfit(np.log(eps[:-1][pos]), np.log(diffs[pos]), 1)[0]
    else:
        slope = np.inf
    return SweepReport(eps, diffs, float(slope), float(gap))


def solve_ibvp(u0: SpectralVec, f: SourceTerm | None, g: BoundaryData | None, tgrid) -> Trajectory:
    """Forward solve with Dirichlet boundary data.

    The boundary enters as the extra mode-wise source lambda_j w_j(t), and
    the returned trajectory carries the lift path so full first-order space
    norms and pointwise synthesis include the boundary part; a zero g is
    attached but marches nothing.  g=None is exactly `solve_cauchy`.
    """
    return solve_cauchy(u0, f, tgrid, lift=None if g is None else LiftPath(g, u0.basis))


def flow_identity_residual(traj: Trajectory, g: BoundaryData | None) -> float:
    """Relative H-norm residual of the final-state identity
    u(T) = e^{T Delta} u(0) + source yield + z(T) on a computed trajectory.
    The identity flows from t = 0 and reads u(0) off the first node, so a
    trajectory whose grid starts later is refused."""
    if traj.times[0] != 0.0:
        raise InvalidSpecError("the flow identity needs a trajectory whose grid starts at t = 0")
    basis = traj.basis
    T = float(traj.times[-1])
    rhs = apply_forward(traj.initial_state, T)
    if traj.source is not None:
        rhs = rhs + source_yield(traj.source, T)
    if g is not None and not g.is_zero:
        # z(T) marches the lift the trajectory carries when it is g's
        _check_horizon(T)
        lift = traj.lift if traj.lift is not None and traj.lift.g is g else LiftPath(g, basis)
        rhs = rhs + _yield(basis, None, lift, T)[0]
    return rel_distance(traj.final_state, rhs)


# -- data-space norm with boundary term ----------------------------------

@cache
def _dct2_matrix(n: int) -> np.ndarray:
    """The n-by-n orthonormal DCT-II matrix, read-only, built on first use:
    row k is s_k cos(pi k (2m+1) / 2n), s_0 = 1/sqrt(n), s_k = sqrt(2/n)."""
    k = np.arange(n)
    # reduce k(2m+1) mod 4n in integers so every cosine argument stays in [0, 2pi)
    angle = (np.outer(k, 2 * k + 1) % (4 * n)) * (np.pi / (2 * n))
    scale = np.full(n, np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    return _read_only(scale[:, None] * np.cos(angle))


def _dct2_ortho(values: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II along the first axis, as a direct cosine sum: one
    product with `_dct2_matrix`."""
    return _dct2_matrix(values.shape[0]) @ values


@np.errstate(over="ignore")  # data past the square root of float64's range read inf
def trace_norm_surrogate(g: BoundaryData, T: float) -> float:
    """Half-order Sobolev surrogate of the boundary signal in time.

    Per endpoint: ||g||^2_{L2(0,T)} plus sum_k (1+k^2)^{1/2} |ghat_k|^2 over
    a discrete cosine expansion on a fixed uniform resampling.  This stands
    in for the trace-space norm; it is documented as a surrogate, not the
    intrinsic parabolic trace norm.
    """
    T = float(T)
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


@dataclass
class FvpSolution:
    """Everything a backward solve produces."""

    trajectory: Trajectory
    compat: CompatReport
    ynorm: YNormReport
    endpoint_rel_error: float


def _check_coverage(f, g, T):
    """Reject a source or boundary grid that starts after 0 or ends short of T."""
    for data, what in ((f, "source"), (g, "boundary")):
        if data is not None and (data.times[0] > _TIME_RTOL * T or T - data.t_final > _TIME_RTOL * T):
            raise InvalidSpecError(f"{what} grid must cover [0, T]")


def _validate_final_data(f, g, u_T, T):
    """Reject a horizon that is not finite and positive and a source or
    boundary grid short of [0, T]."""
    _check_horizon(T, u_T.basis)
    if f is not None and not f.basis.same_as(u_T.basis):
        raise InvalidSpecError("source and final state use different bases")
    _check_coverage(f, g, T)


def _admissible_part(f, g, u_T, T, policy):
    """v = u_T - (source yield) [- z(T) if g is not None], its membership
    report, and the source march whose T row is the yield (None without a
    source)."""
    _validate_final_data(f, g, u_T, T)
    v, march = u_T, None
    if f is not None:  # without a source the yield is zero: nothing to build or subtract
        y, march = _yield(u_T.basis, f, None, T)
        v = u_T - y
    if g is not None:
        v = v - boundary_yield(g, T, u_T.basis)
    return v, check_domain_membership(v, T, policy), march


def _data_norm(f, g, u_T, T, v, report) -> YNormReport:
    """Graph norm of the data from the difference v and its report:
    (|u_T|^2 [+ trace surrogate of g^2] + int ||f||_*^2 + |e^{T A} v|^2)^{1/2}."""
    back = report.u0 if report.u0 is not None else apply_inverse(v, T)
    log_back_sq = log_sum_exp(2.0 * back.logmag)
    uT_norms = triple_norms(u_T)
    uT_sq, log_uT_sq = _square(uT_norms.normH, uT_norms.log_normH)
    parts = [log_uT_sq]
    trace_sq = None
    if g is not None:
        trace_sq, log_trace_sq = _square(trace_norm_surrogate(g, T))
        parts.append(log_trace_sq)
    f_sq = squared_source_dual_norm(f, T) if f is not None else 0.0
    parts += [np.log(f_sq) if f_sq > 0 else -np.inf, log_back_sq]
    log_total = 0.5 * log_sum_exp(parts)
    return YNormReport(uT_sq, f_sq, log_back_sq, log_total, report.verdict == "compatible", trace_sq)


def _square(x: float, log_x: float | None = None):
    """x^2 and its log.  A square past float64's range reads inf, and its
    log is then 2 log_x (log x by default), which stays finite wherever x
    is."""
    try:
        sq = x ** 2
    except OverflowError:
        sq = np.inf
    if sq == np.inf:
        return sq, 2.0 * (np.log(x) if log_x is None else log_x)
    return sq, np.log(sq) if sq > 0 else -np.inf


def _replay_grid(tgrid, T, f) -> np.ndarray:
    """The nodes a backward solve replays: `tgrid`, which must run from 0 to
    T so that u(0) and the endpoint check read the right rows, or by default
    the yield grid, or 33 uniform nodes without a source."""
    if tgrid is None:
        return _default_grid(f, T)
    ts = _validate_tgrid(tgrid, T)
    if ts[0] != 0.0 or ts[-1] != T:
        raise InvalidSpecError("a backward solve's time grid must start at 0 and end at T")
    return ts


def _backward_solve(f, g, u_T, T, policy, tgrid) -> FvpSolution:
    """Form v once, certify it, take u(0) = e^{T A} v from the report, and
    replay the forward solve, which must land back on u_T: the check joins
    the replay's T row alone.  Without nonzero g the replay reuses the
    yield's march when its grid is the same."""
    v, report, march = _admissible_part(f, g, u_T, T, policy)
    tgrid = _replay_grid(tgrid, T, f)
    if report.verdict == "incompatible":
        raise IncompatibleDataError(report)
    if report.verdict == "inconclusive":
        raise InconclusiveDataError(report)
    traj = solve_cauchy(report.u0, f, tgrid, lift=None if g is None else LiftPath(g, u_T.basis), march=march)
    end_err = rel_distance(traj.final_state, u_T)
    return FvpSolution(traj, report, _data_norm(f, g, u_T, T, v, report), float(end_err))


def check_final_data(
    f: SourceTerm | None,
    g: BoundaryData | None,
    u_T: SpectralVec,
    T: float,
    policy: MembershipPolicy | None,
) -> CompatReport:
    """Membership report of u_T - (source yield) [- z(T)]: the verdict a
    backward solve would act on, without the solve."""
    return _admissible_part(f, g, u_T, T, policy)[1]


def data_norm_inhom(
    f: SourceTerm | None,
    g: BoundaryData | None,
    u_T: SpectralVec,
    T: float,
    policy: MembershipPolicy | None,
) -> YNormReport:
    """Data-space graph norm of (f, g, u_T); g=None leaves out the trace part."""
    v, report, _ = _admissible_part(f, g, u_T, T, policy)
    return _data_norm(f, g, u_T, T, v, report)


def solve_final_value_inhom(
    f: SourceTerm | None,
    g: BoundaryData | None,
    u_T: SpectralVec,
    T: float,
    policy: MembershipPolicy | None = None,
    *,
    tgrid,
) -> FvpSolution:
    """Backward solve with boundary data.

    Forms v = u_T - (source yield) - z(T), runs the membership heuristic,
    reconstructs u(0) = e^{T A} v on `compatible`, and replays the forward
    boundary solve.  g=None is the problem without a boundary term.
    `tgrid` must start at 0 and end at T; None takes the source's nodes in
    [0, T] plus 0 and T, or 33 uniform nodes without a source.
    """
    return _backward_solve(f, g, u_T, T, policy, tgrid)


# -- full first-order space-time norm -------------------------------------

@np.errstate(over="ignore", invalid="ignore")  # a trajectory past float64 range reads inf or NaN
def solution_norm_h1(traj: Trajectory) -> float:
    """Space-time norm with the full first-order space norm.

    Square root of int ||u||_{H^1}^2 dt + sup_t ||u||_{L2}^2 + int
    (||u||_{H^{-1}}^2 + ||u'||_{H^{-1}}^2) dt.  The supremum term is kept:
    for boundary-driven runs it is not dominated by the other two terms.
    Spatial pieces use the zero-trace part p plus the exact affine-lift
    formulas; u' comes from the equation.  Every node is one row of one
    array pass over the arrays the trajectory keeps.
    """
    if traj.times.size < 2:
        raise InvalidSpecError("a trajectory norm needs at least two nodes")
    basis = traj.basis
    (L,) = basis.spec.lengths
    lam = basis.lambdas
    # first, so that its temporaries are freed before the norm's own
    res_dual_sq = traj.residual_dual_sq
    p = traj._zero_trace
    p2 = np.square(p)
    l2_sq = p2.sum(axis=-1)
    p2 *= lam
    grad_sq = p2.sum(axis=-1)
    if traj.lift is not None:
        a, b, w = traj._lift_rows
        lift_l2_sq = a * a * L + a * b * L ** 2 + b * b * L ** 3 / 3.0
        cross = 2.0 * np.vecdot(w, p)  # <p, lift> over the span
        l2_sq = l2_sq + cross + lift_l2_sq
        grad_sq = grad_sq + b * b * L
    h1_sq = l2_sq + grad_sq
    np.square(traj._coeffs, out=p2)
    p2 /= lam
    dual_sq = p2.sum(axis=-1)
    total = (
        _trapezoid(h1_sq, traj.times)
        + float(np.max(l2_sq))
        + _trapezoid(dual_sq, traj.times)
        + _trapezoid(res_dual_sq, traj.times)
    )
    return float(np.sqrt(total))
