"""Finite-dimensional laboratory for decay semigroups e^{-tA}.

Everything here treats a square complex matrix A with positive-definite
Hermitian part as the generator of decay: the semigroup is e^{-tA}, its
resolvent is (lambda I + A)^{-1}, and the checks probe the properties the
spectral solver relies on in infinite dimensions: sectorial resolvent
bounds, exponential decay, injectivity of the flow, and log-convexity of
trajectories, which is what makes backward continuation meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .logspace import InvalidSpecError, _real
from .spectral import _read_only

MAX_DIM = 64
SPECTRUM_SKIP_RTOL = 1e-8
INJECTIVITY_SLACK = 1e2
# slack allowed below zero in the log-convexity criterion margins
LOGCONVEXITY_TOL = 1e-10
# shifted matrices per SVD call in check_sectoriality: a block of 64 x 64
# complex matrices stays at 8 MB
_BLOCK = 128
# complex elements per stacked pass of check_logconvexity_criterion: the
# margins take max(1, _BUDGET // d) sample vectors at a time, so that A x
# and A^2 x never exist for more than one pass, and the profiles as many
# times as keep the products e^{-tA} x of every sample within it
_BUDGET = 2**16
# the first sectoriality block: the points whose bound reaches the sup are
# usually among the first few, so the blocks start here and double to _BLOCK
_FIRST_BLOCK = 8
# supporting lines of the numerical range that bound the scaled resolvent
# in check_sectoriality, and the rounding allowance taken off that bound in
# units of eps * d * (|lambda| + ||A||)
_FOV_DIRECTIONS = 64
_FOV_ROUNDING = 64.0
# rays and radii of the check_sectoriality grid, and random vectors of inverse_chain_demo
_SECTOR_RAYS, _SECTOR_RADII, _CHAIN_SAMPLES = 64, 32, 64
# the probed sector {r e^{i phi} : |phi| < pi/2 + _SECTOR_THETA}, vertex 0,
# and the bound the scaled resolvent sup must keep to pass
_SECTOR_THETA, _SECTOR_BOUND = 0.3, 10.0


def parse_matrix(text: str) -> np.ndarray:
    """Read the plain-text matrix format: a line with the dimension d, then
    d rows of 2d reals (re im re im ...)."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise InvalidSpecError("empty matrix text")
    try:
        d = int(lines[0].split()[0])
    except ValueError as exc:
        raise InvalidSpecError("first line must hold the dimension") from exc
    if d < 1 or len(lines) != d + 1:
        raise InvalidSpecError(f"expected {d} rows after the dimension line")
    rows = []
    for ln in lines[1:]:
        try:
            vals = [float(x) for x in ln.split()]
        except ValueError as exc:
            raise InvalidSpecError(f"matrix entries must be reals: {exc}") from exc
        if len(vals) != 2 * d:
            raise InvalidSpecError(f"each row needs {2 * d} reals (re im pairs)")
        rows.append([complex(vals[2 * j], vals[2 * j + 1]) for j in range(d)])
    return np.array(rows, dtype=complex)


@dataclass(frozen=True)
class GeneratorReport:
    dim: int
    selfadjoint: bool
    normal: bool
    hyponormal: bool
    elliptic: bool
    decay_rate: float      # exact min of Re<Av,v>/|v|^2: smallest Hermitian-part eigenvalue
    norm2: float
    spectral_abscissa: float


class MatrixGenerator:
    """Square complex matrix (dimension <= 64) wrapped with the derived
    quantities the semigroup checks need.  A is a private read-only copy,
    so each quantity is computed once, on first use."""

    def __init__(self, a):
        try:
            a = np.array(a, dtype=complex)
        except (TypeError, ValueError) as exc:  # text, a ragged nesting or an object complex() cannot read
            raise InvalidSpecError("generator entries must be numbers") from exc
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InvalidSpecError("generator must be a square matrix")
        if a.shape[0] > MAX_DIM:
            raise InvalidSpecError(f"generator dimension capped at {MAX_DIM}")
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            raise InvalidSpecError("generator entries must be finite")
        self._a = _read_only(a)

    @property
    def a(self) -> np.ndarray:
        return self._a

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """eigvals(A), read-only."""
        return _read_only(np.linalg.eigvals(self.a))

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """The eigenvector matrix of eig(A), read-only."""
        return _read_only(np.linalg.eig(self.a)[1])

    @cached_property
    def is_selfadjoint(self) -> bool:
        a, norm2, _ = self._unit
        return bool(np.linalg.norm(0.5 * (a - a.conj().T), 2) <= 1e-12 * norm2)

    @cached_property
    def _unit(self) -> tuple:
        """(2^-e A, 2^-e ||A||, e), e the binary exponent of ||A|| (0 for A = 0):
        sums and commutators of 2^-e A stay in range, and the power-of-two
        scale is exact, so an A in range keeps its bits (ldexp takes no complex)."""
        e = int(np.frexp(self.norm2)[1])
        return np.ldexp(self.a.real, -e) + 1j * np.ldexp(self.a.imag, -e), float(np.ldexp(self.norm2, -e)), e

    @property
    def is_normal(self) -> bool:
        a, norm2, _ = self._unit
        comm = a @ a.conj().T - a.conj().T @ a
        return bool(np.linalg.norm(comm, 2) <= 1e-12 * norm2 ** 2)

    @property
    def is_hyponormal(self) -> bool:
        # |A* x| <= |A x| for all x is positivity of the commutator A*A - AA*
        a, norm2, _ = self._unit
        comm = a.conj().T @ a - a @ a.conj().T
        return bool(np.linalg.eigvalsh(comm)[0] >= -1e-12 * norm2 ** 2)

    @cached_property
    def decay_rate(self) -> float:
        """Exact minimum of Re<Av,v>/|v|^2 over v != 0, read off Herm(2^-e A)
        (`_unit`) and scaled back by 2^e, so that A + A* stays in range;
        positive means e^{-tA} contracts at least like e^{-(this) t}."""
        a, _, e = self._unit
        return float(np.ldexp(np.linalg.eigvalsh(0.5 * (a + a.conj().T))[0], e))

    @property
    def is_elliptic(self) -> bool:
        return self.decay_rate > 0.0

    @cached_property
    def norm2(self) -> float:
        return float(np.linalg.norm(self.a, 2))

    def classify(self) -> GeneratorReport:
        return GeneratorReport(
            dim=self.dim,
            selfadjoint=self.is_selfadjoint,
            normal=self.is_normal,
            hyponormal=self.is_hyponormal,
            elliptic=self.is_elliptic,
            decay_rate=self.decay_rate,
            norm2=self.norm2,
            spectral_abscissa=float(np.max(self.eigenvalues.real)),
        )


# Pade-13 scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26(4),
# 2005): theta_13, the largest 1-norm at which the degree-13 approximant
# meets double precision, and the coefficients b_0 .. b_13 of its numerator
_THETA_13 = 5.371920351148152
_PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)


def _expm_pade13(m: np.ndarray) -> np.ndarray:
    """e^M for every matrix M of the stack m, shape (k, d, d).

    Each matrix is scaled by 2^{-s} with s = max(0, ceil(log2(||M||_1 /
    theta_13))), the degree-13 Pade approximant of the whole stack is formed
    with batched products and one batched solve, and each result is squared
    s times, the finished ones masked out.  Every matrix goes through the
    same per-matrix BLAS and LAPACK calls as it would alone, so its value
    does not depend on the rest of the stack.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.ceil(np.log2(np.abs(m).sum(axis=1).max(axis=1) / _THETA_13))
    # a 1-norm past float64 range takes the largest scaling; a NaN one fails below
    s[np.isnan(s)] = 0.0
    s = np.clip(s, 0.0, 1022.0).astype(int)
    m = m * np.ldexp(1.0, -s)[:, None, None]
    b = _PADE_13
    eye = np.eye(m.shape[-1])
    m2 = m @ m
    m4 = m2 @ m2
    m6 = m2 @ m4
    u = m @ (m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2) + b[7] * m6 + b[5] * m4 + b[3] * m2 + b[1] * eye)
    v = m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2) + b[6] * m6 + b[4] * m4 + b[2] * m2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for i in range(int(s.max(initial=0))):
        live = s > i
        r[live] = r[live] @ r[live]
    return r


def exp_semigroup(gen: MatrixGenerator, t) -> np.ndarray:
    """Semigroup value e^{-tA}; negative t evaluates the (finite-dim)
    backward extension e^{|t| A}.

    A scalar t gives the (d, d) value, a 1-d array of k times the (k, d, d)
    stack, in one batched evaluation whose every matrix is bit-identical to
    the scalar call.  A diagonal A takes the exponential of its diagonal
    exactly; any other runs Pade-13 scaling and squaring (_expm_pade13).  A
    time that is not finite, and a value past float64 range, are refused,
    naming the first such time.
    """
    t = _real(t, "times")
    if t.ndim > 1:
        raise InvalidSpecError("times must be a scalar or a 1-d array")
    ts = np.atleast_1d(t)
    finite = np.isfinite(ts)
    if not finite.all():
        raise InvalidSpecError(f"e^{{-tA}} needs finite times, not t = {ts[np.argmin(finite)]:g}")
    a = gen.a
    m = np.multiply.outer(-ts, a)
    # an overflow leaves inf or NaN in the value, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        if np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)):  # zero off the diagonal
            values = np.zeros_like(m)
            idx = np.arange(gen.dim)
            values[:, idx, idx] = np.exp(m[:, idx, idx])
        else:
            values = _expm_pade13(m)
    bad = ~np.isfinite(values).all(axis=(1, 2))
    if bad.any():
        raise InvalidSpecError(f"e^{{-tA}} overflows float64 at t = {ts[np.argmax(bad)]:g}")
    return values if t.ndim else values[0]


# -- sectoriality ----------------------------------------------------------

@dataclass(frozen=True)
class SectorReport:
    sup_value: float
    argmax_lambda: complex = field(repr=False)  # held and reported as argmax_re, argmax_im
    passed: bool
    n_sampled: int
    n_skipped: int
    theta_recommended: float
    argmax_re: float = field(init=False)
    argmax_im: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "argmax_re", self.argmax_lambda.real)
        object.__setattr__(self, "argmax_im", self.argmax_lambda.imag)


def _fov_bounds(a: np.ndarray, norm2: float, lams: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Upper bounds on dist / sigma_min(lam I + A), with sigma_min as the SVD
    computes it, at every lam.

    sigma_min(lam I + A) >= dist(-lam, W(A)) for the numerical range W(A),
    and every supporting line of W(A) bounds that distance from below:
    dist(p, W(A)) >= Re(e^{-i alpha} p) - h(alpha), with support function
    h(alpha) = lambda_max(Herm(e^{-i alpha} A)).  The largest separation over
    the fixed directions, less an allowance for rounding in the eigenvalues,
    the separations, the shifted matrix and the SVD, stays at or below the
    smallest singular value that the SVD returns.  Where it is not positive
    the bound is inf.
    """
    # directions alpha in [0, pi) and alpha + pi: Herm(e^{-i (alpha + pi)} A)
    # is -Herm(e^{-i alpha} A), whose largest eigenvalue is -lambda_min
    n = _FOV_DIRECTIONS // 2
    alphas = np.pi * np.arange(n) / n
    cos, sin = np.cos(alphas), np.sin(alphas)
    # Herm(e^{-i alpha} A) = cos(alpha) Herm(A) + sin(alpha) Herm(-i A)
    herm = 0.5 * (a + a.conj().T)
    herm_rot = -0.5j * (a - a.conj().T)
    eigs = np.linalg.eigvalsh(cos[:, None, None] * herm + sin[:, None, None] * herm_rot)
    # Re(e^{-i alpha} (-lam)) = -u, one direction pair at a time in real arithmetic
    x, y = lams.real, lams.imag
    sep = np.full(lams.size, -np.inf)
    for c, s, lo, hi in zip(cos.tolist(), sin.tolist(), eigs[:, 0].tolist(), eigs[:, -1].tolist()):
        u = c * x + s * y
        np.maximum(sep, -u - hi, out=sep)
        np.maximum(sep, u + lo, out=sep)
    floor = sep - _FOV_ROUNDING * np.finfo(float).eps * a.shape[0] * (np.abs(x) + np.abs(y) + norm2)
    bound = np.full(lams.size, np.inf)
    with np.errstate(over="ignore"):  # a quotient past float64 range is still an upper bound
        np.divide(dist, floor, out=bound, where=floor > 0.0)
    return bound


def check_sectoriality(gen: MatrixGenerator) -> SectorReport:
    """Sample sup |lambda| ||(lambda I + A)^{-1}|| over the sector
    {r e^{i phi} : |phi| < pi/2 + _SECTOR_THETA}.

    The resolvent is the one of the decay generator -A.  Radii span six
    decades around ||A|| (around 1 for A = 0, not collapsed onto the vertex),
    and sample points within SPECTRUM_SKIP_RTOL times that scale of the
    spectrum of -A are skipped and counted: never the outer ring, as the
    spectrum lies within ||A|| of 0.  Passing means the sup is finite and at
    most _SECTOR_BOUND.  The recommended angle is the heuristic
    arctan(decay_rate / ||A||): within that opening the numerical range of
    -A stays clear of the probed rays.

    The grid is formed in one broadcast.  Every sample point gets an upper
    bound from the numerical range of A (see _fov_bounds), and the
    smallest singular values of the shifted matrices come from stacked SVDs
    over blocks of points in descending order of that bound, 8 points first
    and doubling up to 128, until the next bound falls strictly below the
    largest value found.  The points left out cannot reach the sup, and
    every value computed is bit-identical to evaluating the points one by
    one, so the report is the one of the full grid.
    """
    a = gen.a
    norm2 = gen.norm2
    if not np.isfinite(norm2 * 1e3):
        raise InvalidSpecError("||A|| * 1e3 exceeds float64 range: the sector radii cannot be formed")
    spectrum = -gen.eigenvalues
    phis = np.linspace(-(np.pi / 2 + _SECTOR_THETA), np.pi / 2 + _SECTOR_THETA, _SECTOR_RAYS + 2)[1:-1]
    scale = norm2 if norm2 > 0.0 else 1.0
    radii = scale * np.logspace(-3.0, 3.0, _SECTOR_RADII)
    # ray by ray, radius by radius: the order decides which of equal maxima wins
    lams = (radii * np.exp(1j * phis)[:, None]).ravel()
    skip = np.min(np.abs(lams[:, None] - spectrum), axis=1) <= SPECTRUM_SKIP_RTOL * scale
    lams = lams[~skip]
    # np.abs on a complex array may differ from libm's hypot in the last
    # bit; np.hypot is the per-element libm call that abs(lam) makes
    dist = np.hypot(lams.real, lams.imag)
    bound = _fov_bounds(a, norm2, lams, dist)
    vals = np.full(lams.size, -np.inf)
    best = -np.inf
    eye = np.eye(gen.dim)
    order = np.argsort(-bound, kind="stable")
    start, size = 0, _FIRST_BLOCK
    while start < lams.size:
        idx = order[start:start + size]
        start, size = start + size, min(2 * size, _BLOCK)
        # a NaN best compares False: then every point is computed, and argmax
        # finds the first NaN as the full scan does
        if bound[idx[0]] < best:
            break
        # lam * I + A entry by entry: adding lam to the diagonal of a copy of A
        # would keep every -0.0 off the diagonal, where lam * 0.0 + -0.0 can be +0.0
        block = np.multiply.outer(lams[idx], eye)
        block += a
        block_vals = dist[idx] / np.linalg.svd(block, compute_uv=False)[:, -1]
        vals[idx] = block_vals
        best = np.maximum(best, np.max(block_vals))
    k = int(np.argmax(vals))  # first maximum in grid order, as a strict > scan keeps it
    best, best_lam = vals[k], complex(lams[k])
    passed = bool(np.isfinite(best) and best <= _SECTOR_BOUND)
    theta_rec = float(np.arctan2(max(gen.decay_rate, 0.0), norm2))
    return SectorReport(float(best), best_lam, passed, lams.size, int(np.count_nonzero(skip)), theta_rec)


# -- decay, injectivity, convexity ----------------------------------------

@dataclass(frozen=True)
class DecayReport:
    # the curves behind the verdict, kept out of the report's JSON
    times: np.ndarray = field(repr=False)
    norms: np.ndarray = field(repr=False)
    bound: np.ndarray = field(repr=False)
    ok: bool
    fitted_rate: float


def check_decay(gen: MatrixGenerator, times) -> DecayReport:
    """||e^{-tA}|| against the bound e^{-decay_rate * t}.

    The bound holds with constant 1 in the 2-norm for every A, elliptic or
    not, because d/dt |u|^2 = -2 Re<Au, u> <= -2 decay_rate |u|^2.
    """
    ts = _real(times, "times")
    if ts.ndim != 1 or ts.size < 2 or np.any(ts < 0) or np.any(np.diff(ts) <= 0):
        raise InvalidSpecError("need an increasing grid of nonnegative times")
    norms = np.linalg.norm(exp_semigroup(gen, ts), 2, axis=(1, 2))
    with np.errstate(over="ignore"):  # past float64 range the bound is inf, which holds
        bound = np.exp(-gen.decay_rate * ts)
    ok = bool(np.all(norms <= bound * (1.0 + 1e-10)))
    pos = (ts > 0) & (norms > 0)
    rate = float(-np.polyfit(ts[pos], np.log(norms[pos]), 1)[0]) if np.count_nonzero(pos) >= 2 else np.nan
    return DecayReport(ts, norms, bound, ok, rate)


@dataclass(frozen=True)
class InjectivityReport:
    times: np.ndarray
    sigma_min: np.ndarray
    heuristic_floor: np.ndarray = field(repr=False)  # indicative only, kept out of the report's JSON
    all_positive: bool
    floor_respected: bool


def check_injectivity(gen: MatrixGenerator, times) -> InjectivityReport:
    """Smallest singular value of e^{-tA} at positive times.

    Injectivity of the flow is sigma_min > 0 for every t.  The heuristic
    floor e^{-t sigma_max(A)} / cond(V) (V the eigenvector matrix) is only
    indicative; it counts as respected if sigma_min never drops more than a
    factor 1e2 below it.
    """
    ts = np.atleast_1d(_real(times, "times"))
    if ts.size < 1 or np.any(ts <= 0):
        raise InvalidSpecError("need strictly positive times")
    cond_v = float(np.linalg.cond(gen.eigenvectors))
    smins = np.linalg.svd(exp_semigroup(gen, ts), compute_uv=False)[:, -1]
    floor = np.exp(-gen.norm2 * ts) / cond_v
    return InjectivityReport(
        ts,
        smins,
        floor,
        bool(np.all(smins > 0.0)),
        bool(np.all(smins >= floor / INJECTIVITY_SLACK)),
    )


@dataclass(frozen=True)
class ConvexityReport:
    n_trials: int
    criterion_fraction: float
    logconvex_fraction: float
    min_margin: float
    min_second_divdiff: float
    forward_implication_observed: bool
    selfadjoint: bool
    seed: int


def _norms(z: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of z, summed the way np.linalg.norm sums
    one complex vector: real and imaginary dot products, then the root.

    A row whose squared sum overflows is summed again divided by its largest
    part, so its norm stays finite where it is representable; every other
    row keeps the unscaled bits."""
    with np.errstate(over="ignore"):
        sq = np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag)
    out = np.sqrt(sq)
    if sq.max(initial=0.0) == np.inf:
        big = np.isinf(sq)
        zb = z[big]
        top = np.maximum(np.abs(zb.real).max(axis=1), np.abs(zb.imag).max(axis=1))
        zb = zb / top[:, None]
        out[big] = top * np.sqrt(np.vecdot(zb.real, zb.real) + np.vecdot(zb.imag, zb.imag))
    return out


def _apply(m: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Rows m @ x for every row x of xs, one matrix-vector product each."""
    return np.matmul(m, xs[:, :, None])[:, :, 0]


def _criterion_margins(a: np.ndarray, xs: np.ndarray, scale: float) -> np.ndarray:
    """Normalized slack of 2 (Re<Ax,x>)^2 <= (Re<A^2 x,x> + |Ax|^2) |x|^2
    for every unit row x of xs."""
    ax = _apply(a, xs)
    xax = np.vecdot(xs, ax).real
    rhs = np.vecdot(xs, _apply(a, ax)).real + np.vecdot(ax, ax).real
    # Python's float ** 2 calls libm pow, which can differ from x * x in the
    # last bit; the squares stay scalar so that every margin keeps its digits
    lhs = 2.0 * np.array([v ** 2 for v in xax.tolist()])
    return (rhs - lhs) / scale


def _convexity_samples(gen: MatrixGenerator, trials: int, seed: int) -> np.ndarray:
    """Rows: `trials` random complex unit vectors drawn from the seed, then
    the unit eigenvectors of A."""
    rng = np.random.default_rng(seed)
    d = gen.dim
    xs = rng.standard_normal((trials, d)) + 1j * rng.standard_normal((trials, d))
    xs /= np.linalg.norm(xs, axis=1)[:, None]
    vecs = gen.eigenvectors
    vecs = vecs / np.linalg.norm(vecs, axis=0)[None, :]
    return np.vstack([xs, vecs.T])


def _log_profile(gen: MatrixGenerator, xs: np.ndarray, ts: np.ndarray):
    """Second divided differences of log h(t), h(t) = |e^{-tA} x|, for every
    row x of xs over the times ts.

    Returns, per row, the smallest divided difference and the smallest ratio
    of a divided difference to its rounding floor; the profile is log-convex
    within rounding where that ratio is at least -1.  The floor of log h_j
    is e_j = 8 eps ((d + |t_j| ||A||) ||e^{-t_j A}||_F / h_j + |log h_j|): the
    error of the computed value and of its product with x, relative to h_j,
    plus the rounding of the logarithm.  The weights of the divided
    difference carry it to
    2/(t_j - t_{j-2}) ((e_j + e_{j-1})/(t_j - t_{j-1}) + (e_{j-1} + e_{j-2})/(t_{j-1} - t_{j-2})).

    The times are taken in passes of max(1, _BUDGET // xs.size): one stacked
    product per pass applies each of its values to every row, and the
    log-norms, floors and divided differences of the pass are array
    operations, led by the last two rows of the pass before.  Every value is
    bit-identical to evaluating the times and the rows one by one.
    """
    values = exp_semigroup(gen, ts)
    d, norm_a = gen.dim, gen.norm2
    eps = np.finfo(float).eps
    flat = values.reshape(len(ts), -1)
    # (d + |t| ||A||) ||e^{-tA}||_F per time, the norm summed as
    # np.linalg.norm sums it, unscaled: past float64 range it is inf
    with np.errstate(over="ignore"):
        fro = np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
        weight = (d + np.abs(ts) * norm_a) * fro
    divdiffs = np.full(len(xs), np.inf)
    slack = np.full(len(xs), np.inf)
    lh = err = np.empty((0, len(xs)))
    per_pass = max(1, _BUDGET // xs.size)
    for j0 in range(0, len(ts), per_pass):
        j1 = min(j0 + per_pass, len(ts))
        h = _norms(np.matmul(values[j0:j1, None], xs[None, :, :, None]).reshape(-1, d)).reshape(j1 - j0, -1)
        under = np.any(h == 0.0, axis=1)
        if under.any():
            t = ts[j0 + np.argmax(under)]
            raise InvalidSpecError(f"|e^{{-tA}} x| underflows to 0 at t = {t:g}: its logarithm is undefined")
        lh_pass = np.log(h)
        # a floor past float64 range leaves no divided difference refuted
        with np.errstate(over="ignore"):
            err_pass = 8.0 * eps * (weight[j0:j1, None] / h + np.abs(lh_pass))
        lh, err = np.concatenate([lh[-2:], lh_pass]), np.concatenate([err[-2:], err_pass])
        tj = ts[j1 - len(lh):j1]
        step = (tj[1:] - tj[:-1])[:, None]
        d1 = (lh[1:] - lh[:-1]) / step
        g1 = (err[1:] + err[:-1]) / step
        span = (tj[2:] - tj[:-2])[:, None]
        dd = 2.0 * (d1[1:] - d1[:-1]) / span
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = dd / (2.0 * (g1[1:] + g1[:-1]) / span)
        # folded row by row, as the times come: which of -0.0 and +0.0 fmin
        # keeps depends on operand order, so a reduction could move a sign
        for dd_j, ratio_j in zip(dd, ratio):
            np.fmin(slack, ratio_j, out=slack)
            np.minimum(divdiffs, dd_j, out=divdiffs)
    return divdiffs, slack


def check_logconvexity_criterion(
    gen: MatrixGenerator,
    trials: int,
    seed: int,
    times=None,
) -> ConvexityReport:
    """Differential criterion for convexity of t -> log |e^{-tA} x|, plus a
    direct discrete check of the profiles themselves.

    Per unit sample x the criterion is
    2 (Re<Ax,x>)^2 <= (Re<A^2 x,x> + |Ax|^2) |x|^2, the second-derivative
    condition at t = 0; for selfadjoint A it reduces to Cauchy-Schwarz with
    equality exactly on eigenvectors; its margins pass above
    -LOGCONVEXITY_TOL.  Separately each sample seeds a trajectory
    h(t) = |e^{-tA} x| on a log time grid, and a sample counts as
    log-convex when no second divided difference of log h falls below
    minus its rounding floor, built from the operands at each time (see
    _log_profile): for selfadjoint and normal A, |e^{-tA} x|^2 is a positive
    sum of exponentials, so a failure there could only be rounding.  Both
    pass fractions are reported, with the smallest margin and the smallest
    divided difference as computed; the forward-implication flag records
    whether "criterion for all sampled x" was accompanied by "log-convex for
    all sampled trajectories".

    The samples are processed as one stack, in passes of at most _BUDGET
    complex elements: the margins in blocks of _BUDGET // d rows, the
    profiles in passes over time (see _log_profile).  Every value is
    bit-identical to evaluating the samples, and the times, one by one.
    """
    if trials < 1:
        raise InvalidSpecError("need at least one trial vector")
    ts = np.geomspace(1e-3, 10.0, 25) if times is None else _real(times, "times")
    if ts.ndim != 1 or ts.size < 3:
        raise InvalidSpecError("need at least three times")
    if not (np.all(np.isfinite(ts)) and np.all(np.diff(ts) > 0)):
        raise InvalidSpecError("times must be finite and strictly increasing")
    a = gen.a
    # eigenvectors realize equality in the selfadjoint case; include them
    xs = _convexity_samples(gen, trials, seed)
    if not np.isfinite(gen.norm2 * gen.norm2):
        raise InvalidSpecError("||A||^2 exceeds float64 range: the criterion margins cannot be formed")
    # A = 0, or an ||A||^2 that underflows to 0, keeps scale 1
    scale = gen.norm2 ** 2 or 1.0
    rows = max(1, _BUDGET // gen.dim)
    margins = np.concatenate([
        _criterion_margins(a, xs[i:i + rows], scale) for i in range(0, len(xs), rows)
    ])
    divdiffs, slack = _log_profile(gen, xs, ts)
    crit_frac = float(np.mean(margins >= -LOGCONVEXITY_TOL))
    conv_frac = float(np.mean(slack >= -1.0))
    return ConvexityReport(
        n_trials=len(xs),
        criterion_fraction=crit_frac,
        logconvex_fraction=conv_frac,
        min_margin=float(np.min(margins)),
        min_second_divdiff=float(np.min(divdiffs)),
        forward_implication_observed=bool(crit_frac == 1.0 and conv_frac == 1.0),
        selfadjoint=gen.is_selfadjoint,
        seed=seed,
    )


@dataclass(frozen=True)
class ChainReport:
    t: float
    t_prime: float
    ratios: np.ndarray = field(repr=False)  # reported as max_ratio
    max_ratio: float
    selfadjoint: bool


def inverse_chain_demo(gen: MatrixGenerator, t: float, t_prime: float, seed: int) -> ChainReport:
    """Graph-norm ordering behind the descending chain of backward domains.

    For 0 < t < t_prime and sampled v the ratio
    |e^{tA} v| / (|v| + |e^{t_prime A} v|) is reported; selfadjoint A keeps
    it <= 1 because log |e^{tA} v| is convex in t, so the middle value
    interpolates between the endpoints.  Values above 1 expose
    non-selfadjoint transient growth.
    """
    if not 0.0 < t < t_prime:
        raise InvalidSpecError("need 0 < t < t_prime")
    rng = np.random.default_rng(seed)
    d = gen.dim
    vs = rng.standard_normal((_CHAIN_SAMPLES, d)) + 1j * rng.standard_normal((_CHAIN_SAMPLES, d))
    vs = np.vstack([vs, np.eye(d)])
    back_t, back_t_prime = exp_semigroup(gen, [-t, -t_prime])
    mid = _norms(_apply(back_t, vs))
    ratios = mid / (_norms(vs) + _norms(_apply(back_t_prime, vs)))
    return ChainReport(float(t), float(t_prime), ratios, float(np.max(ratios)), gen.is_selfadjoint)


# -- sample generators -----------------------------------------------------

def random_elliptic(dim: int, seed: int, skew_scale: float = 1.0) -> MatrixGenerator:
    """Random generator with Hermitian part spectrally inside [0.5, 3]."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    h = (q * rng.uniform(0.5, 3.0, dim)) @ q.conj().T
    h = 0.5 * (h + h.conj().T)
    s = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    s = 0.5 * (s - s.conj().T) * skew_scale
    return MatrixGenerator(h + s)


def random_selfadjoint(dim: int, seed: int) -> MatrixGenerator:
    return random_elliptic(dim, seed=seed, skew_scale=0.0)
