"""Forward Cauchy solver and source yield via exponential-integrator steps.

Sources are piecewise linear in time with spectral coefficients per node,
so every step of the variation-of-constants integral has a closed form in
the phi-functions; the march is exact for that source class up to rounding.
Coefficients are real: the march's node values are float64, and a state
is a sign and a log magnitude per mode, as in `spectral.SpectralVec`.
The march keeps the two terms of u(t) = e^{-tA} u0 + int_0^t e^{-(t-s)A}
f(s) ds apart: the decay of u0 is exact in log space, which keeps
trajectories meaningful even when the initial state carries
e^{T*lambda}-sized modes, and the source part is a bounded linear
recurrence.  On a resolved grid the recurrence runs as a prefix sum in
chunks, each spanning at most 8 units of the stiffest mode's decay, so a
chunk's factors stay within e^{+-8}; on a grid whose chunks would average
fewer than 16 steps, or with more than 96 modes, it runs as a step loop,
which is faster there.  On the requested nodes the two terms add in
linear scale wherever the decayed state fits in float64, and by a
log-space addition where it does not.
Every forward solve and every yield runs one path (`_march`): the
boundary solver's lift is one more forcing, lambda_j w_j(t), of the same
march, and a yield is the T row of a march from the zero state.  The
particular part depends on the forcing and the grid only, so a backward
solve keeps the march of its source yield and joins the replay's rows from
it when the replay runs on the same grid.  A trajectory keeps u0 and the
march and joins its rows when they are read: all of them for a norm or the
CSV, one alone for an end state, so a backward solve, which reads u(0) and
the T row, joins one row.  The requested nodes are rows of the march's
grid, so f and the lift are sampled once per march: the trajectory's
norms, residual and CSV read their node values off what the march sampled.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .logspace import LOG_MAX, InvalidSpecError, _real, _split_owned, logspace_add, merge_phase, split_phase
from .spectral import (
    EigenBasis,
    SpectralVec,
    TripleNorms,
    _check_horizon,
    _read_only,
    _stacked_norms,
)

PHI_TAYLOR_THRESHOLD = 1e-6
_LN2 = float(np.log(2.0))
# below the log of the smallest normal float64, exp loses bits to the subnormals
_LOG_TINY = float(np.log(np.finfo(np.float64).tiny))
_LOG_EPS = float(np.log(np.finfo(np.float64).eps))
# a time within _TIME_RTOL times the horizon of a grid end counts as that end
_TIME_RTOL = 1e-12
# the scan's chunks span at most this much decay of the stiffest mode.  The
# span must keep its factors e^x times 2^512-scaled sums finite (x below
# 400 ln 2), and the scan's rounding grows with it: against a 40-digit
# reference its largest error in w was 3.8-5.6 units of 2^-53 sum |terms| at
# span 8, 6.8-12 at 16 and 11-23 at 32 (the step loop's 2.6-8.0), and the
# gate of tests/test_march_accuracy.py held on 40 of 40 seeded long grids
# at 8, 39 at 16 and 37 at 32
_SCAN_SPAN = 8.0
# the scan costs about 4.5 us per chunk and 7 ns per mode and step, the step
# loop about 1 us per step: on uniform grids (2 vCPUs) the scan took 0.83 of
# the loop's time at 96 modes and chunks of 16 steps, and 1.0 at 128 modes.
# A grid with shorter chunks, or a basis with more modes, keeps the loop
_SCAN_MIN_STEPS = 16
_SCAN_MAX_MODES = 96


# -- node series: the time grid, the interpolation and the CSV form shared by
# the source f and the boundary data g

def _node_times(times, what: str) -> np.ndarray:
    """At least two finite, strictly increasing node times."""
    ts = _real(times, f"{what} times")
    if ts.ndim != 1 or ts.size < 2:
        raise InvalidSpecError(f"{what} needs at least two time nodes")
    if not (np.all(np.isfinite(ts)) and np.all(np.diff(ts) > 0)):
        raise InvalidSpecError(f"{what} times must be finite and strictly increasing")
    return ts


def _interpolate(times: np.ndarray, values: np.ndarray, ts, what: str) -> np.ndarray:
    """Piecewise-linear values of the node series at arbitrary times, shape
    (len(ts),) + values.shape[1:]."""
    ts = np.atleast_1d(_real(ts, f"{what} sample times"))
    first, last = times[0], times[-1]
    tol = _TIME_RTOL * max(abs(first), abs(last))
    # min and max carry a NaN, which fails both tests; an empty ts has neither
    if ts.size and not (first - tol <= ts.min() and ts.max() <= last + tol):
        raise InvalidSpecError(f"sample times outside the {what} grid")
    # the interval of each time, clipped to the first and the last: the
    # interior nodes at or below it
    idx = np.searchsorted(times[1:-1], ts, side="right")
    t0 = times[idx]
    w = ((ts - t0) / (times[1:][idx] - t0))[:, None]
    out = values[idx]
    out *= 1.0 - w
    upper = values[1:][idx]
    upper *= w
    out += upper
    return out


def _node_csv(header: list, rows) -> str:
    """Header line, then the reprs of each row's numbers, one line per row."""
    lines = [",".join(header), *(",".join(map(repr, row)) for row in rows)]
    return "\r\n".join(lines) + "\r\n"


def _parse_node_csv(text: str, header: list, header_error: str) -> np.ndarray:
    """The rows under `header` as a float array of shape (n_rows, len(header))."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise InvalidSpecError(
            f"CSV line {reader.line_num}: a field past csv's size limit, or a bare carriage return") from exc
    if not rows or [h.strip() for h in rows[0]] != header:
        raise InvalidSpecError(header_error)
    try:
        data = [[float(x) for x in row] for row in rows[1:] if row]
    except ValueError as exc:
        raise InvalidSpecError("every CSV field below the header must be a number") from exc
    if any(len(row) != len(header) for row in data):
        raise InvalidSpecError(f"every CSV row needs {len(header)} fields")
    return np.array(data, dtype=float).reshape(len(data), len(header))


@dataclass
class SourceTerm:
    """Dual-space-valued source, piecewise linear on a node grid.

    `coeffs` has shape (n_nodes, n_modes); row k holds the real spectral
    coefficients of f(times[k]).
    """

    basis: EigenBasis
    times: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.times = _node_times(self.times, "source")
        # a private copy: a kept march is matched to its source by identity
        self.coeffs = np.array(_real(self.coeffs, "source coefficients"))
        if self.coeffs.shape != (self.times.size, self.basis.n_modes):
            raise InvalidSpecError("source coefficient array must be (n_nodes, n_modes)")
        if not np.all(np.isfinite(self.coeffs)):
            raise InvalidSpecError("source coefficients must be finite")

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    def sample(self, ts) -> np.ndarray:
        """Piecewise-linear values at arbitrary times, shape (len(ts), m)."""
        return _interpolate(self.times, self.coeffs, ts, "source")

    @staticmethod
    def _csv_header(m: int) -> list:
        # t, mode_1_re, mode_1_im, ..., mode_m_im
        return ["t"] + [f"mode_{j}_{p}" for j in range(1, m + 1) for p in ("re", "im")]

    @classmethod
    def from_csv(cls, text: str, basis: EigenBasis) -> "SourceTerm":
        header = cls._csv_header(basis.n_modes)
        rows = _parse_node_csv(text, header, "source CSV header does not match the basis mode count")
        # each (re, im) pair read as one complex value, so a nonzero im is refused
        return cls(basis, rows[:, 0], np.ascontiguousarray(rows[:, 1:]).view(np.complex128))


def _phi12(z: np.ndarray):
    """phi1(z) = (e^z - 1)/z and phi2(z) = (e^z - 1 - z)/z^2 for z <= 0.

    Below |z| = 1e-6 the expm1 difference in phi2 loses digits, so a 4-term
    Taylor branch takes over.  It is evaluated on those entries only: its
    cube is a libm pow, which costs far more per entry than the rest of the
    function on the large |z| of the stiff modes.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < PHI_TAYLOR_THRESHOLD
    zs = np.where(small, 1.0, z)  # dummy to keep the division defined
    with np.errstate(over="ignore", under="ignore"):
        em1 = np.expm1(zs)
        phi1 = em1 / zs
        phi2 = (em1 - zs) / (zs * zs)
        if small.any():
            zt = z[small]
            phi1[small] = 1.0 + zt / 2 + zt * zt / 6 + zt ** 3 / 24
            phi2[small] = 0.5 + zt / 6 + zt * zt / 24 + zt ** 3 / 120
    return phi1, phi2


@dataclass(frozen=True)
class _Particular:
    """The particular part of a march, kept linear on its merged grid.

    Row k of `w` times 2^`expo` (per mode) is the zero-initial-state
    response at times[k] to the marched node values.  `source` is the
    SourceTerm when it was marched alone, so a later solve of the same
    source on the same grid can join these rows instead of marching again.
    """

    times: np.ndarray
    w: np.ndarray
    expo: np.ndarray
    source: SourceTerm | None = None


def _particular(lam: np.ndarray, times: np.ndarray, node_values: np.ndarray, source=None) -> _Particular:
    """The particular part w of the exact-per-step exponential march.

    times: merged increasing node grid starting at t_0; node_values[k] are
    the (already assembled) source coefficients at times[k], interpreted as
    piecewise linear.  w_0 = 0 and w_{k+1} = e^{-h_k lambda} w_k + step_k is
    bounded by the source times min(t, 1/lambda) and runs in linear scale:
    as a chunked scan (`_scan`), each chunk spanning at most _SCAN_SPAN of
    the stiffest mode's decay, or, where `_scan_bounds`'s size rule finds
    the chunks too short or the modes too many, one multiply-add per step
    (`_step_loop`).  A mode whose largest source value lies beyond 2^512
    (or below 2^-969) is first divided by an exact power of two near that
    value, so w stays finite for any finite source unless min(T,
    1/lambda_1) exceeds 2^499 (2^511 on the loop); the scale's log rejoins
    in `_join`.
    The phi values and the decay factors are computed once per distinct
    step length: a uniform grid has only a handful of distinct rounded steps.
    """
    hs = np.diff(times)
    lengths, which = np.unique(hs, return_inverse=True)
    z = -lengths[:, None] * lam
    phi1, phi2 = _phi12(z)
    phi_lo = phi1 - phi2
    with np.errstate(under="ignore"):
        decay = np.exp(z)
    # only a mode whose peak |value| lies outside 2^-969..2^512, where w
    # could overflow or sink toward the subnormals, is scaled: the log of a
    # scale adds a rounding, so every other mode keeps the unscaled bits.
    # The floor keeps 2^-expo finite
    peak = np.abs(node_values).max(axis=0)
    expo = np.frexp(peak)[1]
    expo = np.where((expo > 512) | (expo < -969), np.maximum(expo, -1021), 0)
    # a product by 2^0 is exact: with no mode scaled, the values are read as they are
    v = node_values * np.ldexp(1.0, -expo) if expo.any() else node_values
    w = np.empty_like(v)
    w[0] = 0.0
    np.multiply(v[:-1], phi_lo[which], out=w[1:])
    w[1:] += v[1:] * phi2[which]
    w[1:] *= hs[:, None]
    del v  # the join's temporaries set a solve's peak memory; free what it does not read
    bounds = _scan_bounds(times, lam)
    if bounds is None:
        _step_loop(w, decay, which)
    else:
        _scan(w, lam, times, bounds, decay, which)
    return _Particular(times, w, expo, source)


def _step_loop(w: np.ndarray, decay: np.ndarray, which: np.ndarray) -> None:
    """w_{k+1} = e^{-h_k lambda} w_k + s_k in place, one multiply-add per
    step; row k + 1 of `w` holds s_k on entry."""
    tmp = np.empty_like(w[0])
    for k, i in enumerate(which[1:].tolist(), start=1):
        np.multiply(w[k], decay[i], out=tmp)
        w[k + 1] += tmp


def _scan_bounds(times: np.ndarray, lam: np.ndarray):
    """The rows where the scan's chunks start, then the last row; None where
    the step loop is faster: past _SCAN_MAX_MODES modes, or on a grid whose
    chunks would average fewer than _SCAN_MIN_STEPS steps.

    A chunk from row k0 takes every row with (t - t_k0) lambda_max <=
    _SCAN_SPAN, and at least one step.  One search gives every row's
    reach; the chain of chunks then walks a list, and stops as soon as the
    chunks are known to be too short."""
    last = times.size - 1
    # fewer steps than one chunk's worth, a one-node grid's none included
    if lam.size > _SCAN_MAX_MODES or last < _SCAN_MIN_STEPS:
        return None
    reach = _SCAN_SPAN / float(lam.max())
    ends = (np.searchsorted(times, times + reach, side="right") - 1).tolist()
    bounds = [0]
    while bounds[-1] < last:
        if len(bounds) * _SCAN_MIN_STEPS > last:
            return None
        k0 = bounds[-1]
        bounds.append(max(ends[k0], k0 + 1))
    return bounds


def _scan(w, lam, times, bounds, decay, which) -> None:
    """The step loop's recurrence in place, as a prefix sum per chunk.

    In the chunk from row k0, w_{k0+m} = P_m (w_{k0} + sum_{i<=m} s_{k0+i}
    Q_i) with Q_i = e^{(t_{k0+i} - t_k0) lambda} and P_m = 1/Q_m: one
    cumulative sum down the chunk's rows, from the carried row k0 on.  The
    exponents x come from the time to the chunk start, not from products of
    the step decays, and reach at most _SCAN_SPAN on the stiffest mode, so
    Q stays below e^8 and a 2^512-scaled sum finite; their rounding, about
    eps x, is the scan's own error.  A chunk of one step takes the loop's
    multiply-add instead, so a step longer than the span forms no Q.
    The loop scales only each chunk's end row by its P, since the next
    chunk carries it; every other row is scaled once after the loop, where
    the end rows take P = 1.0, an exact product.
    """
    starts = np.asarray(bounds[:-1])
    sizes = np.diff(bounds)
    q = np.multiply.outer(times[1:] - times[np.repeat(starts, sizes)], lam)
    q[starts[sizes == 1]] = 0.0  # one-step chunks take the multiply-add and form no Q
    np.exp(q, out=q)
    w[1:] *= q
    np.divide(1.0, q, out=q)
    accumulate = np.add.accumulate
    for k0, k1 in zip(bounds[:-1], bounds[1:]):
        if k1 == k0 + 1:
            w[k1] += w[k0] * decay[which[k0]]
            continue
        chunk = w[k0 : k1 + 1]
        accumulate(chunk, axis=0, out=chunk)
        w[k1] *= q[k1 - 1]
    q[np.asarray(bounds[1:]) - 1] = 1.0  # the end rows are scaled, or one-step rows with P = 1
    w[1:] *= q


def _linear_entries(hom: np.ndarray, expo: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Where e^{hom} + w fits in linear scale: the mode is unscaled (`expo`
    0), e^{hom} is at most e^{LOG_MAX - 1}, so the sum cannot overflow, and
    exp flushes no value that counts: hom is at least the log of the
    smallest normal float64, or -inf, or more than eps below a nonzero |w|.

    hom, the decayed log magnitudes of `_join`, does not increase down a
    column, so the first and last rows decide most modes whole: an
    unscaled mode whose ends lie in [_LOG_TINY, LOG_MAX - 1], or whose
    first row is -inf, fits in every row, and a scaled mode or one whose
    last row lies past LOG_MAX - 1 in none.  Only the modes between, which
    cross LOG_MAX - 1 or _LOG_TINY, are tested entry by entry."""
    first, last = hom[0], hom[-1]
    scaled = expo != 0
    whole = ((first <= LOG_MAX - 1.0) & (last >= _LOG_TINY)) | (first == -np.inf)
    whole &= ~scaled
    fits = np.empty(hom.shape, dtype=bool)
    fits[...] = whole
    (cross,) = np.nonzero(~(whole | scaled | (last > LOG_MAX - 1.0)))
    if cross.size:
        h = hom[:, cross]
        part = h <= LOG_MAX - 1.0
        low = h < _LOG_TINY
        low &= h > -np.inf
        low &= part
        if low.any():
            with np.errstate(divide="ignore"):
                part[low] = h[low] < np.log(np.abs(w[:, cross][low])) + _LOG_EPS
        fits[:, cross] = part
    return fits


def _log_join(phase, hom, w, expo):
    """e^{hom} sign + w 2^expo by one log-space addition; `w` is a copy the
    split may overwrite."""
    w_p, w_l = _split_owned(w)
    w_l += expo * _LN2
    return logspace_add(phase, hom, w_p, w_l)


def _join(u0: SpectralVec, part: _Particular, pick: np.ndarray):
    """Sign/logmag states u(t_k) = e^{-(t_k - t_0) lambda} u0 + w_k 2^expo
    at the rows `pick` of the march's grid.

    The homogeneous part is one exact broadcast in log space, so an
    e^{T lambda}-sized u0 never enters a recurrence.  Where an entry fits
    (`_linear_entries`), the two parts add in linear scale and the sum is
    split to log form once; only the other entries (past LOG_MAX - 1, in a
    mode the march scaled, or flushed toward the subnormals) meet in a
    log-space addition.  A row at t_0 is u0 itself, copied.  `part` is
    read, never written, so a kept march can be joined again.
    """
    times, expo, w = part.times, part.expo, part.w[pick]
    hom = u0.logmag + -(times[pick] - times[0])[:, None] * u0.basis.lambdas
    fits = _linear_entries(hom, expo, w)
    tail = None
    if not fits.all():
        rest = np.nonzero(~fits)
        modes = rest[1]
        tail = _log_join(u0.phase[modes], hom[rest], w[rest], expo[modes])
        hom[rest] = -np.inf  # the log path's entries add as zeros below
        w[rest] = 0.0
    s = merge_phase(u0.phase, hom)
    s += w
    phase, logmag = _split_owned(s)
    if tail is not None:
        phase[rest], logmag[rest] = tail
    if pick[0] == 0:  # the state at t_0 is u0 itself, kept in its exact log form
        phase[0], logmag[0] = u0.phase, u0.logmag
    return phase, logmag


def _merged_grid(f: SourceTerm | None, tgrid: np.ndarray, t_end: float, extra=None) -> np.ndarray:
    parts = [np.asarray(tgrid, dtype=float).ravel(), [0.0, t_end]]
    if f is not None:
        parts.append(f.times)
    if extra is not None:
        parts.append(np.asarray(extra, dtype=float).ravel())
    # np.unique's own sort and adjacent-difference mask, without the
    # numpy.ma import that a first plain np.unique call pays
    merged = np.sort(np.concatenate(parts))
    merged = merged[np.concatenate(([True], merged[1:] != merged[:-1]))]
    return merged[(merged >= 0.0) & (merged <= t_end)]


@dataclass(frozen=True)
class Trajectory:
    """States of one solve on its requested time grid, stored as arrays.

    `phase` and `logmag` have shape (n_nodes, n_modes): row k is the state
    at times[k] in the sign/log-magnitude form of SpectralVec.  They are
    joined on first read, from what the trajectory keeps: a private
    read-only copy of u(0) (`_u0`), and the march of the forcing (`_march`),
    or None on pure decay, whose rows are the flow
    of u(0) at each node.  Once they are built, the march is dropped.
    `initial_state` and `final_state` wrap the end rows as SpectralVec
    views; before the full arrays exist, each joins its row alone (the row
    at the march's first node is u(0) itself), with the same bits, so a
    backward solve, which reads only those, joins one row.
    The trajectory is frozen and its arrays are read-only, so what its
    readers derive is computed once, on first use, and read-only too: the
    linear rows c (`_coeffs`), f's rows (`_source_rows`), the lift's (a,
    b, w) (`_lift_rows`), the zero-trace part p = c - w (`_zero_trace`; c
    without a lift), `node_norms` and `residual_dual_sq`.
    `lift` is the boundary solver's `LiftPath`, passed in at construction.
    The nodes are rows of the march's grid, so `solve_cauchy` passes what
    the march sampled of f and of the lift at them (`samples`: f's rows and
    the lift's (a, b, w), each None when absent); only a part the solve did
    not sample is sampled on first read: a zero lift, which marches
    nothing, and f on a replay that joined a kept yield march.
    """

    basis: EigenBasis
    times: np.ndarray
    _u0: SpectralVec
    _march: _Particular | None
    source: SourceTerm | None = None
    lift: object | None = None
    samples: tuple = (None, None)

    @cached_property
    def _rows(self):
        phase, logmag = _node_rows(self._u0, self.times, self._march)
        object.__setattr__(self, "_march", None)  # every row is built: the march is read no more
        return _read_only(phase), _read_only(logmag)

    @property
    def phase(self) -> np.ndarray:
        return self._rows[0]

    @property
    def logmag(self) -> np.ndarray:
        return self._rows[1]

    def _state(self, k: int) -> SpectralVec:
        if "_rows" in self.__dict__:
            return SpectralVec._of(self.basis, self.phase[k], self.logmag[k])
        if self._march is not None and self.times[k] == 0.0:
            return self._u0
        phase, logmag = _node_rows(self._u0, self.times[[k]], self._march)
        return SpectralVec._of(self.basis, _read_only(phase[0]), _read_only(logmag[0]))

    @cached_property
    def initial_state(self) -> SpectralVec:
        return self._state(0)

    @cached_property
    def final_state(self) -> SpectralVec:
        return self.initial_state if self.times.size == 1 else self._state(-1)

    @cached_property
    def _coeffs(self) -> np.ndarray:
        return _read_only(merge_phase(self.phase, self.logmag))

    @cached_property
    def _source_rows(self) -> np.ndarray:
        rows = self.samples[0]
        return _read_only(self.source.sample(self.times) if rows is None else rows)

    @cached_property
    def _lift_rows(self):
        rows = self.samples[1]
        return tuple(map(_read_only, self.lift.sample(self.times) if rows is None else rows))

    @cached_property
    def _zero_trace(self) -> np.ndarray:
        return self._coeffs if self.lift is None else _read_only(self._coeffs - self._lift_rows[2])

    @cached_property
    def node_norms(self) -> TripleNorms:
        """H, V and V* norms of every node; each field has shape (n_nodes,)."""
        return _stacked_norms(self.basis, self._coeffs, self.logmag)

    @cached_property
    def residual_dual_sq(self) -> np.ndarray:
        """||u'(t_k)||_*^2 per node, read-only, with u' = f - A (u - w) from
        the equation itself (w the boundary lift), not from numerical
        differencing."""
        lam = self.basis.lambdas
        with np.errstate(over="ignore", invalid="ignore"):
            res = lam * self._zero_trace
            if self.source is not None:
                np.subtract(self._source_rows, res, out=res)
            np.square(res, out=res)
            res /= lam
        return _read_only(res.sum(axis=-1))

    def to_csv(self) -> str:
        """Long-format space-time samples: t, x, u at 65 uniform points per
        node.  A sample past float64 range is refused."""
        (L,) = self.basis.spec.lengths
        xs = np.linspace(0.0, L, 65)
        table = self.basis.mode_values(xs)
        coeffs = self._coeffs
        with np.errstate(over="ignore", invalid="ignore"):
            if self.lift is not None:
                # states hold the full sine coefficients; swap the lift's
                # series for its exact affine values so the endpoints do not
                # ring.  p's round trip through sign/log form keeps the
                # CSV's bytes: without it, 1,378 of the 8,385 rows of the
                # N = 16 golden boundary trajectory of the tests change
                a, b, _ = self._lift_rows
                coeffs = merge_phase(*split_phase(self._zero_trace))
            vals = np.array([c @ table for c in coeffs])
            if self.lift is not None:
                vals = vals + a[:, None] + b[:, None] * xs
        if not np.all(np.isfinite(vals)):
            raise InvalidSpecError("trajectory values leave floating-point range")
        # each node's t and the 65 x are formatted once, each u once per line
        x_cols = [f",{x!r}," for x in xs.tolist()]
        lines = ["t,x,u\r\n"]
        for t, row in zip(self.times.tolist(), vals.tolist()):
            t_r = repr(t)
            lines += [f"{t_r}{x}{u!r}\r\n" for x, u in zip(x_cols, row)]
        return "".join(lines)


def _validate_tgrid(tgrid, t_end: float) -> np.ndarray:
    ts = _real(tgrid, "time grid")
    if ts.ndim != 1 or ts.size < 1:
        raise InvalidSpecError("time grid must be a nonempty 1-d array")
    if not np.isfinite(ts).all():
        raise InvalidSpecError("time grid must be finite")
    if not (ts[1:] > ts[:-1]).all():
        raise InvalidSpecError("time grid must be strictly increasing")
    if ts[0] < 0 or ts[-1] - t_end > _TIME_RTOL * ts[-1]:
        raise InvalidSpecError("time grid must lie inside [0, T] of the data")
    return ts


def _default_grid(f: SourceTerm | None, T: float) -> np.ndarray:
    """The grid of a solve that names none: the yield grid, f's nodes in
    [0, T] plus 0 and T, or 33 uniform nodes without a source."""
    return _merged_grid(f, [T], T) if f is not None else np.linspace(0.0, T, 33)


def _march(basis: EigenBasis, f: SourceTerm | None, tgrid, lift, march: _Particular | None):
    """The requested nodes, the march behind them and what it sampled: the
    checked grid, the march of f and the lift on the merged grid (None when
    nothing is marched: no f, and no lift or a zero one), and f's rows and
    the lift's (a, b, w) on that grid, each None when absent.  `tgrid` must
    lie in [0, T] of f and of the lift's g.  The lift adds its forcing
    lambda_j w_j(t) to f and its kinks to the merged grid.  A kept `march`
    of f alone on the merged grid is returned as it is, with the same
    floats as a fresh one, and no samples."""
    t_end = min(np.inf if f is None else f.t_final, np.inf if lift is None else lift.g.t_final)
    ts = _validate_tgrid(tgrid, t_end)
    if f is not None and not f.basis.same_as(basis):
        raise InvalidSpecError("source and state use different bases")
    if lift is not None and lift.g.is_zero:
        lift = None
    if f is None and lift is None:
        return ts, None, (None, None)
    merged = _merged_grid(f, ts, ts[-1], extra=None if lift is None else lift.g.times)
    if march is not None and march.source is f and lift is None and np.array_equal(march.times, merged):
        return ts, march, (None, None)
    samples = (None if f is None else f.sample(merged), None if lift is None else lift.sample(merged))
    values = samples[0] if f is not None else np.zeros((merged.size, basis.n_modes))
    if lift is not None:
        values = values + samples[1][2] * lift.basis.lambdas
    march = _particular(basis.lambdas, merged, values, f if lift is None else None)
    del values  # the march is kept: free the summed forcing before the join, whose temporaries set a solve's peak memory
    return ts, march, samples


def _node_rows(u0: SpectralVec, ts: np.ndarray, march: _Particular | None):
    """The phase and logmag rows of u at the nodes ts: the join of u0's
    decay with the march's rows at ts, or on pure decay (no march) the flow
    evaluated at each node, with no stepping.  `_linear_entries` decides
    each entry from that entry alone, so a row has the same bits whichever
    other nodes are joined with it."""
    if march is None:
        logmag = u0.logmag + -ts[:, None] * u0.basis.lambdas
        # every node has u0's signs: one row, broadcast read-only
        return np.broadcast_to(u0.phase, logmag.shape), logmag
    return _join(u0, march, np.searchsorted(march.times, ts))


def solve_cauchy(u0: SpectralVec, f: SourceTerm | None, tgrid, *, lift=None, march: _Particular | None = None) -> Trajectory:
    """March u' + A u = f from u(0) = u0 and record the requested nodes.

    The step formula integrates the piecewise-linear source exactly, so the
    endpoint satisfies the variation-of-constants identity to rounding.
    `lift` is the boundary solver's `LiftPath`: its forcing joins f, and
    the trajectory carries it.  `march` is the particular part of f already
    marched alone (`_yield`); when the grid this call merges is the march's
    grid, its rows are joined and nothing is marched again.  The
    trajectory takes the march, and the rows `_march` sampled of f and the
    lift at its nodes, and joins its rows when they are read (see
    `Trajectory`).
    """
    ts, march, (f_rows, lift_rows) = _march(u0.basis, f, tgrid, lift, march)
    samples = (None, None)
    if march is not None:
        pick = np.searchsorted(march.times, ts)
        samples = (None if f_rows is None else f_rows[pick],
                   None if lift_rows is None else tuple(x[pick] for x in lift_rows))
    own = SpectralVec._of(u0.basis, _read_only(u0.phase.copy()), _read_only(u0.logmag.copy()))
    return Trajectory(u0.basis, ts, own, march, source=f, lift=lift, samples=samples)


def _yield(basis: EigenBasis, f: SourceTerm | None, lift, T: float):
    """The state at T of the solution from zero driven by f and the lift,
    and the march it is the T row of (None when nothing is marched).  The
    march runs on the yield grid, f's and g's nodes in [0, T] plus 0 and T,
    and stays linear: only the T row is split to log form.  From the zero
    state that row is the march's own, w_T 2^expo: the split of w_T + 0.0
    (which reads -0.0 as 0), with expo ln 2 added in the modes the march
    scaled; the join with the zero state gives the same floats.  A backward
    solve keeps the march through the ladder and the replay; what the
    march sampled is dropped here, and a replay that joins the march
    samples f at its own nodes only when a reader asks."""
    _, march, _ = _march(basis, f, [T], lift, None)
    if march is None:
        return SpectralVec.zero(basis), None
    phase, logmag = _split_owned(march.w[-1] + 0.0)
    if march.expo.any():
        logmag += march.expo * _LN2
    return SpectralVec._of(basis, phase, logmag), march


def source_yield(f: SourceTerm, T: float) -> SpectralVec:
    """Value at T of the zero-initial-state solution driven by f."""
    T = float(T)
    _check_horizon(T)
    return _yield(f.basis, f, None, T)[0]


# -- space-time norms and estimates --------------------------------------

def _trapezoid(values: np.ndarray, times: np.ndarray) -> float:
    with np.errstate(over="ignore"):  # an integral past float64 range reads inf
        return float(np.trapezoid(values, times))


def solution_norm(traj: Trajectory) -> float:
    """Mixed space-time norm of a trajectory.

    Square root of: int ||u||_V^2 dt + sup_t |u|_H^2 + int (||u||_*^2
    + ||u'||_*^2) dt, with time integrals by trapezoid on the trajectory
    grid and u' taken from the equation.
    """
    if traj.times.size < 2:
        raise InvalidSpecError("a trajectory norm needs at least two nodes")
    norms = traj.node_norms
    with np.errstate(over="ignore"):
        v2 = norms.normV ** 2
        h2 = norms.normH ** 2
        vs2 = norms.normVstar ** 2
    total = (
        _trapezoid(v2, traj.times)
        + float(np.max(h2))
        + _trapezoid(vs2, traj.times)
        + _trapezoid(traj.residual_dual_sq, traj.times)
    )
    return float(np.sqrt(total))


@np.errstate(over="ignore", invalid="ignore")  # f past the square root of float64's range reads inf or NaN
def squared_source_dual_norm(f: SourceTerm, T: float) -> float:
    """Exact int_0^T ||f||_*^2 dt for the piecewise-linear source."""
    T = float(T)
    _check_horizon(T)
    lam = f.basis.lambdas
    # the intervals that start before T; only the last can end past it
    n = int(np.count_nonzero(f.times[:-1] < T))
    fa = f.coeffs[:n]
    fb = f.coeffs[1 : n + 1].copy()
    if n and f.times[n] > T:
        fb[-1] = f.sample([T])[0]
    h = np.minimum(f.times[1 : n + 1], T) - f.times[:n]
    # int (fa(1-s)+fb s)^2 = (fa^2 + fa fb + fb^2)/3 per unit step
    quad = (fa * fa + fa * fb + fb * fb) / 3.0
    return float(h @ (quad / lam).sum(axis=-1))


@dataclass(frozen=True)
class EnergyReport:
    """A-priori energy bound and the pointwise-in-time embedding bound,
    evaluated on one computed trajectory."""

    energy_lhs: float
    energy_rhs: float
    energy_ok: bool
    sobolev_lhs: float
    sobolev_rhs: float
    sobolev_ok: bool


def check_energy_estimate(traj: Trajectory) -> EnergyReport:
    """Evaluate both sides of the energy and sup-norm estimates.

    energy:  int ||u||_V^2 <= C4^{-1} |u(0)|^2 + C4^{-2} int ||f||_*^2
    embed:   sup |u|^2 <= (1 + C2^2/(C1^2 T)) int ||u||_V^2 + int ||u'||_*^2
    """
    basis = traj.basis
    if traj.times.size < 2:
        raise InvalidSpecError("energy check needs at least two nodes")
    T = float(traj.times[-1] - traj.times[0])
    norms = traj.node_norms
    with np.errstate(over="ignore"):
        v2 = norms.normV ** 2
        h2 = norms.normH ** 2
    int_v2 = _trapezoid(v2, traj.times)
    f2 = squared_source_dual_norm(traj.source, traj.times[-1]) if traj.source is not None else 0.0
    lhs = int_v2
    rhs = h2[0] / basis.C4 + f2 / basis.C4 ** 2
    sob_lhs = float(np.max(h2))
    sob_rhs = (1.0 + basis.C2 ** 2 / (basis.C1 ** 2 * T)) * int_v2 + _trapezoid(traj.residual_dual_sq, traj.times)
    return EnergyReport(lhs, rhs, bool(lhs <= rhs * (1 + 1e-12)), sob_lhs, sob_rhs, bool(sob_lhs <= sob_rhs * (1 + 1e-12)))
