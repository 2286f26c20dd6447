"""The split forward march against a 50-digit reference.

The forward march (`duhamel._join` of `duhamel._particular`) writes u(t_k)
as the homogeneous flow e^{-t_k lambda} u0, one broadcast in log space, plus
the particular part w_k, a linear recurrence over the phi-function steps.
The join adds the two in linear scale where they fit and by a log-space
addition elsewhere.  Two yardsticks are kept: the march before the split,
which carried the whole state through one log-space addition per step
(`_logspace_march`), and the join before the linear path, one log-space
addition over every entry (`duhamel._log_join`).

All of them take the same float64 phi steps (the step formula did not
change), so the reference runs the same steps at 50 digits and evaluates
the homogeneous flow exactly.  The errors then measure the recurrence, the
join and the phase/log-magnitude representation.

Gate, on seeded decay, source, boundary and mixed-range cases at N = 16, 64
and 256 on 17-node grids, where the particular part takes the step loop,
and on source and boundary cases at N = 16 and 64 on 257-node grids
resolved as in the forward-norms benchmark, where it runs as a chunked
scan, at every requested node and every mode whose reference magnitude
exceeds 1e-300:
  * the march's relative error exceeds the log join's by at most a few
    units of float64 rounding of that entry's condition number, the floor
    below which no float64 join can separate the two;
  * except in the mixed case, it is at most the old march's error, or
    within that floor;
  * per case, the largest error of the march is at most the old march's.
The mixed case starts from exponents of about 880, and the rounding of
e^{-t lambda} u0's exponent, which both joins share, exceeds the floor
there: the log join also errs beyond it, and beyond the old march, on a
few entries.
"""

import mpmath
import numpy as np
import pytest

from heatfvp import boundary as bd
from heatfvp import duhamel as dh
from heatfvp.logspace import log_sum_exp, logspace_add, split_phase
from heatfvp.spectral import DomainSpec, SpectralVec, build_basis

U = 2.0 ** -53
ROUNDING_UNITS = 4


def _steps(lam, times, node_values):
    """The phi-function step of every interval, as both marches form it."""
    hs = np.diff(times)
    lengths, which = np.unique(hs, return_inverse=True)
    phi1, phi2 = dh._phi12(-lengths[:, None] * lam)
    return hs[:, None] * (node_values[:-1] * (phi1 - phi2)[which] + node_values[1:] * phi2[which])


def _logspace_march(u0, times, node_values, pick):
    """The march before the split: one log-space addition per step."""
    lam = u0.basis.lambdas
    step_p, step_l = split_phase(_steps(lam, times, node_values))
    decay = -np.diff(times)[:, None] * lam
    phase, logmag = u0.phase, u0.logmag
    out_p, out_l = [phase], [logmag]
    for k in range(times.size - 1):
        phase, logmag = logspace_add(phase, logmag + decay[k], step_p[k], step_l[k])
        out_p.append(phase)
        out_l.append(logmag)
    return np.array(out_p)[pick], np.array(out_l)[pick]


def _case(n, kind):
    """(u0, merged grid, node values, requested rows) of one seeded case:
    a 17-node march grid, requested at every other node.

    decay: u0 up to e^{900}, past LOG_MAX, and no source.  source and
    boundary: a replay-sized u0 ~ e^{T lambda_j - 2.2 j} with a
    piecewise-linear source, and for boundary the lift source of Dirichlet
    data on top.  mixed: a u0 whose high modes start past LOG_MAX and end
    below the smallest normal float64, with a source that leaves the top
    mode unforced, so the join takes both paths in one solve."""
    basis = build_basis(DomainSpec("interval", (np.pi,), n))
    rng = np.random.default_rng([n, ("decay", "source", "boundary", "mixed").index(kind)])
    lam = basis.lambdas
    j = np.arange(1, n + 1, dtype=float)
    phase = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    if kind == "decay":
        T = 1000.0 / lam[-1]
        times = np.linspace(0.0, T, 17)
        u0 = SpectralVec(basis, phase, 0.9 * T * lam - 2.2 * j)
        return u0, times, np.zeros((times.size, n)), np.arange(0, 17, 2)
    T = (1600.0 if kind == "mixed" else 12.8) / lam[-1]
    tgrid = np.linspace(0.0, T, 17)
    u0 = SpectralVec(basis, phase, 0.55 * T * lam - 0.1 * j if kind == "mixed" else T * lam - 2.2 * j)
    coeffs = rng.standard_normal((5, n)) * np.exp(-0.2 * j)
    if kind == "mixed":
        coeffs[:, -1] = 0.0
    f = dh.SourceTerm(basis, np.linspace(0.0, T, 5), coeffs)
    g = bd.BoundaryData(np.array([0.0, T / 3, T]), rng.uniform(-1.0, 1.0, (3, 2))) if kind == "boundary" else None
    times = dh._merged_grid(f, tgrid, T, extra=None if g is None else g.times)
    values = f.sample(times)
    if g is not None:
        values = values + bd.LiftPath(g, basis).sample(times)[2] * lam
    return u0, times, values, np.searchsorted(times, tgrid[::2])


def _long_case(n, kind):
    """(u0, merged grid, node values, requested rows) of one case in the
    shape of the forward-norms benchmark: 257 requested nodes with h =
    0.4/lambda_max, a source on 4 nodes, and for boundary the lift source of
    a Dirichlet ramp on top; requested at every other node.  The chunks of
    the scan then hold about 20 steps each."""
    basis = build_basis(DomainSpec("interval", (np.pi,), n))
    rng = np.random.default_rng([n, 4 + ("source", "boundary").index(kind)])
    lam = basis.lambdas
    j = np.arange(1, n + 1, dtype=float)
    T = 256 * 0.4 / lam[-1]
    tgrid = np.linspace(0.0, T, 257)
    u0 = SpectralVec.from_coefficients(basis, rng.standard_normal(n) * np.exp(-0.2 * j))
    f = dh.SourceTerm(basis, np.linspace(0.0, T, 4), rng.standard_normal((4, n)) * np.exp(-0.05 * lam))
    g = bd.BoundaryData(np.array([0.0, T / 2, T]), rng.uniform(-1.0, 1.0, (3, 2))) if kind == "boundary" else None
    times = dh._merged_grid(f, tgrid, T, extra=None if g is None else g.times)
    values = f.sample(times)
    if g is not None:
        values = values + bd.LiftPath(g, basis).sample(times)[2] * lam
    return u0, times, values, np.searchsorted(times, tgrid[::2])


def _reference(u0, times, steps, pick):
    """e^{-t_k lambda} u0 + w_k over the float64 steps, with every time
    difference and decay exact, at 50 digits.  Returned as double-double
    pairs: sign p_hi + p_lo (p_lo is 0, as a sign is exact) and log
    magnitude l_hi + l_lo."""
    shape = (pick.size, u0.basis.n_modes)
    p_hi, p_lo = np.zeros(shape), np.zeros(shape)
    l_hi, l_lo = np.full(shape, -np.inf), np.zeros(shape)
    with mpmath.workdps(50):
        ts = [mpmath.mpf(t) for t in times.tolist()]
        hs = [b - a for a, b in zip(ts[:-1], ts[1:])]
        row_of = {k: r for r, k in enumerate(pick.tolist())}
        for j, lam in enumerate(u0.basis.lambdas.tolist()):
            lam = mpmath.mpf(lam)
            hom = mpmath.mpf(float(u0.phase[j])) * mpmath.exp(mpmath.mpf(float(u0.logmag[j])))
            w = mpmath.mpf(0)
            for k in range(len(ts)):
                u = hom + w if k in row_of else 0
                if u != 0:
                    r, mag = row_of[k], abs(u)
                    unit, log_mag = u / mag, mpmath.log(mag)
                    p_hi[r, j] = float(unit)
                    p_lo[r, j] = float(unit - p_hi[r, j])
                    l_hi[r, j] = float(log_mag)
                    l_lo[r, j] = float(log_mag - l_hi[r, j])
                if k + 1 < len(ts):
                    decay = mpmath.exp(-hs[k] * lam)
                    hom *= decay
                    w = decay * w + mpmath.mpf(float(steps[k, j]))
    return p_hi, p_lo, l_hi, l_lo


def _rel_errors(ref, phase, logmag):
    """|u - ref| / |ref| per entry; nan where |ref| <= 1e-300.

    u / ref = (p / P) e^{l - L}; against the double-double reference both
    differences are exact to far below their own size."""
    p_hi, p_lo, l_hi, l_lo = ref
    dp = ((phase - p_hi) - p_lo) * p_hi
    em1 = np.expm1((logmag - l_hi) - l_lo)
    err = np.abs(dp + em1 + dp * em1)
    return np.where(l_hi > np.log(1e-300), err, np.nan)


def _condition(u0, times, steps, pick, logref):
    """Sum of the magnitudes of the terms of u(t_k), over |u(t_k)|, plus
    |log|u(t_k)||, the relative rounding of the stored log magnitude."""
    lam = u0.basis.lambdas
    t = times[pick][:, None, None]
    with np.errstate(divide="ignore"):
        terms = np.log(np.abs(steps))[None] - (t - times[1:][None, :, None]) * lam
    # only the steps that end by t_k enter u(t_k)
    terms = np.where(times[1:][None, :, None] > t, -np.inf, terms)
    hom = (u0.logmag - times[pick][:, None] * lam)[:, :, None]
    total = log_sum_exp(np.concatenate([hom, np.moveaxis(terms, 1, 2)], axis=2))
    with np.errstate(invalid="ignore", over="ignore"):
        return np.exp(total - logref) + np.abs(logref)


@pytest.mark.parametrize("kind", ["decay", "source", "boundary", "mixed"])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_split_march_is_no_less_accurate(n, kind):
    _check_march(n, kind, *_case(n, kind))


@pytest.mark.parametrize("kind", ["source", "boundary"])
@pytest.mark.parametrize("n", [16, 64])
def test_scanned_march_is_no_less_accurate(n, kind):
    """The same gate on resolved grids, where the particular part runs as a
    chunked scan; its chunks must hold many steps each, so a change that
    falls back to the step loop fails here."""
    u0, times, values, pick = _long_case(n, kind)
    bounds = dh._scan_bounds(times, u0.basis.lambdas)
    assert bounds is not None and len(bounds) - 1 <= (times.size - 1) // 16
    _check_march(n, kind, u0, times, values, pick)


def _check_march(n, kind, u0, times, values, pick):
    steps = _steps(u0.basis.lambdas, times, values)
    ref = _reference(u0, times, steps, pick)
    part = dh._particular(u0.basis.lambdas, times, values)
    hom = u0.logmag + -(times[pick] - times[0])[:, None] * u0.basis.lambdas
    fits = dh._linear_entries(hom, part.expo, part.w[pick])
    if kind == "mixed":
        assert fits.any() and not fits.all()
    with np.errstate(invalid="ignore"):
        old = _rel_errors(ref, *_logspace_march(u0, times, values, pick))
        log_join = _rel_errors(ref, *dh._log_join(u0.phase, hom, part.w[pick], part.expo))
        new = _rel_errors(ref, *dh._join(u0, part, pick))
    live = ~np.isnan(old)
    assert live.sum() > 0.5 * live.size and np.array_equal(live, ~np.isnan(new))
    floor = ROUNDING_UNITS * U * _condition(u0, times, steps, pick, ref[2])
    worse = live & (new > log_join + floor)
    if kind != "mixed":
        worse |= live & (new > np.maximum(old, floor))
    report = (
        f"N={n} {kind}: {np.count_nonzero(fits)} of {fits.size} entries joined in linear scale; "
        f"max rel error old march {np.nanmax(old):.3e}, log join {np.nanmax(log_join):.3e}, "
        f"new {np.nanmax(new):.3e}; against the log join new lower on {np.count_nonzero(new[live] < log_join[live])}, "
        f"equal on {np.count_nonzero(new[live] == log_join[live])}, "
        f"higher but within the rounding floor on {np.count_nonzero(new[live] > log_join[live])} of {live.sum()} entries"
    )
    print(report)
    assert not worse.any(), f"{report}; worse at (row, mode) {np.argwhere(worse)[:5].tolist()}"
    assert np.nanmax(new) <= np.nanmax(old), report
