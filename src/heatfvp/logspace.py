"""Compensated sums and phase/log-magnitude arithmetic.

Backward evolution multiplies coefficients by factors like e^{t*lambda} that
leave float64 range long before the math degenerates, so magnitudes are kept
as natural logs and recombined only when representable.
"""

from __future__ import annotations

import math

import numpy as np

# largest x with exp(x) finite in float64, ~709.78
LOG_MAX = float(np.log(np.finfo(np.float64).max))


def kahan_sum(values):
    """Compensated sum along the last axis, in ascending index order.

    A 1-d input returns a Python float.  A stacked input of shape (..., n)
    returns an array of shape (...,): every row runs the same recurrence
    over the same columns in the same order, so each entry equals the 1-d
    call on that row bit for bit.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.ndim == 1:
        return _kahan_row(a.tolist())
    rows = a.reshape(math.prod(a.shape[:-1]), a.shape[-1])
    if rows.shape[0] < _COLUMN_PASS_ROWS:
        out = np.array([_kahan_row(r) for r in rows.tolist()], dtype=np.float64)
    else:
        out = _kahan_columns(rows)
    return out.reshape(a.shape[:-1])


# below this many rows the per-row scalar loop beats the per-column array pass
_COLUMN_PASS_ROWS = 32


def _kahan_row(values: list) -> float:
    s = 0.0
    c = 0.0
    for x in values:
        y = x - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


def _kahan_columns(rows: np.ndarray) -> np.ndarray:
    # the row recurrence, one column at a time, vectorized over the rows
    s = np.zeros(rows.shape[0])
    c = np.zeros(rows.shape[0])
    y = np.empty_like(s)
    t = np.empty_like(s)
    with np.errstate(over="ignore", invalid="ignore"):
        for x in np.ascontiguousarray(rows.T):
            np.subtract(x, c, out=y)
            np.add(s, y, out=t)
            np.subtract(t, s, out=c)
            np.subtract(c, y, out=c)
            s, t = t, s
    return s


def log_sum_exp(terms):
    """log(sum(exp(terms))) along the last axis; -inf entries contribute zero.

    The shifted exponentials are accumulated with `kahan_sum` in index
    order, so results are bit-reproducible, and each row of a stacked input
    equals the 1-d call on that row.  A 1-d input returns a Python float.
    """
    a = np.asarray(terms, dtype=np.float64)
    if a.ndim == 1:
        if a.size == 0:
            return float("-inf")
        m = float(np.max(a))
        if m == float("-inf") or np.isnan(m):
            return m
        with np.errstate(under="ignore"):
            shifted = np.exp(a - m)
        return m + float(np.log(kahan_sum(shifted)))
    m = np.max(a, axis=-1, initial=-np.inf)
    # a row whose maximum is -inf or nan returns that maximum unchanged
    live = (m > -np.inf) | (m == np.inf)
    with np.errstate(under="ignore", invalid="ignore", divide="ignore"):
        shifted = np.exp(a - np.where(live, m, 0.0)[..., None])
        return np.where(live, m + np.log(kahan_sum(shifted)), m)


# exact power-of-two rescaling keeps phase division away from the subnormal
# range, where the quotient overflows and loses accuracy
_SCALE = 2.0 ** 600
_LOG_SCALE = 600.0 * float(np.log(2.0))


def split_phase(z):
    """Decompose complex values into (unit phase, log magnitude).

    Zeros map to phase 0 and log magnitude -inf.
    """
    z = np.asarray(z, dtype=np.complex128)
    mag = np.abs(z)
    nz = mag > 0.0
    small = nz & (mag < 1e-280)
    big = mag > 1e280
    zs = np.where(small, z * _SCALE, np.where(big, z / _SCALE, z))
    mags = np.abs(zs)
    safe = np.where(nz, mags, 1.0)
    phase = np.where(nz, zs / safe, 0.0 + 0.0j)
    shift = np.where(small, -_LOG_SCALE, np.where(big, _LOG_SCALE, 0.0))
    with np.errstate(divide="ignore"):
        logmag = np.where(nz, np.log(safe) + shift, -np.inf)
    return phase, logmag


def merge_phase(phase, logmag):
    """Linear-scale mirror; magnitudes beyond float64 range become inf."""
    # invalid: complex phase times real inf multiplies 0*inf in one component
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return np.asarray(phase) * np.exp(np.asarray(logmag))


def logspace_add(p1, l1, p2, l2):
    """Elementwise p1*e^{l1} + p2*e^{l2} in phase/log-magnitude form.

    The larger exponent is factored out, so the inner sum never overflows;
    exact cancellation yields phase 0 / logmag -inf.
    """
    l1 = np.asarray(l1, dtype=np.float64)
    l2 = np.asarray(l2, dtype=np.float64)
    m = np.maximum(l1, l2)
    # both -inf: pin the shift at 0 so the exps evaluate to 0, not nan
    safe_m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(under="ignore"):
        s = np.asarray(p1) * np.exp(l1 - safe_m) + np.asarray(p2) * np.exp(l2 - safe_m)
    phase, lg = split_phase(s)
    out_l = np.where(lg == -np.inf, -np.inf, safe_m + lg)
    return phase, out_l
