"""Compensated sums and phase/log-magnitude arithmetic.

Backward evolution multiplies coefficients by factors like e^{t*lambda} that
leave float64 range long before the math degenerates, so magnitudes are kept
as natural logs and recombined only when representable.
"""

from __future__ import annotations

import math
import struct

import numpy as np

# largest x with exp(x) finite in float64, ~709.78
LOG_MAX = float(np.log(np.finfo(np.float64).max))


def kahan_sum(values):
    """Compensated sum along the last axis, in ascending index order.

    A 1-d input is the one-row stack and returns a Python float.  A stacked
    input of shape (..., n) returns an array of shape (...,): every row runs
    the same recurrence over the same columns in the same order, so each
    entry equals the 1-d call on that row bit for bit.  A NaN result is the
    exception: it is NaN in both, but its sign and payload may differ,
    because numpy's vectorized loops and Python's scalar arithmetic pick
    different operands to propagate when both are NaN.

    A trailing run of +0.0 entries (bit pattern zero, so -0.0 is not part
    of it; in a stack, a trailing run of all-+0.0 columns) is summed only
    until one +0.0 step leaves the state (s, c) unchanged bit for bit.  A
    step depends on nothing but (s, c, x), so every later +0.0 step would
    leave it unchanged too, and the result equals the full recurrence.  The
    tail cannot simply be dropped: a +0.0 step may still fold the
    compensation c into s.
    """
    a = np.asarray(values, dtype=np.float64)
    rows = a.reshape(math.prod(a.shape[:-1]), a.shape[-1])
    if rows.shape[0] >= _COLUMN_PASS_ROWS:
        out = _kahan_columns(rows)
    elif rows.shape[1] and 0.0 in rows[:, -1].tolist():
        out = [_kahan_row(r) for r in rows]
    else:  # no row ends in a zero: reading the last column is all it pays
        out = [_kahan_steps(0.0, 0.0, r)[0] for r in rows.tolist()]
    return out[0] if a.ndim == 1 else np.asarray(out, dtype=np.float64).reshape(a.shape[:-1])


# below this many rows the per-row scalar loop beats the per-column array pass
_COLUMN_PASS_ROWS = 32

# the bytes of a scalar state (s, c): equal bytes mean equal bits, signed
# zeros and NaN payloads included
_state_bits = struct.Struct("<2d").pack


def _head_length(nonzero: np.ndarray) -> int:
    # length of a 1-d array of bit patterns (or flags) without its trailing zeros
    at = nonzero.nonzero()[0]
    return int(at[-1]) + 1 if at.size else 0


def _kahan_row(row: np.ndarray) -> float:
    bits = row.view(np.uint64)
    head = row.size if bits[-1] else _head_length(bits)
    s, c = _kahan_steps(0.0, 0.0, row[:head].tolist())
    for _ in range(row.size - head):
        s_next, c_next = _kahan_steps(s, c, (0.0,))
        if _state_bits(s_next, c_next) == _state_bits(s, c):
            break
        s, c = s_next, c_next
    return s


def _kahan_steps(s: float, c: float, values) -> tuple:
    for x in values:
        y = x - c
        t = s + y
        c = (t - s) - y
        s = t
    return s, c


def _kahan_columns(rows: np.ndarray) -> np.ndarray:
    m, n = rows.shape
    bits = rows.view(np.uint64)
    # a stack whose last entry is not +0.0 pays only for reading that entry
    head = n if n == 0 or bits[-1, -1] or bits[:, -1].any() else _head_length(bits.any(axis=0))
    s, c = _column_steps(np.zeros(m), np.zeros(m), rows[:, :head])
    zero = np.zeros((m, 1))
    for _ in range(n - head):
        s_next, c_next = _column_steps(s.copy(), c.copy(), zero)
        if _same_bits(s_next, s) and _same_bits(c_next, c):
            break
        s, c = s_next, c_next
    return s


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _column_steps(s: np.ndarray, c: np.ndarray, rows: np.ndarray) -> tuple:
    # the row recurrence, one column at a time, vectorized over the rows;
    # overwrites s and c
    y = np.empty_like(s)
    t = np.empty_like(s)
    with np.errstate(over="ignore", invalid="ignore"):
        for x in np.ascontiguousarray(rows.T):
            np.subtract(x, c, out=y)
            np.add(s, y, out=t)
            np.subtract(t, s, out=c)
            np.subtract(c, y, out=c)
            s, t = t, s
    return s, c


def log_sum_exp(terms):
    """log(sum(exp(terms))) along the last axis; -inf entries contribute zero.

    The shifted exponentials are accumulated with `kahan_sum` in index
    order, so results are bit-reproducible, and each row of a stacked input
    equals the 1-d call on that row: a 1-d input is the one-row stack and
    returns a Python float.  A row whose maximum is not finite (-inf, +inf
    or NaN) returns that maximum.
    """
    a = np.asarray(terms, dtype=np.float64)
    m = a.max(axis=-1, initial=-np.inf, keepdims=True)
    # a row whose maximum is not finite sums to NaN (or to 0 when empty);
    # the masked add below leaves it at its maximum
    with np.errstate(under="ignore", invalid="ignore", divide="ignore"):
        log_s = np.log(kahan_sum(np.exp(a - m)))
    out = m[..., 0]
    np.add(out, log_s, out=out, where=np.isfinite(out))
    return float(out) if a.ndim == 1 else out


# exact power-of-two rescaling keeps phase division away from the subnormal
# range, where the quotient overflows and loses accuracy
_SCALE = 2.0 ** 600
_LOG_SCALE = 600.0 * float(np.log(2.0))


def split_phase(z):
    """Decompose complex values into (unit phase, log magnitude).

    Zeros map to phase 0 and log magnitude -inf.
    """
    return _split_owned(np.array(z, dtype=np.complex128))


def _split_owned(zs: np.ndarray):
    """split_phase of an array it may overwrite: the phase is returned in
    zs's buffer and the log magnitude in the one array of |zs|, so the
    split holds one complex and one real array besides the masks."""
    mag = np.abs(zs, out=np.empty(zs.shape))
    nz = mag > 0.0
    small = nz & (mag < 1e-280)
    big = mag > 1e280
    # scale only the small entries up: a large one times _SCALE would overflow
    np.divide(zs, _SCALE, out=zs, where=big)
    np.multiply(zs, _SCALE, out=zs, where=small)
    np.abs(zs, out=mag)
    zero = ~nz
    np.copyto(mag, 1.0, where=zero)
    np.divide(zs, mag, out=zs)
    np.copyto(zs, 0.0, where=zero)
    logmag = np.log(mag, out=mag)
    np.subtract(logmag, _LOG_SCALE, out=logmag, where=small)
    np.add(logmag, _LOG_SCALE, out=logmag, where=big)
    np.copyto(logmag, -np.inf, where=zero)
    return zs, logmag


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
    p1, p2 = np.asarray(p1), np.asarray(p2)
    l1 = np.asarray(l1, dtype=np.float64)
    l2 = np.asarray(l2, dtype=np.float64)
    m = np.maximum(l1, l2, out=np.empty(np.broadcast_shapes(l1.shape, l2.shape)))
    # both -inf: pin the shift at 0 so the exps evaluate to 0, not nan
    np.copyto(m, 0.0, where=~np.isfinite(m))
    # out= keeps 0-d operands arrays, so every step below can run in place
    s = np.empty(np.broadcast_shapes(p1.shape, p2.shape, m.shape), dtype=np.complex128)
    t = np.empty_like(m)
    with np.errstate(under="ignore"):
        np.multiply(p1, np.exp(np.subtract(l1, m, out=t), out=t), out=s)
        s += p2 * np.exp(np.subtract(l2, m, out=t), out=t)
    del t
    phase, lg = _split_owned(s)
    np.add(m, lg, out=lg, where=lg != -np.inf)
    return phase, lg
