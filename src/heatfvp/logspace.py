"""Log-sum-exp and phase/log-magnitude arithmetic.

Backward evolution multiplies coefficients by factors like e^{t*lambda} that
leave float64 range long before the math degenerates, so magnitudes are kept
as natural logs and recombined only when representable.
"""

from __future__ import annotations

import numpy as np

# largest x with exp(x) finite in float64, ~709.78
LOG_MAX = float(np.log(np.finfo(np.float64).max))


def log_sum_exp(terms):
    """log(sum(exp(terms))) along the last axis; -inf entries contribute zero.

    The shifted exponentials exp(a - max) lie in [0, 1], so numpy's sum of
    them errs by about ceil(log2 n) eps relative.  A 1-d input returns a
    Python float; a stacked input returns one value per row, and numpy sums
    every row of it as it sums the 1-d call's row.  A row whose maximum is
    not finite (-inf, +inf or NaN) returns that maximum.
    """
    a = np.asarray(terms, dtype=np.float64)
    m = a.max(axis=-1, initial=-np.inf, keepdims=True)
    # a row whose maximum is not finite sums to NaN (or to 0 when empty);
    # the masked add below leaves it at its maximum
    with np.errstate(under="ignore", invalid="ignore", divide="ignore"):
        log_s = np.log(np.exp(a - m).sum(axis=-1))
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
    split holds one complex and one real array besides the masks.  The
    rescaling and the zero fix-ups run only when some entry needs them."""
    mag = np.abs(zs, out=np.empty(zs.shape))
    nz = mag > 0.0
    small = nz & (mag < 1e-280)
    big = mag > 1e280
    scaled = small.any() or big.any()
    if scaled:
        # scale only the small entries up: a large one times _SCALE would overflow
        np.divide(zs, _SCALE, out=zs, where=big)
        np.multiply(zs, _SCALE, out=zs, where=small)
        np.abs(zs, out=mag)
    zero = None if nz.all() else ~nz
    if zero is not None:
        np.copyto(mag, 1.0, where=zero)
    np.divide(zs, mag, out=zs)
    logmag = np.log(mag, out=mag)
    if scaled:
        np.subtract(logmag, _LOG_SCALE, out=logmag, where=small)
        np.add(logmag, _LOG_SCALE, out=logmag, where=big)
    if zero is not None:
        np.copyto(zs, 0.0, where=zero)
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
