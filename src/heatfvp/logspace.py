"""Log-sum-exp and sign/log-magnitude arithmetic.

Backward evolution multiplies coefficients by factors like e^{t*lambda} that
leave float64 range long before the math degenerates, so magnitudes are kept
as natural logs and recombined only when representable.  The Dirichlet sine
basis is real and every map of the pipeline scales each mode by a real
factor, so a coefficient is a sign in {-1, 0, 1} and a log magnitude.
Complex values enter only through `_real`, which refuses any with a nonzero
imaginary part.  The kernels here check nothing: values are checked where
they enter the package, outside values by `_real` and states by the
constructor of `spectral.SpectralVec`.
"""

from __future__ import annotations

import numpy as np

# largest x with exp(x) finite in float64, ~709.78
LOG_MAX = float(np.log(np.finfo(np.float64).max))


def log_sum_exp(terms):
    """log(sum(exp(terms))) along the last axis; -inf entries contribute zero.

    The shifted exponentials exp(a - max) lie in [0, 1], so numpy's sum of
    them errs by about ceil(log2 n) eps relative.  A 1-d input returns a
    Python float, from its maximum, one shifted exp-sum, a log and an add;
    a stacked input returns one value per row, and numpy sums every row of
    it as it sums the 1-d call's row.  A 0-d input is one term: a 0-d
    array of the 1-d call on it.  A row whose maximum is not finite (-inf,
    +inf or NaN) returns that maximum.  Inputs are not checked: the
    callers pass the package's own log magnitudes.
    """
    a = np.asarray(terms, dtype=np.float64)
    if a.ndim == 1:
        m = a.max() if a.size else -np.inf
        if not np.isfinite(m):
            return float(m)
        # the shifted terms are at most 0, so only exp can leave range, downward
        with np.errstate(under="ignore"):
            return float(m + np.log(np.exp(a - m).sum()))
    if a.ndim == 0:
        return np.array(log_sum_exp(a.reshape(1)))
    m = a.max(axis=-1, initial=-np.inf, keepdims=True)
    # a row whose maximum is not finite sums to NaN (or to 0 when empty);
    # the masked add below leaves it at its maximum
    with np.errstate(under="ignore", invalid="ignore", divide="ignore"):
        log_s = np.log(np.exp(a - m).sum(axis=-1))
    out = m[..., 0]
    np.add(out, log_s, out=out, where=np.isfinite(out))
    return out


class InvalidSpecError(ValueError):
    """Bad input: the one exception the package raises for a value, a file
    or an option that breaks a documented precondition, raised where the
    input enters.  The CLI turns it into one `error:` line."""


def _real(x, what: str) -> np.ndarray:
    """x as a float64 array: the one entry of outside values into the real
    core.  A complex x is taken only when every imaginary part is zero; any
    other, NaN included, is refused, never dropped by a numpy cast.  Text,
    which numpy would read as a number, a ragged nesting and an object
    float() cannot read are refused too."""
    try:
        a = np.asarray(x)
        if a.dtype.kind not in "cSU":
            return np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError):  # a ragged nesting, or an object float() cannot read
        a = None
    if a is None or a.dtype.kind != "c":
        raise InvalidSpecError(f"{what} must be an array of real numbers")
    if np.any(a.imag):
        raise InvalidSpecError(f"{what} must be real: an imaginary part is nonzero")
    return np.array(a.real, dtype=np.float64)


def split_phase(x):
    """Decompose real values into (sign, log magnitude).

    Zeros map to sign 0 and log magnitude -inf.
    """
    return _split_owned(np.array(_real(x, "values")))


def _split_owned(xs: np.ndarray):
    """split_phase of a float64 array it may overwrite: the sign is
    returned in xs's buffer and the log magnitude in one new array.  Both
    are exact up to the rounding of log, subnormals and zeros included.
    A 0-d xs gives 0-d arrays: the output array keeps np.abs from
    returning a scalar, which log cannot write."""
    logmag = np.abs(xs, out=np.empty_like(xs))
    with np.errstate(divide="ignore"):
        np.log(logmag, out=logmag)
    return np.sign(xs, out=xs), logmag


def merge_phase(phase, logmag):
    """Linear-scale mirror; magnitudes beyond float64 range become inf."""
    with np.errstate(over="ignore", under="ignore"):
        return np.asarray(phase) * np.exp(np.asarray(logmag))


def logspace_add(p1, l1, p2, l2):
    """Elementwise p1*e^{l1} + p2*e^{l2} in sign/log-magnitude form.

    The larger exponent is factored out, so the inner sum never overflows;
    exact cancellation yields sign 0 / logmag -inf.  Operands broadcast,
    0-d ones included, and 0-d operands alone give 0-d results; numpy
    allocates each result.  Like `log_sum_exp`, it checks nothing: the
    entry checks run where values enter the package.
    """
    l1 = np.asarray(l1, dtype=np.float64)
    l2 = np.asarray(l2, dtype=np.float64)
    m = np.maximum(l1, l2)
    # both -inf: pin the shift at 0 so the exps evaluate to 0, not nan
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(under="ignore"):
        s = p1 * np.exp(l1 - m) + p2 * np.exp(l2 - m)
    phase, lg = _split_owned(np.asarray(s))  # 0-d operands alone sum to a numpy scalar
    np.add(m, lg, out=lg, where=lg != -np.inf)
    return phase, lg
