"""The chunked scan of the particular part against the step loop it replaces.

`duhamel._particular` forms the step sums s_k of the exponential march and
then runs w_{k+1} = e^{-h_k lambda} w_k + s_k, as a Python step loop or,
on resolved grids, as a prefix sum per chunk.  The loop is kept here as the
reference (`_loop_particular`, the function as it was before the scan), and
the scan must agree with it within the rounding floor of the two
recurrences on every drawn grid, stiffness and source scale.

Floor: with u = 2^-53 and cond_k = sum_i e^{-(t_k - t_i) lambda} |s_i| (the
recurrence run on |s|), the loop's entry k carries at most about 3k u cond_k
(k multiplications by a decay rounded within 2u, k additions), and the
scan's at most (k + 2 S + 8) u cond_k (its cumulative sum, the exponents up
to the span S rounded by u relative, e^x, 1/Q and two products); their
difference is below (4k + 2S + 8) u cond_k, plus k times the smallest
subnormal where an entry decays into the subnormals.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heatfvp import duhamel as dh

U = 2.0 ** -53
TINY = 2.0 ** -1074


def _loop_particular(lam, times, node_values):
    """(w, expo) of `duhamel._particular` with the step loop: the same
    scaling and step sums, then one multiply-add per step."""
    hs = np.diff(times)
    lengths, which = np.unique(hs, return_inverse=True)
    z = -lengths[:, None] * lam
    phi1, phi2 = dh._phi12(z)
    with np.errstate(under="ignore"):
        decay = np.exp(z)
    peak = np.abs(node_values).max(axis=0)
    expo = np.frexp(peak)[1]
    expo = np.where((expo > 512) | (expo < -969), np.maximum(expo, -1021), 0)
    v = node_values * np.ldexp(1.0, -expo)
    w = np.empty_like(v)
    w[0] = 0.0
    np.multiply(v[:-1], (phi1 - phi2)[which], out=w[1:])
    w[1:] += v[1:] * phi2[which]
    w[1:] *= hs[:, None]
    cond = np.abs(w)
    for k in range(1, times.size - 1):
        w[k + 1] += w[k] * decay[which[k]]
        cond[k + 1] += cond[k] * decay[which[k]]
    return w, expo, cond


@st.composite
def marches(draw):
    """(lambdas, grid, node values) of one march.

    Modes: 1 to 12 eigenvalues spread over up to eight decades, so a grid
    resolves the soft modes and steps far past the stiff ones.  Grid: 2 to
    300 nodes with steps of up to three decades apart, uniform or drawn per
    step, sometimes with one step 10^3 to 10^6 times the others, longer
    than the scan's span.  Source: real node values per mode, scaled by
    2^e with e near 0, near the 2^512 and 2^-969 edges of the exponent
    scaling, or past them; some modes, or the whole source, are zero."""
    n_modes = draw(st.integers(1, 12))
    lo = draw(st.floats(-3.0, 3.0))
    lam = np.sort(10.0 ** (lo + np.array(draw(st.lists(st.floats(0.0, 8.0), min_size=n_modes, max_size=n_modes)))))
    n_steps = draw(st.integers(1, 299))
    # the base step against the stiffest mode: from 1e-3 (many steps per
    # chunk) to 1e2 (every step its own chunk)
    h = 10.0 ** draw(st.floats(-3.0, 2.0)) / lam[-1]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        steps = np.full(n_steps, h)
    else:
        steps = h * 10.0 ** rng.uniform(-1.5, 1.5, n_steps)
    if n_steps > 1 and draw(st.booleans()):
        steps[rng.integers(n_steps)] *= 10.0 ** draw(st.floats(3.0, 6.0))
    times = np.concatenate(([0.0], np.cumsum(steps)))
    values = rng.standard_normal((n_steps + 1, n_modes))
    rng.standard_normal((n_steps + 1, n_modes))  # the imaginary parts of complex draws, kept so later draws keep their values
    scale = draw(st.lists(st.sampled_from([0, 0, 3, -7, 505, 511, 512, 513, 600, 1000, -965, -969, -970, -1000]),
                          min_size=n_modes, max_size=n_modes))
    values = values * np.ldexp(1.0, np.array(scale))
    zero = draw(st.sampled_from(["none", "some", "all"]))
    if zero == "all":
        values[:] = 0.0
    elif zero == "some":
        values[:, rng.random(n_modes) < 0.5] = 0.0
    return lam, times, values


@settings(max_examples=300, deadline=None)
@given(marches())
def test_scan_matches_the_step_loop(case):
    lam, times, values = case
    want, want_expo, cond = _loop_particular(lam, times, values)
    # every grid runs the scan, whatever its chunks and mode count
    with mock.patch.object(dh, "_SCAN_MIN_STEPS", 1), mock.patch.object(dh, "_SCAN_MAX_MODES", lam.size):
        part = dh._particular(lam, times, values)
    assert np.array_equal(part.expo, want_expo)
    assert np.all(np.isfinite(part.w))
    k = np.arange(times.size)[:, None]
    floor = (4 * k + 2 * dh._SCAN_SPAN + 8) * U * cond + k * TINY
    err = np.abs(part.w - want)
    assert np.all(err <= floor), f"worst excess {np.max(err / np.maximum(floor, TINY)):.3g} floors"


@settings(max_examples=100, deadline=None)
@given(marches())
def test_the_step_loop_keeps_its_bits(case):
    lam, times, values = case
    if dh._scan_bounds(times, lam) is None:
        assert np.array_equal(dh._particular(lam, times, values).w, _loop_particular(lam, times, values)[0])
