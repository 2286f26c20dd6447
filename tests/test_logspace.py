import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatfvp.logspace import (
    LOG_MAX,
    InvalidSpecError,
    log_sum_exp,
    logspace_add,
    merge_phase,
    split_phase,
)


def test_log_sum_exp_matches_direct_small():
    terms = np.array([-1.0, -2.0, -3.0])
    assert log_sum_exp(terms) == pytest.approx(np.log(np.exp(-1) + np.exp(-2) + np.exp(-3)), rel=1e-15)


def test_log_sum_exp_huge_terms():
    # direct exp would overflow; shifted form must not
    terms = np.array([1000.0, 999.0])
    assert log_sum_exp(terms) == pytest.approx(1000.0 + np.log1p(np.exp(-1.0)), rel=1e-15)


def test_log_sum_exp_all_neg_inf():
    assert log_sum_exp(np.array([-np.inf, -np.inf])) == -np.inf


def test_split_merge_round_trip():
    # relative error of exp(log|x|) grows with |log|x||, hence the 1e-12
    # mirror contract rather than ulp-level equality
    x = np.array([2.0, -3.0, 0.0, -1e-200])
    phase, logmag = split_phase(x)
    back = merge_phase(phase, logmag)
    assert np.allclose(back, x, rtol=1e-12, atol=0.0)
    assert logmag[2] == -np.inf
    assert phase[2] == 0.0


def test_split_phase_subnormal_input():
    # a subnormal's log needs no rescaling, and its sign is exact
    x = np.array([5e-313, -4e-320])
    phase, logmag = split_phase(x)
    assert phase.tolist() == [1.0, -1.0]
    assert logmag[0] == pytest.approx(np.log(5e-313), rel=1e-12)
    back = merge_phase(phase, logmag)
    assert np.allclose(back, x, rtol=1e-9)


def test_split_phase_huge_input_is_silent():
    x = np.array([1e300, -1e300, 1e-300, 0.0])
    want_logmag = [np.log(1e300), np.log(1e300), np.log(1e-300), -np.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phase, logmag = split_phase(x)
    assert phase.tolist() == [1.0, -1.0, 1.0, 0.0]
    assert logmag.tolist() == pytest.approx(want_logmag, rel=1e-15)


def test_split_phase_unit_modulus():
    phase, _ = split_phase(np.array([3.0, -2.0]))
    assert phase.dtype == np.float64 and phase.tolist() == [1.0, -1.0]


def test_split_phase_takes_complex_only_with_zero_imaginary_parts():
    phase, logmag = split_phase(np.array([-2.0 + 0j, 0.5 - 0j]))
    assert phase.dtype == np.float64 and phase.tolist() == [-1.0, 1.0]
    assert logmag.tolist() == [np.log(2.0), np.log(0.5)]
    for bad in (1e-300j, complex(1.0, np.nan)):
        with pytest.raises(InvalidSpecError, match="imaginary"):
            split_phase(np.array([1.0, bad]))


def test_merge_phase_overflow_is_inf():
    out = merge_phase(np.array([1.0]), np.array([LOG_MAX + 10.0]))
    assert np.isinf(out[0])


def test_logspace_add_matches_direct():
    a = np.array([1.0, -2.0])
    b = np.array([0.5, 2.5])
    pa, la = split_phase(a)
    pb, lb = split_phase(b)
    p, l = logspace_add(pa, la, pb, lb)
    assert np.allclose(merge_phase(p, l), a + b, rtol=1e-14, atol=1e-300)


def test_logspace_add_exact_cancellation():
    a = np.array([1.0])
    pa, la = split_phase(a)
    p, l = logspace_add(pa, la, -pa, la)
    assert l[0] == -np.inf
    assert p[0] == 0.0


def test_logspace_add_both_zero():
    z = np.zeros(2)
    p0, l0 = split_phase(z)
    p, l = logspace_add(p0, l0, p0, l0)
    assert np.all(l == -np.inf)


def test_logspace_add_huge_magnitudes():
    # both summands far beyond float range; result must stay exact in log form
    p1 = np.array([1.0])
    l1 = np.array([5000.0])
    p2 = np.array([1.0])
    l2 = np.array([5000.0])
    p, l = logspace_add(p1, l1, p2, l2)
    assert l[0] == pytest.approx(5000.0 + np.log(2.0), rel=1e-15)
    assert p[0] == 1.0


def test_logspace_add_disparate_scales():
    # adding a tiny term to a huge one must keep the huge one unchanged
    p1 = np.array([1.0])
    l1 = np.array([800.0])
    p2 = np.array([-1.0])
    l2 = np.array([-800.0])
    p, l = logspace_add(p1, l1, p2, l2)
    assert l[0] == pytest.approx(800.0, rel=1e-15)


# every finite float64: zeros, subnormals and values up to float64's maximum
finite_reals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.sampled_from([5e-324, -5e-324, 2.0 ** -1022, -0.0, np.finfo(float).max, -np.finfo(float).max]),
)
SUBNORMAL_STEP = 2.0 ** -1074


@settings(max_examples=200, deadline=None)
@given(st.lists(finite_reals, min_size=1, max_size=8))
def test_split_phase_signs_are_exact(xs):
    x = np.array(xs)
    phase, logmag = split_phase(x)
    assert phase.dtype == np.float64
    assert set(phase.tolist()) <= {-1.0, 0.0, 1.0}
    assert np.array_equal(phase, np.sign(x))
    assert np.array_equal(logmag == -np.inf, x == 0.0)
    # the round trip keeps its 1e-12 relative contract; a subnormal result
    # can only land on a multiple of the subnormal step
    back = merge_phase(phase, logmag)
    assert np.all(np.abs(back - x) <= 1e-12 * np.abs(x) + SUBNORMAL_STEP)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite_reals, min_size=1, max_size=8), st.lists(finite_reals, min_size=1, max_size=8))
def test_logspace_add_agrees_with_linear(xa, xb):
    n = min(len(xa), len(xb))
    a = np.array(xa[:n])
    b = np.array(xb[:n])
    pa, la = split_phase(a)
    pb, lb = split_phase(b)
    p, l = logspace_add(pa, la, pb, lb)
    # relative to the inputs' scale: cancellation may lose relative
    # accuracy.  Both sides are taken in units of 2^k near that scale, so a
    # sum past float64's maximum compares too: the scaling is exact, up to
    # the subnormal step of a term far below the scale
    scale = np.maximum(np.abs(a), np.abs(b))
    k = np.frexp(scale)[1]
    direct = np.ldexp(a, -k) + np.ldexp(b, -k)
    with np.errstate(under="ignore"):
        got = merge_phase(p, l - k * np.log(2.0))
    assert np.all(np.abs(got - direct) <= 1e-12 * np.ldexp(scale, -k) + SUBNORMAL_STEP)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-700, max_value=700), min_size=1, max_size=12))
def test_log_sum_exp_shift_invariance(terms):
    t = np.array(terms)
    base = log_sum_exp(t)
    shifted = log_sum_exp(t - 123.0)
    assert shifted + 123.0 == pytest.approx(base, rel=1e-12, abs=1e-12)
