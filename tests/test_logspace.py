import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatfvp.logspace import (
    LOG_MAX,
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
    # relative error of exp(log|z|) grows with |log|z||, hence the 1e-12
    # mirror contract rather than ulp-level equality
    z = np.array([1.0 + 2.0j, -3.0, 0.0, 1e-200j])
    phase, logmag = split_phase(z)
    back = merge_phase(phase, logmag)
    assert np.allclose(back, z, rtol=1e-12, atol=0.0)
    assert logmag[2] == -np.inf
    assert phase[2] == 0.0


def test_split_phase_subnormal_input():
    # dividing by a subnormal magnitude must not overflow the phase
    z = np.array([5e-313 + 0j, -4e-320j])
    phase, logmag = split_phase(z)
    assert np.all(np.isfinite(phase))
    assert np.allclose(np.abs(phase), 1.0, rtol=1e-12)
    assert logmag[0] == pytest.approx(np.log(5e-313), rel=1e-12)
    back = merge_phase(phase, logmag)
    assert np.allclose(back, z, rtol=1e-9)


def test_split_phase_huge_input_is_silent():
    # only the tiny entries are scaled up, so a huge one cannot overflow
    z = np.array([1e300, -1e300j, 1e-300, 0.0])
    want_logmag = [np.log(1e300), np.log(1e300), np.log(1e-300), -np.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phase, logmag = split_phase(z)
    assert np.allclose(phase, [1.0, -1j, 1.0, 0.0], rtol=0.0, atol=1e-15)
    assert logmag.tolist() == pytest.approx(want_logmag, rel=1e-15)


def test_split_phase_unit_modulus():
    z = np.array([3.0 + 4.0j, -2.0j])
    phase, _ = split_phase(z)
    assert np.allclose(np.abs(phase), 1.0, rtol=1e-15)


def test_merge_phase_overflow_is_inf():
    out = merge_phase(np.array([1.0 + 0j]), np.array([LOG_MAX + 10.0]))
    assert np.isinf(np.abs(out[0]))


def test_logspace_add_matches_direct():
    a = np.array([1.0 + 1.0j, -2.0 + 0.5j])
    b = np.array([0.5 - 1.0j, 2.0 - 0.5j])
    pa, la = split_phase(a)
    pb, lb = split_phase(b)
    p, l = logspace_add(pa, la, pb, lb)
    assert np.allclose(merge_phase(p, l), a + b, rtol=1e-14, atol=1e-300)


def test_logspace_add_exact_cancellation():
    a = np.array([1.0 + 0j])
    pa, la = split_phase(a)
    p, l = logspace_add(pa, la, -pa, la)
    assert l[0] == -np.inf
    assert p[0] == 0.0


def test_logspace_add_both_zero():
    z = np.zeros(2, dtype=complex)
    p0, l0 = split_phase(z)
    p, l = logspace_add(p0, l0, p0, l0)
    assert np.all(l == -np.inf)


def test_logspace_add_huge_magnitudes():
    # both summands far beyond float range; result must stay exact in log form
    p1 = np.array([1.0 + 0j])
    l1 = np.array([5000.0])
    p2 = np.array([1.0 + 0j])
    l2 = np.array([5000.0])
    p, l = logspace_add(p1, l1, p2, l2)
    assert l[0] == pytest.approx(5000.0 + np.log(2.0), rel=1e-15)
    assert p[0] == pytest.approx(1.0)


def test_logspace_add_disparate_scales():
    # adding a tiny term to a huge one must keep the huge one unchanged
    p1 = np.array([1.0 + 0j])
    l1 = np.array([800.0])
    p2 = np.array([-1.0 + 0j])
    l2 = np.array([-800.0])
    p, l = logspace_add(p1, l1, p2, l2)
    assert l[0] == pytest.approx(800.0, rel=1e-15)


finite_complex = st.complex_numbers(
    min_magnitude=1e-8, max_magnitude=1e8, allow_nan=False, allow_infinity=False
)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite_complex, min_size=1, max_size=8), st.lists(finite_complex, min_size=1, max_size=8))
def test_logspace_add_agrees_with_linear(za, zb):
    n = min(len(za), len(zb))
    a = np.array(za[:n])
    b = np.array(zb[:n])
    pa, la = split_phase(a)
    pb, lb = split_phase(b)
    p, l = logspace_add(pa, la, pb, lb)
    direct = a + b
    got = merge_phase(p, l)
    # relative to the inputs' scale: cancellation may lose relative accuracy
    scale = np.maximum(np.abs(a), np.abs(b))
    assert np.all(np.abs(got - direct) <= 1e-12 * scale)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-700, max_value=700), min_size=1, max_size=12))
def test_log_sum_exp_shift_invariance(terms):
    t = np.array(terms)
    base = log_sum_exp(t)
    shifted = log_sum_exp(t - 123.0)
    assert shifted + 123.0 == pytest.approx(base, rel=1e-12, abs=1e-12)
