import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatfvp import (
    CompatReport,
    DomainSpec,
    InvalidSpecError,
    MembershipPolicy,
    SemigroupAction,
    SpectralVec,
    apply_forward,
    apply_inverse,
    build_basis,
    check_domain_membership,
    height_function,
    rel_distance,
)


def test_forward_decay_exact(basis16):
    v = apply_forward(SpectralVec.unit(basis16, 2), 0.5)
    # lambda_2 = 4, so the mode shrinks by e^{-2}
    assert v.coefficients[1] == pytest.approx(np.exp(-2.0), rel=1e-15)
    assert v.logmag[1] == pytest.approx(-2.0, rel=1e-15)


def test_inverse_amplifies_beyond_float_range(basis64):
    v = apply_inverse(SpectralVec.unit(basis64, 64), 1.0)
    # e^{64^2} = e^{4096} is far outside float64; the log value is exact
    assert v.logmag[63] == pytest.approx(4096.0, rel=1e-15)
    assert v.overflowed


def test_negative_times_rejected(basis16):
    v = SpectralVec.unit(basis16, 1)
    with pytest.raises(ValueError):
        apply_forward(v, -0.1)
    with pytest.raises(ValueError):
        apply_inverse(v, -0.1)


def test_action_signed_time(basis16):
    v = SpectralVec.unit(basis16, 1)
    fwd = SemigroupAction(basis16, 1.0).apply(v)
    back = SemigroupAction(basis16, -1.0).apply(fwd)
    assert rel_distance(back, v) <= 1e-12


def test_action_basis_mismatch(basis16, basis64):
    with pytest.raises(InvalidSpecError):
        SemigroupAction(basis16, 1.0).apply(SpectralVec.unit(basis64, 1))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=16, max_size=16),
    st.floats(min_value=1e-3, max_value=3.0, allow_nan=False),
)
def test_flow_round_trip_property(coeffs, t):
    basis = build_basis(DomainSpec("interval", (np.pi,), 16))
    v = SpectralVec.from_coefficients(basis, np.array(coeffs))
    back = apply_inverse(apply_forward(v, t), t)
    assert rel_distance(back, v) <= 1e-10


def test_membership_compatible(basis64):
    c = np.exp(-1.5 * basis64.lambdas)
    rep = check_domain_membership(SpectralVec.from_coefficients(basis64, c), 1.0)
    assert rep.verdict == "compatible"
    assert rep.u0 is not None
    # reconstructed initial state: coefficients e^{+lambda} c = e^{-lambda/2}
    expected = np.exp(-0.5 * basis64.lambdas)
    assert np.allclose(rep.u0.coefficients.real, expected, rtol=1e-10)


def test_membership_incompatible_power_tail(basis64):
    c = 1.0 / np.arange(1, 65, dtype=float)
    rep = check_domain_membership(SpectralVec.from_coefficients(basis64, c), 1.0)
    assert rep.verdict == "incompatible"
    assert rep.u0 is None
    # graph norms explode along the ladder
    assert rep.log_graph_norms[-1] - rep.log_graph_norms[0] > np.log(10.0)


def test_membership_incompatible_stretched_tail(basis64):
    c = np.exp(-np.sqrt(basis64.lambdas))
    rep = check_domain_membership(SpectralVec.from_coefficients(basis64, c), 1.0)
    assert rep.verdict == "incompatible"


def test_membership_inconclusive(basis64):
    # decays exactly at the backward rate: partial norms neither settle at
    # rtol 1e-6 nor grow by the 10x step threshold
    j = np.arange(1, 65, dtype=float)
    c = np.exp(-basis64.lambdas) / j
    rep = check_domain_membership(SpectralVec.from_coefficients(basis64, c), 1.0)
    assert rep.verdict == "inconclusive"
    assert rep.u0 is None
    assert 1.0 + 1e-6 < rep.stabilization_ratio < 10.0


def test_membership_zero_vector(basis16):
    rep = check_domain_membership(SpectralVec.zero(basis16), 2.0)
    assert rep.verdict == "compatible"
    assert rep.stabilization_ratio == 1.0
    assert rep.u0 is not None
    assert np.all(rep.u0.logmag == -np.inf)


def test_membership_invalid_horizon(basis16):
    for T in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            check_domain_membership(SpectralVec.unit(basis16, 1), T)


def test_membership_norm_cap(basis64):
    # representable data whose backward norm exceeds the policy cap is not
    # declared compatible even though the ladder stabilizes
    v = SpectralVec.zero(basis64)
    v.phase[0] = 1.0
    v.logmag[0] = 750.0  # only mode 1: ladder is flat
    rep = check_domain_membership(v, 1.0, MembershipPolicy(max_log_norm=700.0))
    assert rep.verdict == "inconclusive"


def test_default_cutoff_ladder(basis64):
    rep = check_domain_membership(SpectralVec.zero(basis64), 1.0)
    assert rep.cutoffs == (8, 16, 32, 64)


def test_custom_cutoffs_validation(basis16):
    with pytest.raises(InvalidSpecError):
        MembershipPolicy(cutoffs=(4, 4, 16)).resolved_cutoffs(16)
    with pytest.raises(InvalidSpecError):
        MembershipPolicy(cutoffs=(4, 32)).resolved_cutoffs(16)
    assert MembershipPolicy(cutoffs=(2, 8, 16)).resolved_cutoffs(16) == (2, 8, 16)


def test_stabilization_ratio_uses_mid_cutoff(basis64):
    # with the default 4-rung ladder the ratio compares the last against the
    # second rung
    c = np.exp(-2.0 * basis64.lambdas)
    rep = check_domain_membership(SpectralVec.from_coefficients(basis64, c), 1.0)
    ratio = np.exp(rep.log_graph_norms[-1] - rep.log_graph_norms[1])
    assert rep.stabilization_ratio == pytest.approx(ratio, rel=1e-14)


def test_compat_report_json_fields(basis16):
    rep = check_domain_membership(SpectralVec.unit(basis16, 1), 1.0)
    payload = json.loads(rep.to_json())
    assert set(payload) == {"T", "cutoffs", "log_graph_norms", "stabilization_ratio", "verdict", "note"}
    assert payload["note"]  # heuristic disclaimer always present
    assert "u0" not in payload


def test_compat_report_json_infinities(basis16):
    rep = CompatReport(1.0, (1, 2), (-np.inf, 3.0), np.inf, "incompatible")
    payload = json.loads(rep.to_json())
    assert payload["log_graph_norms"][0] == "-inf"
    assert payload["stabilization_ratio"] == "inf"


def test_height_function_decreasing_logconvex(basis16):
    rng = np.random.default_rng(8)
    u0 = SpectralVec.from_coefficients(basis16, np.abs(rng.standard_normal(16)) + 0.1)
    ts = np.geomspace(1e-3, 5.0, 40)
    prof = height_function(u0, ts)
    assert not prof.degenerate
    assert np.all(prof.values > 0)
    assert np.all(np.diff(prof.values) < 0)
    d1 = np.diff(prof.log_values) / np.diff(ts)
    second = 2.0 * np.diff(d1) / (ts[2:] - ts[:-2])
    assert np.min(second) >= -1e-10


def test_height_function_zero_state(basis16):
    prof = height_function(SpectralVec.zero(basis16), np.array([0.0, 1.0]))
    assert prof.degenerate
    assert np.all(prof.values == 0.0)
    assert np.all(prof.log_values == -np.inf)


def test_height_function_single_mode_exact(basis16):
    prof = height_function(SpectralVec.unit(basis16, 3), np.array([0.0, 0.25, 0.5]))
    assert np.allclose(prof.values, np.exp(-9.0 * np.array([0.0, 0.25, 0.5])), rtol=1e-13)


def test_height_function_bad_grid(basis16):
    with pytest.raises(ValueError):
        height_function(SpectralVec.unit(basis16, 1), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        height_function(SpectralVec.unit(basis16, 1), np.array([-1.0, 1.0]))
