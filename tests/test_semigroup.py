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
    SpectralVec,
    apply_forward,
    apply_inverse,
    build_basis,
    check_domain_membership,
    rel_distance,
    solve_cauchy,
)
from heatfvp.semigroup import MAX_LOG_NORM
from heatfvp.spectral import json_payload, strict_json

from conftest import unit_state


def test_forward_decay_exact(basis16):
    v = apply_forward(unit_state(basis16, 2), 0.5)
    # lambda_2 = 4, so the mode shrinks by e^{-2}
    assert v.coefficients[1] == pytest.approx(np.exp(-2.0), rel=1e-15)
    assert v.logmag[1] == pytest.approx(-2.0, rel=1e-15)


def test_inverse_amplifies_beyond_float_range(basis64):
    v = apply_inverse(unit_state(basis64, 64), 1.0)
    # e^{64^2} = e^{4096} is far outside float64; the log value is exact
    assert v.logmag[63] == pytest.approx(4096.0, rel=1e-15)
    assert v.overflowed


def test_negative_times_rejected(basis16):
    v = unit_state(basis16, 1)
    with pytest.raises(InvalidSpecError):
        apply_forward(v, -0.1)
    with pytest.raises(InvalidSpecError):
        apply_inverse(v, -0.1)


def test_action_signed_time(basis16):
    v = unit_state(basis16, 1)
    back = apply_inverse(apply_forward(v, 1.0), 1.0)
    assert rel_distance(back, v) <= 1e-12


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
            check_domain_membership(unit_state(basis16, 1), T)


def test_membership_norm_cap(basis64):
    # representable data whose backward norm exceeds the policy cap is not
    # declared compatible even though the ladder stabilizes
    v = SpectralVec.zero(basis64)
    v.phase[0] = 1.0
    v.logmag[0] = 750.0  # only mode 1: ladder is flat
    rep = check_domain_membership(v, 1.0)
    assert MAX_LOG_NORM == 700.0
    assert rep.log_graph_norms[-1] > MAX_LOG_NORM
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


@pytest.mark.parametrize("field, value", [
    ("rtol_compat", np.nan), ("rtol_compat", np.inf), ("rtol_compat", -np.inf), ("rtol_compat", -1e-12),
    ("growth_thresh", np.nan), ("growth_thresh", np.inf), ("growth_thresh", -np.inf),
    ("growth_thresh", -1.0), ("growth_thresh", 0.5), ("growth_thresh", 1.0),
])
def test_thresholds_that_cannot_give_a_verdict_are_refused(field, value):
    # a NaN threshold got a verdict, growth_thresh <= 0 warned in np.log,
    # and infinite thresholds certified rough data as compatible
    with pytest.raises(InvalidSpecError):
        MembershipPolicy(**{field: value})


@pytest.mark.parametrize("field, value", [("rtol_compat", 0.0), ("rtol_compat", 1e300),
                                          ("growth_thresh", np.nextafter(1.0, 2.0)), ("growth_thresh", 1e300)])
def test_finite_thresholds_at_the_edges_are_accepted(basis16, field, value):
    rep = check_domain_membership(unit_state(basis16, 1), 1.0, MembershipPolicy(**{field: value}))
    assert rep.verdict in ("compatible", "incompatible", "inconclusive")


def test_stabilization_ratio_uses_mid_cutoff(basis64):
    # with the default 4-rung ladder the ratio compares the last against the
    # second rung
    c = np.exp(-2.0 * basis64.lambdas)
    rep = check_domain_membership(SpectralVec.from_coefficients(basis64, c), 1.0)
    ratio = np.exp(rep.log_graph_norms[-1] - rep.log_graph_norms[1])
    assert rep.stabilization_ratio == pytest.approx(ratio, rel=1e-14)


def test_compat_report_json_fields(basis16):
    rep = check_domain_membership(unit_state(basis16, 1), 1.0)
    payload = json.loads(strict_json(json_payload(rep)))
    assert set(payload) == {"T", "cutoffs", "log_graph_norms", "stabilization_ratio", "verdict", "note"}
    assert payload["note"]  # heuristic disclaimer always present
    assert "u0" not in payload


def test_compat_report_json_infinities(basis16):
    rep = CompatReport(1.0, (1, 2), (-np.inf, 3.0), np.inf, "incompatible")
    payload = json.loads(strict_json(json_payload(rep)))
    assert payload["log_graph_norms"][0] == "-inf"
    assert payload["stabilization_ratio"] == "inf"


def test_compat_report_json_refuses_nan(basis16):
    # NaN gets no verdict in JSON: it is refused, not written as null
    rep = CompatReport(1.0, (1, 2), (np.nan, 3.0), np.nan, "inconclusive")
    with pytest.raises(InvalidSpecError):
        strict_json(json_payload(rep))


def test_membership_refuses_a_horizon_past_the_basis(basis16):
    for T in (1e307, 1.7e308):
        with pytest.raises(InvalidSpecError, match="too long"):
            check_domain_membership(unit_state(basis16, 1), T)


def log_heights(u0, times):
    """log |e^{-tA} u0|_H at each time: the height function of u0."""
    return solve_cauchy(u0, None, times).node_norms.log_normH


def test_height_function_rows_equal_one_time_calls(basis16):
    rng = np.random.default_rng(3)
    u0 = SpectralVec.from_coefficients(basis16, rng.standard_normal(16))
    ts = np.linspace(0.0, 2.0, 40)  # past the switch to the column pass
    want = [log_heights(u0, [t])[0] for t in ts]
    assert [float(v).hex() for v in log_heights(u0, ts)] == [float(v).hex() for v in want]


def test_height_function_decreasing_logconvex(basis16):
    rng = np.random.default_rng(8)
    u0 = SpectralVec.from_coefficients(basis16, np.abs(rng.standard_normal(16)) + 0.1)
    ts = np.geomspace(1e-3, 5.0, 40)
    logs = log_heights(u0, ts)
    assert np.all(np.isfinite(logs))
    assert np.all(np.diff(np.exp(logs)) < 0)
    d1 = np.diff(logs) / np.diff(ts)
    second = 2.0 * np.diff(d1) / (ts[2:] - ts[:-2])
    assert np.min(second) >= -1e-10


def test_height_function_zero_state(basis16):
    norms = solve_cauchy(SpectralVec.zero(basis16), None, np.array([0.0, 1.0])).node_norms
    assert np.all(norms.normH == 0.0)
    assert np.all(norms.log_normH == -np.inf)


def test_height_function_single_mode_exact(basis16):
    logs = log_heights(unit_state(basis16, 3), np.array([0.0, 0.25, 0.5]))
    assert np.allclose(np.exp(logs), np.exp(-9.0 * np.array([0.0, 0.25, 0.5])), rtol=1e-13)


def test_height_function_bad_grid(basis16):
    with pytest.raises(ValueError):
        log_heights(unit_state(basis16, 1), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        log_heights(unit_state(basis16, 1), np.array([-1.0, 1.0]))
