import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatfvp import (
    DomainSpec,
    InvalidSpecError,
    SpectralVec,
    analyze,
    build_basis,
    project_samples,
    rel_distance,
    synthesize,
    triple_norms,
    uniform_samples,
    vec_from_json,
    vec_to_json,
)
from heatfvp.spectral import _check_horizon, _simpson_weights, _sine_table, json_payload, strict_json

from conftest import unit_state


def test_interval_eigenvalues_are_squares(basis16):
    j = np.arange(1, 17, dtype=float)
    assert np.allclose(basis16.lambdas, j ** 2, rtol=1e-15)


def test_interval_general_length():
    L = 2.5
    basis = build_basis(DomainSpec("interval", (L,), 8))
    j = np.arange(1, 9, dtype=float)
    assert np.allclose(basis.lambdas, (j * np.pi / L) ** 2, rtol=1e-14)


def test_eigenvalues_are_read_only(basis16):
    # every state, march and norm reads this one array
    with pytest.raises(ValueError):
        basis16.lambdas[0] = 0.0


def test_triple_constants(basis16):
    assert basis16.C1 == pytest.approx(1.0)   # lambda_1 = 1 on (0, pi)
    assert basis16.C2 == pytest.approx(1.0)
    assert basis16.C3 == 1.0
    assert basis16.C4 == 1.0
    basis = build_basis(DomainSpec("interval", (2 * np.pi,), 4))
    assert basis.C1 == pytest.approx(2.0)     # lambda_1 = 1/4
    assert basis.C2 == pytest.approx(4.0)
    # the constants follow from the spectrum: a basis holds only its spec and eigenvalues
    assert [f.name for f in dataclasses.fields(basis)] == ["spec", "lambdas"]


def test_domain_spec_validation():
    with pytest.raises(InvalidSpecError):
        DomainSpec("triangle", (1.0,), 4)
    with pytest.raises(InvalidSpecError):
        DomainSpec("interval", (-1.0,), 4)
    with pytest.raises(InvalidSpecError):
        DomainSpec("interval", (1.0,), 0)
    with pytest.raises(InvalidSpecError):
        DomainSpec("interval", (np.nan,), 4)
    # the interval is the one domain, with one length
    with pytest.raises(InvalidSpecError, match="kind"):
        DomainSpec("rectangle", (1.0, 1.0), 4)
    with pytest.raises(InvalidSpecError, match="1 length"):
        DomainSpec("interval", (1.0, 1.0), 4)
    # a length is a number, never a bool or a string read as one
    for lengths in (("3.141592653589793",), (True,)):
        with pytest.raises(InvalidSpecError, match="number"):
            DomainSpec("interval", lengths, 4)
    # a JSON integer past float64 range is no finite length
    with pytest.raises(InvalidSpecError, match="finite"):
        DomainSpec("interval", (10 ** 400,), 4)
    # a mode count is an integer, never a bool, a float or a string read as one
    for modes in (True, 4.0, 4.5, "4", np.inf):
        with pytest.raises(InvalidSpecError, match="modes"):
            DomainSpec("interval", (1.0,), modes)
    spec = DomainSpec("interval", (1.0,), np.int64(4))
    assert type(spec.modes) is int
    assert json.loads(vec_to_json(SpectralVec.zero(build_basis(spec))))["basis"]["modes"] == 4
    # (pi/L)^2 overflows at L = 1e-160; at L = 1e200 it underflows to 0, so C2 = 1/lambda_1 is inf
    for L in (1e-160, 1e200):
        with pytest.raises(InvalidSpecError, match="float64 range"):
            build_basis(DomainSpec("interval", (L,), 4))


TABLES = {"axes", "weights", "sines"}


def test_build_basis_defers_quadrature_tables():
    # the N x (8N+1) sine table would take 268 MB here
    tracemalloc.start()
    try:
        basis = build_basis(DomainSpec("interval", (np.pi,), 2048))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not TABLES & set(vars(basis))
    assert peak < 8 * 2 ** 20


def test_lazy_tables_round_trip():
    # the round trip runs as sine transforms: it builds no quadrature table
    basis = build_basis(DomainSpec("interval", (np.pi,), 64))
    rng = np.random.default_rng(5)
    vec = SpectralVec.from_coefficients(basis, rng.standard_normal(64))
    back = analyze(uniform_samples(vec, 8 * 64), basis)
    assert not {"sines", "weights"} & set(vars(basis))
    assert np.abs(back.coefficients - vec.coefficients).max() <= 1e-13


def test_quadrature_orthonormality_machine_exact(basis16):
    # mode samples analyzed back to unit coefficient vectors
    E = basis16.mode_values(basis16.axes[0])
    for jj in range(16):
        c = analyze(E[jj], basis16).coefficients.real
        expected = np.zeros(16)
        expected[jj] = 1.0
        assert np.abs(c - expected).max() <= 1e-14


def test_analyze_constant_one_closed_form(basis64):
    ones = np.ones_like(basis64.axes[0])
    got = analyze(ones, basis64).coefficients.real
    j = np.arange(1, 65)
    exact = np.sqrt(2 / np.pi) * (1 - np.cos(j * np.pi)) / j
    odd = j % 2 == 1
    rel = np.abs(got[odd] - exact[odd]) / np.abs(exact[odd])
    # composite-rule error grows like (j / modes)^4: tight low, loose high
    assert rel.max() <= 5e-4
    assert rel[: 64 // 8].max() <= 1e-6
    assert np.abs(got[~odd]).max() <= 1e-12


def test_analyze_parabola_closed_form(basis16):
    x = basis16.axes[0]
    got = analyze(x * (np.pi - x), basis16).coefficients.real
    j = np.arange(1, 17)
    exact = np.sqrt(2 / np.pi) * 2 * (1 - np.cos(j * np.pi)) / j ** 3
    odd = j % 2 == 1
    rel = np.abs(got[odd] - exact[odd]) / np.abs(exact[odd])
    assert rel.max() <= 5e-4
    assert rel[0] <= 1e-8
    assert rel[:2].max() <= 1e-6


def test_analyze_synthesize_round_trip(basis16):
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(16) * np.exp(-0.3 * np.arange(16))
    vec = SpectralVec.from_coefficients(basis16, coeffs)
    back = analyze(uniform_samples(vec, 8 * 16), basis16)
    assert np.abs(back.coefficients - vec.coefficients).max() <= 1e-13


def test_analyze_rejects_wrong_grid(basis16):
    with pytest.raises(InvalidSpecError):
        analyze(np.ones(7), basis16)


def test_synthesize_at_custom_points(basis16):
    vec = unit_state(basis16, 2)
    pts = np.array([np.pi / 4, np.pi / 2])
    vals = synthesize(vec, pts)
    expected = np.sqrt(2 / np.pi) * np.sin(2 * pts)
    assert np.allclose(vals.real, expected, rtol=1e-14, atol=1e-15)


def test_synthesize_overflowed_raises(basis16):
    v = SpectralVec.zero(basis16)
    v.phase[0] = 1.0
    v.logmag[0] = 800.0
    with pytest.raises(InvalidSpecError):
        synthesize(v, np.array([np.pi / 2]))


def test_project_samples_even_grid(basis16):
    x = np.linspace(0, np.pi, 129)
    samples = np.sqrt(2 / np.pi) * np.sin(3 * x)
    vec = project_samples(samples, x, basis16)
    expected = np.zeros(16)
    expected[2] = 1.0
    assert np.abs(vec.coefficients.real - expected).max() <= 1e-13


def test_project_samples_odd_panels_rejected(basis16):
    x = np.linspace(0, np.pi, 130)
    with pytest.raises(InvalidSpecError):
        project_samples(np.zeros(130), x, basis16)


def _case(modes, panels):
    return pytest.param(modes, panels, id=f"{modes}-{panels}")


# a mode count above the panel count aliases on the grid; panels = 8 * modes
# is the basis quadrature grid, where analyze reads samples
TRANSFORM_SIZES = [
    _case(16, 64), _case(64, 130), _case(100, 64), _case(256, 514), _case(256, 200), _case(1024, 2050), _case(1024, 600),
    _case(16, 128), _case(64, 512), _case(256, 2048),
]
L_TRANSFORM = 2.5


def _rel_max(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _basis_and_table(modes, panels):
    basis = build_basis(DomainSpec("interval", (L_TRANSFORM,), modes))
    return basis, _sine_table(L_TRANSFORM, modes, np.linspace(0.0, L_TRANSFORM, panels + 1))


@pytest.mark.parametrize("modes,panels", TRANSFORM_SIZES)
def test_project_samples_matches_the_table_formula(modes, panels):
    basis, table = _basis_and_table(modes, panels)
    rng = np.random.default_rng(modes + panels)
    # samples are real; the imaginary parts this case once drew still make
    # the draw, and a complex sample with them is refused
    samples = rng.standard_normal(panels + 1)
    imag = rng.standard_normal(panels + 1)
    want = table * _simpson_weights(L_TRANSFORM, panels) @ samples
    transforms = [lambda f: project_samples(f, np.linspace(0.0, L_TRANSFORM, panels + 1), basis)]
    if panels == 8 * modes:
        transforms.append(lambda f: analyze(f, basis))
    for transform in transforms:
        assert _rel_max(transform(samples).coefficients, want) <= (1e-12 if modes > 256 else 1e-13)
        assert _rel_max(transform(samples + 0j).coefficients, want) <= (1e-12 if modes > 256 else 1e-13)
        with pytest.raises(InvalidSpecError, match="imaginary"):
            transform(samples + 1j * imag)


@pytest.mark.parametrize("modes,panels", TRANSFORM_SIZES)
def test_uniform_samples_match_the_table_formula(modes, panels):
    basis, table = _basis_and_table(modes, panels)
    rng = np.random.default_rng(modes * panels)
    vec = SpectralVec.from_coefficients(basis, rng.standard_normal(basis.n_modes))
    # the complex vector this case once drew is refused on the same draw
    with pytest.raises(InvalidSpecError, match="imaginary"):
        SpectralVec.from_coefficients(basis, rng.standard_normal(basis.n_modes) * (1 + 2j))
    got = uniform_samples(vec, panels)
    assert got.dtype == np.float64
    assert _rel_max(got, vec.coefficients @ table) <= (1e-12 if modes > 256 else 1e-13)


def test_uniform_samples_refusals(basis16):
    with pytest.raises(InvalidSpecError):
        uniform_samples(unit_state(basis16, 1), 1)
    v = SpectralVec.zero(basis16)
    v.phase[0] = 1.0
    v.logmag[0] = 800.0
    with pytest.raises(InvalidSpecError):
        uniform_samples(v, 64)
    # finite coefficients whose sums leave float64 range: refused, with no warning
    big = SpectralVec.from_coefficients(basis16, np.full(16, 1.7e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpecError, match="uniform samples"):
            uniform_samples(big, 64)


def test_norm_values_single_mode(basis16):
    v = unit_state(basis16, 3)
    n = triple_norms(v)
    assert n.normH == pytest.approx(1.0, rel=1e-15)
    assert n.normV == pytest.approx(3.0, rel=1e-15)      # sqrt(lambda_3) = 3
    assert n.normVstar == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert n.log_normH == 0.0


def test_norms_log_path_beyond_float_range(basis16):
    # per-term squares overflow the linear sum, so the log path takes over;
    # the norm itself is still representable here
    v = SpectralVec.zero(basis16)
    v.phase[:] = 1.0
    v.logmag[:] = 400.0
    n = triple_norms(v)
    assert n.log_normH == pytest.approx(400.0 + 0.5 * np.log(16), rel=1e-14)
    assert n.normH == pytest.approx(np.exp(400.0) * 4.0, rel=1e-12)
    # and far enough out even the norm value exceeds float range
    v.logmag[:] = 800.0
    n2 = triple_norms(v)
    assert np.isinf(n2.normH)
    assert n2.log_normH == pytest.approx(800.0 + 0.5 * np.log(16), rel=1e-14)


def test_zero_vector_norms(basis16):
    n = triple_norms(SpectralVec.zero(basis16))
    assert n.normH == 0.0
    assert n.log_normH == -np.inf


def test_rel_distance_huge_vectors(basis16):
    a = SpectralVec.zero(basis16)
    a.phase[:] = 1.0
    a.logmag[:] = 1000.0
    b = a.scale_log(np.log(2.0))
    # |a - 2a| / |2a| = 1/2, far outside linear float range
    assert rel_distance(a, b) == pytest.approx(0.5, rel=1e-12)


def test_strict_json_sorts_and_refuses_non_finite_numbers():
    payload = {"b": [1.5, -0.0], "a": {"z": 1e-300, "y": True}}
    assert strict_json(payload) == json.dumps(payload, sort_keys=True)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InvalidSpecError):
            strict_json({"x": [bad]})


def test_json_payload_has_one_rule_for_non_finite_numbers():
    payload = {"a": [np.float64(np.inf), -np.inf, 1.5], "b": (np.bool_(True), np.int64(3)), "c": None}
    assert json_payload(payload) == {"a": ["inf", "-inf", 1.5], "b": [True, 3], "c": None}
    assert strict_json(json_payload({"x": 1e-300})) == strict_json({"x": 1e-300})
    with pytest.raises(InvalidSpecError):
        strict_json(json_payload({"x": [np.nan]}))
    # an array becomes its list, under the same rule
    assert json_payload({"a": np.array([np.inf, 2.0]), "m": np.eye(2)}) == {
        "a": ["inf", 2.0], "m": [[1.0, 0.0], [0.0, 1.0]]}


def test_horizon_with_a_basis_keeps_the_backward_exponent_finite(basis16):
    # lambda_16 = 256: 2 T lambda_N overflows between T = 1e305 and 1e306
    _check_horizon(1e305, basis16)
    _check_horizon(1e306)
    for T in (1e306, 1e307, 1.7e308):
        with pytest.raises(InvalidSpecError, match="too long"):
            _check_horizon(T, basis16)


def test_vec_json_round_trip(basis16):
    rng = np.random.default_rng(11)
    re, im = rng.standard_normal(16), rng.standard_normal(16)
    vec = SpectralVec.from_coefficients(basis16, re)
    text = vec_to_json(vec)
    back = vec_from_json(text, basis16)
    assert np.allclose(back.coefficients, vec.coefficients, rtol=1e-12, atol=0.0)
    payload = json.loads(text)
    assert payload["basis"]["modes"] == 16
    assert all(pair[1] == 0.0 for pair in payload["coefficients"])
    # the (re, im) pairs stay; an im that is not 0 is refused, never dropped
    payload["coefficients"] = [[x, y] for x, y in zip(re.tolist(), im.tolist())]
    with pytest.raises(InvalidSpecError, match="imaginary"):
        vec_from_json(json.dumps(payload), basis16)


def test_vec_json_rebuilds_basis():
    basis = build_basis(DomainSpec("interval", (2.0,), 4))
    vec = SpectralVec.from_coefficients(basis, [1.0, 0.5, 0.25, 0.125])
    # read back against a basis built anew from the same spec
    back = vec_from_json(vec_to_json(vec), build_basis(DomainSpec("interval", (2.0,), 4)))
    assert back.basis.spec == basis.spec
    assert np.allclose(back.coefficients, vec.coefficients, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("key", ["basis", "kind", "lengths", "modes", "coefficients"])
def test_vec_json_missing_key(basis16, key):
    payload = json.loads(vec_to_json(unit_state(basis16, 1)))
    del (payload if key in payload else payload["basis"])[key]
    with pytest.raises(InvalidSpecError, match=key):
        vec_from_json(json.dumps(payload), basis16)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_non_finite_coefficients_rejected(basis16, bad):
    c = np.ones(16, dtype=complex)
    c[3] = bad
    # a NaN imaginary part is no zero one: refused as not real
    with pytest.raises(InvalidSpecError, match="finite" if np.imag(bad) == 0 else "real"):
        SpectralVec.from_coefficients(basis16, c)


def test_vec_json_basis_mismatch(basis16, basis64):
    text = vec_to_json(unit_state(basis16, 1))
    with pytest.raises(InvalidSpecError):
        vec_from_json(text, basis64)


def test_add_sub_match_linear(basis16):
    rng = np.random.default_rng(1)
    a = SpectralVec.from_coefficients(basis16, rng.standard_normal(16))
    b = SpectralVec.from_coefficients(basis16, rng.standard_normal(16))
    s = a + b
    d = a - b
    assert np.allclose(s.coefficients, a.coefficients + b.coefficients, rtol=1e-13, atol=1e-300)
    assert np.allclose(d.coefficients, a.coefficients - b.coefficients, rtol=1e-13, atol=1e-14)


def test_lift_coefficients_match_quadrature(basis16):
    # closed-form sine coefficients of the affine lift vs numerical analyze
    ga, gb = 0.7, -0.4
    closed = basis16.lift_coefficients(ga, gb)
    x = basis16.axes[0]
    affine = ga + (gb - ga) * x / np.pi
    numeric = analyze(affine, basis16).coefficients.real
    rel = np.abs(closed - numeric) / np.abs(closed)
    assert rel.max() <= 5e-4
    assert rel[:4].max() <= 1e-6


coeff_strategy = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    min_size=16,
    max_size=16,
)


@settings(max_examples=100, deadline=None)
@given(coeff_strategy)
def test_norm_chain_property(coeffs):
    basis = build_basis(DomainSpec("interval", (np.pi,), 16))
    vec = SpectralVec.from_coefficients(basis, np.array(coeffs))
    n = triple_norms(vec)
    slack = 1.0 + 1e-12
    # Gelfand chain: dual <= C1 * pivot, pivot <= C1 * form, dual <= C2 * form
    assert n.normVstar <= basis.C1 * n.normH * slack
    assert n.normH <= basis.C1 * n.normV * slack
    assert n.normVstar <= basis.C2 * n.normV * slack


@settings(max_examples=60, deadline=None)
@given(coeff_strategy, st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_scaling_homogeneity(coeffs, alpha):
    # stated in log form: the linear mirror underflows for |c| < 1e-154
    # while the log norms stay exact
    basis = build_basis(DomainSpec("interval", (np.pi,), 16))
    vec = SpectralVec.from_coefficients(basis, np.array(coeffs))
    scaled = vec.scaled(alpha)
    got = triple_norms(scaled).log_normH
    base = triple_norms(vec).log_normH
    if alpha == 0.0 or base == -np.inf:
        assert got == -np.inf
    else:
        assert got == pytest.approx(base + np.log(abs(alpha)), abs=1e-9)


def test_norms_subnormal_coefficients(basis16):
    # regression: subnormal inputs once produced nan phases and nan norms
    c = np.zeros(16)
    c[3] = 5e-313
    n = triple_norms(SpectralVec.from_coefficients(basis16, c))
    assert not np.isnan(n.normH)
    assert n.log_normH == pytest.approx(np.log(5e-313), rel=1e-12)
