"""Matrix generator lab: classification, sector sampling, decay, injectivity,
log-convexity, and the backward-domain chain ordering."""

import hashlib
import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatfvp import generator
from heatfvp.cli import cli
from heatfvp.generator import (
    MAX_DIM,
    MatrixGenerator,
    check_decay,
    check_injectivity,
    check_logconvexity_criterion,
    check_sectoriality,
    exp_semigroup,
    inverse_chain_demo,
    parse_matrix,
    random_elliptic,
    random_selfadjoint,
)
from heatfvp.spectral import InvalidSpecError, json_payload, strict_json

from conftest import JORDAN, format_matrix, golden_generator


class TestMatrixIO:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = parse_matrix(format_matrix(a))
        assert np.array_equal(a, b)

    def test_format_layout(self):
        text = format_matrix(np.eye(2))
        lines = text.strip().splitlines()
        assert lines[0] == "2"
        assert lines[1].split() == ["1.0", "0.0", "0.0", "0.0"]

    def test_parse_errors(self):
        with pytest.raises(InvalidSpecError):
            parse_matrix("")
        with pytest.raises(InvalidSpecError):
            parse_matrix("x\n1 0\n")
        with pytest.raises(InvalidSpecError):
            parse_matrix("2\n1 0 0 0\n")
        with pytest.raises(InvalidSpecError):
            parse_matrix("1\n1 0 3 0\n")


class TestClassification:
    def test_selfadjoint_diagonal(self):
        gen = MatrixGenerator(np.diag([1.0, 2.0]))
        rep = gen.classify()
        assert rep.selfadjoint and rep.normal and rep.hyponormal and rep.elliptic
        assert rep.decay_rate == pytest.approx(1.0, rel=1e-14)
        assert rep.norm2 == pytest.approx(2.0, rel=1e-14)
        assert rep.spectral_abscissa == pytest.approx(2.0, rel=1e-14)
        assert rep.dim == 2

    def test_jordan_block(self):
        rep = MatrixGenerator(JORDAN).classify()
        assert not rep.selfadjoint
        assert not rep.normal
        assert not rep.hyponormal
        # Hermitian part [[1, 5], [5, 1]] has eigenvalue -4
        assert rep.decay_rate == pytest.approx(-4.0, rel=1e-13)
        assert not rep.elliptic
        assert rep.spectral_abscissa == pytest.approx(1.0, rel=1e-12)

    def test_rotation_is_normal_not_elliptic(self):
        rep = MatrixGenerator([[0.0, 1.0], [-1.0, 0.0]]).classify()
        assert rep.normal and not rep.selfadjoint
        assert rep.hyponormal
        assert rep.decay_rate == pytest.approx(0.0, abs=1e-14)
        assert not rep.elliptic

    @pytest.mark.parametrize("big", [1e160, 1e200])
    def test_commutators_past_float64_square(self, big):
        # ||A||^2 overflows; the shear 1 lies below the rounding of ||A||^2,
        # so A is normal and hyponormal to working precision, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = MatrixGenerator([[big, 1.0], [0.0, big]]).classify()
        assert rep.normal and rep.hyponormal
        zero = MatrixGenerator(np.zeros((2, 2))).classify()
        assert zero.normal and zero.hyponormal

    def test_json_keys(self):
        d = json.loads(strict_json(json_payload(MatrixGenerator(np.eye(3)).classify())))
        assert set(d) == {
            "dim", "selfadjoint", "normal", "hyponormal", "elliptic",
            "decay_rate", "norm2", "spectral_abscissa",
        }

    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            MatrixGenerator(np.zeros((2, 3)))
        with pytest.raises(InvalidSpecError):
            MatrixGenerator(np.full((2, 2), np.nan))
        with pytest.raises(InvalidSpecError):
            MatrixGenerator(np.eye(MAX_DIM + 1))

    def test_holds_a_read_only_copy(self):
        # a complex input is not converted, so a generator that kept the
        # caller's array would follow writes into it
        src = random_elliptic(4, seed=1).a.copy()
        gen = MatrixGenerator(src)
        rep = gen.classify()
        src[0, 0] = 100.0
        assert gen.a[0, 0] != 100.0
        assert gen.classify() == rep
        with pytest.raises(ValueError):
            gen.a[0, 0] = 0.0

    def test_sample_generators(self):
        gen = random_elliptic(6, seed=1)
        assert gen.is_elliptic
        assert gen.decay_rate >= 0.5 - 1e-10
        sa = random_selfadjoint(5, seed=2)
        assert sa.is_selfadjoint and sa.is_elliptic


class TestExpSemigroup:
    def test_diagonal_exact(self):
        gen = MatrixGenerator(np.diag([1.0, 4.0]))
        e = exp_semigroup(gen, 0.5)
        assert np.allclose(np.diag(e), [np.exp(-0.5), np.exp(-2.0)], rtol=1e-14)

    def test_time_zero_is_identity(self):
        gen = random_elliptic(5, seed=3)
        assert np.allclose(exp_semigroup(gen, 0.0), np.eye(5), atol=1e-15)

    def test_negative_time_inverts(self):
        gen = random_elliptic(4, seed=4)
        prod = exp_semigroup(gen, 1.0) @ exp_semigroup(gen, -1.0)
        assert np.allclose(prod, np.eye(4), atol=1e-12)

    def test_semigroup_law(self):
        gen = random_elliptic(8, seed=5)
        lhs = exp_semigroup(gen, 0.3) @ exp_semigroup(gen, 0.5)
        rhs = exp_semigroup(gen, 0.8)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-13)


class TestSectoriality:
    def test_selfadjoint_sup_below_secant_bound(self):
        gen = MatrixGenerator(np.diag([1.0, 2.0]))
        rep = check_sectoriality(gen)
        assert rep.passed
        assert 1.0 <= rep.sup_value <= 1.0 / np.cos(0.3) + 1e-9
        assert rep.n_sampled + rep.n_skipped == 64 * 32
        assert rep.theta_recommended == pytest.approx(np.arctan2(1.0, 2.0), rel=1e-12)

    def test_scalar_sup(self):
        rep = check_sectoriality(MatrixGenerator([[1.0]]))
        assert rep.passed
        assert 1.0 <= rep.sup_value <= 1.0 / np.cos(0.3) + 1e-9
        assert rep.n_skipped == 0

    def test_zero_matrix_samples_the_unit_decades(self):
        # radii scaled by ||A|| = 0 would all sit on the vertex 0, the
        # spectrum, and leave nothing to sample
        rep = check_sectoriality(MatrixGenerator(np.zeros((2, 2))))
        assert rep.n_sampled == 64 * 32 and rep.n_skipped == 0
        assert rep.sup_value == pytest.approx(1.0, rel=1e-12)
        assert rep.passed

    def test_tiny_scalar_gets_the_report_of_one(self):
        # the skip distance scales with ||A||: the sector of 2^-40 is the
        # sector of 1 scaled by 2^-40, bit for bit
        one = check_sectoriality(MatrixGenerator([[1.0]]))
        tiny = check_sectoriality(MatrixGenerator([[2.0 ** -40]]))
        assert tiny == type(one)(one.sup_value, one.argmax_lambda * 2.0 ** -40, one.passed,
                                 one.n_sampled, one.n_skipped, one.theta_recommended)
        # 1e-12 is not a power of two: the sup moves by rounding alone
        rep = check_sectoriality(MatrixGenerator([[1e-12]]))
        assert rep.passed and rep.n_skipped == 0
        assert abs(rep.sup_value - one.sup_value) <= np.spacing(one.sup_value)

    def test_json_keys(self):
        rep = check_sectoriality(MatrixGenerator([[1.0]]))
        d = json.loads(strict_json(json_payload(rep)))
        assert set(d) == {
            "sup_value", "argmax_re", "argmax_im", "passed",
            "n_sampled", "n_skipped", "theta_recommended",
        }


class TestDecay:
    def test_diagonal_saturates_bound(self):
        gen = MatrixGenerator(np.diag([1.0, 3.0]))
        rep = check_decay(gen, np.linspace(0.0, 2.0, 9))
        assert rep.ok
        assert np.allclose(rep.norms, np.exp(-rep.times), rtol=1e-12)
        assert rep.fitted_rate == pytest.approx(1.0, rel=1e-10)

    def test_elliptic_random(self):
        rep = check_decay(random_elliptic(6, seed=7), np.linspace(0.0, 3.0, 13))
        assert rep.ok

    def test_transient_growth_still_within_hermitian_bound(self):
        # decay_rate is -4, so the bound e^{4t} absorbs the defective growth
        rep = check_decay(MatrixGenerator(JORDAN), np.linspace(0.0, 1.0, 5))
        assert rep.ok
        assert rep.norms[1] > 1.0

    def test_bound_past_float64_range_is_inf(self):
        # decay_rate is -999: e^{999 t} leaves float64 range, e^{-tA} does not
        rep = check_decay(MatrixGenerator([[1.0, 2000.0], [0.0, 1.0]]), np.linspace(0.0, 5.0, 21))
        assert rep.ok
        assert np.isinf(rep.bound[-1]) and np.all(np.isfinite(rep.norms))

    def test_validation(self):
        gen = MatrixGenerator([[1.0]])
        with pytest.raises(InvalidSpecError):
            check_decay(gen, [1.0, 0.5])
        with pytest.raises(InvalidSpecError):
            check_decay(gen, [-1.0, 1.0])


class TestInjectivity:
    def test_diagonal_exact_floor(self):
        gen = MatrixGenerator(np.diag([1.0, 9.0]))
        rep = check_injectivity(gen, [1.0])
        assert rep.all_positive and rep.floor_respected
        assert rep.sigma_min[0] == pytest.approx(np.exp(-9.0), rel=1e-12)
        assert rep.heuristic_floor[0] == pytest.approx(np.exp(-9.0), rel=1e-9)

    def test_defective_matrix_stays_injective(self):
        rep = check_injectivity(MatrixGenerator(JORDAN), [0.1, 1.0, 10.0])
        assert rep.all_positive
        assert rep.floor_respected
        assert np.all(rep.sigma_min > 0)

    def test_nonnormal_random_long_times(self):
        gen = random_elliptic(6, seed=8, skew_scale=2.0)
        rep = check_injectivity(gen, [0.1, 1.0, 10.0])
        assert rep.all_positive

    def test_needs_positive_times(self):
        with pytest.raises(InvalidSpecError):
            check_injectivity(MatrixGenerator([[1.0]]), [0.0])


@pytest.mark.parametrize("a", [np.diag([1.0, 2.0]), JORDAN])
@pytest.mark.parametrize("t", [np.inf, np.nan])
@pytest.mark.parametrize("probe", ["decay", "injectivity", "chain"])
def test_probes_refuse_times_that_are_not_finite(a, t, probe):
    # one refusal, with no warning first: the suite turns RuntimeWarning
    # into an error, and a diagonal A at t = inf used to form -inf * 0
    gen = MatrixGenerator(a)
    with pytest.raises(InvalidSpecError):
        if probe == "decay":
            check_decay(gen, [0.0, 1.0, t])
        elif probe == "injectivity":
            check_injectivity(gen, [1.0, t])
        else:
            inverse_chain_demo(gen, 1.0, t)


class TestLogConvexity:
    def test_selfadjoint_always_convex(self):
        gen = MatrixGenerator(np.diag([1.0, 2.0, 3.0]))
        rep = check_logconvexity_criterion(gen, trials=64, seed=0)
        assert rep.criterion_fraction == 1.0
        assert rep.logconvex_fraction == 1.0
        assert rep.forward_implication_observed
        assert rep.selfadjoint
        # eigenvectors are appended and realize equality
        assert rep.min_margin == pytest.approx(0.0, abs=1e-9)
        assert rep.n_trials == 64 + 3

    def test_normal_complex_spectrum(self):
        gen = MatrixGenerator(np.diag([1 + 5j, 2 - 3j]))
        rep = check_logconvexity_criterion(gen, trials=64, seed=1)
        assert rep.criterion_fraction == 1.0
        assert rep.logconvex_fraction == 1.0
        assert not rep.selfadjoint

    def test_defective_violates(self):
        rep = check_logconvexity_criterion(MatrixGenerator(JORDAN), trials=128, seed=0)
        assert rep.criterion_fraction < 1.0
        assert rep.logconvex_fraction < 1.0
        assert rep.min_margin < -1e-3
        assert rep.min_second_divdiff < -1e-3
        assert not rep.forward_implication_observed

    def test_trials_validation(self):
        with pytest.raises(InvalidSpecError):
            check_logconvexity_criterion(MatrixGenerator([[1.0]]), trials=0)

    def test_times_validation(self):
        # two times have no second divided difference
        with pytest.raises(InvalidSpecError):
            check_logconvexity_criterion(MatrixGenerator([[1.0]]), trials=4, times=[0.1, 0.2])

    @pytest.mark.parametrize("times", [[0.1, 0.1, 0.2], [0.3, 0.2, 0.1], [0.1, np.nan, 0.2], [0.1, 0.2, np.inf]],
                             ids=["repeated", "decreasing", "nan", "inf"])
    def test_times_must_be_finite_and_increasing(self, times):
        # a repeated time divides by a zero step; decreasing times were
        # accepted silently
        with pytest.raises(InvalidSpecError, match="strictly increasing"):
            check_logconvexity_criterion(MatrixGenerator(np.diag([1.0, 2.0])), trials=4, times=times)

    def test_json_keys(self):
        rep = check_logconvexity_criterion(MatrixGenerator([[2.0]]), trials=4)
        d = json.loads(strict_json(json_payload(rep)))
        assert set(d) == {
            "n_trials", "criterion_fraction", "logconvex_fraction", "min_margin",
            "min_second_divdiff", "forward_implication_observed", "selfadjoint", "seed",
        }


# selfadjoint or normal: |e^{-tA} x|^2 is a positive sum of exponentials,
# so every profile is log-convex and only rounding can push a second
# divided difference of log |e^{-tA} x| below zero
CONVEX_GENERATORS = [
    "selfadjoint-2-5", "selfadjoint-6-10", "selfadjoint-16-20", "selfadjoint-64-65",
    "diag(-5,1)", "diag(-50,1)", "diag(1,2,3)", "diag(1+5j,2-3j)",
]
# non-normal, with real non-convexity: the most negative ratio of a second
# divided difference to its rounding floor, over the default times and the
# 256 samples of seed 5 plus the eigenvectors, as measured when recorded
NONCONVEX_MARGINS = {
    "jordan": -2.45e12,
    "elliptic-2-12": -3.0e10,
    "elliptic-6-13": -1.9e12,
    "elliptic-16-18": -2.99e11,
    "elliptic-64-64": -3.19e10,
}


def _floor_slack(gen):
    xs = generator._convexity_samples(gen, 256, 5)
    _, slack = generator._log_profile(gen, xs, np.geomspace(1e-3, 10.0, 25))
    return slack


class TestLogConvexityFloor:
    @pytest.mark.parametrize("name", CONVEX_GENERATORS)
    def test_convex_profiles_stay_above_the_floor(self, name):
        gen = golden_generator(name)
        rep = check_logconvexity_criterion(gen, seed=5)
        assert rep.logconvex_fraction == 1.0
        assert rep.forward_implication_observed
        assert _floor_slack(gen).min() >= -1.0

    @pytest.mark.parametrize("name", list(NONCONVEX_MARGINS))
    def test_real_nonconvexity_is_caught_far_below_the_floor(self, name):
        gen = golden_generator(name)
        worst = _floor_slack(gen).min()
        assert worst <= -1e6
        # the margin is not a rounding artefact of one build: it stays
        # within two decades of the recorded one
        assert worst <= 1e-2 * NONCONVEX_MARGINS[name]
        rep = check_logconvexity_criterion(gen, seed=5)
        assert rep.logconvex_fraction < 1.0
        assert not rep.forward_implication_observed


class TestConvexityProfile:
    def test_selfadjoint_profile(self):
        gen = MatrixGenerator(np.diag([1.0, 2.0]))
        ts = np.geomspace(0.01, 5.0, 17)
        rep = check_logconvexity_criterion(gen, trials=16, times=ts)
        assert rep.min_second_divdiff >= -1e-10
        assert rep.logconvex_fraction == 1.0
        # |e^{-(t+s)A} x| <= ||e^{-sA}|| |e^{-tA} x|: every profile falls
        # because ||e^{-sA}|| < 1 for s > 0
        decay = check_decay(gen, ts)
        assert decay.ok and np.all(decay.norms < 1.0)

    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            check_logconvexity_criterion(MatrixGenerator(np.diag([1.0, 2.0])), trials=4, times=[0.1, 0.2])
        # e^{-1000 t} |x| reaches 0 in float64: its log profile is undefined
        with pytest.raises(InvalidSpecError, match="underflows"):
            check_logconvexity_criterion(MatrixGenerator([[1000.0]]), trials=4, times=[0.1, 0.5, 1.0])


class TestInverseChain:
    def test_selfadjoint_midpoint_interpolation(self):
        # t' = 2t: |e^{tA} v|^2 <= |v| |e^{2tA} v| caps the ratio at 1/2
        gen = MatrixGenerator(np.diag([1.0, 9.0]))
        rep = inverse_chain_demo(gen, 1.0, 2.0)
        assert rep.selfadjoint
        assert rep.max_ratio <= 0.5 * (1 + 1e-12)
        # identity columns ride along: the last one is e_2
        want = np.exp(9.0) / (1.0 + np.exp(18.0))
        assert rep.ratios[-1] == pytest.approx(want, rel=1e-12)

    def test_general_ordering_holds_selfadjoint(self):
        gen = random_selfadjoint(6, seed=9)
        rep = inverse_chain_demo(gen, 0.4, 1.1)
        assert rep.max_ratio <= 1.0 + 1e-12

    def test_defective_stays_reported(self):
        rep = inverse_chain_demo(MatrixGenerator(JORDAN), 1.0, 2.0)
        assert not rep.selfadjoint
        assert np.isfinite(rep.max_ratio)

    def test_time_ordering_validation(self):
        gen = MatrixGenerator([[1.0]])
        with pytest.raises(InvalidSpecError):
            inverse_chain_demo(gen, 2.0, 1.0)
        with pytest.raises(InvalidSpecError):
            inverse_chain_demo(gen, 0.0, 1.0)


# -- bit identity with the per-sample evaluation ----------------------------

def _hex(x):
    return float(x).hex()


def _convexity_values(rep):
    return {
        "convexity.n_trials": rep.n_trials,
        "convexity.criterion_fraction": _hex(rep.criterion_fraction),
        "convexity.logconvex_fraction": _hex(rep.logconvex_fraction),
        "convexity.min_margin": _hex(rep.min_margin),
        "convexity.min_second_divdiff": _hex(rep.min_second_divdiff),
        "convexity.forward_implication_observed": rep.forward_implication_observed,
    }


def golden_values(gen):
    """Every SectorReport field, every ConvexityReport float and the chain
    ratios of one generator: floats as float.hex strings, the ratios as a
    digest."""
    sec = check_sectoriality(gen)
    chain = inverse_chain_demo(gen, 1.0, 2.0, seed=5)
    return {
        "sector.sup_value": _hex(sec.sup_value),
        "sector.argmax_re": _hex(sec.argmax_lambda.real),
        "sector.argmax_im": _hex(sec.argmax_lambda.imag),
        "sector.passed": sec.passed,
        "sector.n_sampled": sec.n_sampled,
        "sector.n_skipped": sec.n_skipped,
        "sector.theta_recommended": _hex(sec.theta_recommended),
        **_convexity_values(check_logconvexity_criterion(gen, seed=5)),
        "chain.ratios_sha256": hashlib.sha256(chain.ratios.tobytes()).hexdigest(),
        "chain.max_ratio": _hex(chain.max_ratio),
    }


# recorded with one SVD per sample point and one matrix-vector product per
# sample vector and time, the convexity and chain entries with the
# Pade-13 exp_semigroup and the rounding floor of the log-convexity check.
# The seeds of dimension 2 to 16 are ones where
# taking |lambda - omega| with np.abs on the whole grid, instead of the
# scalar abs, moves the last bit of sup_value.
GOLDEN = {
    "elliptic-2-12": {
        "sector.sup_value": "0x1.9ba0f4d7994b6p+0",
        "sector.argmax_re": "-0x1.048cfe4f88ebap+0",
        "sector.argmax_im": "-0x1.0764e4c492e57p+2",
        "sector.passed": True,
        "sector.n_sampled": 2048,
        "sector.n_skipped": 0,
        "sector.theta_recommended": "0x1.5312858b2f374p-1",
        "convexity.n_trials": 258,
        "convexity.criterion_fraction": "0x1.3b88ee23b88eep-1",
        "convexity.logconvex_fraction": "0x1.fc07f01fc07f0p-8",
        "convexity.min_margin": "-0x1.8f6e4f1c88d79p-10",
        "convexity.min_second_divdiff": "-0x1.2087fcc8e48b7p-6",
        "convexity.forward_implication_observed": False,
        "chain.ratios_sha256": "8d1bba685aee5f1e2145a0bdf9ef0cec91de2c50d4d84e8a13a48d9aaa6770c8",
        "chain.max_ratio": "0x1.1fe64dcc385a8p-4",
    },
    "elliptic-6-13": {
        "sector.sup_value": "0x1.958a2377c2944p+1",
        "sector.argmax_re": "-0x1.9ef60af50e1b2p-1",
        "sector.argmax_im": "0x1.a37d51a7db2fcp+1",
        "sector.passed": True,
        "sector.n_sampled": 2048,
        "sector.n_skipped": 0,
        "sector.theta_recommended": "0x1.44b749e2ef84ap-2",
        "convexity.n_trials": 262,
        "convexity.criterion_fraction": "0x1.84e2afe0bb9a6p-1",
        "convexity.logconvex_fraction": "0x1.7734c36b7b1d5p-6",
        "convexity.min_margin": "-0x1.04d168ff4c8fep-4",
        "convexity.min_second_divdiff": "-0x1.4b306d8c1bc88p+0",
        "convexity.forward_implication_observed": False,
        "chain.ratios_sha256": "ff533dd80ec19d13dda18046f8a0bc959f2c340aba5d1d8f1db0146386f7a720",
        "chain.max_ratio": "0x1.4d686e7e0e050p-3",
    },
    "elliptic-16-18": {
        "sector.sup_value": "0x1.18bf5a0db78c6p+5",
        "sector.argmax_re": "-0x1.577f495c64c2dp+0",
        "sector.argmax_im": "-0x1.5b3eea074bfc6p+2",
        "sector.passed": False,
        "sector.n_sampled": 2048,
        "sector.n_skipped": 0,
        "sector.theta_recommended": "0x1.3cb4d86d8c11fp-4",
        "convexity.n_trials": 272,
        "convexity.criterion_fraction": "0x1.c5a5a5a5a5a5ap-1",
        "convexity.logconvex_fraction": "0x1.e1e1e1e1e1e1ep-5",
        "convexity.min_margin": "-0x1.85d8c2cff14e6p-6",
        "convexity.min_second_divdiff": "-0x1.306c5557209e7p+1",
        "convexity.forward_implication_observed": False,
        "chain.ratios_sha256": "0033da2c86675fbd889c8abc8fd5200dbe2e4e882acb68c0a88a80811b655313",
        "chain.max_ratio": "0x1.d840d018f4b7fp-3",
    },
    "elliptic-64-64": {
        "sector.sup_value": "0x1.377ef048fdc8fp+8",
        "sector.argmax_re": "-0x1.e0fa301dffc59p+0",
        "sector.argmax_im": "-0x1.e639e4b9488f9p+2",
        "sector.passed": False,
        "sector.n_sampled": 2048,
        "sector.n_skipped": 0,
        "sector.theta_recommended": "0x1.138fe6390e3a8p-5",
        "convexity.n_trials": 320,
        "convexity.criterion_fraction": "0x1.c000000000000p-1",
        "convexity.logconvex_fraction": "0x1.999999999999ap-3",
        "convexity.min_margin": "-0x1.83f8c73888975p-8",
        "convexity.min_second_divdiff": "-0x1.401475b43ec28p+1",
        "convexity.forward_implication_observed": False,
        "chain.ratios_sha256": "3ccbafa15d6f8c2ca938351f965a56fa0eb2f38adcd8266318d84404e72d4590",
        "chain.max_ratio": "0x1.488b7243a7dddp-3",
    },
    "selfadjoint-2-5": {
        "sector.sup_value": "0x1.07a926cc199f6p+0",
        "sector.argmax_re": "-0x1.26e2f749e12a7p-1",
        "sector.argmax_im": "0x1.2a1aca4724856p+1",
        "sector.passed": True,
        "sector.n_sampled": 2048,
        "sector.n_skipped": 0,
        "sector.theta_recommended": "0x1.a2e5a2a8a2b0ap-3",
        "convexity.n_trials": 258,
        "convexity.criterion_fraction": "0x1.0000000000000p+0",
        "convexity.logconvex_fraction": "0x1.0000000000000p+0",
        "convexity.min_margin": "-0x1.c7bc978978c54p-57",
        "convexity.min_second_divdiff": "-0x1.8355534260819p-29",
        "convexity.forward_implication_observed": True,
        "chain.ratios_sha256": "b2d41b77a1bebb60a7212e8b9e94ad8e50d62a645466b75f0100e5ccc7834c80",
        "chain.max_ratio": "0x1.96c3ce6410485p-4",
    },
    "selfadjoint-6-10": {
        "sector.sup_value": "0x1.07b4b56ca43d2p+0",
        "sector.argmax_re": "-0x1.9dc485d7670acp+0",
        "sector.argmax_im": "0x1.a24877025940bp+2",
        "sector.passed": True,
        "sector.n_sampled": 2048,
        "sector.n_skipped": 0,
        "sector.theta_recommended": "0x1.1243278b4f974p-1",
        "convexity.n_trials": 262,
        "convexity.criterion_fraction": "0x1.0000000000000p+0",
        "convexity.logconvex_fraction": "0x1.0000000000000p+0",
        "convexity.min_margin": "-0x1.a37ae14999780p-52",
        "convexity.min_second_divdiff": "-0x1.119badbbbd7efp-31",
        "convexity.forward_implication_observed": True,
        "chain.ratios_sha256": "b9690389dd9046a05e8899f8d296079463b5f714e2ccb6c81adad397c9e26c3d",
        "chain.max_ratio": "0x1.43ef352411967p-3",
    },
    "selfadjoint-16-20": {
        "sector.sup_value": "0x1.07b638dbc825fp+0",
        "sector.argmax_re": "-0x1.5c297c6b54afcp+0",
        "sector.argmax_im": "0x1.5ff62551e5ac0p+2",
        "sector.passed": True,
        "sector.n_sampled": 2048,
        "sector.n_skipped": 0,
        "sector.theta_recommended": "0x1.e33d4ebc1dd4fp-3",
        "convexity.n_trials": 272,
        "convexity.criterion_fraction": "0x1.0000000000000p+0",
        "convexity.logconvex_fraction": "0x1.0000000000000p+0",
        "convexity.min_margin": "-0x1.e5f41832178c0p-51",
        "convexity.min_second_divdiff": "-0x1.6c85cd718ff0fp-31",
        "convexity.forward_implication_observed": True,
        "chain.ratios_sha256": "6c7e5d9893f3e64738927d03bbd2092e56933cdd68e84b239ff3c514a1f9a6b3",
        "chain.max_ratio": "0x1.7bd13fb1f10e5p-4",
    },
    "selfadjoint-64-65": {
        "sector.sup_value": "0x1.07b6455f11797p+0",
        "sector.argmax_re": "-0x1.67249872fcdb4p+0",
        "sector.argmax_im": "-0x1.6b0feebdea11ep+2",
        "sector.passed": True,
        "sector.n_sampled": 2048,
        "sector.n_skipped": 0,
        "sector.theta_recommended": "0x1.807b0d6d8955cp-3",
        "convexity.n_trials": 320,
        "convexity.criterion_fraction": "0x1.0000000000000p+0",
        "convexity.logconvex_fraction": "0x1.0000000000000p+0",
        "convexity.min_margin": "-0x1.5684c28b327abp-50",
        "convexity.min_second_divdiff": "-0x1.c17173f40fe7cp-26",
        "convexity.forward_implication_observed": True,
        "chain.ratios_sha256": "5d3e736898a2c2246962eba15991b09851bd8fb53bbb1563325c5b7240907f90",
        "chain.max_ratio": "0x1.441def45f5032p-4",
    },
    "jordan": {
        "sector.sup_value": "0x1.a5514eb871213p+2",
        "sector.argmax_re": "-0x1.abfc59e88df2ep-3",
        "sector.argmax_im": "0x1.b0a803a8a9c32p-1",
        "sector.passed": True,
        "sector.n_sampled": 2048,
        "sector.n_skipped": 0,
        "sector.theta_recommended": "0x0.0p+0",
        "convexity.n_trials": 258,
        "convexity.criterion_fraction": "0x1.9ec27b09ec27bp-1",
        "convexity.logconvex_fraction": "0x1.fc07f01fc07f0p-8",
        "convexity.min_margin": "-0x1.df40797b218ccp-4",
        "convexity.min_second_divdiff": "-0x1.8c6bf62a85ebcp+3",
        "convexity.forward_implication_observed": False,
        "chain.ratios_sha256": "c57e63d13318ea3a81cca8695194213762e08ac68ab8d5740d44777ceacfe13b",
        "chain.max_ratio": "0x1.4bcdc50ed6be6p-2",
    },
}
CRITERION_9_CONVEXITY = {
    "convexity.n_trials": 1006,
    "convexity.criterion_fraction": "0x1.0000000000000p+0",
    "convexity.logconvex_fraction": "0x1.0000000000000p+0",
    "convexity.min_margin": "-0x1.2791b7ae50baap-52",
    "convexity.min_second_divdiff": "-0x1.a3d8d0fac6875p-36",
    "convexity.forward_implication_observed": True,
}
CLI_STDOUT_SHA256 = "f78a985f3058979369f592617de1eac2a8a77835792a829060d6324726a067d8"


@pytest.mark.parametrize("name", list(GOLDEN))
def test_reports_match_recorded_bits(name):
    assert golden_values(golden_generator(name)) == GOLDEN[name]


def test_criterion_9_convexity_matches_recorded_bits():
    rep = check_logconvexity_criterion(
        random_selfadjoint(6, seed=11), trials=1000, seed=3, times=np.linspace(0.1, 5.0, 33)
    )
    assert _convexity_values(rep) == CRITERION_9_CONVEXITY


def test_generator_lab_stdout_matches_recorded_bytes(tmp_path, capsys):
    (tmp_path / "a.mat").write_text(format_matrix(random_elliptic(6, seed=7).a))
    assert cli(["generator-lab", "--matrix", str(tmp_path / "a.mat"), "--seed", "4"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CLI_STDOUT_SHA256


def test_sectoriality_runs_blocked_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    rep = check_sectoriality(random_elliptic(6, seed=1))
    assert rep.n_sampled == 64 * 32
    # the numerical-range bound leaves 24 of the 2048 sample points: blocks
    # of 8 and 16 shifted matrices, where one block of 128 was SVD'd before
    assert sum(shape[0] for shape in calls if len(shape) == 3) <= 24


def test_generator_lab_computes_each_derived_quantity_once(tmp_path, capsys, monkeypatch):
    # ||A||_2 (by norm or by SVD), eig(A), eigvals(A) and the eigenvalues of
    # Herm A are cached on the generator: the whole CLI report computes each once
    (tmp_path / "a.mat").write_text(format_matrix(random_elliptic(8, seed=2).a))
    a = parse_matrix((tmp_path / "a.mat").read_text())
    herm = 0.5 * (a + a.conj().T)
    counts = {"norm2": 0, "eig": 0, "eigvals": 0, "eigvalsh": 0}

    def counting(name, key, target):
        real = getattr(np.linalg, name)

        def call(x, *args, **kwargs):
            x = np.asarray(x)
            is_norm2 = name != "norm" or (args[:1] or (kwargs.get("ord"),)) == (2,)
            if is_norm2 and x.shape == target.shape and np.array_equal(x, target):
                counts[key] += 1
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, call)

    counting("norm", "norm2", a)
    counting("svd", "norm2", a)
    counting("eig", "eig", a)
    counting("eigvals", "eigvals", a)
    counting("eigvalsh", "eigvalsh", herm)
    assert cli(["generator-lab", "--matrix", str(tmp_path / "a.mat"), "--seed", "4"]) == 0
    capsys.readouterr()
    assert counts == {"norm2": 1, "eig": 1, "eigvals": 1, "eigvalsh": 1}


def _exhaustive_sectoriality(gen):
    """The sector scan with its own SVD at every sample point: the sample
    points, their scaled resolvents and the report of the full grid.  It
    keeps the vertex omega = 0 in the arithmetic, as |lam - omega|."""
    omega, theta, bound = 0.0, generator._SECTOR_THETA, generator._SECTOR_BOUND
    a, norm2 = gen.a, gen.norm2
    spectrum = -np.linalg.eigvals(a)
    phis = np.linspace(-(np.pi / 2 + theta), np.pi / 2 + theta, 64 + 2)[1:-1]
    radii = (norm2 if norm2 > 0.0 else 1.0) * np.logspace(-3.0, 3.0, 32)
    lams = (omega + radii * np.exp(1j * phis)[:, None]).ravel()
    skip = np.min(np.abs(lams[:, None] - spectrum), axis=1) <= generator.SPECTRUM_SKIP_RTOL * max(norm2, 1.0)
    lams = lams[~skip]
    eye = np.eye(gen.dim)
    vals = np.array([
        float(np.hypot(lam.real - omega, lam.imag)) / np.linalg.svd(lam * eye + a, compute_uv=False)[-1]
        for lam in lams
    ])
    k = int(np.argmax(vals))
    rep = generator.SectorReport(
        float(vals[k]),
        complex(lams[k]),
        bool(np.isfinite(vals[k]) and vals[k] <= bound),
        lams.size,
        int(np.count_nonzero(skip)),
        float(np.arctan2(max(gen.decay_rate, 0.0), norm2)),
    )
    return rep, lams, vals


def _sector_hex(rep):
    return (
        _hex(rep.sup_value), _hex(rep.argmax_lambda.real), _hex(rep.argmax_lambda.imag),
        rep.passed, rep.n_sampled, rep.n_skipped, _hex(rep.theta_recommended),
    )


def _sector_test_generator(kind, dim, seed):
    if kind == "elliptic":
        return random_elliptic(dim, seed=seed)
    if kind == "selfadjoint":
        return random_selfadjoint(dim, seed=seed)
    if kind == "nonnormal":
        return random_elliptic(dim, seed=seed, skew_scale=[10.0, 1e3][seed % 2])
    if kind == "jordan":
        return MatrixGenerator(np.eye(dim) + 10.0 * np.eye(dim, k=1))
    if kind == "zero":
        return MatrixGenerator(np.zeros((dim, dim)))
    return MatrixGenerator(np.diag([float(kind)] + [1.0] * (dim - 1)))


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["elliptic", "selfadjoint", "nonnormal", "jordan", "zero", "1e10", "-1e10"]),
    dim=st.integers(1, 16),
    seed=st.integers(0, 2**16),
)
def test_pruned_sectoriality_equals_the_exhaustive_scan(kind, dim, seed):
    gen = _sector_test_generator(kind, dim, seed)
    want, lams, vals = _exhaustive_sectoriality(gen)
    # the numerical-range bound holds at every sample point ...
    bound = generator._fov_bounds(gen.a, gen.norm2, lams, np.hypot(lams.real, lams.imag))
    assert np.all(vals <= bound)
    # ... so the points it skips leave every report field as it was
    assert _sector_hex(check_sectoriality(gen)) == _sector_hex(want)


def test_stacked_margins_equal_the_per_vector_formula():
    # Python's float ** 2 and numpy's x * x differ in the last bit on about
    # one square in a thousand; on these 10000 vectors x * x would move a
    # dozen margins
    a = random_elliptic(2, seed=12).a
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((10000, 2)) + 1j * rng.standard_normal((10000, 2))
    xs /= np.linalg.norm(xs, axis=1)[:, None]
    want = []
    for x in xs:
        ax = a @ x
        lhs = 2.0 * float(np.real(np.vdot(x, ax))) ** 2
        rhs = float(np.real(np.vdot(x, a @ ax))) + float(np.real(np.vdot(ax, ax)))
        want.append((rhs - lhs) / 7.0)
    assert generator._criterion_margins(a, xs, 7.0).tobytes() == np.array(want).tobytes()


def test_logconvexity_memory_does_not_scale_with_times():
    gen = random_elliptic(16, seed=3)
    check_logconvexity_criterion(gen, trials=4)  # one-time set-up stays outside the trace
    trials = 20000
    tracemalloc.start()
    try:
        rep = check_logconvexity_criterion(gen, trials=trials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.n_trials == trials + 16
    xs_bytes = rep.n_trials * 16 * np.dtype(complex).itemsize
    assert peak < 3 * xs_bytes


def _per_time_profile(gen, xs, ts):
    """The log profile one time at a time and one product per time, as
    _log_profile evaluated it before its passes over time: the reference
    that every pass size must reproduce."""
    values = exp_semigroup(gen, ts)
    d, norm_a = gen.dim, gen.norm2
    eps = np.finfo(float).eps
    divdiffs = np.full(len(xs), np.inf)
    slack = np.full(len(xs), np.inf)
    lh = err = d1 = g1 = None
    for j, t in enumerate(ts):
        h = generator._norms(generator._apply(values[j], xs))
        if np.any(h == 0.0):
            raise InvalidSpecError(f"|e^{{-tA}} x| underflows to 0 at t = {t:g}: its logarithm is undefined")
        lh_prev, lh = lh, np.log(h)
        with np.errstate(over="ignore"):
            err_prev, err = err, 8.0 * eps * ((d + abs(t) * norm_a) * np.linalg.norm(values[j]) / h + np.abs(lh))
        if j >= 1:
            step = ts[j] - ts[j - 1]
            d1_prev, d1 = d1, (lh - lh_prev) / step
            g1_prev, g1 = g1, (err + err_prev) / step
        if j >= 2:
            dd = 2.0 * (d1 - d1_prev) / (ts[j] - ts[j - 2])
            with np.errstate(over="ignore", invalid="ignore"):
                floor = 2.0 * (g1 + g1_prev) / (ts[j] - ts[j - 2])
                np.fmin(slack, dd / floor, out=slack)
            np.minimum(divdiffs, dd, out=divdiffs)
    return divdiffs, slack


def _profile_outcome(profile, gen, xs, ts):
    """The profile's arrays as bytes, or the refusal's message."""
    try:
        return tuple(x.tobytes() for x in profile(gen, xs, ts))
    except InvalidSpecError as exc:
        return str(exc)


def _profile_test_generator(kind, dim, seed):
    if kind == "diag":
        # the largest entry at 60 sends some profiles under float64 range
        # within the drawn times, the negative one grows them
        return MatrixGenerator(np.diag([[-3.0, 0.5, 60.0][seed % 3]] + [1.0] * (dim - 1)))
    if kind == "nonnormal":
        return random_elliptic(dim, seed=seed, skew_scale=1e3)
    return _sector_test_generator(kind, dim, seed)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["elliptic", "selfadjoint", "nonnormal", "jordan", "zero", "diag"]),
    dim=st.integers(1, 16),
    seed=st.integers(0, 2**16),
    trials=st.integers(1, 64),
    start=st.floats(-2.0, 1.0),
    gaps=st.lists(st.floats(1e-3, 0.5), min_size=2, max_size=39),
    per_pass=st.sampled_from(["one", "some", "all"]),
    data=st.data(),
)
def test_profile_passes_equal_the_per_time_loop(kind, dim, seed, trials, start, gaps, per_pass, data):
    gen = _profile_test_generator(kind, dim, seed)
    ts = start + np.concatenate([[0.0], np.cumsum(gaps)])
    assert np.all(np.diff(ts) > 0)
    xs = generator._convexity_samples(gen, trials, seed)
    # the budget that makes one pass hold one time, some of them or all
    if per_pass == "one":
        budget = data.draw(st.integers(1, 2 * xs.size - 1))
    else:
        times = len(ts) if per_pass == "all" else data.draw(st.integers(2, len(ts) - 1))
        budget = times * xs.size + data.draw(st.integers(0, xs.size - 1))
    with mock.patch.object(generator, "_BUDGET", budget):
        got = _profile_outcome(generator._log_profile, gen, xs, ts)
    assert got == _profile_outcome(_per_time_profile, gen, xs, ts)


def test_underflow_in_a_later_pass_names_its_first_time():
    # the squared norm of e^{-1000 t} x underflows from t = 0.464, the 17th
    # default time; 5,001 samples of d = 1 leave room for 13 times a pass,
    # so it falls in the second
    gen = MatrixGenerator([[1e3]])
    ts = np.geomspace(1e-3, 10.0, 25)
    xs = generator._convexity_samples(gen, 5000, 0)
    assert generator._BUDGET // xs.size < 16 < len(ts)
    want = _profile_outcome(_per_time_profile, gen, xs, ts)
    assert want == "|e^{-tA} x| underflows to 0 at t = 0.464159: its logarithm is undefined"
    assert _profile_outcome(generator._log_profile, gen, xs, ts) == want
    with pytest.raises(InvalidSpecError, match=r"^\|e\^\{-tA\} x\| underflows to 0 at t = 0\.464159:"):
        check_logconvexity_criterion(gen, trials=5000)

