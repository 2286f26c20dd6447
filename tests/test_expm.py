"""exp_semigroup's Pade-13 scaling and squaring against a 50-digit mpmath
reference and scipy's expm, and its stacked evaluation against the scalar
one."""

import functools

import mpmath
import numpy as np
import pytest

from heatfvp.generator import MatrixGenerator, exp_semigroup
from heatfvp.logspace import InvalidSpecError

from conftest import golden_generator

EPS = np.finfo(float).eps
TIMES = (1e-3, 0.1, 1.0, 10.0, -1.0)
# a 50-digit mpmath expm takes about 0.1 s at d = 6, 1 s at d = 16 and
# minutes at d = 64: the larger goldens are held to scipy's expm instead
MPMATH_GENERATORS = ["elliptic-2-12", "elliptic-6-13", "selfadjoint-2-5", "selfadjoint-6-10",
                     "jordan", "diag(1e10,1)"]
SCIPY_GENERATORS = ["elliptic-16-18", "elliptic-64-64", "selfadjoint-16-20", "selfadjoint-64-65"]


def _scipy_expm():
    """scipy's expm, or a skip where scipy is not installed: the runtime
    needs numpy only, and the tests without a scipy comparison still run."""
    return pytest.importorskip("scipy.linalg").expm


def _bound(gen, t):
    """16 eps (1 + ||tA||_1): rounding in units of the norm scaled and squared."""
    return 16.0 * EPS * (1.0 + np.abs(t * gen.a).sum(axis=0).max())


def _rel(x, ref):
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


@functools.lru_cache(maxsize=None)
def _reference(name):
    """e^{-tA} at every time of TIMES to 50 digits, rounded to complex128:
    the exponential of each diagonal entry for a diagonal A, mpmath's expm
    of the exact product -tA for any other."""
    gen = golden_generator(name)
    out = {}
    with mpmath.workdps(50):
        a = mpmath.matrix(gen.a.tolist())
        for t in TIMES:
            if name.startswith("diag("):
                e = mpmath.diag([mpmath.exp(-mpmath.mpf(t) * a[i, i]) for i in range(gen.dim)])
            else:
                e = mpmath.expm(-mpmath.mpf(t) * a)
            out[t] = np.array([[complex(e[i, j]) for j in range(gen.dim)] for i in range(gen.dim)])
    return out


@pytest.mark.parametrize("name", MPMATH_GENERATORS)
def test_error_against_a_50_digit_reference(name):
    expm = _scipy_expm()
    gen = golden_generator(name)
    for t, ref in _reference(name).items():
        if not np.isfinite(ref).all():
            # e^{1e10} leaves float64 range: refused, as scipy's is inf
            with pytest.raises(InvalidSpecError, match=f"overflows float64 at t = {t:g}$"):
                exp_semigroup(gen, t)
            continue
        err = _rel(exp_semigroup(gen, t), ref)
        scipy_err = _rel(expm(-t * gen.a), ref)
        assert err <= max(4.0 * scipy_err, _bound(gen, t)), (t, err, scipy_err)


@pytest.mark.parametrize("name", SCIPY_GENERATORS)
def test_larger_goldens_agree_with_scipy(name):
    expm = _scipy_expm()
    gen = golden_generator(name)
    for t in TIMES:
        want = expm(-t * gen.a)
        assert _rel(exp_semigroup(gen, t), want) <= _bound(gen, t), t


@pytest.mark.parametrize("name", ["diag(1e10,1)", "diag(-50,1)", "diag(1+5j,2-3j)", "diag(3)"])
def test_diagonal_generators_take_the_exact_exponential(name):
    # Pade overscaling of diag(1e10, 1) would err by about 4e-6 relative
    gen = golden_generator(name)
    for t in (1e-3, 0.1, 1.0):
        assert np.array_equal(exp_semigroup(gen, t), np.diag(np.exp(-t * np.diag(gen.a))))


@pytest.mark.parametrize("name", MPMATH_GENERATORS[:-1] + SCIPY_GENERATORS + ["diag(-5,1)"])
def test_stacked_values_equal_scalar_calls_bit_for_bit(name):
    gen = golden_generator(name)
    # times whose scalings range from none to several squarings, out of order
    ts = np.array([10.0, 1e-3, 0.0, -1.0, 0.1, 2.5, 1.0])
    stack = exp_semigroup(gen, ts)
    assert stack.shape == (ts.size, gen.dim, gen.dim)
    for k, t in enumerate(ts):
        assert stack[k].tobytes() == exp_semigroup(gen, t).tobytes(), t


def test_overflow_names_the_first_time_past_range():
    # e^{1000 t} passes float64 range between t = 0.5 and t = 1
    gen = MatrixGenerator([[-1000.0, 1.0], [0.0, -1.0]])
    assert np.isfinite(exp_semigroup(gen, 0.5)).all()
    with pytest.raises(InvalidSpecError, match=r"^e\^\{-tA\} overflows float64 at t = 1$"):
        exp_semigroup(gen, [0.25, 0.5, 1.0, 2.0])


def test_times_must_be_scalar_or_one_dimensional():
    with pytest.raises(InvalidSpecError):
        exp_semigroup(MatrixGenerator([[1.0]]), [[0.1, 0.2]])


@pytest.mark.parametrize("name", ["diag(1,2)", "elliptic-2-12"])
@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan, [0.5, np.inf, np.nan]])
def test_times_that_are_not_finite_are_refused(name, t):
    # refused before any arithmetic: no -inf * 0 is formed, so no warning
    # (an error under this suite's filter) precedes the refusal
    bad = np.atleast_1d(t)[~np.isfinite(np.atleast_1d(t))][0]
    with pytest.raises(InvalidSpecError, match=rf"^e\^\{{-tA\}} needs finite times, not t = {bad:g}$"):
        exp_semigroup(golden_generator(name), t)
