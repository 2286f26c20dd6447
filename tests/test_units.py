"""Answers that do not depend on units.

Final data are admissible through the products T lambda_j alone, so the heat
problem on (0, L) up to T is unchanged by x -> s x, t -> s^2 t.  With
s = 2^(k/2) and even k every float the solver forms scales by a power of two,
so verdicts, ladders and states agree bit for bit.  The generator probes are
unchanged by A -> 2^k A in the same way, with the probe times scaled by 2^-k.
"""

import numpy as np
import pytest

from heatfvp import boundary as bd
from heatfvp import duhamel as dh
from heatfvp import generator as gl
from heatfvp.spectral import DomainSpec, InvalidSpecError, SpectralVec, build_basis

HEAT_KS = (-20, -10, 10)
LAB_KS = (-60, -40, -20, 20)
# past these, ||2^k A||^2 leaves float64 range, and only the classification is compared
FLAG_KS = (-600, 600)


def _f_only():
    """Acceptance criterion 2's data of its first draw: N = 64, T = 1."""
    basis = build_basis(DomainSpec("interval", (np.pi,), 64))
    j = np.arange(1, 65)
    rng = np.random.default_rng(0)
    u0 = SpectralVec.from_coefficients(basis, rng.uniform(0.5, 1.0, 64) * rng.choice([-1.0, 1.0], 64) * np.exp(-j))
    ts = np.linspace(0.0, 1.0, 5)
    fc = rng.choice([-1.0, 1.0], 64) * np.exp(-1.2 * basis.lambdas)
    f = dh.SourceTerm(basis, ts, np.outer(rng.uniform(0.5, 1.0, 5), fc))
    return f, None, dh.solve_cauchy(u0, f, ts).final_state, 1.0


def _with_g():
    """A source and boundary data at N = 16, T = 0.05."""
    basis = build_basis(DomainSpec("interval", (np.pi,), 16))
    rng = np.random.default_rng(42)
    u0 = SpectralVec.from_coefficients(basis, rng.choice([-1.0, 1.0], 16) * np.exp(-2.2 * np.arange(1, 17)))
    T = 0.05
    ts = np.linspace(0.0, T, 9)
    fc = rng.choice([-1.0, 1.0], 16) * np.exp(-1.2 * T * basis.lambdas)
    f = dh.SourceTerm(basis, ts, np.outer(np.linspace(1.0, 0.5, 9), fc))
    g = bd.BoundaryData(np.array([0.0, T / 2, T]), np.array([[0.0, 0.0], [0.8, -0.5], [0.3, 0.2]]))
    return f, g, bd.solve_ibvp(u0, f, g, ts).final_state, T


def _in_units(problem, k):
    """(L, T, f, g) -> (2^k L, 4^k T, 4^-k f, 2^(-k/2) g), u_T's coefficients kept."""
    f, g, u_T, T = problem
    basis = u_T.basis
    scaled = build_basis(DomainSpec("interval", (basis.spec.lengths[0] * 2.0 ** k,), basis.n_modes))
    s2 = 4.0 ** k
    f = None if f is None else dh.SourceTerm(scaled, f.times * s2, f.coeffs / s2)
    g = None if g is None else bd.BoundaryData(g.times * s2, g.values * 2.0 ** (-k / 2))
    return f, g, SpectralVec(scaled, u_T.phase, u_T.logmag), T * s2


def _solve(problem):
    """The backward solve's answer as comparable values, or its refusal."""
    try:
        sol = bd.solve_final_value_inhom(*problem)
    except InvalidSpecError as exc:
        return str(exc)
    y = sol.ynorm
    return {
        "verdict": sol.compat.verdict,
        "log_graph_norms": sol.compat.log_graph_norms,
        "u0_logmag": sol.trajectory.initial_state.logmag.tobytes(),
        "endpoint_rel_error": sol.endpoint_rel_error,
        "ynorm": (y.uT_sq, y.source_sq, y.log_backward_sq, y.finite),
        # the surrogate weights the k-th cosine coefficient by the index k,
        # not by the frequency pi k / T: the one part that changes with units
        "trace_sq": y.trace_sq,
        "log_total": y.log_total,
    }


@pytest.mark.parametrize("k", HEAT_KS)
@pytest.mark.parametrize("make", [_f_only, _with_g], ids=["f-N64", "fg-N16"])
def test_backward_solve_in_any_units(make, k):
    problem = make()
    want, got = _solve(problem), _solve(_in_units(problem, k))
    assert want["verdict"] == "compatible"
    if problem[1] is not None:
        # trace_sq scales by 2^-k with g^2, and log_total with it
        assert got.pop("trace_sq") != want.pop("trace_sq")
        assert got.pop("log_total") != want.pop("log_total")
    assert got == want


@pytest.mark.parametrize("k", HEAT_KS)
@pytest.mark.parametrize("short", [0.1, 1e-11, 1e-13])
def test_source_short_of_T_in_any_units(short, k):
    # a source that ends short of T by more than 1e-12 T is refused, in any units
    f, _, u_T, T = _f_only()
    problem = (dh.SourceTerm(f.basis, f.times * (1.0 - short), f.coeffs), None, u_T, T)
    want = _solve(problem)
    if short > 1e-12:
        assert want == "source grid must cover [0, T]"
    else:
        assert want["verdict"] == "compatible"
    assert _solve(_in_units(problem, k)) == want


LAB_MATRICES = {
    "elliptic-4-5": lambda: gl.random_elliptic(4, seed=5).a,
    "selfadjoint-3-2": lambda: gl.random_selfadjoint(3, seed=2).a,
    "jordan-1": lambda: np.array([[1.0, 1.0], [0.0, 1.0]]),
    "triangular": lambda: np.array([[2.0, 1.0], [0.0, 3.0]]),
}


def _flags(a, k):
    c = gl.MatrixGenerator(a * 2.0 ** k).classify()
    return c.selfadjoint, c.normal, c.hyponormal, c.elliptic


def _lab(a, k):
    """Classification flags, sector report and criterion of 2^k A, the
    argmax and the probe times scaled back to the units of A."""
    gen = gl.MatrixGenerator(a * 2.0 ** k)
    sec = gl.check_sectoriality(gen)
    conv = gl.check_logconvexity_criterion(gen, times=np.geomspace(1e-3, 10.0, 25) * 2.0 ** -k)
    return {
        "flags": _flags(a, k),
        "sector": (sec.sup_value, sec.passed, sec.n_sampled, sec.n_skipped, sec.theta_recommended),
        "argmax": sec.argmax_lambda / 2.0 ** k,
        "criterion": (conv.criterion_fraction, conv.logconvex_fraction, conv.min_margin),
    }


@pytest.mark.parametrize("k", LAB_KS + FLAG_KS)
@pytest.mark.parametrize("name", LAB_MATRICES)
def test_generator_lab_in_any_units(name, k):
    a = LAB_MATRICES[name]()
    if k in FLAG_KS:
        assert _flags(a, k) == _flags(a, 0)
    else:
        assert _lab(a, k) == _lab(a, 0)
