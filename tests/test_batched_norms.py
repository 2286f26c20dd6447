"""Row-wise sums and the array pass over trajectory nodes.

Every stacked result must equal the one-row computation bit for bit, and
the trajectory norms must keep their recorded values.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from heatfvp import boundary as bd
from heatfvp import duhamel as dh
from heatfvp import logspace
from heatfvp import spectral as sp
from heatfvp.logspace import LOG_MAX, log_sum_exp, merge_phase
from heatfvp.spectral import DomainSpec, SpectralVec, _stacked_norms, build_basis, triple_norms

from conftest import unit_state, zero_source


def bits(values):
    return [float(v).hex() for v in np.ravel(values)]


# -- stacked sums ---------------------------------------------------------

ENTRIES = st.one_of(
    st.floats(-1e300, 1e300),
    st.floats(-800.0, 800.0),
    st.sampled_from([0.0, -0.0, -np.inf, np.inf, LOG_MAX, LOG_MAX + 1.0, 1e-320]),
)


SHAPES = st.tuples(st.integers(1, 48), st.integers(0, 12))


@st.composite
def stacks(draw):
    """Stacks of 1 to 48 rows; some rows are overwritten with -inf, zeros, a
    suffix of zeros, values past LOG_MAX, or one +inf."""
    a = draw(arrays(np.float64, SHAPES, elements=ENTRIES)).copy()
    for i in range(a.shape[0]):
        kind = draw(st.sampled_from(["keep", "keep", "neg-inf", "zero", "zero-tail", "past-log-max", "pos-inf"]))
        if kind == "neg-inf":
            a[i] = -np.inf
        elif kind == "pos-inf" and a.shape[1]:
            a[i, draw(st.integers(0, a.shape[1] - 1))] = np.inf
        elif kind == "zero":
            a[i] = 0.0
        elif kind == "zero-tail":
            a[i, draw(st.integers(0, a.shape[1])):] = 0.0
        elif kind == "past-log-max":
            a[i] = LOG_MAX + 1.0 + np.arange(a.shape[1])
    return a


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_stacked_log_sum_exp_rows_equal_1d_calls(a):
    with np.errstate(invalid="ignore", over="ignore"):
        got = log_sum_exp(a)
        want = [log_sum_exp(row) for row in a]
    assert got.shape == (a.shape[0],)
    assert bits(got) == bits(want)
    # a row holding +inf sums to +inf, never to NaN
    has_inf = np.any(a == np.inf, axis=1)
    assert np.all(got[has_inf] == np.inf)


def test_log_sum_exp_of_a_positive_infinity_is_infinite():
    with np.errstate(all="raise"):
        assert log_sum_exp(np.array([np.inf, 0.0])) == np.inf
        assert log_sum_exp(np.array([[np.inf, 0.0], [0.0, -np.inf]])).tolist() == [np.inf, 0.0]


def test_1d_sums_return_python_floats():
    assert type(log_sum_exp(np.arange(4.0))) is float


def test_stacked_sums_keep_leading_axes():
    a = np.random.default_rng(0).standard_normal((3, 40, 7))
    assert bits(log_sum_exp(a)) == bits([log_sum_exp(r) for r in a.reshape(-1, 7)])
    assert log_sum_exp(a).shape == (3, 40)
    assert log_sum_exp(np.zeros((5, 0))).tolist() == [-np.inf] * 5


# -- stacked norms --------------------------------------------------------

@pytest.fixture(scope="module")
def basis16():
    return build_basis(DomainSpec("interval", (np.pi,), 16))


@pytest.mark.parametrize("rows", [1, 5, 40])
def test_stacked_norms_rows_equal_triple_norms(basis16, rows):
    rng = np.random.default_rng(rows)
    phase = np.where(rng.uniform(0, 2 * np.pi, (rows, 16)) < np.pi, 1.0, -1.0)
    logmag = rng.uniform(-40.0, 2.0, (rows, 16))
    logmag[0, 3] = -np.inf
    phase[0, 3] = 0.0
    if rows > 1:
        logmag[1] = 800.0  # past float range: the log path and an inf mirror
        logmag[-1] = 360.0  # in range, but a squared term would overflow
    table = _stacked_norms(basis16, merge_phase(phase, logmag), logmag)
    for i in range(rows):
        assert table.row(i) == triple_norms(SpectralVec(basis16, phase[i], logmag[i]))
    if rows > 1:
        # both rows took the log path: the linear sums would read inf
        assert np.isinf(table.normH[1]) and np.isfinite(table.log_normH[1])
        assert np.isfinite(table.normV[-1])


def test_node_norms_equal_triple_norms_including_overflow(basis16):
    # mode 1 starts past the linear range and decays back into it
    u0 = SpectralVec(basis16, np.ones(16), np.concatenate([[400.0], np.full(15, -1.0)]))
    traj = dh.solve_cauchy(u0, None, np.linspace(0.0, 120.0, 61))
    norms = traj.node_norms
    rows = [norms.row(i) for i in range(traj.times.size)]
    assert rows == [triple_norms(SpectralVec(basis16, p, l)) for p, l in zip(traj.phase, traj.logmag)]
    # the first node's squared top term leaves float64 range, the last node's does not
    assert 2.0 * traj.logmag[0].max() > LOG_MAX > 2.0 * traj.logmag[-1].max()


@pytest.mark.parametrize("scale", [1.0, 1e160])
def test_sweep_norms_equal_the_differences_of_states(basis16, scale):
    # the sweep reads its increments and limit gap off one stack of
    # differences; built as states and differenced one by one, they are the
    # same bits, also where the squares leave float64 range (scale 1e160)
    g = bd.BoundaryData(np.array([0.0, 0.3, 1.0]), np.array([[1.0, -0.5], [0.2, 0.7], [-1.0, 0.4]]) * scale)
    rep = bd.boundary_yield_sweep(g, 1.0, basis16)
    traj = bd.solve_ibvp(SpectralVec.zero(basis16), None, g, np.append(1.0 - rep.eps, 1.0))
    ph, lg = traj.phase, traj.logmag
    partials = [SpectralVec(basis16, p, l).scale_log(-e * basis16.lambdas) for p, l, e in zip(ph, lg, rep.eps)]
    diffs = [triple_norms(b - a).normH for a, b in zip(partials[:-1], partials[1:])]
    assert bits(rep.increments) == bits(diffs)
    assert bits(rep.limit_gap) == bits(triple_norms(SpectralVec(basis16, ph[-1], lg[-1]) - partials[-1]).normH)


def test_trajectory_states_are_views_of_read_only_arrays(basis16):
    rng = np.random.default_rng(2)
    u0 = SpectralVec.from_coefficients(basis16, rng.standard_normal(16))
    f = dh.SourceTerm(basis16, np.array([0.0, 0.5, 1.0]), rng.standard_normal((3, 16)))
    traj = dh.solve_cauchy(u0, f, np.linspace(0.0, 1.0, 5))
    assert traj.phase.shape == traj.logmag.shape == (5, 16)
    assert np.shares_memory(traj.initial_state.logmag, traj.logmag[0])
    assert np.shares_memory(traj.final_state.phase, traj.phase[-1])
    with pytest.raises(ValueError):
        traj.final_state.logmag[0] = 0.0
    single = dh.solve_cauchy(u0, f, np.array([1.0]))
    assert single.final_state is single.initial_state
    assert single.logmag.shape == (1, 16)


def test_march_computes_phi_once_per_distinct_step(basis16, monkeypatch):
    seen = []
    real = dh._phi12

    def counting(z):
        seen.append(np.shape(z)[0])
        return real(z)

    monkeypatch.setattr(dh, "_phi12", counting)
    f = zero_source(basis16, 1.0)
    grid = np.linspace(0.0, 1.0, 1001)
    dh.solve_cauchy(unit_state(basis16, 1), f, grid)
    assert seen == [np.unique(np.diff(grid)).size]
    assert seen[0] < 20


@pytest.mark.parametrize("kind", ["source", "boundary", "mixed"])
def test_march_joins_the_two_parts_once(basis16, monkeypatch, kind):
    # an in-range solve joins in linear scale and makes no log-space
    # addition; a solve whose top mode starts past LOG_MAX adds only the
    # entries that do not fit in log space; a yield, a join from the zero
    # state, is in range and makes none.  The rows are joined on first
    # read, so the solve reads them inside the counted window
    calls = []
    real = logspace.logspace_add

    def counting(*args):
        calls.append(np.shape(args[1]))
        return real(*args)

    monkeypatch.setattr(dh, "logspace_add", counting)
    grid = np.linspace(0.0, 1.0, 257)
    f = dh.SourceTerm(basis16, np.array([0.0, 0.3, 1.0]), np.ones((3, 16)))
    u0 = unit_state(basis16, 1)
    if kind == "mixed":
        u0.phase[-1], u0.logmag[-1] = 1.0, 800.0
    if kind == "boundary":
        bd.solve_ibvp(u0, f, bd.BoundaryData.constant(1.0, -1.0, 1.0), grid).phase
    else:
        dh.solve_cauchy(u0, f, grid).phase
    if kind == "mixed":
        past = np.count_nonzero(800.0 - grid * basis16.lambdas[-1] > LOG_MAX - 1.0)
        assert 0 < past < grid.size and calls == [(past,)]
    else:
        assert calls == []
    calls.clear()
    dh.source_yield(f, 0.5)
    assert calls == []


def test_trajectory_is_frozen(basis16):
    # its norms and residual are cached: a lift attached after the solve
    # would leave them stale
    traj = dh.solve_cauchy(unit_state(basis16, 1), None, np.linspace(0.0, 1.0, 5))
    with pytest.raises(dataclasses.FrozenInstanceError):
        traj.lift = bd.LiftPath(bd.BoundaryData.constant(1.0, -1.0, 1.0), basis16)


def _count_calls(monkeypatch, owner, name, where=()):
    """Record the size of the first argument of every call of owner.name,
    also through the names `where` binds it under."""
    calls = []
    real = getattr(owner, name)

    def counting(*args):
        calls.append(np.size(args[1] if isinstance(owner, type) else args[0]))
        return real(*args)

    for target in (owner, *where):
        monkeypatch.setattr(target, name, counting)
    return calls


def _norm_pass_calls(basis, monkeypatch, with_g):
    """The sizes of the f and g samples and the number of merges to linear
    scale in the norm, the energy check and the CSV of one trajectory,
    whose rows are joined before the counts start."""
    rng = np.random.default_rng(4)
    f = dh.SourceTerm(basis, np.array([0.0, 0.4, 1.0]), rng.standard_normal((3, 16)))
    g = bd.BoundaryData(np.array([0.0, 0.5, 1.0]), rng.uniform(-1.0, 1.0, (3, 2))) if with_g else None
    traj = bd.solve_ibvp(unit_state(basis, 1), f, g, np.linspace(0.0, 1.0, 33))
    traj.phase
    f_calls = _count_calls(monkeypatch, dh.SourceTerm, "sample")
    g_calls = _count_calls(monkeypatch, bd.BoundaryData, "sample")
    merges = _count_calls(monkeypatch, logspace, "merge_phase", where=(dh, sp))
    (bd.solution_norm_h1 if with_g else dh.solution_norm)(traj)
    dh.check_energy_estimate(traj)
    traj.to_csv()
    return f_calls, g_calls, len(merges)


def test_boundary_norms_sample_the_source_once(basis16, monkeypatch):
    # the norm, the energy check and the CSV sample neither f nor g: the
    # residual reads f's rows and the lift's (a, b, w) off the march's one
    # sample of each (f's grid ends at T, so the exact dual norm of f
    # samples nothing); the trajectory's linear rows are merged once, and
    # the CSV's phase/log round trip of p merges once more
    assert _norm_pass_calls(basis16, monkeypatch, with_g=True) == ([], [], 2)


def test_norms_without_boundary_data_merge_once(basis16, monkeypatch):
    assert _norm_pass_calls(basis16, monkeypatch, with_g=False) == ([], [], 1)


def test_forward_solve_samples_f_and_g_once_on_the_merged_grid(basis16, monkeypatch):
    # the march samples f and g at every node of its grid, which holds the
    # requested nodes; the trajectory, its norms, its energy check and its
    # CSV read their node values off those samples
    rng = np.random.default_rng(5)
    f = dh.SourceTerm(basis16, np.array([0.0, 0.4, 1.0]), rng.standard_normal((3, 16)))
    g = bd.BoundaryData(np.array([0.0, 0.5, 1.0]), rng.uniform(-1.0, 1.0, (3, 2)))
    lift = bd.LiftPath(g, basis16)  # its construction checks g at g's own nodes
    tgrid = np.linspace(0.0, 1.0, 33)
    merged = dh._merged_grid(f, tgrid, 1.0, g.times)
    f_calls = _count_calls(monkeypatch, dh.SourceTerm, "sample")
    g_calls = _count_calls(monkeypatch, bd.BoundaryData, "sample")
    traj = dh.solve_cauchy(unit_state(basis16, 1), f, tgrid, lift=lift)
    bd.solution_norm_h1(traj)
    dh.check_energy_estimate(traj)
    traj.to_csv()
    assert merged.size > tgrid.size and f_calls == g_calls == [merged.size]


# -- golden values --------------------------------------------------------

def golden_trajectory(n, kind, nodes=129):
    """One seeded forward solve on `nodes` nodes a step 0.4 / lambda_N
    apart: (traj, lifted), where `lifted` is the same solve through
    `solve_ibvp` and carries a lift."""
    basis = build_basis(DomainSpec("interval", (np.pi,), n))
    rng = np.random.default_rng([n, ("source", "boundary", "decay").index(kind)])
    j = np.arange(1, n + 1, dtype=float)
    T = (nodes - 1) * 0.4 / float(basis.lambdas[-1])
    tgrid = np.linspace(0.0, T, nodes)
    u0 = SpectralVec.from_coefficients(basis, rng.standard_normal(n) * np.exp(-0.2 * j))
    f = g = None
    if kind != "decay":
        f = dh.SourceTerm(basis, np.linspace(0.0, T, 5), rng.standard_normal((5, n)) * np.exp(-0.05 * basis.lambdas))
    if kind == "boundary":
        g = bd.BoundaryData(np.array([0.0, T / 3, T]), rng.uniform(-1.0, 1.0, (3, 2)))
    traj = dh.solve_cauchy(u0, f, tgrid) if g is None else bd.solve_ibvp(u0, f, g, tgrid)
    return traj, bd.solve_ibvp(u0, f, g, tgrid)


def golden_values(n, kind):
    """Every norm of one seeded trajectory, as float.hex strings."""
    traj, lifted = golden_trajectory(n, kind)
    f = traj.source
    energy = dh.check_energy_estimate(traj)
    out = {
        "solution_norm": dh.solution_norm(traj),
        "solution_norm_h1": bd.solution_norm_h1(lifted),
        "energy_lhs": energy.energy_lhs,
        "energy_rhs": energy.energy_rhs,
        "sobolev_lhs": energy.sobolev_lhs,
        "sobolev_rhs": energy.sobolev_rhs,
    }
    if f is not None:
        out["source_dual_sq"] = dh.squared_source_dual_norm(f, f.t_final)
        out["source_dual_sq_part"] = dh.squared_source_dual_norm(f, 0.6 * traj.times[-1])
    return {k: float(v).hex() for k, v in out.items()}


# recorded with the per-node implementation (one triple_norms call and one
# compensated sum per node); the source and boundary cases re-recorded when
# the forward march was split into its homogeneous and particular parts
# (tests/test_march_accuracy.py), every case when the compensated sums
# became numpy's sums (tests/test_norm_accuracy.py), the N = 16
# boundary case when the march joined in-range states in linear scale, and
# its energy_lhs and sobolev_rhs (1 ulp each) when the particular part of a
# resolved grid became a chunked scan (tests/test_march_accuracy.py's
# long-grid cases, tests/test_scan.py); the N = 16 decay case (1-2 ulp) and
# one value each of the N = 64 cases (1 ulp) when coefficients became real
# and their signs exact: against a 50-digit reference the N = 16 decay
# values err 0.1-1.2 units of 2^-53 (1.5-2.9 before)
GOLDEN = {
    (16, "source"): {
        "energy_lhs": "0x1.40eae3525691ap-1", "energy_rhs": "0x1.a13519160ee9ep+0",
        "sobolev_lhs": "0x1.8490c6debff1cp+0", "sobolev_rhs": "0x1.24de777be73fcp+2",
        "solution_norm": "0x1.bb7dfacd6c7e5p+0", "solution_norm_h1": "0x1.c1b0a8e68f55ep+0",
        "source_dual_sq": "0x1.ca452374ef81dp-4", "source_dual_sq_part": "0x1.2131d95925cabp-4",
    },
    (16, "boundary"): {
        "energy_lhs": "0x1.b97380a32c554p+0", "energy_rhs": "0x1.105917a824990p+1",
        "sobolev_lhs": "0x1.01376b204b4e7p+1", "sobolev_rhs": "0x1.76de91da3e0c3p+3",
        "solution_norm": "0x1.21db7c9451294p+1", "solution_norm_h1": "0x1.11ecf6f909142p+1",
        "source_dual_sq": "0x1.e43590fb29529p-4", "source_dual_sq_part": "0x1.8256eda609181p-4",
    },
    (16, "decay"): {
        "energy_lhs": "0x1.5affca734e1b9p-1", "energy_rhs": "0x1.2660a9859fbb3p+1",
        "sobolev_lhs": "0x1.2660a9859fbb3p+1", "sobolev_rhs": "0x1.2f9fd124e4582p+2",
        "solution_norm": "0x1.f8c2c1a55064ep+0", "solution_norm_h1": "0x1.04c8ffe08b54ep+1",
    },
    (64, "source"): {
        "energy_lhs": "0x1.b34ea78d8103ep-3", "energy_rhs": "0x1.655ff74a29b7dp+0",
        "sobolev_lhs": "0x1.6015a5c7c53b1p+0", "sobolev_rhs": "0x1.1766eb82ccd11p+4",
        "solution_norm": "0x1.5af97018dddf7p+0", "solution_norm_h1": "0x1.5c4ecac69f976p+0",
        "source_dual_sq": "0x1.529460991f316p-6", "source_dual_sq_part": "0x1.46b12c3c1f16ep-7",
    },
    (64, "boundary"): {
        "energy_lhs": "0x1.0d0c49e547aaap-2", "energy_rhs": "0x1.95a12c705c26dp-1",
        "sobolev_lhs": "0x1.91402fd6e9e62p-1", "sobolev_rhs": "0x1.57d0b51c392bep+4",
        "solution_norm": "0x1.1ec571e5abbbep+0", "solution_norm_h1": "0x1.19c6be3c82231p+0",
        "source_dual_sq": "0x1.183f265c902c7p-7", "source_dual_sq_part": "0x1.e7a0301c7754cp-9",
    },
    (64, "decay"): {
        "energy_lhs": "0x1.705070984d458p-3", "energy_rhs": "0x1.3da5e7d2c8d91p+1",
        "sobolev_lhs": "0x1.3da5e7d2c8d91p+1", "sobolev_rhs": "0x1.d7e7104323010p+3",
        "solution_norm": "0x1.b1472524dc21dp+0", "solution_norm_h1": "0x1.b36be0fa19c59p+0",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: f"N{c[0]}-{c[1]}")
def test_norms_match_recorded_bits(case):
    assert golden_values(*case) == GOLDEN[case]
