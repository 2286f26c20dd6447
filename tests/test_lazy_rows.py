"""A trajectory joins its rows when they are read, with the bits of the full join.

`duhamel.Trajectory` keeps a private copy of u(0) and the march of its
forcing, and joins its phase/logmag arrays on first read.  A state read
before them joins its row alone (the row at the march's first node is u(0)
itself): `_linear_entries` decides each entry from that entry alone, so
that row has the bits of the same row of the full arrays, on the linear
path and on the log path, in modes the march scaled by a power of two, on
pure decay and on a kept yield march.  A certified backward solve reads
u(0) and the T row only, so it joins one row; and writes into the caller's
u0 after a solve reach no row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatfvp import boundary as bd
from heatfvp import duhamel as dh
from heatfvp import fvp
from heatfvp.logspace import LOG_MAX
from heatfvp.spectral import DomainSpec, SpectralVec, build_basis


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _same_state(vec, phase, logmag):
    return bits(vec.phase).tobytes() == bits(phase).tobytes() and bits(vec.logmag).tobytes() == bits(logmag).tobytes()


FORCINGS = ["decay", "source", "scaled", "lift", "kept"]


def _case(n, seed, start, forcing, nodes):
    """(solve, march): a forward solve to call again and again, and the
    kept yield march it must reuse (None but for "kept").

    u0 mixes ordinary modes, modes whose decayed log magnitude crosses or
    stays past LOG_MAX - 1 and modes below the log of the smallest normal
    float64; the source has zero modes, whose entries below that log take
    the log path, and for "scaled" modes past 2^512 or below 2^-969, which
    the march scales by a power of two."""
    rng = np.random.default_rng([n, seed])
    basis = build_basis(DomainSpec("interval", (float(rng.uniform(0.5, 4.0)),), n))
    lam = basis.lambdas
    T = float(rng.uniform(0.01, 2.0)) / float(lam[0])
    kind = rng.integers(0, 4, n)
    logmag = np.choose(kind, [rng.normal(0.0, 3.0, n),
                              LOG_MAX - 1.0 + rng.uniform(0.0, 1.0, n) * T * lam,
                              LOG_MAX + 1.0 + T * lam,
                              dh._LOG_TINY + rng.uniform(-2.0, 1.0, n) * T * lam - 1.0])
    phase = rng.choice([-1.0, 1.0], n)
    zero = rng.random(n) < 0.1
    phase[zero], logmag[zero] = 0.0, -np.inf
    u0 = SpectralVec(basis, phase, logmag)
    src_times = np.sort(np.concatenate([[0.0, T], rng.uniform(0.0, T, int(rng.integers(0, 5)))]))
    f = lift = march = None
    if forcing in ("source", "scaled", "kept"):
        coeffs = rng.standard_normal((src_times.size, n))
        if forcing == "scaled":
            coeffs *= np.ldexp(1.0, rng.choice([0, 600, -1000], n))
        coeffs[:, rng.random(n) < 0.3] = 0.0
        f = dh.SourceTerm(basis, src_times, coeffs)
    if forcing == "lift":
        lift = bd.LiftPath(bd.BoundaryData(src_times, rng.uniform(-1.0, 1.0, (src_times.size, 2))), basis)
    if forcing == "kept":
        _, march = dh._yield(basis, f, None, T)
        # nodes of the yield grid that end at T, so the march is reused
        inner = march.times[1:-1]
        ts = np.append(np.sort(rng.choice(inner, min(nodes - 1, inner.size), replace=False)), T)
        if start == "zero":
            ts = np.union1d([0.0], ts)
    else:
        t0 = 0.0 if start == "zero" else float(rng.uniform(0.0, 0.5)) * T
        ts = np.unique(np.concatenate([[t0, T], rng.uniform(t0, T, nodes)]))[:nodes]
    return (lambda: dh.solve_cauchy(u0, f, ts, lift=lift, march=march)), march


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 3, 16, 40]), st.integers(0, 2 ** 32 - 1), st.sampled_from(["zero", "later"]),
       st.sampled_from(FORCINGS), st.integers(1, 12))
def test_a_row_read_alone_is_the_row_of_the_full_arrays(n, seed, start, forcing, nodes):
    solve, march = _case(n, seed, start, forcing, nodes)
    traj = solve()
    if march is not None:
        assert traj._march.w is march.w
    alone = [traj._state(k) for k in range(traj.times.size)]
    ends = traj.initial_state, traj.final_state
    assert "_rows" not in traj.__dict__
    phase, logmag = traj.phase, traj.logmag
    assert traj._march is None  # every row is built: the march is dropped
    full = solve()
    assert bits(full.phase).tobytes() == bits(phase).tobytes()
    assert bits(full.logmag).tobytes() == bits(logmag).tobytes()
    for k, vec in enumerate(alone):
        assert _same_state(vec, phase[k], logmag[k])
        assert _same_state(traj._state(k), phase[k], logmag[k])
    assert _same_state(ends[0], phase[0], logmag[0]) and _same_state(ends[1], phase[-1], logmag[-1])
    assert _same_state(full.initial_state, phase[0], logmag[0])
    assert _same_state(full.final_state, phase[-1], logmag[-1])
    if start == "zero":
        u0 = traj._u0
        assert _same_state(u0, phase[0], logmag[0])


def _certified_source_case(n):
    """Forward-manufactured source data with a certified backward solve:
    (f, u_T, T)."""
    basis = build_basis(DomainSpec("interval", (np.pi,), n))
    rng = np.random.default_rng(n)
    j = np.arange(1, n + 1, dtype=float)
    T = 0.05 * (16 / n) ** 2
    u0 = SpectralVec.from_coefficients(basis, rng.choice([-1.0, 1.0], n) * np.exp(-2.2 * j))
    f = dh.SourceTerm(basis, np.linspace(0.0, T, 9), rng.uniform(0.5, 1.0, (9, 1)) * np.exp(-1.2 * T * basis.lambdas))
    return f, dh.solve_cauchy(u0, f, np.array([0.0, T])).final_state, T


READERS = {
    "phase": lambda traj: traj.phase,
    "logmag": lambda traj: traj.logmag,
    "norm": dh.solution_norm,
    "csv": lambda traj: traj.to_csv(),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("n", [16, 256])
def test_a_certified_backward_solve_joins_one_row(n, reader, monkeypatch):
    f, uT, T = _certified_source_case(n)
    shapes = []
    real = dh._join

    def counting(u0, part, pick):
        out = real(u0, part, pick)
        shapes.append(out[1].shape)
        return out

    monkeypatch.setattr(dh, "_join", counting)
    sol = fvp.solve_final_value(fvp.FinalValueData(f, uT, T))
    traj = sol.trajectory
    assert sol.compat.verdict == "compatible" and sol.endpoint_rel_error <= 1e-10
    assert traj.initial_state is traj._u0  # u(0) is the first row as it is
    # the endpoint check joined the T row, and nothing else is built
    assert shapes == [(1, n)] and "_rows" not in traj.__dict__
    READERS[reader](traj)
    assert shapes == [(1, n), (traj.times.size, n)] and traj.times.size > 2


@pytest.mark.parametrize("forcing", ["decay", "source", "lift"])
def test_writes_into_u0_after_the_solve_reach_no_row(basis16, forcing):
    rng = np.random.default_rng(8)
    u0 = SpectralVec.from_coefficients(basis16, rng.standard_normal(16))
    f = dh.SourceTerm(basis16, np.array([0.0, 0.5, 1.0]), rng.standard_normal((3, 16))) if forcing == "source" else None
    lift = bd.LiftPath(bd.BoundaryData.constant(1.0, -1.0, 1.0), basis16) if forcing == "lift" else None
    ts = np.linspace(0.0, 1.0, 9)
    want = dh.solve_cauchy(SpectralVec(basis16, u0.phase.copy(), u0.logmag.copy()), f, ts, lift=lift)
    trajs = [dh.solve_cauchy(u0, f, ts, lift=lift) for _ in range(2)]
    u0.phase *= -1.0
    u0.logmag += 1.0
    lazy, full = trajs
    phase, logmag = full.phase, full.logmag
    for traj in trajs:
        assert _same_state(traj.initial_state, want.phase[0], want.logmag[0])
        assert _same_state(traj.final_state, want.phase[-1], want.logmag[-1])
    assert bits(phase).tobytes() == bits(want.phase).tobytes() == bits(lazy.phase).tobytes()
    assert bits(logmag).tobytes() == bits(want.logmag).tobytes() == bits(lazy.logmag).tobytes()
