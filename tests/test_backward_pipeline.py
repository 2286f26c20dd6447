"""One backward pipeline: the homogeneous, source and boundary solves share
one admissibility check, one data norm and one solution class.

The recorded values below fix every float of a certified solve, so merging
the solvers cannot move a digit.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from heatfvp import boundary as bd
from heatfvp import duhamel as dh
from heatfvp import fvp
from heatfvp import spectral as sp
from heatfvp.spectral import DomainSpec, SpectralVec, build_basis, rel_distance

from conftest import unit_state


def _instance(n, kind, seed=0):
    """Forward-manufactured solvable data: (f, g, u_T, T, tgrid)."""
    basis = build_basis(DomainSpec("interval", (np.pi,), n))
    rng = np.random.default_rng([n, ("decay", "source", "boundary").index(kind), seed])
    j = np.arange(1, n + 1, dtype=float)
    T = 0.05 * (16 / n) ** 2  # the same T * lambda_max at every N
    tgrid = np.linspace(0.0, T, 9)
    u0 = SpectralVec.from_coefficients(basis, rng.choice([-1.0, 1.0], n) * np.exp(-2.2 * j))
    f = g = None
    if kind != "decay":
        fc = rng.choice([-1.0, 1.0], n) * np.exp(-1.2 * T * basis.lambdas)
        f = dh.SourceTerm(basis, tgrid, np.outer(np.linspace(1.0, 0.5, tgrid.size), fc))
    if kind == "boundary":
        g = bd.BoundaryData(np.array([0.0, T / 2, T]), rng.uniform(-1.0, 1.0, (3, 2)))
    traj = bd.solve_ibvp(u0, f, g, tgrid) if g is not None else dh.solve_cauchy(u0, f, tgrid)
    return f, g, traj.final_state, T, tgrid


def _solve(n, kind):
    f, g, uT, T, tgrid = _instance(n, kind)
    return bd.solve_final_value_inhom(f, g, uT, T, tgrid=tgrid)


def golden_values(n, kind):
    """Ladder, data norm, endpoint error and trajectory of one certified
    solve: floats as float.hex strings, the trajectory as a digest."""
    sol = _solve(n, kind)
    out = {
        "log_graph_norms": [float(v).hex() for v in sol.compat.log_graph_norms],
        "stabilization_ratio": float(sol.compat.stabilization_ratio).hex(),
        "endpoint_rel_error": float(sol.endpoint_rel_error).hex(),
        "finite": sol.ynorm.finite,
    }
    for name in ("uT_sq", "trace_sq", "source_sq", "log_backward_sq", "log_total"):
        value = getattr(sol.ynorm, name, None)
        if value is not None:
            out[name] = float(value).hex()
    digest = hashlib.sha256()
    for arr in (sol.trajectory.times, sol.trajectory.phase, sol.trajectory.logmag):
        digest.update(np.ascontiguousarray(arr).tobytes())
    out["trajectory_sha256"] = digest.hexdigest()
    return out


# recorded with the two separate solvers, each of which ran the yields and
# the membership ladder a second time for its data norm; the source and
# boundary cases re-recorded when the forward march was split into its
# homogeneous and particular parts (tests/test_march_accuracy.py), the
# N = 64 source case when the compensated sums became numpy's sums
# (tests/test_norm_accuracy.py), and the source and boundary trajectories,
# endpoint errors and |u_T|^2 of the forward-made u_T when the march joined
# in-range states in linear scale (tests/test_march_accuracy.py); the
# ladder values and stabilization ratios kept their bits.  Every trajectory
# digest and endpoint error re-recorded when coefficients became real: the
# digest hashes the phase bytes, now float64 signs; the decay and N = 16
# source replays land on u_T exactly, and the modes of v below its rounding
# floor cancel to 0; the ladder values, stabilization ratios and data norms
# kept their bits
GOLDEN = {
    (16, "decay"): {
        "log_graph_norms": ["-0x1.18d1ac4025546p+1", "-0x1.18cf3413ef80ap+1", "-0x1.18cf33fb8a267p+1", "-0x1.18cf33fb8a266p+1"],
        "stabilization_ratio": "0x1.00000030cab48p+0",
        "endpoint_rel_error": "0x0.0p+0",
        "finite": True,
        "uT_sq": "0x1.6f5af289c2c64p-7",
        "source_sq": "0x0.0p+0",
        "log_backward_sq": "-0x1.18cf33fb8a266p+2",
        "log_total": "-0x1.df5513602e924p+0",
        "trajectory_sha256": "7a1f1780d38aa4a77c12475312b10f4601386b8ac63f8356adfed2506a9480ad",
    },
    (16, "source"): {
        "log_graph_norms": ["-0x1.18d1ac4025546p+1", "-0x1.18cf3413ef80ap+1", "-0x1.18cf33fb8a267p+1", "-0x1.18cf33fb8a266p+1"],
        "stabilization_ratio": "0x1.00000030cab48p+0",
        "endpoint_rel_error": "0x0.0p+0",
        "finite": True,
        "uT_sq": "0x1.beadced642355p-8",
        "source_sq": "0x1.04a955a12f247p-5",
        "log_backward_sq": "-0x1.18cf33fb8a266p+2",
        "log_total": "-0x1.7cc1af5751dc8p+0",
        "trajectory_sha256": "d4052c58416aa30f3d244eceeb9b2d44725f4eeb723c6a1434f0bcb831afc287",
    },
    (16, "boundary"): {
        "log_graph_norms": ["-0x1.18d1ac4025547p+1", "-0x1.18cf3413ef80bp+1", "-0x1.18cf33fb8a268p+1", "-0x1.18cf33fb8a267p+1"],
        "stabilization_ratio": "0x1.00000030cab48p+0",
        "endpoint_rel_error": "0x1.a731ead914351p-52",
        "finite": True,
        "uT_sq": "0x1.361e871738e48p-5",
        "trace_sq": "0x1.7ee165a839dcfp-5",
        "source_sq": "0x1.04a955a12f247p-5",
        "log_backward_sq": "-0x1.18cf33fb8a267p+2",
        "log_total": "-0x1.064aba6421cf8p+0",
        "trajectory_sha256": "da826851b5f6b908b60a50cebd0ea72df416fcf4f22dd0e940f66d7ffab8e88b",
    },
    (64, "decay"): {
        "log_graph_norms": ["-0x1.18cf33fb8a267p+1", "-0x1.18cf33fb8a266p+1", "-0x1.18cf33fb8a266p+1", "-0x1.18cf33fb8a266p+1"],
        "stabilization_ratio": "0x1.0000000000000p+0",
        "endpoint_rel_error": "0x0.0p+0",
        "finite": True,
        "uT_sq": "0x1.94ac2f089ae84p-7",
        "source_sq": "0x0.0p+0",
        "log_backward_sq": "-0x1.18cf33fb8a266p+2",
        "log_total": "-0x1.d94f665f5c8f8p+0",
        "trajectory_sha256": "33148309621d1f6956d08b545193e75429cd687938541a1f224be1661bbb46fd",
    },
    (64, "source"): {
        "log_graph_norms": ["-0x1.18cf33fb8a268p+1", "-0x1.18cf33fb8a267p+1", "-0x1.18cf33fb8a267p+1", "-0x1.18cf33fb8a267p+1"],
        "stabilization_ratio": "0x1.0000000000000p+0",
        "endpoint_rel_error": "0x1.fd27f7c48753cp-52",
        "finite": True,
        "uT_sq": "0x1.8396b66a99072p-7",
        "source_sq": "0x1.653fe28a8547bp-9",
        "log_backward_sq": "-0x1.18cf33fb8a267p+2",
        "log_total": "-0x1.ce66fe328fdeep+0",
        "trajectory_sha256": "a5cae99a68145671ec7bbb3c07d5e490a2601f50403c55f6e65bfef9da15add8",
    },
    (64, "boundary"): {
        "log_graph_norms": ["-0x1.18cf33fb8a268p+1", "-0x1.18cf33fb8a267p+1", "-0x1.18cf33fb8a267p+1", "-0x1.18cf33fb8a267p+1"],
        "stabilization_ratio": "0x1.0000000000000p+0",
        "endpoint_rel_error": "0x1.fd334633b9e42p-52",
        "finite": True,
        "uT_sq": "0x1.5d547ac65dd26p-6",
        "trace_sq": "0x1.6e86f7dad39f7p-9",
        "source_sq": "0x1.653fe28a8547bp-9",
        "log_backward_sq": "-0x1.18cf33fb8a267p+2",
        "log_total": "-0x1.9e5ce12c4703cp+0",
        "trajectory_sha256": "9e4ae60c6639699fc90e3147958ba12948c6c37e0670956115490b71977dcd08",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: f"N{c[0]}-{c[1]}")
def test_solve_matches_recorded_bits(case):
    assert golden_values(*case) == GOLDEN[case]


def _count_calls(monkeypatch, module, name, calls):
    def counting(*args, _real=getattr(module, name), **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return _real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


# marches per solve: the source yield's, then z(T)'s with boundary data,
# then the replay's unless it reuses the yield's march; a zero g marches
# nothing
MARCHES = {"source": 1, "boundary": 3, "source-extra-node": 2, "source-zero-boundary": 1}


@pytest.mark.parametrize("kind", sorted(MARCHES))
def test_one_solve_runs_each_yield_and_the_ladder_once(kind, monkeypatch):
    f, g, uT, T, tgrid = _instance(16, kind.split("-")[0])
    if kind == "source-extra-node":
        tgrid = np.sort(np.append(tgrid, T / 3))
    if kind == "source-zero-boundary":
        g = bd.BoundaryData.constant(0.0, 0.0, T)
    calls = {}
    _count_calls(monkeypatch, dh, "_particular", calls)
    for name in ("boundary_yield", "check_domain_membership"):
        _count_calls(monkeypatch, bd, name, calls)
    sol = bd.solve_final_value_inhom(f, g, uT, T, tgrid=tgrid)
    assert sol.compat.verdict == "compatible" and sol.ynorm.finite
    want = {"_particular": MARCHES[kind], "check_domain_membership": 1}
    if g is not None:
        want["boundary_yield"] = 1
    assert calls == want
    if kind == "source-zero-boundary":
        # the replay joined the yield's march, with the bits of a fresh one
        fresh = dh.solve_cauchy(sol.compat.u0, f, tgrid)
        assert _same_bits(sol.trajectory.phase, fresh.phase) and _same_bits(sol.trajectory.logmag, fresh.logmag)
        assert sol.trajectory.lift.g is g


def _source_case(n, seed, span):
    """Forward-manufactured source-only data whose source grid runs to
    span * T: (f, u_T, T)."""
    basis = build_basis(DomainSpec("interval", (np.pi,), n))
    rng = np.random.default_rng([n, seed, int(span)])
    j = np.arange(1, n + 1, dtype=float)
    T = 0.05 * (16 / n) ** 2
    nodes = int(rng.integers(3, 12))
    u0 = SpectralVec.from_coefficients(basis, rng.choice([-1.0, 1.0], n) * np.exp(-2.2 * j))
    fc = rng.choice([-1.0, 1.0], n) * np.exp(-1.2 * T * basis.lambdas)
    f = dh.SourceTerm(basis, np.linspace(0.0, span * T, nodes), rng.uniform(0.5, 1.0, (nodes, 1)) * fc)
    return f, dh.solve_cauchy(u0, f, np.array([0.0, T])).final_state, T


def _hex(report):
    return [float(x).hex() if isinstance(x, float) else x for x in dataclasses.astuple(report)]


def _json(report):
    return sp.strict_json(sp.json_payload(report))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("span", [1, 2], ids=["source-to-T", "source-to-2T"])
@pytest.mark.parametrize("n", [16, 256, 1024])
def test_reused_replay_has_the_bits_of_a_fresh_march(n, span, seed, monkeypatch):
    f, uT, T = _source_case(n, seed, span)
    calls = {}
    _count_calls(monkeypatch, dh, "_particular", calls)
    sol = fvp.solve_final_value(fvp.FinalValueData(f, uT, T))
    assert sol.compat.verdict == "compatible" and calls == {"_particular": 1}
    # the default grid: f's nodes in [0, T] plus T
    want_times = np.union1d(f.times[f.times <= T], [T])
    assert np.array_equal(sol.trajectory.times, want_times)
    fresh = dh.solve_cauchy(sol.compat.u0, f, want_times)
    assert calls == {"_particular": 2}
    assert _same_bits(sol.trajectory.phase, fresh.phase)
    assert _same_bits(sol.trajectory.logmag, fresh.logmag)
    assert float(sol.endpoint_rel_error).hex() == float(rel_distance(fresh.final_state, uT)).hex()
    assert _hex(sol.ynorm) == _hex(bd.data_norm_inhom(f, None, uT, T))

    # a tgrid that adds a node marches its own grid, as solve_cauchy does
    extra = np.sort(np.append(want_times, 0.4 * T))
    calls.clear()
    sol = bd.solve_final_value_inhom(f, None, uT, T, tgrid=extra)
    assert calls == {"_particular": 2}
    fresh = dh.solve_cauchy(sol.compat.u0, f, extra)
    assert _same_bits(sol.trajectory.phase, fresh.phase)
    assert _same_bits(sol.trajectory.logmag, fresh.logmag)


@pytest.mark.parametrize("kind", ["decay", "source"])
def test_forward_without_boundary_term_is_solve_cauchy(kind, basis16):
    # g=None attaches no lift
    rng = np.random.default_rng(5)
    u0 = SpectralVec.from_coefficients(basis16, rng.standard_normal(basis16.n_modes))
    f = None
    if kind == "source":
        f = dh.SourceTerm(basis16, np.array([0.0, 0.4, 1.0]), rng.standard_normal((3, basis16.n_modes)))
    tgrid = np.linspace(0.0, 1.0, 7)
    got = bd.solve_ibvp(u0, f, None, tgrid)
    want = dh.solve_cauchy(u0, f, tgrid)
    assert got.lift is None and got.source is f
    assert _same_bits(got.times, want.times)
    assert _same_bits(got.phase, want.phase) and _same_bits(got.logmag, want.logmag)


@pytest.mark.parametrize("kind", ["decay", "source", "boundary"])
def test_data_norm_equals_the_solve_norm(kind):
    f, g, uT, T, tgrid = _instance(16, kind)
    sol = _solve(16, kind)
    assert bd.data_norm_inhom(f, g, uT, T) == sol.ynorm
    assert _json(bd.check_final_data(f, g, uT, T)) == _json(sol.compat)


@pytest.mark.parametrize("kind", ["decay", "source"])
def test_no_boundary_term_is_the_homogeneous_solve(kind):
    f, _, uT, T, _ = _instance(64, kind)
    want = fvp.solve_final_value(fvp.FinalValueData(f, uT, T))
    got = bd.solve_final_value_inhom(f, None, uT, T)
    assert got.compat.log_graph_norms == want.compat.log_graph_norms
    assert got.ynorm == want.ynorm and got.ynorm.trace_sq is None
    assert "trace_sq" not in json.loads(_json(got.ynorm))
    assert got.endpoint_rel_error == want.endpoint_rel_error
    assert np.array_equal(got.trajectory.phase, want.trajectory.phase)
    assert np.array_equal(got.trajectory.logmag, want.trajectory.logmag)
    assert got.trajectory.lift is None


def test_zero_boundary_data_keep_the_trace_part(basis16):
    uT = unit_state(basis16, 2).scale_log(-basis16.lambdas)
    sol = bd.solve_final_value_inhom(None, bd.BoundaryData.constant(0.0, 0.0, 1.0), uT, 1.0)
    assert sol.ynorm.trace_sq == 0.0
    assert json.loads(_json(sol.ynorm))["trace_sq"] == 0.0
    assert sol.trajectory.lift is not None

