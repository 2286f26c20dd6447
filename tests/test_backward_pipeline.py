"""One backward pipeline: the homogeneous, source and boundary solves share
one admissibility check, one data norm and one solution class.

The recorded values below fix every float of a certified solve, so merging
the solvers cannot move a digit.
"""

import hashlib
import json
import warnings

import numpy as np
import pytest

from heatfvp import boundary as bd
from heatfvp import duhamel as dh
from heatfvp import fvp
from heatfvp.spectral import DomainSpec, InvalidSpecError, SpectralVec, build_basis


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
    if kind == "boundary":
        return bd.solve_final_value_inhom(f, g, uT, T, tgrid=tgrid)
    return fvp.solve_final_value(fvp.FinalValueData(f, uT, T), tgrid=tgrid)


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
# the membership ladder a second time for its data norm
GOLDEN = {
    (16, "decay"): {
        "log_graph_norms": ["-0x1.18d1ac4025546p+1", "-0x1.18cf3413ef80ap+1", "-0x1.18cf33fb8a267p+1", "-0x1.18cf33fb8a266p+1"],
        "stabilization_ratio": "0x1.00000030cab48p+0",
        "endpoint_rel_error": "0x1.83c52f36e1d28p-72",
        "finite": True,
        "uT_sq": "0x1.6f5af289c2c64p-7",
        "source_sq": "0x0.0p+0",
        "log_backward_sq": "-0x1.18cf33fb8a266p+2",
        "log_total": "-0x1.df5513602e924p+0",
        "trajectory_sha256": "71bdcb9185b0ba079aa64abc75668c9950c66fbceeba2b625d42b79f3cacc178",
    },
    (16, "source"): {
        "log_graph_norms": ["-0x1.18d1ac4025548p+1", "-0x1.18cf3413ef80cp+1", "-0x1.18cf33fb8a269p+1", "-0x1.18cf33fb8a268p+1"],
        "stabilization_ratio": "0x1.00000030cab48p+0",
        "endpoint_rel_error": "0x1.bf0ea12dbf57dp-51",
        "finite": True,
        "uT_sq": "0x1.beadced64233dp-8",
        "source_sq": "0x1.04a955a12f247p-5",
        "log_backward_sq": "-0x1.18cf33fb8a268p+2",
        "log_total": "-0x1.7cc1af5751dc9p+0",
        "trajectory_sha256": "a3f72d56c91bbc4b7d64d7ee3ee23e57e3ab774d4abab25f4560b4ee01e1f212",
    },
    (16, "boundary"): {
        "log_graph_norms": ["-0x1.18d1ac4025548p+1", "-0x1.18cf3413ef80cp+1", "-0x1.18cf33fb8a269p+1", "-0x1.18cf33fb8a268p+1"],
        "stabilization_ratio": "0x1.00000030cab48p+0",
        "endpoint_rel_error": "0x1.8b0e301c50ccep-51",
        "finite": True,
        "uT_sq": "0x1.361e871738e43p-5",
        "trace_sq": "0x1.7ee165a839dcfp-5",
        "source_sq": "0x1.04a955a12f247p-5",
        "log_backward_sq": "-0x1.18cf33fb8a268p+2",
        "log_total": "-0x1.064aba6421cf8p+0",
        "trajectory_sha256": "40486d33a1d903752cb45b1c372625ff50da7deb382a5d55376a5da191b3ed60",
    },
    (64, "decay"): {
        "log_graph_norms": ["-0x1.18cf33fb8a267p+1", "-0x1.18cf33fb8a266p+1", "-0x1.18cf33fb8a266p+1", "-0x1.18cf33fb8a266p+1"],
        "stabilization_ratio": "0x1.0000000000000p+0",
        "endpoint_rel_error": "0x1.f3518a64d76f6p-70",
        "finite": True,
        "uT_sq": "0x1.94ac2f089ae84p-7",
        "source_sq": "0x0.0p+0",
        "log_backward_sq": "-0x1.18cf33fb8a266p+2",
        "log_total": "-0x1.d94f665f5c8f8p+0",
        "trajectory_sha256": "21677543b13d75939452360f17fef327eee6f5b6995e3e23487f32792fe352f5",
    },
    (64, "source"): {
        "log_graph_norms": ["-0x1.18cf33fb8a269p+1", "-0x1.18cf33fb8a268p+1", "-0x1.18cf33fb8a268p+1", "-0x1.18cf33fb8a268p+1"],
        "stabilization_ratio": "0x1.0000000000000p+0",
        "endpoint_rel_error": "0x1.16942042caf1ap-50",
        "finite": True,
        "uT_sq": "0x1.8396b66a99068p-7",
        "source_sq": "0x1.653fe28a8547bp-9",
        "log_backward_sq": "-0x1.18cf33fb8a268p+2",
        "log_total": "-0x1.ce66fe328fdf0p+0",
        "trajectory_sha256": "593f754322e5122f75e125ce6c014fc51c4a92cf19038de29a31a9678922ad93",
    },
    (64, "boundary"): {
        "log_graph_norms": ["-0x1.18cf33fb8a26bp+1", "-0x1.18cf33fb8a26ap+1", "-0x1.18cf33fb8a26ap+1", "-0x1.18cf33fb8a26ap+1"],
        "stabilization_ratio": "0x1.0000000000000p+0",
        "endpoint_rel_error": "0x1.8e276f574644fp-50",
        "finite": True,
        "uT_sq": "0x1.5d547ac65dd1ap-6",
        "trace_sq": "0x1.6e86f7dad39f7p-9",
        "source_sq": "0x1.653fe28a8547bp-9",
        "log_backward_sq": "-0x1.18cf33fb8a26ap+2",
        "log_total": "-0x1.9e5ce12c47041p+0",
        "trajectory_sha256": "a708963561819b91d2db4128d2ace6f4b89d1b1e1f4efe0e94c6c12de11a8d1a",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: f"N{c[0]}-{c[1]}")
def test_solve_matches_recorded_bits(case):
    assert golden_values(*case) == GOLDEN[case]


@pytest.mark.parametrize("kind", ["source", "boundary"])
def test_one_solve_runs_each_yield_and_the_ladder_once(kind, monkeypatch):
    f, g, uT, T, tgrid = _instance(16, kind)
    calls = {}
    for name in ("source_yield", "boundary_yield", "check_domain_membership"):
        def counting(*args, _real=getattr(bd, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        for mod in (fvp, bd):
            monkeypatch.setattr(mod, name, counting, raising=False)
    if g is None:
        sol = fvp.solve_final_value(fvp.FinalValueData(f, uT, T), tgrid=tgrid)
    else:
        sol = bd.solve_final_value_inhom(f, g, uT, T, tgrid=tgrid)
    assert sol.compat.verdict == "compatible" and sol.ynorm.finite
    want = {"source_yield": 1, "check_domain_membership": 1}
    if g is not None:
        want["boundary_yield"] = 1
    assert calls == want


@pytest.mark.parametrize("kind", ["decay", "source", "boundary"])
def test_data_norm_equals_the_solve_norm(kind):
    f, g, uT, T, tgrid = _instance(16, kind)
    sol = _solve(16, kind)
    if g is None:
        assert fvp.data_norm(fvp.FinalValueData(f, uT, T)) == sol.ynorm
    assert bd.data_norm_inhom(f, g, uT, T) == sol.ynorm
    assert bd.check_final_data(f, g, uT, T).to_json() == sol.compat.to_json()


@pytest.mark.parametrize("kind", ["decay", "source"])
def test_no_boundary_term_is_the_homogeneous_solve(kind):
    f, _, uT, T, tgrid = _instance(64, kind)
    want = fvp.solve_final_value(fvp.FinalValueData(f, uT, T), tgrid=tgrid)
    got = bd.solve_final_value_inhom(f, None, uT, T, tgrid=tgrid)
    assert got.compat.log_graph_norms == want.compat.log_graph_norms
    assert got.ynorm == want.ynorm and got.ynorm.trace_sq is None
    assert "trace_sq" not in json.loads(got.ynorm.to_json())
    assert got.endpoint_rel_error == want.endpoint_rel_error
    assert np.array_equal(got.trajectory.phase, want.trajectory.phase)
    assert np.array_equal(got.trajectory.logmag, want.trajectory.logmag)
    assert got.trajectory.lift is None


def test_zero_boundary_data_keep_the_trace_part(basis16):
    uT = SpectralVec.unit(basis16, 2).scale_log(-basis16.lambdas)
    sol = bd.solve_final_value_inhom(None, bd.BoundaryData.zero(1.0), uT, 1.0)
    assert sol.ynorm.trace_sq == 0.0
    assert json.loads(sol.ynorm.to_json())["trace_sq"] == 0.0
    assert sol.trajectory.lift is not None


def test_no_boundary_term_needs_no_interval(basis_rect):
    uT = SpectralVec.unit(basis_rect, 1).scale_log(-0.5 * basis_rect.lambdas)
    sol = bd.solve_final_value_inhom(None, None, uT, 0.5)
    assert sol.compat.verdict == "compatible"
    with pytest.raises(InvalidSpecError):
        bd.solve_final_value_inhom(None, bd.BoundaryData.zero(0.5), uT, 0.5)
