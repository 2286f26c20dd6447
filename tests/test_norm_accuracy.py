"""Norms against a 50-digit reference.

Every norm heatfvp computes sums nonnegative terms along the mode axis:
|c_j|^2 and lambda_j^{+-1} |c_j|^2 at each node, the exact interval
integrals (|a|^2 + Re(a conj b) + |b|^2) / 3 >= (|a|^2 + |b|^2) / 6 of a
piecewise-linear source, and in `log_sum_exp` the shifted exponentials
exp(a - max) <= 1.  For such terms a pairwise sum errs by less than about
ceil(log2 n) eps relative (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed. 2002, sec. 4.2): there is no cancellation for a
compensated sum to recover.

The reference reads the float64 arrays each function starts from: the
linear-scale coefficients (`Trajectory._coeffs`), the source and lift
samples at the nodes, the node times, the eigenvalues and the basis
constants.  It forms every difference, square, weight, sum,
trapezoid and square root from them at 50 digits.

Gate, on the golden trajectories of tests/test_batched_norms.py (forward
solves, 129 nodes at N = 16 and 64, fewer nodes of the same step above)
and tests/test_backward_pipeline.py (certified backward solves), at
N = 16, 64, 256 and 1024: every error is at most ceil(log2 N) * 4 eps,
times the condition of the sum for `solution_norm_h1` (see `errors`).
For `log_sum_exp` the error is |got - ref| / max(1, |ref|): its absolute
error is the relative error of the sum it takes the log of, and a result
of size |ref| > 1 is itself stored only to within eps |ref|.  The log
fields of `stacked_norms` (half the log of the linear sums on these
in-range rows) are held to the same bound as an absolute error on the log.
"""

import math

import mpmath
import numpy as np
import pytest
from test_backward_pipeline import _solve
from test_batched_norms import golden_trajectory

from heatfvp import boundary as bd
from heatfvp import duhamel as dh
from heatfvp.logspace import log_sum_exp
from heatfvp.spectral import stacked_norms

EPS = float(np.finfo(np.float64).eps)
MODES = (16, 64, 256, 1024)
# forward nodes per N: the goldens' 129 where they are recorded, fewer of
# the same step above, which keeps the reference to seconds
FORWARD_NODES = {16: 129, 64: 129, 256: 17, 1024: 5}


def _rows(a):
    """A float64 array as rows of mpf, exactly."""
    return [[mpmath.mpf(v) for v in row] for row in np.atleast_2d(a).tolist()]


def _abs2(re, im):
    return [[x * x + y * y for x, y in zip(r, i)] for r, i in zip(re, im)]


def _trapezoid(values, ts):
    return mpmath.fsum((b - a) * (u + v) for a, b, u, v in zip(ts[:-1], ts[1:], values[:-1], values[1:])) / 2


def _source_dual_sq(f, T, lam_inv):
    """int_0^T ||f||_*^2 dt of the piecewise-linear source, from its node
    values and, when T cuts an interval, the float64 sample at T."""
    n = int(np.count_nonzero(f.times[:-1] < T))
    nodes = f.coeffs[: n + 1].copy()
    if n and f.times[n] > T:
        nodes[n] = f.sample([T])[0]
    re, im = _rows(nodes.real), _rows(nodes.imag)
    ts = _rows(np.minimum(f.times[: n + 1], T))[0]
    re_w = [[x * w for x, w in zip(r, lam_inv)] for r in re]
    im_w = [[x * w for x, w in zip(r, lam_inv)] for r in im]

    def dual_dot(k, m):  # sum_j Re(f_k,j conj f_m,j) / lambda_j
        return mpmath.fdot(re_w[k], re[m]) + mpmath.fdot(im_w[k], im[m])

    sq = [dual_dot(k, k) for k in range(n + 1)]
    # per unit step, int |a (1 - s) + b s|^2 ds = (|a|^2 + Re(a conj b) + |b|^2) / 3
    return mpmath.fsum((ts[k + 1] - ts[k]) * (sq[k] + dual_dot(k, k + 1) + sq[k + 1]) for k in range(n)) / 3


def _log_sum_exp(row):
    finite = [mpmath.exp(v) for v in _rows(row)[0] if v != -mpmath.inf]
    return mpmath.log(mpmath.fsum(finite)) if finite else -mpmath.inf


def _rel(got, ref):
    return max(float(abs(g - r) / abs(r)) for g, r in zip(np.ravel(got).tolist(), ref))


def _abs(got, ref):
    return max(float(abs(g - r)) for g, r in zip(np.ravel(got).tolist(), ref))


def _mixed(got, ref):
    return max(float(abs(g - r) / max(1, abs(r))) for g, r in zip(np.ravel(got).tolist(), ref))


def errors(traj):
    """Largest error of every norm heatfvp computes from one trajectory, as
    name -> (error, condition).  The condition is 1 for a sum of
    nonnegative terms; `solution_norm_h1` adds the lift's cross terms,
    whose signs differ, and its condition is the sum of the magnitudes of
    its terms over their sum, the factor by which a sum's rounding grows."""
    basis = traj.basis
    lam = basis.lambdas
    (L,) = basis.spec.lengths
    c = traj._coeffs
    out = {}
    with mpmath.workdps(50):
        lam_mp = _rows(lam)[0]
        lam_inv = [1 / x for x in lam_mp]
        ts = _rows(traj.times)[0]
        cr, ci = _rows(c.real), _rows(c.imag)
        c2 = _abs2(cr, ci)
        h2 = [mpmath.fsum(r) for r in c2]
        v2 = [mpmath.fdot(r, lam_mp) for r in c2]
        vs2 = [mpmath.fdot(r, lam_inv) for r in c2]
        norms = stacked_norms(basis, traj.phase, traj.logmag)
        assert not norms.overflowed.any()
        for name, ref in (("normH", h2), ("normV", v2), ("normVstar", vs2)):
            out[f"stacked_norms.{name}"] = (_rel(getattr(norms, name), map(mpmath.sqrt, ref)), 1)
            out[f"stacked_norms.log_{name}"] = (_abs(getattr(norms, f"log_{name}"), [mpmath.log(r) / 2 for r in ref]), 1)

        # the zero-trace part p = c - w, with w the lift's real coefficients,
        # and u' = f - lambda p from the equation
        if traj.lift is None:
            pr, w, p2 = cr, None, c2
        else:
            a, b, w = traj.lift.sample(traj.times)
            a, b, w = _rows(a)[0], _rows(b)[0], _rows(w)
            pr = [[x - y for x, y in zip(r, wr)] for r, wr in zip(cr, w)]
            p2 = _abs2(pr, ci)
        lam_p2 = [mpmath.fdot(r, lam_mp) for r in p2]
        if traj.source is None:
            res_sq = lam_p2
        else:
            f = traj.source.sample(traj.times)
            res_r = [[x - l * y for x, y, l in zip(fr, r, lam_mp)] for fr, r in zip(_rows(f.real), pr)]
            res_i = [[x - l * y for x, y, l in zip(fi, i, lam_mp)] for fi, i in zip(_rows(f.imag), ci)]
            res_sq = [mpmath.fdot(r, lam_inv) for r in _abs2(res_r, res_i)]
        int_v2 = _trapezoid(v2, ts)
        int_res = _trapezoid(res_sq, ts)
        rest = _trapezoid(vs2, ts) + int_res
        out["solution_norm"] = (_rel(dh.solution_norm(traj), [mpmath.sqrt(int_v2 + max(h2) + rest)]), 1)

        Lm = mpmath.mpf(L)
        if w is None:
            l2 = l2_abs = [mpmath.fsum(r) for r in p2]
            b = [0] * len(ts)
        else:
            l2, l2_abs = [], []
            for r2, r, wr, ak, bk in zip(p2, pr, w, a, b):
                cross = [2 * x * y for x, y in zip(r, wr)]
                lift = [ak * ak * Lm, ak * bk * Lm ** 2, bk * bk * Lm ** 3 / 3]
                l2.append(mpmath.fsum(r2) + mpmath.fsum(cross) + mpmath.fsum(lift))
                l2_abs.append(mpmath.fsum(r2) + mpmath.fsum(cross, absolute=True) + mpmath.fsum(lift, absolute=True))
        top = [s + bk * bk * Lm for s, bk in zip(lam_p2, b)]
        total = _trapezoid([x + t for x, t in zip(l2, top)], ts) + max(l2) + rest
        total_abs = _trapezoid([x + t for x, t in zip(l2_abs, top)], ts) + max(l2_abs) + rest
        out["solution_norm_h1"] = (_rel(bd.solution_norm_h1(traj), [mpmath.sqrt(total)]), float(total_abs / total))

        energy = dh.check_energy_estimate(traj)
        f2 = 0
        if traj.source is not None:
            f2 = _source_dual_sq(traj.source, traj.times[-1], lam_inv)
            t_cut = 0.6 * float(traj.times[-1])  # cuts a source interval
            part = _source_dual_sq(traj.source, t_cut, lam_inv)
            for name, t, ref in (("T", traj.times[-1], f2), ("0.6T", t_cut, part)):
                out[f"squared_source_dual_norm({name})"] = (_rel(dh.squared_source_dual_norm(traj.source, t), [ref]), 1)
        C1, C2, C4 = (mpmath.mpf(x) for x in (basis.C1, basis.C2, basis.C4))
        sides = {
            "energy_lhs": int_v2,
            "energy_rhs": h2[0] / C4 + f2 / C4 ** 2,
            "sobolev_lhs": max(h2),
            "sobolev_rhs": (1 + C2 ** 2 / (C1 ** 2 * (ts[-1] - ts[0]))) * int_v2 + int_res,
        }
        for name, ref in sides.items():
            out[f"check_energy_estimate.{name}"] = (_rel(getattr(energy, name), [ref]), 1)

        # the weighted sums of the norms' log path, at the first and last node
        log_lam = np.log(lam)
        terms = np.concatenate([2.0 * traj.logmag[[0, -1]] + wt for wt in (0.0, log_lam, -log_lam)])
        out["log_sum_exp"] = (_mixed(log_sum_exp(terms), [_log_sum_exp(t) for t in terms]), 1)
    return out


def forward_case(n, kind):
    return golden_trajectory(n, kind, FORWARD_NODES[n])[0]


def backward_case(n, kind):
    return _solve(n, kind).trajectory


def bound(n):
    return math.ceil(math.log2(n)) * 4 * EPS


@pytest.mark.parametrize("kind", ["decay", "source", "boundary"])
@pytest.mark.parametrize("n", MODES)
@pytest.mark.parametrize("case", [forward_case, backward_case], ids=["forward", "backward"])
def test_norms_are_within_the_pairwise_sum_bound(case, n, kind):
    errs = errors(case(n, kind))
    report = ", ".join(f"{name} {err / EPS:.2f}" + (f" (condition {cond:.1f})" if cond != 1 else "")
                       for name, (err, cond) in errs.items())
    print(f"N={n} {kind} {case.__name__} (errors in eps): {report}")
    assert all(err <= bound(n) * cond for err, cond in errs.values()), report
