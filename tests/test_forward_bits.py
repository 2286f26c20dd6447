"""The forward path's kernels against the formulas they replaced, bit for bit.

Each reference below is the earlier form of a kernel, kept verbatim: the
scan's chunk bounds with one search per chunk, the scan scaling every row
of a chunk inside its loop, the join's entry mask built entry by entry,
the norms of a (rows, 3, n_modes) stack of terms with a maximum over each
term, and the interpolation with np.clip.  The rewritten kernels take
fewer passes over the same floats, so every value and every refusal must
be the same.  The last test pins a digest of a scanned forward solve and
everything read off it at the sizes of perfbench's forward-norms workload.
"""

import hashlib

import numpy as np
import pytest

from heatfvp import boundary as bd
from heatfvp import duhamel as dh
from heatfvp.logspace import LOG_MAX, InvalidSpecError, _real, merge_phase
from heatfvp.spectral import DomainSpec, SpectralVec, _stacked_norms, _weighted_norm, build_basis


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


# -- references ------------------------------------------------------------

def ref_scan_bounds(times, lam):
    if lam.size > dh._SCAN_MAX_MODES:
        return None
    last = times.size - 1
    reach = dh._SCAN_SPAN / float(lam.max())
    bounds = [0]
    while bounds[-1] < last:
        if len(bounds) * dh._SCAN_MIN_STEPS > last:
            return None
        k0 = bounds[-1]
        bounds.append(max(int(np.searchsorted(times, times[k0] + reach, side="right")) - 1, k0 + 1))
    return bounds


def ref_scan(w, lam, times, bounds, decay, which):
    starts = np.asarray(bounds[:-1])
    sizes = np.diff(bounds)
    q = np.multiply.outer(times[1:] - times[np.repeat(starts, sizes)], lam)
    q[starts[sizes == 1]] = 0.0
    np.exp(q, out=q)
    w[1:] *= q
    np.divide(1.0, q, out=q)
    for k0, k1 in zip(bounds[:-1], bounds[1:]):
        if k1 == k0 + 1:
            w[k1] += w[k0] * decay[which[k0]]
            continue
        chunk = w[k0 : k1 + 1]
        np.cumsum(chunk, axis=0, out=chunk)
        chunk[1:] *= q[k0:k1]


def ref_linear_entries(hom, expo, w):
    fits = hom <= LOG_MAX - 1.0
    fits &= expo == 0
    low = hom < dh._LOG_TINY
    low &= hom > -np.inf
    low &= fits
    if low.any():
        with np.errstate(divide="ignore"):
            fits[low] = hom[low] < np.log(np.abs(w[low])) + dh._LOG_EPS
    return fits


def ref_stacked_norms(basis, coeffs, logmag):
    lam = basis.lambdas
    n = max(basis.n_modes, 1)
    log_lam = np.log(lam)
    top = 2.0 * np.max(logmag, axis=-1, initial=-np.inf) + float(np.max(log_lam)) + np.log(n)
    overflowed = np.isfinite(top) & (top > LOG_MAX - 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        c2 = np.abs(coeffs) ** 2
        terms = np.empty(c2.shape[:-1] + (3, lam.size))
        terms[..., 0, :] = c2
        np.multiply(lam, c2, out=terms[..., 1, :])
        np.divide(c2, lam, out=terms[..., 2, :])
        sums = terms.sum(axis=-1)
        floor = n * 2.0 ** -1021 * (1.0 + np.array([1.0, float(lam.max()), 1.0 / float(lam.min())]))
        linear = ~overflowed[..., None] & (terms.max(axis=-1) >= floor)
        logs = np.empty(sums.shape)
        logs[linear] = 0.5 * np.log(sums[linear])
        rest = np.nonzero(~linear)
        if rest[0].size:
            log_weight = np.stack([np.zeros_like(lam), log_lam, -log_lam])
            logs[rest] = _weighted_norm(logmag[rest[:-1]], log_weight[rest[-1]])
        norms = np.where(overflowed[..., None], np.exp(logs), np.sqrt(sums))
    return (*norms.T, logs[..., 0])


def ref_interpolate(times, values, ts, what):
    ts = np.atleast_1d(_real(ts, f"{what} sample times"))
    tol = dh._TIME_RTOL * max(abs(times[0]), abs(times[-1]))
    if not np.all((ts >= times[0] - tol) & (ts <= times[-1] + tol)):
        raise InvalidSpecError(f"sample times outside the {what} grid")
    idx = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, times.size - 2)
    t0 = times[idx]
    t1 = times[idx + 1]
    w = ((ts - t0) / (t1 - t0))[:, None]
    return (1.0 - w) * values[idx] + w * values[idx + 1]


# -- the scan --------------------------------------------------------------

def _grid(rng, n_steps, h):
    """A non-uniform grid of steps about h, with a few steps 10^2 to 10^4
    times longer, past the scan's span."""
    steps = h * 10.0 ** rng.uniform(-1.0, 1.0, n_steps)
    steps[rng.integers(0, n_steps, rng.integers(0, 4))] *= 10.0 ** rng.uniform(2.0, 4.0)
    return np.concatenate(([0.0], np.cumsum(steps))) + rng.uniform(0.0, 2.0)


def _lambdas(rng, n):
    return np.sort(10.0 ** rng.uniform(-1.0, 5.0, n))


@pytest.mark.parametrize("seed", range(40))
def test_scan_bounds_equal_the_per_chunk_search(seed):
    rng = np.random.default_rng([seed, 1])
    lam = _lambdas(rng, int(rng.choice([1, 8, 96, 97])))
    # a base step from far inside the span (long chunks) to past it
    h = 10.0 ** rng.uniform(-3.0, 0.5) / lam[-1]
    times = _grid(rng, int(rng.integers(1, 600)), h)
    assert dh._scan_bounds(times, lam) == ref_scan_bounds(times, lam)


def test_scan_bounds_cover_every_outcome():
    # a grid of chunks, a grid too short for them and a basis of too many modes
    lam = np.array([1.0, 10.0])
    fine = np.linspace(0.0, 40.0, 4001)
    assert dh._scan_bounds(fine, lam) == ref_scan_bounds(fine, lam) is not None
    coarse = np.linspace(0.0, 40.0, 41)
    assert dh._scan_bounds(coarse, lam) is ref_scan_bounds(coarse, lam) is None
    many = np.arange(1.0, 98.0)
    assert dh._scan_bounds(fine, many) is ref_scan_bounds(fine, many) is None


@pytest.mark.parametrize("seed", range(30))
def test_scan_keeps_the_bits_of_the_scaled_chunks(seed):
    rng = np.random.default_rng([seed, 2])
    n = int(rng.integers(1, 13))
    lam = _lambdas(rng, n)
    times = _grid(rng, int(rng.integers(2, 400)), 10.0 ** rng.uniform(-3.0, 0.0) / lam[-1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dh, "_SCAN_MIN_STEPS", 1)
        bounds = dh._scan_bounds(times, lam)
    sizes = np.diff(bounds)
    hs = np.diff(times)
    lengths, which = np.unique(hs, return_inverse=True)
    with np.errstate(under="ignore"):
        decay = np.exp(-lengths[:, None] * lam)
    # step sums of every sign, some modes scaled to 2^512, the rest near 1
    w = rng.standard_normal((times.size, n)) * np.ldexp(1.0, rng.choice([0, 0, 511, 512], n))
    w[0] = 0.0
    want = w.copy()
    ref_scan(want, lam, times, bounds, decay, which)
    dh._scan(w, lam, times, bounds, decay, which)
    assert np.array_equal(bits(w), bits(want))
    if seed == 0:
        assert (sizes == 1).any() and (sizes > 1).any()


# -- the join's entry mask -------------------------------------------------

@pytest.mark.parametrize("seed", range(30))
def test_linear_entries_equal_the_entry_by_entry_mask(seed):
    rng = np.random.default_rng([seed, 3])
    n = 24
    lam = np.sort(10.0 ** rng.uniform(-1.0, 4.0, n))
    times = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(1, 60))))
    pick_times = times - times[0]
    # columns from past LOG_MAX down through it, from the normal range
    # down through the log of the smallest normal float64, zero modes
    # (-inf), and ordinary ones
    logmag = rng.choice([LOG_MAX + rng.uniform(-3.0, 3.0), dh._LOG_TINY + rng.uniform(-2.0, 2.0),
                         -np.inf, rng.uniform(-20.0, 20.0), 1e3], n)
    hom = logmag + -pick_times[:, None] * (lam * rng.uniform(0.0, 2.0, n) ** 2)
    w = rng.standard_normal((times.size, n)) * np.exp(rng.uniform(-760.0, 0.0, (times.size, n)))
    w[rng.random((times.size, n)) < 0.1] = 0.0
    expo = np.where(rng.random(n) < 0.2, rng.choice([-1021, 600], n), 0)
    assert np.array_equal(dh._linear_entries(hom, expo, w), ref_linear_entries(hom, expo, w))


def test_linear_entries_on_each_kind_of_column():
    hom = np.array([[LOG_MAX, LOG_MAX - 1.5, -np.inf, -700.0, -740.0, 0.0, 5.0],
                    [LOG_MAX - 2.0, LOG_MAX - 1.8, -np.inf, -760.0, -745.0, -1.0, 4.0]])
    w = np.array([[1.0, 1.0, 0.0, 1e-300, 0.0, 1.0, 1.0],
                  [1.0, 1.0, 0.0, 1e-320, 1e-300, 1.0, 1.0]])
    expo = np.array([0, 0, 0, 0, 0, 0, 600])
    got = dh._linear_entries(hom, expo, w)
    assert np.array_equal(got, ref_linear_entries(hom, expo, w))
    assert got[:, 1].all() and got[:, 2].all() and not got[:, 6].any()
    assert not got[0, 0] and got[1, 0]


# -- the norms -------------------------------------------------------------

def _norm_rows(basis, rng, rows):
    """Rows in sign/log form: ordinary, overflowed, zero, and rows whose
    largest weighted term lies within a factor e^3 (often e) of the
    subnormal floor of each of the three sums."""
    n = basis.n_modes
    lam = basis.lambdas
    log_floor = np.log(n * 2.0 ** -1021 * (1.0 + np.array([1.0, lam[-1], 1.0 / lam[0]])))
    logmag = rng.uniform(-30.0, 2.0, (rows, n))
    for i in range(rows):
        kind = i % 6
        if kind == 1:
            logmag[i] = rng.uniform(300.0, 800.0) - rng.uniform(0.0, 5.0, n)
        elif kind == 2:
            logmag[i] = -np.inf
        elif kind >= 3:
            # the top term of sum kind - 3 at log_floor + x, x in [-3, 3]
            weight = (0.0, np.log(lam), -np.log(lam))[kind - 3]
            j = rng.integers(n)
            x = rng.uniform(-3.0, 3.0) if rng.random() < 0.5 else rng.uniform(-1.0, 1.0)
            top = (log_floor[kind - 3] + x - np.broadcast_to(weight, (n,))[j]) / 2.0
            # the other modes close below it (terms that flush toward the
            # subnormals), far below it, or anywhere between
            spread = rng.choice([(0.0, 3.0), (8.0, 40.0), (0.0, 40.0), (0.0, 40.0)])
            logmag[i] = top - rng.uniform(*spread, n)
            logmag[i, j] = top
    logmag[rng.random((rows, n)) < 0.05] = -np.inf
    phase = np.where(logmag == -np.inf, 0.0, rng.choice([-1.0, 1.0], (rows, n)))
    return phase, logmag


# lengths with lambda_1 above 1, equal to 1 (all three floors equal at
# N = 1) and far below it, so each weight can be the least
@pytest.mark.parametrize("length", [0.7, 1.0, 10.0])
@pytest.mark.parametrize("n, rows", [(1, 12), (16, 60), (64, 60), (1024, 1), (1024, 6)])
def test_stacked_norms_equal_the_three_plane_stack(length, n, rows):
    basis = build_basis(DomainSpec("interval", (np.pi * length,), n))
    rng = np.random.default_rng([n, rows, int(10 * length)])
    for _ in range(12):
        phase, logmag = _norm_rows(basis, rng, rows)
        coeffs = merge_phase(phase, logmag)
        got = _stacked_norms(basis, coeffs, logmag)
        want = ref_stacked_norms(basis, coeffs, logmag)
        for field, ref in zip((got.normH, got.normV, got.normVstar, got.log_normH), want):
            assert np.array_equal(bits(field), bits(ref))


# -- the interpolation -----------------------------------------------------

def _refusal(fn):
    try:
        return fn(), None
    except InvalidSpecError as exc:
        return None, str(exc)


@pytest.mark.parametrize("seed", range(20))
def test_interpolate_equals_the_clipped_search(seed):
    rng = np.random.default_rng([seed, 4])
    times = np.sort(rng.uniform(-3.0, 5.0, int(rng.integers(2, 12))))
    values = rng.standard_normal((times.size, int(rng.integers(1, 9))))
    tol = dh._TIME_RTOL * max(abs(times[0]), abs(times[-1]))
    edges = [times[0] - tol, times[-1] + tol, np.nextafter(times[0] - tol, -np.inf),
             np.nextafter(times[-1] + tol, np.inf), times[0], times[-1]]
    cases = [rng.uniform(times[0], times[-1], int(rng.integers(0, 50))), times, float(rng.choice(times)),
             np.array(rng.uniform(times[0], times[-1])), [], [np.nan], [times[0], np.nan],
             *([e] for e in edges), edges[:2] + [times[1]], [times[-1] + 1.0]]
    for ts in cases:
        got, got_err = _refusal(lambda: dh._interpolate(times, values, ts, "source"))
        want, want_err = _refusal(lambda: ref_interpolate(times, values, ts, "source"))
        assert got_err == want_err
        if want is not None:
            assert got.shape == want.shape and np.array_equal(bits(got), bits(want))


# -- a digest of the scanned forward path ------------------------------------

# (modes, nodes, source, boundary): the slots of perfbench's forward-norms
FORWARD_CASES = (
    (16, 257, True, False), (16, 500, False, True), (16, 750, True, True), (16, 1000, True, False),
    (64, 257, True, True), (64, 500, True, False), (64, 750, False, True), (64, 1000, False, False),
)
# recorded before the node rows came from the march, the norms lost their
# three-plane stack and the scan scaled each row once
FORWARD_DIGEST = "db842ab0a9fbfd0d79f7c47e1b5d52532c6c6777e785456dff761bc3c36d34dd"


def _forward_case(n, nodes, with_f, with_g, seed):
    basis = build_basis(DomainSpec("interval", (np.pi,), n))
    rng = np.random.default_rng([seed, n, nodes])
    T = (nodes - 1) * 0.4 / float(basis.lambdas[-1])
    tgrid = np.linspace(0.0, T, nodes)
    u0 = SpectralVec.from_coefficients(basis, rng.standard_normal(n) * np.exp(-0.2 * np.arange(1, n + 1)))
    f = dh.SourceTerm(basis, np.linspace(0.0, T, 4),
                      rng.standard_normal((4, n)) * np.exp(-0.05 * basis.lambdas)) if with_f else None
    g = None
    if with_g:
        ends = rng.uniform(-1.0, 1.0, (2, 2))
        g = bd.BoundaryData(np.array([0.0, T / 2, T]), np.array([[0.0, 0.0], ends[0], ends[1]]))
    return u0, f, g, tgrid


def forward_digest(seeds=(1, 2)) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        for case in FORWARD_CASES:
            u0, f, g, tgrid = _forward_case(*case, seed)
            if g is None:
                traj = dh.solve_cauchy(u0, f, tgrid)
                norm = dh.solution_norm(traj)
            else:
                traj = bd.solve_ibvp(u0, f, g, tgrid)
                norm = bd.solution_norm_h1(traj)
            energy = dh.check_energy_estimate(traj)
            nn = traj.node_norms
            for a in (traj.phase, traj.logmag, nn.normH, nn.normV, nn.normVstar, nn.log_normH,
                      traj.residual_dual_sq):
                h.update(bits(a).tobytes())
            scalars = [energy.energy_lhs, energy.energy_rhs, energy.sobolev_lhs, energy.sobolev_rhs, norm,
                       bd.flow_identity_residual(traj, g)]
            h.update(bits(scalars).tobytes())
            h.update(bytes([energy.energy_ok, energy.sobolev_ok]))
    return h.hexdigest()


def test_forward_path_keeps_its_digest():
    assert forward_digest() == FORWARD_DIGEST
