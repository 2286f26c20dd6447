"""The backward path's kernels against the forms they replaced, bit for bit.

Each reference below is the earlier form of a kernel, kept verbatim:
`log_sum_exp` with its keepdims and initial reductions and its masked add,
`logspace_add` with its broadcast-shaped buffers, and the T row of a yield
as the join of the zero state with the march.  The rewritten kernels drop
scaffolding, not arithmetic, so every value, every warning and every
refusal must be the same.  A digest pins backward solves at the slots of
perfbench's fvp-batch workload: refused ladders, and the certified initial
state, trajectory, data norm and endpoint error.  The states the package
builds from its own arrays skip the entry check, so the last test asks
that arithmetic which meets a NaN is still refused.
"""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays, mutually_broadcastable_shapes

from heatfvp import boundary as bd
from heatfvp import duhamel as dh
from heatfvp.logspace import InvalidSpecError, _split_owned, log_sum_exp, logspace_add, merge_phase
from heatfvp.semigroup import IncompatibleDataError, apply_inverse
from heatfvp.spectral import DomainSpec, SpectralVec, build_basis


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


# -- references ------------------------------------------------------------

def ref_log_sum_exp(terms):
    a = np.asarray(terms, dtype=np.float64)
    m = a.max(axis=-1, initial=-np.inf, keepdims=True)
    with np.errstate(under="ignore", invalid="ignore", divide="ignore"):
        log_s = np.log(np.exp(a - m).sum(axis=-1))
    out = m[..., 0]
    np.add(out, log_s, out=out, where=np.isfinite(out))
    return float(out) if a.ndim == 1 else out


def ref_logspace_add(p1, l1, p2, l2):
    p1, p2 = np.asarray(p1), np.asarray(p2)
    l1 = np.asarray(l1, dtype=np.float64)
    l2 = np.asarray(l2, dtype=np.float64)
    m = np.maximum(l1, l2, out=np.empty(np.broadcast_shapes(l1.shape, l2.shape)))
    np.copyto(m, 0.0, where=~np.isfinite(m))
    s = np.empty(np.broadcast_shapes(p1.shape, p2.shape, m.shape))
    t = np.empty_like(m)
    with np.errstate(under="ignore"):
        np.multiply(p1, np.exp(np.subtract(l1, m, out=t), out=t), out=s)
        s += p2 * np.exp(np.subtract(l2, m, out=t), out=t)
    del t
    phase, lg = _split_owned(s)
    np.add(m, lg, out=lg, where=lg != -np.inf)
    return phase, lg


def ref_log_join(phase, hom, w, expo):
    w_p, w_l = _split_owned(w)
    w_l += expo * dh._LN2
    return ref_logspace_add(phase, hom, w_p, w_l)


def ref_join(u0, part, pick):
    times, expo, w = part.times, part.expo, part.w[pick]
    hom = u0.logmag + -(times[pick] - times[0])[:, None] * u0.basis.lambdas
    fits = dh._linear_entries(hom, expo, w)
    if not fits.any():
        return ref_log_join(u0.phase, hom, w, expo)
    tail = None
    if not fits.all():
        rest = np.nonzero(~fits)
        modes = rest[1]
        tail = ref_log_join(u0.phase[modes], hom[rest], w[rest], expo[modes])
        hom[rest] = -np.inf
        w[rest] = 0.0
    s = merge_phase(u0.phase, hom)
    s += w
    phase, logmag = _split_owned(s)
    if tail is not None:
        phase[rest], logmag[rest] = tail
    if pick[0] == 0:
        phase[0], logmag[0] = u0.phase, u0.logmag
    return phase, logmag


def _outcome(fn, *args):
    """(value, exception type, warning texts) of one call.  A product of
    numpy scalars warns as a "scalar multiply", one of arrays as a
    "multiply": the texts drop the word."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value, exc = fn(*args), None
        except Exception as e:  # the reference's own refusal, matched below
            value, exc = None, type(e)
    return value, exc, sorted(str(w.message).replace("scalar ", "") for w in caught)


def _same(got, want):
    """Same type, shape and bits, every NaN read as one NaN: which operand's
    NaN payload and sign survive an add is up to numpy's loop, which
    differs between in-place and fresh outputs and between CPUs."""
    if isinstance(want, tuple):
        return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))
    if type(got) is not type(want) or np.shape(got) != np.shape(want):
        return False
    got, want = (np.where(np.isnan(x), np.nan, x) for x in (got, want))
    return bits(got).tobytes() == bits(want).tobytes()


# -- the log-space kernels -------------------------------------------------

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308, 709.78, -745.2]
ENTRIES = st.one_of(st.floats(), st.floats(-800.0, 800.0), st.sampled_from(SPECIAL))
SIGNS = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, -0.0]), ENTRIES)


@settings(max_examples=300, deadline=None)
@given(st.one_of(arrays(np.float64, st.integers(0, 64), elements=ENTRIES),
                 arrays(np.float64, array_shapes(min_dims=2, max_dims=3, min_side=0, max_side=10), elements=ENTRIES)))
def test_log_sum_exp_equals_the_reference(a):
    # 1-d rows return floats, stacks one value per row
    got, want = _outcome(log_sum_exp, a), _outcome(ref_log_sum_exp, a)
    assert got[1:] == want[1:]
    assert _same(got[0], want[0])


@pytest.mark.parametrize("x", SPECIAL)
def test_log_sum_exp_of_a_0d_input_is_the_reference_on_one_term(x):
    # the reference could not index a 0-d row: a 0-d input now gives a 0-d
    # array with the bits the reference gives the same term as a 1-d row
    got, want = _outcome(log_sum_exp, np.array(x)), _outcome(ref_log_sum_exp, np.array([x]))
    assert got[1:] == want[1:] and want[1] is None
    assert type(got[0]) is np.ndarray and got[0].shape == ()
    assert _same(float(got[0]), want[0])


@st.composite
def add_operands(draw):
    """Four operands of one broadcast: 0-d, 1-d, stacked, or a mix."""
    shapes = draw(mutually_broadcastable_shapes(num_shapes=4, min_dims=0, max_dims=3, min_side=0, max_side=12))
    p1, l1, p2, l2 = (draw(arrays(np.float64, s, elements=e))
                      for s, e in zip(shapes.input_shapes, (SIGNS, ENTRIES) * 2))
    if draw(st.booleans()):  # a scalar operand, as a float
        p2 = float(draw(SIGNS))
    return p1, l1, p2, l2


@settings(max_examples=400, deadline=None)
@given(add_operands())
def test_logspace_add_equals_the_reference(ops):
    # 0-d operands alone, whose sum the reference's split could not write,
    # give 0-d results with the bits the reference gives the same values
    # as (1,) arrays.  On an empty broadcast the reference multiplied
    # nothing, while the kernel forms the product of its smaller operands
    # before the sum broadcasts it away, which may warn
    got = _outcome(logspace_add, *ops)
    if all(np.ndim(x) == 0 for x in ops):
        want = _outcome(ref_logspace_add, *(np.reshape(x, (1,)) for x in ops))
        assert got[1:] == want[1:] and want[1] is None
        assert _same(got[0], tuple(x.reshape(()) for x in want[0]))
        return
    want = _outcome(ref_logspace_add, *ops)
    assert got[1] is want[1]
    assert got[2] == want[2] or (want[1] is None and want[0][0].size == 0)
    if want[1] is None:
        assert _same(got[0], want[0])


def test_logspace_add_refuses_operands_that_do_not_broadcast():
    # the reference refused before any exp ran, the kernel at the first
    # product: the same error, after the warnings of the exps it ran
    ops = (np.ones((2, 1)), np.zeros(3), np.ones((3, 1)), np.zeros(1))
    assert _outcome(logspace_add, *ops)[1] is _outcome(ref_logspace_add, *ops)[1] is ValueError


# -- the zero-state yield --------------------------------------------------

def _march_case(rng, n, kind):
    """A source or a lift whose march has unscaled modes, modes scaled by a
    power of two (values past 2^512 or below 2^-969), and zero modes."""
    basis = build_basis(DomainSpec("interval", (float(rng.uniform(0.5, 4.0)),), n))
    T = float(rng.uniform(0.01, 2.0)) / float(basis.lambdas[0])
    nodes = int(rng.integers(2, 9))
    times = np.sort(np.concatenate([[0.0, T], rng.uniform(0.0, T, nodes - 2)]))
    if kind == "lift":
        g = bd.BoundaryData(times, rng.uniform(-1.0, 1.0, (nodes, 2)) * 10.0 ** rng.uniform(-300, 300))
        return basis, None, bd.LiftPath(g, basis), T
    scale = 10.0 ** rng.choice([0.0, 200.0, -300.0, 300.0, -320.0], n)
    coeffs = rng.standard_normal((nodes, n)) * scale
    coeffs[:, rng.random(n) < 0.2] = 0.0
    coeffs[rng.random((nodes, n)) < 0.1] *= -0.0
    return basis, dh.SourceTerm(basis, times, coeffs), None, T


@pytest.mark.parametrize("kind", ["source", "lift"])
@pytest.mark.parametrize("seed", range(12))
def test_yield_is_the_zero_state_join_of_its_march(kind, seed):
    rng = np.random.default_rng([seed, 36])
    basis, f, lift, T = _march_case(rng, int(rng.choice([1, 5, 16, 64])), kind)
    y, march = dh._yield(basis, f, lift, T)
    phase, logmag = ref_join(SpectralVec.zero(basis), march, np.array([march.times.size - 1]))
    assert _same(y.phase, phase[0]) and _same(y.logmag, logmag[0])


# -- a digest of backward solves at fvp-batch's slots ------------------------

# (class, modes, grid nodes, T): the slots of perfbench's fvp-batch
FVP_SLOTS = (
    ("nonmember", 256, 33, 0.5), ("nonmember", 1024, 33, 0.2),
    ("nonmember-p2", 256, 33, 1.0), ("nonmember-p2", 1024, 33, 0.5),
    ("rough", 256, 33, 1.0), ("rough", 1024, 33, 1.0),
    ("member-slow", 256, 33, 0.5), ("member-slow", 1024, 33, 0.5),
    ("inhom-beyond", 256, 9, 0.1), ("inhom-beyond", 1024, 9, 0.1), ("inhom-beyond", 16, 9, 1.0),
    ("decay", 256, 33, 0.5), ("member", 256, 33, 0.5), ("member-p2", 256, 33, 1.0),
    ("decay", 1024, 33, 0.5), ("decay", 1024, 33, 0.2),
    ("member", 1024, 33, 0.2), ("member", 1024, 33, 0.5),
    ("member-p2", 1024, 33, 0.5), ("member-p2", 1024, 33, 1.0),
    ("inhom-inside", 16, 9, 0.05), ("inhom-inside", 16, 17, 0.05), ("inhom-inside", 16, 5, 0.05),
    ("manufactured", 256, 5, 0.2), ("manufactured", 256, 5, 0.5), ("manufactured", 256, 7, 0.5),
    ("manufactured", 256, 7, 1.0), ("manufactured", 256, 9, 1.0),
    ("manufactured", 256, 5, 1.0), ("manufactured", 256, 9, 0.5),
    ("manufactured", 256, 17, 1.0), ("manufactured", 256, 33, 0.5),
    ("manufactured", 1024, 5, 1.0), ("manufactured", 1024, 9, 0.5),
    ("manufactured", 1024, 17, 1.0), ("manufactured", 1024, 33, 0.5),
)
# e^{-a j^p}: the a range, the p range, and whether a is in units of the
# p = 2 edge of membership, T pi^2 / L^2 = T (L = pi here); perfbench's ranges
FAMILIES = {
    "member": ((0.5, 1.0), (2.5, 3.0), False), "member-slow": ((0.01, 0.03), (2.02, 2.08), False),
    "member-p2": ((1.5, 4.0), (2.0, 2.0), True), "nonmember": ((0.1, 1.5), (1.0, 1.8), True),
    "nonmember-p2": ((0.2, 0.8), (2.0, 2.0), True),
}
# recorded before the log-space kernels, the zero-state yield and the
# entry check were rewritten
BACKWARD_DIGEST = "9c66878b5595c92cad08a5e285aeb49ea486c97b4cdd975aa429c90edd6b29a3"


def _fvp_case(cls, basis, nodes, T, rng):
    """(f, g, u_T, tgrid) of one slot, tgrid None for the default grid.
    Families and rough data are built in log space; forward-made data come
    from the program's forward solve."""
    n = basis.n_modes
    lam = basis.lambdas
    j = np.arange(1, n + 1, dtype=float)
    signs = rng.choice([-1.0, 1.0], n)
    if cls == "manufactured":
        u0 = rng.uniform(0.5, 1.0, n) * signs * np.exp(-j)
        fc = rng.choice([-1.0, 1.0], n) * np.exp(-1.2 * lam)
        f = dh.SourceTerm(basis, np.linspace(0.0, T, nodes), np.outer(rng.uniform(0.5, 1.0, nodes), fc))
        u_T = dh.solve_cauchy(SpectralVec.from_coefficients(basis, u0), f, [0.0, T]).final_state
        return f, None, u_T, None
    if cls.startswith("inhom"):
        fc = rng.choice([-1.0, 1.0], n) * np.exp(-1.2 * T * lam)
        f = dh.SourceTerm(basis, [0.0, T], np.vstack([fc, 0.5 * fc]))
        ends = rng.uniform(-1.0, 1.0, (2, 2))
        g = bd.BoundaryData([0.0, T / 2, T], np.vstack([[0.0, 0.0], ends]))
        u0 = SpectralVec.from_coefficients(basis, signs * np.exp(-2.2 * j))
        u_T = bd.solve_ibvp(u0, f, g, [0.0, T]).final_state
        return f, g, u_T, np.linspace(0.0, T, nodes)
    if cls == "decay":
        logmag = -0.3 * j - T * lam
    elif cls == "rough":
        logmag = -np.log(j) if n == 256 else -j
    else:
        (a_lo, a_hi), (p_lo, p_hi), in_t = FAMILIES[cls]
        a = rng.uniform(a_lo, a_hi) * (T if in_t else 1.0)
        logmag = -a * j ** rng.uniform(p_lo, p_hi)
    return None, None, SpectralVec(basis, signs, logmag), None


def backward_digest(seeds=(1, 2)) -> str:
    h = hashlib.sha256()
    bases = {n: build_basis(DomainSpec("interval", (np.pi,), n)) for n in (16, 256, 1024)}
    for seed in seeds:
        rng = np.random.default_rng([seed, 36])
        for cls, n, nodes, T in FVP_SLOTS:
            f, g, u_T, tgrid = _fvp_case(cls, bases[n], nodes, T, rng)
            try:
                sol = bd.solve_final_value_inhom(f, g, u_T, T, tgrid=tgrid)
            except IncompatibleDataError as exc:
                report = exc.report
                h.update(bits(report.log_graph_norms + (report.stabilization_ratio,)).tobytes())
                h.update(report.verdict.encode())
                continue
            rep, traj = sol.compat, sol.trajectory
            h.update(bits(rep.log_graph_norms + (rep.stabilization_ratio,)).tobytes())
            h.update(rep.verdict.encode())
            for a in (rep.u0.phase, rep.u0.logmag, traj.times, traj.phase, traj.logmag):
                h.update(bits(a).tobytes())
            y = dataclasses.astuple(sol.ynorm)
            h.update(bits([np.nan if v is None else v for v in y]).tobytes())
            h.update(bits([sol.endpoint_rel_error]).tobytes())
    return h.hexdigest()


def test_backward_solves_keep_their_digest():
    assert backward_digest() == BACKWARD_DIGEST


# -- refusals the entry check still makes ------------------------------------

def test_arithmetic_that_meets_a_nan_is_refused_as_before():
    basis = build_basis(DomainSpec("interval", (np.pi,), 4))
    huge = SpectralVec(basis, np.ones(4), np.full(4, np.inf))
    with np.errstate(invalid="ignore"):  # inf - inf warns, then the state is refused
        with pytest.raises(InvalidSpecError, match="not NaN"):
            huge - huge
        with pytest.raises(InvalidSpecError, match="not NaN"):
            huge + SpectralVec(basis, -np.ones(4), np.full(4, np.inf))
        with pytest.raises(InvalidSpecError, match="not NaN"):
            apply_inverse(SpectralVec.zero(basis), np.inf)
    with pytest.raises(InvalidSpecError, match="coefficient count does not match"):
        huge.scale_log(np.zeros((2, 4)))
