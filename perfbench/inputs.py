"""Seeded inputs for every workload, built with numpy alone.

The seed varies values (coefficients, signs, amplitudes, matrix entries);
the structure of each workload cycle (mode counts, grid sizes, horizons,
data classes) is fixed, so runs with different seeds do the same amount of
work and their timings can be compared.

Every case carries its ground truth: whether the final data lie in
D(e^{TA}) (closed form for the families c_j = e^{-a j^p}, by construction
for data manufactured from a forward solve) and, where known, the initial
state a backward solve must recover.  Manufactured final states come from
the closed-form variation-of-constants formula below, not from the program.
"""

from __future__ import annotations

import json

import numpy as np

L = float(np.pi)


def lambdas(n: int) -> np.ndarray:
    j = np.arange(1, n + 1, dtype=float)
    return (j * np.pi / L) ** 2


def is_member(a: float, p: float, T: float) -> bool:
    """c_j = e^{-a j^p} lies in D(e^{TA}) on (0, L) iff p > 2, or p = 2 and
    a > T pi^2 / L^2."""
    return p > 2.0 or (p == 2.0 and a > T * np.pi ** 2 / L ** 2)


# -- closed-form forward reference -----------------------------------------

def _phi12(z: np.ndarray):
    small = np.abs(z) < 1e-6
    zs = np.where(small, 1.0, z)
    with np.errstate(over="ignore", under="ignore"):
        em1 = np.expm1(zs)
        phi1 = np.where(small, 1.0 + z / 2 + z * z / 6 + z ** 3 / 24, em1 / zs)
        phi2 = np.where(small, 0.5 + z / 6 + z * z / 24 + z ** 3 / 120, (em1 - zs) / (zs * zs))
    return phi1, phi2


def lift_coefficients(n: int, g_left, g_right) -> np.ndarray:
    """Sine coefficients of x -> g_left + (g_right - g_left) x / L;
    rows follow the leading axis of g_left / g_right."""
    j = np.arange(1, n + 1, dtype=float)
    sign = np.where(j % 2 == 0, 1.0, -1.0)  # (-1)^j
    root = np.sqrt(2.0 / L)
    one = root * L * (1.0 - sign) / (j * np.pi)
    x = root * (-(L ** 2) * sign) / (j * np.pi)
    gl = np.asarray(g_left, dtype=float)[..., None]
    gr = np.asarray(g_right, dtype=float)[..., None]
    return gl * one + ((gr - gl) / L) * x


def _interp_rows(times, rows, at):
    times = np.asarray(times, dtype=float)
    idx = np.clip(np.searchsorted(times, at, side="right") - 1, 0, times.size - 2)
    w = ((at - times[idx]) / (times[idx + 1] - times[idx]))[:, None]
    return (1.0 - w) * rows[idx] + w * rows[idx + 1]


def final_state(u0, T, src=None, bnd=None) -> np.ndarray:
    """u(T) of u' + A u = f with Dirichlet data g, in sine coefficients.

    src = (times, coeffs) piecewise linear; bnd = (times, values (n, 2)).
    The boundary enters as the mode source lambda_j w_j(t), w the affine
    lift; each linear piece is integrated exactly.
    """
    u0 = np.asarray(u0, dtype=complex)
    n = u0.size
    lam = lambdas(n)
    grid = [np.array([0.0, T])]
    if src is not None:
        grid.append(src[0])
    if bnd is not None:
        grid.append(bnd[0])
    ts = np.unique(np.concatenate(grid))
    ts = ts[(ts >= 0.0) & (ts <= T)]
    vals = np.zeros((ts.size, n), dtype=complex)
    if src is not None:
        vals += _interp_rows(src[0], src[1], ts)
    if bnd is not None:
        gl = np.interp(ts, bnd[0], bnd[1][:, 0])
        gr = np.interp(ts, bnd[0], bnd[1][:, 1])
        vals += lam * lift_coefficients(n, gl, gr)
    with np.errstate(under="ignore"):
        out = u0 * np.exp(-T * lam)
        for k in range(ts.size - 1):
            h = ts[k + 1] - ts[k]
            phi1, phi2 = _phi12(-h * lam)
            seg = h * (vals[k] * (phi1 - phi2) + vals[k + 1] * phi2)
            out = out + seg * np.exp(-(T - ts[k + 1]) * lam)
    return out


def rel_error_log(phase, logmag, ref_phase, ref_logmag) -> float:
    """|x - ref|_H / |ref|_H for coefficient vectors given as (phase,
    log-magnitude), rescaled so magnitudes beyond float range compare."""
    ref_logmag = np.asarray(ref_logmag, dtype=float)
    logmag = np.asarray(logmag, dtype=float)
    m = float(np.max(ref_logmag))
    if not np.isfinite(m):
        return 0.0 if np.all(logmag == -np.inf) else float("inf")
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        x = np.asarray(phase) * np.exp(logmag - m)
        r = np.asarray(ref_phase) * np.exp(ref_logmag - m)
        num = np.sqrt(np.sum(np.abs(x - r) ** 2))
        den = np.sqrt(np.sum(np.abs(r) ** 2))
    return float(num / den) if den > 0 else float("inf")


def rel_error(x, ref, allowance=0.0) -> float:
    """|x - ref|_H / |ref|_H, not counting per-mode differences up to
    `allowance`."""
    x = np.asarray(x, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    with np.errstate(invalid="ignore"):
        excess = np.maximum(np.abs(x - ref) - allowance, 0.0)
    return float(np.linalg.norm(excess) / np.linalg.norm(ref))


def recovery_allowance(u0, T, src=None, bnd=None) -> np.ndarray:
    """Per-mode error in a recovered u0 that float64 final data cannot
    rule out: 64 ulps of the terms that make up u_T_j (the decayed initial
    state and the yields), amplified by e^{T lambda_j}.  Where the yields
    exceed the decayed initial state by more than 1/eps, that mode of u0 is
    not in the data at all, and any recovered value up to the allowance is
    as good as the truth."""
    u0 = np.asarray(u0, dtype=complex)
    lam = lambdas(u0.size)
    yields = np.abs(final_state(np.zeros_like(u0), T, src, bnd))
    with np.errstate(over="ignore", divide="ignore"):
        amplified = np.exp(T * lam + np.log(yields))
    return 64.0 * np.finfo(float).eps * (np.abs(u0) + amplified)


# -- value generators ------------------------------------------------------

def signs(rng, n):
    return rng.choice([-1.0, 1.0], n)


def manufactured_source(rng, n, T, nodes, rate=1.2):
    """Criterion-2 style data: u0 ~ e^{-j}, source modes ~ e^{-rate lambda}."""
    j = np.arange(1, n + 1, dtype=float)
    lam = lambdas(n)
    with np.errstate(under="ignore"):
        u0 = rng.uniform(0.5, 1.0, n) * signs(rng, n) * np.exp(-j)
        fc = signs(rng, n) * np.exp(-rate * lam)
    ts = np.linspace(0.0, T, nodes)
    coeffs = np.outer(rng.uniform(0.5, 1.0, nodes), fc).astype(complex)
    return u0, ts, coeffs


def boundary_ramp(rng, T):
    """Dirichlet data starting from rest with a kink halfway."""
    v = rng.uniform(-1.0, 1.0, (2, 2))
    return np.array([0.0, T / 2, T]), np.array([[0.0, 0.0], v[0], v[1]])


def inhom_case(rng, n, T):
    """tests/test_boundary.py's inhom_instance with seeded signs and
    boundary values: u0 ~ e^{-2.2 j}, source ~ e^{-1.2 T lambda}."""
    j = np.arange(1, n + 1, dtype=float)
    lam = lambdas(n)
    u0 = signs(rng, n) * np.exp(-2.2 * j)
    fc = signs(rng, n) * np.exp(-1.2 * T * lam)
    src = (np.array([0.0, T]), np.vstack([fc, 0.5 * fc]).astype(complex))
    bnd = boundary_ramp(rng, T)
    return u0, src, bnd


def family_params(rng, cls: str, T: float):
    """(a, p) of e^{-a j^p} for one data class; the ranges keep each class's
    verdict the same for every seed at the seed commit.

    member       p in [2.5, 3], a in [0.5, 1]: decays from j = 1 (T <= 0.5)
    member-slow  p in [2.02, 2.08], a in [0.01, 0.03]: a member whose terms
                 e^{T j^2 - a j^p} still grow at j = 1024, so every ladder
                 sees growth
    member-p2    p = 2, a in [1.5, 4] x Tpi^2/L^2
    nonmember    p in [1, 1.8], a in [0.1, 1.5] x Tpi^2/L^2
    nonmember-p2 p = 2, a in [0.2, 0.8] x Tpi^2/L^2
    nonmember-f64  p in [1, 1.2], a in [0.02, 0.1]: a j^p <= 410 up to
                 j = 1024, so the whole tail stays a normal float64 and a
                 state file keeps it.  (Where the tail underflows to 0, the
                 file holds finitely many modes, which is a member.)

    Non-members have their growth crossover j* = (a/T)^{1/(2-p)} below 8,
    inside the lowest rung of every ladder used here.  A non-member whose
    crossover lies beyond N is smooth at that truncation, and no finite
    test can tell it from a member.
    """
    a_crit = T * np.pi ** 2 / L ** 2
    if cls == "member":
        return float(rng.uniform(0.5, 1.0)), float(rng.uniform(2.5, 3.0))
    if cls == "member-slow":
        return float(rng.uniform(0.01, 0.03)), float(rng.uniform(2.02, 2.08))
    if cls == "member-p2":
        return float(a_crit * rng.uniform(1.5, 4.0)), 2.0
    if cls == "nonmember":
        return float(a_crit * rng.uniform(0.1, 1.5)), float(rng.uniform(1.0, 1.8))
    if cls == "nonmember-p2":
        return float(a_crit * rng.uniform(0.2, 0.8)), 2.0
    if cls == "nonmember-f64":
        return float(rng.uniform(0.02, 0.1)), float(rng.uniform(1.0, 1.2))
    raise ValueError(f"unknown family class {cls!r}")


def family_logmag(n, a, p):
    j = np.arange(1, n + 1, dtype=float)
    return -a * j ** p


def elliptic_matrix(rng, dim: int, selfadjoint: bool) -> np.ndarray:
    """Hermitian part with spectrum in [0.5, 3] plus a unit skew part."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    h = (q * rng.uniform(0.5, 3.0, dim)) @ q.conj().T
    h = 0.5 * (h + h.conj().T)
    if selfadjoint:
        return h
    s = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return h + 0.5 * (s - s.conj().T)


# -- file formats read by the command-line tool -----------------------------

def vec_json(coeffs, modes: int) -> str:
    """A state file: interval basis descriptor plus (re, im) pairs."""
    c = np.asarray(coeffs, dtype=complex)
    payload = {
        "basis": {"kind": "interval", "lengths": [L], "modes": int(modes)},
        "coefficients": [[float(z.real), float(z.imag)] for z in c],
    }
    return json.dumps(payload, sort_keys=True)


def source_csv(times, coeffs) -> str:
    n = coeffs.shape[1]
    head = ["t"] + [f"mode_{j}_{p}" for j in range(1, n + 1) for p in ("re", "im")]
    lines = [",".join(head)]
    for t, row in zip(times, coeffs):
        fields = [repr(float(t))]
        for z in row:
            fields += [repr(float(z.real)), repr(float(z.imag))]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def boundary_csv(times, values) -> str:
    lines = ["t,g_left,g_right"]
    lines += [f"{float(t)!r},{float(a)!r},{float(b)!r}" for t, (a, b) in zip(times, values)]
    return "\n".join(lines) + "\n"


def matrix_text(a) -> str:
    rows = [str(a.shape[0])]
    rows += [" ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row) for row in a]
    return "\n".join(rows) + "\n"


def config_text(entries: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in entries.items())
