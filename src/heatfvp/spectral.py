"""Dirichlet sine eigenbasis on an interval.

Eigenpairs are closed form, so no numerical eigensolver is involved; the
variational-triple constants and the three norms (pivot space, form domain,
dual) are computed directly from the coefficients.  Coefficient vectors are
stored as (phase, log-magnitude) pairs, which lets downstream code carry
factors like e^{T*lambda} without overflowing; the linear coefficients are
recomputed on demand, and are inf where they leave float64 range.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property

import numpy as np

from .logspace import LOG_MAX, log_sum_exp, logspace_add, merge_phase, split_phase


class InvalidSpecError(ValueError):
    """Domain or basis description violates a documented precondition."""


class GridMismatchError(ValueError):
    """Sample array does not live on the expected quadrature grid."""


def _read_only(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


def _check_horizon(T, basis: "EigenBasis | None" = None) -> None:
    """The one check of a time horizon: finite and positive, and with a
    basis also short enough that the backward exponent 2 T lambda_N of the
    graph norms is finite."""
    if not (math.isfinite(T) and T > 0):
        raise InvalidSpecError("horizon T must be finite and positive")
    if basis is not None and not math.isfinite(2.0 * float(T) * float(basis.lambdas[-1])):
        raise InvalidSpecError("horizon T is too long for this basis: 2 T lambda_N leaves float64 range")


@dataclass(frozen=True)
class DomainSpec:
    """Interval (0, L) with homogeneous Dirichlet spectrum, plus the mode
    count.  `kind` is always "interval" and `lengths` is (L,): both are kept
    because the state JSON carries them."""

    kind: str
    lengths: tuple
    modes: int

    def __post_init__(self):
        if self.kind != "interval":
            raise InvalidSpecError(f"unknown domain kind {self.kind!r}")
        lengths = tuple(float(x) for x in np.atleast_1d(np.asarray(self.lengths, dtype=float)))
        object.__setattr__(self, "lengths", lengths)
        if len(lengths) != 1:
            raise InvalidSpecError(f"interval needs 1 length, got {len(lengths)}")
        if not (np.isfinite(lengths[0]) and lengths[0] > 0.0):
            raise InvalidSpecError("the length must be finite and positive")
        # bool is an int, and a float or a string is no count: refuse, never coerce
        if isinstance(self.modes, bool) or not (isinstance(self.modes, (int, np.integer)) and self.modes >= 1):
            raise InvalidSpecError("modes must be an integer >= 1")
        object.__setattr__(self, "modes", int(self.modes))  # an np.int64 count still serializes


def _simpson_weights(length: float, panels: int) -> np.ndarray:
    # composite Simpson; panels must be even
    if panels % 2 or panels < 2:
        raise InvalidSpecError("Simpson rule needs an even panel count >= 2")
    h = length / panels
    w = np.full(panels + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def _sine_table(L: float, modes: int, points) -> np.ndarray:
    """Normalized Dirichlet eigenfunctions sqrt(2/L) sin(j pi x / L), one
    row per mode j = 1..modes, one column per point; every sine table of
    the package is built here."""
    j = np.arange(1, modes + 1, dtype=float)
    return np.sqrt(2.0 / L) * np.sin(np.outer(j, np.asarray(points, dtype=float)) * (np.pi / L))


def _dst1(a) -> np.ndarray:
    """Unnormalized DST-I along the last axis: y_k = sum_i a_i sin(pi i k / (n + 1))
    for i, k = 1..n, read off the real FFT of the odd extension (Martucci,
    IEEE Trans. Signal Process. 42(5), 1994).  Applied twice it returns
    (n + 1) / 2 times its input.  numpy.fft is reached at call time, so
    importing the package does not load it."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return _dst1(a.real) + 1j * _dst1(a.imag)
    n = a.shape[-1]
    ext = np.zeros(a.shape[:-1] + (2 * n + 2,))
    ext[..., 1:n + 1] = a
    ext[..., n + 2:] = -a[..., ::-1]
    return -0.5 * np.fft.rfft(ext, axis=-1).imag[..., 1:n + 1]


def _alias(modes: int, panels: int):
    """Where mode j = 1..modes lands on the M - 1 interior nodes of a uniform
    grid of M = panels panels: sin(j pi i / M) equals sign * sin(k pi i / M)
    for the DST-I bin k - 1 returned, and vanishes at every node where
    `live` is False."""
    r = np.arange(1, modes + 1) % (2 * panels)
    upper = r > panels
    k = np.where(upper, 2 * panels - r, r)
    return k - 1, np.where(upper, -1.0, 1.0), (k > 0) & (k < panels)


def _simpson_dst(f, L: float, panels: int, modes: int) -> np.ndarray:
    """Composite-Simpson inner products, along the last axis, of samples on
    np.linspace(0, L, panels + 1) with the sines of modes 1..modes.  Every
    mode vanishes at both ends, so the sums are one DST-I of the weighted
    interior samples; a mode j >= panels takes the value of the bin it
    aliases to on the grid."""
    bins = np.sqrt(2.0 / L) * _dst1((_simpson_weights(L, panels) * f)[..., 1:-1])
    k, sign, live = _alias(modes, panels)
    coeffs = np.zeros(bins.shape[:-1] + (modes,), dtype=bins.dtype)
    coeffs[..., live] = sign[live] * bins[..., k[live]]
    return coeffs


def _uniform_dst(c, L: float, panels: int) -> np.ndarray:
    """Mode sums, along the last axis, of coefficients of modes
    1..c.shape[-1] on np.linspace(0, L, panels + 1), endpoints included: the
    coefficients are folded onto the panels - 1 interior nodes as their
    modes alias there, and one DST-I sums them."""
    k, sign, live = _alias(c.shape[-1], panels)
    folded = np.zeros(c.shape[:-1] + (panels - 1,), dtype=c.dtype)
    np.add.at(folded, (..., k[live]), sign[live] * c[..., live])
    out = np.zeros(c.shape[:-1] + (panels + 1,), dtype=c.dtype)
    out[..., 1:-1] = np.sqrt(2.0 / L) * _dst1(folded)
    return out


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Sorted Dirichlet eigenpairs.

    Attributes:
        spec: the generating DomainSpec.
        lambdas: eigenvalues (j pi / L)^2 of modes j = 1..modes, ascending.
        C1, C2, C3, C4: constants of the norm chain and of the Dirichlet
            form, valid for the spectral representation: ||v||_* <= C1 |v|
            <= C2 ||v||, |a(u,v)| <= C3 ||u|| ||v||, Re a(v,v) >= C4 ||v||^2.

    `axes` holds the nodes of the quadrature grid, 8*modes panels, on
    which `analyze` reads and the default `synthesize` writes samples; both
    run as sine transforms and build no table.  `weights` (Simpson weights)
    and `sines` (the modes-by-nodes sine table, O(N^2) memory) are read by
    nothing in the package, only by `_table_bytes` in perfbench/spans.py;
    they go once that probe stops reading them.  All three are one-element
    tuples, which that probe iterates, and cached properties, computed on
    first read.
    """

    spec: DomainSpec
    lambdas: np.ndarray
    C1: float = 0.0
    C2: float = 0.0
    C3: float = 1.0
    C4: float = 1.0

    @cached_property
    def axes(self) -> tuple:
        panels = 8 * self.spec.modes
        return tuple(np.linspace(0.0, L, panels + 1) for L in self.spec.lengths)

    @cached_property
    def weights(self) -> tuple:
        panels = 8 * self.spec.modes
        return tuple(_simpson_weights(L, panels) for L in self.spec.lengths)

    @cached_property
    def sines(self) -> tuple:
        return tuple(_sine_table(L, self.spec.modes, x) for L, x in zip(self.spec.lengths, self.axes))

    @property
    def n_modes(self) -> int:
        return int(self.lambdas.size)

    def same_as(self, other: "EigenBasis") -> bool:
        return self.spec == other.spec

    def lift_coefficients(self, g_left: complex, g_right: complex) -> np.ndarray:
        """Sine coefficients of the affine function matching the endpoint
        values, i.e. g_left + (g_right - g_left) x / L."""
        (L,) = self.spec.lengths
        j = np.arange(1, self.spec.modes + 1, dtype=float)
        cosjpi = np.cos(j * np.pi)  # (-1)^j without accumulating phase error
        root = np.sqrt(2.0 / L)
        coeff_one = root * L * (1.0 - cosjpi) / (j * np.pi)
        coeff_x = root * (-(L ** 2) * cosjpi) / (j * np.pi)
        return g_left * coeff_one + ((g_right - g_left) / L) * coeff_x

    def mode_values(self, points) -> np.ndarray:
        """Eigenfunction values on arbitrary points, rows indexed by mode."""
        (L,) = self.spec.lengths
        return _sine_table(L, self.spec.modes, points)


def build_basis(spec: DomainSpec) -> EigenBasis:
    """Assemble the eigenbasis; quadrature tables wait for first use.

    Refuses lengths whose spectrum leaves float64 range: the largest
    eigenvalue must be finite and the smallest must have a finite
    reciprocal, the constant C2.
    """
    (L,) = spec.lengths
    j = np.arange(1, spec.modes + 1, dtype=float)
    with np.errstate(over="ignore"):
        lambdas = (j * np.pi / L) ** 2
    lam1 = float(lambdas[0])
    if not (math.isfinite(float(lambdas[-1])) and lam1 > 0.0 and math.isfinite(1.0 / lam1)):
        raise InvalidSpecError("domain lengths put the Dirichlet spectrum outside float64 range")
    return EigenBasis(
        spec=spec,
        lambdas=_read_only(lambdas),
        C1=lam1 ** -0.5,
        C2=1.0 / lam1,
        C3=1.0,
        C4=1.0,
    )


@dataclass(eq=False)
class SpectralVec:
    """Coefficient vector against an EigenBasis.

    Magnitudes live in log space (`logmag`, natural log) with unit complex
    `phase`; `coefficients` rebuilds the linear mirror, which is inf where
    the stored magnitude exceeds float64 range.
    """

    basis: EigenBasis
    phase: np.ndarray
    logmag: np.ndarray

    def __post_init__(self):
        self.phase = np.asarray(self.phase, dtype=np.complex128)
        self.logmag = np.asarray(self.logmag, dtype=np.float64)
        if self.phase.shape != (self.basis.n_modes,) or self.logmag.shape != (self.basis.n_modes,):
            raise InvalidSpecError("coefficient count does not match the basis")

    # -- constructors -------------------------------------------------
    @classmethod
    def from_coefficients(cls, basis: EigenBasis, coeffs) -> "SpectralVec":
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.shape != (basis.n_modes,):
            raise InvalidSpecError("coefficient count does not match the basis")
        if not np.all(np.isfinite(c)):
            raise InvalidSpecError("coefficients must be finite")
        phase, logmag = split_phase(c)
        return cls(basis, phase, logmag)

    @classmethod
    def zero(cls, basis: EigenBasis) -> "SpectralVec":
        n = basis.n_modes
        return cls(basis, np.zeros(n, dtype=np.complex128), np.full(n, -np.inf))

    @classmethod
    def unit(cls, basis: EigenBasis, mode: int) -> "SpectralVec":
        """Basis vector for the given 1-based sorted mode index."""
        if not 1 <= mode <= basis.n_modes:
            raise InvalidSpecError(f"mode {mode} outside 1..{basis.n_modes}")
        v = cls.zero(basis)
        v.phase[mode - 1] = 1.0
        v.logmag[mode - 1] = 0.0
        return v

    # -- views ---------------------------------------------------------
    @property
    def coefficients(self) -> np.ndarray:
        return merge_phase(self.phase, self.logmag)

    @property
    def overflowed(self) -> bool:
        return bool(np.any(self.logmag > LOG_MAX))

    # -- arithmetic ----------------------------------------------------
    def scale_log(self, delta) -> "SpectralVec":
        """Multiply each mode by e^{delta_j}; exact in log space."""
        return SpectralVec(self.basis, self.phase.copy(), self.logmag + np.asarray(delta, dtype=float))

    def scaled(self, factor: complex) -> "SpectralVec":
        if factor == 0:
            return SpectralVec.zero(self.basis)
        fp, fl = split_phase(np.array([factor]))
        return SpectralVec(self.basis, self.phase * fp[0], self.logmag + fl[0])

    def __add__(self, other: "SpectralVec") -> "SpectralVec":
        if not self.basis.same_as(other.basis):
            raise InvalidSpecError("basis mismatch in addition")
        p, l = logspace_add(self.phase, self.logmag, other.phase, other.logmag)
        return SpectralVec(self.basis, p, l)

    def __sub__(self, other: "SpectralVec") -> "SpectralVec":
        if not self.basis.same_as(other.basis):
            raise InvalidSpecError("basis mismatch in subtraction")
        p, l = logspace_add(self.phase, self.logmag, -other.phase, other.logmag)
        return SpectralVec(self.basis, p, l)


@dataclass(frozen=True)
class TripleNorms:
    """The three squared-sum norms of one coefficient vector, or of each
    row of a stack (then every field is an array of shape (rows,)).

    normVstar <= C1 * normH <= C2 * normV always holds for a Dirichlet
    basis.  The log fields are half the log of the linear sums, or, for a
    row past float64 range or sinking toward the subnormals, sums in log
    space.  When the linear mirror overflows, the linear fields are the
    exponentials of the log fields (inf past float64 range) and
    `overflowed` is set; the log fields stay exact either way.
    """

    normH: float
    normV: float
    normVstar: float
    log_normH: float
    log_normV: float
    log_normVstar: float
    overflowed: bool

    def row(self, i: int) -> "TripleNorms":
        """Row i of a stack, with float and bool fields."""
        return TripleNorms(
            float(self.normH[i]), float(self.normV[i]), float(self.normVstar[i]),
            float(self.log_normH[i]), float(self.log_normV[i]), float(self.log_normVstar[i]),
            bool(self.overflowed[i]),
        )


def _weighted_norm(logmag: np.ndarray, log_weight: np.ndarray):
    # 0.5 * log(sum(w_j |c_j|^2)) per row
    return 0.5 * log_sum_exp(2.0 * logmag + log_weight)


def stacked_norms(basis: EigenBasis, phase: np.ndarray, logmag: np.ndarray) -> TripleNorms:
    """Pivot, form-domain and dual norms of each row of a (rows, n_modes)
    stack in phase/log-magnitude form.

    Every term is nonnegative, so numpy's sum along the modes errs by about
    ceil(log2 n_modes) eps relative, and the log fields are half the log of
    those sums.  A row where any term would overflow takes the values
    computed in log space and is flagged; a sum whose largest term lies so
    low that the terms flushed toward the subnormals could count (or a zero
    sum) takes its log field from `log_sum_exp`.  The stack is merged to
    linear scale once, and `_stacked_norms` takes it from there.
    """
    return _stacked_norms(basis, merge_phase(phase, logmag), logmag)


def _stacked_norms(basis: EigenBasis, coeffs: np.ndarray, logmag: np.ndarray) -> TripleNorms:
    """`stacked_norms` of rows already merged: `coeffs` is merge_phase(phase, logmag)."""
    lam = basis.lambdas
    n = max(basis.n_modes, 1)
    log_lam = np.log(lam)
    # linear path is valid while the largest weighted term stays in range
    top = 2.0 * np.max(logmag, axis=-1, initial=-np.inf) + float(np.max(log_lam)) + np.log(n)
    overflowed = np.isfinite(top) & (top > LOG_MAX - 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        c2 = np.abs(coeffs) ** 2
        terms = np.empty(c2.shape[:-1] + (3, lam.size))
        terms[..., 0, :] = c2
        np.multiply(lam, c2, out=terms[..., 1, :])
        np.divide(c2, lam, out=terms[..., 2, :])
        sums = terms.sum(axis=-1)
        # a term that sinks below the smallest normal float64 errs by at
        # most 2^-1075 before its weight w and again after it; past this
        # floor on the largest term, the n such errors stay below eps / 4
        # of the sum
        floor = n * 2.0 ** -1021 * (1.0 + np.array([1.0, float(lam.max()), 1.0 / float(lam.min())]))
        linear = ~overflowed[..., None] & (terms.max(axis=-1) >= floor)
        logs = np.empty(sums.shape)
        logs[linear] = 0.5 * np.log(sums[linear])
        rest = np.nonzero(~linear)
        if rest[0].size:
            # the H, V and V* sums of every such row run as one stack
            log_weight = np.stack([np.zeros_like(lam), log_lam, -log_lam])
            logs[rest] = _weighted_norm(logmag[rest[:-1]], log_weight[rest[-1]])
        norms = np.where(overflowed[..., None], np.exp(logs), np.sqrt(sums))
    return TripleNorms(*norms.T, *logs.T, overflowed)


def triple_norms(vec: SpectralVec) -> TripleNorms:
    """Pivot, form-domain and dual norms of one coefficient vector: the
    one-row case of `stacked_norms`."""
    return stacked_norms(vec.basis, vec.phase[None], vec.logmag[None]).row(0)


def norm_h(vec: SpectralVec) -> float:
    return triple_norms(vec).normH


def rel_distance(a: SpectralVec, b: SpectralVec) -> float:
    """|a - b|_H / |b|_H, computed in log space so huge vectors compare."""
    diff = a - b
    num = _weighted_norm(diff.logmag, np.zeros_like(a.basis.lambdas))
    den = _weighted_norm(b.logmag, np.zeros_like(a.basis.lambdas))
    if den == -np.inf:
        return 0.0 if num == -np.inf else np.inf
    with np.errstate(over="ignore"):  # a distance past float64 range reads inf
        return float(np.exp(num - den))


# -- transforms ---------------------------------------------------------

def analyze(samples, basis: EigenBasis) -> SpectralVec:
    """Project samples on the basis quadrature grid onto the eigenmodes.

    Composite Simpson with 8*modes panels integrates products of basis
    modes exactly (discrete orthogonality), so analyze/synthesize
    round-trip on the span at machine precision.  The sums run as one
    Simpson-weighted DST-I.
    """
    N = basis.spec.modes
    (L,) = basis.spec.lengths
    f = np.asarray(samples)
    if f.shape != (8 * N + 1,):
        raise GridMismatchError(f"samples have shape {f.shape}, quadrature grid is {(8 * N + 1,)}")
    return SpectralVec.from_coefficients(basis, _simpson_dst(f, L, 8 * N, N))


def project_samples(samples, grid, basis: EigenBasis) -> SpectralVec:
    """Like analyze, but on a caller-supplied uniform grid covering [0, L]
    with an even panel count (used to project oracle output)."""
    x = np.asarray(grid, dtype=float)
    f = np.asarray(samples)
    if x.ndim != 1 or f.shape != x.shape:
        raise GridMismatchError("grid and samples must be matching 1-d arrays")
    (L,) = basis.spec.lengths
    if abs(x[0]) > 1e-12 * L or abs(x[-1] - L) > 1e-12 * L:
        raise GridMismatchError("grid must span [0, L]")
    steps = np.diff(x)
    if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-10, atol=0.0):
        raise GridMismatchError("grid must be uniform and increasing")
    panels = x.size - 1
    if panels % 2 != 0:
        raise GridMismatchError("grid needs an even panel count")
    return SpectralVec.from_coefficients(basis, _simpson_dst(f, L, panels, basis.spec.modes))


def uniform_samples(vec: SpectralVec, panels: int) -> np.ndarray:
    """Evaluate the mode sum on np.linspace(0, L, panels + 1), endpoints
    included, by one DST-I.  Real where every coefficient is real.  A
    sample past float64 range is refused.
    """
    if not (isinstance(panels, (int, np.integer)) and panels >= 2):
        raise InvalidSpecError("uniform sampling needs an integer panel count >= 2")
    if vec.overflowed:
        raise OverflowError("coefficients exceed linear floating-point range")
    c = vec.coefficients
    (L,) = vec.basis.spec.lengths
    with np.errstate(over="ignore", invalid="ignore"):
        out = _uniform_dst(c if np.any(c.imag) else c.real, L, panels)
    if not np.all(np.isfinite(out)):
        raise InvalidSpecError("uniform samples leave floating-point range")
    return out


def synthesize(vec: SpectralVec, points=None) -> np.ndarray:
    """Evaluate the mode sum pointwise.

    Defaults to the quadrature grid, one inverse DST-I; pass points for
    a custom grid.  Raises if any coefficient exceeds linear float range.
    """
    if vec.overflowed:
        raise OverflowError("coefficients exceed linear floating-point range")
    N = vec.basis.spec.modes
    (L,) = vec.basis.spec.lengths
    c = vec.coefficients
    if points is None:
        out = _uniform_dst(c if np.any(c.imag) else c.real, L, 8 * N)
    else:
        out = c @ _sine_table(L, N, points)
    if np.max(np.abs(out.imag), initial=0.0) == 0.0:
        return out.real
    return out


# -- serialization ------------------------------------------------------

def json_payload(value):
    """The one JSON form of a result, with the one rule for a number JSON
    cannot carry: +-inf becomes the string "inf" or "-inf", and NaN is kept,
    so that `strict_json` refuses it.

    A report dataclass becomes a dict of its fields by name, leaving out the
    fields that are None and those kept out of its repr: an attached state
    (CompatReport.u0), a value also held as its parts
    (SectorReport.argmax_lambda) or the curves behind a verdict
    (DecayReport.norms).  Dicts, lists, tuples and arrays are mapped item
    by item.
    """
    if is_dataclass(value):
        return {
            f.name: json_payload(v)
            for f in fields(value)
            if f.repr and (v := getattr(value, f.name)) is not None
        }
    if isinstance(value, dict):
        return {k: json_payload(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [json_payload(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def strict_json(payload) -> str:
    """The one JSON writer: sorted keys, and no NaN or Infinity, which
    strict JSON parsers reject."""
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InvalidSpecError("a result holds a non-finite number, which JSON cannot carry") from exc


def vec_to_json(vec: SpectralVec) -> str:
    """JSON with the basis descriptor and (re, im) coefficient pairs."""
    c = vec.coefficients
    if not np.all(np.isfinite(c.real) & np.isfinite(c.imag)):
        raise OverflowError("cannot serialize coefficients beyond linear range")
    payload = {
        "basis": {
            "kind": vec.basis.spec.kind,
            "lengths": list(vec.basis.spec.lengths),
            "modes": vec.basis.spec.modes,
        },
        "coefficients": [[float(z.real), float(z.imag)] for z in c],
    }
    return strict_json(payload)


def vec_from_json(text: str, basis: EigenBasis | None = None) -> SpectralVec:
    payload = json.loads(text)
    try:
        desc = payload["basis"]
        spec = DomainSpec(kind=desc["kind"], lengths=tuple(desc["lengths"]), modes=desc["modes"])
        coeffs = np.array([complex(re, im) for re, im in payload["coefficients"]])
    except KeyError as exc:
        raise InvalidSpecError(f"state JSON lacks the key {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise InvalidSpecError(f"state JSON has the wrong layout: {exc}") from exc
    if basis is None:
        basis = build_basis(spec)
    elif basis.spec != spec:
        raise InvalidSpecError("stored basis descriptor does not match the supplied basis")
    return SpectralVec.from_coefficients(basis, coeffs)
