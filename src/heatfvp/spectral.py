"""Dirichlet sine eigenbasis on an interval.

Eigenpairs are closed form, so no numerical eigensolver is involved; the
variational-triple constants and the three norms (pivot space, form domain,
dual) are computed directly from the coefficients.  The eigenfunctions are
real, so coefficients are real: vectors are stored as (sign, log-magnitude)
pairs, which lets downstream code carry factors like e^{T*lambda} without
overflowing; the linear coefficients are recomputed on demand, and are inf
where they leave float64 range.  Coefficients and samples from outside pass
`logspace._real`, which refuses a nonzero imaginary part.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property

import numpy as np

from .logspace import LOG_MAX, InvalidSpecError, _real, log_sum_exp, logspace_add, merge_phase, split_phase


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


def _json_number(x, what: str) -> float:
    """A number read from a file as a float.  A bool is an int and a string
    no number: both are refused, never coerced.  An int past float64 range
    reads as a signed infinity, which the caller refuses as non-finite."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise InvalidSpecError(f"{what} must be a number")
    if isinstance(x, int) and abs(x) > sys.float_info.max:
        return math.inf if x > 0 else -math.inf
    return float(x)


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
        lengths = tuple(np.atleast_1d(np.asarray(self.lengths, dtype=object)).tolist())
        if len(lengths) != 1:
            raise InvalidSpecError(f"interval needs 1 length, got {len(lengths)}")
        (L,) = lengths
        L = _json_number(L, "the length")
        if not (math.isfinite(L) and L > 0.0):
            raise InvalidSpecError("the length must be finite and positive")
        object.__setattr__(self, "lengths", (L,))
        # a bool is an int and a float no count: refuse, never coerce
        if isinstance(self.modes, bool) or not (isinstance(self.modes, (int, np.integer)) and self.modes >= 1):
            raise InvalidSpecError("modes must be an integer >= 1")
        object.__setattr__(self, "modes", int(self.modes))  # an np.int64 count still serializes


def _simpson_weights(length: float, panels: int) -> np.ndarray:
    # composite Simpson; every caller passes 8 * modes panels, or a count
    # project_samples has checked to be even and >= 2
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
    return np.sqrt(2.0 / L) * np.sin(np.outer(j, _real(points, "points")) * (np.pi / L))


def _dst1(a) -> np.ndarray:
    """Unnormalized DST-I along the last axis: y_k = sum_i a_i sin(pi i k / (n + 1))
    for i, k = 1..n, read off the real FFT of the odd extension (Martucci,
    IEEE Trans. Signal Process. 42(5), 1994).  Applied twice it returns
    (n + 1) / 2 times its input.  numpy.fft is reached at call time, so
    importing the package does not load it."""
    a = np.asarray(a)
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

    The norm chain ||v||_* <= C1 |v| <= C2 ||v|| and the form bounds
    |a(u,v)| <= C3 ||u|| ||v||, Re a(v,v) >= C4 ||v||^2 hold with
    C1 = lambda_1^{-1/2} and C2 = 1/lambda_1, read off `lambdas`, and C3 = C4 = 1.

    `axes` holds the nodes of the quadrature grid, 8*modes panels, on
    which `analyze` reads and `uniform_samples(vec, 8 * modes)` writes
    samples; both run as sine transforms and build no table.  `weights`
    (Simpson weights) and `sines` (the modes-by-nodes sine table, O(N^2)
    memory) are read by nothing in the package, only by `_table_bytes` in
    perfbench/spans.py; they go once that probe stops reading them.  All
    three are one-element tuples, which that probe iterates, and cached
    properties, computed on first read.
    """

    spec: DomainSpec
    lambdas: np.ndarray
    C3 = C4 = 1.0

    @property
    def C1(self) -> float:
        return float(self.lambdas[0]) ** -0.5

    @property
    def C2(self) -> float:
        return 1.0 / float(self.lambdas[0])

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

    def lift_coefficients(self, g_left: float, g_right: float) -> np.ndarray:
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
    return EigenBasis(spec, _read_only(lambdas))


@dataclass(eq=False)
class SpectralVec:
    """Coefficient vector against an EigenBasis.

    Magnitudes live in log space (`logmag`, natural log) with a real sign
    `phase` in {-1, 0, 1}; `coefficients` rebuilds the linear mirror, which
    is inf where the stored magnitude exceeds float64 range.
    """

    basis: EigenBasis
    phase: np.ndarray
    logmag: np.ndarray

    def __post_init__(self):
        self.phase = _real(self.phase, "the phase")
        self.logmag = np.asarray(self.logmag, dtype=np.float64)
        if self.phase.shape != (self.basis.n_modes,) or self.logmag.shape != (self.basis.n_modes,):
            raise InvalidSpecError("coefficient count does not match the basis")
        # a NaN would reach the membership ladder and get a verdict
        if (np.sign(self.phase) != self.phase).any() or np.isnan(self.logmag).any():
            raise InvalidSpecError("a state needs signs in {-1, 0, 1} and log magnitudes that are not NaN")

    # -- constructors -------------------------------------------------
    @classmethod
    def from_coefficients(cls, basis: EigenBasis, coeffs) -> "SpectralVec":
        c = _real(coeffs, "coefficients")
        if not np.all(np.isfinite(c)):
            raise InvalidSpecError("coefficients must be finite")
        phase, logmag = split_phase(c)
        return cls(basis, phase, logmag)

    @classmethod
    def zero(cls, basis: EigenBasis) -> "SpectralVec":
        n = basis.n_modes
        return cls(basis, np.zeros(n), np.full(n, -np.inf))

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

    def scaled(self, factor: float) -> "SpectralVec":
        if factor == 0:
            return SpectralVec.zero(self.basis)
        fp, fl = split_phase([factor])
        return SpectralVec(self.basis, self.phase * fp[0], self.logmag + fl[0])

    def __add__(self, other: "SpectralVec") -> "SpectralVec":
        if not self.basis.same_as(other.basis):
            raise InvalidSpecError("basis mismatch in addition")
        p, l = logspace_add(self.phase, self.logmag, other.phase, other.logmag)
        return SpectralVec(self.basis, p, l)

    def _minus(self, other: "SpectralVec"):
        """The (phase, logmag) arrays of self - other, with no state built."""
        if not self.basis.same_as(other.basis):
            raise InvalidSpecError("basis mismatch in subtraction")
        return logspace_add(self.phase, self.logmag, -other.phase, other.logmag)

    def __sub__(self, other: "SpectralVec") -> "SpectralVec":
        return SpectralVec(self.basis, *self._minus(other))


@dataclass(frozen=True)
class TripleNorms:
    """The three squared-sum norms of one coefficient vector, or of each
    row of a stack (then every field is an array of shape (rows,)).

    normVstar <= C1 * normH <= C2 * normV always holds for a Dirichlet
    basis.  `log_normH` is half the log of the linear sum, or, for a row
    past float64 range or sinking toward the subnormals, the sum in log
    space.  When the linear mirror overflows, the linear fields are the
    exponentials of their log-space sums (inf past float64 range);
    `log_normH` stays exact either way.
    """

    normH: float
    normV: float
    normVstar: float
    log_normH: float

    def row(self, i: int) -> "TripleNorms":
        """Row i of a stack, with float fields."""
        return TripleNorms(float(self.normH[i]), float(self.normV[i]), float(self.normVstar[i]), float(self.log_normH[i]))


def _weighted_norm(logmag: np.ndarray, log_weight: np.ndarray):
    # 0.5 * log(sum(w_j |c_j|^2)) per row
    return 0.5 * log_sum_exp(2.0 * logmag + log_weight)


def _stacked_norms(basis: EigenBasis, coeffs: np.ndarray, logmag: np.ndarray) -> TripleNorms:
    """Pivot, form-domain and dual norms of each row of a (rows, n_modes)
    stack in sign/log-magnitude form, merged to linear scale once by the
    caller: `coeffs` is merge_phase(phase, logmag).

    Every term is nonnegative, so numpy's sum along the modes errs by about
    ceil(log2 n_modes) eps relative, and the log norms are half the log of
    those sums.  A row where any term would overflow takes the values
    computed in log space; a sum whose largest term lies so low that the
    terms flushed toward the subnormals could count (or a zero sum) takes
    its log norm from `log_sum_exp`.
    """
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
    return TripleNorms(*norms.T, logs[..., 0])


def triple_norms(vec: SpectralVec) -> TripleNorms:
    """Pivot, form-domain and dual norms of one coefficient vector: the
    one-row case of `_stacked_norms`."""
    return _stacked_norms(vec.basis, vec.coefficients[None], vec.logmag[None]).row(0)


def norm_h(vec: SpectralVec) -> float:
    return triple_norms(vec).normH


def rel_distance(a: SpectralVec, b: SpectralVec) -> float:
    """|a - b|_H / |b|_H, computed in log space so huge vectors compare;
    the difference is read off its arrays, not built as a state."""
    num = _weighted_norm(a._minus(b)[1], np.zeros_like(a.basis.lambdas))
    den = _weighted_norm(b.logmag, np.zeros_like(a.basis.lambdas))
    if den == -np.inf:
        return 0.0 if num == -np.inf else np.inf
    with np.errstate(over="ignore"):  # a distance past float64 range reads inf
        return float(np.exp(num - den))


# -- transforms ---------------------------------------------------------

def analyze(samples, basis: EigenBasis) -> SpectralVec:
    """Project samples on the basis quadrature grid onto the eigenmodes.

    Composite Simpson with 8*modes panels integrates products of basis
    modes exactly (discrete orthogonality), so analyze and
    `uniform_samples(vec, 8 * modes)` round-trip on the span at machine
    precision.  The sums run as one Simpson-weighted DST-I.
    """
    N = basis.spec.modes
    (L,) = basis.spec.lengths
    f = _real(samples, "samples")
    if f.shape != (8 * N + 1,):
        raise InvalidSpecError(f"samples have shape {f.shape}, quadrature grid is {(8 * N + 1,)}")
    return SpectralVec.from_coefficients(basis, _simpson_dst(f, L, 8 * N, N))


def project_samples(samples, grid, basis: EigenBasis) -> SpectralVec:
    """Like analyze, but on a caller-supplied uniform grid covering [0, L]
    with an even panel count (used to project oracle output)."""
    x = _real(grid, "grid")
    f = _real(samples, "samples")
    if x.ndim != 1 or f.shape != x.shape:
        raise InvalidSpecError("grid and samples must be matching 1-d arrays")
    (L,) = basis.spec.lengths
    if abs(x[0]) > 1e-12 * L or abs(x[-1] - L) > 1e-12 * L:
        raise InvalidSpecError("grid must span [0, L]")
    steps = np.diff(x)
    if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-10, atol=0.0):
        raise InvalidSpecError("grid must be uniform and increasing")
    panels = x.size - 1
    if panels % 2 != 0:
        raise InvalidSpecError("grid needs an even panel count")
    return SpectralVec.from_coefficients(basis, _simpson_dst(f, L, panels, basis.spec.modes))


def uniform_samples(vec: SpectralVec, panels: int) -> np.ndarray:
    """Evaluate the mode sum on np.linspace(0, L, panels + 1), endpoints
    included, by one DST-I.  A sample past float64 range is refused.
    """
    if not (isinstance(panels, (int, np.integer)) and panels >= 2):
        raise InvalidSpecError("uniform sampling needs an integer panel count >= 2")
    if vec.overflowed:
        raise InvalidSpecError("coefficients exceed linear floating-point range")
    c = vec.coefficients
    (L,) = vec.basis.spec.lengths
    with np.errstate(over="ignore", invalid="ignore"):
        out = _uniform_dst(c, L, panels)
    if not np.all(np.isfinite(out)):
        raise InvalidSpecError("uniform samples leave floating-point range")
    return out


def synthesize(vec: SpectralVec, points) -> np.ndarray:
    """Evaluate the mode sum at arbitrary points; `uniform_samples` is the
    sine-transform form on a uniform grid.  Raises if any coefficient
    exceeds linear float range.
    """
    if vec.overflowed:
        raise InvalidSpecError("coefficients exceed linear floating-point range")
    (L,) = vec.basis.spec.lengths
    return vec.coefficients @ _sine_table(L, vec.basis.spec.modes, points)


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
    """JSON with the basis descriptor and (re, im) coefficient pairs; im
    is 0, as every coefficient is real."""
    c = vec.coefficients
    if not np.all(np.isfinite(c)):
        raise InvalidSpecError("cannot serialize coefficients beyond linear range")
    payload = {
        "basis": {
            "kind": vec.basis.spec.kind,
            "lengths": list(vec.basis.spec.lengths),
            "modes": vec.basis.spec.modes,
        },
        "coefficients": [[x, 0.0] for x in c.tolist()],
    }
    return strict_json(payload)


def vec_from_json(text: str, basis: EigenBasis) -> SpectralVec:
    """The state of `vec_to_json`'s form against `basis`, which must match
    the stored descriptor.  A pair whose im is not 0 is refused, as is a
    file nested past what the parser can descend."""
    try:
        payload = json.loads(text)
    except RecursionError as exc:
        raise InvalidSpecError("state JSON nests too deeply") from exc
    except json.JSONDecodeError as exc:
        raise InvalidSpecError(f"state file is not JSON: line {exc.lineno}, column {exc.colno}") from exc
    try:
        desc = payload["basis"]
        kind, lengths, modes = desc["kind"], tuple(desc["lengths"]), desc["modes"]
        flat = [x for re, im in payload["coefficients"] for x in (re, im)]
    except KeyError as exc:
        raise InvalidSpecError(f"state JSON lacks the key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        # an object, a list or a number where another belongs, or a pair of one or three numbers
        raise InvalidSpecError('state JSON has the wrong layout; it must read {"basis": {"kind": "interval", '
                               '"lengths": [L], "modes": N}, "coefficients": [[re, im], ...]}') from exc
    spec = DomainSpec(kind, lengths, modes)
    if {type(x) for x in flat} != {float}:  # an int or no number: read each entry
        flat = [_json_number(x, "a coefficient") for x in flat]
    coeffs = np.array(flat, dtype=float).view(np.complex128)
    if basis.spec != spec:
        raise InvalidSpecError("stored basis descriptor does not match the supplied basis")
    return SpectralVec.from_coefficients(basis, coeffs)
