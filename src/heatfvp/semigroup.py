"""Forward and formal-inverse heat flow in eigencoordinates, plus the
truncation-stabilization test for whether a state lies in the domain of the
backward map.

The flow acts mode-wise as e^{-t*lambda_j}, so both directions are exact log
shifts of the coefficient magnitudes.  Membership in D(e^{T*A}) can only be
probed at finite truncation; the check here watches partial backward graph
norms across a ladder of mode cutoffs and reports `compatible`,
`incompatible`, or `inconclusive` -- a heuristic verdict, not an exact test,
and flagged as such in every report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .logspace import log_sum_exp
from .spectral import EigenBasis, InvalidSpecError, SpectralVec

HEURISTIC_NOTE = (
    "verdict from the finite-truncation stabilization heuristic; "
    "not an exact domain-membership test"
)


def apply_forward(vec: SpectralVec, t: float) -> SpectralVec:
    """Decay each mode by e^{-t*lambda_j}; t must be nonnegative."""
    if t < 0:
        raise ValueError("negative time in the forward flow; use apply_inverse")
    return vec.scale_log(-t * vec.basis.lambdas)


def apply_inverse(vec: SpectralVec, t: float) -> SpectralVec:
    """Amplify each mode by e^{+t*lambda_j} in log space; exact mode-wise
    round trip with apply_forward."""
    if t < 0:
        raise ValueError("negative time in the inverse flow; use apply_forward")
    return vec.scale_log(t * vec.basis.lambdas)


@dataclass(frozen=True)
class SemigroupAction:
    """The formal flow e^{-t*A} for a fixed signed time.

    Negative t is the unbounded inverse; log-space magnitudes keep every
    truncated action finite.
    """

    basis: EigenBasis
    t: float

    def apply(self, vec: SpectralVec) -> SpectralVec:
        if not vec.basis.same_as(self.basis):
            raise InvalidSpecError("basis mismatch in semigroup action")
        return vec.scale_log(-self.t * self.basis.lambdas)


@dataclass(frozen=True)
class MembershipPolicy:
    """Cutoff ladder and thresholds for the stabilization verdict."""

    cutoffs: tuple = ()
    rtol_compat: float = 1e-6
    growth_thresh: float = 10.0
    max_log_norm: float = 700.0

    def resolved_cutoffs(self, n_modes: int) -> tuple:
        if self.cutoffs:
            cs = tuple(int(c) for c in self.cutoffs)
        else:
            cs = tuple(sorted({max(1, n_modes // 8), max(1, n_modes // 4), max(1, n_modes // 2), n_modes}))
        if any(c < 1 or c > n_modes for c in cs) or list(cs) != sorted(set(cs)):
            raise InvalidSpecError("cutoffs must be strictly increasing within 1..n_modes")
        return cs


@dataclass
class CompatReport:
    """Partial backward graph norms over the cutoff ladder and the verdict.

    `log_graph_norms` holds natural logs of S_k = (sum_{j<=N_k}
    e^{2*T*lambda_j} |c_j|^2)^{1/2}; `u0` is the reconstructed initial state,
    attached only when the verdict is `compatible`.
    """

    T: float
    cutoffs: tuple
    log_graph_norms: tuple
    stabilization_ratio: float
    verdict: str
    note: str = HEURISTIC_NOTE
    u0: SpectralVec | None = field(default=None, repr=False)

    def to_json(self) -> str:
        def clean(x):
            if x is None or (isinstance(x, float) and not np.isfinite(x)):
                return None if x is None or np.isnan(x) else ("-inf" if x < 0 else "inf")
            return x

        payload = {
            "T": self.T,
            "cutoffs": list(self.cutoffs),
            "log_graph_norms": [clean(float(v)) for v in self.log_graph_norms],
            "stabilization_ratio": clean(float(self.stabilization_ratio)),
            "verdict": self.verdict,
            "note": self.note,
        }
        return json.dumps(payload, sort_keys=True)


class IncompatibleDataError(RuntimeError):
    """Final data rejected by the membership heuristic."""

    def __init__(self, report: CompatReport):
        self.report = report
        super().__init__(f"final data not solvable: verdict {report.verdict!r}")


class InconclusiveDataError(IncompatibleDataError):
    """Verdict neither stabilized nor grew decisively."""


def check_domain_membership(vec: SpectralVec, T: float, policy: MembershipPolicy | None = None) -> CompatReport:
    """Stabilization test for membership of vec in D(e^{T*A}).

    Partial graph norms are accumulated in log space over the cutoff ladder;
    the verdict compares the last ladder value against the middle one
    (`stabilization_ratio`) and watches per-step growth:

      * compatible  -- ratio <= 1 + rtol_compat and every log norm is below
        policy.max_log_norm; the backward state u0 is attached.
      * incompatible -- some consecutive step grows by >= growth_thresh.
      * inconclusive -- anything in between.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError("the backward horizon T must be finite and positive")
    policy = policy or MembershipPolicy()
    lam = vec.basis.lambdas
    cutoffs = policy.resolved_cutoffs(vec.basis.n_modes)
    terms = 2.0 * (T * lam + vec.logmag)
    logs = []
    for c in cutoffs:
        logs.append(0.5 * log_sum_exp(terms[:c]))
    logs = tuple(logs)

    if logs[-1] == -np.inf:
        # zero data: trivially the image of the zero state
        return CompatReport(T, cutoffs, logs, 1.0, "compatible", u0=SpectralVec.zero(vec.basis))

    mid = max(len(cutoffs) // 2 - 1, 0)
    with np.errstate(over="ignore"):
        ratio = float(np.exp(logs[-1] - logs[mid])) if logs[mid] > -np.inf else np.inf
    growth = np.log(policy.growth_thresh)
    grew = any(
        b - a >= growth if a > -np.inf else False
        for a, b in zip(logs[:-1], logs[1:])
    ) or any(a == -np.inf and b > -np.inf for a, b in zip(logs[:-1], logs[1:]))

    if grew:
        verdict = "incompatible"
    elif ratio <= 1.0 + policy.rtol_compat and logs[-1] <= policy.max_log_norm:
        verdict = "compatible"
    else:
        verdict = "inconclusive"
    u0 = apply_inverse(vec, T) if verdict == "compatible" else None
    return CompatReport(T, cutoffs, logs, ratio, verdict, u0=u0)


@dataclass(frozen=True)
class HeightProfile:
    """Pivot-norm decay of a state along the forward flow."""

    times: np.ndarray
    values: np.ndarray
    log_values: np.ndarray
    degenerate: bool


def height_function(u0: SpectralVec, times) -> HeightProfile:
    """Sample t -> |e^{-tA} u0|_H.

    For a nonzero state the profile is positive, strictly decreasing, and
    log-convex for this diagonal flow.  u0 = 0 degenerates to the zero
    profile and is flagged.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size < 1 or np.any(ts < 0) or np.any(np.diff(ts) <= 0):
        raise ValueError("times must be a strictly increasing nonnegative array")
    degenerate = bool(np.all(u0.logmag == -np.inf))
    logs = np.empty(ts.size)
    for i, t in enumerate(ts):
        logs[i] = 0.5 * log_sum_exp(2.0 * (u0.logmag - t * u0.basis.lambdas))
    with np.errstate(over="ignore"):
        vals = np.exp(logs)
    return HeightProfile(ts, vals, logs, degenerate)
