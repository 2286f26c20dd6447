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

from dataclasses import dataclass, field

import numpy as np

from .logspace import InvalidSpecError, log_sum_exp
from .spectral import SpectralVec, _check_horizon

HEURISTIC_NOTE = (
    "verdict from the finite-truncation stabilization heuristic; "
    "not an exact domain-membership test"
)
# a `compatible` verdict needs the log backward norm at or below this
MAX_LOG_NORM = 700.0


def apply_forward(vec: SpectralVec, t: float) -> SpectralVec:
    """Decay each mode by e^{-t*lambda_j}; t must be nonnegative."""
    if not t >= 0:  # NaN too
        raise InvalidSpecError("the forward flow needs a time t >= 0; use apply_inverse")
    return vec.scale_log(-t * vec.basis.lambdas)


def apply_inverse(vec: SpectralVec, t: float) -> SpectralVec:
    """Amplify each mode by e^{+t*lambda_j} in log space; exact mode-wise
    round trip with apply_forward."""
    if not t >= 0:
        raise InvalidSpecError("the inverse flow needs a time t >= 0; use apply_forward")
    return vec.scale_log(t * vec.basis.lambdas)


@dataclass(frozen=True)
class MembershipPolicy:
    """Cutoff ladder and thresholds for the stabilization verdict."""

    cutoffs: tuple = ()
    rtol_compat: float = 1e-6
    growth_thresh: float = 10.0

    def __post_init__(self):
        # a NaN threshold compares False everywhere and would still get a
        # verdict; ladder steps never decrease, so a growth threshold <= 1
        # would read every data set as incompatible
        if not 0.0 <= self.rtol_compat < np.inf:
            raise InvalidSpecError("rtol_compat must be finite and nonnegative")
        if not 1.0 < self.growth_thresh < np.inf:
            raise InvalidSpecError("growth_thresh must be finite and greater than 1")
        cutoffs = tuple(self.cutoffs) if np.iterable(self.cutoffs) else None
        # a bool is an int and a float no count: refuse, never coerce
        if cutoffs is None or any(isinstance(c, bool) or not isinstance(c, (int, np.integer)) for c in cutoffs):
            raise InvalidSpecError("cutoffs must be integers")
        object.__setattr__(self, "cutoffs", tuple(map(int, cutoffs)))

    def resolved_cutoffs(self, n_modes: int) -> tuple:
        if self.cutoffs:
            cs = self.cutoffs
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


class IncompatibleDataError(RuntimeError):
    """Final data rejected by the membership heuristic."""

    def __init__(self, report: CompatReport):
        self.report = report
        super().__init__(f"final data not solvable: verdict {report.verdict!r}")


class InconclusiveDataError(IncompatibleDataError):
    """Verdict neither stabilized nor grew decisively."""


def check_domain_membership(vec: SpectralVec, T: float, policy: MembershipPolicy | None) -> CompatReport:
    """Stabilization test for membership of vec in D(e^{T*A}).

    Partial graph norms are accumulated in log space over the cutoff ladder;
    the verdict compares the last ladder value against the middle one
    (`stabilization_ratio`) and watches per-step growth:

      * compatible  -- ratio <= 1 + rtol_compat and every log norm is below
        MAX_LOG_NORM; the backward state u0 is attached.
      * incompatible -- some consecutive step grows by >= growth_thresh.
      * inconclusive -- anything in between.
    """
    _check_horizon(T, vec.basis)
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
    # a step from -inf to a finite value grows by inf; -inf to -inf is NaN, which compares False
    grew = any(b - a >= growth for a, b in zip(logs[:-1], logs[1:]))

    if grew:
        verdict = "incompatible"
    elif ratio <= 1.0 + policy.rtol_compat and logs[-1] <= MAX_LOG_NORM:
        verdict = "compatible"
    else:
        verdict = "inconclusive"
    u0 = apply_inverse(vec, T) if verdict == "compatible" else None
    return CompatReport(T, cutoffs, logs, ratio, verdict, u0=u0)
