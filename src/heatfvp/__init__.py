"""Spectral solver for heat-type equations run forward and backward.

Forward Cauchy and initial-boundary value problems on an interval in the
Dirichlet eigenbasis; backward final value problems through exact mode-wise
inversion guarded by a compatibility heuristic; graph norms of the
admissible data space; and a dense-matrix lab for the semigroup properties
the construction rests on.
"""

from .spectral import DomainSpec, build_basis
