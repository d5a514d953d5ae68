"""Efficiently computable upper bounds on the maximum Hamiltonian energy."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import WeightedGraph


def star_bound(weights) -> float:
    """Upper bound on the norm of the star-graph Hamiltonian: max(w) + sum(w).

    Monogamy of entanglement keeps the center spin from being maximally
    entangled with every leaf, which is why this beats the trivial 2*sum(w).
    Equality holds for uniform weights. A negative, infinite or NaN weight is a ValueError.
    """
    weights = list(weights)
    if not weights:
        return 0.0
    if not all(0 <= w < math.inf for w in weights):
        raise ValueError("weights must be finite and nonnegative")
    return float(max(weights) + sum(weights))


@dataclass(frozen=True)
class BoundReport:
    """Collection of upper bounds on the maximum energy; best = min of them."""

    trivial: float          # 2W
    degree_sum: float       # W + (1/2) sum_v max_{e ~ v} w_e
    sdp_combined: float | None
    best: float


def sdp_combined_bound(g: WeightedGraph, sdp_value: float) -> float:
    """Upper bound 3*sdp_value - W on the maximum energy.

    Valid because the maximum energy is at most W/2 plus three times the top
    diagonal (ZZ) eigenvalue, which itself is at most sdp_value - W/2.
    Requires sdp_value to be at least the true relaxation optimum, which is
    at least W/2: a value below W/2 by more than 1e-12 of it is rejected.
    """
    half_w = g.total_weight / 2
    if sdp_value < half_w * (1 - 1e-12):
        raise ValueError(f"sdp_value {sdp_value} below W/2 = {half_w}; infeasible")
    return float(3 * sdp_value - g.total_weight)


def opt_upper_bound(g: WeightedGraph, sdp_value: float | None = None) -> BoundReport:
    """All computed upper bounds; degree_sum reduces to |E| + |V|/2 when unweighted.

    Isolated vertices have no incident edge and contribute nothing to the
    degree-sum term.
    """
    w_total = g.total_weight
    max_incident = np.zeros(g.n)
    np.maximum.at(max_incident, g.u, g.w)
    np.maximum.at(max_incident, g.v, g.w)
    degree_sum = w_total + 0.5 * max_incident.sum()
    trivial = 2.0 * w_total
    combined = sdp_combined_bound(g, sdp_value) if sdp_value is not None else None
    candidates = [trivial, degree_sum] + ([combined] if combined is not None else [])
    return BoundReport(trivial=float(trivial), degree_sum=float(degree_sum),
                       sdp_combined=combined, best=float(min(candidates)))
