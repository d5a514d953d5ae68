"""Max Cut semidefinite relaxation via low-rank factorization, plus roundings.

The relaxation max { sum (w/2)(1 - M_uv) : M PSD, diag(M) = I } is solved in
factored form: one unit vector per vertex, updated cyclically by
v_i <- -normalize(sum_j w_ij v_j) (the "mixing method"). With rank above
sqrt(2n) this coordinate ascent has no spurious local optima for this SDP.

Two roundings of a solved Gram factor are provided: random-hyperplane signs
to a cut, and Gaussian projection to R^3 followed by normalization to Bloch
vectors of a product state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import opt_upper_bound
from .graphs import WeightedGraph, cut_value

GW_RATIO = 0.8785
# 0.956 (rank-3 rounding vs best product state) times the 0.5 worst case of
# product states vs the true optimum: a computable proxy for the failure flag.
RANK3_PROXY_RATIO = 0.478


def auto_rank(n: int) -> int:
    return min(n, math.ceil(math.sqrt(2 * n)) + 1)


@dataclass
class GramSolution:
    """Unit vectors (rows) realizing a feasible relaxation point."""

    vectors: np.ndarray  # shape (n, r), unit rows
    objective: float
    residual: float      # max over vertices of tangential gradient norm
    converged: bool
    sweeps: int

    @property
    def rank(self) -> int:
        return self.vectors.shape[1]

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "vectors": self.vectors.tolist(),
            "objective": self.objective,
            "residual": self.residual,
            "converged": self.converged,
        }


@dataclass
class RoundingOutcome:
    """Best rounded object over a number of attempts; value is recomputed
    from the returned bits / Bloch vectors, never trusted from sampling."""

    kind: str  # "cut" or "product"
    bits: tuple[int, ...] | None
    bloch: np.ndarray | None
    value: float
    attempts: int
    failed: bool


def sdp_objective(g: WeightedGraph, vectors: np.ndarray) -> float:
    """sum over edges of (w/2)(1 - v_u . v_v) for unit vectors."""
    vectors = np.asarray(vectors, dtype=float)
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        raise ValueError("all vectors must be unit length")
    dots = np.einsum("ij,ij->i", vectors[g.u], vectors[g.v])
    return float(0.5 * (g.w @ (1.0 - dots)))


def mixing_ascent(g: WeightedGraph, vecs: np.ndarray, tol: float,
                  max_sweeps: int) -> tuple[float, bool, int]:
    """Cyclic coordinate ascent v_i <- -normalize(sum_j w_ij v_j) on unit rows,
    in place, until the relative objective change of a sweep is at most tol.

    Returns (objective, converged, sweeps). The objective never decreases;
    a decrease beyond rounding is an error.
    """
    adj = g.weight_matrix
    obj = sdp_objective(g, vecs)
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        for i in range(g.n):
            s = -(adj[i] @ vecs)
            ns = np.linalg.norm(s)
            if ns > 0:
                vecs[i] = s / ns
        new_obj = sdp_objective(g, vecs)
        if new_obj < obj - 1e-9:
            raise AssertionError("objective decreased during coordinate ascent")
        converged = abs(new_obj - obj) <= tol * max(1.0, abs(new_obj))
        obj = new_obj
        if converged:
            break
    return obj, converged, sweeps


def solve_maxcut_sdp(g: WeightedGraph, rank: int | None = None,
                     tol: float = 1e-13, max_sweeps: int = 2000,
                     seed: int = 0) -> GramSolution:
    """Solve the relaxation by cyclic coordinate updates on unit vectors.

    Stops when the relative objective change per sweep drops below tol. The
    objective is non-decreasing across sweeps; if max_sweeps is exhausted the
    best iterate is returned with converged=False.
    """
    r = rank if rank is not None else auto_rank(g.n)
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((g.n, r))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    obj, converged, sweeps = mixing_ascent(g, vecs, tol, max_sweeps)
    grad = g.weight_matrix @ vecs  # d(objective)/dv_i = -grad_i / 2
    tangential = grad - (np.sum(grad * vecs, axis=1, keepdims=True)) * vecs
    residual = float(np.max(np.linalg.norm(tangential, axis=1)) / 2) if g.n else 0.0
    return GramSolution(vectors=vecs, objective=float(obj), residual=residual,
                        converged=converged, sweeps=sweeps)


def gw_round(g: WeightedGraph, sol: GramSolution, seed: int = 0,
             attempts: int = 200) -> RoundingOutcome:
    """Best cut over random-hyperplane roundings of the Gram vectors.

    bit_i = 1 iff the Gaussian vector has positive inner product with v_i
    (zero counts as bit 0). failed is set when even the best cut is below
    0.8785 times the relaxation objective.
    """
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((attempts, sol.rank))
    signs = planes @ sol.vectors.T > 0  # (attempts, n)
    best = np.argmax(cut_value(g, signs))  # the first of equal best cuts
    best_bits = tuple(int(b) for b in signs[best])
    best_val = cut_value(g, best_bits)
    return RoundingOutcome(kind="cut", bits=best_bits, bloch=None,
                           value=best_val, attempts=attempts,
                           failed=best_val < GW_RATIO * sol.objective)


def rank3_round(g: WeightedGraph, sol: GramSolution, seed: int = 0,
                attempts: int = 200) -> RoundingOutcome:
    """Best product state over Gaussian projections of the Gram vectors to R^3.

    Each attempt draws a 3 x r standard normal matrix, maps every vertex
    vector through it and normalizes, giving Bloch vectors whose energy is
    the relaxation objective formula in R^3. The guarantee constant 0.956 is
    relative to the (uncomputable) best product state, so the failure flag
    compares against 0.478 times a computable upper bound instead.
    """
    rng = np.random.default_rng(seed)
    best_bloch, best_val = None, -1.0
    for _ in range(attempts):
        proj = sol.vectors @ rng.standard_normal((sol.rank, 3))  # (n, 3)
        norms = np.linalg.norm(proj, axis=1)
        while np.any(norms == 0):  # probability-0; resample the zero rows
            bad = norms == 0
            proj[bad] = rng.standard_normal((int(bad.sum()), 3))
            norms = np.linalg.norm(proj, axis=1)
        bloch = proj / norms[:, None]
        val = sdp_objective(g, bloch)
        if val > best_val:
            best_val, best_bloch = val, bloch
    threshold = RANK3_PROXY_RATIO * opt_upper_bound(g).best
    return RoundingOutcome(kind="product", bits=None, bloch=best_bloch,
                           value=best_val, attempts=attempts,
                           failed=best_val < threshold - 1e-12)
