"""Max Cut semidefinite relaxation via low-rank factorization, plus roundings.

The relaxation max { sum (w/2)(1 - M_uv) : M PSD, diag(M) = I } is solved in
factored form: one unit vector per vertex, updated cyclically by
v_i <- -normalize(sum_j w_ij v_j) (the "mixing method", arXiv:1706.00476),
one color class (an independent set, a slab of rows) at a time. With rank
above sqrt(2n) this coordinate ascent has no spurious local optima for this
SDP. Each solve ends with a certified upper bound on the optimum from a
feasible point of the dual.

Two roundings of a solved Gram factor are provided: random-hyperplane signs
to a cut, and Gaussian projection to R^3 followed by normalization to Bloch
vectors of a product state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh
from scipy.sparse import _sparsetools

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
    dual_bound: float = math.inf  # certified upper bound on the relaxation optimum

    @property
    def rank(self) -> int:
        return self.vectors.shape[1]

    @property
    def gap(self) -> float:
        """Duality gap: how far the optimum can lie above the objective."""
        return self.dual_bound - self.objective


@dataclass
class RoundingOutcome:
    """Best rounded object over a number of attempts; value is recomputed
    from the returned bits / Bloch vectors, never trusted from sampling."""

    bits: tuple[int, ...] | None
    bloch: np.ndarray | None
    value: float
    failed: bool


def sdp_objective(g: WeightedGraph, vectors: np.ndarray) -> float:
    """sum over edges of (w/2)(1 - v_u . v_v) for unit vectors."""
    vectors = np.asarray(vectors, dtype=float)
    norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors))
    if np.any(np.abs(norms - 1.0) > 1e-8):
        raise ValueError("all vectors must be unit length")
    dots = np.einsum("ij,ij->i", vectors.take(g.u, axis=0), vectors.take(g.v, axis=0))
    return float(0.5 * (g.w @ (1.0 - dots)))


def stack_objective(g: WeightedGraph, vecs: np.ndarray) -> np.ndarray:
    """Objective of each start of a stack of unit rows, vecs of shape (n, S, r),
    by one sparse product; unchecked."""
    flat = vecs.reshape(g.n, -1)
    return g.total_weight / 2 - _start_sums(flat, g.csr @ flat, np.empty(vecs.shape[1:])) / 4


def _start_sums(flat: np.ndarray, pull: np.ndarray, dots: np.ndarray) -> np.ndarray:
    """sum_i v_i . pull_i for each start, from V and pull as (n, S * r) arrays
    in the same vertex order; `dots`, of shape (S, r), takes the column sums."""
    np.einsum("ij,ij->j", flat, pull, out=dots.reshape(-1))
    return dots.sum(axis=1)


def _csr_product(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 x: np.ndarray, out: np.ndarray) -> None:
    """out = A x for the CSR rows (indptr, indices, data) and a C-contiguous
    float x of shape (n, c); out is a C-contiguous float array of rows * c
    entries. This is the routine `csr_array @ x` runs after its dispatch."""
    out.fill(0.0)  # csr_matvecs adds into out
    _sparsetools.csr_matvecs(len(indptr) - 1, x.shape[0], x.shape[1], indptr, indices,
                             data, x, out)


# A neighbor sum at most this long (in units of the largest weight) is taken
# as zero: its squared length, below the smallest normal double, has lost bits.
_TINY_SUM = 2.0 ** -511


def mixing_ascent(g: WeightedGraph, vecs: np.ndarray, tol: float,
                  max_sweeps: int) -> tuple[np.ndarray, bool, int]:
    """Cyclic coordinate ascent v_i <- -normalize(sum_j w_ij v_j) on a stack of
    S independent starts of unit rows, vecs of shape (n, S, r), in place, until
    no start's objective changes in a sweep by more than tol times
    max(1, smallest objective).

    A sweep visits the vertices class by class of `g.color_classes`. No edge
    joins two vertices of a class, so one sparse product updates a whole
    class, in every start, exactly as one-vertex steps in any order within
    it would. Renumbered once into class order, each class is a slab of rows
    updated in place, and the product A V that scores a sweep holds the next
    sweep's first neighbor sums: a sweep takes one sparse product per class.

    The kernel runs on a = -A / 2^k, with 2^k the power of two just above the
    largest weight (`frexp`), so the update is normalize(a V). Negation and
    power-of-two scaling are exact: the iterates are those of A, bit for bit,
    and scaling every weight by a power of two changes none of them, while
    no squared length of a neighbor sum can overflow. A vertex whose neighbor
    sum is zero, or so small in the units of a (at most 2^-511) that its
    square would lose bits to underflow, keeps its vector. Every buffer is
    allocated once per call, and each product calls scipy's CSR routine
    directly into its buffer, with no dispatch.

    Returns (objective of each start, converged, sweeps). No objective
    decreases; a decrease beyond rounding (1e-12 of the objective in the
    units of a) is an error.
    """
    n, starts, r = vecs.shape
    if np.any(np.abs(np.sqrt(np.einsum("ijk,ijk->ij", vecs, vecs)) - 1.0) > 1e-8):
        raise ValueError("all vectors must be unit length")
    order = np.concatenate(g.color_classes)
    a = g.csr[order][:, order]
    k = math.frexp(float(g.w.max(initial=0.0)))[1]
    indices, data = a.indices, -np.ldexp(a.data, -k)
    half_weight = math.ldexp(g.total_weight, -k) / 2
    work = np.ascontiguousarray(vecs[order])  # flat must view it; written back at the end
    flat = work.reshape(n, starts * r)
    pull = np.empty((n, starts * r))  # a V, whose first slab is the first class's sums
    dots = np.empty((starts, r))
    slabs = []  # (row pointers, or None for the first class; sums, norms, squares, mask, rows)
    lo = 0
    for hi in np.cumsum([len(b) for b in g.color_classes]).tolist():
        sums = pull[:hi].reshape(hi, starts, r) if lo == 0 else np.empty((hi - lo, starts, r))
        norms = np.empty((hi - lo, starts, 1))
        slabs.append((a.indptr[lo:hi + 1] if lo else None, sums, norms, norms[..., 0],
                      np.empty(norms.shape, dtype=bool), work[lo:hi]))
        lo = hi

    def score() -> list[float]:
        _csr_product(a.indptr, indices, data, flat, pull)
        return [half_weight + x / 4 for x in _start_sums(flat, pull, dots).tolist()]

    obj = score()
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        for indptr, s, norms, squares, mask, out in slabs:
            if indptr is not None:
                _csr_product(indptr, indices, data, flat, s)
            np.einsum("ijk,ijk->ij", s, s, out=squares)
            np.sqrt(norms, out=norms)
            np.greater(norms, _TINY_SUM, out=mask)
            np.divide(s, norms, out=out, where=mask)
        new = score()
        rise = [x - y for x, y in zip(new, obj)]  # Python floats: cheaper than numpy at S = 1
        if min(rise) < -1e-12 * max(1.0, max(new)):
            raise AssertionError("objective decreased during coordinate ascent")
        # the stop rule is not scale-free (its max(1, .) floor), so it reads in the units of A
        converged = (math.ldexp(max(map(abs, rise)), k)
                     <= tol * max(1.0, math.ldexp(min(new), k)))
        obj = new
        if converged:
            break
    vecs[order] = work
    return np.ldexp(obj, k), converged, sweeps


def solve_maxcut_sdp(g: WeightedGraph, rank: int | None = None,
                     tol: float = 1e-13, max_sweeps: int = 2000,
                     seed: int = 0) -> GramSolution:
    """Solve the relaxation by cyclic coordinate updates on unit vectors.

    Stops when the relative objective change per sweep drops below tol. The
    objective is non-decreasing across sweeps; if max_sweeps is exhausted the
    best iterate is returned with converged=False. Either way the solution
    carries a certified dual_bound on the optimum.
    """
    r = rank if rank is not None else auto_rank(g.n)
    if r < 1:
        raise ValueError(f"rank must be at least 1, got {r}")
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((g.n, r))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    _, converged, sweeps = mixing_ascent(g, vecs[:, None], tol, max_sweeps)
    obj = sdp_objective(g, vecs)
    grad = g.csr @ vecs  # d(objective)/dv_i = -grad_i / 2
    radial = np.einsum("ij,ij->i", grad, vecs)
    tangential = grad - radial[:, None] * vecs
    residual = float(np.max(np.linalg.norm(tangential, axis=1)) / 2) if g.n else 0.0
    return GramSolution(vectors=vecs, objective=float(obj), residual=residual,
                        converged=converged, sweeps=sweeps,
                        dual_bound=_dual_bound(g, obj, radial))


def _dual_bound(g: WeightedGraph, objective: float, radial: np.ndarray) -> float:
    """Certified upper bound on the relaxation optimum from any feasible point.

    With y_i = (L/4 V V^T)_ii, whose sum is the objective, y shifted down by
    min(0, lambda_min(Diag(y) - L/4)) is feasible for the dual
    min { sum y : Diag(y) - L/4 PSD }. As radial_i = v_i . (A V)_i, that
    matrix is Diag(y) - L/4 = (A - Diag(radial)) / 4. lambda_min comes from
    a dense eigensolver: a Lanczos (Ritz) value is not a certified lower
    bound.
    """
    m = g.csr.toarray()
    m.flat[::g.n + 1] = -radial
    lam = eigvalsh(m, subset_by_index=(0, 0), overwrite_a=True)[0] / 4
    return float(objective - g.n * min(0.0, lam))


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
    return RoundingOutcome(bits=best_bits, bloch=None, value=best_val,
                           failed=best_val < GW_RATIO * sol.objective)


def rank3_round(g: WeightedGraph, sol: GramSolution, upper_bound: float,
                seed: int = 0, attempts: int = 200) -> RoundingOutcome:
    """Best product state over Gaussian projections of the Gram vectors to R^3.

    Each attempt draws a 3 x r standard normal matrix, maps every vertex
    vector through it and normalizes, giving Bloch vectors whose energy is
    the relaxation objective formula in R^3. All attempts are drawn at once
    and scored by one sparse product; the winner is re-scored alone. The
    guarantee constant 0.956 is relative to the (uncomputable) best product
    state, so the failure flag compares against 0.478 times `upper_bound`,
    an upper bound on the maximum energy (the CLI passes its best bound).
    """
    rng = np.random.default_rng(seed)
    bloch = sol.vectors @ rng.standard_normal((attempts, sol.rank, 3))  # (attempts, n, 3)
    norms = np.linalg.norm(bloch, axis=2)
    while np.any(norms == 0):  # probability-0; resample the zero rows
        bad = norms == 0
        bloch[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(bloch, axis=2)
    bloch /= norms[..., None]
    best = np.argmax(stack_objective(g, bloch.transpose(1, 0, 2)))  # the first of equal best
    best_bloch = bloch[best].copy()
    best_val = sdp_objective(g, best_bloch)
    return RoundingOutcome(bits=None, bloch=best_bloch, value=best_val,
                           failed=best_val < RANK3_PROXY_RATIO * upper_bound - 1e-12)
