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
from functools import partial

import numpy as np

from .graphs import Csr, WeightedGraph, check_size, csr_product, cut_value

GW_RATIO = 0.8785
RANK3_RATIO = 0.956
MAX_SWEEPS = 2000  # the mixing kernel's sweep cap, read at each call


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
    """sum over edges of (w/2)(1 - v_u . v_v) for n unit vectors (rows): the
    `stack_objective` of one start, checked, and clipped to [0, W] against rounding."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or len(vectors) != g.n:
        raise ValueError(f"expected {g.n} vectors as rows")
    _check_unit(vectors)
    return min(max(float(stack_objective(g, vectors[:, None])[0]), 0.0), g.total_weight)


def stack_objective(g: WeightedGraph, vecs: np.ndarray) -> np.ndarray:
    """Objective W/2 - (1/4) sum_i x_i . (A x)_i of each attempt of a stack of
    unit rows, vecs of shape (n, attempts, d), by one CSR product, an
    elementwise product and column sums; unchecked. On spins x_i = +-1 (d = 1)
    it is the cut value, exact on integer weights and equal for complements;
    a row 0 (a qubit in a singlet) gives each of its edges w/2."""
    flat = np.ascontiguousarray(vecs.reshape(g.n, -1))
    pull = np.zeros(flat.shape)
    csr_product(g.csr, flat, pull)()
    pull *= flat
    return g.total_weight / 2 - pull.sum(axis=0).reshape(vecs.shape[1:]).sum(axis=1) / 4


def _check_unit(vectors: np.ndarray) -> None:
    """Raise ValueError unless every vector along the last axis has unit length."""
    if np.any(np.abs(np.sqrt(np.vecdot(vectors, vectors)) - 1.0) > 1e-8):
        raise ValueError("all vectors must be unit length")


def _renumbered(a: Csr, order: np.ndarray) -> Csr:
    """The matrix a[order][:, order] for a permutation `order`: row i is row
    order[i] of a, its entries in their stored order, each column renamed to
    its position in `order`. These are the arrays scipy's fancy indexing
    builds, without its index checks."""
    rank = np.empty(len(order), dtype=a.indices.dtype)
    rank[order] = np.arange(len(order))
    counts = np.diff(a.indptr)[order]
    indptr = np.zeros(len(order) + 1, dtype=a.indptr.dtype)
    np.cumsum(counts, out=indptr[1:])
    pos = np.repeat(a.indptr[order] - indptr[:-1], counts) + np.arange(indptr[-1])
    return Csr(indptr, rank[a.indices[pos]], a.data[pos])


# A neighbor sum at most this long (in units of the largest weight) is taken
# as zero: its squared length, below the smallest normal double, has lost bits.
_TINY_SUM = 2.0 ** -511


def mixing_ascent(g: WeightedGraph, vecs: np.ndarray, tol: float
                  ) -> tuple[float, bool, int, np.ndarray]:
    """Cyclic coordinate ascent v_i <- -normalize(sum_j w_ij v_j) on one start
    of unit rows, vecs of shape (n, r), in place, for at most `MAX_SWEEPS`
    sweeps, until the objective changes in a sweep by at most tol times
    itself, in the kernel's units (so the rule is scale-free). A negative tol
    never stops early.

    A sweep visits the vertices class by class of `g.color_classes`. No edge
    joins two vertices of a class, so one sparse product updates a whole
    class exactly as one-vertex steps in any order within it would.
    Renumbered once into class order, each class is a slab of rows updated
    in place. The product A V that scores a sweep holds the next sweep's
    first neighbor sums, and the last class's sums, taken once every other
    class has stepped, are that product's last rows: a sweep takes one
    sparse product per class and one on the rows before the last class.

    The kernel runs on a = -A / 2^k, with k the graph's `weight_exponent`,
    so the update is normalize(a V). Negation and power-of-two scaling are
    exact: the iterates are those of A, bit for bit, and scaling every
    weight by a power of two changes none of them, while no squared length
    of a neighbor sum can overflow. The class-order matrix is a numpy
    permutation of A's CSR arrays. One buffer holds a V in its first n
    rows, and below them the sums of the classes between the first and the
    last, each class's product adding into its own rows; the last class's
    adds into its rows of a V. The call ends with the whole a V of its last
    iterate. A sweep is a list of calls bound once to their buffers
    (`functools.partial`, every ufunc's out by position): per class a
    product (scipy's compiled CSR routine, `csr_product`, which runs no
    Python code), a squared length, a square root and a plain division,
    and after the first class one fill that zeroes the whole buffer. Every
    class's norms sit in one buffer that one `np.minimum.reduce` checks
    after the sweep.
    A vertex whose neighbor sum is zero, or so small in the units of a (at
    most 2^-511) that its square would lose bits to underflow, keeps its
    vector: if the check finds such a norm, or a NaN, the call starts again
    from its input (vecs is written only at the end) on a second list that
    masks those rows, and gives the bits the fast list gives wherever it
    divides. The objective is one dot of the flat V with the flat a V, and
    it and its rise are Python floats.

    Returns (objective, converged, sweeps, a V in input vertex order, shape
    (n, r)), in the kernel's units of w / 2^k: a caller scales what it
    reports back by 2^k once. The objective never decreases; a decrease
    beyond rounding (1e-12 of the objective) is an error.
    """
    n, r = vecs.shape
    _check_unit(vecs)
    order = np.concatenate(g.color_classes)
    k = g.weight_exponent
    indptr, indices, data = _renumbered(g.csr, order)
    a = Csr(indptr, indices, -np.ldexp(data, -k))
    half_weight = math.ldexp(g.total_weight, -k) / 2
    work = np.ascontiguousarray(vecs[order])  # written back at the end
    bounds = np.cumsum([0, *map(len, g.color_classes)]).tolist()
    # the rows of a sweep's scoring product: all but the last class's, whose sums,
    # taken once every other class has stepped, are those rows already
    head = bounds[-2] if len(bounds) > 2 else n
    # a V in the first n rows; below them the sums of the classes between the first and last
    buf = np.zeros((n + head - bounds[1], r))
    pull, middle = buf[:n], buf[n - bounds[1]:]  # each indexed by the class-order row
    norms = np.empty((n, 1))
    mask = np.empty(norms.shape, dtype=bool)
    # a sweep as two lists of bound calls, fast and masked, each ufunc's out by position
    fast, masked = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        sums = (middle if 0 < lo < head else pull)[lo:hi]
        norm, keep, out = norms[lo:hi], mask[lo:hi], work[lo:hi]
        # the first class's sums are the scoring product's
        step = [csr_product(Csr(indptr[lo:hi + 1], indices, a.data), work, sums)] if lo else []
        step += [partial(np.vecdot, sums, sums, norm[:, 0]), partial(np.sqrt, norm, norm)]
        zero = [] if lo else [partial(buf.fill, 0.0)]  # the first class has read a V
        fast += [*step, partial(np.divide, sums, norm, out), *zero]
        masked += [*step, partial(np.greater, norm, _TINY_SUM, keep),
                   partial(np.divide, sums, norm, out, where=keep), *zero]
    least_norm = partial(np.minimum.reduce, norms, None)
    full_product = csr_product(a, work, pull)
    head_product = csr_product(Csr(indptr[:head + 1], indices, a.data), work, pull[:head])
    flat_dot = partial(np.dot, work.reshape(1, -1), pull.reshape(-1))  # sum_i v_i . (a V)_i

    def score(product) -> float:
        """The objective after `product` into zeros."""
        product()  # into zeros: a product adds into its output
        return half_weight + flat_dot().item() / 4

    def ascend(steps: list) -> tuple[float, bool, int] | None:
        """The sweeps from `work`, with `buf` zero: None as soon as a fast
        sweep has met a norm of at most _TINY_SUM or NaN."""
        obj = score(full_product)
        converged = False
        sweeps = 0
        for sweeps in range(1, MAX_SWEEPS + 1):
            for step in steps:
                step()
            if steps is fast and not least_norm() > _TINY_SUM:
                return None
            new = score(head_product)
            rise = new - obj
            if rise < -1e-12 * new:
                raise AssertionError("objective decreased during coordinate ascent")
            # tol >= 0 first: on a graph whose objective is 0, 0 <= tol * 0 holds for any tol
            converged = tol >= 0 and abs(rise) <= tol * new
            obj = new
            if converged:
                break
        return obj, converged, sweeps

    with np.errstate(divide="ignore", invalid="ignore"):  # the fast step's 0/0
        result = ascend(fast)
        if result is None:
            work[...] = vecs[order]
            buf.fill(0.0)
            result = ascend(masked)
    obj, converged, sweeps = result
    vecs[order] = work
    return obj, converged, sweeps, pull[np.argsort(order)]


def solve_maxcut_sdp(g: WeightedGraph, rank: int | None = None,
                     tol: float = 1e-13, seed: int = 0) -> GramSolution:
    """Solve the relaxation by cyclic coordinate updates on unit vectors: one
    `mixing_ascent` call on one seeded random start of n unit rows of rank r.

    Stops after the first sweep that changes the objective by at most
    tol * objective, at any weight scale, and never early if tol < 0. The objective
    never decreases; after `MAX_SWEEPS` sweeps the best iterate is returned with converged=False.
    Either way the objective is clipped to [0, W], where every unit-vector
    configuration scores, and a certified dual_bound on the optimum comes with it.
    """
    r = rank if rank is not None else auto_rank(g.n)
    if r < 1:
        raise ValueError(f"rank must be at least 1, got {r}")
    check_size(g.n, max(r, g.n))  # the (n, r) vectors and the dense n x n certificate
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((g.n, r))
    vecs /= np.sqrt(np.vecdot(vecs, vecs))[:, None]
    # in the units of a = -A / 2^k, as the kernel returns them: no square overflows
    # a V: d(objective)/dv_i = (a V)_i / 2
    obj, converged, sweeps, pull = mixing_ascent(g, vecs, tol)
    dots = np.vecdot(vecs, pull)
    tangential = pull - dots[:, None] * vecs
    residual = math.sqrt(np.vecdot(tangential, tangential).max(initial=0.0)) / 2
    k = g.weight_exponent
    dual = _dual_bound(g, obj, dots)
    bound = math.ldexp(dual, k)
    if math.ldexp(bound, -k) < dual:  # rounded down to a subnormal: an upper bound rounds up
        bound = math.nextafter(bound, math.inf)
    objective = min(max(math.ldexp(obj, k), 0.0), g.total_weight)
    return GramSolution(vectors=vecs, objective=objective,
                        residual=math.ldexp(residual, k), converged=converged,
                        sweeps=sweeps, dual_bound=bound)


def _dual_bound(g: WeightedGraph, objective: float, dots: np.ndarray) -> float:
    """Certified upper bound on the relaxation optimum from any feasible point,
    in the units of a = -A / 2^k: the objective and dots_i = v_i . (a V)_i.

    With y_i = (L/4 V V^T)_ii, whose sum is the objective, y shifted down by
    min(0, lambda_min(Diag(y) - L/4)) is feasible for the dual
    min { sum y : Diag(y) - L/4 PSD }. In these units that matrix is
    Diag(y) - L/4 = (A / 2^k + Diag(dots)) / 4. lambda_min comes from a dense
    eigensolver (numpy's, so that a solve needs no `scipy.linalg`): a Lanczos
    (Ritz) value is not a certified lower bound.
    """
    m = np.zeros((g.n, g.n))
    m[g.u, g.v] = m[g.v, g.u] = np.ldexp(g.w, -g.weight_exponent)
    m.flat[::g.n + 1] = dots
    lam = np.linalg.eigvalsh(m)[0] / 4
    return float(objective - g.n * min(0.0, lam))


def gw_round(g: WeightedGraph, sol: GramSolution, seed: int = 0,
             attempts: int = 200) -> RoundingOutcome:
    """Best cut over random-hyperplane roundings of the Gram vectors.

    bit_i = 1 iff the Gaussian vector has positive inner product with v_i
    (zero counts as bit 0). All cuts are ranked as spins 1 - 2 bit_i (d = 1) by
    `stack_objective`, there the cut value; the first of equal best is
    re-scored by `cut_value`. failed is set when even the best cut is below
    0.8785 times the relaxation objective.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be at least 1, got {attempts}")
    check_size(attempts, max(sol.rank, g.n))  # the planes and the (n, attempts) spins
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((attempts, sol.rank))
    signs = planes @ sol.vectors.T > 0  # (attempts, n)
    spins = 1.0 - 2.0 * np.ascontiguousarray(signs.T)  # (n, attempts); bits transposed as bytes
    best = np.argmax(stack_objective(g, spins[..., None]))  # the first of equal best cuts
    best_bits = tuple(int(b) for b in signs[best])
    best_val = cut_value(g, best_bits)
    return RoundingOutcome(bits=best_bits, bloch=None, value=best_val,
                           failed=best_val < GW_RATIO * sol.objective)


def rank3_round(g: WeightedGraph, sol: GramSolution, seed: int = 0,
                attempts: int = 200) -> RoundingOutcome:
    """Best product state over Gaussian projections of the Gram vectors to R^3.

    Each attempt draws a 3 x r standard normal matrix, maps every vertex
    vector through it and normalizes, giving Bloch vectors whose energy is
    the relaxation objective formula in R^3. All attempts are drawn at once
    and projected by one GEMM, V times the draws side by side as (r, 3 *
    attempts): the (n, attempts, 3) stack `stack_objective` scores. The first
    of equal best is re-scored alone. failed is set when even the best is
    below 0.956 times the relaxation objective: per edge, the projection
    keeps in expectation at least 0.9563 of (1 - v_u . v_v) (Briet, de
    Oliveira Filho and Vallentin, ICALP 2010).
    """
    if attempts < 1:
        raise ValueError(f"attempts must be at least 1, got {attempts}")
    check_size(attempts, max(sol.rank, g.n), 3)  # the projections and the Bloch vectors
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((attempts, sol.rank, 3))
    bloch = (sol.vectors @ draws.transpose(1, 0, 2).reshape(sol.rank, -1)).reshape(g.n, attempts, 3)
    x, y, z = bloch.transpose(2, 0, 1)  # lengths by component: a quarter of np.vecdot's time
    while np.any((norms := np.sqrt(x * x + y * y + z * z)) == 0):  # probability-0; resample
        at, vertex = np.nonzero(norms.T == 0)  # the zero rows, attempt by attempt
        bloch[vertex, at] = rng.standard_normal((len(at), 3))
    bloch /= norms[..., None]
    best = np.argmax(stack_objective(g, bloch))  # the first of equal best
    best_bloch = bloch[:, best].copy()
    best_val = sdp_objective(g, best_bloch)
    return RoundingOutcome(bits=None, bloch=best_bloch, value=best_val,
                           failed=best_val < RANK3_RATIO * sol.objective)
