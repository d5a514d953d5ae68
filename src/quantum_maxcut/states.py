"""Product and tensor-product-of-few-qubit candidate states and their energies.

Every candidate is a tensor product of one- and two-qubit states, scored in
closed form: a basis state by `cut_value`, and a product or pair-product
state by `stack_objective` of its rows s_i (the Bloch vector of a product
qubit; the spin +-1 of a basis bit; 0 for a qubit in a singlet), plus
(3/2) w(M) for the singlets on a matching M. The state vectors here serve
only the oracle cross-checks in tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul

import numpy as np

from .graphs import WeightedGraph, cut_value, two_color_forest
from .sdp import RoundingOutcome, mixing_ascent, stack_objective


def tree_coloring_state(g: WeightedGraph, picks: np.ndarray) -> tuple[tuple[int, ...], float]:
    """The basis state that 2-colors the forest F = picks > 0 of per-vertex
    heaviest edges (`match_forest_decompose`, `two_color_forest`), and its
    cut: it cuts every edge of F, the property the 0.53 argument needs. A
    vertex on no edge gets bit 0."""
    bits = two_color_forest(g, picks > 0)
    return bits, cut_value(g, bits)


def match_singlet_state(g: WeightedGraph, picks: np.ndarray) -> tuple[np.ndarray, float]:
    """Singlets on the doubly-maximal matching M = picks == 2
    (`match_forest_decompose`), bits elsewhere by local search: the spin
    rows s (+1 for bit 0, -1 for bit 1, 0 on the vertices of M) and the energy.

    The bits are chosen by flip-while-improving on the subgraph induced by
    the unmatched vertices, so they cut at least half of its weight and the
    returned value is at least (3/2) * matching weight + W/2, deterministically.
    A singlet's one-qubit marginal is maximally mixed, so the energy is
    `stack_objective` of s plus (3/2) w(M): an edge touching M scores w/2 and
    an edge of M, 2w.
    """
    matched = picks == 2
    free = np.ones(g.n, dtype=bool)
    free[g.u[matched]] = free[g.v[matched]] = False
    unmatched = np.flatnonzero(free).tolist()
    # the rows of csr at unmatched columns: each unmatched vertex's unmatched
    # neighbors, ascending, and their weights
    indptr, indices, data = g.csr
    keep = np.flatnonzero(free[indices])
    bounds = np.searchsorted(keep, indptr).tolist()
    neighbors, weights = indices.take(keep).tolist(), data.take(keep).tolist()
    rows = [(i, neighbors[bounds[i]:bounds[i + 1]], weights[bounds[i]:bounds[i + 1]])
            for i in unmatched]
    spin = [1.0] * g.n  # +1 for bit 0, -1 for bit 1; read at unmatched vertices only
    # sum of w * spin over the neighbors, in neighbor order; summed again, from
    # the start, only once a neighbor has flipped since (else it is the same sum)
    field, stale = [0.0] * g.n, [True] * g.n
    improved = True
    while improved:
        improved = False
        for i, row, w in rows:
            if stale[i]:
                field[i], stale[i] = sum(map(mul, w, map(spin.__getitem__, row))), False
            if spin[i] * field[i] > 0:  # uncut minus cut neighbor weight: flipping gains it
                spin[i] = -spin[i]
                improved = True
                for j in row:
                    stale[j] = True
    s = np.where(free, spin, 0.0)
    return s, float(stack_objective(g, s[:, None, None])[0]) + 1.5 * float(g.w[matched].sum())


def product_statevector(bloch) -> np.ndarray:
    """State vector of the product state given by unit Bloch vectors."""
    bloch = np.asarray(bloch, dtype=float)
    psi = np.ones(1, dtype=complex)
    for x, y, z in bloch:
        theta = np.arccos(np.clip(z, -1.0, 1.0))
        phi = np.arctan2(y, x)
        qubit = np.array([np.cos(theta / 2),
                          np.exp(1j * phi) * np.sin(theta / 2)])
        psi = np.kron(psi, qubit)
    return psi


def pair_product_statevector(g: WeightedGraph, s, matched) -> np.ndarray:
    """State vector of a pair-product state (for oracle cross-checks): the outer
    product of a singlet (|01> - |10>)/sqrt 2 on the axes (u, v) of each edge
    of the boolean mask `matched` over g's edge arrays, and of |0> where the
    spin row s is +1 and |1> where it is -1, its axes put in vertex order.
    ValueError unless the shapes are (n,) and (m,), the masked edges are
    vertex-disjoint and s is 0 on their vertices and +-1 elsewhere."""
    s, matched = np.asarray(s), np.asarray(matched)
    if s.shape != (g.n,) or matched.shape != g.w.shape or matched.dtype != bool:
        raise ValueError(f"s must have shape ({g.n},) and matched be a boolean mask of shape "
                         f"{g.w.shape}, got {s.shape} and {matched.dtype} of shape {matched.shape}")
    pairs = np.column_stack((g.u[matched], g.v[matched]))
    paired = np.bincount(pairs.ravel(), minlength=g.n)
    if np.any(paired > 1):
        raise ValueError(f"matched edges share vertex {int(np.argmax(paired > 1))}")
    bad = np.flatnonzero(np.where(paired, s != 0, np.abs(s) != 1))
    if len(bad):
        raise ValueError(f"s must be 0 on matched vertices and +-1 elsewhere, "
                         f"got s[{bad[0]}] = {s[bad[0]]}")
    singlet = np.array([[0, 1], [-1, 0]], dtype=complex) / np.sqrt(2.0)
    basis = np.eye(2, dtype=complex)
    free = np.flatnonzero(paired == 0)
    factors = [singlet] * len(pairs) + [basis[int(x < 0)] for x in s[free]]
    axes = np.concatenate((pairs.ravel(), free))
    return reduce(np.multiply.outer, factors).transpose(np.argsort(axes)).reshape(-1)


def local_search_product_state(g: WeightedGraph, starts: int = 50,
                               seed: int = 0) -> tuple[np.ndarray, float]:
    """Multi-start local search for the best product state.

    The starts run as disjoint copies of the graph, start s on vertices s n
    to s n + n - 1, in one call of the relaxation's coordinate ascent at
    rank 3, v_i <- -normalize(sum_j w_ij v_j): each copy takes the steps its
    start would take alone. The call runs up to `MAX_SWEEPS` sweeps, until
    the summed energy of all starts moves in a sweep by at most 1e-12 of
    itself, at any weight scale; its fixed points are exactly the
    first-order stationary points of the product energy on the sphere.
    Serves as the desk-scale ground truth for the best product-state value:
    the first start within 1e-12 relative of the best energy, each scored
    by `stack_objective`.
    """
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((starts, g.n, 3))
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    shift = np.repeat(np.arange(starts) * g.n, len(g.u))
    copies = WeightedGraph(starts * g.n, np.tile(g.u, starts) + shift,
                           np.tile(g.v, starts) + shift, np.tile(g.w, starts))
    # DSATUR colors a component at a time, each from its own highest-(degree, -index)
    # vertex, so on the copies it gives the lone graph's classes, tiled: set, not rerun
    offsets = np.arange(starts)[:, None] * g.n
    vars(copies)["color_classes"] = tuple((c + offsets).ravel() for c in g.color_classes)
    mixing_ascent(copies, vecs.reshape(-1, 3), 1e-12)
    values = stack_objective(g, vecs.transpose(1, 0, 2))
    best = np.argmax(values >= values.max() * (1 - 1e-12))  # the first True
    return vecs[best], float(values[best])


@dataclass
class CandidateReport:
    """Best few-qubit candidate of a graph, and the energy of each one
    considered, under the labels of the report's entries for the same states."""

    label: str    # "tree-coloring" | "match-singlet" | "rank3-product"
    energy: float
    candidates: dict[str, float]


def best_few_qubit_candidate(tree: tuple[tuple[int, ...], float],
                             singlet: tuple[np.ndarray, float],
                             rounding: RoundingOutcome) -> CandidateReport:
    """Maximum-energy candidate among the states earlier stages built, each
    with its own energy: `tree` (from `tree_coloring_state`), `singlet` (from
    `match_singlet_state`) and `rounding` (from `rank3_round`); the first, in
    that order, within 1e-12 relative of the best: rounding noise breaks no tie.

    If the rank-3 rounding flags failure that candidate is skipped.
    """
    candidates = {"tree-coloring": float(tree[1]), "match-singlet": float(singlet[1])}
    if not rounding.failed:
        candidates["rank3-product"] = float(rounding.value)
    top = max(candidates.values())
    label = next(k for k, x in candidates.items() if x >= top * (1 - 1e-12))
    return CandidateReport(label=label, energy=candidates[label], candidates=candidates)
