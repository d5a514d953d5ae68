"""Product and tensor-product-of-few-qubit candidate states and their energies.

All evaluators are exact closed forms; the state-vector oracle is only used
in tests to cross-check them.
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


@dataclass(frozen=True)
class PairProductState:
    """Singlets on a partial matching plus a computational basis bit per
    unmatched vertex. A bit is the integer 0 or 1: not a bool or a float,
    which the state vector would misread as an index."""

    pairs: tuple[tuple[int, int], ...]
    bits: dict[int, int]  # unmatched vertex -> bit

    def __post_init__(self):
        used = sorted([x for p in self.pairs for x in p] + list(self.bits))
        if used != list(range(len(used))):
            raise ValueError("pairs and bits must be disjoint and cover 0..k-1 exactly once")
        for x, b in self.bits.items():
            if not isinstance(b, (int, np.integer)) or isinstance(b, bool) or b not in (0, 1):
                raise ValueError(f"bit of vertex {x} must be 0 or 1, got {b!r}")


def _check_cover(g, state):
    if 2 * len(state.pairs) + len(state.bits) != g.n:
        raise ValueError(f"pairs and bits must cover all {g.n} vertices")


def pair_product_energy(g: WeightedGraph, state: PairProductState) -> float:
    """Exact energy of a pair-product state.

    Per edge of weight w: a singlet pair contributes 2w; an edge touching a
    paired vertex (but not itself a pair) contributes w/2, because the
    singlet's maximally mixed marginal kills every Pauli cross-term; an edge
    between unmatched vertices contributes w if the bits differ, else 0.
    """
    _check_cover(g, state)
    pairs = np.array(state.pairs, dtype=np.intp).reshape(-1, 2)
    partner = np.full(g.n, -1)
    partner[pairs] = pairs[:, ::-1]
    bit = np.zeros(g.n, dtype=np.intp)
    bit[list(state.bits)] = list(state.bits.values())
    per_weight = np.where(partner[g.u] == g.v, 2.0,
                          np.where((partner[g.u] >= 0) | (partner[g.v] >= 0), 0.5,
                                   bit[g.u] != bit[g.v]))
    return float(g.w @ per_weight)


def match_singlet_state(g: WeightedGraph, picks: np.ndarray) -> tuple[PairProductState, float]:
    """Singlets on the doubly-maximal matching M = picks == 2
    (`match_forest_decompose`), in edge order, bits elsewhere by local search.

    The bits are chosen by flip-while-improving on the subgraph induced by
    the unmatched vertices, so they cut at least half of its weight and the
    returned value is at least (3/2) * matching weight + W/2, deterministically.
    """
    matched = picks == 2
    pairs = tuple(zip(g.u[matched].tolist(), g.v[matched].tolist()))
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
    bits = {i: int(spin[i] < 0) for i in unmatched}
    state = PairProductState(pairs=pairs, bits=bits)
    return state, pair_product_energy(g, state)


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


def pair_product_statevector(g: WeightedGraph, state: PairProductState) -> np.ndarray:
    """State vector of a pair-product state (for oracle cross-checks): the outer
    product of a singlet (|01> - |10>)/sqrt 2 on the axes (lower, higher) of
    each pair and a basis vector per unmatched bit, its axes put in vertex order."""
    _check_cover(g, state)
    singlet = np.array([[0, 1], [-1, 0]], dtype=complex) / np.sqrt(2.0)
    basis = np.eye(2, dtype=complex)
    factors = [singlet] * len(state.pairs) + [basis[b] for b in state.bits.values()]
    axes = [x for a, b in state.pairs for x in (min(a, b), max(a, b))] + list(state.bits)
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
                             singlet: tuple[PairProductState, float],
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
