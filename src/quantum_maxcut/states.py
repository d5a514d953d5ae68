"""Product and tensor-product-of-few-qubit candidate states and their energies.

All evaluators are exact closed forms; the state-vector oracle is only used
in tests to cross-check them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    MatchForestDecomposition,
    WeightedGraph,
    cut_value,
    depth_parity,
    two_color_forest,
)
from .sdp import RoundingOutcome, mixing_ascent, sdp_objective


def product_energy(g: WeightedGraph, bloch) -> float:
    """Energy of the product state with one unit Bloch vector per vertex:
    sum over edges of (w/2)(1 - v_u . v_v)."""
    bloch = np.asarray(bloch, dtype=float)
    if bloch.shape != (g.n, 3):
        raise ValueError(f"expected {g.n} Bloch vectors in R^3")
    return sdp_objective(g, bloch)


def tree_coloring_state(g: WeightedGraph) -> tuple[tuple[int, ...], float]:
    """2-coloring of a BFS spanning forest: each vertex's bit is the parity of
    its unweighted distance from the smallest vertex of its component, so all
    n - (number of components) forest edges are cut."""
    _, bits = depth_parity(g.csr)
    return bits, cut_value(g, bits)


@dataclass(frozen=True)
class PairProductState:
    """Singlets on a partial matching plus a computational basis bit per
    unmatched vertex."""

    pairs: tuple[tuple[int, int], ...]
    bits: dict[int, int]  # unmatched vertex -> bit

    def __post_init__(self):
        seen = set()
        for a, b in self.pairs:
            if a == b or a in seen or b in seen:
                raise ValueError("pairs must be vertex-disjoint")
            seen.update((a, b))
        if seen & set(self.bits):
            raise ValueError("a vertex cannot be both paired and assigned a bit")

    def covered(self) -> set[int]:
        return {x for p in self.pairs for x in p} | set(self.bits)


def _check_cover(g, state):
    if state.covered() != set(range(g.n)):
        raise ValueError("pairs and bits must cover every vertex exactly once")


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


def match_singlet_state(g: WeightedGraph, decomp: MatchForestDecomposition
                        ) -> tuple[PairProductState, float]:
    """Singlets on the doubly-maximal matching, bits elsewhere by local search.

    The bits are chosen by flip-while-improving on the subgraph induced by
    the unmatched vertices, so they cut at least half of its weight and the
    returned value is at least (3/2) * matching weight + W/2, deterministically.
    """
    pairs = tuple((u, v) for u, v, _ in decomp.matching)
    unmatched = np.array(decomp.unmatched, dtype=np.intp)
    sub = g.csr[unmatched][:, unmatched]  # the subgraph they induce
    spin = np.ones(len(unmatched))  # +1 for bit 0, -1 for bit 1
    improved = True
    while improved:
        improved = False
        for i in range(len(unmatched)):
            row = slice(sub.indptr[i], sub.indptr[i + 1])
            # uncut minus cut neighbor weight: flipping gains it
            if spin[i] * (sub.data[row] @ spin[sub.indices[row]]) > 0:
                spin[i] = -spin[i]
                improved = True
    bits = dict(zip(unmatched.tolist(), (spin < 0).astype(int).tolist()))
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
    """State vector of a pair-product state (for oracle cross-checks)."""
    _check_cover(g, state)
    n = g.n
    t = np.zeros([2] * n, dtype=complex)
    pairs = state.pairs
    k = len(pairs)
    amp = (1.0 / np.sqrt(2.0)) ** k
    base = [0] * n
    for v, b in state.bits.items():
        base[v] = int(b)
    for m in range(2 ** k):
        bits = list(base)
        sign = 1.0
        for i, (a, b) in enumerate(pairs):
            lo, hi = min(a, b), max(a, b)
            if (m >> i) & 1:
                bits[lo], bits[hi] = 1, 0  # the -|10> branch of the singlet
                sign = -sign
            else:
                bits[lo], bits[hi] = 0, 1
        t[tuple(bits)] += sign * amp
    return t.reshape(-1)


def local_search_product_state(g: WeightedGraph, starts: int = 50,
                               seed: int = 0) -> tuple[np.ndarray, float]:
    """Multi-start local search for the best product state.

    All starts run as one stack through the relaxation's coordinate ascent
    at rank 3, v_i <- -normalize(sum_j w_ij v_j), for up to 2000 sweeps until
    every start's sweep improvement is at most 1e-12 relative; its fixed points
    are exactly the first-order stationary points of the product energy on the
    sphere. Serves as the desk-scale ground truth for the best product-state value.
    """
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((starts, g.n, 3))
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    values, _, _ = mixing_ascent(g, vecs.transpose(1, 0, 2), 1e-12, 2000)
    best = vecs[np.argmax(values)]  # the first of equal best
    return best, sdp_objective(g, best)


@dataclass
class CandidateReport:
    """Best few-qubit candidate found for a graph; energy is recomputed from
    the payload by the closed-form evaluators."""

    label: str    # "tree-coloring" | "match-singlet" | "rank3-product"
    energy: float
    payload: dict
    candidates: dict[str, float]


def best_few_qubit_candidate(g: WeightedGraph, decomp: MatchForestDecomposition,
                             singlet: tuple[PairProductState, float],
                             rounding: RoundingOutcome) -> CandidateReport:
    """Maximum-energy candidate among the forest 2-coloring basis state of
    `decomp`, the matching/singlet state `singlet` (from `match_singlet_state`)
    and the rank-3 rounded product state `rounding` (from `rank3_round`).

    If the rank-3 rounding flags failure that candidate is skipped.
    """
    forest_bits = two_color_forest(g, decomp.forest)
    pair_state, pair_val = singlet
    entries = [
        ("tree-coloring", cut_value(g, forest_bits), {"bits": list(forest_bits)}),
        ("match-singlet", pair_val,
         {"pairs": [list(p) for p in pair_state.pairs],
          "bits": {str(k): v for k, v in pair_state.bits.items()}}),
    ]
    if not rounding.failed:
        entries.append(("rank3-product", rounding.value, {"bloch": rounding.bloch.tolist()}))
    label, energy_val, payload = max(entries, key=lambda e: e[1])
    return CandidateReport(label=label, energy=float(energy_val), payload=payload,
                           candidates={lab: float(val) for lab, val, _ in entries})
