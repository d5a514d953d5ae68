"""Random test-instance generators (edge-list graphs).

Each generator checks that numpy can index the arrays its vertex count asks
for (`check_size`) before it allocates: a count it cannot is a MemoryError.
"""
from __future__ import annotations

import numpy as np

from .graphs import GraphError, WeightedGraph, _repeats, check_size, pair_depth_parity

CONNECT_TRIES = 1000  # G(n, p) draws before random_connected_graph pads with a tree
PAIRING_TRIES = 2000  # pairings regular_graph draws before it gives up


def sample_weights(kind: str, count: int, rng) -> list[float]:
    """Edge weights: "unit" (all 1), "uniform" on (0, 1], or "exp" (mean 1,
    heavy-tailed enough to stress the single-heavy-edge regime)."""
    if kind == "unit":
        return [1.0] * count
    if kind == "uniform":
        return list(1.0 - rng.random(count))
    if kind == "exp":
        return list(rng.exponential(1.0, count))
    raise ValueError(f"unknown weight model {kind!r}")


def _gnp_pairs(n: int, p: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """The pairs u < v of G(n, p) in order, as arrays u and v, each kept if its
    uniform draw is below p; the draws of pairs (u, u+1..n-1) are taken as one row."""
    check_size(n)
    rows = [np.flatnonzero(rng.random(n - 1 - u) < p) + u + 1 for u in range(n)]
    return (np.repeat(np.arange(n), [len(row) for row in rows]),
            np.concatenate([np.zeros(0, dtype=np.intp), *rows]))


def gnp_graph(n: int, p: float, rng, weights: str = "unit") -> WeightedGraph:
    u, v = _gnp_pairs(n, p, rng)
    return WeightedGraph(n, u, v, sample_weights(weights, len(u), rng))


def random_connected_graph(n: int, p: float, rng, weights: str = "unit") -> WeightedGraph:
    """G(n, p) conditioned on connectivity; after CONNECT_TRIES draws, falls
    back to padding a random spanning tree with the pairs of one more draw.
    Every draw takes its weights, so the RNG stream is that of drawing whole
    graphs, but connectivity is tested on the pairs and only the accepted
    draw becomes a graph (fewer than n - 1 pairs cannot be connected)."""
    if n < 1:  # the connectivity test cannot take a negative count
        raise GraphError("graph needs at least one vertex")
    for _ in range(CONNECT_TRIES):
        u, v = _gnp_pairs(n, p, rng)
        ws = sample_weights(weights, len(u), rng)
        if len(u) >= n - 1 and pair_depth_parity(n, u, v)[0] == 1:
            return WeightedGraph(n, u, v, ws)
    # pad: random permutation tree plus the gnp edges
    perm = rng.permutation(n).tolist()
    keys = {(min(a, b), max(a, b)) for a, b in zip(perm, perm[1:])}
    u, v = _gnp_pairs(n, p, rng)
    pairs = list(keys) + [e for e in zip(u.tolist(), v.tolist()) if e not in keys]
    u, v = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return WeightedGraph(n, u, v, sample_weights(weights, len(pairs), rng))


def regular_graph(n: int, d: int, rng, weights: str = "unit") -> WeightedGraph:
    """Random d-regular simple graph by the pairing model with rejection."""
    if n * d % 2 != 0:
        raise GraphError(f"no {d}-regular graph on {n} vertices (n*d is odd)")
    if d >= n:
        raise GraphError("degree must be below the vertex count")
    check_size(n, d)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(PAIRING_TRIES):
        rng.shuffle(stubs)
        lo, hi = np.minimum(stubs[0::2], stubs[1::2]), np.maximum(stubs[0::2], stubs[1::2])
        repeated, order = _repeats(lo, hi)
        if not (lo == hi).any() and not repeated.any():  # no self-loop, no duplicate
            return WeightedGraph(n, lo[order], hi[order], sample_weights(weights, len(lo), rng))
    raise GraphError("pairing model failed to produce a simple graph")


def star_graph(n: int, weights: str = "unit", rng=None) -> WeightedGraph:
    if n < 2:
        raise GraphError("a star needs at least 2 vertices")
    check_size(n)
    rng = rng if rng is not None else np.random.default_rng(0)
    ws = sample_weights(weights, n - 1, rng)
    return WeightedGraph(n, np.zeros(n - 1, dtype=np.intp), np.arange(1, n), ws)


def cycle_graph(n: int, weights: str = "unit", rng=None) -> WeightedGraph:
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    check_size(n)
    rng = rng if rng is not None else np.random.default_rng(0)
    ws = sample_weights(weights, n, rng)
    return WeightedGraph(n, np.arange(n), (np.arange(n) + 1) % n, ws)


def to_edge_list(g: WeightedGraph) -> str:
    lines = [f"{u} {v} {w}" for u, v, w in g.edges]
    return "\n".join(lines) + "\n"
