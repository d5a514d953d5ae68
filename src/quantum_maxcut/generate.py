"""Random test-instance generators (edge-list graphs)."""
from __future__ import annotations

import numpy as np

from .graphs import GraphError, WeightedGraph, depth_parity


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


def gnp_graph(n: int, p: float, rng, weights: str = "unit") -> WeightedGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    ws = sample_weights(weights, len(edges), rng)
    return WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(edges, ws)])


def random_connected_graph(n: int, p: float, rng, weights: str = "unit",
                           max_tries: int = 1000) -> WeightedGraph:
    """G(n, p) conditioned on connectivity; falls back to padding with a
    random spanning tree if rejection takes too long."""
    for _ in range(max_tries):
        g = gnp_graph(n, p, rng, weights)
        if depth_parity(g.csr)[0] == 1:
            return g
    # pad: random permutation tree plus the gnp edges
    perm = list(rng.permutation(n))
    tree = [(perm[i], perm[i + 1]) for i in range(n - 1)]
    extra = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    keys = {(min(u, v), max(u, v)) for u, v in tree}
    edges = list(keys) + [e for e in ((min(u, v), max(u, v)) for u, v in extra)
                          if e not in keys]
    ws = sample_weights(weights, len(edges), rng)
    return WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(edges, ws)])


def regular_graph(n: int, d: int, rng, weights: str = "unit",
                  max_tries: int = 2000) -> WeightedGraph:
    """Random d-regular simple graph by the pairing model with rejection."""
    if n * d % 2 != 0:
        raise GraphError(f"no {d}-regular graph on {n} vertices (n*d is odd)")
    if d >= n:
        raise GraphError("degree must be below the vertex count")
    stubs = np.repeat(np.arange(n), d)
    for _ in range(max_tries):
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        keys = set()
        ok = True
        for a, b in pairs:
            a, b = int(a), int(b)
            if a == b or (min(a, b), max(a, b)) in keys:
                ok = False
                break
            keys.add((min(a, b), max(a, b)))
        if ok:
            ws = sample_weights(weights, len(keys), rng)
            edges = sorted(keys)
            return WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(edges, ws)])
    raise GraphError("pairing model failed to produce a simple graph")


def star_graph(n: int, weights: str = "unit", rng=None) -> WeightedGraph:
    if n < 2:
        raise GraphError("a star needs at least 2 vertices")
    rng = rng if rng is not None else np.random.default_rng(0)
    ws = sample_weights(weights, n - 1, rng)
    return WeightedGraph.from_edges(n, [(0, v, ws[v - 1]) for v in range(1, n)])


def cycle_graph(n: int, weights: str = "unit", rng=None) -> WeightedGraph:
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    rng = rng if rng is not None else np.random.default_rng(0)
    ws = sample_weights(weights, n, rng)
    edges = [(v, (v + 1) % n, ws[v]) for v in range(n)]
    return WeightedGraph.from_edges(n, edges)


def to_edge_list(g: WeightedGraph) -> str:
    lines = [f"{u} {v} {w}" for u, v, w in g.edges]
    return "\n".join(lines) + "\n"
