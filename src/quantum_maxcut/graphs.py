"""Weighted graph container and the combinatorial subroutines used everywhere else.

Vertices are integers 0..n-1. Edges are stored canonically as (u, v, w) with
u < v and finite w >= 0. Graphs are immutable after construction; all
operations here are pure functions.

Every numeric evaluator reads one core, computed once per graph on first use
and read-only: edge arrays `u`, `v`, `w` in edge order, the sparse weight matrix
`csr` (the only neighborhood structure, which traversals hand to
`scipy.sparse.csgraph`), per-edge `triangles` and a proper vertex coloring
`color_classes`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph


class GraphError(ValueError):
    """Structurally invalid graph, or an operation's precondition failed."""


class ParseError(ValueError):
    """An edge-list document could not be parsed."""


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected graph with finite nonnegative edge weights."""

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("graph needs at least one vertex")
        seen = set()
        for u, v, w in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if u > v:
                raise GraphError(f"edge ({u}, {v}) not in canonical u < v order")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            if not math.isfinite(w):
                raise GraphError(f"non-finite weight {w} on edge ({u}, {v})")
            if w < 0:
                raise GraphError(f"negative weight {w} on edge ({u}, {v})")
            seen.add((u, v))

    @classmethod
    def from_edges(cls, n, edges):
        """Build a graph from (u, v) or (u, v, w) items, canonicalizing order."""
        canon = []
        for e in edges:
            if len(e) == 2:
                u, v = e
                w = 1.0
            else:
                u, v, w = e
            if u > v:
                u, v = v, u
            canon.append((int(u), int(v), float(w)))
        canon.sort(key=lambda e: (e[0], e[1]))
        return cls(n, tuple(canon))

    @cached_property
    def degree(self) -> tuple[int, ...]:
        return tuple(np.bincount(np.r_[self.u, self.v], minlength=self.n).tolist())

    @cached_property
    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))

    @cached_property
    def max_degree(self) -> int:
        return max(self.degree) if self.n else 0

    @cached_property
    def u(self) -> np.ndarray:
        return _read_only(np.array([e[0] for e in self.edges], dtype=np.intp))

    @cached_property
    def v(self) -> np.ndarray:
        return _read_only(np.array([e[1] for e in self.edges], dtype=np.intp))

    @cached_property
    def w(self) -> np.ndarray:
        return _read_only(np.array([e[2] for e in self.edges], dtype=float))

    @cached_property
    def csr(self) -> sp.csr_array:
        """Symmetric n x n matrix of edge weights in compressed sparse row form,
        built from u, v, w. A zero-weight edge is a stored zero: still an edge."""
        a = sp.csr_array((np.r_[self.w, self.w], (np.r_[self.u, self.v], np.r_[self.v, self.u])),
                         shape=(self.n, self.n))
        for part in (a.data, a.indices, a.indptr):
            _read_only(part)
        return a

    @cached_property
    def triangles(self) -> np.ndarray:
        """Per-edge number of common neighbors of the endpoints."""
        a = self.csr
        pattern = sp.csr_array((np.ones_like(a.data), a.indices, a.indptr), shape=a.shape)
        return _read_only(pattern[self.u].multiply(pattern[self.v]).sum(axis=1).astype(np.intp))

    @cached_property
    def color_classes(self) -> tuple[np.ndarray, ...]:
        """Greedy first-fit proper vertex coloring, visiting vertices in order:
        one sorted index array per color, at most max_degree + 1 of them. No
        edge joins two vertices of one class."""
        indptr, indices = self.csr.indptr.tolist(), self.csr.indices.tolist()
        color = [0] * self.n
        for x in range(self.n):
            taken = {color[y] for y in indices[indptr[x]:indptr[x + 1]] if y < x}
            color[x] = next(c for c in range(len(taken) + 1) if c not in taken)
        color = np.array(color)
        return tuple(_read_only(np.flatnonzero(color == c)) for c in range(color.max() + 1))

    def is_regular(self):
        """Return the common degree if the graph is regular, else None."""
        degs = set(self.degree)
        return self.degree[0] if len(degs) == 1 else None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def parse_graph(text: str) -> WeightedGraph:
    """Parse an edge-list document: lines "u v [w]", '#' comments, blanks ignored.

    Weights default to 1.0. Vertex count is max id + 1.
    """
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'u v [w]', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: vertex ids must be integers") from None
        w = 1.0
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: weight must be a real number") from None
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        if not math.isfinite(w):
            raise ParseError(f"line {lineno}: weight must be finite, got {w}")
        if w < 0:
            raise ParseError(f"line {lineno}: negative weight {w}")
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate edge {key}")
        seen.add(key)
        edges.append((u, v, w))
    if not edges:
        raise ParseError("no edges in document")
    n = max(max(u, v) for u, v, _ in edges) + 1
    return WeightedGraph.from_edges(n, edges)


def two_color_forest(g: WeightedGraph, forest) -> tuple[int, ...]:
    """Proper 2-coloring of the given forest edges; vertices in no edge get bit 0.

    A vertex's bit is the parity of its depth in its tree (`depth_parity`).
    Errors if the edge set contains a cycle (more edges than n minus the
    number of components).
    """
    ends = np.array([e[:2] for e in forest], dtype=np.intp).reshape(-1, 2)
    f = sp.csr_array((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(g.n, g.n))
    count, bits = depth_parity(f)
    if len(ends) != g.n - count:
        raise GraphError("edge set contains a cycle")
    return bits


def depth_parity(a: sp.csr_array) -> tuple[int, tuple[int, ...]]:
    """Number of components of the undirected graph with sparsity pattern a,
    and each vertex's parity of its unweighted BFS depth from the smallest
    vertex of its component. The parities properly 2-color a BFS spanning
    forest of a: all n minus (number of components) of its edges are cut.
    """
    count, labels = csgraph.connected_components(a, directed=False)
    _, roots = np.unique(labels, return_index=True)  # each component's smallest vertex
    depth = csgraph.dijkstra(a, directed=False, indices=roots, unweighted=True, min_only=True)
    return count, tuple((depth % 2).astype(int).tolist())


def cut_value(g: WeightedGraph, bits):
    """Total weight of the edges cut by a bit string.

    A (k, n) array of bit strings gives an array of k cut values.
    """
    bits = np.asarray(bits)
    if bits.shape[-1:] != (g.n,):
        raise GraphError("bit string length must equal the vertex count")
    values = (bits[..., g.u] != bits[..., g.v]) @ g.w
    return float(values) if values.ndim == 0 else values


@dataclass(frozen=True)
class MatchForestDecomposition:
    """Per-vertex heaviest incident edges split into a matching and a forest.

    The doubly-maximal edges (picked by both endpoints) form the matching;
    the union of all picks is a forest. The identity
    sum_v max_{e ~ v} w_e = matching_weight + forest_weight holds exactly.
    """

    matching: tuple[tuple[int, int, float], ...]
    forest: tuple[tuple[int, int, float], ...]
    matching_weight: float
    forest_weight: float
    unmatched: tuple[int, ...]


def match_forest_decompose(g: WeightedGraph) -> MatchForestDecomposition:
    """Decompose the per-vertex maximal incident edges.

    Ties between equal weights are broken by canonical edge index (lower
    index = smaller), so the output is deterministic.
    """
    m = len(g.edges)
    rank = np.empty(m, dtype=np.intp)  # edges strictly ordered by (w, index)
    rank[np.lexsort((np.arange(m), g.w))] = np.arange(m)
    top = np.full(g.n, -1)  # rank of each vertex's maximal incident edge
    np.maximum.at(top, g.u, rank)
    np.maximum.at(top, g.v, rank)
    picks = np.bincount(top[top >= 0], minlength=m)[rank]  # per edge: 0, 1 or 2
    forest = tuple(sorted(g.edges[i] for i in np.flatnonzero(picks > 0)))
    matching = tuple(sorted(g.edges[i] for i in np.flatnonzero(picks == 2)))
    covered = {x for u, v, _ in matching for x in (u, v)}
    return MatchForestDecomposition(
        matching=matching,
        forest=forest,
        matching_weight=float(sum(w for _, _, w in matching)),
        forest_weight=float(sum(w for _, _, w in forest)),
        unmatched=tuple(v for v in range(g.n) if v not in covered),
    )


def proper_edge_coloring(g: WeightedGraph) -> dict[tuple[int, int], int]:
    """Proper edge coloring with at most max_degree + 1 colors (Misra-Gries)."""
    if not g.edges:
        return {}
    ncolors = g.max_degree + 1
    color = {}  # (u, v) -> color
    at = [dict() for _ in range(g.n)]  # at[v][color] = neighbor

    def ckey(u, v):
        return (u, v) if u < v else (v, u)

    def set_color(u, v, c):
        old = color.get(ckey(u, v))
        if old is not None:
            del at[u][old]
            del at[v][old]
        if c is not None:
            color[ckey(u, v)] = c
            at[u][c] = v
            at[v][c] = u
        else:
            color.pop(ckey(u, v), None)

    def free_color(v):
        for c in range(ncolors):
            if c not in at[v]:
                return c
        raise AssertionError("no free color; degree bound violated")

    def is_free(c, v):
        return c not in at[v]

    for u0, v0, _ in g.edges:
        # maximal fan of u0 starting at v0
        fan = [v0]
        in_fan = {v0}
        while True:
            last = fan[-1]
            ext = None
            for c, x in at[u0].items():
                if x not in in_fan and is_free(c, last):
                    ext = x
                    break
            if ext is None:
                break
            fan.append(ext)
            in_fan.add(ext)
        c = free_color(u0)
        d = free_color(fan[-1])
        if c != d:
            # invert the maximal path from u0 alternating colors d, c, d, ...
            path = []
            cur, col, prev = u0, d, None
            while col in at[cur] and at[cur][col] != prev:
                nxt = at[cur][col]
                path.append((cur, nxt, col))
                prev, cur = cur, nxt
                col = c if col == d else d
            for a, b, col in path:
                set_color(a, b, None)
            for a, b, col in path:
                set_color(a, b, c if col == d else d)
        # first fan prefix ending at a vertex with d free that is still a fan
        w_idx = None
        for i, x in enumerate(fan):
            if not is_free(d, x):
                continue
            ok = True
            for j in range(i):
                cj = color.get(ckey(u0, fan[j + 1]))
                if cj is None or not is_free(cj, fan[j]):
                    ok = False
                    break
            if ok:
                w_idx = i
                break
        if w_idx is None:
            raise AssertionError("fan rotation target must exist")
        # rotate the prefix, then color the final edge d
        shifted = [color[ckey(u0, fan[i + 1])] for i in range(w_idx)]
        for i in range(w_idx):
            set_color(u0, fan[i + 1], None)
        for i in range(w_idx):
            set_color(u0, fan[i], shifted[i])
        set_color(u0, fan[w_idx], d)
    return color
