"""Weighted graph container and the combinatorial subroutines used everywhere else.

Vertices are integers 0..n-1. Edges are stored canonically as (u, v, w) with
u < v, sorted by (u, v), and finite w >= 0. Graphs are immutable after
construction; all operations here are pure functions.

Every numeric evaluator reads one read-only core: a graph is built from its
edge arrays `u`, `v`, `w`, in any order and orientation; the constructor alone
validates them, in one vectorized pass, then orients and sorts them and derives
`edges`. `parse_graph` only tokenizes a document and hands the arrays over.
Computed on first use: the weight matrix `csr`, a `Csr` of numpy arrays (the
only neighborhood structure; the BFS of `depth_parity` walks its `indptr` and
`indices`), the `weight_exponent` k of the exact w / 2^k scaling that
scale-free stages run on, per-edge `triangles` and a proper vertex coloring
`color_classes`.

Every sparse product in the package is scipy's compiled CSR routine, bound
to its operands by `csr_product`, and `triangles` samples `csr` with its
compiled `csr_sample_values`. This module alone loads them, from the
extension module's file in scipy's install directory: `import scipy.sparse`
would first run the package init, which imports about 290 more modules
(numpy.f2py, numpy.testing and numpy.ma among them) and doubles the
start-up of a solve.
"""
from __future__ import annotations

import heapq
import importlib.util
import math
import sys
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

MAX_VERTEX_ID = int(np.iinfo(np.intp).max) - 1  # so that n = max id + 1 is a numpy index


class GraphError(ValueError):
    """Invalid graph, or a failed precondition; `row` indexes the input edge at fault, if any."""

    def __init__(self, reason: str, row: int | None = None):
        super().__init__(reason)
        self.reason, self.row = reason, row


class ParseError(ValueError):
    """An edge-list document could not be parsed."""


def _load_sparsetools():
    """The extension module `scipy.sparse._sparsetools`, scipy's compiled
    sparse routines, without `scipy.sparse`'s package init. `find_spec`
    finds scipy's directory without importing scipy, and the file is the
    first that exists with one of this interpreter's extension suffixes. A
    module already imported is reused; one loaded here is taken out of
    `sys.modules` (an extension registers itself there as it is created), so
    that a later `import scipy.sparse` sets up its own as usual. ImportError,
    naming the paths searched, if there is none."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    roots = (spec.submodule_search_locations or []) if spec else []
    paths = [Path(root, "sparse", "_sparsetools" + suffix)
             for root in roots for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"cannot load {name}: searched {[str(p) for p in paths]}", name=name)
    ext = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(ext)
    if sys.modules.get(name) is module:
        del sys.modules[name]
    ext.loader.exec_module(module)
    return module


_SPARSETOOLS = _load_sparsetools()


class Csr(NamedTuple):
    """A sparse matrix in compressed sparse row form, as the three arrays of
    scipy's `csr_array`: row i holds data[indptr[i]:indptr[i + 1]] at the
    columns indices[indptr[i]:indptr[i + 1]]. It has len(indptr) - 1 rows."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def build_csr(n: int, rows: np.ndarray, cols: np.ndarray, data: np.ndarray) -> Csr:
    """The n x n Csr with entry data[i] at (rows[i], cols[i]), for positions
    given once each, with read-only arrays: the canonical arrays scipy's
    `csr_array` builds from these triples (each row's columns sorted, intp
    indices), from a bincount row pointer and one argsort. The sort key
    indptr[row] * s + rank(column), with rank(x) x's index among the s
    distinct columns, keeps the (row, column) order and, below N^2 for N
    entries, cannot overflow where row * n + column could."""
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    rank = np.cumsum(np.bincount(cols, minlength=n) > 0) - 1
    order = np.argsort(indptr[rows] * (rank[-1] + 1) + rank[cols])
    return Csr(_read_only(indptr), _read_only(cols[order].astype(np.intp, copy=False)),
               _read_only(data[order]))


def csr_product(a: Csr, x: np.ndarray, out: np.ndarray) -> Callable[[], None]:
    """The product out += A x as a function of no arguments, which reads x and
    out at each call (`csr_product(a, x, out)()` runs it once). A is a Csr
    whose indptr and indices share one integer dtype, x a C-contiguous float
    array of shape (columns,) or (columns, c), and out a C-contiguous float
    array of rows (times c) entries. The function is scipy's compiled
    `csr_matvec` or `csr_matvecs`, which `csr_array @ x` runs after its
    dispatch, with its arguments bound by `functools.partial`: a call runs no
    Python code and checks no shapes or dtypes, so a kernel binds its
    products to its buffers once. Each row's sum starts from out and adds
    the row's entries in stored order."""
    indptr, indices, data = a
    if x.ndim == 1:
        return partial(_SPARSETOOLS.csr_matvec, len(indptr) - 1, len(x),
                       indptr, indices, data, x, out)
    return partial(_SPARSETOOLS.csr_matvecs, len(indptr) - 1, *x.shape,
                   indptr, indices, data, x, out)


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected graph with finite nonnegative edge weights, built from
    rows (u[i], v[i], w[i]) in any order and orientation: edge i joins u[i] <
    v[i], sorted by (u, v), kept as read-only intp and float copies (never the
    caller's arrays). The first bad row raises GraphError with its index as
    `row`, in the check order `parse_graph` lists. `==` and `hash` compare `n`
    and `edges`, so one edge set makes one graph."""

    n: int
    u: np.ndarray = field(repr=False, compare=False)
    v: np.ndarray = field(repr=False, compare=False)
    w: np.ndarray = field(repr=False, compare=False)
    edges: tuple[tuple[int, int, float], ...] = field(init=False)
    total_weight: float = field(init=False, repr=False, compare=False)  # Python's sum()

    def __post_init__(self):
        n = self.n
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n > MAX_VERTEX_ID + 1:
            raise GraphError(f"vertex count must be an integer up to {MAX_VERTEX_ID + 1}: {n!r}")
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        u = self.u if isinstance(self.u, np.ndarray) else np.array(self.u, dtype=object)
        v = self.v if isinstance(self.v, np.ndarray) else np.array(self.v, dtype=object)
        try:
            w = np.array(self.w, dtype=float)
        except (TypeError, ValueError) as exc:
            raise GraphError(f"weights must be numbers: {exc}") from exc
        if not u.ndim == v.ndim == w.ndim == 1 or not len(u) == len(v) == len(w):
            raise GraphError(f"u, v, w must be 1-D of one length: {u.shape}, {v.shape}, {w.shape}")
        u, v = _vertex_ids(u), _vertex_ids(v)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        repeated, order = _repeats(lo, hi)
        _raise_first([
            (u == v, "self-loop at vertex {lo}"),
            (~np.isfinite(w), "weight must be finite, got {w}"),
            (w < 0, "negative weight {w}"),
            (lo < 0, "negative vertex id"),
            (hi >= n, f"vertex id too large, above {n - 1}"),
            (repeated, "duplicate edge ({lo}, {hi})"),
        ], w=w, lo=lo, hi=hi)
        u, v, w = lo[order].astype(np.intp), hi[order].astype(np.intp), w[order]
        ws = w.tolist()
        total = float(sum(ws))
        if not math.isfinite(2 * total):
            raise GraphError(f"total weight {total} too large: twice it must be finite")
        vars(self).update(n=int(n), u=_read_only(u), v=_read_only(v), w=_read_only(w),  # frozen
                          total_weight=total, edges=tuple(zip(u.tolist(), v.tolist(), ws)))

    @classmethod
    def from_edges(cls, n, edges):
        """Build a graph from (u, v) or (u, v, w) items, in any order and orientation."""
        rows = [(*e, 1.0) if len(e) == 2 else e for e in edges]
        if any(len(e) != 3 for e in rows):
            raise GraphError("an edge must be a (u, v) or (u, v, w) item")
        return cls(n, *(zip(*rows) if rows else ((), (), ())))

    @cached_property
    def degree(self) -> tuple[int, ...]:
        return tuple(np.bincount(np.r_[self.u, self.v], minlength=self.n).tolist())

    @cached_property
    def max_degree(self) -> int:
        return max(self.degree)

    @cached_property
    def csr(self) -> Csr:
        """Symmetric n x n matrix of edge weights as a `Csr` of read-only numpy
        arrays, built from u, v, w; each row's columns are sorted. A
        zero-weight edge is a stored zero: still an edge."""
        return build_csr(self.n, np.r_[self.u, self.v], np.r_[self.v, self.u],
                          np.r_[self.w, self.w])

    @cached_property
    def weight_exponent(self) -> int:
        """k with 2^k the power of two just above the largest weight (0 if none
        is positive): stages run on w / 2^k, exact, so results scale with w."""
        return math.frexp(float(self.w.max(initial=0.0)))[1]

    @cached_property
    def triangles(self) -> np.ndarray:
        """Per-edge number of common neighbors of the endpoints: each neighbor
        x of the lower-degree endpoint is looked up among the sorted
        neighbors of the other, in O(sum over edges of the smaller degree)
        lookups, all in one call of scipy's compiled `csr_sample_values`,
        which bisects the row of each lookup. It samples a pattern of ones
        with `csr`'s indptr and indices, so a zero-weight edge counts."""
        indptr, indices = self.csr.indptr, self.csr.indices
        deg = np.diff(indptr)
        swap = deg[self.u] > deg[self.v]
        low, high = np.where(swap, self.v, self.u), np.where(swap, self.u, self.v)
        count = deg[low]  # at least 1: every edge's own
        start = np.cumsum(count) - count  # where each edge's lookups begin
        total = int(count.sum())
        # where in `indices` the neighbors of each edge's low endpoint sit
        pos = np.arange(total) + np.repeat(indptr[low] - start, count)
        hits = np.zeros(total, dtype=np.int8)
        _SPARSETOOLS.csr_sample_values(self.n, self.n, indptr, indices,
                                       np.ones(len(indices), dtype=np.int8), total,
                                       np.repeat(high, count), indices[pos], hits)
        return _read_only(np.add.reduceat(hits, start, dtype=np.intp))

    @cached_property
    def color_classes(self) -> tuple[np.ndarray, ...]:
        """DSATUR proper vertex coloring (Brelaz, CACM 22, 1979): each step gives
        the uncolored vertex with the most distinct neighbor colors (ties: higher
        degree, then lower index) its lowest free color. One sorted index array
        per color, at most max_degree + 1 of them, two on a bipartite graph. No
        edge joins two vertices of one class."""
        n = self.n
        indptr, indices = self.csr.indptr.tolist(), self.csr.indices.tolist()
        color = [-1] * n
        taken = [0] * n  # bit c of taken[x] is set iff a neighbor of x has color c
        # a heap of (-saturation, -degree, vertex) as the one int, ordered alike,
        # (n - saturation) n^2 + (n - 1 - degree) n + vertex, each term below n but the first
        tail = [(n - 1 - d) * n + x for x, d in enumerate(self.degree)]
        heap = [n * n * n + key for key in tail]  # stale entries rank below a vertex's current one
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            x = pop(heap) % n
            if color[x] >= 0:
                continue
            c = color[x] = _lowest_free(taken[x])
            bit = 1 << c
            for y in indices[indptr[x]:indptr[x + 1]]:
                if color[y] < 0 and not taken[y] & bit:
                    mask = taken[y] = taken[y] | bit
                    push(heap, (n - mask.bit_count()) * n * n + tail[y])
        color = np.array(color)
        return tuple(_read_only(np.flatnonzero(color == c)) for c in range(color.max() + 1))

    def is_regular(self):
        """Return the common degree if the graph is regular, else None."""
        return self.degree[0] if len(set(self.degree)) == 1 else None


def check_size(*shape: int) -> None:
    """MemoryError, naming the size, for a float array whose byte count numpy
    cannot even index (it would raise ValueError, "array is too big")."""
    count = math.prod(shape)
    if count * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"cannot allocate a {' x '.join(map(str, shape))} float array: "
                          f"{count * 8} bytes is beyond numpy's index range")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _lowest_free(mask: int) -> int:
    """Index of the lowest clear bit of a bitmask of taken colors."""
    return (~mask & (mask + 1)).bit_length() - 1


def parse_graph(text: str) -> WeightedGraph:
    """Parse an edge-list document: lines "u v [w]", '#' comments, blanks ignored.

    Weights default to 1.0. Vertex count is max id + 1. An error names the
    first bad line and, on it, the first failing check in this order: token
    count, integer ids, real weight, then the constructor's table: self-loop,
    finite weight, nonnegative weight, nonnegative ids, ids at most
    MAX_VERTEX_ID, a pair no earlier line has. One Python pass tokenizes up
    to the first token that does not convert; the constructor checks the
    lines before it, and the row it rejects is named by its line.
    """
    rows = []  # (line number, u, v, w) of each edge line
    fault = None  # the first line whose tokens do not convert
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        if len(parts) not in (2, 3):
            fault = f"line {lineno}: expected 'u v [w]', got {raw!r}"
            break
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            fault = f"line {lineno}: vertex ids must be integers"
            break
        try:
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            fault = f"line {lineno}: weight must be a real number"
            break
        rows.append((lineno, u, v, w))
    if not rows:
        raise ParseError(fault or "no edges in document")
    lines, us, vs, ws = zip(*rows)
    try:
        g = WeightedGraph(min(max(max(us), max(vs), 0), MAX_VERTEX_ID) + 1, _ids(us), _ids(vs), ws)
    except GraphError as exc:
        if exc.row is not None:
            raise ParseError(f"line {lines[exc.row]}: {exc.reason}") from None
        if fault is None:
            raise
    if fault is not None:
        raise ParseError(fault)
    return g


def _ids(values) -> np.ndarray:
    """Vertex ids as an intp array, or as an object array of Python ints when
    one is beyond intp, so that the checks can still name it."""
    try:
        return np.array(values, dtype=np.intp)
    except OverflowError:
        return np.array(values, dtype=object)


def _vertex_ids(a: np.ndarray) -> np.ndarray:
    """`_ids` of a 1-D array as a new array; GraphError at the first id that is
    not an integer, or is a bool (a sequence arrives as objects, so none is cast)."""
    if a.dtype == np.intp or a.dtype.kind in "iu" and np.can_cast(a.dtype, np.intp):
        return a.astype(np.intp)
    ids = a.tolist()
    for x in ids:
        if not isinstance(x, (int, np.integer)) or isinstance(x, bool):
            raise GraphError(f"vertex id {x!r} is not an integer")
    return _ids(ids)


def _repeats(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mask of rows whose pair (a, b) an earlier row already has, and the
    rows in (a, b) order: a stable lexsort, so a pair's first row leads."""
    order = np.lexsort((b, a))
    a_sorted, b_sorted = a[order], b[order]
    repeated = np.zeros(len(order), dtype=bool)
    repeated[order[1:]] = (a_sorted[1:] == a_sorted[:-1]) & (b_sorted[1:] == b_sorted[:-1])
    return repeated, order


def _raise_first(checks: list, **columns) -> None:
    """Raise GraphError at the first row flagged by any mask of `checks`, a
    list of (mask, message template) in check order, with the template of the
    first mask that flags it, formatted with that row of each column."""
    flagged = np.array([mask for mask, _ in checks])
    if np.count_nonzero(flagged):
        row = int(flagged.any(axis=0).argmax())
        template = checks[int(flagged[:, row].argmax())][1]
        raise GraphError(template.format(**{k: col[row] for k, col in columns.items()}), row)


def two_color_forest(g: WeightedGraph, forest: np.ndarray) -> tuple[int, ...]:
    """Proper 2-coloring of the forest of g's edges where the boolean mask
    `forest`, one entry per row of g's edge arrays, is True; vertices in no
    such edge get bit 0.

    A vertex's bit is the parity of its depth in its tree (`depth_parity`).
    ValueError if `forest` is not such a mask; GraphError if the edge set
    contains a cycle (more edges than n minus the number of components).
    """
    forest = np.asarray(forest)
    if forest.dtype != bool or forest.shape != g.w.shape:
        raise ValueError(f"forest must be a boolean mask of shape {g.w.shape}, "
                         f"got {forest.dtype} of shape {forest.shape}")
    count, bits = pair_depth_parity(g.n, g.u[forest], g.v[forest])
    if np.count_nonzero(forest) != g.n - count:
        raise GraphError("edge set contains a cycle")
    return bits


def pair_depth_parity(n: int, u: np.ndarray, v: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """`depth_parity` of the graph on vertices 0..n-1 whose edges are the
    pairs (u[i], v[i]), each given once in either orientation."""
    # each edge stored both ways, as the BFS follows stored entries only
    return depth_parity(build_csr(n, np.r_[u, v], np.r_[v, u], np.ones(2 * len(u))))


def depth_parity(a: Csr) -> tuple[int, tuple[int, ...]]:
    """Number of components of the undirected graph whose edges are the
    stored entries of the symmetric CSR matrix a (explicit zeros included),
    and each vertex's parity of its unweighted BFS depth from the smallest
    vertex of its component. The parities properly 2-color a BFS spanning
    forest of a: all n minus (number of components) of its edges are cut.
    """
    indptr, indices = a.indptr.tolist(), a.indices.tolist()
    parity = [-1] * (len(indptr) - 1)
    count = 0
    for root in range(len(parity)):  # in vertex order: each new root is its component's smallest
        if parity[root] >= 0:
            continue
        count += 1
        parity[root] = 0
        queue = deque([root])
        while queue:
            x = queue.popleft()
            bit = 1 - parity[x]
            for y in indices[indptr[x]:indptr[x + 1]]:
                if parity[y] < 0:
                    parity[y] = bit
                    queue.append(y)
    return count, tuple(parity)


def cut_value(g: WeightedGraph, bits) -> float:
    """Total weight of the edges cut by a bit string of length n."""
    bits = np.asarray(bits)
    if bits.shape != (g.n,):
        raise GraphError("bit string length must equal the vertex count")
    return float((bits[g.u] != bits[g.v]) @ g.w)


def match_forest_decompose(g: WeightedGraph) -> np.ndarray:
    """Each vertex's heaviest incident edge, as a read-only count per row of
    g's edge arrays of the endpoints that pick that edge: 0, 1 or 2.

    Ties between equal weights go to the higher canonical edge index, so the
    picks are deterministic. The picked edges, F = picks > 0, form a forest;
    the edges both endpoints pick, M = picks == 2, a matching. A vertex on an
    edge picks exactly one, so g.w @ picks is sum_v max_{e ~ v} w_e.
    """
    m = len(g.w)
    rank = np.empty(m, dtype=np.intp)  # edges strictly ordered by (w, index)
    rank[np.lexsort((np.arange(m), g.w))] = np.arange(m)
    top = np.full(g.n, -1)  # rank of each vertex's maximal incident edge
    np.maximum.at(top, g.u, rank)
    np.maximum.at(top, g.v, rank)
    return _read_only(np.bincount(top[top >= 0], minlength=m)[rank])


def proper_edge_coloring(g: WeightedGraph) -> dict[tuple[int, int], int]:
    """Proper edge coloring with at most max_degree + 1 colors.

    Edges are colored in canonical order. Each takes the lowest color free at
    both ends if that color is below max_degree + 1; only when there is none
    does it go through the Misra-Gries step (maximal fan, alternating path
    inversion, fan rotation; Misra and Gries, IPL 41, 1992). That step extends
    any proper partial coloring within max_degree + 1 colors, so the Vizing
    bound holds either way.
    """
    ncolors = g.max_degree + 1
    past = 1 << ncolors  # the bit of the first color past the bound
    color = {}  # (u, v) -> color
    at = [dict() for _ in range(g.n)]  # at[v][color] = neighbor
    used = [0] * g.n  # bit c of used[v] is set iff color c is at v

    def ckey(u, v):
        return (u, v) if u < v else (v, u)

    def set_color(u, v, c):
        key = ckey(u, v)
        old = color.pop(key, None)
        if old is not None:
            del at[u][old]
            del at[v][old]
            used[u] ^= 1 << old
            used[v] ^= 1 << old
        if c is not None:
            color[key] = c
            at[u][c] = v
            at[v][c] = u
            used[u] |= 1 << c
            used[v] |= 1 << c

    def free_color(v):
        c = _lowest_free(used[v])
        if c >= ncolors:
            raise AssertionError("no free color; degree bound violated")
        return c

    for u0, v0, _ in g.edges:
        mask = used[u0] | used[v0]
        bit = ~mask & (mask + 1)  # the lowest color free at both ends, as its bit
        if bit < past:  # set_color(u0, v0, c) of an uncolored edge, inline
            c = bit.bit_length() - 1
            color[u0, v0] = c
            at[u0][c], at[v0][c] = v0, u0
            used[u0] |= bit
            used[v0] |= bit
            continue
        # maximal fan of u0 starting at v0
        fan = [v0]
        in_fan = {v0}
        while True:
            last = fan[-1]
            ext = None
            for c, x in at[u0].items():
                if x not in in_fan and c not in at[last]:
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
            if d in at[x]:
                continue
            ok = True
            for j in range(i):
                cj = color.get(ckey(u0, fan[j + 1]))
                if cj is None or cj in at[fan[j]]:
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
