import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph

from quantum_maxcut import (
    GraphError,
    ParseError,
    WeightedGraph,
    match_forest_decompose,
    match_singlet_state,
    parse_graph,
    proper_edge_coloring,
    tree_coloring_state,
    two_color_forest,
)
from quantum_maxcut import graphs
from quantum_maxcut.generate import gnp_graph, regular_graph
from quantum_maxcut.graphs import build_csr, depth_parity
from pair_products import (bits_of, pair_product_energy_loop, pair_product_formula,
                           random_pair_product_state)
from scipy_reference import scipy_csr

SRC = str(Path(__file__).resolve().parent.parent / "src")


def complete_graph(n):
    return WeightedGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def k4():
    return complete_graph(4)


def triangle():
    return parse_graph("0 1\n1 2\n2 0")


class TestParse:
    def test_single_edge(self):
        g = parse_graph("0 1 1.0")
        assert g.n == 2
        assert (g.u.tolist(), g.v.tolist(), g.w.tolist()) == ([0], [1], [1.0])
        assert g.total_weight == 1.0

    def test_unweighted_default(self):
        g = triangle()
        assert g.n == 3
        assert g.w.tolist() == [1.0, 1.0, 1.0]
        assert g.degree.tolist() == [2, 2, 2]

    def test_negative_weight_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_graph("0 1 -2")

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ParseError, match="line 2: weight must be finite"):
            parse_graph(f"1 2 1\n0 1 {weight}")

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_graph("3 3")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph("0 1\n1 0 2.0")

    def test_vertex_id_too_large_rejected(self):
        """n = max id + 1 must be a numpy index."""
        top = int(np.iinfo(np.intp).max)
        assert parse_graph(f"0 {top - 1}").n == top
        for big in (top, 10**30):
            with pytest.raises(ParseError, match="line 2: vertex id too large"):
                parse_graph(f"0 1\n{big} 1")

    def test_comments_and_blanks(self):
        g = parse_graph("# header\n\n0 1 2.5  # trailing\n")
        assert (g.u.tolist(), g.v.tolist(), g.w.tolist()) == ([0], [1], [2.5])

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("0 1\n0 one")


class TestGraphInvariants:
    def test_degree_matches_incidence(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = gnp_graph(int(rng.integers(2, 15)), 0.5, rng)
            for v in range(g.n):
                assert g.degree[v] == sum(1 for a, b in zip(g.u.tolist(), g.v.tolist())
                                          if v in (a, b))

    def test_noncanonical_order_oriented(self):
        g = WeightedGraph(3, [2], [1], [1.0])
        h = parse_graph("1 2")
        assert (g.n, g.u.tolist(), g.v.tolist(), g.w.tolist()) == (3, [1], [2], [1.0])
        assert (h.n, h.u.tolist(), h.v.tolist(), h.w.tolist()) == (3, [1], [2], [1.0])

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(GraphError, match=f"weight must be finite, got {weight}"):
            WeightedGraph(3, [0, 1], [1, 2], [1.0, weight])

    @pytest.mark.parametrize("weights", [["x"], [1.0, "2,5"], [object()], [1.0, [2.0]]])
    def test_weights_that_are_not_numbers_rejected(self, weights):
        u, v = list(range(len(weights))), list(range(1, len(weights) + 1))
        with pytest.raises(GraphError, match="weights must be numbers"):
            WeightedGraph(len(weights) + 1, u, v, weights)

    @pytest.mark.parametrize("weights", [(1e308, 1e308), (1e308, 7e307), (1.7e308,)])
    def test_total_weight_whose_double_overflows_rejected(self, weights):
        text = "".join(f"{i} {i + 1} {w!r}\n" for i, w in enumerate(weights))
        with pytest.raises(GraphError, match="total weight"):
            parse_graph(text)

    def test_largest_total_weight_accepted(self):
        assert parse_graph("0 1 4e307\n1 2 4e307").total_weight == 8e307


class TestEdgeArrays:
    def test_arrays_match_edges(self):
        g = parse_graph("0 1 0.5\n1 2\n0 2 3")
        assert g.u.tolist() == [0, 0, 1]
        assert g.v.tolist() == [1, 2, 2]
        assert g.w.tolist() == [0.5, 3.0, 1.0]
        assert g.triangles.tolist() == [1, 1, 1]
        assert np.array_equal(scipy_csr(g.csr).toarray(), [[0, 0.5, 3], [0.5, 0, 1], [3, 1, 0]])

    def test_cached_and_read_only(self):
        g = k4()
        for name in ("u", "v", "w", "triangles"):
            arr = getattr(g, name)
            assert getattr(g, name) is arr
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0


class TestColorClasses:
    def test_proper_coloring_within_degree_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g = gnp_graph(int(rng.integers(1, 30)), float(rng.uniform(0.05, 0.9)), rng)
            classes = g.color_classes
            assert len(classes) <= g.max_degree + 1
            assert sorted(np.concatenate(classes).tolist()) == list(range(g.n))
            color = np.empty(g.n, dtype=int)
            for c, members in enumerate(classes):
                assert members.tolist() == sorted(members.tolist())
                color[members] = c
            assert not np.any(color[g.u] == color[g.v])

    def test_bipartite_graphs_get_two_classes(self):
        """DSATUR is exact on bipartite graphs; first-fit in index order is not
        (it used 3 classes on most of these)."""
        rng = np.random.default_rng(12)
        graphs = []
        for n in range(8, 80, 2):  # even cycles with permuted labels
            p = rng.permutation(n).tolist()
            graphs.append(WeightedGraph.from_edges(n, [(p[i], p[i - 1]) for i in range(n)]))
        for n in range(3, 60):  # random trees: each vertex joins an earlier one
            p = rng.permutation(n).tolist()
            graphs.append(WeightedGraph.from_edges(
                n, [(p[i], p[int(rng.integers(i))]) for i in range(1, n)]))
        assert [len(g.color_classes) for g in graphs] == [2] * len(graphs)

    def test_complete_graph_one_vertex_per_class(self):
        g = WeightedGraph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        assert [c.tolist() for c in g.color_classes] == [[i] for i in range(6)]

    def test_cached_and_read_only(self):
        g = parse_graph("0 1\n1 2\n2 3\n3 0")
        classes = g.color_classes
        assert g.color_classes is classes
        assert isinstance(classes, tuple)
        for members in classes:
            with pytest.raises(ValueError):
                members[0] = 0


class TestCsr:
    def test_matches_weight_matrix(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = gnp_graph(int(rng.integers(1, 15)), 0.5, rng, weights="exp")
            dense = np.zeros((g.n, g.n))
            for u, v, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist()):
                dense[u, v] = dense[v, u] = w
            a = scipy_csr(g.csr)
            assert np.array_equal(a.toarray(), dense)
            assert a.nnz == 2 * len(g.w)

    def test_cached_and_read_only(self):
        g = k4()
        a = g.csr
        assert g.csr is a
        for part in (a.data, a.indices, a.indptr):
            with pytest.raises(ValueError):
                part[0] = 0

    @pytest.mark.parametrize("g", [
        pytest.param(parse_graph("0 1 2.5"), id="single-edge"),
        pytest.param(WeightedGraph.from_edges(6, [(4, 2, 1.5), (0, 4, 0.0), (2, 0, 3.0),
                                                  (5, 2, 0.0)]), id="isolated-and-zeros"),
        pytest.param(gnp_graph(30, 0.1, np.random.default_rng(3), weights="exp"), id="sparse"),
        pytest.param(gnp_graph(50, 0.4, np.random.default_rng(4), weights="exp"), id="dense"),
        pytest.param(regular_graph(100, 3, np.random.default_rng(5)), id="regular3"),
    ])
    def test_arrays_are_scipys(self, g):
        """`csr` holds bit for bit the canonical arrays scipy's `csr_array`
        builds from the same triples, dtypes included, so every product sums
        in scipy's order. An isolated vertex has an empty row; a zero-weight
        edge is a stored zero."""
        ref = sp.csr_array((np.r_[g.w, g.w], (np.r_[g.u, g.v], np.r_[g.v, g.u])),
                           shape=(g.n, g.n))
        for got, want in zip(g.csr, (ref.indptr, ref.indices, ref.data), strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_builder_takes_any_order(self):
        """`build_csr` sorts triples given in any order, as scipy does."""
        rng = np.random.default_rng(6)
        g = gnp_graph(20, 0.3, rng, weights="exp")
        rows, cols, data = np.r_[g.u, g.v], np.r_[g.v, g.u], np.r_[g.w, g.w]
        shuffle = rng.permutation(len(rows))
        got = build_csr(g.n, rows[shuffle], cols[shuffle], data[shuffle])
        for x, y in zip(got, g.csr, strict=True):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestSparsetoolsLoader:
    """`graphs._load_sparsetools` loads scipy's compiled CSR routines without
    `scipy.sparse`'s package init."""

    NAME = "scipy.sparse._sparsetools"

    def test_loads_without_registering(self, monkeypatch):
        monkeypatch.delitem(sys.modules, self.NAME, raising=False)
        module = graphs._load_sparsetools()
        assert self.NAME not in sys.modules
        assert callable(module.csr_matvec) and callable(module.csr_matvecs)

    def test_reuses_an_imported_module(self, monkeypatch):
        imported = types.ModuleType(self.NAME)
        monkeypatch.setitem(sys.modules, self.NAME, imported)
        assert graphs._load_sparsetools() is imported

    def test_missing_extension_names_the_paths(self, monkeypatch):
        monkeypatch.delitem(sys.modules, self.NAME, raising=False)
        monkeypatch.setattr(graphs, "EXTENSION_SUFFIXES", [".missing.so"])
        with pytest.raises(ImportError, match=r"searched \[.*/_sparsetools\.missing\.so") as info:
            graphs._load_sparsetools()
        assert info.value.name == self.NAME


def match_forest_decompose_loop(g):
    """Per edge, how many endpoints pick it as their maximal incident edge,
    edges ordered by (w, index)."""
    pick = {}  # vertex -> the index of its maximal incident edge
    ws = g.w.tolist()
    for i, (u, v, w) in enumerate(zip(g.u.tolist(), g.v.tolist(), g.w.tolist())):
        for x in (u, v):
            if x not in pick or (w, i) > (ws[pick[x]], pick[x]):
                pick[x] = i
    counts = [0] * len(g.w)
    for i in pick.values():
        counts[i] += 1
    return counts


def unmatched_loop(g, picks):
    """The vertices in order that no edge picked by both endpoints covers."""
    covered = {x for u, v, k in zip(g.u.tolist(), g.v.tolist(), picks) if k == 2
               for x in (u, v)}
    return [x for x in range(g.n) if x not in covered]


def singlet_bits_loop(g, picks):
    """Flip-while-improving over the unmatched vertices in order."""
    unmatched = unmatched_loop(g, picks)
    adj = {x: [] for x in unmatched}
    for u, v, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist()):
        if u in adj and v in adj:
            adj[u].append((v, w))
            adj[v].append((u, w))
    bits = {x: 0 for x in unmatched}
    improved = True
    while improved:
        improved = False
        for x in unmatched:
            cut_now = sum(w for y, w in adj[x] if bits[y] != bits[x])
            cut_flip = sum(w for y, w in adj[x] if bits[y] == bits[x])
            if cut_flip > cut_now:
                bits[x] = 1 - bits[x]
                improved = True
    return bits


class TestEvaluatorsMatchEdgeLoops:
    """The array evaluators against plain loops over the edges; the sums run
    in another order, so values agree to rounding."""

    def test_random_weighted_graphs(self):
        from quantum_maxcut import (circuit_energy, cut_value, edge_energy_sat,
                                    edge_energy_unsat, opt_upper_bound, sdp_objective)

        rng = np.random.default_rng(4)
        for _ in range(20):
            g = gnp_graph(int(rng.integers(2, 12)), 0.5, rng, weights="exp")
            edges = list(zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))
            vecs = rng.standard_normal((g.n, 4))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            assert sdp_objective(g, vecs) == pytest.approx(
                sum(0.5 * w * (1 - vecs[u] @ vecs[v]) for u, v, w in edges), abs=1e-12)
            bits = rng.integers(0, 2, (5, g.n))
            assert [cut_value(g, b) for b in bits] == pytest.approx(
                [sum(w for u, v, w in edges if b[u] != b[v]) for b in bits], abs=1e-12)
            top = [0.0] * g.n
            for u, v, w in edges:
                top[u], top[v] = max(top[u], w), max(top[v], w)
            assert opt_upper_bound(g).degree_sum == pytest.approx(
                g.total_weight + 0.5 * sum(top), abs=1e-12)
            if len(g.w) == 0:
                continue
            deg = g.degree
            thetas = np.linspace(0, np.pi / 4, 7)
            per_angle = [sum(0.5 * w * (edge_energy_sat if bits[0][u] != bits[0][v]
                                        else edge_energy_unsat)(t, deg[u], deg[v], tri)
                             for (u, v, w), tri in zip(edges, g.triangles)) for t in thetas]
            assert circuit_energy(g, bits[0], thetas) == pytest.approx(per_angle, abs=1e-12)
            s, matched = random_pair_product_state(g, rng)
            assert pair_product_formula(g, s, matched) == pytest.approx(
                pair_product_energy_loop(g, s, matched), abs=1e-12)
            picks = match_forest_decompose(g)
            assert picks.tolist() == match_forest_decompose_loop(g)
            s, value = match_singlet_state(g, picks)
            assert bits_of(s) == singlet_bits_loop(g, picks)
            assert value == pytest.approx(pair_product_energy_loop(g, s, picks == 2), abs=1e-12)


class TestTriangles:
    def test_k4_every_edge_in_two(self):
        assert k4().triangles.tolist() == [2] * 6

    def test_tree_triangle_free(self):
        g = parse_graph("0 1\n1 2\n1 3")
        assert g.triangles.tolist() == [0] * 3

    def test_triangle(self):
        assert triangle().triangles.tolist() == [1] * 3

    def test_no_edges(self):
        g = WeightedGraph(3, [], [], [])
        assert g.triangles.shape == (0,) and g.triangles.dtype == np.intp

    @pytest.mark.parametrize("name", ["random", "complete", "star", "zero-weight"])
    def test_matches_edge_loop(self, name):
        rng = np.random.default_rng(11)
        graphs = {
            "random": [gnp_graph(int(rng.integers(2, 25)), float(rng.uniform(0.1, 0.9)), rng,
                                 weights="exp") for _ in range(30)],
            "complete": [complete_graph(n) for n in (2, 3, 7, 12)],
            "star": [WeightedGraph.from_edges(n, [(0, x) for x in range(1, n)])
                     for n in (2, 5, 40)],
            "zero-weight": [WeightedGraph.from_edges(9, [
                (u, v, float(rng.integers(0, 2))) for u in range(9) for v in range(u + 1, 9)
                if rng.random() < 0.6]) for _ in range(10)],
        }[name]
        for g in graphs:
            nbrs = [set() for _ in range(g.n)]
            for u, v in zip(g.u.tolist(), g.v.tolist()):
                nbrs[u].add(v)
                nbrs[v].add(u)
            expected = [len(nbrs[u] & nbrs[v]) for u, v in zip(g.u.tolist(), g.v.tolist())]
            assert g.triangles.tolist() == expected
            assert g.triangles.dtype == np.intp

    def test_hub_memory_goes_with_its_edges(self):
        """A 30000-leaf star takes well under 1 GiB of address space: each edge
        looks up the neighbors of its leaf, not of the hub (a row-wise product
        of the hub's rows would need 900M entries). Run in a subprocess with
        its address space capped, so a failure cannot exhaust the host."""
        pytest.importorskip("resource")
        code = (
            "import resource\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({1 << 30}, {1 << 30}))\n"
            "from quantum_maxcut import WeightedGraph, optimize_angle\n"
            "n = 30001\n"
            "g = WeightedGraph(n, [0] * (n - 1), range(1, n), [1.0] * (n - 1))\n"
            "assert not g.triangles.any() and len(g.triangles) == n - 1\n"
            "theta, val = optimize_angle(g, [1] + [0] * (n - 1))\n"
            "assert val > n - 1, val\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stderr


class TestZeroWeightEdges:
    """A zero-weight edge is still an edge: `csr` stores it as an explicit
    zero, and the BFS of `depth_parity` follows it like any stored entry."""

    G = parse_graph("0 1 0\n1 2 1\n0 2 0")

    def test_stored_as_edges(self):
        assert scipy_csr(self.G.csr).nnz == 6

    def test_triangles(self):
        assert self.G.triangles.tolist() == [1, 1, 1]

    def test_tree_coloring(self):
        """Vertex 0's heaviest edges weigh 0, and the later one, (0, 2), joins
        F: F spans all three vertices, and its coloring cuts the weight-1 edge."""
        picks = match_forest_decompose(self.G)
        assert picks.tolist() == [0, 1, 2]  # F: (0, 2) once, (1, 2) twice
        assert tree_coloring_state(self.G, picks) == ((0, 0, 1), 1.0)

    def test_one_component(self):
        assert depth_parity(self.G.csr)[0] == 1

    def test_color_classes_proper(self):
        assert [c.tolist() for c in self.G.color_classes] == [[0], [1], [2]]

    def test_singlet_state(self):
        picks = match_forest_decompose(self.G)
        s, val = match_singlet_state(self.G, picks)
        assert (picks == 2).tolist() == [False, False, True] and s.tolist() == [1.0, 0.0, 0.0]
        assert val == pair_product_energy_loop(self.G, s, picks == 2) == 2.0


class TestConnectedComponents:
    def test_sorted_in_order_of_smallest_vertex(self):
        # components {0, 1, 4}, {2}, {3, 5}; depths count from 0, 2 and 3
        g = WeightedGraph.from_edges(6, [(4, 1), (3, 5), (1, 0)])
        assert depth_parity(g.csr) == (3, (0, 1, 0, 0, 0, 1))


def csgraph_depth_parity(a):
    """`depth_parity` by `scipy.sparse.csgraph`, the reference: components
    from `connected_components`, depths by an unweighted `dijkstra` from each
    component's smallest vertex; a stored entry in either direction is an edge."""
    count, labels = csgraph.connected_components(a, directed=False)
    _, roots = np.unique(labels, return_index=True)
    depth = csgraph.dijkstra(a, directed=False, indices=roots, unweighted=True, min_only=True)
    return count, tuple((depth % 2).astype(int).tolist())


def csgraph_forest_parity(n, forest):
    """`csgraph_depth_parity` of the forest edges (a, b, ...), each stored one way."""
    ends = np.array([e[:2] for e in forest], dtype=np.intp).reshape(-1, 2)
    return csgraph_depth_parity(
        sp.csr_array((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(n, n)))


def random_forest(n, rng):
    """Edges of a random forest on n vertices, each as (parent, child) or
    (child, parent) at random: in a random order, each vertex but the first
    takes an earlier one as its parent with probability 0.8."""
    order = rng.permutation(n).tolist()
    forest = []
    for i in range(1, n):
        if rng.random() < 0.8:
            parent, child = order[int(rng.integers(i))], order[i]
            forest.append((parent, child) if rng.random() < 0.5 else (child, parent))
    return forest


class TestDepthParityMatchesCsgraph:
    def test_disconnected_graphs_with_isolated_vertices(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            n = int(rng.integers(1, 60))
            # sparse G(n, p): components with and without cycles, isolated vertices
            g = gnp_graph(n, float(rng.uniform(0.0, 4.0 / n)), rng)
            assert depth_parity(g.csr) == csgraph_depth_parity(scipy_csr(g.csr))

    def test_forests_stored_one_way(self):
        """`two_color_forest` of a graph that is a forest, every edge in the
        mask: its bits are those of csgraph on the forest's edges as drawn,
        each once in either orientation, symmetrized."""
        rng = np.random.default_rng(18)
        for _ in range(40):
            n = int(rng.integers(1, 50))
            forest = random_forest(n, rng)
            g = WeightedGraph.from_edges(n, forest)
            count, bits = csgraph_forest_parity(n, forest)
            assert two_color_forest(g, np.ones(len(forest), dtype=bool)) == bits
            assert len(forest) == n - count


def forest_coloring(g):
    return tree_coloring_state(g, match_forest_decompose(g))


class TestSpanningForestColoring:
    """`tree_coloring_state` 2-colors F, the forest of per-vertex heaviest
    edges, which spans every vertex that has an edge."""

    def test_path_alternates(self):
        assert forest_coloring(parse_graph("0 1\n1 2")) == ((0, 1, 0), 2.0)

    def test_triangle_cuts_two_edges(self):
        # F is (0, 2) and (1, 2), the later of equal edges at each vertex
        assert forest_coloring(triangle()) == ((0, 0, 1), 2.0)

    def test_disconnected_colors_each_component(self):
        g = WeightedGraph.from_edges(5, [(0, 1), (2, 3)])
        assert forest_coloring(g) == ((0, 1, 0, 1, 0), 2.0)

    def test_cuts_n_minus_components_forest_edges(self):
        """F has n minus its number of components edges, and the coloring,
        csgraph's depth parity of F, cuts every one of them."""
        rng = np.random.default_rng(1)
        for _ in range(30):
            g = gnp_graph(int(rng.integers(2, 12)), float(rng.uniform(0.1, 0.7)), rng,
                          weights="exp")
            picks = match_forest_decompose(g)
            bits, cut = tree_coloring_state(g, picks)
            edges = list(zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))
            forest = [e for e, k in zip(edges, picks) if k > 0]
            count, reference = csgraph_forest_parity(g.n, forest)
            assert bits == reference and len(forest) == g.n - count
            assert all(bits[a] != bits[b] for a, b, _ in forest)
            assert cut == pytest.approx(
                sum(w for a, b, w in edges if bits[a] != bits[b]), rel=1e-14)


class TestTwoColorForest:
    def test_path(self):
        g = parse_graph("0 1\n1 2")
        bits = two_color_forest(g, np.array([True, True]))
        assert bits in ((0, 1, 0), (1, 0, 1))

    def test_star_center_differs(self):
        g = parse_graph("0 1\n0 2\n0 3")
        bits = two_color_forest(g, np.ones(3, dtype=bool))
        assert all(bits[0] != bits[v] for v in (1, 2, 3))

    def test_cycle_rejected(self):
        with pytest.raises(GraphError, match="cycle"):
            two_color_forest(triangle(), np.ones(3, dtype=bool))

    def test_isolated_get_bit_zero(self):
        g = WeightedGraph.from_edges(4, [(0, 1), (2, 3)])
        bits = two_color_forest(g, np.array([True, False]))
        assert bits[2] == 0 and bits[3] == 0

    @pytest.mark.parametrize("forest", [
        np.array([0, 1]),                  # edge indices, not a mask
        np.array([True, True]),            # a mask of the wrong length
        np.array([[True, True, True]]),    # of the wrong shape
        [(0, 1), (1, 2)],                  # edge tuples
    ])
    def test_anything_but_an_edge_mask_rejected(self, forest):
        with pytest.raises(ValueError, match="boolean mask of shape \\(3,\\)"):
            two_color_forest(parse_graph("0 1\n1 2\n2 3"), forest)


def exp_weighted_gnm(n, m, rng):
    """G(n, m) with exponential weights: m distinct pairs drawn uniformly."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = rng.choice(len(pairs), size=m, replace=False)
    return WeightedGraph.from_edges(n, [(*pairs[i], rng.exponential()) for i in picks])


def assert_proper_within_vizing(g, col):
    """Every edge colored exactly once, no color twice at a vertex, and at
    most max_degree + 1 colors."""
    assert sorted(col) == sorted((u, v) for u, v in zip(g.u.tolist(), g.v.tolist()))
    assert max(col.values()) + 1 <= g.max_degree + 1
    used = set()
    for (u, v), c in col.items():
        assert (u, c) not in used and (v, c) not in used
        used.add((u, c))
        used.add((v, c))


class TestEdgeColoring:
    def test_path_two_colors(self):
        col = proper_edge_coloring(parse_graph("0 1\n1 2"))
        assert col[(0, 1)] != col[(1, 2)]

    @pytest.mark.parametrize("text", ["0 1\n1 2\n2 3", "0 1\n1 2\n2 3\n3 4\n4 5\n5 0"])
    def test_path_and_even_cycle_two_colors(self, text):
        g = parse_graph(text)
        col = proper_edge_coloring(g)
        assert_proper_within_vizing(g, col)
        assert len(set(col.values())) == 2

    def test_triangle_three_colors(self):
        assert len(set(proper_edge_coloring(triangle()).values())) == 3

    @pytest.mark.parametrize("n", [5, 6])
    def test_complete_graph(self, n):
        # in canonical order no color is free at both ends of 2 edges of K5
        # and 3 of K6, so these run the Misra-Gries fan and path step
        g = complete_graph(n)
        assert_proper_within_vizing(g, proper_edge_coloring(g))

    def test_matching_one_color(self):
        g = WeightedGraph.from_edges(4, [(0, 1), (2, 3)])
        assert set(proper_edge_coloring(g).values()) == {0}

    def test_proper_and_bounded_on_random_graphs(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            g = gnp_graph(int(rng.integers(2, 18)), float(rng.uniform(0.1, 0.9)), rng)
            if len(g.w) == 0:
                continue
            assert_proper_within_vizing(g, proper_edge_coloring(g))

    @pytest.mark.parametrize("family", ["exp-gnm", "3-regular"])
    def test_benchmark_sizes(self, family):
        rng = np.random.default_rng(6)
        for _ in range(3):
            if family == "exp-gnm":
                g = exp_weighted_gnm(50, 500, rng)
            else:
                g = regular_graph(100, 3, rng)
            assert_proper_within_vizing(g, proper_edge_coloring(g))


def forest_and_matching(g, picks):
    """F and M as (u, v, w) edges in edge order: picked once or twice, and twice."""
    edges = list(zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))
    return ([e for e, k in zip(edges, picks) if k > 0],
            [e for e, k in zip(edges, picks) if k == 2])


def per_vertex_max(g):
    """sum_v max_{e ~ v} w_e, by a loop over the edges; a vertex on no edge adds 0."""
    mx = [0.0] * g.n
    for u, v, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist()):
        mx[u] = max(mx[u], w)
        mx[v] = max(mx[v], w)
    return sum(mx)


class TestMatchForestDecompose:
    def test_weighted_path(self):
        g = parse_graph("0 1 1\n1 2 2")
        picks = match_forest_decompose(g)
        assert picks.tolist() == [1, 2]
        forest, matching = forest_and_matching(g, picks)
        assert matching == [(1, 2, 2.0)]
        assert forest == [(0, 1, 1.0), (1, 2, 2.0)]
        # sum_v max = 1 + 2 + 2 = 5 = m + f
        assert g.w @ picks == 5.0
        assert unmatched_loop(g, picks) == [0]

    def test_single_edge(self):
        g = parse_graph("0 1 3")
        picks = match_forest_decompose(g)
        assert forest_and_matching(g, picks) == ([(0, 1, 3.0)], [(0, 1, 3.0)])
        assert g.w @ picks == 6.0

    def test_uniform_star_tie_break(self):
        g = parse_graph("0 1\n0 2\n0 3")
        picks = match_forest_decompose(g)
        # center picks the highest-index leaf edge; that edge is doubly maximal
        assert picks.tolist() == [1, 1, 2]
        assert forest_and_matching(g, picks)[1] == [(0, 3, 1.0)]
        assert g.w @ picks == per_vertex_max(g)

    def test_isolated_vertices_contribute_nothing(self):
        g = WeightedGraph.from_edges(3, [(0, 1)])
        picks = match_forest_decompose(g)
        assert picks.tolist() == [2]
        assert unmatched_loop(g, picks) == [2]
        assert 2 in bits_of(match_singlet_state(g, picks)[0])

    def test_no_edges(self):
        picks = match_forest_decompose(WeightedGraph(3, [], [], []))
        assert picks.shape == (0,) and picks.dtype.kind == "i"

    def test_identity_on_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            g = gnp_graph(int(rng.integers(2, 20)), float(rng.uniform(0.1, 0.9)),
                          rng, weights="exp")
            if len(g.w) == 0:
                continue
            check_picks(g)

    def test_ties_zeros_and_isolated_vertices(self):
        """Exp weights, half of them rounded to one decimal so that ties occur
        (the loop gives a tie to the higher index), a fifth set to 0, and five
        more vertices on no edge."""
        rng = np.random.default_rng(36)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            drawn = gnp_graph(n, float(rng.uniform(0.1, 0.9)), rng, weights="exp")
            w = np.where(rng.random(len(drawn.w)) < 0.5, drawn.w.round(1), drawn.w)
            w[rng.random(len(w)) < 0.2] = 0.0
            check_picks(WeightedGraph(n + 5, drawn.u, drawn.v, w))


def check_picks(g):
    """`match_forest_decompose` is a read-only integer array, one count in
    {0, 1, 2} per edge, equal to the loop's, with F a forest, M a matching
    and g.w @ picks the sum of per-vertex maxima to 1e-12."""
    picks = match_forest_decompose(g)
    assert picks.shape == (len(g.w),) and picks.dtype.kind == "i"
    assert not picks.flags.writeable
    assert set(picks.tolist()) <= {0, 1, 2}
    assert picks.tolist() == match_forest_decompose_loop(g)
    assert abs(per_vertex_max(g) - g.w @ picks) < 1e-12
    covered = set()
    for u, v, _ in forest_and_matching(g, picks)[1]:
        assert u not in covered and v not in covered
        covered.update((u, v))
    two_color_forest(g, picks > 0)  # raises if the forest had a cycle


def dsatur_reference(g):
    """DSATUR by plain selection: the uncolored vertex with the most distinct
    neighbor colors, then the highest degree, then the lowest index, takes
    the lowest color no neighbor has; the classes in color order."""
    nbrs = [set() for _ in range(g.n)]
    for u, v in zip(g.u.tolist(), g.v.tolist()):
        nbrs[u].add(v)
        nbrs[v].add(u)
    color = {}
    while len(color) < g.n:
        def rank(x):
            return len({color[y] for y in nbrs[x] if y in color}), g.degree[x], -x
        x = max((x for x in range(g.n) if x not in color), key=rank)
        used = {color[y] for y in nbrs[x] if y in color}
        color[x] = min(c for c in range(g.n) if c not in used)
    return [[x for x in range(g.n) if color[x] == c] for c in range(max(color.values()) + 1)]


def edge_coloring_reference(g):
    """Greedy-first edge coloring, plainly: each edge in canonical order takes
    the lowest color free at both ends, below max_degree + 1; else the
    Misra-Gries step (fan of u0 in the order u0's colors were set, inversion
    of the d/c path from u0, rotation of the first fan prefix whose last
    vertex has d free) colors it."""
    ncolors = g.max_degree + 1
    color, at = {}, [dict() for _ in range(g.n)]  # at[x][c] = the neighbor of x by color c

    def recolor(a, b, c):
        key = (min(a, b), max(a, b))
        old = color.pop(key, None)
        if old is not None:
            del at[a][old], at[b][old]
        if c is not None:
            color[key] = c
            at[a][c], at[b][c] = b, a

    def free(x):
        return min(c for c in range(ncolors + 1) if c not in at[x])

    for u0, v0 in zip(g.u.tolist(), g.v.tolist()):
        common = min(c for c in range(ncolors + 1) if c not in at[u0] and c not in at[v0])
        if common < ncolors:
            recolor(u0, v0, common)
            continue
        fan = [v0]
        while True:
            ext = next((x for c, x in at[u0].items() if x not in fan and c not in at[fan[-1]]),
                       None)
            if ext is None:
                break
            fan.append(ext)
        c, d = free(u0), free(fan[-1])
        if c != d:
            path, cur, col, prev = [], u0, d, None
            while col in at[cur] and at[cur][col] != prev:
                path.append((cur, at[cur][col], col))
                prev, cur, col = cur, at[cur][col], c if col == d else d
            for a, b, _ in path:
                recolor(a, b, None)
            for a, b, col in path:
                recolor(a, b, c if col == d else d)
        end = next(i for i, x in enumerate(fan) if d not in at[x] and all(
            color.get((min(u0, fan[j + 1]), max(u0, fan[j + 1]))) not in (None, *at[fan[j]])
            for j in range(i)))
        shifted = [color[(min(u0, x), max(u0, x))] for x in fan[1:end + 1]]
        for x in fan[1:end + 1]:
            recolor(u0, x, None)
        for x, col in zip(fan, shifted):
            recolor(u0, x, col)
        recolor(u0, fan[end], d)
    return color


def singlet_flips_reference(g, picks):
    """Flip-while-improving over the unmatched vertices in index order: a
    vertex flips while its uncut less its cut neighbor weight, summed over
    its neighbors in index order, is positive."""
    unmatched = unmatched_loop(g, picks)
    neighbors = {i: [] for i in unmatched}
    for u, v, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist()):
        if u in neighbors and v in neighbors:
            neighbors[u].append((v, w))
            neighbors[v].append((u, w))
    spin = dict.fromkeys(unmatched, 1.0)
    improved = True
    while improved:
        improved = False
        for i, row in neighbors.items():
            if spin[i] * sum(w * spin[j] for j, w in row) > 0:
                spin[i] = -spin[i]
                improved = True
    return {i: int(s < 0) for i, s in spin.items()}


def pinned_graphs(weights):
    """Seeded G(n, p), 3- and 4-regular graphs, stars and cycles, the last two
    on permuted labels, with `weights` "unit" or "exp"."""
    rng = np.random.default_rng(31)

    def relabel(n, pairs):
        p = rng.permutation(n)
        ws = np.ones(len(pairs)) if weights == "unit" else rng.exponential(size=len(pairs))
        return WeightedGraph(n, p[[a for a, _ in pairs]], p[[b for _, b in pairs]], ws)

    out = [gnp_graph(int(rng.integers(2, 40)), float(rng.uniform(0.1, 0.9)), rng, weights)
           for _ in range(25)]
    out += [gnp_graph(50, 0.4, rng, weights) for _ in range(2)]
    out += [regular_graph(n, d, rng, weights) for n in (8, 20, 60) for d in (3, 4)]
    out += [relabel(n, [(0, x) for x in range(1, n)]) for n in (2, 9, 30)]
    out += [relabel(n, [(x, (x + 1) % n) for x in range(n)]) for n in (3, 10, 31)]
    return out


class TestPinnedOutputs:
    """The compiled-free passes against plain references of the same rules:
    exact equality, so a changed visiting order or tie-break fails here,
    where properness and bounds alone would pass."""

    @pytest.mark.parametrize("weights", ["unit", "exp"])
    def test_dsatur(self, weights):
        for g in pinned_graphs(weights):
            assert [c.tolist() for c in g.color_classes] == dsatur_reference(g)

    @pytest.mark.parametrize("weights", ["unit", "exp"])
    def test_edge_coloring(self, weights):
        for g in pinned_graphs(weights) + [complete_graph(5), complete_graph(6)]:
            assert proper_edge_coloring(g) == edge_coloring_reference(g)

    @pytest.mark.parametrize("weights", ["unit", "exp"])
    def test_singlet_flips(self, weights):
        for g in pinned_graphs(weights):
            picks = match_forest_decompose(g)
            s, _ = match_singlet_state(g, picks)
            assert bits_of(s) == singlet_flips_reference(g, picks)
