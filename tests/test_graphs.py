import numpy as np
import pytest

from quantum_maxcut import (
    GraphError,
    MatchForestDecomposition,
    PairProductState,
    ParseError,
    WeightedGraph,
    match_forest_decompose,
    match_singlet_state,
    pair_product_energy,
    parse_graph,
    proper_edge_coloring,
    tree_coloring_state,
    two_color_forest,
)
from quantum_maxcut.generate import gnp_graph
from quantum_maxcut.graphs import depth_parity


def k4():
    return WeightedGraph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def triangle():
    return parse_graph("0 1\n1 2\n2 0")


class TestParse:
    def test_single_edge(self):
        g = parse_graph("0 1 1.0")
        assert g.n == 2
        assert g.edges == ((0, 1, 1.0),)
        assert g.total_weight == 1.0

    def test_unweighted_default(self):
        g = triangle()
        assert g.n == 3
        assert all(w == 1.0 for _, _, w in g.edges)
        assert g.degree == (2, 2, 2)

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

    def test_comments_and_blanks(self):
        g = parse_graph("# header\n\n0 1 2.5  # trailing\n")
        assert g.edges == ((0, 1, 2.5),)

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("0 1\n0 one")


class TestGraphInvariants:
    def test_degree_matches_incidence(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = gnp_graph(int(rng.integers(2, 15)), 0.5, rng)
            for v in range(g.n):
                assert g.degree[v] == sum(1 for u, w, _ in g.edges if v in (u, w))

    def test_noncanonical_order_rejected(self):
        with pytest.raises(GraphError):
            WeightedGraph(3, ((2, 1, 1.0),))

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(GraphError, match="non-finite"):
            WeightedGraph(3, ((0, 1, 1.0), (1, 2, weight)))


class TestEdgeArrays:
    def test_arrays_match_edges(self):
        g = parse_graph("0 1 0.5\n1 2\n0 2 3")
        assert g.u.tolist() == [0, 0, 1]
        assert g.v.tolist() == [1, 2, 2]
        assert g.w.tolist() == [0.5, 3.0, 1.0]
        assert g.triangles.tolist() == [1, 1, 1]
        assert np.array_equal(g.csr.toarray(), [[0, 0.5, 3], [0.5, 0, 1], [3, 1, 0]])

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
            for u, v, w in g.edges:
                dense[u, v] = dense[v, u] = w
            assert np.array_equal(g.csr.toarray(), dense)
            assert g.csr.nnz == 2 * len(g.edges)

    def test_cached_and_read_only(self):
        g = k4()
        a = g.csr
        assert g.csr is a
        for part in (a.data, a.indices, a.indptr):
            with pytest.raises(ValueError):
                part[0] = 0


def random_pair_product_state(g, rng):
    """Singlets on random disjoint vertex pairs, random bits elsewhere."""
    perm = rng.permutation(g.n).tolist()
    k = int(rng.integers(0, g.n // 2 + 1))
    return PairProductState(pairs=tuple(zip(perm[:k], perm[k:2 * k])),
                            bits={x: int(rng.integers(0, 2)) for x in perm[2 * k:]})


def pair_product_energy_loop(g, state):
    pair_set = {(min(a, b), max(a, b)) for a, b in state.pairs}
    matched = {x for p in state.pairs for x in p}
    total = 0.0
    for u, v, w in g.edges:
        if (u, v) in pair_set:
            total += 2.0 * w
        elif u in matched or v in matched:
            total += 0.5 * w
        elif state.bits[u] != state.bits[v]:
            total += w
    return total


def match_forest_decompose_loop(g):
    key = {(u, v): (w, i) for i, (u, v, w) in enumerate(g.edges)}
    pick = {}  # vertex -> its maximal incident edge
    for u, v, _ in g.edges:
        for x in (u, v):
            if x not in pick or key[(u, v)] > key[pick[x]]:
                pick[x] = (u, v)
    forest_set = set(pick.values())
    matching_set = {e for e in forest_set if pick.get(e[0]) == e and pick.get(e[1]) == e}
    weight = {(u, v): w for u, v, w in g.edges}
    forest = tuple(sorted((u, v, weight[(u, v)]) for u, v in forest_set))
    matching = tuple(sorted((u, v, weight[(u, v)]) for u, v in matching_set))
    covered = {x for u, v, _ in matching for x in (u, v)}
    return MatchForestDecomposition(
        matching=matching, forest=forest,
        matching_weight=float(sum(w for _, _, w in matching)),
        forest_weight=float(sum(w for _, _, w in forest)),
        unmatched=tuple(v for v in range(g.n) if v not in covered))


def singlet_bits_loop(g, decomp):
    """Flip-while-improving over the unmatched vertices in order."""
    unmatched = decomp.unmatched
    adj = {x: [] for x in unmatched}
    for u, v, w in g.edges:
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
            vecs = rng.standard_normal((g.n, 4))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            assert sdp_objective(g, vecs) == pytest.approx(
                sum(0.5 * w * (1 - vecs[u] @ vecs[v]) for u, v, w in g.edges), abs=1e-12)
            bits = rng.integers(0, 2, (5, g.n))
            assert cut_value(g, bits) == pytest.approx(
                [sum(w for u, v, w in g.edges if b[u] != b[v]) for b in bits], abs=1e-12)
            top = [0.0] * g.n
            for u, v, w in g.edges:
                top[u], top[v] = max(top[u], w), max(top[v], w)
            assert opt_upper_bound(g).degree_sum == pytest.approx(
                g.total_weight + 0.5 * sum(top), abs=1e-12)
            if not g.edges:
                continue
            deg = g.degree
            thetas = np.linspace(0, np.pi / 4, 7)
            per_angle = [sum(0.5 * w * (edge_energy_sat if bits[0][u] != bits[0][v]
                                        else edge_energy_unsat)(t, deg[u], deg[v], tri)
                             for (u, v, w), tri in zip(g.edges, g.triangles)) for t in thetas]
            assert circuit_energy(g, bits[0], thetas) == pytest.approx(per_angle, abs=1e-12)
            state = random_pair_product_state(g, rng)
            assert pair_product_energy(g, state) == pytest.approx(
                pair_product_energy_loop(g, state), abs=1e-12)
            decomp = match_forest_decompose(g)
            assert decomp == match_forest_decompose_loop(g)
            assert match_singlet_state(g, decomp)[0].bits == singlet_bits_loop(g, decomp)


class TestTriangles:
    def test_k4_every_edge_in_two(self):
        assert k4().triangles.tolist() == [2] * 6

    def test_tree_triangle_free(self):
        g = parse_graph("0 1\n1 2\n1 3")
        assert g.triangles.tolist() == [0] * 3

    def test_triangle(self):
        assert triangle().triangles.tolist() == [1] * 3

    def test_no_edges(self):
        g = WeightedGraph(3, ())
        assert g.triangles.shape == (0,) and g.triangles.dtype == np.intp


class TestZeroWeightEdges:
    """A zero-weight edge is still an edge: `csr` stores it as an explicit
    zero, and every csgraph traversal sees it."""

    G = parse_graph("0 1 0\n1 2 1\n0 2 0")

    def test_stored_as_edges(self):
        assert self.G.csr.nnz == 6

    def test_triangles(self):
        assert self.G.triangles.tolist() == [1, 1, 1]

    def test_tree_coloring(self):
        assert tree_coloring_state(self.G) == ((0, 1, 1), 0.0)

    def test_one_component(self):
        assert depth_parity(self.G.csr)[0] == 1

    def test_color_classes_proper(self):
        assert [c.tolist() for c in self.G.color_classes] == [[0], [1], [2]]

    def test_singlet_state(self):
        state, val = match_singlet_state(self.G, match_forest_decompose(self.G))
        assert state.pairs == ((1, 2),) and state.bits == {0: 0}
        assert val == pair_product_energy(self.G, state) == 2.0


class TestConnectedComponents:
    def test_sorted_in_order_of_smallest_vertex(self):
        # components {0, 1, 4}, {2}, {3, 5}; depths count from 0, 2 and 3
        g = WeightedGraph.from_edges(6, [(4, 1), (3, 5), (1, 0)])
        assert depth_parity(g.csr) == (3, (0, 1, 0, 0, 0, 1))


def bfs_depths(g):
    """Unweighted BFS depth of each vertex from the smallest vertex of its component."""
    nbrs = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    depth = [None] * g.n
    for root in range(g.n):
        if depth[root] is None:
            depth[root], queue = 0, [root]
            for x in queue:
                for y in nbrs[x]:
                    if depth[y] is None:
                        depth[y] = depth[x] + 1
                        queue.append(y)
    return depth


class TestSpanningForestColoring:
    def test_path_alternates(self):
        assert tree_coloring_state(parse_graph("0 1\n1 2")) == ((0, 1, 0), 2.0)

    def test_triangle_cuts_two_edges(self):
        assert tree_coloring_state(triangle()) == ((0, 1, 1), 2.0)

    def test_disconnected_colors_each_component(self):
        g = WeightedGraph.from_edges(5, [(0, 1), (2, 3)])
        assert tree_coloring_state(g) == ((0, 1, 0, 1, 0), 2.0)

    def test_cuts_n_minus_components_forest_edges(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            g = gnp_graph(int(rng.integers(2, 12)), float(rng.uniform(0.1, 0.7)), rng)
            bits, _ = tree_coloring_state(g)
            assert bits == tuple(d % 2 for d in bfs_depths(g))
            cut = sum(bits[u] != bits[v] for u, v, _ in g.edges)
            assert cut >= g.n - depth_parity(g.csr)[0]


class TestTwoColorForest:
    def test_path(self):
        g = parse_graph("0 1\n1 2")
        bits = two_color_forest(g, [(0, 1), (1, 2)])
        assert bits in ((0, 1, 0), (1, 0, 1))

    def test_star_center_differs(self):
        g = parse_graph("0 1\n0 2\n0 3")
        bits = two_color_forest(g, g.edges)
        assert all(bits[0] != bits[v] for v in (1, 2, 3))

    def test_cycle_rejected(self):
        with pytest.raises(GraphError, match="cycle"):
            two_color_forest(triangle(), triangle().edges)

    def test_isolated_get_bit_zero(self):
        g = WeightedGraph.from_edges(4, [(0, 1), (2, 3)])
        bits = two_color_forest(g, [(0, 1)])
        assert bits[2] == 0 and bits[3] == 0


class TestEdgeColoring:
    def test_path_two_colors(self):
        col = proper_edge_coloring(parse_graph("0 1\n1 2"))
        assert col[(0, 1)] != col[(1, 2)]

    def test_triangle_three_colors(self):
        assert len(set(proper_edge_coloring(triangle()).values())) == 3

    def test_matching_one_color(self):
        g = WeightedGraph.from_edges(4, [(0, 1), (2, 3)])
        assert set(proper_edge_coloring(g).values()) == {0}

    def test_proper_and_bounded_on_random_graphs(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            g = gnp_graph(int(rng.integers(2, 18)), float(rng.uniform(0.1, 0.9)), rng)
            if not g.edges:
                continue
            col = proper_edge_coloring(g)
            assert len(col) == len(g.edges)
            assert max(col.values()) + 1 <= g.max_degree + 1
            used = set()
            for (u, v), c in col.items():
                assert (u, c) not in used and (v, c) not in used
                used.add((u, c))
                used.add((v, c))


class TestMatchForestDecompose:
    def test_weighted_path(self):
        g = parse_graph("0 1 1\n1 2 2")
        d = match_forest_decompose(g)
        assert d.matching == ((1, 2, 2.0),)
        assert d.forest == ((0, 1, 1.0), (1, 2, 2.0))
        assert d.matching_weight == 2.0 and d.forest_weight == 3.0
        # sum_v max = 1 + 2 + 2 = 5 = m + f
        assert d.matching_weight + d.forest_weight == 5.0
        assert d.unmatched == (0,)

    def test_single_edge(self):
        d = match_forest_decompose(parse_graph("0 1 3"))
        assert d.matching == d.forest == ((0, 1, 3.0),)
        assert d.matching_weight == d.forest_weight == 3.0

    def test_uniform_star_tie_break(self):
        g = parse_graph("0 1\n0 2\n0 3")
        d = match_forest_decompose(g)
        # center picks the highest-index leaf edge; that edge is doubly maximal
        assert d.matching == ((0, 3, 1.0),)
        assert len(d.forest) == 3
        mx = [max((w for u, v, w in g.edges if x in (u, v)), default=0.0)
              for x in range(g.n)]
        assert sum(mx) == d.matching_weight + d.forest_weight

    def test_isolated_vertices_contribute_nothing(self):
        g = WeightedGraph.from_edges(3, [(0, 1)])
        d = match_forest_decompose(g)
        assert 2 in d.unmatched

    def test_identity_on_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            g = gnp_graph(int(rng.integers(2, 20)), float(rng.uniform(0.1, 0.9)),
                          rng, weights="exp")
            if not g.edges:
                continue
            d = match_forest_decompose(g)
            mx = [0.0] * g.n
            for u, v, w in g.edges:
                mx[u] = max(mx[u], w)
                mx[v] = max(mx[v], w)
            assert abs(sum(mx) - (d.matching_weight + d.forest_weight)) < 1e-12
            covered = set()
            for u, v, _ in d.matching:
                assert u not in covered and v not in covered
                covered.update((u, v))
            two_color_forest(g, d.forest)  # raises if the forest had a cycle
            assert set(d.matching) <= set(d.forest)
