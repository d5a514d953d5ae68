import math

import numpy as np
import pytest
import scipy.sparse as sp

from quantum_maxcut import (
    GramSolution,
    WeightedGraph,
    brute_force_maxcut,
    gw_round,
    opt_upper_bound,
    parse_graph,
    product_energy,
    rank3_round,
    sdp_objective,
    solve_maxcut_sdp,
)
from quantum_maxcut.generate import gnp_graph, regular_graph
from quantum_maxcut.sdp import _csr_product, _renumbered, mixing_ascent, stack_objective
from quantum_maxcut.states import cut_value

EDGE = parse_graph("0 1 1.0")
TRIANGLE = parse_graph("0 1\n1 2\n2 0")
K4 = WeightedGraph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def upper(g, sol):
    """The upper bound `qmaxcut solve` passes to `rank3_round`."""
    return opt_upper_bound(g, sdp_value=sol.dual_bound).best


class TestSolver:
    def test_single_edge(self):
        sol = solve_maxcut_sdp(EDGE)
        assert sol.objective == pytest.approx(1.0, abs=1e-8)
        assert sol.vectors[0] @ sol.vectors[1] == pytest.approx(-1.0, abs=1e-7)

    def test_triangle(self):
        sol = solve_maxcut_sdp(TRIANGLE)
        assert sol.objective == pytest.approx(2.25, abs=1e-6)

    def test_k4(self):
        sol = solve_maxcut_sdp(K4)
        assert sol.objective == pytest.approx(4.0, abs=1e-6)

    def test_unit_vectors_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = gnp_graph(int(rng.integers(2, 12)), 0.5, rng, weights="exp")
            if not g.edges:
                continue
            sol = solve_maxcut_sdp(g)
            assert np.allclose(np.linalg.norm(sol.vectors, axis=1), 1.0, atol=1e-9)
            assert -1e-9 <= sol.objective <= 2 * g.total_weight + 1e-9

    def test_max_sweeps_flag(self):
        sol = solve_maxcut_sdp(K4, max_sweeps=1)
        assert not sol.converged


def unit_rows(rng, n, r):
    vecs = rng.standard_normal((n, r))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def cyclic_reference(g, vecs, sweeps, order):
    """One-vertex coordinate ascent steps, visiting vertices in the given order."""
    adj = g.csr.toarray()
    for _ in range(sweeps):
        for i in order:
            s = -(adj[i] @ vecs)
            ns = np.linalg.norm(s)
            if ns > 0:
                vecs[i] = s / ns
    return vecs


class TestBlockKernel:
    def test_complete_graph_matches_plain_cyclic_loop(self):
        k6 = WeightedGraph.from_edges(6, [(u, v, 1.0 + u + 2 * v)
                                          for u in range(6) for v in range(u + 1, 6)])
        start = unit_rows(np.random.default_rng(0), 6, 4)
        block = start.copy()
        mixing_ascent(k6, block[:, None], tol=-1, max_sweeps=25)
        reference = cyclic_reference(k6, start.copy(), 25, range(6))
        assert np.allclose(block, reference, rtol=0, atol=1e-12)

    def test_random_graphs_match_color_ordered_loop(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = gnp_graph(int(rng.integers(5, 40)), float(rng.uniform(0.1, 0.6)), rng,
                          weights="exp")
            start = unit_rows(rng, g.n, 5)
            block = start.copy()
            _, _, sweeps = mixing_ascent(g, block[:, None], tol=-1, max_sweeps=15)
            assert sweeps == 15
            reference = cyclic_reference(g, start.copy(), 15,
                                         np.concatenate(g.color_classes))
            assert np.allclose(block, reference, rtol=0, atol=1e-10)

    def test_isolated_vertex_keeps_its_vector(self):
        g = WeightedGraph.from_edges(3, [(0, 1)])
        for starts in (1, 4):  # one start, and a stack of them
            vecs = unit_rows(np.random.default_rng(1), 3 * starts, 3).reshape(3, starts, 3)
            isolated = vecs[2].copy()
            mixing_ascent(g, vecs, tol=-1, max_sweeps=3)
            assert np.array_equal(vecs[2], isolated)
            assert np.einsum("sk,sk->s", vecs[0], vecs[1]) == pytest.approx(-1.0, abs=1e-12)

    def test_stack_matches_each_start_alone(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            g = gnp_graph(int(rng.integers(2, 30)), float(rng.uniform(0.1, 0.6)), rng,
                          weights="exp")
            starts = int(rng.integers(2, 9))
            stack = unit_rows(rng, g.n * starts, 3).reshape(starts, g.n, 3)
            alone = stack.copy()
            values, _, sweeps = mixing_ascent(g, stack.transpose(1, 0, 2), tol=-1,
                                              max_sweeps=12)
            assert sweeps == 12
            for k in range(starts):
                value, _, _ = mixing_ascent(g, alone[k][:, None], tol=-1, max_sweeps=12)
                assert np.allclose(stack[k], alone[k], rtol=0, atol=1e-12)
                assert values[k] == pytest.approx(value[0], rel=1e-12, abs=1e-12)
                assert values[k] == pytest.approx(sdp_objective(g, stack[k]), rel=1e-12)

    def test_any_memory_layout(self):
        g = gnp_graph(12, 0.4, np.random.default_rng(3), weights="exp")
        stack = unit_rows(np.random.default_rng(4), 12 * 3, 4).reshape(12, 3, 4)
        strided = np.asfortranarray(stack)
        mixing_ascent(g, stack, tol=-1, max_sweeps=5)
        mixing_ascent(g, strided, tol=-1, max_sweeps=5)
        assert np.array_equal(strided, stack)

    def test_improper_class_trips_the_guard(self):
        """Updating a class that holds an edge is no coordinate ascent: on this
        triangle as one class the objective falls from 1.0 to 0.29."""
        g = parse_graph("0 1\n1 2\n2 0")
        g.__dict__["color_classes"] = (np.arange(3),)
        e1, e2 = np.eye(2)
        vecs = np.array([e1, e2, e1])[:, None]
        with pytest.raises(AssertionError, match="objective decreased"):
            mixing_ascent(g, vecs, tol=-1, max_sweeps=1)

    def test_non_unit_rows_rejected(self):
        vecs = np.array([[[2.0, 0.0]], [[1.0, 0.0]]])
        with pytest.raises(ValueError, match="unit"):
            mixing_ascent(EDGE, vecs, tol=-1, max_sweeps=1)


class TestWeightScale:
    @pytest.mark.parametrize("j", [-540, -300, 20, 300, 515, 600])
    def test_power_of_two_scaling_is_exact(self, j):
        """Scaling every weight by 2^j leaves the iterates bit for bit and
        scales the objective and the residual exactly: no squared length
        overflows or underflows (in the units of A the residual's squares
        overflow at j = 600), and rounding at large weights does not trip
        the guard."""
        g = regular_graph(40, 3, np.random.default_rng(1))
        scaled = WeightedGraph.from_edges(g.n, [(u, v, math.ldexp(w, j)) for u, v, w in g.edges])
        base = solve_maxcut_sdp(g, tol=-1, max_sweeps=2000, seed=3)
        sol = solve_maxcut_sdp(scaled, tol=-1, max_sweeps=2000, seed=3)
        assert np.array_equal(sol.vectors, base.vectors)
        assert sol.objective == math.ldexp(base.objective, j)
        assert sol.residual == math.ldexp(base.residual, j) and math.isfinite(sol.residual)
        assert sol.sweeps == base.sweeps == 2000


def slab_cases():
    """(matrix, first row, end row, V as (n, S * r)) for the kernel's product: a
    slab with an empty row, a stack of S = 4 starts, and int64 indices."""
    rng = np.random.default_rng(12)
    isolated = WeightedGraph.from_edges(6, [(0, 1, 2.0), (1, 2, 0.5), (3, 4, 1.5)]).csr
    yield pytest.param(isolated, 2, 6, rng.standard_normal((6, 3)), id="empty-row")  # vertex 5
    stacked = gnp_graph(20, 0.4, rng, weights="exp").csr
    yield pytest.param(stacked, 7, 15, rng.standard_normal((20, 4 * 3)), id="stack")
    wide = gnp_graph(15, 0.5, rng, weights="exp").csr
    wide = sp.csr_array((wide.data, wide.indices.astype(np.int64),
                         wide.indptr.astype(np.int64)), shape=wide.shape)
    assert wide.indptr.dtype == wide.indices.dtype == np.int64
    yield pytest.param(wide, 0, 9, rng.standard_normal((15, 2 * 5)), id="int64")


@pytest.mark.parametrize("a, lo, hi, flat", list(slab_cases()))
def test_csr_product_matches_matmul(a, lo, hi, flat):
    """The kernel calls scipy's private CSR routine on a slab of rows, with the
    matrix's own indptr view; it must equal the public product bit for bit."""
    out = np.full((hi - lo, flat.shape[1]), np.nan)  # the product must overwrite it
    _csr_product(a.indptr[lo:hi + 1], a.indices, a.data, flat, out)
    assert np.array_equal(out, a[lo:hi] @ flat)


@pytest.mark.parametrize("a, lo, hi, flat", list(slab_cases()))
def test_renumbering_matches_fancy_indexing(a, lo, hi, flat):
    """The kernel permutes the CSR arrays with numpy; they must be scipy's
    a[order][:, order], entry order within each row included."""
    for order in (np.random.default_rng(lo).permutation(a.shape[0]),
                  np.arange(a.shape[0])[::-1]):
        expected = a[order][:, order]
        got = _renumbered(a, order)
        for x, y in zip(got, (expected.indptr, expected.indices, expected.data)):
            assert np.array_equal(x, y)
        assert got[0].dtype == got[1].dtype == a.indices.dtype


class TestDualBound:
    def test_matches_dense_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = gnp_graph(int(rng.integers(2, 25)), 0.4, rng, weights="exp")
            sol = solve_maxcut_sdp(g, max_sweeps=int(rng.integers(1, 20)), tol=-1)
            lap = np.zeros((g.n, g.n))
            for u, v, w in g.edges:
                lap[[u, v], [u, v]] += w / 4
                lap[[u, v], [v, u]] -= w / 4
            y = np.diag(lap @ sol.vectors @ sol.vectors.T)
            lam = np.linalg.eigvalsh(np.diag(y) - lap)[0]
            assert sol.dual_bound == pytest.approx(y.sum() - g.n * min(0.0, lam),
                                                   rel=1e-12, abs=1e-12)
            assert sol.gap >= 0

    def test_known_optima(self):
        for g, optimum in ((EDGE, 1.0), (TRIANGLE, 2.25), (K4, 4.0)):
            sol = solve_maxcut_sdp(g)
            assert optimum - 1e-9 <= sol.dual_bound <= optimum + 1e-6

    def test_certified_where_objective_plus_residual_is_not(self):
        g = regular_graph(200, 3, np.random.default_rng(0))
        early = solve_maxcut_sdp(g, max_sweeps=30, tol=-1, seed=0)
        optimum = solve_maxcut_sdp(g, max_sweeps=5000, tol=0, seed=0).objective
        assert early.objective + early.residual < optimum <= early.dual_bound


class TestRank:
    @pytest.mark.parametrize("rank", [0, -3])
    def test_rank_below_one_rejected(self, rank):
        with pytest.raises(ValueError, match="rank"):
            solve_maxcut_sdp(TRIANGLE, rank=rank)


def edge_loop_objective(g, vecs):
    """sum over edges of (w/2)(1 - v_u . v_v), one edge at a time."""
    return sum(w / 2 * (1 - sum(float(x) * float(y) for x, y in zip(vecs[u], vecs[v])))
               for u, v, w in g.edges)


class TestObjective:
    def test_matches_edge_loop(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            g = gnp_graph(int(rng.integers(2, 25)), float(rng.uniform(0.2, 0.7)), rng,
                          weights="exp")
            starts = int(rng.integers(1, 6))
            stack = unit_rows(rng, g.n * starts, 4).reshape(g.n, starts, 4)
            expected = [edge_loop_objective(g, stack[:, k]) for k in range(starts)]
            assert sdp_objective(g, stack[:, 0]) == pytest.approx(expected[0], rel=1e-12)
            assert stack_objective(g, stack) == pytest.approx(expected, rel=1e-12)

    def test_all_equal_vectors(self):
        v = np.tile([1.0, 0.0, 0.0], (3, 1))
        assert sdp_objective(TRIANGLE, v) == 0.0

    def test_antipodal_edge(self):
        v = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert sdp_objective(EDGE, v) == pytest.approx(1.0)

    def test_triangle_at_120_degrees(self):
        ang = 2 * np.pi / 3
        v = np.array([[np.cos(k * ang), np.sin(k * ang)] for k in range(3)])
        assert sdp_objective(TRIANGLE, v) == pytest.approx(2.25, abs=1e-12)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            sdp_objective(EDGE, np.array([[2.0, 0.0], [1.0, 0.0]]))


class TestGwRound:
    def test_single_edge_never_fails(self):
        sol = solve_maxcut_sdp(EDGE)
        for seed in range(20):
            out = gw_round(EDGE, sol, seed=seed, attempts=5)
            assert out.value == 1.0 and not out.failed

    def test_triangle_meets_ratio(self):
        sol = solve_maxcut_sdp(TRIANGLE)
        out = gw_round(TRIANGLE, sol, seed=0)
        assert out.value == 2.0
        assert out.value >= 0.8785 * sol.objective

    def test_degenerate_vectors_fail(self):
        vecs = np.tile([1.0, 0.0], (3, 1))
        sol = GramSolution(vectors=vecs, objective=2.25, residual=0.0,
                           converged=True, sweeps=0)
        out = gw_round(TRIANGLE, sol, seed=0)
        assert out.value == 0.0 and out.failed

    def test_value_recomputed_from_bits(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            g = gnp_graph(10, 0.5, rng, weights="uniform")
            if not g.edges:
                continue
            sol = solve_maxcut_sdp(g)
            out = gw_round(g, sol, seed=seed)
            assert out.value == cut_value(g, out.bits)


class TestRank3Round:
    def test_single_edge(self):
        sol = solve_maxcut_sdp(EDGE)
        out = rank3_round(EDGE, sol, upper(EDGE, sol), seed=0, attempts=10)
        assert out.value == pytest.approx(1.0, abs=1e-9)
        assert not out.failed

    def test_triangle_best_of_50(self):
        sol = solve_maxcut_sdp(TRIANGLE)
        out = rank3_round(TRIANGLE, sol, upper(TRIANGLE, sol), seed=0, attempts=50)
        # best product state of the triangle has energy 2.25 (coplanar 120deg)
        assert out.value >= 2.1

    def test_zero_weights(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 0.0), (1, 2, 0.0)])
        sol = solve_maxcut_sdp(g)
        out = rank3_round(g, sol, upper(g, sol), seed=0, attempts=5)
        assert out.value == 0.0

    def test_value_is_product_energy_of_bloch(self):
        sol = solve_maxcut_sdp(K4)
        out = rank3_round(K4, sol, upper(K4, sol), seed=3, attempts=20)
        assert out.value == pytest.approx(product_energy(K4, out.bloch), abs=1e-12)

    def test_threshold_uses_certified_sdp_bound(self):
        # the cut (0, 1, 0) of the triangle as a rank-1 Gram factor: every
        # projection gives Bloch vectors (b, -b, b), of energy 2; that lies between
        # 0.478 * 3.75 (the SDP-combined bound 3 * 9/4 - 3) and 0.478 * 4.5
        # (the degree-sum bound)
        vecs = np.array([[1.0], [-1.0], [1.0]])
        hand = GramSolution(vecs, objective=2.0, residual=0.0, converged=True, sweeps=0)
        # dual_bound unset (inf): the bound is the degree sum, 4.5
        assert rank3_round(TRIANGLE, hand, upper(TRIANGLE, hand), attempts=5).failed
        certified = GramSolution(vecs, objective=2.0, residual=0.0, converged=True,
                                 sweeps=0, dual_bound=2.25)
        out = rank3_round(TRIANGLE, certified, upper(TRIANGLE, certified), attempts=5)
        assert out.value == pytest.approx(2.0, abs=1e-12)
        assert not out.failed


    def test_matches_per_attempt_loop(self):
        rng = np.random.default_rng(10)
        for k in range(8):
            g = gnp_graph(int(rng.integers(3, 30)), 0.4, rng, weights="exp")
            if not g.edges:
                continue
            sol = solve_maxcut_sdp(g, max_sweeps=5, tol=-1)
            out = rank3_round(g, sol, upper(g, sol), seed=k, attempts=50)
            draws = np.random.default_rng(k)
            best_bloch, best_val = None, -1.0
            for _ in range(50):
                proj = sol.vectors @ draws.standard_normal((sol.rank, 3))
                bloch = proj / np.linalg.norm(proj, axis=1)[:, None]
                val = sdp_objective(g, bloch)
                if val > best_val:
                    best_val, best_bloch = val, bloch
            assert out.value == pytest.approx(best_val, rel=1e-12)
            assert np.allclose(out.bloch, best_bloch, rtol=0, atol=1e-12)
            assert out.value == sdp_objective(g, out.bloch)


class TestRelaxationChain:
    def test_maxcut_le_prod_le_sdp(self):
        # alpha(1) <= alpha(3) <= alpha(n) on small unweighted graphs
        rng = np.random.default_rng(2)
        for _ in range(15):
            g = gnp_graph(int(rng.integers(3, 10)), 0.5, rng)
            if not g.edges:
                continue
            sol = solve_maxcut_sdp(g)
            mc, _ = brute_force_maxcut(g)
            out = rank3_round(g, sol, upper(g, sol), seed=0, attempts=100)
            assert mc <= out.value + 0.05 * mc + 1e-6  # within the rounding slack
            assert out.value <= sol.objective + 1e-6
            assert mc <= sol.objective + 1e-6  # solver-tolerance slack
