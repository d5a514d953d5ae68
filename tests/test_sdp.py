import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln, hyp2f1

from quantum_maxcut import (
    GramSolution,
    WeightedGraph,
    brute_force_maxcut,
    gw_round,
    parse_graph,
    rank3_round,
    sdp_objective,
    solve_maxcut_sdp,
)
from quantum_maxcut import sdp
from quantum_maxcut.generate import gnp_graph, regular_graph, star_graph
from quantum_maxcut.graphs import Csr, csr_product
from quantum_maxcut.sdp import _renumbered, mixing_ascent, stack_objective
from quantum_maxcut.states import cut_value
from scipy_reference import scipy_csr

EDGE = parse_graph("0 1 1.0")
TRIANGLE = parse_graph("0 1\n1 2\n2 0")
K4 = WeightedGraph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def cut_factor(claimed):
    """The cut (0, 1, 0) of a triangle as a rank-1 Gram factor, with its objective
    given as `claimed`: every projection gives Bloch vectors (b, -b, b), whose
    energy is the cut's, 2 on unit weights."""
    return GramSolution(np.array([[1.0], [-1.0], [1.0]]), objective=claimed, residual=0.0,
                        converged=True, sweeps=0)


# objectives that put the triangle cut's 2 just below and just above 0.956 of them
JUST_BELOW, JUST_ABOVE = 2 / 0.956 * (1 + 1e-12), 2 / 0.956 * (1 - 1e-12)


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

    def test_max_sweeps_flag(self, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_SWEEPS", 1)
        sol = solve_maxcut_sdp(K4)
        assert not sol.converged

    def test_negative_tol_runs_the_cap_on_zero_weights(self):
        """With no positive weight every objective is 0, and 0 <= tol * 0 holds
        for any tol: a negative tol still runs all `MAX_SWEEPS` sweeps, and
        tol 0 stops after the first."""
        g = parse_graph("0 1 0\n1 2 0")
        sol = solve_maxcut_sdp(g, tol=-1)
        assert (sol.sweeps, sol.converged) == (sdp.MAX_SWEEPS, False)
        sol = solve_maxcut_sdp(g, tol=0)
        assert (sol.sweeps, sol.converged) == (1, True)


def unit_rows(rng, n, r):
    vecs = rng.standard_normal((n, r))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def cyclic_reference(g, vecs, sweeps, order):
    """One-vertex coordinate ascent steps, visiting vertices in the given order."""
    adj = scipy_csr(g.csr).toarray()
    for _ in range(sweeps):
        for i in order:
            s = -(adj[i] @ vecs)
            ns = np.linalg.norm(s)
            if ns > 0:
                vecs[i] = s / ns
    return vecs


class TestBlockKernel:
    def test_complete_graph_matches_plain_cyclic_loop(self, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_SWEEPS", 25)
        k6 = WeightedGraph.from_edges(6, [(u, v, 1.0 + u + 2 * v)
                                          for u in range(6) for v in range(u + 1, 6)])
        start = unit_rows(np.random.default_rng(0), 6, 4)
        block = start.copy()
        mixing_ascent(k6, block, tol=-1)
        reference = cyclic_reference(k6, start.copy(), 25, range(6))
        assert np.allclose(block, reference, rtol=0, atol=1e-12)

    def test_random_graphs_match_color_ordered_loop(self, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_SWEEPS", 15)
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = gnp_graph(int(rng.integers(5, 40)), float(rng.uniform(0.1, 0.6)), rng,
                          weights="exp")
            start = unit_rows(rng, g.n, 5)
            block = start.copy()
            _, _, sweeps, _ = mixing_ascent(g, block, tol=-1)
            assert sweeps == 15
            reference = cyclic_reference(g, start.copy(), 15,
                                         np.concatenate(g.color_classes))
            assert np.allclose(block, reference, rtol=0, atol=1e-10)

    def test_isolated_vertex_keeps_its_vector(self, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_SWEEPS", 3)
        g = WeightedGraph.from_edges(3, [(0, 1)])
        vecs = unit_rows(np.random.default_rng(1), 3, 3)
        isolated = vecs[2].copy()
        mixing_ascent(g, vecs, tol=-1)
        assert np.array_equal(vecs[2], isolated)
        assert vecs[0] @ vecs[1] == pytest.approx(-1.0, abs=1e-12)

    def test_masked_restart_matches_fast_path(self, monkeypatch):
        """An isolated vertex ends the unmasked first sweep with a zero norm,
        so the call starts again on the masked step; every other row comes
        out bit for bit as on the graph without it, which never leaves the
        fast path."""
        monkeypatch.setattr(sdp, "MAX_SWEEPS", 30)
        rng = np.random.default_rng(12)
        g = gnp_graph(15, 0.4, rng, weights="exp")
        assert min(g.degree) > 0  # so that g alone never leaves the fast path
        padded = WeightedGraph(g.n + 1, g.u, g.v, g.w)  # vertex g.n is isolated
        vecs = unit_rows(rng, g.n + 1, 4)
        alone = vecs[:g.n].copy()
        isolated = vecs[g.n].copy()
        mixing_ascent(padded, vecs, tol=-1)
        mixing_ascent(g, alone, tol=-1)
        assert np.array_equal(vecs[:g.n], alone)
        assert np.array_equal(vecs[g.n], isolated)

    def test_returns_the_closing_product(self, monkeypatch):
        """The kernel returns a V of its last iterate, a = -A / 2^k, in input
        order: bit for bit the graph's own CSR product scaled by -2^-k, on
        the fast path and on the masked restart (an isolated vertex)."""
        monkeypatch.setattr(sdp, "MAX_SWEEPS", 30)
        g = gnp_graph(15, 0.4, np.random.default_rng(12), weights="exp")
        assert min(g.degree) > 0  # so that g alone never leaves the fast path
        padded = WeightedGraph(g.n + 1, g.u, g.v, g.w)  # vertex g.n is isolated
        for graph in (g, padded):
            vecs = unit_rows(np.random.default_rng(1), graph.n, 4)
            *_, product = mixing_ascent(graph, vecs, tol=-1)
            expected = np.zeros((graph.n, 4))
            csr_product(graph.csr, vecs, expected)()
            expected = -np.ldexp(expected, -graph.weight_exponent)
            assert np.array_equal(product, expected)

    def test_cancellation_mid_run_keeps_the_vector(self, monkeypatch):
        """On the path 0-1-2 started with v0 = -v2 the middle vertex, the first
        one visited, has a neighbor sum of exactly zero and keeps its vector;
        so does a vertex whose one edge has weight zero."""
        path = parse_graph("0 1\n1 2")
        assert [c.tolist() for c in path.color_classes] == [[1], [0, 2]]
        start = unit_rows(np.random.default_rng(13), 3, 3)
        start[2] = -start[0]
        once = start.copy()
        monkeypatch.setattr(sdp, "MAX_SWEEPS", 1)
        mixing_ascent(path, once, tol=-1)
        assert np.array_equal(once[1], start[1])
        block = start.copy()
        monkeypatch.setattr(sdp, "MAX_SWEEPS", 5)
        mixing_ascent(path, block, tol=-1)
        reference = cyclic_reference(path, start.copy(), 5, np.concatenate(path.color_classes))
        assert np.allclose(block, reference, rtol=0, atol=1e-12)

        zero = parse_graph("0 1 0\n1 2")
        block = start.copy()
        mixing_ascent(zero, block, tol=-1)
        assert np.array_equal(block[0], start[0])
        reference = cyclic_reference(zero, start.copy(), 5, np.concatenate(zero.color_classes))
        assert np.allclose(block, reference, rtol=0, atol=1e-12)

    def test_memory_does_not_grow_with_sweeps(self, monkeypatch):
        """Buffers are allocated once per call, and nothing a sweep makes
        outlives it: the traced peak of a call at 400 sweeps is within 1 KiB
        of the peak at 20 (about 65 kB on 3-regular n = 100 at rank 16)."""
        g = regular_graph(100, 3, np.random.default_rng(0))
        start = unit_rows(np.random.default_rng(1), g.n, sdp.auto_rank(g.n))
        monkeypatch.setattr(sdp, "MAX_SWEEPS", 1)
        mixing_ascent(g, start.copy(), tol=-1)  # untraced: builds what is cached
        peaks = []
        for sweeps in (20, 400):
            monkeypatch.setattr(sdp, "MAX_SWEEPS", sweeps)
            vecs = start.copy()
            tracemalloc.start()
            try:
                mixing_ascent(g, vecs, tol=-1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 1024, peaks

    def test_any_memory_layout(self, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_SWEEPS", 5)
        g = gnp_graph(12, 0.4, np.random.default_rng(3), weights="exp")
        rows = unit_rows(np.random.default_rng(4), 12, 4)
        strided = np.asfortranarray(rows)
        mixing_ascent(g, rows, tol=-1)
        mixing_ascent(g, strided, tol=-1)
        assert np.array_equal(strided, rows)

    def test_improper_class_trips_the_guard(self, monkeypatch):
        """Updating a class that holds an edge is no coordinate ascent: on this
        triangle as one class the objective falls from 1.0 to 0.29."""
        g = parse_graph("0 1\n1 2\n2 0")
        g.__dict__["color_classes"] = (np.arange(3),)
        e1, e2 = np.eye(2)
        vecs = np.array([e1, e2, e1])
        monkeypatch.setattr(sdp, "MAX_SWEEPS", 1)
        with pytest.raises(AssertionError, match="objective decreased"):
            mixing_ascent(g, vecs, tol=-1)

    def test_non_unit_rows_rejected(self):
        vecs = np.array([[2.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="unit"):
            mixing_ascent(EDGE, vecs, tol=-1)


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
        base = solve_maxcut_sdp(g, tol=-1, seed=3)
        sol = solve_maxcut_sdp(scaled, tol=-1, seed=3)
        assert np.array_equal(sol.vectors, base.vectors)
        assert sol.objective == math.ldexp(base.objective, j)
        assert sol.residual == math.ldexp(base.residual, j) and math.isfinite(sol.residual)
        assert sol.dual_bound == math.ldexp(base.dual_bound, j)
        assert sol.gap == math.ldexp(base.gap, j)
        assert sol.sweeps == base.sweeps == 2000

    @pytest.mark.parametrize("j", [-300, -20, 20, 300])
    def test_default_tol_stops_at_every_scale(self, j):
        """The stop rule reads the kernel's own numbers, relative to the
        objective: scaled by 2^j, a solve at the default tol stops after the
        same sweep, with the same vectors bit for bit, small weights too."""
        g = regular_graph(40, 3, np.random.default_rng(1))
        scaled = WeightedGraph.from_edges(g.n, [(u, v, math.ldexp(w, j)) for u, v, w in g.edges])
        base = solve_maxcut_sdp(g, seed=3)
        sol = solve_maxcut_sdp(scaled, seed=3)
        assert base.converged and base.sweeps < sdp.MAX_SWEEPS
        assert (sol.sweeps, sol.converged) == (base.sweeps, base.converged)
        assert np.array_equal(sol.vectors, base.vectors)

    @pytest.mark.parametrize("j", [-1060, -1050])
    def test_subnormal_weights_keep_the_bound_above(self, j):
        """At subnormal weights the iterates are still those at 2^0, but the
        bound scaled back rounds to a subnormal: it must round up, never
        below the objective of the same vectors at full precision."""
        g = regular_graph(40, 3, np.random.default_rng(1))
        scaled = WeightedGraph.from_edges(g.n, [(u, v, math.ldexp(w, j)) for u, v, w in g.edges])
        base = solve_maxcut_sdp(g, tol=-1, seed=3)
        sol = solve_maxcut_sdp(scaled, tol=-1, seed=3)
        assert np.array_equal(sol.vectors, base.vectors)
        assert math.ldexp(sol.dual_bound, -j) >= base.objective
        assert sol.gap >= 0

    @pytest.mark.parametrize("j", [-600, -40, 0, 600])
    def test_roundings_scale_exactly(self, j, monkeypatch):
        """Under 2^j scaling both roundings pick the same winner, their values
        scale exactly and their failure flags hold: the hand-built triangles of
        `test_threshold_is_against_objective` fail and pass at every scale."""
        monkeypatch.setattr(sdp, "MAX_SWEEPS", 50)

        def scale(g, e):
            return WeightedGraph.from_edges(g.n, [(u, v, math.ldexp(w, e)) for u, v, w in g.edges])

        def outcomes(e):
            g = scale(gnp_graph(30, 0.3, np.random.default_rng(2), weights="exp"), e)
            sol = solve_maxcut_sdp(g, tol=-1, seed=1)
            found = [gw_round(g, sol, seed=4), rank3_round(g, sol, seed=4)]
            tri = scale(TRIANGLE, e)
            for claimed in (JUST_BELOW, JUST_ABOVE):
                found.append(rank3_round(tri, cut_factor(math.ldexp(claimed, e)), attempts=5))
            return found

        base, scaled = outcomes(0), outcomes(j)
        assert [x.failed for x in base] == [x.failed for x in scaled] == [False, False, True, False]
        assert scaled[0].bits == base[0].bits
        for x, y in zip(scaled, base):
            assert x.value == math.ldexp(y.value, j)
        for x, y in zip(scaled[1:], base[1:]):
            assert np.array_equal(x.bloch, y.bloch)


def slab_cases():
    """(matrix, first row, end row, V as (n, S * r)) for the kernel's product: a
    slab with an empty row, a stack of S = 4 starts, and int64 and int32
    indices (a graph's `csr` has intp, the oracle's sector matrix int32)."""
    rng = np.random.default_rng(12)
    isolated = WeightedGraph.from_edges(6, [(0, 1, 2.0), (1, 2, 0.5), (3, 4, 1.5)]).csr
    yield pytest.param(isolated, 2, 6, rng.standard_normal((6, 3)), id="empty-row")  # vertex 5
    stacked = gnp_graph(20, 0.4, rng, weights="exp").csr
    yield pytest.param(stacked, 7, 15, rng.standard_normal((20, 4 * 3)), id="stack")
    for dtype in (np.int64, np.int32):
        wide = gnp_graph(15, 0.5, rng, weights="exp").csr
        wide = Csr(wide.indptr.astype(dtype), wide.indices.astype(dtype), wide.data)
        yield pytest.param(wide, 0, 9, rng.standard_normal((15, 2 * 5)),
                           id=np.dtype(dtype).name)


@pytest.mark.parametrize("a, lo, hi, flat", list(slab_cases()))
def test_csr_product_matches_matmul(a, lo, hi, flat):
    """The kernel calls `csr_product`, scipy's compiled CSR routine, on a slab
    of rows with the matrix's own indptr view, which adds the product into its
    output: from zero it must equal scipy's public product bit for bit, and
    otherwise add to what is there."""
    slab = Csr(a.indptr[lo:hi + 1], a.indices, a.data)
    expected = scipy_csr(a)[lo:hi] @ flat
    out = np.zeros(expected.shape)
    csr_product(slab, flat, out)()
    assert np.array_equal(out, expected)
    start = np.random.default_rng(hi).standard_normal(expected.shape)
    out = start.copy()
    csr_product(slab, flat, out)()
    assert np.allclose(out, start + expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("a, lo, hi, flat", list(slab_cases()))
def test_renumbering_matches_fancy_indexing(a, lo, hi, flat):
    """The kernel permutes the CSR arrays with numpy; they must be scipy's
    a[order][:, order], entry order within each row included."""
    n = len(a.indptr) - 1
    for order in (np.random.default_rng(lo).permutation(n), np.arange(n)[::-1]):
        expected = scipy_csr(a)[order][:, order]
        got = _renumbered(a, order)
        for x, y in zip(got, (expected.indptr, expected.indices, expected.data)):
            assert np.array_equal(x, y)
        assert got[0].dtype == got[1].dtype == a.indices.dtype


class TestDualBound:
    def test_matches_dense_formula(self, monkeypatch):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = gnp_graph(int(rng.integers(2, 25)), 0.4, rng, weights="exp")
            monkeypatch.setattr(sdp, "MAX_SWEEPS", int(rng.integers(1, 20)))
            sol = solve_maxcut_sdp(g, tol=-1)
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

    def test_certified_where_objective_plus_residual_is_not(self, monkeypatch):
        g = regular_graph(200, 3, np.random.default_rng(0))
        monkeypatch.setattr(sdp, "MAX_SWEEPS", 30)
        early = solve_maxcut_sdp(g, tol=-1, seed=0)
        monkeypatch.setattr(sdp, "MAX_SWEEPS", 5000)
        optimum = solve_maxcut_sdp(g, tol=0, seed=0).objective
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

    def test_spins_give_the_cut_value(self):
        """At d = 1, on spins 1 - 2 * bit, the objective is the cut value:
        exactly on unit weights, and the same for a cut and its complement."""
        rng = np.random.default_rng(14)
        for weights in ("unit", "exp"):
            g = gnp_graph(20, 0.4, rng, weights=weights)
            bits = rng.integers(0, 2, (7, g.n))
            spins = (1.0 - 2.0 * bits.T)[..., None]  # (n, 7, 1)
            values = stack_objective(g, spins)
            expected = [cut_value(g, b) for b in bits]
            assert values == pytest.approx(expected, rel=1e-12)
            assert np.array_equal(stack_objective(g, -spins), values)
            if weights == "unit":
                assert values.tolist() == expected

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

    @pytest.mark.parametrize("shape", [(3, 2), (1, 2), (2,), (2, 1, 2)])
    def test_one_row_per_vertex(self, shape):
        with pytest.raises(ValueError, match="2 vectors"):
            sdp_objective(EDGE, np.ones(shape) / np.sqrt(shape[-1]))


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


    @pytest.mark.parametrize("weights", ["unit", "exp"])
    def test_matches_per_attempt_loop(self, weights, monkeypatch):
        """The winner is the first best of an edge loop over the attempts'
        cuts, on unit weights (many ties) and exp weights."""
        rng = np.random.default_rng(15)
        for k in range(8):
            g = gnp_graph(int(rng.integers(3, 25)), 0.4, rng, weights=weights)
            if not g.edges:
                continue
            monkeypatch.setattr(sdp, "MAX_SWEEPS", int(rng.integers(1, 30)))
            sol = solve_maxcut_sdp(g, tol=-1, rank=int(rng.integers(1, 4)))
            out = gw_round(g, sol, seed=k, attempts=60)
            planes = np.random.default_rng(k).standard_normal((60, sol.rank))
            best_bits, best_val = None, -1.0
            for signs in planes @ sol.vectors.T > 0:
                val = sum(w for u, v, w in g.edges if signs[u] != signs[v])
                if val > best_val:
                    best_val, best_bits = val, tuple(int(b) for b in signs)
            assert out.bits == best_bits
            assert out.value == pytest.approx(best_val, rel=1e-12)
            assert out.value == cut_value(g, out.bits)

    def test_complementary_cuts_tie_to_the_first(self):
        """A rank-1 factor of a cut gives each attempt that cut or its
        complement: all tie, and the first attempt's bits win."""
        g = gnp_graph(12, 0.5, np.random.default_rng(16))
        side = np.array([[1.0], [-1.0]])[np.random.default_rng(17).integers(0, 2, g.n)]
        sol = GramSolution(side, objective=2.0 * g.total_weight, residual=0.0,
                           converged=True, sweeps=0)
        signs = np.random.default_rng(5).standard_normal((10, 1)) @ side.T > 0
        assert len({tuple(row) for row in signs}) == 2  # both complements are drawn
        out = gw_round(g, sol, seed=5, attempts=10)
        assert out.bits == tuple(int(b) for b in signs[0])
        assert out.value == cut_value(g, 1 - np.array(out.bits))


@pytest.mark.parametrize("rounding", ["gw", "rank3"])
def test_each_rounding_scores_its_attempts_once(monkeypatch, rounding):
    """Each rounding ranks all of its attempts in one `stack_objective` call;
    the rank-3 winner's re-score by `sdp_objective` is a one-start call."""
    shapes = []

    def spy(g, vecs):
        shapes.append(vecs.shape)
        return stack_objective(g, vecs)

    monkeypatch.setattr(sdp, "stack_objective", spy)
    sol = solve_maxcut_sdp(K4)
    if rounding == "gw":
        gw_round(K4, sol, attempts=7)
    else:
        rank3_round(K4, sol, attempts=7)
    assert shapes == ([(4, 7, 1)] if rounding == "gw" else [(4, 7, 3), (4, 1, 3)])


@pytest.mark.parametrize("attempts", [0, -1])
@pytest.mark.parametrize("rounding", [gw_round, rank3_round])
def test_attempts_below_one_rejected(rounding, attempts):
    with pytest.raises(ValueError, match=f"attempts must be at least 1, got {attempts}"):
        rounding(K4, solve_maxcut_sdp(K4), attempts=attempts)


def projection_ratio(k, rho):
    """(1 - E[x . y]) / (1 - rho) for unit vectors at inner product rho projected
    by one k x n standard normal matrix and normalized, where E[x . y] =
    (2/k) (Gamma((k+1)/2) / Gamma(k/2))^2 rho 2F1(1/2, 1/2; k/2 + 1; rho^2)."""
    scale = 2 / k * math.exp(2 * (gammaln((k + 1) / 2) - gammaln(k / 2)))
    return (1 - scale * rho * hyp2f1(0.5, 0.5, k / 2 + 1, rho * rho)) / (1 - rho)


def test_rounding_constants_from_one_formula():
    """GW_RATIO and RANK3_RATIO are the worst per-edge ratios alpha_1 and
    alpha_3 of the projection formula, rounded down to at most 1e-3: alpha_3 =
    0.95634 at rho = -0.584. For k = 1 the formula is (2/pi) arcsin rho."""
    rho = np.linspace(-1, 1, 200_001)[1:-1]
    assert np.allclose(1 - projection_ratio(1, rho) * (1 - rho), 2 / np.pi * np.arcsin(rho),
                       rtol=0, atol=1e-12)
    alpha = {k: projection_ratio(k, rho).min() for k in (1, 3)}
    assert sdp.GW_RATIO <= alpha[1] < sdp.GW_RATIO + 1e-3
    assert sdp.RANK3_RATIO <= alpha[3] < sdp.RANK3_RATIO + 1e-3
    assert rho[np.argmin(projection_ratio(3, rho))] == pytest.approx(-0.584, abs=1e-3)


class TestRank3Round:
    def test_single_edge(self):
        sol = solve_maxcut_sdp(EDGE)
        out = rank3_round(EDGE, sol, seed=0, attempts=10)
        assert out.value == pytest.approx(1.0, abs=1e-9)
        assert not out.failed

    def test_triangle_best_of_50(self):
        sol = solve_maxcut_sdp(TRIANGLE)
        out = rank3_round(TRIANGLE, sol, seed=0, attempts=50)
        # best product state of the triangle has energy 2.25 (coplanar 120deg)
        assert out.value >= 2.1

    def test_zero_weights(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 0.0), (1, 2, 0.0)])
        sol = solve_maxcut_sdp(g)
        out = rank3_round(g, sol, seed=0, attempts=5)
        assert out.value == 0.0

    def test_value_is_product_energy_of_bloch(self):
        sol = solve_maxcut_sdp(K4)
        out = rank3_round(K4, sol, seed=3, attempts=20)
        assert out.value == pytest.approx(sdp_objective(K4, out.bloch), abs=1e-12)

    def test_threshold_is_against_objective(self):
        """failed is value < 0.956 * sol.objective, with no slack either side."""
        below = rank3_round(TRIANGLE, cut_factor(JUST_BELOW), attempts=5)
        above = rank3_round(TRIANGLE, cut_factor(JUST_ABOVE), attempts=5)
        assert below.value == above.value == 2.0
        assert below.failed and not above.failed


    def test_matches_per_attempt_loop(self, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_SWEEPS", 5)
        rng = np.random.default_rng(10)
        for k in range(8):
            g = gnp_graph(int(rng.integers(3, 30)), 0.4, rng, weights="exp")
            if not g.edges:
                continue
            sol = solve_maxcut_sdp(g, tol=-1)
            out = rank3_round(g, sol, seed=k, attempts=50)
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

    @pytest.mark.parametrize("g", [
        pytest.param(parse_graph("0 5"), id="edge-and-isolated-vertices"),
        pytest.param(star_graph(9, weights="exp", rng=np.random.default_rng(3)), id="exp-star"),
    ])
    def test_energy_at_most_total_weight(self, g):
        """Each edge gives a product state at most its weight. The best
        projection of these graphs cuts every edge, and unclipped its score
        read W plus 1-2 ulps: 1.0000000000000002 with W = 1, and
        5.237829866495991 with W = 5.237829866495989 on the star."""
        sol = solve_maxcut_sdp(g)
        assert rank3_round(g, sol).value == g.total_weight

    def test_relaxation_at_most_total_weight(self):
        """No unit vectors score above W either. Read from the kernel's
        closing product, the exp-star's relaxation objective was
        5.23782986649599 with W = 5.237829866495989; the bound stays above it."""
        g = star_graph(9, weights="exp", rng=np.random.default_rng(3))
        sol = solve_maxcut_sdp(g)
        assert sol.objective == g.total_weight
        assert sol.gap >= 0


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
            out = rank3_round(g, sol, seed=0, attempts=100)
            assert mc <= out.value + 0.05 * mc + 1e-6  # within the rounding slack
            assert out.value <= sol.objective + 1e-6
            assert mc <= sol.objective + 1e-6  # solver-tolerance slack
