import math

import numpy as np
import pytest

from quantum_maxcut import (
    WeightedGraph,
    max_eigenvalue,
    opt_upper_bound,
    parse_graph,
    sdp_combined_bound,
    solve_maxcut_sdp,
    star_bound,
)
from quantum_maxcut.generate import gnp_graph, star_graph

TRIANGLE = parse_graph("0 1\n1 2\n2 0")


class TestStarBound:
    def test_uniform_two_leaves_tight(self):
        assert star_bound([1, 1]) == 3.0
        g = parse_graph("0 1\n0 2")
        assert max_eigenvalue(g).value == pytest.approx(3.0, abs=1e-8)

    def test_nonuniform_dominates_oracle(self):
        assert star_bound([1, 2, 3]) == 9.0
        g = parse_graph("0 1 1\n0 2 2\n0 3 3")
        assert max_eigenvalue(g).value <= 9.0 + 1e-9

    def test_single_weight(self):
        assert star_bound([2.5]) == 5.0

    def test_empty(self):
        assert star_bound([]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            star_bound([1, -1])


class TestOptUpperBound:
    def test_unweighted_triangle(self):
        rep = opt_upper_bound(TRIANGLE)
        assert rep.degree_sum == 4.5  # |E| + |V|/2
        assert rep.trivial == 6.0
        assert rep.best == 4.5

    def test_single_edge_tight(self):
        rep = opt_upper_bound(parse_graph("0 1 1.0"))
        assert rep.degree_sum == 2.0 == rep.best

    def test_weighted_path(self):
        rep = opt_upper_bound(parse_graph("0 1 1\n1 2 2"))
        assert rep.degree_sum == pytest.approx(3 + 0.5 * (1 + 2 + 2))

    def test_dominates_oracle_on_random_graphs(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            g = gnp_graph(int(rng.integers(2, 10)), 0.5, rng, weights="exp")
            if not g.edges:
                continue
            opt = max_eigenvalue(g).value
            sol = solve_maxcut_sdp(g)
            rep = opt_upper_bound(g, sdp_value=sol.dual_bound)
            assert rep.trivial >= opt - 1e-8
            assert rep.degree_sum >= opt - 1e-8
            assert rep.sdp_combined >= opt - 1e-6
            assert rep.best == min(rep.trivial, rep.degree_sum, rep.sdp_combined)


class TestSdpCombinedBound:
    def test_single_edge_tight(self):
        g = parse_graph("0 1 1.0")
        assert sdp_combined_bound(g, 1.0) == 2.0

    def test_triangle(self):
        assert sdp_combined_bound(TRIANGLE, 2.25) == pytest.approx(3.75)
        assert 3.75 >= max_eigenvalue(TRIANGLE).value

    def test_k4(self):
        from quantum_maxcut import WeightedGraph

        k4 = WeightedGraph.from_edges(4, [(u, v) for u in range(4)
                                          for v in range(u + 1, 4)])
        assert sdp_combined_bound(k4, 4.0) == 6.0
        assert max_eigenvalue(k4).value == pytest.approx(6.0, abs=1e-8)

    def test_infeasible_value_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            sdp_combined_bound(TRIANGLE, 1.0)

    @pytest.mark.parametrize("j", [-60, -500, 0, 500])
    def test_feasibility_slack_scales_with_weights(self, j):
        """The slack below W/2 is relative: at weights 2^j, 0 is rejected,
        so no bound comes out negative, and W/2 itself is accepted."""
        g = WeightedGraph.from_edges(3, [(0, 1, 2.0 ** j), (1, 2, 2.0 ** j), (0, 2, 2.0 ** j)])
        with pytest.raises(ValueError, match="infeasible"):
            opt_upper_bound(g, sdp_value=0.0)
        assert opt_upper_bound(g, sdp_value=g.total_weight / 2).best == math.ldexp(1.5, j)


class TestBasisStateRatio:
    def test_unweighted_ratio_bound(self):
        # best basis state over exact optimum, vs 1/3 + (2/3)|E|/(2|E|+|V|)
        from quantum_maxcut import brute_force_maxcut
        from quantum_maxcut.generate import random_connected_graph

        rng = np.random.default_rng(2)
        for _ in range(30):
            g = random_connected_graph(int(rng.integers(3, 10)), 0.4, rng)
            opt = max_eigenvalue(g).value
            mc, _ = brute_force_maxcut(g)
            m, v = len(g.edges), g.n
            assert mc / opt >= 1 / 3 + (2 / 3) * (m / (2 * m + v)) - 1e-9
