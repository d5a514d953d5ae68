import numpy as np
import pytest

from quantum_maxcut import (
    PairProductState,
    WeightedGraph,
    best_few_qubit_candidate,
    cut_value,
    energy,
    local_search_product_state,
    match_forest_decompose,
    match_singlet_state,
    max_eigenvalue,
    pair_product_energy,
    pair_product_statevector,
    parse_graph,
    product_energy,
    product_statevector,
    rank3_round,
    solve_maxcut_sdp,
    tree_coloring_state,
)
from quantum_maxcut import states
from quantum_maxcut.generate import gnp_graph, random_connected_graph, star_graph
from quantum_maxcut.sdp import mixing_ascent

EDGE = parse_graph("0 1 1.0")
TRIANGLE = parse_graph("0 1\n1 2\n2 0")


def singlet_state(g):
    return match_singlet_state(g, match_forest_decompose(g))


def best_candidate(g, sol, seed, attempts=200):
    """The best candidate over the stages `qmaxcut solve` runs before it."""
    decomp = match_forest_decompose(g)
    return best_few_qubit_candidate(g, decomp, match_singlet_state(g, decomp),
                                    rank3_round(g, sol, seed=seed, attempts=attempts))


def bloch_120():
    ang = 2 * np.pi / 3
    return np.array([[np.cos(k * ang), np.sin(k * ang), 0.0] for k in range(3)])


class TestProductEnergy:
    def test_antipodal_edge(self):
        assert product_energy(EDGE, [[0, 0, 1], [0, 0, -1]]) == 1.0

    def test_all_equal(self):
        assert product_energy(TRIANGLE, np.tile([1.0, 0, 0], (3, 1))) == 0.0

    def test_triangle_120(self):
        assert product_energy(TRIANGLE, bloch_120()) == pytest.approx(2.25, abs=1e-12)

    def test_matches_oracle_statevector(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = gnp_graph(int(rng.integers(2, 9)), 0.5, rng, weights="uniform")
            if not g.edges:
                continue
            bloch = rng.standard_normal((g.n, 3))
            bloch /= np.linalg.norm(bloch, axis=1, keepdims=True)
            assert product_energy(g, bloch) == pytest.approx(
                energy(g, product_statevector(bloch)), abs=1e-9)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            product_energy(EDGE, [[0, 0, 2], [0, 0, -1]])


class TestCutValue:
    def test_cases(self):
        assert cut_value(EDGE, (0, 1)) == 1.0
        assert cut_value(TRIANGLE, (0, 1, 0)) == 2.0
        assert cut_value(TRIANGLE, (0, 0, 0)) == 0.0

    def test_equals_product_energy_with_z_vectors(self):
        rng = np.random.default_rng(1)
        g = gnp_graph(7, 0.5, rng, weights="exp")
        bits = tuple(int(b) for b in rng.integers(0, 2, g.n))
        bloch = np.array([[0, 0, 1.0] if b == 0 else [0, 0, -1.0] for b in bits])
        assert cut_value(g, bits) == pytest.approx(product_energy(g, bloch), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cut_value(EDGE, (0, 1, 0))


class TestTreeColoringState:
    def test_path(self):
        g = parse_graph("0 1\n1 2")
        _, val = tree_coloring_state(g)
        assert val == 2.0

    def test_triangle(self):
        _, val = tree_coloring_state(TRIANGLE)
        assert val >= 2.0

    def test_star(self):
        g = star_graph(5)
        _, val = tree_coloring_state(g)
        assert val == 4.0


class TestPairProductEnergy:
    def test_singlet_edge(self):
        g = parse_graph("0 1 2.5")
        st = PairProductState(pairs=((0, 1),), bits={})
        assert pair_product_energy(g, st) == 5.0

    def test_path_pair_plus_bit(self):
        g = parse_graph("0 1 1.0\n1 2 2.0")
        for b in (0, 1):
            st = PairProductState(pairs=((0, 1),), bits={2: b})
            assert pair_product_energy(g, st) == pytest.approx(1.0 * 2 + 2.0 * 0.5)

    def test_no_pairs_reduces_to_cut(self):
        rng = np.random.default_rng(2)
        g = gnp_graph(6, 0.5, rng, weights="uniform")
        bits = tuple(int(b) for b in rng.integers(0, 2, g.n))
        st = PairProductState(pairs=(), bits=dict(enumerate(bits)))
        assert pair_product_energy(g, st) == pytest.approx(cut_value(g, bits))

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            PairProductState(pairs=((0, 1), (1, 2)), bits={})

    def test_incomplete_cover_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            pair_product_energy(TRIANGLE, PairProductState(pairs=((0, 1),), bits={}))

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            g = gnp_graph(n, 0.5, rng, weights="uniform")
            if not g.edges:
                continue
            perm = list(rng.permutation(n))
            npairs = int(rng.integers(0, n // 2 + 1))
            pairs = tuple((int(perm[2 * i]), int(perm[2 * i + 1]))
                          for i in range(npairs))
            bits = {int(v): int(rng.integers(0, 2)) for v in perm[2 * npairs:]}
            st = PairProductState(pairs=pairs, bits=bits)
            assert pair_product_energy(g, st) == pytest.approx(
                energy(g, pair_product_statevector(g, st)), abs=1e-9)


class TestMatchSingletState:
    def test_single_edge(self):
        g = parse_graph("0 1 3.0")
        st, val = singlet_state(g)
        assert st.pairs == ((0, 1),) and val == 6.0

    def test_two_disjoint_edges(self):
        g = WeightedGraph.from_edges(4, [(0, 1), (2, 3)])
        st, val = singlet_state(g)
        assert len(st.pairs) == 2 and val == 4.0

    def test_weighted_path(self):
        g = parse_graph("0 1 1\n1 2 2")
        st, val = singlet_state(g)
        assert st.pairs == ((1, 2),)
        assert val == pytest.approx(2 * 2 + 0.5 * 1)  # = (3/2)m + W/2 here

    def test_lower_bound_on_random_graphs(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            g = gnp_graph(int(rng.integers(2, 14)), 0.4, rng, weights="exp")
            if not g.edges:
                continue
            d = match_forest_decompose(g)
            _, val = match_singlet_state(g, d)
            assert val >= 1.5 * d.matching_weight + 0.5 * g.total_weight - 1e-12


class TestLocalSearchProductState:
    def test_finds_triangle_optimum(self):
        _, val = local_search_product_state(TRIANGLE, starts=10, seed=0)
        assert val == pytest.approx(2.25, abs=1e-8)

    def test_single_edge(self):
        bloch, val = local_search_product_state(EDGE, starts=5, seed=0)
        assert val == pytest.approx(1.0, abs=1e-9)
        assert bloch[0] @ bloch[1] == pytest.approx(-1.0, abs=1e-7)

    def test_one_kernel_call_for_all_starts(self, monkeypatch):
        calls = []

        def spy(g, vecs, tol, max_sweeps):
            calls.append(vecs.shape)
            return mixing_ascent(g, vecs, tol, max_sweeps)

        monkeypatch.setattr(states, "mixing_ascent", spy)
        local_search_product_state(TRIANGLE, starts=7, seed=0)
        assert calls == [(3, 7, 3)]


class TestBestFewQubitCandidate:
    def test_single_edge_singlet_wins(self):
        sol = solve_maxcut_sdp(EDGE)
        rep = best_candidate(EDGE, sol, seed=0)
        assert rep.label == "match-singlet"
        assert rep.energy == pytest.approx(2.0)

    def test_triangle(self):
        sol = solve_maxcut_sdp(TRIANGLE)
        rep = best_candidate(TRIANGLE, sol, seed=0)
        assert rep.energy >= 2.25 - 0.1
        assert rep.energy / 3.0 >= 0.53  # oracle OPT(C3) = 3

    def test_small_star(self):
        g = star_graph(4)  # K_{1,3}
        sol = solve_maxcut_sdp(g)
        rep = best_candidate(g, sol, seed=0)
        # singlet on one leaf edge plus two cross edges: 2 + 2 * 0.5 = 3
        assert rep.candidates["match-singlet"] == pytest.approx(3.0)
        assert max_eigenvalue(g) == pytest.approx(4.0, abs=1e-8)
        assert rep.energy >= 2.5

    def test_ratio_against_oracle(self):
        rng = np.random.default_rng(5)
        for k in range(25):
            g = random_connected_graph(int(rng.integers(3, 10)), 0.4, rng,
                                       weights="exp")
            sol = solve_maxcut_sdp(g)
            rep = best_candidate(g, sol, seed=k, attempts=100)
            opt = max_eigenvalue(g)
            assert rep.energy <= opt + 1e-8
            assert rep.energy / opt >= 0.53
