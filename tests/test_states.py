import math

import numpy as np
import pytest

from quantum_maxcut import (
    WeightedGraph,
    basis_state,
    best_few_qubit_candidate,
    build_circuit,
    circuit_energy,
    cut_value,
    energy,
    local_search_product_state,
    match_forest_decompose,
    match_singlet_state,
    max_eigenvalue,
    optimize_angle,
    pair_product_statevector,
    parse_graph,
    product_statevector,
    rank3_round,
    sdp_objective,
    simulate_variational_state,
    solve_maxcut_sdp,
    tree_coloring_state,
)
from quantum_maxcut import sdp, states
from quantum_maxcut.generate import gnp_graph, random_connected_graph, regular_graph, star_graph
from quantum_maxcut.sdp import RoundingOutcome, mixing_ascent, stack_objective
from pair_products import pair_product_energy_loop, pair_product_formula, random_pair_product_state

EDGE = parse_graph("0 1 1.0")
TRIANGLE = parse_graph("0 1\n1 2\n2 0")


def singlet_state(g):
    return match_singlet_state(g, match_forest_decompose(g))


def tree_state(g):
    return tree_coloring_state(g, match_forest_decompose(g))


def best_candidate(g, sol, seed, attempts=200):
    """The best candidate over the stages `qmaxcut solve` runs before it."""
    picks = match_forest_decompose(g)
    return best_few_qubit_candidate(tree_coloring_state(g, picks),
                                    match_singlet_state(g, picks),
                                    rank3_round(g, sol, seed=seed, attempts=attempts))


def bloch_120():
    ang = 2 * np.pi / 3
    return np.array([[np.cos(k * ang), np.sin(k * ang), 0.0] for k in range(3)])


class TestProductEnergy:
    """The energy of a product state is `sdp_objective` of its Bloch vectors."""

    def test_antipodal_edge(self):
        assert sdp_objective(EDGE, [[0, 0, 1], [0, 0, -1]]) == 1.0

    def test_all_equal(self):
        assert sdp_objective(TRIANGLE, np.tile([1.0, 0, 0], (3, 1))) == 0.0

    def test_triangle_120(self):
        assert sdp_objective(TRIANGLE, bloch_120()) == pytest.approx(2.25, abs=1e-12)

    def test_matches_oracle_statevector(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = gnp_graph(int(rng.integers(2, 9)), 0.5, rng, weights="uniform")
            if len(g.w) == 0:
                continue
            bloch = rng.standard_normal((g.n, 3))
            bloch /= np.linalg.norm(bloch, axis=1, keepdims=True)
            assert sdp_objective(g, bloch) == pytest.approx(
                energy(g, product_statevector(bloch)), abs=1e-9)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            sdp_objective(EDGE, [[0, 0, 2], [0, 0, -1]])


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
        assert cut_value(g, bits) == pytest.approx(sdp_objective(g, bloch), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cut_value(EDGE, (0, 1, 0))

    def test_one_bit_string_only(self):
        with pytest.raises(ValueError):
            cut_value(EDGE, [(0, 1), (1, 1)])

    def test_integer_arrays_and_numpy_integers_taken(self):
        assert cut_value(EDGE, np.array([0, 1])) == 1.0
        assert cut_value(EDGE, (np.int64(1), np.uint8(1))) == 0.0
        assert basis_state(2, np.array([1, 0])).tolist() == [0, 0, 1, 0]
        with pytest.raises(ValueError, match="bit 0 must be the integer 0 or 1, got 1.0"):
            cut_value(EDGE, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="bit 0 must be the integer 0 or 1, got False"):
            basis_state(2, np.array([False, True]))

    @pytest.mark.parametrize("bit", [-1, 2, 0.5, 1.0, True])
    def test_bit_not_zero_or_one_rejected(self, bit):
        """Every bit-string entry names such a bit: numpy read -1 as the last
        index and truncated 0.5, so `cut_value` counted (0, 2) and (0, 0.5)
        as cut and `basis_state` built |01> from (0, -1) and |00> from (0, 0.7);
        an int() cast made `simulate_variational_state` start (0, 0.5) from
        |00> and gave `build_circuit` Paulis ('Y', 'Y') on (0, 0.7), and
        `circuit_energy` read (0, 2) as a cut edge."""
        message = f"bit 1 must be the integer 0 or 1, got {bit!r}"
        for entry in (lambda b: cut_value(EDGE, b), lambda b: basis_state(2, b),
                      lambda b: circuit_energy(EDGE, b, [0.0]),
                      lambda b: optimize_angle(EDGE, b),
                      lambda b: build_circuit(EDGE, b, 0.1),
                      lambda b: simulate_variational_state(EDGE, b, 0.0)):
            with pytest.raises(ValueError, match=message):
                entry((0, bit))


class TestTreeColoringState:
    def test_path(self):
        g = parse_graph("0 1\n1 2")
        _, val = tree_state(g)
        assert val == 2.0

    def test_triangle(self):
        _, val = tree_state(TRIANGLE)
        assert val >= 2.0

    def test_star(self):
        g = star_graph(5)
        _, val = tree_state(g)
        assert val == 4.0


class TestPairProductEnergy:
    """A pair-product state's energy is `stack_objective` of its spin rows plus
    (3/2) w(M): checked against the state vector under the oracle."""

    def test_singlet_edge(self):
        g = parse_graph("0 1 2.5")
        s, matched = np.zeros(2), np.array([True])
        assert pair_product_formula(g, s, matched) == 5.0
        assert energy(g, pair_product_statevector(g, s, matched)) == pytest.approx(5.0, abs=1e-12)

    def test_path_pair_plus_bit(self):
        g = parse_graph("0 1 1.0\n1 2 2.0")
        for spin in (1.0, -1.0):
            s, matched = np.array([0.0, 0.0, spin]), np.array([True, False])
            assert pair_product_formula(g, s, matched) == pytest.approx(1.0 * 2 + 2.0 * 0.5)
            assert energy(g, pair_product_statevector(g, s, matched)) == pytest.approx(
                1.0 * 2 + 2.0 * 0.5, abs=1e-12)

    def test_no_pairs_reduces_to_cut(self):
        rng = np.random.default_rng(2)
        g = gnp_graph(6, 0.5, rng, weights="uniform")
        bits = tuple(int(b) for b in rng.integers(0, 2, g.n))
        s, matched = 1.0 - 2.0 * np.array(bits), np.zeros(len(g.w), dtype=bool)
        assert pair_product_formula(g, s, matched) == pytest.approx(cut_value(g, bits))

    def test_overlapping_pairs_rejected(self):
        g = parse_graph("0 1\n1 2")
        with pytest.raises(ValueError, match="matched edges share vertex 1"):
            pair_product_statevector(g, np.zeros(3), np.array([True, True]))

    def test_incomplete_cover_rejected(self):
        with pytest.raises(ValueError, match=r"s must have shape \(3,\)"):
            pair_product_statevector(TRIANGLE, np.zeros(2), np.array([True, False, False]))

    @pytest.mark.parametrize("s, matched, message", [
        ([0.0, 0.0, 1.0], [True, False], "mask of shape"),
        ([0.0, 0.0, 1.0], [1, 0, 0], "boolean mask"),
        ([[0.0, 0.0, 1.0]], [True, False, False], "s must have shape"),
        ([0.0, 1.0, 1.0], [True, False, False], r"got s\[1\] = 1.0"),
        ([0.0, 0.0, 0.0], [True, False, False], r"got s\[2\] = 0.0"),
        ([0.0, 0.0, 0.5], [True, False, False], r"got s\[2\] = 0.5"),
        ([0.0, 0.0, np.nan], [True, False, False], r"got s\[2\] = nan"),
    ], ids=["mask-length", "mask-not-bool", "s-not-1d", "spin-in-singlet", "zero-off-matching",
            "half-spin", "nan-spin"])
    def test_statevector_rejects(self, s, matched, message):
        """Each check of the state vector's input raises ValueError: the
        shapes and the mask's dtype, then disjointness (above), then s."""
        with pytest.raises(ValueError, match=message):
            pair_product_statevector(TRIANGLE, np.array(s), np.array(matched))

    def test_matches_oracle(self):
        """Random spin rows and matchings: the oracle's energy of the state
        vector and the per-edge loop both equal the formula."""
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            g = gnp_graph(n, 0.5, rng, weights="uniform")
            if len(g.w) == 0:
                continue
            s, matched = random_pair_product_state(g, rng)
            value = pair_product_formula(g, s, matched)
            assert energy(g, pair_product_statevector(g, s, matched)) == pytest.approx(
                value, abs=1e-9)
            assert pair_product_energy_loop(g, s, matched) == pytest.approx(value, abs=1e-12)


class TestMatchSingletState:
    def test_single_edge(self):
        g = parse_graph("0 1 3.0")
        s, val = singlet_state(g)
        assert s.tolist() == [0.0, 0.0] and val == 6.0

    def test_two_disjoint_edges(self):
        g = WeightedGraph.from_edges(4, [(0, 1), (2, 3)])
        s, val = singlet_state(g)
        assert s.tolist() == [0.0] * 4 and val == 4.0

    def test_weighted_path(self):
        g = parse_graph("0 1 1\n1 2 2")
        s, val = singlet_state(g)
        assert s.tolist() == [1.0, 0.0, 0.0]  # M = {1 2}; vertex 0 keeps bit 0
        assert val == pytest.approx(2 * 2 + 0.5 * 1)  # = (3/2)m + W/2 here

    def test_lower_bound_on_random_graphs(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            g = gnp_graph(int(rng.integers(2, 14)), 0.4, rng, weights="exp")
            if len(g.w) == 0:
                continue
            picks = match_forest_decompose(g)
            _, val = match_singlet_state(g, picks)
            assert val >= 1.5 * g.w[picks == 2].sum() + 0.5 * g.total_weight - 1e-12


class TestLocalSearchProductState:
    def test_finds_triangle_optimum(self):
        _, val = local_search_product_state(TRIANGLE, starts=10, seed=0)
        assert val == pytest.approx(2.25, abs=1e-8)

    def test_single_edge(self):
        bloch, val = local_search_product_state(EDGE, starts=5, seed=0)
        assert val == pytest.approx(1.0, abs=1e-9)
        assert bloch[0] @ bloch[1] == pytest.approx(-1.0, abs=1e-7)

    def test_weight_scale_changes_no_state(self):
        """The kernel's stop rule is relative to the energy in its own units:
        scaled by 2^-40 (an energy below 1) the search returns the same Bloch
        vectors, and the energy scaled exactly."""
        g = gnp_graph(20, 0.3, np.random.default_rng(5), weights="exp")
        scaled = WeightedGraph(g.n, g.u, g.v, np.ldexp(g.w, -40))
        bloch, val = local_search_product_state(g)
        small, small_val = local_search_product_state(scaled)
        assert np.array_equal(small, bloch)
        assert small_val == math.ldexp(val, -40)

    def test_one_kernel_call_for_all_starts(self, monkeypatch):
        """The 7 starts run as 7 disjoint copies of the triangle, in one call."""
        calls = []

        def spy(g, vecs, tol):
            calls.append((g.n, list(zip(g.u.tolist(), g.v.tolist(), g.w.tolist())), vecs.shape))
            return mixing_ascent(g, vecs, tol)

        monkeypatch.setattr(states, "mixing_ascent", spy)
        local_search_product_state(TRIANGLE, starts=7, seed=0)
        rows = list(zip(TRIANGLE.u.tolist(), TRIANGLE.v.tolist(), TRIANGLE.w.tolist()))
        copies = [(u + 3 * s, v + 3 * s, w) for s in range(7) for u, v, w in rows]
        assert calls == [(21, copies, (21, 3))]

    def test_copies_take_the_steps_of_lone_starts(self, monkeypatch):
        """Each start, run as one copy of the graph among the others, comes out
        bit for bit as the kernel leaves it run alone for the sweeps the copies
        took (at most 15), and the search returns one of them."""
        runs = []

        def spy(g, vecs, tol):
            result = mixing_ascent(g, vecs, tol)
            runs.append((vecs, result[2]))
            return result

        monkeypatch.setattr(states, "mixing_ascent", spy)
        rng = np.random.default_rng(21)
        for k in range(40):
            monkeypatch.setattr(sdp, "MAX_SWEEPS", 15)
            n = int(rng.integers(3, 13))
            g = (gnp_graph(n, float(rng.uniform(0.2, 0.6)), rng, weights="exp") if k % 2
                 else regular_graph(2 * n, 3, rng))
            starts, seed = int(rng.integers(2, 9)), int(rng.integers(1000))
            bloch, _ = local_search_product_state(g, starts=starts, seed=seed)
            copies, sweeps = runs.pop()
            monkeypatch.setattr(sdp, "MAX_SWEEPS", sweeps)
            lone = np.random.default_rng(seed).standard_normal((starts, g.n, 3))
            lone /= np.linalg.norm(lone, axis=2, keepdims=True)
            for start, copy in zip(lone, copies.reshape(starts, g.n, 3)):
                mixing_ascent(g, start, -1)
                assert np.array_equal(copy, start)
            assert any(np.array_equal(bloch, start) for start in lone)

    @pytest.mark.parametrize("g", [
        pytest.param(WeightedGraph.from_edges(14, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3),
                                                   (6, 7), (6, 8), (6, 9), (6, 10), (11, 12)]),
                     id="path-triangle-star-edge-isolated"),
        pytest.param(gnp_graph(30, 0.08, np.random.default_rng(4), weights="exp"), id="sparse-gnp"),
    ])
    def test_copies_take_the_tiled_classes(self, g, monkeypatch):
        """The copies' color classes are the lone graph's, class c of copy s
        shifted by s n, and DSATUR on the copies computes exactly those, on a
        disconnected graph whose components differ in degree and tie in it."""
        copies = []

        def spy(g, vecs, tol):
            copies.append(g)
            return mixing_ascent(g, vecs, tol)

        monkeypatch.setattr(states, "mixing_ascent", spy)
        local_search_product_state(g, starts=4, seed=0)
        tiled = copies[0].color_classes
        fresh = WeightedGraph(copies[0].n, copies[0].u, copies[0].v, copies[0].w).color_classes
        assert len(tiled) == len(fresh) == len(g.color_classes)
        for c, lone in enumerate(g.color_classes):
            assert np.array_equal(tiled[c], np.concatenate([lone + s * g.n for s in range(4)]))
            assert np.array_equal(tiled[c], fresh[c])

    def test_first_of_starts_equal_to_rounding(self, monkeypatch):
        """35 of these 50 starts reach the best energy to 8.5e-13 relative, start
        0 among them, and start 37 is the largest by rounding noise: the search
        returns start 0, with its `stack_objective` energy."""
        runs = []

        def spy(g, vecs, tol):
            runs.append(vecs)
            return mixing_ascent(g, vecs, tol)

        monkeypatch.setattr(states, "mixing_ascent", spy)
        g = regular_graph(20, 3, np.random.default_rng(0))
        bloch, val = local_search_product_state(g, starts=50, seed=0)
        stack = runs[0].reshape(50, g.n, 3)
        values = stack_objective(g, stack.transpose(1, 0, 2))
        assert np.argmax(values) == 37
        assert np.array_equal(bloch, stack[0])
        assert val == values[0] >= values[37] * (1 - 1e-12)
        assert val == pytest.approx(sdp_objective(g, bloch), rel=1e-14)

    @pytest.mark.parametrize("starts", [0, -1])
    def test_starts_below_one_rejected(self, starts):
        with pytest.raises(ValueError, match="starts must be at least 1"):
            local_search_product_state(TRIANGLE, starts=starts)


class TestBestFewQubitCandidate:
    def test_rounding_noise_breaks_no_tie(self):
        """On a star the rank-3 state with every leaf opposite the center has
        the energy of the tree coloring's cut, W; a value ulps above it still
        leaves the first candidate, the tree coloring, the winner."""
        g = star_graph(9, weights="exp")
        picks = match_forest_decompose(g)
        bits, tree = tree_coloring_state(g, picks)
        assert tree == cut_value(g, bits)
        singlet = match_singlet_state(g, picks)
        for above in (tree, np.nextafter(tree, np.inf), tree * (1 + 9e-13)):
            noisy = RoundingOutcome(bits=None, bloch=None, value=float(above), failed=False)
            rep = best_few_qubit_candidate((bits, tree), singlet, noisy)
            assert rep.label == "tree-coloring" and rep.energy == tree
        clear = RoundingOutcome(bits=None, bloch=None, value=tree * (1 + 2e-12), failed=False)
        rep = best_few_qubit_candidate((bits, tree), singlet, clear)
        assert rep.label == "rank3-product"

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
        assert max_eigenvalue(g).value == pytest.approx(4.0, abs=1e-8)
        assert rep.energy >= 2.5

    def test_ratio_against_oracle(self):
        rng = np.random.default_rng(5)
        for k in range(25):
            g = random_connected_graph(int(rng.integers(3, 10)), 0.4, rng,
                                       weights="exp")
            sol = solve_maxcut_sdp(g)
            rep = best_candidate(g, sol, seed=k, attempts=100)
            opt = max_eigenvalue(g).value
            assert rep.energy <= opt + 1e-8
            assert rep.energy / opt >= 0.53
