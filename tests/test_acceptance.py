"""Acceptance suite: one test per headline guarantee, at its stated tolerance.

Each test prints a PASS line on success so the suite doubles as a checklist
(`pytest -s tests/test_acceptance.py`).
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from quantum_maxcut import (
    approximation_guarantee,
    best_few_qubit_candidate,
    brute_force_maxcut,
    circuit_energy,
    energy,
    gw_round,
    local_search_product_state,
    match_forest_decompose,
    match_singlet_state,
    max_eigenvalue,
    pair_product_statevector,
    parse_graph,
    rank3_round,
    shallow_circuit_pipeline,
    simulate_variational_state,
    solve_maxcut_sdp,
    tree_coloring_state,
    two_color_forest,
)
from quantum_maxcut import sdp
from quantum_maxcut.cli import prod2_minimum
from quantum_maxcut.generate import (
    gnp_graph,
    random_connected_graph,
    regular_graph,
    star_graph,
)
from pair_products import pair_product_energy_loop, pair_product_formula, random_pair_product_state


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_01_closed_form_energy_matches_state_vector():
    """100 random graphs (n <= 10) x 20 random (z, theta): agree within 1e-9."""
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 11))
        g = gnp_graph(n, float(rng.uniform(0.2, 0.8)), rng, weights="uniform")
        if len(g.w) == 0:
            continue
        checked += 1
        for _ in range(20):
            z = tuple(int(b) for b in rng.integers(0, 2, n))
            theta = float(rng.uniform(0, math.pi))
            closed = circuit_energy(g, z, theta)
            simulated = energy(g, simulate_variational_state(g, z, theta))
            assert abs(closed - simulated) <= 1e-9
    report("1 closed-form circuit energy vs state-vector oracle")


def test_02_guarantee_values():
    """G(3) in [1.046, 1.048] and G(4) in [1.000, 1.002]."""
    g3 = approximation_guarantee(3)
    g4 = approximation_guarantee(4)
    assert 1.046 <= g3 <= 1.048
    assert 1.000 <= g4 <= 1.002
    report(f"2 guarantee values G(3)={g3:.6f}, G(4)={g4:.6f}")


def test_03_three_regular_circuit_beats_product_states():
    """50 random 3-regular graphs (n = 12, 14, 16): ratio >= 1.047 - 1e-6 when
    the rounding met its bound, and the circuit beats local-search products."""
    rng = np.random.default_rng(103)
    target = approximation_guarantee(3) - 1e-6
    assert target >= 1.047 - 1e-6
    for k in range(50):
        n = (12, 14, 16)[k % 3]
        g = regular_graph(n, 3, rng)
        sol = solve_maxcut_sdp(g, seed=k)
        gw = gw_round(g, sol, seed=k)
        res = shallow_circuit_pipeline(g, sol, gw)
        if not gw.failed:
            assert res.ratio >= 1.047 - 1e-6
        _, prod_val = local_search_product_state(g, starts=50, seed=k)
        assert res.energy > prod_val
    report("3 3-regular circuit ratio and product-state dominance")


def test_04_weighted_candidate_ratios():
    """200 random weighted graphs (n <= 12, exp weights): best candidate / OPT
    >= 0.53; including product local search >= 0.55."""
    rng = np.random.default_rng(104)
    for k in range(200):
        n = int(rng.integers(3, 13))
        g = random_connected_graph(n, float(rng.uniform(0.25, 0.6)), rng,
                                   weights="exp")
        opt = max_eigenvalue(g).value
        sol = solve_maxcut_sdp(g)
        picks = match_forest_decompose(g)
        rank3 = rank3_round(g, sol, seed=k, attempts=100)
        rep = best_few_qubit_candidate(tree_coloring_state(g, picks),
                                       match_singlet_state(g, picks), rank3)
        assert rep.energy / opt >= 0.53
        _, prod_val = local_search_product_state(g, starts=50, seed=k)
        assert max(rep.energy, prod_val) / opt >= 0.55
    report("4 weighted-graph candidate ratios 0.53 / 0.55")


def test_05_basis_state_ratio_bound():
    """200 random connected unweighted graphs (n <= 12): best cut / OPT
    >= 1/3 + (2/3)|E|/(2|E|+|V|) - 1e-9."""
    rng = np.random.default_rng(105)
    for _ in range(200):
        n = int(rng.integers(3, 13))
        g = random_connected_graph(n, float(rng.uniform(0.25, 0.7)), rng)
        opt = max_eigenvalue(g).value
        mc, _ = brute_force_maxcut(g)
        m, v = len(g.w), g.n
        assert mc / opt >= 1 / 3 + (2 / 3) * (m / (2 * m + v)) - 1e-9
    report("5 basis-state ratio bound on connected unweighted graphs")


def test_06_star_bound_and_uniform_equality():
    """Stars with k <= 8 leaves, 50 weight draws: ||H|| <= max w + sum w + 1e-9;
    uniform weights give equality within 1e-6."""
    rng = np.random.default_rng(106)
    for _ in range(50):
        k = int(rng.integers(1, 9))
        g = star_graph(k + 1, weights="exp", rng=rng)
        ws = g.w.tolist()
        assert max_eigenvalue(g).value <= max(ws) + sum(ws) + 1e-9
    for k in range(1, 9):
        g = star_graph(k + 1)
        assert abs(max_eigenvalue(g).value - (1 + k)) <= 1e-6
    report("6 star monogamy bound, uniform-weight equality")


def test_07_match_forest_identity():
    """500 random weighted graphs: matching + forest structure and the exact
    per-vertex-maximum identity to 1e-12."""
    rng = np.random.default_rng(107)
    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 21))
        g = gnp_graph(n, float(rng.uniform(0.1, 0.9)), rng, weights="exp")
        if len(g.w) == 0:
            continue
        checked += 1
        picks = match_forest_decompose(g)
        matched = picks == 2
        covered = set()
        for u, v in zip(g.u[matched].tolist(), g.v[matched].tolist()):
            assert u not in covered and v not in covered
            covered.update((u, v))
        two_color_forest(g, picks > 0)  # raises if the forest contains a cycle
        mx = [0.0] * g.n
        for u, v, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist()):
            mx[u] = max(mx[u], w)
            mx[v] = max(mx[v], w)
        assert abs(sum(mx) - g.w @ picks) <= 1e-12
    report("7 matching/forest decomposition identity")


def test_08_sdp_solver_reference_values():
    """Single edge 1.0 +- 1e-8; triangle 2.25 +- 1e-6; K4 4.0 +- 1e-6;
    objective never exceeds 2W."""
    from quantum_maxcut import WeightedGraph

    edge = parse_graph("0 1 1.0")
    tri = parse_graph("0 1\n1 2\n2 0")
    k4 = WeightedGraph.from_edges(4, [(u, v) for u in range(4)
                                      for v in range(u + 1, 4)])
    assert abs(solve_maxcut_sdp(edge).objective - 1.0) <= 1e-8
    assert abs(solve_maxcut_sdp(tri).objective - 2.25) <= 1e-6
    assert abs(solve_maxcut_sdp(k4).objective - 4.0) <= 1e-6
    rng = np.random.default_rng(108)
    for _ in range(20):
        g = gnp_graph(int(rng.integers(2, 12)), 0.5, rng, weights="exp")
        if len(g.w) == 0:
            continue
        assert solve_maxcut_sdp(g).objective <= 2 * g.total_weight + 1e-9
    report("8 relaxation solver reference values")


def test_09_hyperplane_rounding_success_rate():
    """20 random graphs (n = 20): best-of-200 hyperplanes meets the 0.8785
    bound in at least 99 of 100 seeded runs per graph."""
    rng = np.random.default_rng(109)
    for gi in range(20):
        g = gnp_graph(20, float(rng.uniform(0.3, 0.6)), rng, weights="uniform")
        sol = solve_maxcut_sdp(g)
        failures = sum(gw_round(g, sol, seed=s, attempts=200).failed
                       for s in range(100))
        assert failures <= 1
    report("9 hyperplane rounding success rate")


def test_10_pair_product_closed_form():
    """100 random pair-product states (spin rows and a matching of g's edges)
    on graphs n <= 12: the closed form matches the oracle within 1e-9 and the
    per-edge loop within 1e-12; the matching/singlet value meets (3/2)m + W/2."""
    rng = np.random.default_rng(110)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 13))
        g = gnp_graph(n, 0.5, rng, weights="uniform")
        if len(g.w) == 0:
            continue
        checked += 1
        s, matched = random_pair_product_state(g, rng)
        closed = pair_product_formula(g, s, matched)
        simulated = energy(g, pair_product_statevector(g, s, matched))
        assert abs(closed - simulated) <= 1e-9
        assert abs(closed - pair_product_energy_loop(g, s, matched)) <= 1e-12
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 15))
        g = gnp_graph(n, 0.4, rng, weights="exp")
        if len(g.w) == 0:
            continue
        checked += 1
        picks = match_forest_decompose(g)
        _, val = match_singlet_state(g, picks)
        assert val >= 1.5 * g.w[picks == 2].sum() + 0.5 * g.total_weight - 1e-12
    report("10 pair-product closed form and matching/singlet floor")


def grid_minimum(weakened):
    """The prod2 min-max on a 1e-3 grid over 0 <= x <= y <= 1, in floats: a
    grid minimum is at or above the true one, so it only bounds it."""
    x, y = np.linspace(0, 1, 1001)[:, None], np.linspace(0, 1, 1001)
    ratio, singlet = (sdp.RANK3_RATIO, 0.98) if weakened else (1.0, 1.0)
    top = np.maximum(np.maximum(2 * y, 3 * x + singlet), (ratio / 3) * (4 + x + y))
    return float(np.min((top / (2 + x + y))[x <= y]))


def test_11_minmax_grid_reproduction():
    """Exact minima of the candidate-ratio min-max: 11/20 >= 0.55 where the
    three exact terms meet, 131689/248000 >= 0.53 weakened; no point of a
    1e-3 grid reads below either."""
    exact, (x, y) = prod2_minimum(weakened=False)
    weak, point = prod2_minimum(weakened=True)
    assert (exact, (x, y)) == (Fraction(11, 20), (Fraction(3, 13), Fraction(11, 13)))
    assert (weak, point) == (Fraction(131689, 248000),
                             (Fraction(33811, 165250), Fraction(131689, 165250)))
    assert 2 * y == 3 * x + 1 == (4 + x + y) / 3 == Fraction(22, 13)
    assert exact >= Fraction("0.55")  # the double 0.55 is above 11/20
    assert weak >= Fraction("0.53")
    assert grid_minimum(weakened=False) >= exact
    assert grid_minimum(weakened=True) >= weak
    report(f"11 min-max exact minima {exact} / {weak}")
