"""Few-qubit ansatz families: tree colorings, singlet matchings, products.

Builds the matching + forest decomposition of a graph, evaluates the three
cheap candidate states, and checks the winner's ratio against the exact
maximum energy.
"""
from quantum_maxcut import (
    best_few_qubit_candidate,
    match_forest_decompose,
    match_singlet_state,
    max_eigenvalue,
    parse_graph,
    rank3_round,
    solve_maxcut_sdp,
    tree_coloring_state,
)
from quantum_maxcut.generate import random_connected_graph
import numpy as np

g = parse_graph("""
0 1 2.0
1 2 1.0
2 3 1.0
3 0 1.0
0 2 0.5
""")
dec = match_forest_decompose(g)
print(f"matching M = {dec.matching}")
print(f"forest  F  = {dec.forest}")
print(f"identity: sum of per-vertex maxima = m + f = "
      f"{dec.matching_weight + dec.forest_weight:.3f}")

state, state_energy = match_singlet_state(g, dec)
print(f"\nmatch-singlet pairs {state.pairs}, energy {state_energy:.4f} "
      f"(floor 1.5m + 0.5W = {1.5 * dec.matching_weight + 0.5 * g.total_weight:.4f})")

bits, cut = tree_coloring_state(g, dec)
print(f"tree-coloring bits {bits} cuts every edge of F: value {cut:.4f}")

rng = np.random.default_rng(5)
g2 = random_connected_graph(9, p=0.45, weights="exp", rng=rng)
sol = solve_maxcut_sdp(g2, seed=0)
dec2 = match_forest_decompose(g2)
cand = best_few_qubit_candidate(tree_coloring_state(g2, dec2), match_singlet_state(g2, dec2),
                                rank3_round(g2, sol, seed=3))
opt = max_eigenvalue(g2).value
print(f"\nrandom 9-vertex graph: best candidate is '{cand.label}' with energy "
      f"{cand.energy:.4f}")
print(f"ratio vs exact OPT = {cand.energy / opt:.4f}")
