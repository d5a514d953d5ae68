"""Few-qubit ansatz families: tree colorings, singlet matchings, products.

Picks each vertex's heaviest edge (the forest F and the matching M of edges
both ends pick), evaluates the three
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
picks = match_forest_decompose(g)  # per edge: how many of its ends pick it
print(f"picks      = {picks}")
print(f"matching M = {[e for e, k in zip(g.edges, picks) if k == 2]}")
print(f"forest  F  = {[e for e, k in zip(g.edges, picks) if k > 0]}")
matching_weight = g.w[picks == 2].sum()
print(f"identity: sum of per-vertex maxima = m + f = w . picks = {g.w @ picks:.3f}")

state, state_energy = match_singlet_state(g, picks)
print(f"\nmatch-singlet pairs {state.pairs}, energy {state_energy:.4f} "
      f"(floor 1.5m + 0.5W = {1.5 * matching_weight + 0.5 * g.total_weight:.4f})")

bits, cut = tree_coloring_state(g, picks)
print(f"tree-coloring bits {bits} cuts every edge of F: value {cut:.4f}")

rng = np.random.default_rng(5)
g2 = random_connected_graph(9, p=0.45, weights="exp", rng=rng)
sol = solve_maxcut_sdp(g2, seed=0)
picks2 = match_forest_decompose(g2)
cand = best_few_qubit_candidate(tree_coloring_state(g2, picks2), match_singlet_state(g2, picks2),
                                rank3_round(g2, sol, seed=3))
opt = max_eigenvalue(g2).value
print(f"\nrandom 9-vertex graph: best candidate is '{cand.label}' with energy "
      f"{cand.energy:.4f}")
print(f"ratio vs exact OPT = {cand.energy / opt:.4f}")
