"""Solving the rank-constrained SDP and rounding it two ways.

Shows the low-rank coordinate-ascent solver converging, with its sweep
count and certified duality gap, then compares hyperplane rounding (a
classical cut) against rank-3 projection rounding (a product of
single-qubit states).
"""
import numpy as np

from quantum_maxcut import (
    cut_value,
    gw_round,
    max_eigenvalue,
    opt_upper_bound,
    rank3_round,
    sdp_objective,
    solve_maxcut_sdp,
)
from quantum_maxcut.generate import random_connected_graph

rng = np.random.default_rng(11)
g = random_connected_graph(10, p=0.4, weights="uniform", rng=rng)
print(f"random graph: n={g.n}, m={len(g.edges)}, W={g.total_weight:.3f}")

sol = solve_maxcut_sdp(g, seed=0)
print(f"SDP objective  = {sol.objective:.6f}  (rank {sol.rank}, "
      f"{sol.sweeps} sweeps, residual {sol.residual:.2e})")
print(f"SDP dual bound = {sol.dual_bound:.6f}  (certified; gap {sol.gap:.2e})")

# the same solve at a loose tolerance stops early: the gap shows how far it is from done
early = solve_maxcut_sdp(g, seed=0, tol=1e-4)
print(f"after {early.sweeps} sweeps: objective {early.objective:.6f}, "
      f"gap {early.gap:.2e}")

opt = max_eigenvalue(g).value
upper = opt_upper_bound(g, sdp_value=sol.dual_bound).best
print(f"exact OPT      = {opt:.6f}")
print(f"upper bound    = {upper:.6f}")

cut = gw_round(g, sol, attempts=200, seed=1)
print(f"\nhyperplane rounding: cut value {cut.value:.6f} "
      f"({cut.value / sol.objective:.4f} of SDP objective, failed={cut.failed})")
assert abs(cut_value(g, cut.bits) - cut.value) < 1e-9

prod = rank3_round(g, sol, seed=1, attempts=200)
print(f"rank-3 rounding:     energy {prod.value:.6f} "
      f"({prod.value / sol.objective:.4f} of SDP objective, failed={prod.failed})")
assert abs(sdp_objective(g, prod.bloch) - prod.value) < 1e-9

print("\nboth roundings are certified against a direct re-evaluation of the")
print("returned assignment, so the reported values are trustworthy even when")
print("the randomized search is unlucky.")
