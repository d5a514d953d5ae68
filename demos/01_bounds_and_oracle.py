"""Upper bounds vs the exact small-instance oracle.

Walks through a few named graphs, computing the exact maximum energy and
comparing it against the trivial, degree-sum, and SDP-combined upper bounds.
"""
import numpy as np

from quantum_maxcut import (
    WeightedGraph,
    max_eigenvalue,
    opt_upper_bound,
    parse_graph,
    solve_maxcut_sdp,
    star_bound,
)
from quantum_maxcut.generate import star_graph

print("== named instances ==")
instances = {
    "single edge": parse_graph("0 1 1.0"),
    "triangle": parse_graph("0 1\n1 2\n2 0"),
    "K4": WeightedGraph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
    "star K(1,4)": star_graph(5),
}
for name, g in instances.items():
    opt = max_eigenvalue(g).value
    sol = solve_maxcut_sdp(g)
    rep = opt_upper_bound(g, sdp_value=sol.dual_bound)
    print(f"{name:12s}  OPT={opt:7.4f}  trivial={rep.trivial:6.2f}  "
          f"degree-sum={rep.degree_sum:6.2f}  sdp-combined={rep.sdp_combined:6.2f}")

print()
print("== monogamy on stars: the bound max(w) + sum(w) ==")
rng = np.random.default_rng(0)
for k in (2, 4, 6):
    g = star_graph(k + 1, weights="exp", rng=rng)
    print(f"star with {k} leaves: OPT={max_eigenvalue(g).value:7.4f}  "
          f"bound={star_bound(g.w.tolist()):7.4f}")
g = star_graph(7)
print(f"uniform 6-leaf star: OPT={max_eigenvalue(g).value:.6f} equals "
      f"bound={star_bound([1.0] * 6):.6f}")
