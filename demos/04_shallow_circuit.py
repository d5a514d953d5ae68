"""Shallow entangling circuit on top of a rounded cut.

Optimizes the single rotation angle in closed form for regular graphs,
runs the full SDP -> cut -> circuit pipeline, and confirms the closed-form
energy against the state-vector oracle on a small instance.
"""
import numpy as np

from quantum_maxcut import (
    approximation_guarantee,
    best_angle,
    circuit_energy,
    gw_round,
    max_eigenvalue,
    regular_sat_envelope,
    shallow_circuit_pipeline,
    simulate_variational_state,
    solve_maxcut_sdp,
)
from quantum_maxcut.generate import regular_graph

print("== per-degree guarantees of the one-parameter circuit ==")
for d in range(2, 7):
    theta, val = best_angle(d)
    print(f"d={d}: theta*={theta:.5f}  F(theta*,d)={val:.6f}  "
          f"guarantee={approximation_guarantee(d):.6f}")
print("(the guarantee exceeds the hyperplane-rounding constant for d=3,4)")

rng = np.random.default_rng(2)
g = regular_graph(10, 3, rng=rng)
sol = solve_maxcut_sdp(g, seed=0)
res = shallow_circuit_pipeline(g, sol, gw_round(g, sol, seed=0))
opt = max_eigenvalue(g).value
print(f"\n3-regular pipeline on n=10: circuit energy {res.energy:.4f}, "
      f"OPT {opt:.4f}, ratio {res.energy / opt:.4f} "
      f"(guaranteed={res.guaranteed})")

psi = simulate_variational_state(g, res.circuit.bits, res.circuit.theta)
exact = float(np.real(np.vdot(psi, psi)))  # norm check
assert abs(exact - 1.0) < 1e-9
from quantum_maxcut import energy as state_energy

sim = state_energy(g, psi)
closed = circuit_energy(g, res.circuit.bits, res.circuit.theta)
print(f"state-vector energy {sim:.10f} vs closed form {closed:.10f} "
      f"(diff {abs(sim - closed):.2e})")

theta_grid = np.linspace(0.0, np.pi / 4, 200)
vals = [regular_sat_envelope(t, 3) for t in theta_grid]
tstar = theta_grid[int(np.argmax(vals))]
print(f"grid argmax near closed-form optimum: {tstar:.4f} vs {best_angle(3)[0]:.4f}")
