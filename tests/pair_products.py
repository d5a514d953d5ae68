"""Random pair-product states, the closed-form energy and a per-edge loop
reference, for tests of `match_singlet_state` and `pair_product_statevector`.

A pair-product state is two arrays: spin rows s (+1 for bit 0, -1 for bit 1,
0 on a vertex in a singlet) and a boolean mask over g's edge arrays, the
matching M of the singlets."""
import numpy as np

from quantum_maxcut.sdp import stack_objective


def random_pair_product_state(g, rng):
    """A greedy matching over a random prefix of a random edge order, so of
    any size from empty to maximal, and random spins off it."""
    matched = np.zeros(len(g.w), dtype=bool)
    covered = np.zeros(g.n, dtype=bool)
    order = rng.permutation(len(g.w))
    for e in order[:rng.integers(0, len(order) + 1)]:
        if not (covered[g.u[e]] or covered[g.v[e]]):
            matched[e] = covered[g.u[e]] = covered[g.v[e]] = True
    return np.where(covered, 0.0, rng.choice([-1.0, 1.0], g.n)), matched


def pair_product_formula(g, s, matched):
    """E = W/2 - (1/4) sum_i s_i (A s)_i + (3/2) w(M)."""
    return float(stack_objective(g, s[:, None, None])[0]) + 1.5 * float(g.w[matched].sum())


def pair_product_energy_loop(g, s, matched):
    """Per edge of weight w: 2w on M, w/2 touching M, w between unlike spins."""
    total = 0.0
    for u, v, w, pair in zip(g.u.tolist(), g.v.tolist(), g.w.tolist(), matched):
        if pair:
            total += 2.0 * w
        elif s[u] == 0 or s[v] == 0:
            total += 0.5 * w
        elif s[u] != s[v]:
            total += w
    return total


def bits_of(s):
    """The bit of each vertex outside the singlets, by vertex."""
    return {i: int(x < 0) for i, x in enumerate(s.tolist()) if x}
