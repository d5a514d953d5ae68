"""Shallow variational circuit on a base cut, with closed-form energies.

The circuit applies the commuting gates exp(i theta P(j)P(k)) over all edges,
with P(j) = X when the base bit is 1 and Y when it is 0. The energy of the
resulting state decomposes edge by edge into closed forms that depend only on
whether the base cut satisfies the edge, the endpoint degrees, and the number
of triangles containing the edge. Summed over the edges, the energy is a
polynomial in cos 2theta, sin 2theta and cos 4theta whose coefficients are
edge sums that do not depend on the angle: energy_curve takes those sums
once per (graph, cut), and every angle is evaluated from them. Both angle
searches (optimize_angle, best_angle) are a few nested-grid evaluations.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .graphs import WeightedGraph, proper_edge_coloring
from .sdp import GW_RATIO, GramSolution, RoundingOutcome

THETA_GRID = 400   # intervals of the first grid on [0, pi/4]
REFINE_GRID = 20   # intervals of each refining grid, which spans two of the last one's


def _check_edge_inputs(d_i, d_j, triangles):
    """Require 0 <= triangles <= min(d_i, d_j) - 1, which also makes both
    degrees at least 1; the error names the first offending edge (its index
    among the broadcast inputs)."""
    bad = (triangles < 0) | (triangles >= np.minimum(d_i, d_j))
    if np.any(bad):
        d_i, d_j, triangles, bad = (a.ravel() for a in
                                    np.broadcast_arrays(d_i, d_j, triangles, bad))
        k = int(np.argmax(bad))
        raise ValueError(f"edge {k} has endpoint degrees ({d_i[k]}, {d_j[k]}) and "
                         f"{triangles[k]} triangles; degrees must be at least 1 and "
                         "the triangle count at most the smaller degree - 1")


def _bins(x):
    """Distinct values of the non-negative integers x, ascending, and the
    slot of each entry of x among them."""
    present = np.bincount(x) > 0
    return np.flatnonzero(present), np.cumsum(present)[x] - 1


def edge_energy_sat(theta, d_i, d_j, triangles):
    """Twice the per-edge expectation on a cut edge of the base string. The
    arguments broadcast, so one call evaluates many edges at many angles."""
    _check_edge_inputs(d_i, d_j, triangles)
    c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
    return (1.0
            + s2 * c2 ** (d_i - 1)
            + s2 * c2 ** (d_j - 1)
            + 0.5 * (1.0 + np.cos(4 * theta) ** triangles)
            * c2 ** (d_i + d_j - 2 - 2 * triangles))


def edge_energy_unsat(theta, d_i, d_j, triangles):
    """Twice the per-edge expectation on an uncut edge of the base string;
    broadcasts like edge_energy_sat."""
    _check_edge_inputs(d_i, d_j, triangles)
    c2 = np.cos(2 * theta)
    return 1.0 - c2 ** (d_i + d_j - 2 - 2 * triangles)


def energy_curve(g: WeightedGraph, bits):
    """Total energy of the variational state on the base cut `bits` as a
    function of the angle; the returned function maps an angle to a float
    and an array of angles to the array of energies.

    Summing edge_energy_sat over the cut edges and edge_energy_unsat over the
    rest, with c = cos 2t, s = sin 2t and q = cos 4t, gives

        E(t) = W/2 + (s/2) sum_k alpha_k c^k + sum_k b_k c^k
               + sum_{j,k} B_jk q^j c^k,

    where W is the total weight, alpha_k sums the cut weights over endpoints
    with degree - 1 = k, b_k sums w/4 over cut and -w/2 over uncut edges with
    d_u + d_v - 2 - 2T = k (T the edge's triangle count), and B_jk sums w/4
    over cut edges with T = j and that exponent. The sums are taken here,
    once; an evaluation raises c to the K distinct exponents k and q to the
    J distinct triangle counts j, not a pass over the edges. Every evaluation
    on a d-regular graph checks the energy against the triangle-free floor
    W_cut * envelope / 2, up to rounding of 1e-12 W: a relative slack, so
    scaling every weight by a power of two never changes whether it trips.
    """
    bits = np.asarray(bits)
    if bits.shape != (g.n,):
        raise ValueError("bit string length must equal vertex count")
    deg = np.asarray(g.degree)
    du, dv, tri, w = deg[g.u], deg[g.v], g.triangles, g.w
    _check_edge_inputs(du, dv, tri)
    cut = bits[g.u] != bits[g.v]
    w_sat = np.where(cut, w, 0.0)
    m = len(w)
    c_powers, slot = _bins(np.concatenate([du - 1, dv - 1, du + dv - 2 - 2 * tri]))
    q_powers, q_slot = _bins(tri)
    k, j, c_slot = len(c_powers), len(q_powers), slot[2 * m:]
    alpha = np.bincount(slot[:2 * m], np.tile(w_sat, 2), minlength=k)
    b = np.bincount(c_slot, np.where(cut, 0.25 * w, -0.5 * w), minlength=k)
    tri_b = np.bincount(q_slot * k + c_slot, 0.25 * w_sat, minlength=j * k).reshape(j, k)
    half_total, w_cut, d = 0.5 * float(w.sum()), float(w_sat.sum()), g.is_regular()
    slack = 2e-12 * half_total

    def energy(theta):
        t = np.asarray(theta, dtype=float)
        c_pow = np.cos(2 * t)[..., None] ** c_powers
        q = np.cos(4 * t)[..., None]  # < 0 past pi/8: numpy's pow of a negative base is ~7x slower
        q_pow = np.abs(q) ** q_powers * np.where(q_powers % 2, np.sign(q), 1.0)
        total = (half_total + 0.5 * np.sin(2 * t) * (c_pow @ alpha) + c_pow @ b
                 + np.sum((q_pow @ tri_b) * c_pow, axis=-1))
        if d is not None and d >= 1:
            floor = 0.5 * regular_sat_envelope(t, d) * w_cut
            if np.any(total < floor - slack):
                raise AssertionError("regular-graph energy floor violated")
        return float(total) if total.ndim == 0 else total

    return energy


def circuit_energy(g: WeightedGraph, bits, theta):
    """Total energy of the variational state at `theta` (an angle or an array
    of angles): one evaluation of energy_curve(g, bits)."""
    return energy_curve(g, bits)(theta)


def regular_sat_envelope(theta, d: int):
    """Lower envelope of the cut-edge energy in a d-regular graph
    (the triangle-free case): 1 + 2 cos^{d-1}(2t) sin(2t) + cos^{2d-2}(2t)."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
    return 1.0 + 2.0 * c2 ** (d - 1) * s2 + c2 ** (2 * d - 2)


def _maximize(f) -> tuple[float, float]:
    """First of equal maxima of the vectorized f on [0, pi/4], and its value:
    the best point of a THETA_GRID-interval grid, then of REFINE_GRID-interval
    grids on the two intervals around the best point so far, until those span
    at most 1e-10. Each bracket is a tenth of the last: at most nine calls of f."""
    step = (math.pi / 4) / THETA_GRID
    grid = np.arange(THETA_GRID + 1) * step
    while True:
        vals = f(grid)
        i = int(np.argmax(vals))  # the first of equal maxima
        lo, hi = max(0.0, grid[i] - step), min(math.pi / 4, grid[i] + step)
        if hi - lo <= 1e-10:
            return float(grid[i]), float(vals[i])
        step = (hi - lo) / REFINE_GRID
        grid = lo + np.arange(REFINE_GRID + 1) * step


@functools.cache
def best_angle(d: int) -> tuple[float, float]:
    """Maximizer of the d-regular cut-edge envelope on [0, pi/4] and its value,
    by the search of optimize_angle; computed once per degree."""
    return _maximize(lambda t: regular_sat_envelope(t, d))


def approximation_guarantee(d: int) -> float:
    """Worst-case circuit energy over the relaxation objective for d-regular
    graphs: 0.8785 times half the envelope at its best angle."""
    _, fval = best_angle(d)
    return GW_RATIO * fval / 2.0


@dataclass
class VariationalCircuit:
    """Layered schedule of commuting two-qubit gates at a common angle.

    Layers come from a proper edge coloring, so edges within a layer are
    vertex-disjoint and the layer count is at most max degree + 1.
    """

    bits: tuple[int, ...]
    theta: float
    pauli: tuple[str, ...]  # per-vertex, "X" iff the base bit is 1
    layers: tuple[tuple[tuple[int, int], ...], ...]


def build_circuit(g: WeightedGraph, bits, theta: float) -> VariationalCircuit:
    """Arrange the gate per edge into vertex-disjoint layers by edge color."""
    if len(bits) != g.n:
        raise ValueError("bit string length must equal vertex count")
    bits = tuple(int(b) for b in bits)
    coloring = proper_edge_coloring(g)
    ncolors = max(coloring.values()) + 1 if coloring else 0
    layers = [[] for _ in range(ncolors)]
    for edge, c in coloring.items():
        layers[c].append(edge)
    layers = tuple(tuple(sorted(layer)) for layer in layers if layer)
    pauli = tuple("X" if b else "Y" for b in bits)
    return VariationalCircuit(bits=bits, theta=float(theta), pauli=pauli,
                              layers=layers)


def optimize_angle(g: WeightedGraph, bits) -> tuple[float, float]:
    """Best angle on [0, pi/4] for the closed-form total energy of an
    arbitrary graph, and that energy: the edge sums are taken once
    (energy_curve), then evaluated on the few grids of _maximize."""
    return _maximize(energy_curve(g, bits))


@dataclass
class PipelineResult:
    circuit: VariationalCircuit
    energy: float
    ratio: float              # energy / relaxation objective
    guaranteed: bool          # 3- or 4-regular and the rounding met its bound
    guarantee_value: float | None


def shallow_circuit_pipeline(g: WeightedGraph, sol: GramSolution,
                             gw: RoundingOutcome) -> PipelineResult:
    """Variational circuit on the cut `gw`, a `gw_round` outcome of the
    relaxation `sol`.

    For 3- and 4-regular graphs the angle is the degree's optimal envelope
    angle and, whenever the rounding met its 0.8785 bound, the reported
    energy over the relaxation objective is at least the degree's guarantee.
    Other graphs run with a warning and a numerically optimized angle.
    """
    d = g.is_regular()
    if d in (3, 4):
        theta, _ = best_angle(d)
        energy_val = circuit_energy(g, gw.bits, theta)
        guarantee = approximation_guarantee(d)
    else:
        warnings.warn("energy guarantee only holds for 3- and 4-regular graphs",
                      stacklevel=2)
        theta, energy_val = optimize_angle(g, gw.bits)
        guarantee = None
    circ = build_circuit(g, gw.bits, theta)
    ratio = energy_val / sol.objective if sol.objective > 0 else math.inf
    return PipelineResult(circuit=circ, energy=float(energy_val), ratio=float(ratio),
                          guaranteed=guarantee is not None and not gw.failed,
                          guarantee_value=guarantee)
