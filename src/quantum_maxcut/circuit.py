"""Shallow variational circuit on a base cut, with closed-form energies.

The circuit applies the commuting gates exp(i theta P(j)P(k)) over all edges,
with P(j) = X when the base bit is 1 and Y when it is 0. The energy of the
resulting state decomposes edge by edge into closed forms that depend only on
whether the base cut satisfies the edge, the endpoint degrees, and the number
of triangles containing the edge. Summed over the edges, the energy is a
polynomial in cos 2theta, sin 2theta and cos 4theta whose coefficients are
edge sums that do not depend on the angle: energy_curve takes those sums
once per (graph, cut), and every angle is evaluated from them. Both angle
searches (optimize_angle, best_angle) are a few nested-grid evaluations: the
first grid, COARSE, is one array whose powers of cos 2theta and cos 4theta
are tabulated once per process, and each later grid is centred on the vertex
of a parabola through the best point so far and its neighbours.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .graphs import WeightedGraph, check_bits, proper_edge_coloring
from .sdp import GW_RATIO, GramSolution, RoundingOutcome

THETA_GRID = 400   # intervals of the first grid on [0, pi/4]
REFINE_GRID = 20   # intervals of each refining grid
COARSE = np.arange(THETA_GRID + 1) * ((math.pi / 4) / THETA_GRID)  # every search's first grid
COARSE.flags.writeable = False
TABLE_POWERS = 128  # powers 0..127 of cos 2t and cos 4t on COARSE are tabulated


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
    """Total energy of the variational state on the base cut `bits`
    (`check_bits`) as a function of the angle; the returned function maps an
    angle to a float and an array of angles to the array of energies.

    Summing edge_energy_sat over the cut edges and edge_energy_unsat over the
    rest, with c = cos 2t, s = sin 2t and q = cos 4t, gives

        E(t) = W/2 + (s/2) sum_k alpha_k c^k + sum_k b_k c^k
               + sum_{j,k} B_jk q^j c^k,

    where W is the total weight, alpha_k sums the cut weights over endpoints
    with degree - 1 = k, b_k sums w/4 over cut and -w/2 over uncut edges with
    d_u + d_v - 2 - 2T = k (T the edge's triangle count), and B_jk sums w/4
    over cut edges with T = j and that exponent. The sums are taken here,
    once; an evaluation raises c to the K distinct exponents k and q to the
    J distinct triangle counts j, not a pass over the edges, and on COARSE,
    with every exponent below TABLE_POWERS, it takes those powers from the
    tables `_coarse_powers` builds once per process. Every evaluation
    on a d-regular graph checks the energy against the triangle-free floor
    W_cut * envelope / 2, up to rounding of 1e-12 W. The sums are taken on
    w / 2^k, k the graph's `weight_exponent`: exact, so scaling every weight
    by a power of two changes neither the energies nor whether the check
    trips, and subnormal weights keep full precision.
    """
    bits = check_bits(bits, g.n)
    du, dv, tri, w = g.degree[g.u], g.degree[g.v], g.triangles, np.ldexp(g.w, -g.weight_exponent)
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
    tabled = max(c_powers.max(initial=0), q_powers.max(initial=0)) < TABLE_POWERS

    def energy(theta):
        t = np.asarray(theta, dtype=float)
        if t is COARSE and tabled:
            c_table, q_table = _coarse_powers()
            # take: [:, columns] is Fortran-ordered, and the products below would round otherwise
            c_pow, q_pow = c_table.take(c_powers, axis=1), q_table.take(q_powers, axis=1)
        else:
            c_pow, q_pow = _powers(t, c_powers, q_powers)
        total = (half_total + 0.5 * np.sin(2 * t) * (c_pow @ alpha) + c_pow @ b
                 + np.sum((q_pow @ tri_b) * c_pow, axis=-1))
        if d is not None and d >= 1:
            floor = 0.5 * regular_sat_envelope(t, d) * w_cut
            if np.any(total < floor - slack):
                raise AssertionError("regular-graph energy floor violated")
        total = np.ldexp(total, g.weight_exponent)
        return float(total) if total.ndim == 0 else total

    return energy


def _powers(t: np.ndarray, c_exponents, q_exponents) -> tuple[np.ndarray, np.ndarray]:
    """cos 2t and cos 4t raised to each of the exponents, with the exponents
    on a new last axis."""
    c_pow = np.cos(2 * t)[..., None] ** c_exponents
    q = np.cos(4 * t)[..., None]  # < 0 past pi/8: numpy's pow of a negative base is ~7x slower
    return c_pow, np.abs(q) ** q_exponents * np.where(q_exponents % 2, np.sign(q), 1.0)


@functools.cache
def _coarse_powers() -> tuple[np.ndarray, np.ndarray]:
    """`_powers` of COARSE to the exponents 0..TABLE_POWERS - 1, once per process:
    an evaluation on COARSE takes its columns, the values it would compute."""
    exponents = np.arange(TABLE_POWERS)
    return _powers(COARSE, exponents, exponents)


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
    """First of equal maxima of the vectorized f on [0, pi/4], and its value,
    on nested grids: COARSE, then grids of REFINE_GRID intervals, until the
    best point's neighbours (or a neighbour and an end of [0, pi/4]) lie at
    most 1e-10 apart.

    Where the best point is inside its grid and f bends down there, the next
    grid is centred on the vertex of the parabola through the point and its
    neighbours, with 1/REFINE_GRID^2 of the spacing: on a smooth peak the
    fourth call of f is the last. Otherwise (the best point ends its grid, or
    the three values are not concave) the next grid spans the bracket that
    holds the maximum: the best point's neighbours, or, past an end of its
    grid, the last bracket's end on that side."""
    grid, step = COARSE, float(COARSE[1])
    lo, hi = 0.0, math.pi / 4  # the bracket
    while True:
        vals = f(grid)
        i, last = int(np.argmax(vals)), len(grid) - 1  # the first of equal maxima
        x = float(grid[i])
        if min(math.pi / 4, x + step) - max(0.0, x - step) <= 1e-10:
            return x, float(vals[i])
        lo = float(grid[i - 1]) if i > 0 else lo
        hi = float(grid[i + 1]) if i < last else hi
        if 0 < i < last and (bend := vals[i - 1] - 2 * vals[i] + vals[i + 1]) < 0:
            centre = x + 0.5 * step * (vals[i - 1] - vals[i + 1]) / bend
            step /= REFINE_GRID ** 2
            grid = centre + (np.arange(REFINE_GRID + 1) - REFINE_GRID / 2) * step
        else:
            step = (hi - lo) / REFINE_GRID
            grid = lo + np.arange(REFINE_GRID + 1) * step


@functools.cache
def best_angle(d: int) -> tuple[float, float]:
    """Maximizer of the d-regular cut-edge envelope on [0, pi/4] and its value,
    once per degree: the search of optimize_angle, which the flat peak leaves
    1e-9 off, then bisection to adjacent doubles on the root of the derivative
    4 c^(d-2) (c^2 - (d-1) s (s + c^(d-1))), c = cos 2t and s = sin 2t."""
    theta, fval = _maximize(lambda t: regular_sat_envelope(t, d))

    def slope(t):  # the derivative over 4 c^(d-2), which is positive below pi/4
        c, s = math.cos(2 * t), math.sin(2 * t)
        return c * c - (d - 1) * s * (s + c ** (d - 1))

    step = (math.pi / 4) / THETA_GRID
    lo, hi = max(0.0, theta - step), min(math.pi / 4, theta + step)
    if slope(lo) > 0 > slope(hi):  # else the maximum is at an end (d = 1)
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
        theta, fval = lo, float(regular_sat_envelope(lo, d))
    return theta, fval


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
    """Arrange the gate per edge into vertex-disjoint layers by edge color;
    `bits` is the base cut (`check_bits`)."""
    bits = tuple(check_bits(bits, g.n).tolist())
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
    (energy_curve), then evaluated on the grids of _maximize, four on a
    smooth peak, the first from the tabulated powers on COARSE."""
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
