import math

import numpy as np
import pytest

from quantum_maxcut import (
    WeightedGraph,
    circuit,
    approximation_guarantee,
    best_angle,
    build_circuit,
    circuit_energy,
    edge_energy_sat,
    edge_energy_unsat,
    energy,
    gw_round,
    optimize_angle,
    parse_graph,
    proper_edge_coloring,
    regular_sat_envelope,
    shallow_circuit_pipeline,
    simulate_variational_state,
    solve_maxcut_sdp,
)
from quantum_maxcut.generate import gnp_graph, regular_graph

EDGE = parse_graph("0 1 1.0")
TRIANGLE = parse_graph("0 1\n1 2\n2 0")
K4 = WeightedGraph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


class TestEdgeEnergies:
    def test_sat_at_theta_zero(self):
        for d_i, d_j, t in [(1, 1, 0), (3, 4, 2), (5, 2, 1)]:
            assert edge_energy_sat(0.0, d_i, d_j, t) == pytest.approx(2.0)

    def test_unsat_at_theta_zero(self):
        assert edge_energy_unsat(0.0, 3, 3, 1) == 0.0

    def test_unsat_zero_exponent(self):
        # d_i + d_j - 2 - 2T = 0 kills the contribution for every angle
        for theta in np.linspace(0, math.pi / 4, 7):
            assert edge_energy_unsat(theta, 2, 2, 1) == pytest.approx(0.0)

    def test_unsat_nonnegative_and_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d_i, d_j = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            t = int(rng.integers(0, min(d_i, d_j)))
            theta = float(rng.uniform(0, math.pi))
            val = edge_energy_unsat(theta, d_i, d_j, t)
            assert 0.0 <= val <= 2.0

    def test_triangle_count_monotonicity(self):
        # on a theta grid the cut-edge energy increases with the triangle count
        for theta in np.linspace(0, math.pi / 4, 1000):
            for d in (2, 3, 4, 5):
                vals = [edge_energy_sat(theta, d, d, t) for t in range(d)]
                assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_envelope_is_triangle_free_case(self):
        for theta in np.linspace(0, math.pi / 4, 50):
            for d in (1, 2, 3, 4, 7):
                assert edge_energy_sat(theta, d, d, 0) == pytest.approx(
                    regular_sat_envelope(theta, d), abs=1e-12)

    def test_triangle_range_validated(self):
        with pytest.raises(ValueError):
            edge_energy_sat(0.1, 2, 2, 2)
        with pytest.raises(ValueError):
            edge_energy_unsat(0.1, 1, 3, 1)

    def test_error_names_first_offending_edge(self):
        with pytest.raises(ValueError, match=r"edge 1 has endpoint degrees \(2, 2\) "
                                             r"and 2 triangles"):
            edge_energy_sat(0.1, np.array([3, 2, 4, 1]), np.array([3, 2, 4, 1]),
                            np.array([1, 2, 0, 1]))
        with pytest.raises(ValueError, match=r"edge 2 has endpoint degrees \(0, 3\) "
                                             r"and 0 triangles"):
            edge_energy_unsat(np.zeros((5, 1)), np.array([1, 2, 0]), 3, 0)


class TestCircuitEnergy:
    def test_theta_zero_reduces_to_cut(self):
        from quantum_maxcut.states import cut_value

        rng = np.random.default_rng(1)
        for _ in range(10):
            g = gnp_graph(7, 0.5, rng, weights="uniform")
            if len(g.w) == 0:
                continue
            bits = tuple(int(b) for b in rng.integers(0, 2, g.n))
            assert circuit_energy(g, bits, 0.0) == pytest.approx(
                cut_value(g, bits), abs=1e-12)

    def test_single_edge_theta_sweep_matches_oracle(self):
        for theta in np.linspace(0, math.pi, 100):
            closed = circuit_energy(EDGE, (0, 1), theta)
            simulated = energy(EDGE, simulate_variational_state(EDGE, (0, 1), theta))
            assert closed == pytest.approx(simulated, abs=1e-12)
        # maximum over theta reaches the optimum 2 at pi/8
        assert circuit_energy(EDGE, (0, 1), math.pi / 8) == pytest.approx(
            1 + math.sin(math.pi / 4))

    def test_triangle_terms_match_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            theta = float(rng.uniform(0, math.pi))
            closed = circuit_energy(TRIANGLE, (0, 1, 0), theta)
            simulated = energy(TRIANGLE,
                               simulate_variational_state(TRIANGLE, (0, 1, 0), theta))
            assert closed == pytest.approx(simulated, abs=1e-9)


def edge_loop_energy(g, bits, theta):
    """Reference: edge_energy_sat / edge_energy_unsat summed edge by edge."""
    deg = g.degree
    return sum(0.5 * w * (edge_energy_sat if bits[u] != bits[v] else edge_energy_unsat)(
        theta, deg[u], deg[v], int(tri))
        for u, v, w, tri in zip(g.u.tolist(), g.v.tolist(), g.w.tolist(), g.triangles))


class TestEnergyCurve:
    """The binned edge sums against the per-edge closed forms."""

    @pytest.mark.parametrize("name", ["dense-exp", "K8", "isolated", "no-edges", "random"])
    def test_matches_edge_loop(self, name):
        rng = np.random.default_rng(7)
        graphs = {
            "dense-exp": [gnp_graph(30, 0.9, rng, weights="exp")],
            "K8": [WeightedGraph.from_edges(
                8, [(u, v) for u in range(8) for v in range(u + 1, 8)])],
            "isolated": [WeightedGraph.from_edges(
                12, [(0, 1, 0.5), (1, 2, 2.0), (0, 2, 1.5), (2, 5, 3.0), (5, 7, 0.0)])],
            "no-edges": [WeightedGraph(5, [], [], [])],
            "random": [gnp_graph(int(rng.integers(2, 16)), float(rng.uniform(0.2, 0.9)),
                                 rng, weights="exp") for _ in range(10)],
        }[name]
        thetas = np.linspace(-math.pi / 2, math.pi / 2, 37)  # cos 2t < 0 on the ends
        for g in graphs:
            for _ in range(3):
                bits = tuple(int(b) for b in rng.integers(0, 2, g.n))
                expected = [edge_loop_energy(g, bits, t) for t in thetas]
                assert circuit_energy(g, bits, thetas) == pytest.approx(expected, abs=1e-12)
                for t, e in zip(thetas[::6], expected[::6]):
                    assert circuit_energy(g, bits, t) == pytest.approx(e, abs=1e-12)

    def test_no_edges_is_zero(self):
        g = WeightedGraph(3, [], [], [])
        assert circuit_energy(g, (0, 1, 0), 0.3) == 0.0
        assert optimize_angle(g, (0, 1, 0))[1] == 0.0

    def test_optimize_angle_builds_curve_once(self, monkeypatch):
        """One set of edge sums per search, evaluated on a few grids: the
        first is COARSE, each later one a refining grid, never a single
        angle, at most five in all, and circuit_energy is not called."""
        built, shapes, energies = [], [], []
        original = circuit.energy_curve

        def spy(g, bits):
            built.append(1)
            energy = original(g, bits)

            def counted(theta):
                shapes.append(np.shape(theta))
                return energy(theta)
            return counted

        monkeypatch.setattr(circuit, "energy_curve", spy)
        monkeypatch.setattr(circuit, "circuit_energy", lambda *a: energies.append(1))
        g = gnp_graph(20, 0.5, np.random.default_rng(8), weights="exp")
        bits = tuple(i % 2 for i in range(g.n))
        theta, val = optimize_angle(g, bits)
        assert built == [1] and energies == []
        assert shapes[0] == (circuit.THETA_GRID + 1,)
        assert set(shapes[1:]) == {(circuit.REFINE_GRID + 1,)} and len(shapes) <= 5
        assert val == pytest.approx(edge_loop_energy(g, bits, theta), abs=1e-12)

    def test_four_evaluations_on_rounded_cuts(self):
        """On the hyperplane cut of exp-weighted G(50, 0.4) graphs, as the
        circuit stage searches them, the parabola-centred grids make the
        fourth evaluation the last."""
        rng = np.random.default_rng(29)
        for seed in range(4):
            g = gnp_graph(50, 0.4, rng, weights="exp")
            _, gw = relaxation_and_cut(g, seed=seed)
            energy, calls = circuit.energy_curve(g, gw.bits), []
            circuit._maximize(lambda t: calls.append(1) or energy(t))
            assert len(calls) == 4

    def test_coarse_table_matches_computed_powers(self, monkeypatch):
        """An evaluation on COARSE takes its powers from the table when every
        exponent is below TABLE_POWERS, and equals, bit for bit, one on a
        copy of that grid, whose powers are computed: on random graphs and
        on stars whose largest exponent is the table's last column or one
        past it."""
        tables, reads = circuit._coarse_powers, []
        monkeypatch.setattr(circuit, "_coarse_powers", lambda: reads.append(1) or tables())
        rng = np.random.default_rng(3)
        cases = [gnp_graph(int(rng.integers(4, 40)), float(rng.uniform(0.2, 0.9)), rng,
                           weights="exp") for _ in range(10)]
        stars = [WeightedGraph.from_edges(d + 1, [(0, x, float(x)) for x in range(1, d + 1)])
                 for d in (circuit.TABLE_POWERS, circuit.TABLE_POWERS + 1)]
        for g in cases + stars:
            reads.clear()
            energy = circuit.energy_curve(g, tuple(int(b) for b in rng.integers(0, 2, g.n)))
            assert np.array_equal(energy(circuit.COARSE), energy(circuit.COARSE.copy()))
            assert reads == ([] if g is stars[1] else [1])

    def test_regular_floor_checked_every_evaluation(self, monkeypatch):
        """On a cycle (2-regular) each evaluation of the search compares the
        energy with the envelope floor."""
        calls = {"envelope": 0, "energy": 0}
        envelope, curve = circuit.regular_sat_envelope, circuit.energy_curve

        def counted_envelope(theta, d):
            calls["envelope"] += 1
            return envelope(theta, d)

        def counted_curve(g, bits):
            energy = curve(g, bits)

            def counted(theta):
                calls["energy"] += 1
                return energy(theta)
            return counted

        monkeypatch.setattr(circuit, "regular_sat_envelope", counted_envelope)
        monkeypatch.setattr(circuit, "energy_curve", counted_curve)
        cycle = WeightedGraph.from_edges(9, [(i, (i + 1) % 9, 1.0 + i) for i in range(9)])
        optimize_angle(cycle, (0, 1, 0, 1, 0, 1, 0, 1, 1))
        assert calls["energy"] > 2 and calls["envelope"] == calls["energy"]

    @pytest.mark.parametrize("j", [-1070, -600, 30, 600, 1000])
    def test_regular_floor_check_is_scale_free(self, j):
        """Scaling every weight by 2^j scales each energy exactly and never
        trips the floor check, on a 4-cycle and on K5 with weights 1 to 4 (an
        absolute slack tripped at j = 30; sums in the units of w tripped it on
        subnormal weights, j = -1070)."""
        c4 = [(i, (i + 1) % 4, 1.0) for i in range(4)]
        k5 = [(u, v, float(1 + (u + v) % 4)) for u in range(5) for v in range(u + 1, 5)]
        theta = np.linspace(0, np.pi / 4, 401)
        for n, edges in ((4, c4), (5, k5)):
            bits = (0, 1, 0, 1, 1)[:n]
            base = circuit.energy_curve(WeightedGraph.from_edges(n, edges), bits)
            scaled = circuit.energy_curve(
                WeightedGraph.from_edges(n, [(u, v, math.ldexp(w, j)) for u, v, w in edges]),
                bits)
            assert np.array_equal(scaled(theta), np.ldexp(base(theta), j))

    def test_regular_floor_violation_raises(self, monkeypatch):
        monkeypatch.setattr(circuit, "regular_sat_envelope", lambda theta, d: 10.0 + 0 * theta)
        with pytest.raises(AssertionError, match="floor"):
            circuit_energy(K4, (0, 1, 0, 1), 0.2)


class TestAngleOptimization:
    def test_envelope_at_zero(self):
        for d in (1, 2, 3, 10):
            assert regular_sat_envelope(0.0, d) == pytest.approx(2.0)

    def test_guarantee_values(self):
        assert approximation_guarantee(3) == pytest.approx(1.047, abs=1e-3)
        assert approximation_guarantee(4) == pytest.approx(1.001, abs=1e-3)

    def test_best_angle_searches_once_per_degree(self, monkeypatch):
        calls, envelope = [], circuit.regular_sat_envelope

        def counted(theta, d):
            calls.append(d)
            return envelope(theta, d)

        monkeypatch.setattr(circuit, "regular_sat_envelope", counted)
        best_angle.cache_clear()
        try:
            first = best_angle(3)
            searched = len(calls)
            assert searched > 0 and best_angle(3) == first and len(calls) == searched
            approximation_guarantee(3)
            assert len(calls) == searched
        finally:
            best_angle.cache_clear()

    def test_best_angle_matches_dense_grid(self):
        for d in (2, 3, 4, 6):
            theta, fval = best_angle(d)
            grid = np.linspace(0, math.pi / 4, 20001)
            vals = [regular_sat_envelope(t, d) for t in grid]
            assert fval == pytest.approx(max(vals), abs=1e-8)

    @pytest.mark.parametrize("d", [3, 4])
    def test_best_angle_is_the_root_of_the_slope(self, d):
        """theta*_d is the envelope's stationary point to 1e-13 and F_d its
        value to 1e-15, against a 40-digit mpmath root of the derivative."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            def envelope(t):
                c, s = mpmath.cos(2 * t), mpmath.sin(2 * t)
                return 1 + 2 * c ** (d - 1) * s + c ** (2 * d - 2)

            root = mpmath.findroot(lambda t: mpmath.diff(envelope, t), 0.16)
            peak = envelope(root)
        theta, fval = best_angle(d)
        assert abs(theta - float(root)) <= 1e-13
        assert fval == pytest.approx(float(peak), rel=1e-15, abs=0)

    def test_guarantee_above_gw_for_all_degrees(self):
        for d in range(1, 21):
            assert approximation_guarantee(d) >= 0.8785 - 1e-9


def assert_layers_cover_disjoint(g, circ):
    """The layers hold every edge once, and no layer touches a vertex twice."""
    covered = sorted(e for layer in circ.layers for e in layer)
    assert covered == sorted((u, v) for u, v in zip(g.u.tolist(), g.v.tolist()))
    for layer in circ.layers:
        touched = [x for e in layer for x in e]
        assert len(touched) == len(set(touched))


class TestBuildCircuit:
    def test_matching_single_layer(self):
        g = WeightedGraph.from_edges(4, [(0, 1), (2, 3)])
        circ = build_circuit(g, (0, 1, 0, 1), 0.3)
        assert len(circ.layers) == 1

    def test_triangle_three_layers(self):
        circ = build_circuit(TRIANGLE, (0, 1, 0), 0.3)
        assert len(circ.layers) == 3

    def test_three_regular_at_most_four_layers(self):
        rng = np.random.default_rng(3)
        for k in range(5):
            g = regular_graph(10, 3, rng)
            circ = build_circuit(g, tuple(rng.integers(0, 2, 10)), 0.2)
            assert len(circ.layers) <= 4
            assert_layers_cover_disjoint(g, circ)

    def test_dense_graph_layers_are_the_colors(self):
        rng = np.random.default_rng(8)
        g = gnp_graph(30, 0.7, rng, weights="exp")
        circ = build_circuit(g, tuple(rng.integers(0, 2, g.n)), 0.2)
        assert len(circ.layers) == len(set(proper_edge_coloring(g).values()))
        assert len(circ.layers) <= g.max_degree + 1
        assert_layers_cover_disjoint(g, circ)

    def test_pauli_assignment(self):
        circ = build_circuit(EDGE, (0, 1), 0.1)
        assert circ.pauli == ("Y", "X")


def relaxation_and_cut(g, seed):
    sol = solve_maxcut_sdp(g, seed=seed)
    return sol, gw_round(g, sol, seed=seed)


class TestPipeline:
    def test_k4_energy(self):
        sol, gw = relaxation_and_cut(K4, seed=0)
        res = shallow_circuit_pipeline(K4, sol, gw)
        # cut 4 equals the relaxation value, so the energy clears F(theta*,3)/2 * 4
        _, fval = best_angle(3)
        assert gw.value == 4.0
        assert res.energy >= fval / 2 * 4 - 1e-9
        assert res.ratio >= 1.19

    def test_three_regular_guarantee(self):
        rng = np.random.default_rng(4)
        for k in range(5):
            g = regular_graph(12, 3, rng)
            sol, gw = relaxation_and_cut(g, seed=k)
            res = shallow_circuit_pipeline(g, sol, gw)
            if not gw.failed:
                assert res.ratio >= approximation_guarantee(3) - 1e-9

    def test_out_of_guarantee_degree_warns(self):
        g = WeightedGraph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])  # K2,2
        sol, gw = relaxation_and_cut(g, seed=0)
        with pytest.warns(UserWarning, match="3- and 4-regular"):
            res = shallow_circuit_pipeline(g, sol, gw)
        assert not res.guaranteed
        assert res.energy > 0

    def test_layered_circuit_energy_matches_oracle(self):
        rng = np.random.default_rng(5)
        g = regular_graph(8, 3, rng)
        sol, gw = relaxation_and_cut(g, seed=0)
        res = shallow_circuit_pipeline(g, sol, gw)
        psi = simulate_variational_state(g, res.circuit.bits, res.circuit.theta)
        assert res.energy == pytest.approx(energy(g, psi), abs=1e-9)


class TestOptimizeAngle:
    def test_at_least_cut(self):
        rng = np.random.default_rng(6)
        g = gnp_graph(8, 0.5, rng, weights="uniform")
        bits = tuple(int(b) for b in rng.integers(0, 2, g.n))
        theta, val = optimize_angle(g, bits)
        assert val >= circuit_energy(g, bits, 0.0) - 1e-12
        assert 0 <= theta <= math.pi / 4

    @pytest.mark.parametrize("name", ["random", "hub", "no-edges", "all-uncut",
                                      "max-at-zero", "max-at-quarter-pi", "flat-top"])
    def test_reaches_dense_grid_maximum(self, name):
        """The nested-grid search reaches the maximum over 200001 angles: of
        energy curves, and of curves that run its fallbacks, a maximum at
        either end of [0, pi/4] and a flat top, where it returns the first
        angle of the plateau."""
        grid = np.linspace(0, math.pi / 4, 200001)
        curves = {"max-at-zero": (lambda t: np.cos(2 * t) ** 3, 0.0),
                  "max-at-quarter-pi": (lambda t: np.sin(2 * t) ** 5, math.pi / 4),
                  "flat-top": (lambda t: np.minimum(np.sin(2 * t), 0.8), math.asin(0.8) / 2)}
        if name in curves:
            f, first = curves[name]
            theta, val = circuit._maximize(f)
            assert val >= np.max(f(grid)) - 1e-12 and val == f(theta)
            assert theta == pytest.approx(first, abs=1e-8)
            return
        rng = np.random.default_rng(9)
        if name == "random":
            cases = []
            while len(cases) < 20:
                g = gnp_graph(int(rng.integers(4, 17)), float(rng.uniform(0.2, 0.9)), rng,
                              weights=str(rng.choice(["unit", "uniform", "exp"])))
                if len(g.w) and g.is_regular() is None:
                    cases.append((g, tuple(int(b) for b in rng.integers(0, 2, g.n))))
        elif name == "hub":
            g = WeightedGraph.from_edges(2001, [(0, x, float(rng.exponential()))
                                                for x in range(1, 2001)])
            cases = [(g, (1,) + tuple(int(b) for b in rng.integers(0, 2, 2000)))]
        elif name == "no-edges":
            cases = [(WeightedGraph(6, [], [], []), (0, 1, 0, 1, 0, 1))]
        else:
            g = gnp_graph(12, 0.6, rng, weights="exp")
            cases = [(g, (0,) * g.n)]
        for g, bits in cases:
            theta, val = optimize_angle(g, bits)
            top = float(np.max(circuit_energy(g, bits, grid)))
            assert 0 <= theta <= math.pi / 4
            assert val >= top - 1e-9
            assert val == pytest.approx(circuit_energy(g, bits, theta), abs=1e-12)
