import math

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from quantum_maxcut import (
    ConvergenceError,
    ResourceLimitError,
    WeightedGraph,
    apply_hamiltonian,
    basis_state,
    brute_force_maxcut,
    energy,
    max_eigenvalue,
    oracle,
    parse_graph,
    simulate_variational_state,
)
from quantum_maxcut.generate import gnp_graph, star_graph
from quantum_maxcut.states import cut_value

EDGE = parse_graph("0 1 1.0")
TRIANGLE = parse_graph("0 1\n1 2\n2 0")


def singlet():
    psi = np.zeros(4, dtype=complex)
    psi[0b01] = 1 / math.sqrt(2)
    psi[0b10] = -1 / math.sqrt(2)
    return psi


class TestApplyHamiltonian:
    def test_singlet_is_top_eigenvector(self):
        psi = singlet()
        assert np.allclose(apply_hamiltonian(EDGE, psi), 2 * psi)

    def test_symmetric_state_annihilated(self):
        assert np.allclose(apply_hamiltonian(EDGE, basis_state(2, (0, 0))), 0)

    def test_triangle_basis_state_energy(self):
        psi = basis_state(3, (0, 1, 0))
        assert energy(TRIANGLE, psi) == pytest.approx(2.0, abs=1e-12)

    def test_cap_enforced(self):
        big = WeightedGraph.from_edges(5, [(0, 1)])
        with pytest.raises(ResourceLimitError):
            apply_hamiltonian(big, np.zeros(2 ** 5), cap=4)


class TestMaxEigenvalue:
    def test_single_edge(self):
        assert max_eigenvalue(EDGE) == pytest.approx(2.0, abs=1e-10)

    def test_uniform_two_leaf_star(self):
        g = parse_graph("0 1\n0 2")
        assert max_eigenvalue(g) == pytest.approx(3.0, abs=1e-8)

    def test_triangle(self):
        assert max_eigenvalue(TRIANGLE) == pytest.approx(3.0, abs=1e-8)

    def test_dominates_candidate_states(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = gnp_graph(int(rng.integers(2, 9)), 0.5, rng, weights="uniform")
            if not g.edges:
                continue
            opt = max_eigenvalue(g)
            bits = tuple(int(b) for b in rng.integers(0, 2, g.n))
            assert opt >= energy(g, basis_state(g.n, bits)) - 1e-8

    def test_iterative_path_matches_dense(self):
        rng = np.random.default_rng(1)
        graphs = [gnp_graph(n, 0.4, rng, weights="uniform") for n in range(2, 11)]
        graphs.append(parse_graph("0 1 0\n1 2 0"))  # H_G = 0
        for g in graphs:
            dim = 2 ** g.n
            eye = np.eye(dim)
            h = np.column_stack([apply_hamiltonian(g, eye[:, k]) for k in range(dim)])
            assert max_eigenvalue(g) == pytest.approx(np.linalg.eigvalsh(h)[-1], abs=1e-8)

    def test_lanczos_failure_is_convergence_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(oracle, "eigsh", no_convergence)
        with pytest.raises(ConvergenceError, match="Lanczos"):
            max_eigenvalue(TRIANGLE)

    def test_weighted_star_matches_laplacian_norm(self):
        # top Hamiltonian eigenvalue of a star equals the Laplacian norm
        rng = np.random.default_rng(9)
        g = star_graph(5, weights="exp", rng=rng)
        a = g.csr.toarray()
        lam = np.linalg.eigvalsh(np.diag(a.sum(axis=1)) - a)[-1]
        assert max_eigenvalue(g) == pytest.approx(lam, abs=1e-8)


class TestSimulateVariationalState:
    def test_theta_zero_is_basis_state(self):
        g = TRIANGLE
        psi = simulate_variational_state(g, (0, 1, 1), 0.0)
        assert np.allclose(psi, basis_state(3, (0, 1, 1)))

    def test_single_edge_matches_closed_form(self):
        from quantum_maxcut import edge_energy_sat

        theta = math.pi / 8
        psi = simulate_variational_state(EDGE, (0, 1), theta)
        expected = 0.5 * edge_energy_sat(theta, 1, 1, 0)
        assert energy(EDGE, psi) == pytest.approx(expected, abs=1e-12)

    def test_theta_plus_pi_same_energy(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            g = gnp_graph(5, 0.6, rng)
            if not g.edges:
                continue
            z = tuple(int(b) for b in rng.integers(0, 2, g.n))
            th = float(rng.uniform(0, math.pi))
            e1 = energy(g, simulate_variational_state(g, z, th))
            e2 = energy(g, simulate_variational_state(g, z, th + math.pi))
            assert e1 == pytest.approx(e2, abs=1e-10)

    def test_output_normalized(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = gnp_graph(6, 0.5, rng)
            if not g.edges:
                continue
            z = tuple(int(b) for b in rng.integers(0, 2, g.n))
            psi = simulate_variational_state(g, z, float(rng.uniform(0, 2 * math.pi)))
            assert abs(np.linalg.norm(psi) - 1) < 1e-10


PAULI = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
         "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1.0, -1.0])}


def pauli_string(n, ops):
    """Dense 2^n x 2^n product of single-qubit Paulis (qubit -> name, else I);
    qubit 0 is the leading Kronecker factor."""
    m = np.eye(1)
    for q in range(n):
        m = np.kron(m, PAULI[ops.get(q, "I")])
    return m


class TestDensePauliReference:
    """The tensor forms against dense Pauli-string matrices built from the
    definitions: H_G = sum_e w (1/2)(I - XX - YY - ZZ), and the circuit's
    gates exp(i theta P(u)P(v)) = cos(theta) I + i sin(theta) P(u)P(v)."""

    def test_hamiltonian(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = gnp_graph(int(rng.integers(2, 7)), 0.6, rng, weights="uniform")
            dim = 2 ** g.n
            h = np.zeros((dim, dim), dtype=complex)
            for u, v, w in g.edges:
                h += 0.5 * w * (np.eye(dim) - sum(pauli_string(g.n, {u: p, v: p})
                                                  for p in "XYZ"))
            psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            assert np.allclose(apply_hamiltonian(g, psi), h @ psi, rtol=0, atol=1e-12)

    def test_variational_state(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            g = gnp_graph(int(rng.integers(2, 7)), 0.6, rng)
            z = tuple(int(b) for b in rng.integers(0, 2, g.n))
            theta = float(rng.uniform(0, math.pi))
            psi = basis_state(g.n, z)
            for u, v, _ in g.edges:
                gate = pauli_string(g.n, {q: "X" if z[q] else "Y" for q in (u, v)})
                psi = math.cos(theta) * psi + 1j * math.sin(theta) * (gate @ psi)
            assert np.allclose(simulate_variational_state(g, z, theta), psi,
                               rtol=0, atol=1e-12)


class TestEnergy:
    def test_basis_state_gives_cut(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = gnp_graph(6, 0.5, rng, weights="uniform")
            if not g.edges:
                continue
            bits = tuple(int(b) for b in rng.integers(0, 2, g.n))
            assert energy(g, basis_state(g.n, bits)) == pytest.approx(
                cut_value(g, bits), abs=1e-12)

    def test_singlet(self):
        assert energy(EDGE, singlet()) == pytest.approx(2.0, abs=1e-12)

    def test_uniform_superposition(self):
        # |++> has <XX> = 1 and <YY> = <ZZ> = 0, so the edge term vanishes
        psi = np.full(4, 0.5, dtype=complex)
        assert energy(EDGE, psi) == pytest.approx(0.0, abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            energy(EDGE, np.ones(4))

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = gnp_graph(5, 0.6, rng, weights="exp")
            if not g.edges:
                continue
            psi = rng.standard_normal(2 ** g.n) + 1j * rng.standard_normal(2 ** g.n)
            psi /= np.linalg.norm(psi)
            val = energy(g, psi)
            assert -1e-10 <= val <= 2 * g.total_weight + 1e-10


class TestBruteForceMaxcut:
    def test_single_edge(self):
        val, bits = brute_force_maxcut(EDGE)
        assert val == 1.0 and bits in ((0, 1), (1, 0))

    def test_triangle(self):
        assert brute_force_maxcut(TRIANGLE)[0] == 2.0

    def test_k4(self):
        g = WeightedGraph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert brute_force_maxcut(g)[0] == 4.0

    def test_returned_bits_realize_value(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = gnp_graph(8, 0.5, rng, weights="exp")
            if not g.edges:
                continue
            val, bits = brute_force_maxcut(g)
            assert cut_value(g, bits) == pytest.approx(val, abs=1e-12)
