import math

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.linalg import LinearOperator, eigsh

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
from quantum_maxcut.generate import cycle_graph, gnp_graph, star_graph
from quantum_maxcut.graphs import Csr, csr_product
from quantum_maxcut.states import cut_value
from scipy_reference import scipy_csr

EDGE = parse_graph("0 1 1.0")
TRIANGLE = parse_graph("0 1\n1 2\n2 0")


def dense_hamiltonian(g):
    """H_G as a dense 2^n x 2^n matrix, column by column from apply_hamiltonian."""
    eye = np.eye(2 ** g.n)
    return np.column_stack([apply_hamiltonian(g, eye[:, k]) for k in range(2 ** g.n)])


def lanczos_full_space(g):
    """Largest eigenvalue by Lanczos over apply_hamiltonian on all 2^n amplitudes,
    with its own residual check: the full-space reference for n above 10."""
    dim = 2 ** g.n
    op = LinearOperator((dim, dim), dtype=float, matvec=lambda x: apply_hamiltonian(g, x))
    lams, vecs = eigsh(op, k=1, which="LA", tol=0,
                       v0=np.random.default_rng(0).standard_normal(dim))
    assert np.linalg.norm(apply_hamiltonian(g, vecs[:, 0]) - lams[0] * vecs[:, 0]) < 1e-9
    return float(lams[0])


def lanczos_sector(g):
    """Largest eigenvalue of `sector_hamiltonian(g)` by ARPACK, with its own
    residual check: the sector reference for n above 10."""
    h = scipy_csr(oracle.sector_hamiltonian(g))
    lams, vecs = eigsh(h, k=1, which="LA", tol=0,
                       v0=np.random.default_rng(0).standard_normal(h.shape[0]))
    assert np.linalg.norm(h @ vecs[:, 0] - lams[0] * vecs[:, 0]) < 1e-9 * max(lams[0], 1)
    return float(lams[0])


def log_spread_star(n):
    """A star whose weights run from e^-14 to 1: its top eigenvalues lie about
    5e-8 apart (relative), so Lanczos needs many restarts to certify one."""
    star = star_graph(n)
    return WeightedGraph(n, star.u, star.v, np.exp(np.linspace(-14, 0, n - 1)))


def sector_test_graphs(n, rng):
    """Graphs on n vertices: exp-weighted G(n, 1/2) and star (a star's top
    multiplet has large total spin), a star with an isolated vertex, a cycle
    with zero-weight edges and two disjoint halves."""
    graphs = [gnp_graph(n, 0.5, rng, weights="exp")]
    if n >= 2:
        graphs.append(star_graph(n, weights="exp", rng=rng))
    if n >= 3:
        ws = rng.exponential(size=n)
        graphs.append(WeightedGraph.from_edges(n, [(0, v, ws[v]) for v in range(1, n - 1)]))
        cycle = cycle_graph(n, "uniform", rng)  # its two edges at vertex 0 weigh 0
        graphs.append(WeightedGraph.from_edges(
            n, [(u, v, 0.0 if u == 0 else w) for u, v, w in cycle.edges]))
    if n >= 4:
        h = n // 2
        left, right = gnp_graph(h, 0.7, rng, "uniform"), gnp_graph(n - h, 0.7, rng, "uniform")
        graphs.append(WeightedGraph.from_edges(
            n, list(left.edges) + [(u + h, v + h, w) for u, v, w in right.edges]))
    return graphs


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
        """Each full-space routine and the eigenvalue refuse a graph over the
        20-qubit cap before they touch a state."""
        big = WeightedGraph.from_edges(21, [(0, 1)])
        for run in (lambda: apply_hamiltonian(big, np.zeros(2 ** 5)),
                    lambda: energy(big, np.ones(1)), lambda: max_eigenvalue(big),
                    lambda: simulate_variational_state(big, (0,) * 21, 0.1)):
            with pytest.raises(ResourceLimitError, match="21 qubits exceeds the cap of 20"):
                run()


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
            top = np.linalg.eigvalsh(dense_hamiltonian(g))[-1]
            for tol in (1e-6, 1e-8, 1e-10, 1e-12):  # 1e-8 is the default
                assert max_eigenvalue(g, tol=tol) == pytest.approx(top, abs=min(tol, 1e-8))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sector_matches_full_space(self, n):
        """The weight-floor(n/2) block holds the top eigenvalue: dense eigvalsh
        of the full H_G up to n = 10, full-space Lanczos at n = 11 and 12."""
        for g in sector_test_graphs(n, np.random.default_rng(100 + n)):
            ref = (np.linalg.eigvalsh(dense_hamiltonian(g))[-1] if n <= 10
                   else lanczos_full_space(g))
            assert max_eigenvalue(g) == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_no_full_space_matvec(self, monkeypatch):
        calls, original = [], oracle.apply_hamiltonian

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(oracle, "apply_hamiltonian", counted)
        assert max_eigenvalue(gnp_graph(9, 0.5, np.random.default_rng(3))) > 0
        assert max_eigenvalue(TRIANGLE) == pytest.approx(3.0, abs=1e-8)
        assert calls == []

    @pytest.mark.parametrize("n", [*range(1, 11), *range(13, 17)])
    def test_matches_sector_reference(self, n):
        """Against the top eigenvalue of the same sector matrix: dense eigvalsh
        up to n = 10, ARPACK over the rest of the `--oracle auto` range."""
        for g in sector_test_graphs(n, np.random.default_rng(300 + n)):
            ref = (np.linalg.eigvalsh(scipy_csr(oracle.sector_hamiltonian(g)).toarray())[-1]
                   if n <= 10 else lanczos_sector(g))
            assert max_eigenvalue(g) == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_lanczos_failure_is_convergence_error(self, monkeypatch):
        def failing(t):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(ConvergenceError, match="Lanczos failed"):
            max_eigenvalue(TRIANGLE)

    def test_residual_certificate(self, monkeypatch):
        """Ritz values off by 1e-3 fail the residual check in the sector, at
        every restart and at the invariant Krylov space of the triangle."""
        eigh = np.linalg.eigh

        def shifted(t):
            lams, ys = eigh(t)
            return lams + 1e-3, ys

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        monkeypatch.setattr(oracle, "_RESTARTS", 3)
        for g in (TRIANGLE, gnp_graph(10, 0.5, np.random.default_rng(4))):
            with pytest.raises(ConvergenceError, match="residual"):
                max_eigenvalue(g)

    def test_restarts_run_out(self, monkeypatch):
        """The log-spread star needs restarts: with none allowed it is refused,
        with the default ones it meets the dense reference."""
        g = log_spread_star(10)
        ref = np.linalg.eigvalsh(scipy_csr(oracle.sector_hamiltonian(g)).toarray())[-1]
        assert max_eigenvalue(g) == pytest.approx(ref, rel=1e-10)
        monkeypatch.setattr(oracle, "_RESTARTS", 0)
        with pytest.raises(ConvergenceError, match="exceeds tolerance 1e-08"):
            max_eigenvalue(g)

    def test_matvec_adds_the_product(self):
        """The Lanczos step calls `csr_product` on a vector, scipy's compiled
        CSR routine, which adds h x into its output: from zero it must equal
        the public product bit for bit, and otherwise add to what is there."""
        rng = np.random.default_rng(8)
        for dim, density in ((1, 1.0), (7, 0.0), (50, 0.2), (300, 0.05)):
            h = csr_array(np.where(rng.random((dim, dim)) < density,
                                   rng.standard_normal((dim, dim)), 0.0))
            a = Csr(h.indptr, h.indices, h.data)
            x, start = rng.standard_normal(dim), rng.standard_normal(dim)
            out = np.zeros(dim)
            csr_product(a, x, out)()
            assert np.array_equal(out, h @ x)
            out = start.copy()
            csr_product(a, x, out)()
            assert np.allclose(out, start + h @ x, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("j", [-600, 600, 1000])
    def test_power_of_two_scaling(self, j):
        """Scaling every weight of K5 by 2^j scales the eigenvalue; the residual
        is taken in units of w / 2^k, whose squares overflowed at j = 1000."""
        edges = [(u, v, float(1 + (u + v) % 4)) for u in range(5) for v in range(u + 1, 5)]
        base = max_eigenvalue(WeightedGraph.from_edges(5, edges))
        scaled = WeightedGraph.from_edges(5, [(u, v, math.ldexp(w, j)) for u, v, w in edges])
        assert max_eigenvalue(scaled) == pytest.approx(math.ldexp(base, j), rel=1e-10)

    def test_subnormal_weights(self):
        """K5 with every weight 1e-320 (subnormal): lambda_max = 8 w exactly.
        A residual bound floored at 1 in the units of w certified 3.2e-319."""
        g = WeightedGraph.from_edges(5, [(u, v, 1e-320) for u in range(5) for v in range(u + 1, 5)])
        assert max_eigenvalue(g) == 8 * g.w[0]

    def test_weighted_star_matches_laplacian_norm(self):
        # top Hamiltonian eigenvalue of a star equals the Laplacian norm
        rng = np.random.default_rng(9)
        g = star_graph(5, weights="exp", rng=rng)
        a = scipy_csr(g.csr).toarray()
        lam = np.linalg.eigvalsh(np.diag(a.sum(axis=1)) - a)[-1]
        assert max_eigenvalue(g) == pytest.approx(lam, abs=1e-8)


class TestSectorHamiltonian:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_dense_block(self, n):
        """Entry for entry the weight-floor(n/2) rows and columns of the dense
        H_G, and no entry of those columns leaves the block."""
        weight = np.array([bin(i).count("1") for i in range(2 ** n)])
        block = np.flatnonzero(weight == n // 2)
        for g in sector_test_graphs(n, np.random.default_rng(200 + n)):
            h = dense_hamiltonian(g)
            sector = scipy_csr(oracle.sector_hamiltonian(g))
            assert sector.shape == (len(block), len(block))
            assert np.allclose(sector.toarray(), h[np.ix_(block, block)], rtol=0, atol=1e-12)
            assert not h[np.ix_(weight != n // 2, block)].any()


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
