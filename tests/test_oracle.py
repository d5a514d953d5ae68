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
# unit K_10: not bipartite, so its sector is the 252 states of weight 5, above
# the dense cutoff; its spectrum there is one value per total spin 0..5
K10 = WeightedGraph.from_edges(10, [(u, v) for u in range(10) for v in range(u + 1, 10)])


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
    h = scipy_csr(oracle.sector_hamiltonian(g, g.n // 2))
    lams, vecs = eigsh(h, k=1, which="LA", tol=0,
                       v0=np.random.default_rng(0).standard_normal(h.shape[0]))
    assert np.linalg.norm(h @ vecs[:, 0] - lams[0] * vecs[:, 0]) < 1e-9 * max(lams[0], 1)
    return float(lams[0])


def log_spread_star(n):
    """A star whose weights run from e^-14 to 1, plus an edge of weight e^-14
    between its two lightest leaves: the triangle keeps the graph out of the
    Lieb-Mattis reduction, so at n = 10 it takes the Lanczos path, and its
    top eigenvalues lie about 5e-8 apart (relative), so Lanczos needs many
    restarts to certify one."""
    star = star_graph(n)
    w = np.exp(np.linspace(-14, 0, n - 1))
    return WeightedGraph(n, np.r_[star.u, 1], np.r_[star.v, 2], np.r_[w, w[0]])


def smaller_side(g):
    """min(|A|, |B|) over the sides A, B of the positive-weight edges, by a
    BFS of its own; they must form one connected bipartite graph."""
    neighbors = [[] for _ in range(g.n)]
    for x, y, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist()):
        if w > 0:
            neighbors[x].append(y)
            neighbors[y].append(x)
    side = {0: 0}
    queue = [0]
    for x in queue:
        for y in neighbors[x]:
            if y not in side:
                side[y] = 1 - side[x]
                queue.append(y)
            assert side[y] != side[x], "not bipartite"
    assert len(side) == g.n, "not connected"
    ones = sum(side.values())
    return min(ones, g.n - ones)


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
        graphs.append(WeightedGraph(n, cycle.u, cycle.v, np.where(cycle.u == 0, 0.0, cycle.w)))
    if n >= 4:
        h = n // 2
        left, right = gnp_graph(h, 0.7, rng, "uniform"), gnp_graph(n - h, 0.7, rng, "uniform")
        graphs.append(WeightedGraph(n, np.r_[left.u, right.u + h], np.r_[left.v, right.v + h],
                                    np.r_[left.w, right.w]))
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
        assert max_eigenvalue(EDGE).value == pytest.approx(2.0, abs=1e-10)

    def test_uniform_two_leaf_star(self):
        g = parse_graph("0 1\n0 2")
        assert max_eigenvalue(g).value == pytest.approx(3.0, abs=1e-8)

    def test_triangle(self):
        assert max_eigenvalue(TRIANGLE).value == pytest.approx(3.0, abs=1e-8)

    def test_dominates_candidate_states(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = gnp_graph(int(rng.integers(2, 9)), 0.5, rng, weights="uniform")
            if len(g.w) == 0:
                continue
            opt = max_eigenvalue(g).value
            bits = tuple(int(b) for b in rng.integers(0, 2, g.n))
            assert opt >= energy(g, basis_state(g.n, bits)) - 1e-8

    def test_iterative_path_matches_dense(self, monkeypatch):
        rng = np.random.default_rng(1)
        graphs = [gnp_graph(n, 0.4, rng, weights="uniform") for n in range(2, 11)]
        graphs.append(parse_graph("0 1 0\n1 2 0"))  # H_G = 0
        for g in graphs:
            top = np.linalg.eigvalsh(dense_hamiltonian(g))[-1]
            for tol in (1e-6, 1e-8, 1e-10, 1e-12):  # 1e-8 is RESIDUAL_TOL
                monkeypatch.setattr(oracle, "RESIDUAL_TOL", tol)
                assert max_eigenvalue(g).value == pytest.approx(top, abs=min(tol, 1e-8))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sector_matches_full_space(self, n):
        """The weight-floor(n/2) block holds the top eigenvalue: dense eigvalsh
        of the full H_G up to n = 10, full-space Lanczos at n = 11 and 12."""
        for g in sector_test_graphs(n, np.random.default_rng(100 + n)):
            ref = (np.linalg.eigvalsh(dense_hamiltonian(g))[-1] if n <= 10
                   else lanczos_full_space(g))
            assert max_eigenvalue(g).value == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_no_full_space_matvec(self, monkeypatch):
        calls, original = [], oracle.apply_hamiltonian

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(oracle, "apply_hamiltonian", counted)
        assert max_eigenvalue(gnp_graph(9, 0.5, np.random.default_rng(3))).value > 0
        assert max_eigenvalue(TRIANGLE).value == pytest.approx(3.0, abs=1e-8)
        assert calls == []

    @pytest.mark.parametrize("n", [*range(1, 11), *range(13, 17)])
    def test_matches_sector_reference(self, n):
        """Against the top eigenvalue of the same sector matrix: dense eigvalsh
        up to n = 10, ARPACK over the rest of the `--oracle auto` range."""
        for g in sector_test_graphs(n, np.random.default_rng(300 + n)):
            ref = (np.linalg.eigvalsh(scipy_csr(oracle.sector_hamiltonian(g, g.n // 2)).toarray())[-1]
                   if n <= 10 else lanczos_sector(g))
            assert max_eigenvalue(g).value == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_lanczos_failure_is_convergence_error(self, monkeypatch):
        def failing(t):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        assert max_eigenvalue(K10).certificate == "lanczos-residual"
        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(ConvergenceError, match="Lanczos failed"):
            max_eigenvalue(K10)

    def test_dense_failure_is_convergence_error(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        assert max_eigenvalue(TRIANGLE).certificate == "dense"
        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(ConvergenceError, match="dense eigensolve failed"):
            max_eigenvalue(TRIANGLE)

    def test_residual_certificate(self, monkeypatch):
        """Ritz values off by 1e-3 fail the residual check in the sector, at
        every restart and at the invariant Krylov space of unit K_10, which
        six products span."""
        eigh = np.linalg.eigh

        def shifted(t):
            lams, ys = eigh(t)
            return lams + 1e-3, ys

        graphs = (K10, gnp_graph(10, 0.5, np.random.default_rng(4)))
        assert [max_eigenvalue(g).certificate for g in graphs] == ["lanczos-residual"] * 2
        monkeypatch.setattr(np.linalg, "eigh", shifted)
        monkeypatch.setattr(oracle, "_RESTARTS", 3)
        for g in graphs:
            with pytest.raises(ConvergenceError, match="residual"):
                max_eigenvalue(g)

    def test_restarts_run_out(self, monkeypatch):
        """The log-spread star with a triangle needs restarts: with none
        allowed it is refused, with the default ones it meets the dense
        reference."""
        g = log_spread_star(10)
        top = max_eigenvalue(g)
        assert top.certificate == "lanczos-residual"
        ref = np.linalg.eigvalsh(scipy_csr(oracle.sector_hamiltonian(g, g.n // 2)).toarray())[-1]
        assert top.value == pytest.approx(ref, rel=1e-10)
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
        base = max_eigenvalue(WeightedGraph.from_edges(5, edges)).value
        scaled = WeightedGraph.from_edges(5, [(u, v, math.ldexp(w, j)) for u, v, w in edges])
        assert max_eigenvalue(scaled).value == pytest.approx(math.ldexp(base, j), rel=1e-10)

    def test_subnormal_weights(self):
        """K5 with every weight 1e-320 (subnormal): lambda_max = 8 w exactly.
        A residual bound floored at 1 in the units of w certified 3.2e-319."""
        g = WeightedGraph.from_edges(5, [(u, v, 1e-320) for u in range(5) for v in range(u + 1, 5)])
        assert max_eigenvalue(g).value == 8 * g.w[0]

    def test_weighted_star_matches_laplacian_norm(self):
        # top Hamiltonian eigenvalue of a star equals the Laplacian norm
        rng = np.random.default_rng(9)
        g = star_graph(5, weights="exp", rng=rng)
        a = scipy_csr(g.csr).toarray()
        lam = np.linalg.eigvalsh(np.diag(a.sum(axis=1)) - a)[-1]
        assert max_eigenvalue(g).value == pytest.approx(lam, abs=1e-8)


def random_tree(n, rng):
    """Exp-weighted tree: vertex x joins a uniform vertex below it."""
    parents = [int(rng.integers(x)) for x in range(1, n)]
    return WeightedGraph.from_edges(n, list(zip(parents, range(1, n), rng.exponential(size=n - 1))))


def path_graph(n, rng):
    """Exp-weighted path 0-1-...-(n-1)."""
    return WeightedGraph.from_edges(n, [(x, x + 1, w) for x, w in
                                        enumerate(rng.exponential(size=n - 1))])


def bipartite_test_graphs(n, rng):
    """Connected bipartite graphs with positive weights on n vertices: an
    exp-weighted star, path and random tree, and K_{2,5} at n = 7."""
    graphs = [star_graph(n, weights="exp", rng=rng), path_graph(n, rng), random_tree(n, rng)]
    if n == 7:
        pairs = [(a, b) for a in (0, 1) for b in range(2, 7)]
        ws = rng.exponential(size=len(pairs))
        graphs.append(WeightedGraph.from_edges(7, [(a, b, w) for (a, b), w in zip(pairs, ws)]))
    return graphs


def block(top):
    """The block a `max_eigenvalue` result names: (certificate, ones, dim)."""
    return top.certificate, top.ones, top.dim


class TestTopSector:
    """The block `max_eigenvalue` solves: weight min(|A|, |B|) when the
    positive-weight edges form one connected bipartite graph (Lieb-Mattis),
    floor(n/2) otherwise; eigvalsh up to DENSE_DIM states."""

    @pytest.mark.parametrize("n", range(2, 17))
    def test_lieb_mattis_sector(self, n):
        """The smaller side's weight, and the top eigenvalue of the dense
        full H_G up to n = 10, of the floor(n/2) sector (ARPACK) above."""
        for g in bipartite_test_graphs(n, np.random.default_rng(400 + n)):
            top = max_eigenvalue(g)
            assert oracle.top_sector(g) == top.ones == smaller_side(g)
            assert top.dim == math.comb(n, top.ones)
            ref = (np.linalg.eigvalsh(dense_hamiltonian(g))[-1] if n <= 10
                   else lanczos_sector(g))
            assert top.value == pytest.approx(ref, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("edges, ones", [
        ([(0, x, 1.0 + x) for x in range(1, 6)], 3),  # vertex 6 is isolated
        ([(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0), (3, 4, 0.0), (4, 5, 1.0), (4, 6, 2.0)], 3),
        ([(x, (x + 1) % 7, 1.0 + x) for x in range(7)], 3),  # odd cycle
        ([(0, x, 1.0 + x) for x in range(1, 7)] + [(1, 2, 0.0)], 1),  # a weightless triangle
        ([(0, 1, 0.0), (1, 2, 0.0), (2, 0, 0.0)], 0),  # H_G = 0
    ], ids=["isolated-vertex", "zero-weight-bridge", "odd-cycle", "zero-weight-odd-cycle",
            "all-zero"])
    def test_fallbacks(self, edges, ones):
        """On 7 vertices: an isolated vertex, a zero-weight edge that
        disconnects the positive graph and an odd cycle fall back to
        floor(n/2); a zero-weight edge that closes an odd cycle does not
        block the reduction, and H_G = 0 takes the one state of weight 0."""
        g = WeightedGraph.from_edges(7, edges)
        assert oracle.top_sector(g) == ones
        assert max_eigenvalue(g).value == pytest.approx(
            np.linalg.eigvalsh(dense_hamiltonian(g))[-1], rel=1e-12, abs=1e-12)

    def test_dense_cutoff(self):
        """Trees with a side of two vertices, 0 and 1: C(16, 2) = 120 states go
        dense, C(17, 2) = 136 to Lanczos, as DENSE_DIM = 128 sits between."""
        for n, certificate in ((16, "dense"), (17, "lanczos-residual")):
            g = WeightedGraph.from_edges(n, [(1, 2)] + [(0, x) for x in range(2, n)])
            assert block(max_eigenvalue(g)) == (certificate, 2, math.comb(n, 2))
        assert block(max_eigenvalue(K10)) == ("lanczos-residual", 5, 252)
        assert block(max_eigenvalue(gnp_graph(9, 1.0, np.random.default_rng(0)))) == (
            "dense", 4, 126)

    def test_clustered_star_is_certified(self):
        """A 9-vertex star with weights e^u, u uniform on (-14, 0), whose top
        eigenvalues lie about 1e-8 apart: Lanczos on the weight-4 sector
        certified a value 7.3e-8 below lambda_max (relative). Its weight-1
        sector, the weighted Laplacian, is solved dense."""
        star = star_graph(9)
        w = np.exp(np.random.default_rng(81).uniform(-14, 0, 8))
        g = WeightedGraph(9, star.u, star.v, w)
        ref = np.linalg.eigvalsh(scipy_csr(oracle.sector_hamiltonian(g, 4)).toarray())[-1]
        assert max_eigenvalue(g).value == pytest.approx(ref, rel=1e-12)


class TestSectorHamiltonian:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_dense_block(self, n):
        """At every Hamming weight 0..n, entry for entry the rows and columns
        of the dense H_G on that weight, with the stored entries of the
        diagonal and 2 m C(n-2, ones-1) more; no entry of those columns
        leaves the block."""
        weight = np.array([bin(i).count("1") for i in range(2 ** n)])
        for g in sector_test_graphs(n, np.random.default_rng(200 + n)):
            h = dense_hamiltonian(g)
            for ones in range(n + 1):
                block = np.flatnonzero(weight == ones)
                a = oracle.sector_hamiltonian(g, ones)
                sector = scipy_csr(a)
                assert sector.shape == (len(block), len(block))
                assert np.allclose(sector.toarray(), h[np.ix_(block, block)], rtol=0, atol=1e-12)
                assert not h[np.ix_(weight != ones, block)].any()
                off = 2 * len(g.u) * math.comb(n - 2, ones - 1) if 0 < ones < n else 0
                assert len(a.indices) == len(a.data) == len(block) + off

    def test_weight_out_of_range(self):
        for ones in (-1, 4):
            with pytest.raises(ValueError, match="outside 0..3"):
                oracle.sector_hamiltonian(TRIANGLE, ones)


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
            if len(g.w) == 0:
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
            if len(g.w) == 0:
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
            for u, v, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist()):
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
            for u, v in zip(g.u.tolist(), g.v.tolist()):
                gate = pauli_string(g.n, {q: "X" if z[q] else "Y" for q in (u, v)})
                psi = math.cos(theta) * psi + 1j * math.sin(theta) * (gate @ psi)
            assert np.allclose(simulate_variational_state(g, z, theta), psi,
                               rtol=0, atol=1e-12)


class TestEnergy:
    def test_basis_state_gives_cut(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = gnp_graph(6, 0.5, rng, weights="uniform")
            if len(g.w) == 0:
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
            if len(g.w) == 0:
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
            if len(g.w) == 0:
                continue
            val, bits = brute_force_maxcut(g)
            assert cut_value(g, bits) == pytest.approx(val, abs=1e-12)
