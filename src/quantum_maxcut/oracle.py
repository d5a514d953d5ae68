"""Small-instance ground truth: exact maximum energy, energies, circuits.

The Heisenberg-interaction Hamiltonian of a weighted graph acts on 2^n
amplitudes. Per edge {i,j} the term w * (1/2)(I - XX - YY - ZZ) equals
w * (I - SWAP_ij), and SWAP_ij swaps axes i and j of the amplitude tensor,
so H_G = W * I - sum_e w_e SWAP_e is applied to a state by axis swaps.
Energies and the circuit, whose state does not conserve S_z, use that.
A swap keeps the number of 1 bits, and every spin multiplet has a member
of Hamming weight floor(n/2) (S_z = 0 or 1/2), so the maximum eigenvalue
is found on that block alone, a sparse matrix of C(n, floor(n/2)) rows.

Bit convention: qubit q is axis q of amplitudes.reshape([2]*n), i.e. bit q of
index i is (i >> (n-1-q)) & 1, so a bit string reads like the binary index.
"""
from __future__ import annotations

import numpy as np
from scipy.sparse import coo_array

from .graphs import WeightedGraph

QUBIT_CAP = 20  # states, energies and the eigenvalue: at most this many qubits
BRUTE_FORCE_CAP = 24


class ResourceLimitError(RuntimeError):
    """Instance exceeds the qubit cap."""


class ConvergenceError(RuntimeError):
    """Eigensolver failed to certify convergence."""


def _check_cap(n, cap):
    if n > cap:
        raise ResourceLimitError(f"{n} qubits exceeds the cap of {cap}")


def basis_state(n: int, bits) -> np.ndarray:
    """Computational basis state |bits> as a 2^n amplitude vector."""
    if len(bits) != n:
        raise ValueError("bit string length must equal qubit count")
    psi = np.zeros([2] * n, dtype=complex)
    psi[tuple(int(b) for b in bits)] = 1.0
    return psi.reshape(-1)


def apply_hamiltonian(g: WeightedGraph, psi: np.ndarray) -> np.ndarray:
    """Return H_G |psi> (unnormalized), preserving the input dtype."""
    _check_cap(g.n, QUBIT_CAP)
    t = np.asarray(psi).reshape([2] * g.n)
    out = g.total_weight * t
    for u, v, w in g.edges:
        out -= w * np.swapaxes(t, u, v)
    return out.reshape(-1)


def energy(g: WeightedGraph, psi: np.ndarray) -> float:
    """<psi| H_G |psi> for a normalized state."""
    psi = np.asarray(psi)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"state is not normalized (norm {norm})")
    val = np.vdot(psi, apply_hamiltonian(g, psi))
    if abs(val.imag) > 1e-10:
        raise AssertionError(f"energy has imaginary part {val.imag}")
    return float(val.real)


def sector_hamiltonian(g: WeightedGraph):
    """H_G on the sorted basis states of Hamming weight floor(n/2), as a
    sparse CSR matrix; row and column i stand for the i-th smallest index.

    On a state whose bits at u and v differ, the edge term w (I - SWAP_uv)
    adds w on the diagonal and -w at the partner with both bits swapped; on
    any other state it is zero.
    """
    n = g.n
    idx = np.arange(2 ** n, dtype=np.int64)
    states = np.flatnonzero(np.bitwise_count(idx) == n // 2)
    dim = len(states)
    diag = np.zeros(dim)
    rows, cols, vals = [np.arange(dim, dtype=np.int32)], [np.arange(dim, dtype=np.int32)], [diag]
    for u, v, w in g.edges:  # int32 indices: 3M entries on a 3-regular n=20 graph
        bu, bv = n - 1 - u, n - 1 - v
        differ = np.flatnonzero(((states >> bu) ^ (states >> bv)) & 1).astype(np.int32)
        diag[differ] += w
        rows.append(differ)
        partner = states[differ] ^ ((1 << bu) | (1 << bv))
        cols.append(np.searchsorted(states, partner).astype(np.int32))
        vals.append(np.full(len(differ), -w))
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))  # drops the pieces
    return coo_array((vals, (rows, cols)), shape=(dim, dim)).tocsr()


def max_eigenvalue(g: WeightedGraph, tol: float = 1e-8) -> float:
    """Largest eigenvalue of H_G by Lanczos on `sector_hamiltonian(g)`, which
    is H_G on an invariant subspace; ConvergenceError if Lanczos fails or the
    residual ||H v - lam v|| exceeds max(tol, 1e-12) * lam.

    Lanczos and the residual run on H / 2^k, k the graph's `weight_exponent`,
    and lam is scaled back: the scaling is exact, no square in the residual
    overflows, and as lam >= 2 max w (the top of one edge's term), lam >= 1
    in those units, so the relative bound needs no floor and holds at any
    weight scale. `scipy.sparse.linalg` is imported here, so that only runs
    of the oracle load it."""
    from scipy.sparse.linalg import ArpackError, eigsh

    _check_cap(g.n, QUBIT_CAP)
    if g.total_weight == 0:
        return 0.0  # H_G = 0, on which Lanczos has no start vector
    h = sector_hamiltonian(g)  # real symmetric
    k = g.weight_exponent
    np.ldexp(h.data, -k, out=h.data)
    rng = np.random.default_rng(7)  # fixed start for reproducible failures
    bound = max(tol, 1e-12)  # Lanczos stops at a hundredth of it, not at machine precision
    try:
        lams, vecs = eigsh(h, k=1, which="LA", tol=bound / 100,
                           v0=rng.standard_normal(h.shape[0]), maxiter=20000)
    except ArpackError as exc:  # ArpackNoConvergence included
        raise ConvergenceError(f"Lanczos failed: {exc}") from exc
    lam, vec = float(lams[0]), vecs[:, 0]
    residual = np.linalg.norm(h @ vec - lam * vec)
    if residual > bound * lam:
        raise ConvergenceError(f"residual {np.ldexp(residual, k)} exceeds tolerance {tol}")
    return float(np.ldexp(lam, k))


def simulate_variational_state(g: WeightedGraph, bits, theta: float) -> np.ndarray:
    """Apply the commuting gate product prod_{{j,k} in E} exp(i theta P(j)P(k)) to |bits>.

    P(j) = X if bit j is 1, else Y. Gates commute, so they are applied in edge
    order; edge weights do not enter the circuit. P(u)P(v) flips axes u and v;
    as Y|b> = i(-1)^b |1-b>, each Y axis also takes the phase -i on output
    bit 0 and +i on output bit 1.
    """
    _check_cap(g.n, QUBIT_CAP)
    n = g.n
    if len(bits) != n:
        raise ValueError("bit string length must equal qubit count")
    bits = tuple(int(b) for b in bits)
    t = basis_state(n, bits).reshape([2] * n)
    y_phase = [np.array([-1j, 1j]).reshape([2 if a == q else 1 for a in range(n)])
               for q in range(n)]
    c, s = np.cos(theta), np.sin(theta)
    for u, v, _ in g.edges:
        flipped = np.flip(t, (u, v))
        for q in (u, v):
            if not bits[q]:
                flipped = flipped * y_phase[q]
        t = c * t + 1j * s * flipped
    return t.reshape(-1)


def brute_force_maxcut(g: WeightedGraph) -> tuple[float, tuple[int, ...]]:
    """Exact Max Cut value and an optimizing bit string by exhaustive enumeration."""
    _check_cap(g.n, BRUTE_FORCE_CAP)
    n = g.n
    idx = np.arange(2 ** n, dtype=np.int64)
    total = np.zeros(2 ** n)
    for u, v, w in g.edges:
        total += w * (((idx >> (n - 1 - u)) ^ (idx >> (n - 1 - v))) & 1)
    k = int(np.argmax(total))
    bits = tuple(int((k >> (n - 1 - q)) & 1) for q in range(n))
    return float(total[k]), bits
