"""Small-instance ground truth via dense state vectors.

The Heisenberg-interaction Hamiltonian of a weighted graph acts on 2^n
amplitudes. Per edge {i,j} the term w * (1/2)(I - XX - YY - ZZ) equals
w * (I - SWAP_ij), and SWAP_ij swaps axes i and j of the amplitude tensor,
so H_G = W * I - sum_e w_e SWAP_e is applied by axis swaps and never
materialized as a dense 2^n x 2^n matrix.

Bit convention: qubit q is axis q of amplitudes.reshape([2]*n), i.e. bit q of
index i is (i >> (n-1-q)) & 1, so a bit string reads like the binary index.
"""
from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .graphs import WeightedGraph

DEFAULT_QUBIT_CAP = 20
BRUTE_FORCE_CAP = 24


class ResourceLimitError(RuntimeError):
    """Instance exceeds the configured qubit cap."""


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


def apply_hamiltonian(g: WeightedGraph, psi: np.ndarray,
                      cap: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """Return H_G |psi> (unnormalized), preserving the input dtype."""
    _check_cap(g.n, cap)
    t = np.asarray(psi).reshape([2] * g.n)
    out = g.total_weight * t
    for u, v, w in g.edges:
        out -= w * np.swapaxes(t, u, v)
    return out.reshape(-1)


def energy(g: WeightedGraph, psi: np.ndarray, cap: int = DEFAULT_QUBIT_CAP) -> float:
    """<psi| H_G |psi> for a normalized state."""
    psi = np.asarray(psi)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"state is not normalized (norm {norm})")
    val = np.vdot(psi, apply_hamiltonian(g, psi, cap=cap))
    if abs(val.imag) > 1e-10:
        raise AssertionError(f"energy has imaginary part {val.imag}")
    return float(val.real)


def max_eigenvalue(g: WeightedGraph, tol: float = 1e-8,
                   cap: int = DEFAULT_QUBIT_CAP, maxiter: int = 20000) -> float:
    """Largest eigenvalue of H_G by Lanczos, certified by the residual
    ||H v - lam v|| <= tol; ConvergenceError if Lanczos fails or the residual
    is larger."""
    _check_cap(g.n, cap)
    if g.total_weight == 0:
        return 0.0  # H_G = 0, on which Lanczos has no start vector
    dim = 2 ** g.n
    # H_G is real symmetric in the computational basis
    op = LinearOperator((dim, dim), dtype=float,
                        matvec=lambda x: apply_hamiltonian(g, x, cap=cap))
    rng = np.random.default_rng(7)  # fixed start for reproducible failures
    try:
        lams, vecs = eigsh(op, k=1, which="LA", tol=0,
                           v0=rng.standard_normal(dim), maxiter=maxiter)
    except ArpackError as exc:  # ArpackNoConvergence included
        raise ConvergenceError(f"Lanczos failed: {exc}") from exc
    lam, vec = float(lams[0]), vecs[:, 0]
    residual = np.linalg.norm(apply_hamiltonian(g, vec) - lam * vec)
    if residual > max(tol, 1e-12) * max(1.0, abs(lam)):
        raise ConvergenceError(f"residual {residual} exceeds tolerance {tol}")
    return lam


def simulate_variational_state(g: WeightedGraph, bits, theta: float,
                               cap: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """Apply the commuting gate product prod_{{j,k} in E} exp(i theta P(j)P(k)) to |bits>.

    P(j) = X if bit j is 1, else Y. Gates commute, so they are applied in edge
    order; edge weights do not enter the circuit. P(u)P(v) flips axes u and v;
    as Y|b> = i(-1)^b |1-b>, each Y axis also takes the phase -i on output
    bit 0 and +i on output bit 1.
    """
    _check_cap(g.n, cap)
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
        bu = (idx >> (n - 1 - u)) & 1
        bv = (idx >> (n - 1 - v)) & 1
        total += w * (bu ^ bv)
    k = int(np.argmax(total))
    bits = tuple(int((k >> (n - 1 - q)) & 1) for q in range(n))
    return float(total[k]), bits
