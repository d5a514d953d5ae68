"""Small-instance ground truth: exact maximum energy, energies, circuits.

The Heisenberg-interaction Hamiltonian of a weighted graph acts on 2^n
amplitudes. Per edge {i,j} the term w * (1/2)(I - XX - YY - ZZ) equals
w * (I - SWAP_ij), and SWAP_ij swaps axes i and j of the amplitude tensor,
so H_G = W * I - sum_e w_e SWAP_e is applied to a state by axis swaps.
Energies and the circuit, whose state does not conserve S_z, use that.

The maximum eigenvalue is found on one block of H_G. A swap keeps the
number of 1 bits, so the states of each Hamming weight span an invariant
subspace, and a spin-S multiplet has a member in every weight from n/2 - S
to n/2 + S. `top_sector` picks the smallest weight that provably holds
lambda_max:
- If the positive-weight edges form one connected bipartite graph with
  sides A and B, min(|A|, |B|). H_G = W/2 - 2 sum_e w_e S_u.S_v, so its top
  multiplet is the ground multiplet of that antiferromagnet, of total spin
  ||A| - |B||/2 (Lieb and Mattis, J. Math. Phys. 3, 749 (1962)). A star
  gives the n states of weight 1: its weighted Laplacian.
- Otherwise floor(n/2) (S_z = 0 or 1/2), which holds every multiplet.
- With no positive weight H_G = 0, and weight 0, one state, holds it.

The block is a `Csr` of numpy arrays (`sector_hamiltonian`). Up to
`DENSE_DIM` rows it is densified and solved by `np.linalg.eigvalsh`, whose
top value is lambda_max to within backward error: it certifies the
*largest* eigenvalue. Larger blocks go to a thick-restart Lanczos in numpy
that stops on its own residual certificate, which bounds the distance to
*an* eigenvalue; each step is one `graphs.csr_product`, scipy's compiled
CSR routine, and the oracle imports nothing from scipy. `max_eigenvalue`
returns the value with its block and certificate. Measured crossover,
exp-weighted G(n, 0.4) sectors, ms per solve of the block built (1 BLAS
thread, 2-vCPU x86-64 VM):

    dim        20    35    70    126   165   252
    Lanczos    0.48  0.79  1.09  1.93  1.26  1.99
    eigvalsh   0.05  0.09  0.31  0.87  1.59  3.63

Bit convention: qubit q is axis q of amplitudes.reshape([2]*n), i.e. bit q of
index i is (i >> (n-1-q)) & 1, so a bit string reads like the binary index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import (Csr, WeightedGraph, check_bits, csr_product, depth_parity,
                     pair_depth_parity)

QUBIT_CAP = 20  # states, energies and the eigenvalue: at most this many qubits
BRUTE_FORCE_CAP = 24
DENSE_DIM = 128  # largest block solved by eigvalsh: the crossover in the module docstring
RESIDUAL_TOL = 1e-8  # Lanczos stops at ||H v - lam v|| <= RESIDUAL_TOL * lam
_BLOCK = 2 ** 18  # entries per block of the sector build and of a Lanczos restart
_BASIS = 30  # Lanczos vectors: 44 MiB at the qubit cap
_CHECKS = (6, 9, 13, 19)  # steps that solve the projected matrix, besides a full basis
_RESTARTS = 20000  # each takes _BASIS / 2 products with H; then ConvergenceError


class ResourceLimitError(RuntimeError):
    """Instance exceeds the qubit cap."""


class ConvergenceError(RuntimeError):
    """Eigensolver failed to certify convergence."""


def _check_cap(n, cap):
    if n > cap:
        raise ResourceLimitError(f"{n} qubits exceeds the cap of {cap}")


def basis_state(n: int, bits) -> np.ndarray:
    """Computational basis state |bits> as a 2^n amplitude vector (`check_bits`)."""
    index = tuple(check_bits(bits, n))
    psi = np.zeros([2] * n, dtype=complex)
    psi[index] = 1.0
    return psi.reshape(-1)


def apply_hamiltonian(g: WeightedGraph, psi: np.ndarray) -> np.ndarray:
    """Return H_G |psi> (unnormalized), preserving the input dtype."""
    _check_cap(g.n, QUBIT_CAP)
    t = np.asarray(psi).reshape([2] * g.n)
    out = g.total_weight * t
    for u, v, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist()):
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


@dataclass(frozen=True)
class Eigenvalue:
    """What `max_eigenvalue` found: lambda_max `value`, certified "dense" (eigvalsh)
    or "lanczos-residual", on its block of the `dim` states of Hamming weight `ones`."""

    value: float
    certificate: str
    ones: int
    dim: int


def top_sector(g: WeightedGraph) -> int:
    """The smallest Hamming weight whose block of H_G provably holds its
    largest eigenvalue, by the rule in the module docstring. The sides come
    from one BFS over the positive-weight edges: the graph's own `csr` when
    no weight is zero, as that is built once per graph."""
    _check_cap(g.n, QUBIT_CAP)
    n, positive = g.n, g.w > 0
    if not positive.any():
        return 0  # H_G = 0
    u, v = g.u[positive], g.v[positive]
    count, parity = (depth_parity(g.csr) if len(u) == len(g.u)
                     else pair_depth_parity(n, u, v))
    side = np.array(parity)
    a = int(side.sum())
    return min(a, n - a) if count == 1 and (side[u] != side[v]).all() else n // 2


def sector_hamiltonian(g: WeightedGraph, ones: int) -> Csr:
    """H_G on the sorted basis states of Hamming weight `ones`, as a `Csr` of
    new int32 and float arrays the caller owns; row and column i stand for
    the i-th smallest index.

    On a state whose bits at u and v differ, the edge term w (I - SWAP_uv)
    adds w on the diagonal and -w at the partner with both bits swapped; on
    any other state it is zero. Each row holds its diagonal, then one entry
    per such edge in edge order. Every edge has 2 C(n-2, ones-1) such
    states, so the arrays are allocated at their final size and filled in
    blocks of rows, at most `_BLOCK` (row, edge) pairs each. A table over all
    2^n indices gives the row of each partner, and -1 for a partner outside
    the sector: the bits at u and v agreed.
    """
    n, m = g.n, len(g.u)
    if not 0 <= ones <= n:
        raise ValueError(f"Hamming weight {ones} outside 0..{n}")
    states = np.flatnonzero(np.bitwise_count(np.arange(2 ** n)) == ones)
    dim = len(states)
    rank = np.full(2 ** n, -1, dtype=np.int32)
    rank[states] = np.arange(dim)
    flips = (1 << (n - 1 - g.u)) | (1 << (n - 1 - g.v))
    nnz = dim + (2 * m * math.comb(n - 2, ones - 1) if m and 0 < ones < n else 0)
    indptr = np.zeros(dim + 1, dtype=np.int32)
    indices = np.empty(nnz, dtype=np.int32)  # int32: 3M entries on a 3-regular n=20 graph
    data = np.empty(nnz)
    step = _BLOCK // (m + 1)
    for r0 in range(0, dim, step):
        s = states[r0:r0 + step]
        cols = np.empty((len(s), m + 1), dtype=np.int32)  # column 0: the diagonal
        cols[:, 0] = np.arange(r0, r0 + len(s))
        cols[:, 1:] = rank[s[:, None] ^ flips]
        keep = cols >= 0
        vals = np.empty(cols.shape)
        vals[:, 0] = keep[:, 1:] @ g.w
        vals[:, 1:] = -g.w
        at = np.flatnonzero(keep)  # row by row: CSR order
        lo = indptr[r0]
        indptr[r0 + 1:r0 + 1 + len(s)] = lo + np.cumsum(keep.sum(axis=1))
        np.take(cols, at, out=indices[lo:lo + len(at)])
        np.take(vals, at, out=data[lo:lo + len(at)])
    return Csr(indptr, indices, data)


def _lanczos(h: Csr, bound: float) -> tuple[float, float]:
    """Top Ritz value lam of the symmetric h by thick-restart Lanczos with its
    residual ||h v - lam v||, unit v; returns once that is at most bound * lam,
    when the Krylov space is invariant, or after `_RESTARTS` restarts.

    From a fixed random start each step adds one product with h into a
    zeroed basis row (`csr_product`, bound once per row for the whole call)
    and orthogonalizes it twice, first against its predecessors in the
    recurrence, then against the whole basis, which one pass leaves
    drifting. At the steps `_CHECKS` and when the basis holds `_BASIS`
    vectors, the projected matrix V h V^T gives the top Ritz pair, and if
    the residual the recurrence predicts is within the bound, the residual
    itself is taken. A full basis restarts from its top half of Ritz
    vectors: restarts from the top one alone stalled on weighted stars,
    whose top eigenvalues lie about 1e-4 apart. A star of positive weights is
    connected and bipartite with one vertex on a side: its block is the n
    states of weight 1, dense up to n = `DENSE_DIM`. With an odd cycle added
    it is the C(n, floor(n/2)) states of weight floor(n/2), which from n = 10
    are more than `DENSE_DIM` and come here.
    """
    dim = len(h.indptr) - 1
    size = min(_BASIS, dim)
    basis = np.empty((size + 1, dim))  # orthonormal rows
    t = np.zeros((size, size))  # V h V^T, lower triangle
    start = np.random.default_rng(7).standard_normal(dim)  # fixed: reproducible failures
    basis[0] = start / np.linalg.norm(start)
    # row j + 1 starts as h times row j
    products = [csr_product(h, basis[j], basis[j + 1]) for j in range(size)]
    kept = 0
    for _ in range(_RESTARTS + 1):
        for j in range(kept, size):
            w = basis[j + 1]
            w.fill(0.0)
            products[j]()
            for lo in (0 if j == kept else j - 1, 0):  # after a restart, all kept are predecessors
                c = basis[lo:j + 1] @ w
                w -= c @ basis[lo:j + 1]
                t[j, lo:j + 1] += c
            beta = math.sqrt(w @ w)  # np.linalg.norm's bits, without its dispatch
            if j + 1 < size and j + 1 not in _CHECKS and beta > bound:
                w /= beta
                continue
            try:
                lams, ys = np.linalg.eigh(t[:j + 1, :j + 1])
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(f"Lanczos failed: {exc}") from exc
            lam, residual = lams[-1], beta * abs(ys[j, -1])
            if residual <= bound * lam:
                v = ys[:, -1] @ basis[:j + 1]
                hv = -lam * v
                csr_product(h, v, hv)()
                residual = np.linalg.norm(hv)
                if residual <= bound * lam:
                    return lam, residual
            if beta <= bound:  # an invariant Krylov space: no restart adds to it
                return lam, residual
            if j + 1 == size:
                break
            w /= beta
        kept = size // 2
        top = ys[:, -kept:].T
        cols = _BLOCK // size
        for c in range(0, dim, cols):  # in place, a block of columns at a time
            basis[:kept, c:c + cols] = top @ basis[:size, c:c + cols]
        basis[kept] = basis[size] / beta
        t.fill(0.0)
        np.fill_diagonal(t[:kept, :kept], lams[-kept:])
    return lam, residual


def max_eigenvalue(g: WeightedGraph) -> Eigenvalue:
    """Largest eigenvalue of H_G, its certificate and the block it came from:
    that of the weight `top_sector(g)` names, an invariant subspace that holds it.

    A block of at most `DENSE_DIM` states is densified and solved by
    eigvalsh, exact to within backward error. A larger one goes to Lanczos,
    which stops as soon as the residual ||H v - lam v|| of its top Ritz pair
    is at most `RESIDUAL_TOL` * lam. ConvergenceError if either eigensolve
    fails, or if the residual is still too large after `_RESTARTS` restarts.

    Both run on H / 2^k, k the graph's `weight_exponent`, and lam is scaled
    back: the scaling is exact, no square in the residual overflows, and as
    lam >= 2 max w (the top of one edge's term), lam >= 1 in those units, so
    the relative bound needs no floor and holds at any weight scale."""
    ones = top_sector(g)
    h = sector_hamiltonian(g, ones)  # real symmetric
    dim = len(h.indptr) - 1
    k = g.weight_exponent
    np.ldexp(h.data, -k, out=h.data)
    certificate = "dense" if dim <= DENSE_DIM else "lanczos-residual"
    if certificate == "dense":
        dense = np.zeros((dim, dim))
        dense[np.repeat(np.arange(dim), np.diff(h.indptr)), h.indices] = h.data
        try:
            lam = np.linalg.eigvalsh(dense)[-1]
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"dense eigensolve failed: {exc}") from exc
    else:
        lam, residual = _lanczos(h, RESIDUAL_TOL)
        if residual > RESIDUAL_TOL * lam:
            raise ConvergenceError(f"Lanczos residual {np.ldexp(residual, k)} "
                                   f"exceeds tolerance {RESIDUAL_TOL}")
    return Eigenvalue(float(np.ldexp(lam, k)), certificate, ones, dim)


def simulate_variational_state(g: WeightedGraph, bits, theta: float) -> np.ndarray:
    """Apply the commuting gate product prod_{{j,k} in E} exp(i theta P(j)P(k))
    to |bits> (`check_bits`).

    P(j) = X if bit j is 1, else Y. Gates commute, so they are applied in edge
    order; edge weights do not enter the circuit. P(u)P(v) flips axes u and v;
    as Y|b> = i(-1)^b |1-b>, each Y axis also takes the phase -i on output
    bit 0 and +i on output bit 1.
    """
    _check_cap(g.n, QUBIT_CAP)
    n = g.n
    bits = check_bits(bits, n).tolist()
    t = basis_state(n, bits).reshape([2] * n)
    y_phase = [np.array([-1j, 1j]).reshape([2 if a == q else 1 for a in range(n)])
               for q in range(n)]
    c, s = np.cos(theta), np.sin(theta)
    for u, v in zip(g.u.tolist(), g.v.tolist()):
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
    for u, v, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist()):
        total += w * (((idx >> (n - 1 - u)) ^ (idx >> (n - 1 - v))) & 1)
    k = int(np.argmax(total))
    bits = tuple(int((k >> (n - 1 - q)) & 1) for q in range(n))
    return float(total[k]), bits
