"""Checks of `qmaxcut solve` reports that share no code with the program.

A report passes only if its numbers agree with what the benchmark computes
itself from the edge arrays it generated: the tree-coloring cut re-scored
from its bits, the singlet matching re-validated, the trivial and
degree-sum bounds recomputed, and `opt` compared with an exact eigenvalue
from the benchmark's own eigensolver.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import eigsh

from workloads import Instance

ALGORITHM_LABELS = ("sdp-relaxation", "tree-coloring", "match-singlet",
                    "gw-cut", "rank3-product", "best-candidate",
                    "shallow-circuit")
DENSE_LIMIT = 400    # sector dimension up to which a dense eigensolve is used
REL_TOL = 1e-9       # slack for values recomputed from the same floats
OPT_TOL = 1e-6       # agreement between the program's opt and the reference


def sector_hamiltonian(inst: Instance):
    """H_G = sum_e w_e (I - SWAP_e) restricted to basis states of Hamming
    weight floor(n/2), as a sparse matrix.

    H_G commutes with total spin, and every spin multiplet has a member with
    S_z = 0 (n even) or 1/2 (n odd), so this sector holds every eigenvalue.
    """
    n, k = inst.n, inst.n // 2
    states = np.sort(np.array([sum(1 << b for b in c)
                               for c in combinations(range(n), k)], dtype=np.int64))
    dim = len(states)
    diag = np.zeros(dim)
    rows, cols, vals = [np.arange(dim)], [np.arange(dim)], []
    for a, b, w in zip(inst.u.tolist(), inst.v.tolist(), inst.w.tolist()):
        differ = np.nonzero(((states >> a) ^ (states >> b)) & 1)[0]
        diag[differ] += w
        rows.append(np.searchsorted(states, states[differ] ^ ((1 << a) | (1 << b))))
        cols.append(differ)
        vals.append(np.full(len(differ), -w))
    vals.insert(0, diag)
    return coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(dim, dim)).tocsr()


def opt_reference(inst: Instance) -> float:
    """Largest eigenvalue of H_G, with its own residual check."""
    h = sector_hamiltonian(inst)
    dim = h.shape[0]
    if dim <= DENSE_LIMIT:
        lams, vecs = np.linalg.eigh(h.toarray())
        lam, vec = float(lams[-1]), vecs[:, -1]
    else:
        v0 = np.random.default_rng(0).standard_normal(dim)
        lams, vecs = eigsh(h, k=1, which="LA", tol=1e-12, v0=v0)
        lam, vec = float(lams[0]), vecs[:, 0]
    residual = float(np.linalg.norm(h @ vec - lam * vec))
    if residual > 1e-8 * max(1.0, abs(lam)):
        raise RuntimeError(f"reference eigensolver residual {residual:.3g}")
    return lam


def upper_bounds(inst: Instance) -> tuple[float, float]:
    """(2W, W + (1/2) sum over vertices of the heaviest incident weight)."""
    heaviest = np.zeros(inst.n)
    np.maximum.at(heaviest, inst.u, inst.w)
    np.maximum.at(heaviest, inst.v, inst.w)
    total = inst.total_weight
    return 2.0 * total, total + 0.5 * float(heaviest.sum())


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _leq(a: float, b: float, tol: float = REL_TOL) -> bool:
    return a <= b + tol * max(1.0, abs(b))


def check_report(inst: Instance, report: dict | None, exit_code,
                 opt_ref: float | None, expect_opt: bool) -> list[str]:
    """Every way the solve failed; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if not isinstance(report, dict):
        return ["no report"]
    problems = []
    entries = {e.get("label"): e for e in report.get("algorithms", [])}
    for label in ALGORITHM_LABELS:
        value = entries.get(label, {}).get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: missing or non-finite value")
    if problems:
        return problems

    edges = {(a, b): w for a, b, w in zip(inst.u.tolist(), inst.v.tolist(),
                                          inst.w.tolist())}
    tree = entries["tree-coloring"]
    bits = tree.get("bits", "")
    if len(bits) != inst.n or set(bits) - {"0", "1"}:
        problems.append("tree-coloring: bits are not a length-n 0/1 string")
    else:
        cut = sum(w for (a, b), w in edges.items() if bits[a] != bits[b])
        if not _close(cut, tree["value"]):
            problems.append(f"tree-coloring: value {tree['value']!r} but the "
                            f"bits cut {cut!r}")

    singlet = entries["match-singlet"]
    pairs = [tuple(sorted(p)) for p in singlet.get("pairs", [])]
    matched = [x for p in pairs for x in p]
    if len(set(matched)) != len(matched) or any(p not in edges for p in pairs):
        problems.append("match-singlet: pairs are not vertex-disjoint edges")
    else:
        floor = 1.5 * sum(edges[p] for p in pairs) + inst.total_weight / 2
        if not _leq(floor, singlet["value"]):
            problems.append(f"match-singlet: value {singlet['value']!r} below "
                            f"(3/2)M + W/2 = {floor!r}")

    trivial, degree_sum = upper_bounds(inst)
    bounds = report.get("bounds", {})
    for key, own in (("trivial", trivial), ("degree_sum", degree_sum)):
        if not isinstance(bounds.get(key), (int, float)) or not _close(bounds[key], own):
            problems.append(f"bounds.{key}: {bounds.get(key)!r}, recomputed {own!r}")
    values = {label: e["value"] for label, e in entries.items()
              if label in ALGORITHM_LABELS and label != "sdp-relaxation"}
    for label, value in values.items():
        if not (_leq(value, bounds.get("trivial", trivial))
                and _leq(value, bounds.get("degree_sum", degree_sum))):
            problems.append(f"{label}: value {value!r} above an upper bound")

    opt = report.get("opt")
    if opt is None:
        if expect_opt:
            problems.append("opt missing although the oracle was requested")
        return problems
    if not isinstance(opt, (int, float)) or not math.isfinite(opt):
        return problems + [f"opt {opt!r} is not finite"]
    if opt_ref is not None and not _close(opt, opt_ref, OPT_TOL):
        problems.append(f"opt {opt!r} differs from the reference {opt_ref!r}")
    for label, value in values.items():
        if not _leq(value, opt):
            problems.append(f"{label}: value {value!r} above opt {opt!r}")
    best = bounds.get("best")
    if not isinstance(best, (int, float)) or not _leq(opt, best):
        problems.append(f"opt {opt!r} above bounds.best {best!r}")
    return problems


def best_value(report: dict) -> float:
    """Largest value over the algorithms that produce a state."""
    return max(e["value"] for e in report["algorithms"]
               if e["label"] in ALGORITHM_LABELS and e["label"] != "sdp-relaxation")
