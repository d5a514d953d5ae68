"""Seeded workload recipes for the `qmaxcut solve` benchmark.

Instances are drawn with plain numpy, never with `quantum_maxcut.generate`,
so a change to the program's own generators cannot change a workload. The
same seed always gives the same edge-list files and the same solve seeds.

Every instance is connected: the tree-coloring algorithm needs a spanning
tree, and a disconnected graph is a known failure of the program rather than
something this benchmark measures. The vertex counts of a workload follow a
fixed schedule and only the structure and weights come from the seed, so
two seeds give work of the same size.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Instance:
    """A weighted graph as edge arrays, plus the `--seed` of its solve."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    solve_seed: int

    @property
    def total_weight(self) -> float:
        return float(self.w.sum())

    def edge_list(self) -> str:
        """The edge-list document `qmaxcut solve` reads; `repr` keeps every digit."""
        return "".join(f"{a} {b} {x!r}\n"
                       for a, b, x in zip(self.u.tolist(), self.v.tolist(),
                                          self.w.tolist()))


def _is_connected(n: int, u: np.ndarray, v: np.ndarray) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parts = n
    for a, b in zip(u.tolist(), v.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            parts -= 1
    return parts == 1


def _instance(n, pairs, w, rng) -> Instance:
    pairs = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return Instance(n=n, u=pairs[order, 0], v=pairs[order, 1],
                    w=np.asarray(w, dtype=float)[order],
                    solve_seed=int(rng.integers(0, 2**31 - 1)))


def weights(kind: str, m: int, rng) -> np.ndarray:
    """"unit" (all 1) or "exp" (exponential with mean 1)."""
    if kind == "unit":
        return np.ones(m)
    if kind == "exp":
        return rng.exponential(1.0, m)
    raise ValueError(f"unknown weight model {kind!r}")


def regular3(n: int, rng, kind: str = "unit") -> Instance:
    """Uniform random connected simple 3-regular graph: pairing model with
    rejection of loops, multi-edges and disconnected draws."""
    if n < 4 or n % 2:
        raise ValueError("a 3-regular graph needs an even n >= 4")
    stubs = np.repeat(np.arange(n), 3)
    while True:
        pairs = np.sort(rng.permutation(stubs).reshape(-1, 2), axis=1)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        if len(np.unique(pairs[:, 0] * n + pairs[:, 1])) != len(pairs):
            continue
        if _is_connected(n, pairs[:, 0], pairs[:, 1]):
            return _instance(n, pairs, weights(kind, len(pairs), rng), rng)


def gnp(n: int, p: float, rng, kind: str = "exp") -> Instance:
    """G(n, p) conditioned on being connected, by rejection."""
    iu, ju = np.triu_indices(n, k=1)
    while True:
        keep = rng.random(len(iu)) < p
        if _is_connected(n, iu[keep], ju[keep]):
            pairs = np.stack([iu[keep], ju[keep]], axis=1)
            return _instance(n, pairs, weights(kind, len(pairs), rng), rng)


def gnm(n: int, m: int, rng, kind: str = "exp") -> Instance:
    """G(n, m): m distinct edges drawn uniformly, conditioned on being
    connected, by rejection. Unlike G(n, p) the edge count, and with it the
    work of a solve, is the same for every draw."""
    iu, ju = np.triu_indices(n, k=1)
    while True:
        keep = np.sort(rng.choice(len(iu), size=m, replace=False))
        if _is_connected(n, iu[keep], ju[keep]):
            pairs = np.stack([iu[keep], ju[keep]], axis=1)
            return _instance(n, pairs, weights(kind, m, rng), rng)


def star(n: int, rng, kind: str = "exp") -> Instance:
    """Center 0 joined to leaves 1..n-1."""
    pairs = [(0, leaf) for leaf in range(1, n)]
    return _instance(n, pairs, weights(kind, n - 1, rng), rng)


def cycle(n: int, rng, kind: str = "unit") -> Instance:
    """The cycle 0-1-...-(n-1)-0 on randomly permuted vertex labels."""
    perm = rng.permutation(n)
    pairs = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    return _instance(n, pairs, weights(kind, n, rng), rng)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    flags: tuple[str, ...]   # `qmaxcut solve` flags besides the file and --seed
    build: Callable[[np.random.Generator], list[Instance]]
    warmup: Callable[[np.random.Generator], Instance]
    exact: bool              # small enough for the benchmark's own OPT reference
    group: int = 1           # instances a run solves as one unit, never cut short


def _regular3_sdp(rng):
    return [regular3(n, rng) for n in REGULAR3_SIZES]


def _weighted_gnp_circuit(rng):
    return [gnm(n, round(GNP_DEGREE * n / 2), rng) for n in GNP_SIZES]


def _small_batch(rng):
    out = []
    for k in range(SMALL_BATCH_ROUNDS):
        n = 6 + k % 9                      # 6..14, the same schedule every seed
        out.append(star(n, rng))
        out.append(cycle(n, rng))
        out.append(regular3(n + n % 2, rng))
        out.append(gnp(n, SMALL_P, rng))
    return out


# Vertex-count schedules and the reasons for them.
#
# Across seeds, the benchmark compares the median solve of one run with
# that of another, so each workload keeps the work of a solve as nearly
# the same for every draw as its purpose allows: fixed vertex counts, a
# fixed edge count where the graph family allows it, and no stopping rule
# whose outcome depends on the draw.
#
# regular3-sdp: the SDP stops at 2000 sweeps or when the relative objective
# change of a sweep is at most `--tol`. With the default 1e-13 a draw took
# 324 to 2000 sweeps at n=150 and 1842 to 2000 at n=800, and even `--tol 0`
# stops early on an exactly repeated objective, so solve time followed the
# draw. `--tol -1` never stops early: every solve makes exactly the 2000
# sweeps of the cap, and the SDP takes all but a few per cent of it. At
# n=100 a solve takes about 2.3 s, so a 30 s run makes about eleven; at
# n=200 it made five, too few for a steady median, and the calibration
# loops between 5 s solves missed changes of host speed within them.
#
# weighted-gnp-circuit: with the default tolerance the SDP took 150 to 2000
# sweeps on these graphs, which swamped the angle search this workload is
# for; `--tol 1e-6` stops it after 35-60 sweeps. What remains is dominated
# by `optimize_angle` (a fixed 476 `circuit_energy` calls, each recomputing
# triangles and the cut partition) and by the four roundings. G(n, m) at a
# mean degree of 20 instead of G(n, p), and one vertex count: the work of
# those calls grows with the edge count, which G(n, p) lets vary by draw.
# n=100-160 gave 2-3 s solves, too few in a run for a steady median; at
# n=50 a 30 s run makes over twenty solves of about 1.1 s.
#
# small-batch: a run solves whole groups of 36 instances, one round of the
# n schedule over all four families each, about 5 s per group, so a run
# makes over 200 solves. n <= 9 takes the oracle's dense 2^n path,
# n = 10..14 its Lanczos path: the same path `--oracle on` takes, so this
# workload also carries the oracle's per-layer metrics.
#
# Each list holds more instances than a 30 s run solves on the machines
# tried; a run that gets through them all starts again from the first.
REGULAR3_SIZES = (100,) * 16
GNP_SIZES = (50,) * 32
GNP_DEGREE = 20.0
SMALL_BATCH_ROUNDS = 54
SMALL_P = 0.4

WORKLOADS = {w.name: w for w in (
    Workload(
        name="regular3-sdp",
        why="unweighted 3-regular graphs, n=100, oracle off, SDP tol -1: every "
            "solve runs the 2000-sweep cap, so the SDP dominates; circuit takes "
            "the regular angle",
        flags=("--oracle", "off", "--tol", "-1"),
        build=_regular3_sdp,
        warmup=lambda rng: regular3(16, rng),
        exact=False,
    ),
    Workload(
        name="weighted-gnp-circuit",
        why="exp-weighted G(n,m), n=50, m=500, oracle off, SDP tol 1e-6: "
            "irregular with triangles, so the circuit angle search dominates",
        flags=("--oracle", "off", "--tol", "1e-6"),
        build=_weighted_gnp_circuit,
        warmup=lambda rng: gnp(16, 0.5, rng),
        exact=False,
    ),
    Workload(
        name="small-batch",
        why="groups of 36 stars, cycles, 3-regular and G(n,0.4) graphs, n=6-14, default "
            "flags: fixed per-solve cost and the dense oracle dominate",
        flags=(),
        build=_small_batch,
        warmup=lambda rng: gnp(8, SMALL_P, rng),
        exact=True,
        group=4 * 9,   # one round of the n schedule over all four families
    ),
)}


def instances(workload: Workload, seed: int) -> tuple[Instance, list[Instance]]:
    """The warm-up instance and the measured instances for one seed."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    return workload.warmup(rng), workload.build(rng)
