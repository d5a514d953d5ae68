"""The generators against pair-by-pair reference loops: the same edges, the
same weights and the same RNG state after the call."""
import numpy as np
import pytest

from quantum_maxcut import WeightedGraph
from quantum_maxcut.generate import (
    CONNECT_TRIES,
    PAIRING_TRIES,
    cycle_graph,
    gnp_graph,
    random_connected_graph,
    regular_graph,
    sample_weights,
    star_graph,
)
from quantum_maxcut.graphs import GraphError, depth_parity

KINDS = ("unit", "uniform", "exp")


def gnp_reference(n, p, rng, weights="unit"):
    """G(n, p) with one scalar draw per pair, in pair order."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    ws = sample_weights(weights, len(edges), rng)
    return WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(edges, ws)])


def connected_reference(n, p, rng, weights="unit"):
    """Rejection on connectivity, then a tree padded with one more pair loop."""
    for _ in range(CONNECT_TRIES):
        g = gnp_reference(n, p, rng, weights)
        if depth_parity(g.csr)[0] == 1:
            return g
    perm = list(rng.permutation(n))
    tree = [(perm[i], perm[i + 1]) for i in range(n - 1)]
    extra = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    keys = {(min(u, v), max(u, v)) for u, v in tree}
    edges = list(keys) + [e for e in ((min(u, v), max(u, v)) for u, v in extra)
                          if e not in keys]
    ws = sample_weights(weights, len(edges), rng)
    return WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(edges, ws)])


def regular_reference(n, d, rng, weights="unit"):
    """The pairing model: shuffle the stubs until no loop or repeated edge."""
    stubs = np.repeat(np.arange(n), d)
    for _ in range(PAIRING_TRIES):
        rng.shuffle(stubs)
        keys = set()
        for a, b in stubs.reshape(-1, 2).tolist():
            if a == b or (min(a, b), max(a, b)) in keys:
                break
            keys.add((min(a, b), max(a, b)))
        else:
            ws = sample_weights(weights, len(keys), rng)
            return WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(sorted(keys), ws)])
    raise GraphError("pairing model failed to produce a simple graph")


def assert_same(make, reference, seed):
    """make and reference, each on a fresh generator of `seed`, give graphs
    with the same n and the same bytes of u, v, w, and leave their generators
    in equal states."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    g, h = make(rng), reference(ref_rng)
    assert g.n == h.n
    assert all(a.tobytes() == b.tobytes() for a, b in zip((g.u, g.v, g.w), (h.u, h.v, h.w)))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", [0.0, 0.1, 0.4, 0.9, 1.0])
def test_gnp_matches_pair_loop(p, kind):
    for seed in range(10):
        for n in (1, 2, 3, 5, 8, 12, 30):
            assert_same(lambda rng: gnp_graph(n, p, rng, kind),
                        lambda rng: gnp_reference(n, p, rng, kind), seed)


@pytest.mark.parametrize("kind", KINDS)
def test_connected_matches_pair_loop(kind):
    """Rejection at p = 0.4 and 0.9, and the padding after CONNECT_TRIES
    failures at G(12, 0.01), which is almost never connected."""
    cases = [(seed, n, p) for seed in range(5) for n in (1, 2, 5, 12) for p in (0.4, 0.9)]
    for seed, n, p in cases + [(0, 12, 0.01)]:
        assert_same(lambda rng: random_connected_graph(n, p, rng, kind),
                    lambda rng: connected_reference(n, p, rng, kind), seed)


@pytest.mark.parametrize("kind", KINDS)
def test_regular_star_cycle_match_references(kind):
    for seed in range(5):
        for n in (4, 8, 12):
            assert_same(lambda rng: regular_graph(n, 3, rng, kind),
                        lambda rng: regular_reference(n, 3, rng, kind), seed)
            assert_same(lambda rng: star_graph(n, kind, rng),
                        lambda rng: WeightedGraph.from_edges(
                            n, [(0, v, w) for v, w in
                                enumerate(sample_weights(kind, n - 1, rng), 1)]), seed)
            assert_same(lambda rng: cycle_graph(n, kind, rng),
                        lambda rng: WeightedGraph.from_edges(
                            n, [(v, (v + 1) % n, w) for v, w in
                                enumerate(sample_weights(kind, n, rng))]), seed)



@pytest.mark.parametrize("kind, edges, state", [
    ("unit", ((0, 1, 1.0), (0, 4, 1.0), (1, 3, 1.0), (2, 3, 1.0)),
     72780832909491781002118416579071300325),
    ("exp", ((0, 3, 0.0018691730287954329), (0, 4, 0.8212897033214399),
             (1, 2, 0.14309163031586639), (1, 4, 2.1768294093094633)),
     129645811320608282106713265716104536944),
])
def test_pad_path_pinned(kind, edges, state):
    """G(5, 0.01) is never connected in CONNECT_TRIES draws: the padded graph
    and the generator's state after the call, as recorded."""
    rng = np.random.default_rng(7)
    g = random_connected_graph(5, 0.01, rng, kind)
    assert (g.n, tuple(zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))) == (5, edges)
    assert rng.bit_generator.state["state"]["state"] == state


@pytest.mark.parametrize("n", [0, -1, -3])
def test_no_vertices_rejected(n):
    """A vertex count below one is a GraphError for both G(n, p) generators,
    before any draw."""
    for generator in (gnp_graph, random_connected_graph):
        rng = np.random.default_rng(0)
        with pytest.raises(GraphError, match="at least one vertex"):
            generator(n, 0.5, rng)
        assert rng.random() == np.random.default_rng(0).random()
