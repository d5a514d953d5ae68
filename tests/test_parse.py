"""`parse_graph` and the `WeightedGraph` constructor against plain per-line
and per-edge reference loops kept in this file: the same graph bit for bit,
or the same error type and message."""
import math

import numpy as np
import pytest
from test_cli import fuzz_cases

from quantum_maxcut import GraphError, ParseError, WeightedGraph, graphs, parse_graph
from quantum_maxcut.graphs import MAX_VERTEX_ID, _read_columns

BIG = MAX_VERTEX_ID + 1


def reference_parse(text):
    """(n, edges) of an edge-list document, one line at a time: each line's
    checks in order, the first failing one raising; then the canonical edge
    tuple and the total-weight check of the constructor."""
    rows, seen = [], set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'u v [w]', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: vertex ids must be integers") from None
        w = 1.0
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: weight must be a real number") from None
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        if not math.isfinite(w):
            raise ParseError(f"line {lineno}: weight must be finite, got {w}")
        if w < 0:
            raise ParseError(f"line {lineno}: negative weight {w}")
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id")
        if max(u, v) > MAX_VERTEX_ID:
            raise ParseError(f"line {lineno}: vertex id too large, above {MAX_VERTEX_ID}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate edge {key}")
        seen.add(key)
        rows.append((*key, w))
    if not rows:
        raise ParseError("no edges in document")
    edges = tuple(sorted(rows, key=lambda e: e[:2]))
    total = sum(w for _, _, w in edges)
    if not math.isfinite(2 * total):
        raise GraphError(f"total weight {total} too large: twice it must be finite")
    return max(v for _, v, _ in edges) + 1, edges


def outcome(parse, text):
    """What parse does with text: ("graph", n, edges, bytes of u, v, w, their
    dtypes) or ("error", type, message)."""
    try:
        result = parse(text)
    except (ParseError, GraphError) as exc:
        return ("error", type(exc), str(exc))
    if isinstance(result, WeightedGraph):
        arrays = (result.u, result.v, result.w)
        n, edges = result.n, tuple(zip(*(a.tolist() for a in arrays)))
    else:
        n, edges = result
        arrays = (np.array([e[0] for e in edges], dtype=np.intp),
                  np.array([e[1] for e in edges], dtype=np.intp),
                  np.array([e[2] for e in edges], dtype=float))
    return ("graph", n, edges, tuple((a.dtype.str, a.tobytes()) for a in arrays))


def random_documents(count=200, seed=19):
    """Seeded exp-weighted documents on up to 12 vertices: pairs in random
    order and orientation, some with the default weight, with comments and
    blank lines; about half carry one or two faults from `faults`, and some
    repeat a pair."""
    rng = np.random.default_rng(seed)
    faults = ["3 3", "0 1 -1", "0 1 nan", "0 1 inf", "-1 2", f"0 {BIG}", f"{10**30} 1",
              "0 x", "0 1 y", "0 1 2 3", "7", "1.5 2", f"{BIG} x", "-0 1 -0", "0 1 1e-320"]
    docs = []
    for _ in range(count):
        n = int(rng.integers(2, 13))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picked = rng.permutation(len(pairs))[:int(rng.integers(1, len(pairs) + 1))]
        lines = []
        for i, w in zip(picked, rng.exponential(size=len(picked)).tolist()):
            u, v = pairs[i] if rng.random() < 0.5 else pairs[i][::-1]
            lines.append(f"{u} {v}" if rng.random() < 0.2 else f"{u} {v} {w!r}")
        if rng.random() < 0.3:
            lines.insert(int(rng.integers(len(lines) + 1)), lines[int(rng.integers(len(lines)))])
        for _ in range(int(rng.integers(3)) if rng.random() < 0.5 else 0):
            lines.insert(int(rng.integers(len(lines) + 1)), faults[rng.integers(len(faults))])
        for extra in ("# comment", "", "  \t"):
            if rng.random() < 0.3:
                lines.insert(int(rng.integers(len(lines) + 1)), extra)
        docs.append("\n".join(lines) + "\n")
    return docs


def repr_weight_document(lines=500, n=50, seed=23):
    """`lines` distinct exp-weighted pairs on n vertices, weights by `repr`."""
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = rng.permutation(len(pairs))[:lines]
    weights = rng.exponential(size=lines).tolist()
    return "".join(f"{pairs[i][0]} {pairs[i][1]} {w!r}\n" for i, w in zip(picked, weights))


# Documents where numpy's reader and Python's `int`/`float` could part ways,
# and whether the reader builds the graph (True) or leaves it to the loop.
READER_CASES = [
    ("0 1 1_0\n", False),  # Python takes the underscore, numpy does not
    ("0 1 \u0663\n", False),  # an Arabic-Indic 3
    ("0 \u0663 1\n", False),
    ("99999999999999999999 1 2\n", False),  # beyond intp
    ("1.0 2 3\n", False),  # not an integer to `int`
    ("1.5 2 3\n", False),
    ("0\xa01 2\n", True),  # NBSP: whitespace to both
    ("0\u20031 2\n1 2 3\n", True),  # EM SPACE
    ("0\v1 2\n", False),  # \v and \f end a line for `splitlines`
    ("0\f1 2\n", False),
    ("0 1 2\r\n1 2 3\r\n", True),
    ("\ufeff0 1 2\n", False),  # a byte-order mark is not whitespace
    ("0 1 2\x00\n", False),
    ("0 1\x00 2\n", False),
    ("0 1 2\n1 2\n", False),  # mixed two- and three-token lines
    ("0 1\n1 2 3\n", False),
    ("0 1 2.5 # a comment\n1 2 3#another\n", True),
    ("0 1 -0\n", True),
    ("0 1 1e-320\n", True),
    (repr_weight_document(), True),
    ("# head\n\n  \t\n3 0 1.5\n", True),
    ("0 1 2\n1 0 3\n", False),  # the constructor rejects: duplicate,
    ("0 1 nan\n", False),  # non-finite weight,
    ("2 2 1\n", False),  # self-loop,
    ("0 -1 1\n", False),  # negative id
    (f"0 {BIG} 1\n", False),  # id above MAX_VERTEX_ID, which is intp max - 1
    (f"0 {BIG - 1} 1\n", True),
    ("0 1 1 1\n", False),
    ("0 1 x\n", False),
    ("", False),  # the reader warns
    ("# only\n\n", False),
]


@pytest.mark.parametrize("text, error, message", [
    # a fault on a later line whose check comes earlier in the order
    ("0 1 -1\n2 2\n", ParseError, "line 1: negative weight -1.0"),
    ("0 1 nan\n0 x\n", ParseError, "line 1: weight must be finite, got nan"),
    ("0 -1\n0 1 2 3\n", ParseError, "line 1: negative vertex id"),
    ("1 2\n0 1 inf\n5 5 -1\n", ParseError, "line 2: weight must be finite, got inf"),
    (f"0 1\n2 {10**30} 1\n1 0\n", ParseError,
     f"line 2: vertex id too large, above {MAX_VERTEX_ID}"),
    # two faults on one line
    ("3 3 -1\n", ParseError, "line 1: self-loop at vertex 3"),
    ("-1 -1 inf\n", ParseError, "line 1: self-loop at vertex -1"),
    ("0 -2 -1\n", ParseError, "line 1: negative weight -1.0"),
    ("a 1 x\n", ParseError, "line 1: vertex ids must be integers"),
    (f"-5 {BIG}\n", ParseError, "line 1: negative vertex id"),
    ("0 1 1 1 # four\n", ParseError, "line 1: expected 'u v [w]', got '0 1 1 1 # four'"),
    # a duplicate whose first occurrence is valid, and one whose is not
    ("0 1\n1 2\n1 0 5\n", ParseError, "line 3: duplicate edge (0, 1)"),
    ("0 1 -1\n0 1\n", ParseError, "line 1: negative weight -1.0"),
    ("0 1\n2 3 x\n1 0\n", ParseError, "line 2: weight must be a real number"),
    # a bad token count after a self-loop line, and before one
    ("4 4\n0 1 2 3\n", ParseError, "line 1: self-loop at vertex 4"),
    ("0 1\n1 2 3 4\n4 4\n", ParseError, "line 2: expected 'u v [w]', got '1 2 3 4'"),
    # an id above MAX_VERTEX_ID beside a non-integer token
    (f"{BIG} x\n", ParseError, "line 1: vertex ids must be integers"),
    (f"0 {BIG} x\n", ParseError, "line 1: weight must be a real number"),
    (f"{10**30} 1\n0 x\n", ParseError, f"line 1: vertex id too large, above {MAX_VERTEX_ID}"),
    # after every line
    ("# only\n\n", ParseError, "no edges in document"),
    ("0 1 1e308\n1 2 1e308\n", GraphError, "total weight inf too large: twice it must be finite"),
])
def test_error_precedence(text, error, message):
    with pytest.raises(error) as info:
        parse_graph(text)
    assert type(info.value) is error and str(info.value) == message
    assert outcome(reference_parse, text) == ("error", error, message)


def test_matches_reference_on_fuzz_corpus():
    texts = [text for text, _ in fuzz_cases() if text is not None]
    texts += [text for text, _ in READER_CASES]
    for text in texts:
        assert outcome(parse_graph, text) == outcome(reference_parse, text), text


def test_matches_reference_on_random_documents():
    results = [outcome(parse_graph, text) for text in random_documents()]
    assert results == [outcome(reference_parse, text) for text in random_documents()]
    kinds = [result[0] for result in results]
    assert 50 < kinds.count("graph") < 150  # both outcomes are exercised


@pytest.mark.parametrize("text, taken", READER_CASES,
                         ids=lambda x: ascii(x)[1:-1][:30] if isinstance(x, str) else None)
def test_reader_takes_only_three_token_documents(text, taken, monkeypatch):
    """A document of "u v w" lines that the constructor accepts never enters
    the per-line loop: `parse_graph` returns the reader's graph, the
    reference's. The reader returns None for every other document."""
    read = []
    monkeypatch.setattr(graphs, "_read_columns", lambda t: read.append(_read_columns(t)) or read[-1])
    g = parse_graph(text) if taken else None
    assert (_read_columns(text) is not None) == taken
    if taken:
        assert g is read[0] and outcome(lambda _: g, text) == outcome(reference_parse, text)


class TestConstructor:
    @pytest.mark.parametrize("edges, message", [
        # unsorted, with the duplicates of (0, 1) not adjacent
        (((2, 3, 1.0), (0, 1, 1.0), (1, 4, 1.0), (0, 1, 2.0)), "duplicate edge (0, 1)"),
        # a duplicate row whose weight is bad: the weight check comes first
        (((2, 3, 1.0), (0, 1, 1.0), (0, 1, -1.0), (4, 4, 1.0)), "negative weight -1.0"),
        (((3, 4, 1.0), (0, 1, float("nan")), (2, 3, 1.0), (1, 0, 1.0)),
         "weight must be finite, got nan"),
        # a pair given in the other orientation is the same pair
        (((2, 3, 1.0), (0, 1, 1.0), (3, 2, 1.0), (2, 3, 1.0)), "duplicate edge (2, 3)"),
        (((0, 9, 1.0), (3, 3, 1.0)), "vertex id too large, above 4"),
        (((1, 2, 1.0), (0, 10**30, 1.0)), "vertex id too large, above 4"),
        (((1, 2, -1.0), (2, 1, 1.0)), "negative weight -1.0"),
        (((1, 2, 1.0), (2, -1, 1.0)), "negative vertex id"),
        (((0, 1, 1.0), (3, 3, -1.0)), "self-loop at vertex 3"),
    ])
    def test_first_bad_edge_in_tuple_order(self, edges, message):
        with pytest.raises(GraphError) as info:
            WeightedGraph(5, *zip(*edges))
        assert str(info.value) == message

    def test_error_carries_row_and_reason(self):
        with pytest.raises(GraphError) as info:
            WeightedGraph(5, [2, 0, 3, 1], [3, 1, 2, 1], [1.0, 1.0, 1.0, -1.0])
        assert (info.value.row, info.value.reason) == (2, "duplicate edge (2, 3)")
        with pytest.raises(GraphError) as info:
            WeightedGraph(2, [0], [1], [1e308 * 1.5])
        assert info.value.row is None and info.value.reason.startswith("total weight")

    def test_any_order_in_sorted_out(self):
        g = WeightedGraph(5, [3, 0, 1], [2, 4, 0], [1.5, 0.5, 2.0])
        assert g.u.tolist() == [0, 0, 2] and g.v.tolist() == [1, 4, 3]
        assert g.w.tolist() == [2.0, 0.5, 1.5]

    def test_one_edge_set_one_graph(self):
        """The same edges in any order and orientation give graphs with the
        same arrays and a bit-equal total weight: summed in input order,
        the 2^-53 weights are kept after the 1 is added, and lost before."""
        weights = [1.0] + [2.0**-53] * 16
        rows = [(0, v, w) for v, w in enumerate(weights, 1)]
        rng = np.random.default_rng(2)
        variants = [rows, rows[::-1], [(v, u, w) for u, v, w in rows]]
        variants += [[rows[i][1::-1] + rows[i][2:] if rng.random() < 0.5 else rows[i]
                      for i in rng.permutation(len(rows))] for _ in range(5)]
        graphs = [WeightedGraph(18, *zip(*edges)) for edges in variants]
        g = graphs[0]
        assert g.total_weight == 1.0
        for h in graphs[1:]:
            assert all(a.tobytes() == b.tobytes() for a, b in zip((h.u, h.v, h.w), (g.u, g.v, g.w)))
            assert h.total_weight.hex() == g.total_weight.hex()

    @pytest.mark.parametrize("n, v", [
        (10**30, 10**29), (MAX_VERTEX_ID + 2, 1), (3.5, 1), (True, 0), ("3", 1),
        (np.float64(3.0), 1), (0, 1), (-2, 1)])
    def test_vertex_count_checked(self, n, v):
        """n must be an integer (not a bool) in 1..MAX_VERTEX_ID + 1."""
        with pytest.raises(GraphError, match="vertex count must be an integer|at least one"):
            WeightedGraph(n, [0], [v], [1.0])

    def test_vertex_count_of_any_integer_type(self):
        g = WeightedGraph(np.uint8(3), [0], [2], [1.0])
        assert type(g.n) is int and g.n == 3 and (g.u.tolist(), g.v.tolist()) == ([0], [2])

    def test_total_weight_is_the_sequential_sum(self):
        """Each 2^-53 rounds away when added to 1 in turn; a pairwise sum
        keeps them."""
        weights = [1.0] + [2.0**-53] * 16
        g = WeightedGraph.from_edges(18, [(0, v, w) for v, w in enumerate(weights, 1)])
        assert g.total_weight == sum(weights) == 1.0
        assert float(np.sum(g.w)) != g.total_weight

    @pytest.mark.parametrize("u, v", [
        ([0], [1.5]), ([0], ["1"]), ([0], [True]), ([0, 1], [1, True]),
        (np.array([0.0]), np.array([1.0])), (np.array([False]), np.array([True]))])
    def test_non_integer_ids_rejected(self, u, v):
        """An id that is not an integer is rejected, not truncated to another
        vertex."""
        with pytest.raises(GraphError, match="is not an integer"):
            WeightedGraph(3, u, v, [1.0] * len(u))

    @pytest.mark.parametrize("u, v, w", [
        ([0, 1], [1], [1.0, 1.0]), ([0], [1], [1.0, 2.0]), ([0], [1], []),
        (np.array([[0, 1]]), np.array([[1, 2]]), np.ones((1, 2))), (0, 1, 1.0)])
    def test_ragged_or_not_1d_rejected(self, u, v, w):
        with pytest.raises(GraphError, match="must be 1-D of one length"):
            WeightedGraph(3, u, v, w)

    @pytest.mark.parametrize("empty", [(), [], np.zeros(0), np.zeros(0, dtype=bool),
                                       np.zeros(0, dtype="U1"), np.zeros(0, dtype=np.uint64)])
    def test_empty_inputs_of_any_dtype(self, empty):
        g = WeightedGraph(2, empty, empty, empty)
        assert len(g.u) == len(g.v) == len(g.w) == 0 and g.total_weight == 0.0
        assert g.u.dtype == g.v.dtype == np.intp and g.w.dtype == float

    def test_integer_dtypes_converted_and_checked(self):
        g = WeightedGraph(3, np.array([0], dtype=np.int8), np.array([2], dtype=np.uint64), [1])
        assert g.u.dtype == g.v.dtype == np.intp
        assert (g.u.tolist(), g.v.tolist(), g.w.tolist()) == ([0], [2], [1.0])
        with pytest.raises(GraphError, match="vertex id too large, above 2"):
            WeightedGraph(3, np.zeros(1, dtype=np.uint64), np.full(1, 2**63, dtype=np.uint64), [1])

    def test_caller_arrays_copied_not_frozen(self):
        u, v, w = np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0])
        g = WeightedGraph(3, u, v, w)
        assert all(a.flags.writeable for a in (u, v, w))
        assert not any(a.flags.writeable for a in (g.u, g.v, g.w))
        assert not any(np.shares_memory(a, b) for a, b in ((u, g.u), (v, g.v), (w, g.w)))
        u[0], w[0] = 2, -1.0
        assert (g.u.tolist(), g.v.tolist(), g.w.tolist()) == ([0, 1], [1, 2], [1.0, 2.0])

    def test_parse_equals_from_edges_on_a_shuffled_reoriented_copy(self):
        rng = np.random.default_rng(4)
        edges = [(u, v, float(rng.exponential())) for u in range(8) for v in range(u + 1, 8)
                 if (u, v) == (0, 7) or rng.random() < 0.5]
        copy = [edges[i] if rng.random() < 0.5 else edges[i][1::-1] + edges[i][2:]
                for i in rng.permutation(len(edges))]
        g = parse_graph("".join(f"{u} {v} {w!r}\n" for u, v, w in copy))
        h = WeightedGraph.from_edges(8, copy)
        assert g.n == h.n == 8
        assert all(a.tobytes() == b.tobytes() for a, b in zip((g.u, g.v, g.w), (h.u, h.v, h.w)))
        assert list(zip(g.u.tolist(), g.v.tolist(), g.w.tolist())) == edges

    def test_from_edges_canonicalizes(self):
        g = WeightedGraph.from_edges(4, [(3, 1), (0, 2, 0.5), (1, 0, 2)])
        assert (g.u.tolist(), g.v.tolist(), g.w.tolist()) == ([0, 0, 1], [1, 2, 3], [2.0, 0.5, 1.0])
        assert g.u.dtype == g.v.dtype == np.intp and g.w.dtype == np.float64

    @pytest.mark.parametrize("edges", [[(0, 1, 1.0), (1, 2, 1.0, 9)], [(0,)], [(0, 1), ()]])
    def test_from_edges_items_of_two_or_three(self, edges):
        with pytest.raises(GraphError, match=r"\(u, v\) or \(u, v, w\) item"):
            WeightedGraph.from_edges(3, edges)

    @pytest.mark.parametrize("bad", [1.5, True, "2", np.float64(2.0)])
    def test_from_edges_ids_not_truncated(self, bad):
        with pytest.raises(GraphError, match="is not an integer"):
            WeightedGraph.from_edges(3, [(0, 1), (1, bad)])
