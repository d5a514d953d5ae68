"""Source checks: library invariants must survive `python -O`, only the CLI
composes stages, every source line fits in 100 columns, and no module
imports scipy: only `graphs` loads scipy's compiled CSR routines."""
import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "quantum_maxcut").glob("*.py"))
# Stages whose outcomes later stages take as arguments, never recompute.
STAGES = {"solve_maxcut_sdp", "gw_round", "rank3_round", "match_forest_decompose"}


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statement at line(s) {lines}; raise instead"


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_lines_fit_in_100_columns(path):
    long = [i for i, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert not long, f"{path.name}: line(s) {long} longer than 100 characters"


@pytest.mark.parametrize("path", [p for p in SRC if p.name in ("states.py", "circuit.py")],
                         ids=lambda p: p.name)
def test_stages_take_their_inputs(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & STAGES, (
        f"{path.name} refers to {sorted(names & STAGES)}; take the outcome as an argument")


def test_only_the_kernel_calls_private_scipy():
    """One module names scipy's private extension `_sparsetools`: `graphs`,
    whose `_load_sparsetools` loads it and whose `csr_product` and
    `WeightedGraph.triangles` are the callers of its routines (pinned by
    `test_sdp.test_csr_product_matches_matmul`,
    `test_oracle.TestMaxEigenvalue.test_matvec_adds_the_product` and
    `test_graphs.TestTriangles`)."""
    names = [p.name for p in SRC if "_sparsetools" in p.read_text()]
    assert names == ["graphs.py"]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_scipy_linalg_imports(path):
    """No module has an import statement for scipy or any of its subpackages,
    at the top or inside a function, so none imports scipy.linalg, nor runs
    `scipy.sparse`'s package init: `test_cli.test_solve_imports_no_scipy_sparse`
    checks what a solve loads."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found.append(node.module)
    assert not found, f"{path.name} imports {found}"


def test_only_the_graph_takes_the_weight_exponent():
    """`WeightedGraph.weight_exponent` is the one place the exponent k of the
    w / 2^k scaling is worked out (by `frexp`); the SDP kernel and residual,
    the circuit energies and the oracle read it."""
    names = [p.name for p in SRC if "frexp" in p.read_text()]
    assert names == ["graphs.py"]


def test_only_main_writes_to_stderr():
    """`cli.main` is the CLI's one error path: every other function raises."""
    tree = ast.parse(next(p for p in SRC if p.name == "cli.py").read_text())
    writers = {getattr(top, "name", "<module>") for top in tree.body
               for node in ast.walk(top) if isinstance(node, ast.Attribute)
               and node.attr in ("stderr", "__stderr__")}
    assert writers == {"main"}, f"cli.py writes to stderr in {sorted(writers - {'main'})}"


def called(node):
    """The names of the functions called anywhere under an AST node."""
    return {c.func.id if isinstance(c.func, ast.Name) else c.func.attr
            for c in ast.walk(node) if isinstance(c, ast.Call)
            and isinstance(c.func, (ast.Name, ast.Attribute))}


def test_one_check_table_for_the_edge_list():
    """`WeightedGraph.__post_init__` is the one place that validates an edge
    list: the only caller of the check table `_raise_first`. `parse_graph`
    only tokenizes, so it neither checks weights nor looks for repeated pairs."""
    callers, parse = [], None
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef):
                callers += [f"{path.name}:{node.name}"] * ("_raise_first" in called(node))
                parse = node if node.name == "parse_graph" else parse
    assert callers == ["graphs.py:__post_init__"]
    assert not called(parse) & {"isfinite", "_repeats", "_raise_first"}


def test_the_solve_computes_nothing_twice():
    """`solve_maxcut_sdp` reads its objective and A V from the kernel's closing
    product: it makes no CSR product and no objective of its own."""
    tree = ast.parse(next(p for p in SRC if p.name == "sdp.py").read_text())
    solve = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "solve_maxcut_sdp")
    assert "mixing_ascent" in called(solve)
    assert not called(solve) & {"csr_product", "sdp_objective", "stack_objective"}


def test_the_kernel_reads_its_sweep_cap():
    """`mixing_ascent` reads `MAX_SWEEPS` at each call: it takes the graph, one
    start and the tolerance, and no sweep count."""
    tree = ast.parse(next(p for p in SRC if p.name == "sdp.py").read_text())
    kernel = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "mixing_ascent")
    assert [a.arg for a in kernel.args.args + kernel.args.kwonlyargs] == ["g", "vecs", "tol"]


def test_the_cli_calls_the_oracle_once():
    """`max_eigenvalue` is the one place that picks the block and solver and
    names the certificate: the CLI takes them from its result, so it neither
    runs the sector rule nor times the oracle by hand, only through `_timed`."""
    text = next(p for p in SRC if p.name == "cli.py").read_text()
    assert "top_sector" not in text
    timers = {getattr(top, "name", "<module>") for top in ast.parse(text).body
              if "perf_counter" in called(top)}
    assert timers == {"_timed"}


def test_the_candidate_builds_no_state():
    """`best_few_qubit_candidate` picks among the states the earlier stages
    built, the ones the report's entries show: it takes the tree-coloring
    pair as it takes the singlet pair, and colors, cuts and scores nothing.
    In `states`, `tree_coloring_state` is the one function that colors a forest."""
    tree = ast.parse(next(p for p in SRC if p.name == "states.py").read_text())
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    best = functions["best_few_qubit_candidate"]
    assert [a.arg for a in best.args.args] == ["tree", "singlet", "rounding"]
    assert not called(best) & {"two_color_forest", "cut_value", "tree_coloring_state",
                               "match_singlet_state", "sdp_objective"}
    colorings = {"two_color_forest", "depth_parity", "pair_depth_parity"}
    assert [name for name, node in functions.items() if called(node) & colorings] == [
        "tree_coloring_state"]


def test_rank3_round_flags_against_its_own_objective():
    """`rank3_round` takes the graph, the Gram factor, a seed and an attempt
    count, no bound: it flags failure against `sol.objective`, as `gw_round`
    does. Inside the package only the CLI calls `opt_upper_bound`, for the
    report's ratios."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SRC}
    rank3 = next(node for node in ast.walk(trees["sdp.py"])
                 if isinstance(node, ast.FunctionDef) and node.name == "rank3_round")
    assert [a.arg for a in rank3.args.args + rank3.args.kwonlyargs] == [
        "g", "sol", "seed", "attempts"]
    assert [name for name, tree in trees.items() if "opt_upper_bound" in called(tree)] == [
        "cli.py"]


def test_one_evaluator_per_candidate_form():
    """A basis state is scored by `cut_value`, and a pair-product state by
    `stack_objective` of its spin rows plus its matching term: the package
    exports no third evaluator and no state class of its own for the latter."""
    import quantum_maxcut

    assert not {"PairProductState", "pair_product_energy"} & set(dir(quantum_maxcut))
    tree = ast.parse(next(p for p in SRC if p.name == "states.py").read_text())
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "cut_value" in called(functions["tree_coloring_state"])
    assert "stack_objective" in called(functions["match_singlet_state"])


def test_one_owner_per_target():
    """The paper's 0.53 and the exact min-max's 0.55 are each written once in
    `cli`, as the `Fraction` constants that the candidate verdict and
    `reproduce` read."""
    text = next(p for p in SRC if p.name == "cli.py").read_text()
    owners = [line.split(" = ")[0] for line in text.splitlines()
              if re.search(r"\b0\.5[35]\b", line)]
    assert owners == ["EXACT_TARGET", "CANDIDATE_TARGET"]


def test_one_graph_representation():
    """A graph is its edge arrays `u`, `v`, `w` (and `csr`): no module reads
    an `edges` attribute, the class has no such field, `degree` is a
    read-only intp array, and `is_regular` gives a Python int, which the
    report's `regular_degree` writes as `3`, where numpy's would print `3.0`."""
    from quantum_maxcut import WeightedGraph, parse_graph

    reads = [f"{p.name}:{node.lineno}" for p in SRC
             for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
             if isinstance(node, ast.Attribute) and node.attr == "edges"]
    assert not reads, f"`.edges` read at {reads}"
    assert "edges" not in {f.name for f in dataclasses.fields(WeightedGraph)}
    g = parse_graph("0 1\n1 2\n2 0")
    assert not hasattr(g, "edges")
    assert g.degree.dtype == np.intp and not g.degree.flags.writeable
    assert type(g.is_regular()) is int and g.is_regular() == 2
