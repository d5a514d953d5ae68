import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quantum_maxcut import bounds, cli, generate, graphs, oracle, sdp, states
from quantum_maxcut.cli import main
from test_graphs import exp_weighted_gnm

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSolve:
    def test_single_edge(self, tmp_path, capsys):
        path = tmp_path / "edge.txt"
        path.write_text("0 1 1.0\n")
        code, out = run(capsys, "solve", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["opt"] == pytest.approx(2.0, abs=1e-8)
        by_label = {e["label"]: e for e in report["algorithms"]}
        assert by_label["match-singlet"]["value"] == pytest.approx(2.0)
        assert by_label["match-singlet"]["ratio_vs_opt"] == pytest.approx(1.0)
        assert report["verdicts"]["candidate_ratio"] == "pass"

    def test_triangle(self, tmp_path, capsys):
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        code, out = run(capsys, "solve", str(path))
        assert code == 0
        report = json.loads(out)
        by_label = {e["label"]: e for e in report["algorithms"]}
        assert by_label["sdp-relaxation"]["value"] == pytest.approx(2.25, abs=1e-6)
        assert report["opt"] == pytest.approx(3.0, abs=1e-8)
        assert by_label["best-candidate"]["value"] >= 2.25 - 1e-6

    def test_bad_path(self, capsys):
        assert main(["solve", "/nonexistent/graph.txt"]) == 1

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 -3\n")
        assert main(["solve", str(path)]) == 1

    def test_deterministic_given_seed(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1 1\n1 2 2\n0 2 0.5\n2 3 1\n")
        _, out1 = run(capsys, "solve", str(path), "--seed", "7")
        _, out2 = run(capsys, "solve", str(path), "--seed", "7")
        r1, r2 = json.loads(out1), json.loads(out2)
        for e1, e2 in zip(r1["algorithms"] + [r1["oracle"]], r2["algorithms"] + [r2["oracle"]]):
            e1.pop("seconds", None)
            e2.pop("seconds", None)
        assert r1 == r2

    def test_algorithm_subset(self, tmp_path, capsys):
        path = tmp_path / "edge.txt"
        path.write_text("0 1\n")
        code, out = run(capsys, "solve", str(path), "--algorithms", "tree,singlet")
        assert code == 0
        labels = {e["label"] for e in json.loads(out)["algorithms"]}
        assert labels == {"sdp-relaxation", "tree-coloring", "match-singlet"}

    def test_no_warnings_on_zero_sums(self, tmp_path, capsys):
        """A zero-weight edge (0, 1) and an isolated vertex 2 give zero neighbor
        sums, which the SDP kernel divides by before it falls back to its
        masked step: no warning escapes, even as an error."""
        path = tmp_path / "g.txt"
        path.write_text("0 1 0\n1 3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", str(path)])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "edge.txt"
        path.write_text("0 1\n")
        dest = tmp_path / "report.json"
        code, _ = run(capsys, "solve", str(path), "--out", str(dest))
        assert code == 0
        assert json.loads(dest.read_text())["schema"] == 1


    def test_report_schema(self, tmp_path, capsys):
        path = tmp_path / "path.txt"
        path.write_text("0 1\n1 2 2\n2 3\n")
        code, out = run(capsys, "solve", str(path))
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"schema", "graph", "bounds", "opt", "oracle", "algorithms",
                               "verdicts"}
        # a path is bipartite with sides of two: the 6 states of weight 2, dense
        assert set(report["oracle"]) == {"certificate", "ones", "dim", "seconds"}
        assert report["oracle"]["certificate"] == "dense"
        assert (report["oracle"]["ones"], report["oracle"]["dim"]) == (2, 6)
        assert report["oracle"]["seconds"] > 0
        _, off = run(capsys, "solve", str(path), "--oracle", "off")
        assert json.loads(off)["oracle"] is None
        common = {"label", "value", "ratio_vs_upper_bound", "ratio_vs_opt", "seed",
                  "seconds"}
        extra = {
            "sdp-relaxation": {"rank", "converged", "sweeps", "residual", "gap"},
            "tree-coloring": {"bits"},
            "match-singlet": {"pairs"},
            "gw-cut": {"failed"},
            "rank3-product": {"failed"},
            "best-candidate": {"winner"},
            "shallow-circuit": {"theta", "layers", "warnings"},
        }
        by_label = {e["label"]: e for e in report["algorithms"]}
        assert set(by_label) == set(extra)
        for label, keys in extra.items():
            assert set(by_label[label]) == common | keys, label
        sdp_entry = by_label["sdp-relaxation"]
        assert sdp_entry["seconds"] > 0
        assert sdp_entry["sweeps"] >= 1 and sdp_entry["residual"] >= 0
        assert sdp_entry["gap"] >= 0
        assert report["bounds"]["sdp_combined"] == pytest.approx(
            3 * (sdp_entry["value"] + sdp_entry["gap"]) - 4.0)
        # a path is not 3- or 4-regular, so the circuit carries no guarantee
        assert by_label["shallow-circuit"]["warnings"] == [
            "energy guarantee only holds for 3- and 4-regular graphs"]

    @pytest.mark.parametrize("g, block", [
        pytest.param(generate.star_graph(9, weights="exp", rng=np.random.default_rng(3)),
                     ("dense", 1, 9), id="exp-star"),
        pytest.param(graphs.WeightedGraph.from_edges(
            10, [(u, v) for u in range(10) for v in range(u + 1, 10)]),
                     ("lanczos-residual", 5, 252), id="unit-K10"),
        pytest.param(graphs.WeightedGraph.from_edges(
            7, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0), (3, 4, 0.0), (4, 5, 1.0), (4, 6, 2.0)]),
                     ("dense", 3, 35), id="zero-weight-bridge"),
    ])
    def test_oracle_key_is_what_the_oracle_solved(self, tmp_path, capsys, g, block):
        """`opt` and the `oracle` key, but its `seconds`, are the fields of the
        one `max_eigenvalue` result, on each path: a Lieb-Mattis block solved
        dense, a floor(n/2) block by Lanczos, and the floor(n/2) fallback of a
        positive graph that a zero-weight edge disconnects."""
        path = tmp_path / "g.txt"
        path.write_text(generate.to_edge_list(g))
        code, out = run(capsys, "solve", str(path), "--algorithms", "tree")
        assert code == 0
        report = json.loads(out)
        top = oracle.max_eigenvalue(graphs.parse_graph(path.read_text()))
        assert (top.certificate, top.ones, top.dim) == block
        assert list(report["oracle"]) == ["certificate", "ones", "dim", "seconds"]
        del report["oracle"]["seconds"]
        assert report["oracle"] == {"certificate": top.certificate, "ones": top.ones,
                                    "dim": top.dim}
        assert report["opt"] == top.value

    def test_tree_on_disconnected_graph(self, tmp_path, capsys):
        """Each edge is the heaviest at both its ends, so F is the whole
        graph, two trees, and its coloring cuts both edges."""
        path = tmp_path / "two.txt"
        path.write_text("0 1\n2 3\n")
        code, out = run(capsys, "solve", str(path), "--algorithms", "tree")
        assert code == 0
        by_label = {e["label"]: e for e in json.loads(out)["algorithms"]}
        assert by_label["tree-coloring"]["bits"] == "0101"
        assert by_label["tree-coloring"]["value"] == 2.0

    def test_each_stage_runs_once(self, tmp_path, capsys, monkeypatch):
        """Stages that feed later ones (roundings, candidate states,
        decomposition) run once per solve; later stages take their outcome.
        The oracle runs once, and with it its sector rule."""
        traced = [(sdp, "gw_round"), (sdp, "rank3_round"), (states, "tree_coloring_state"),
                  (states, "match_singlet_state"), (graphs, "match_forest_decompose"),
                  (oracle, "top_sector"), (oracle, "max_eigenvalue")]
        calls = count_calls(monkeypatch, traced)
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
        code, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert calls == {name: 1 for _, name in traced}

    def test_upper_bound_computed_once(self, tmp_path, capsys, monkeypatch):
        """The report's bounds are computed once, for its ratios."""
        calls = count_calls(monkeypatch, [(bounds, "opt_upper_bound")])
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
        code, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert calls == {"opt_upper_bound": 1}


def test_winner_is_its_entry(tmp_path, capsys):
    """`best-candidate` reports the energy of the entry its winner names, and
    the `tree-coloring` entry is the state that cuts every edge of F, the
    forest of per-vertex heaviest edges. On 15 of these 20 graphs a BFS
    spanning-forest coloring of G cuts a different weight; with one rounding
    attempt the tree coloring wins on the second."""
    rng = np.random.default_rng(1)
    cases = [generate.regular_graph(12, 3, rng) for _ in range(10)]
    cases += [exp_weighted_gnm(12, 14, rng) for _ in range(10)]
    winners = []
    for g in cases:
        path = tmp_path / "g.txt"
        path.write_text(generate.to_edge_list(g))
        code, out = run(capsys, "solve", str(path), "--algorithms", "tree,singlet,rank3,best",
                        "--oracle", "off", "--attempts", "1")
        assert code == 0
        by_label = {e["label"]: e for e in json.loads(out)["algorithms"]}
        best = by_label["best-candidate"]
        assert best["value"] == by_label[best["winner"]]["value"]
        winners.append(best["winner"])
        bits = by_label["tree-coloring"]["bits"]
        forest = graphs.match_forest_decompose(g) > 0
        assert all(bits[a] != bits[b] for a, b in zip(g.u[forest], g.v[forest]))
    assert "tree-coloring" in winners


def count_calls(monkeypatch, traced):
    """Count calls of each (module, name) under every name it is bound to in
    the package; the returned dict fills in as they run."""
    calls = {}
    modules = [m for name, m in list(sys.modules.items())
               if name == "quantum_maxcut" or name.startswith("quantum_maxcut.")]
    for module, name in traced:
        original = getattr(module, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("edges", [
    pytest.param("0 1 1e155\n1 2 1e155\n2 3 1\n", id="overflow"),
    pytest.param("0 1 1e200\n1 2 1e-200\n2 3 1\n", id="overflow-and-underflow"),
    pytest.param("0 1 1e159\n1 2 1\n", id="sum-1e-159-of-largest"),
    pytest.param("0 1 1e-160\n1 2 1e-160\n2 0 1e-160\n", id="underflow"),
    pytest.param("0 1 1e6\n1 2 1e6\n2 3 1e6\n0 3 1e6\n", id="floor-cycle-1e6"),
    pytest.param("0 1 1e10\n1 2 1e10\n2 0 1e10\n", id="floor-triangle-1e10"),
    pytest.param("0 1 1e180\n1 2 1e180\n2 0 1e180\n", id="floor-and-residual-1e180"),
])
def test_extreme_weights_solve(tmp_path, capsys, edges):
    """Squared neighbor sums of these weights overflow or underflow in double;
    on the regular ones, rounding at large weights dips the circuit energy a
    few ulps below its floor, and the SDP residual's squares overflow at 1e180."""
    path = tmp_path / "g.txt"
    path.write_text(edges)
    code = main(["solve", str(path), "--oracle", "off"])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err and "Warning" not in captured.err
    report = json.loads(captured.out)
    assert all(np.isfinite(e["value"]) for e in report["algorithms"])


@pytest.mark.parametrize("graph", [
    pytest.param(lambda rng: generate.regular_graph(12, 3, rng), id="regular3-n12"),
    pytest.param(lambda rng: generate.gnp_graph(10, 0.5, rng, weights="exp"), id="exp-gnp-n10"),
])
def test_reports_scale_with_power_of_two_weights(tmp_path, capsys, graph):
    """At weights times 2^j, j in {-500, -40, 0, 40, 500}, the exit code,
    verdicts, bits, pairs, winner, failure flags and angle are those at j = 0,
    and every value, bound and the exact optimum scale by 2^j to 1e-12
    relative (the ratios by 1). The SDP runs its 2000 sweeps (`--tol -1`):
    the stop rule's max(1, .) floor is not scale-free."""
    g = graph(np.random.default_rng(5))

    def scaled(value, base, j):
        return value == pytest.approx(math.ldexp(base, j), rel=1e-12, abs=0)

    runs = {}
    for j in (-500, -40, 0, 40, 500):
        path = tmp_path / f"g{j}.txt"
        path.write_text("".join(f"{u} {v} {math.ldexp(w, j)!r}\n"
                                for u, v, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist())))
        code, out = run(capsys, "solve", str(path), "--tol", "-1", "--oracle", "on")
        runs[j] = code, json.loads(out)
    base_code, base = runs[0]
    for j, (code, report) in runs.items():
        assert (code, report["verdicts"]) == (base_code, base["verdicts"]), j
        assert scaled(report["opt"], base["opt"], j), j
        assert all(scaled(report["bounds"][key], value, j)
                   for key, value in base["bounds"].items()), j
        for entry, ref in zip(report["algorithms"], base["algorithms"], strict=True):
            assert scaled(entry["value"], ref["value"], j), (j, ref["label"])
            for key in ("ratio_vs_upper_bound", "ratio_vs_opt"):
                assert scaled(entry[key], ref[key], 0), (j, ref["label"], key)
            for key in ("bits", "pairs", "winner", "failed", "theta", "layers", "sweeps"):
                assert entry.get(key) == ref.get(key), (j, ref["label"], key)


@pytest.mark.parametrize("graph", [
    pytest.param(lambda rng: generate.regular_graph(12, 3, rng), id="regular3-n12"),
    pytest.param(lambda rng: generate.gnp_graph(10, 0.5, rng, weights="exp"), id="exp-gnp-n10"),
])
@pytest.mark.parametrize("scale", [1e-6, 1e150])
def test_reports_scale_with_other_weights(tmp_path, capsys, graph, scale):
    """At weights times c, c not a power of two, each weight w is the double
    nearest c w, so the graph is scaled only to within rounding. Still the
    exit code, verdicts, bits, pairs, winner, failure flags, layers and
    sweeps are those at c = 1; every value, bound and the exact optimum
    scale by c, and the ratios by 1, to 1e-12 relative (seen: within 2.1e-15);
    and the angle matches to 1e-6 relative (seen: 1.5e-8), as an argmax of a
    smooth energy moves by about the square root of the energy's rounding."""
    g = graph(np.random.default_rng(5))
    runs = []
    for c in (1.0, scale):
        path = tmp_path / f"g{c}.txt"
        path.write_text("".join(f"{u} {v} {w * c!r}\n"
                                for u, v, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist())))
        code, out = run(capsys, "solve", str(path), "--tol", "-1", "--oracle", "on")
        runs.append((code, json.loads(out)))
    (base_code, base), (code, report) = runs
    assert (code, report["verdicts"]) == (base_code, base["verdicts"])
    assert report["opt"] == pytest.approx(base["opt"] * scale, rel=1e-12, abs=0)
    for key, value in base["bounds"].items():
        assert report["bounds"][key] == pytest.approx(value * scale, rel=1e-12, abs=0), key
    for entry, ref in zip(report["algorithms"], base["algorithms"], strict=True):
        assert entry["value"] == pytest.approx(ref["value"] * scale, rel=1e-12, abs=0)
        for key in ("ratio_vs_upper_bound", "ratio_vs_opt"):
            assert entry[key] == pytest.approx(ref[key], rel=1e-12, abs=0), (ref["label"], key)
        for key in ("bits", "pairs", "winner", "failed", "layers", "sweeps"):
            assert entry.get(key) == ref.get(key), (ref["label"], key)
        if "theta" in ref:
            assert entry["theta"] == pytest.approx(ref["theta"], rel=1e-6, abs=0)


def test_consecutive_calls_share_no_parsed_state(tmp_path, capsys):
    """The parser is built once per process; each call parses its own flags."""
    path = tmp_path / "g.txt"
    path.write_text("".join(f"{i} {(i + 1) % 10}\n" for i in range(10)))
    ranks = []
    for flags in (["--rank", "3"], []):
        code, out = run(capsys, "solve", str(path), "--oracle", "off",
                        "--algorithms", "gw", *flags)
        assert code == 0
        by_label = {e["label"]: e for e in json.loads(out)["algorithms"]}
        ranks.append(by_label["sdp-relaxation"]["rank"])
    assert ranks == [3, sdp.auto_rank(10)]


def assert_one_line_error(code, capsys):
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


class TestSolveErrors:
    def test_zero_attempts(self, tmp_path, capsys):
        path = tmp_path / "edge.txt"
        path.write_text("0 1\n")
        assert_one_line_error(main(["solve", str(path), "--attempts", "0"]), capsys)

    def test_oracle_over_qubit_cap(self, tmp_path, capsys):
        path = tmp_path / "cycle.txt"
        path.write_text("".join(f"{i} {(i + 1) % 22}\n" for i in range(22)))
        assert_one_line_error(main(["solve", str(path), "--oracle", "on"]), capsys)

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight(self, tmp_path, capsys, weight):
        path = tmp_path / "path.txt"
        path.write_text(f"0 1 {weight}\n1 2 1\n")
        assert_one_line_error(main(["solve", str(path), "--oracle", "off"]), capsys)

    @pytest.mark.parametrize("rank", ["0", "-2"])
    def test_rank_below_one(self, tmp_path, capsys, rank):
        path = tmp_path / "path.txt"
        path.write_text("0 1\n1 2\n")
        assert_one_line_error(main(["solve", str(path), "--rank", rank]), capsys)

    @pytest.mark.parametrize("fault", ["eigh-fails", "restarts-run-out", "eigvalsh-fails"])
    def test_oracle_not_converging(self, tmp_path, capsys, monkeypatch, fault):
        """Each way the oracle's eigensolve fails ends in one error line: the
        projected Lanczos eigenproblem raises, or a star whose top eigenvalues
        lie 5e-8 apart (relative), with an edge between its two lightest
        leaves that keeps it on Lanczos, is not certified without restarts;
        or, without that edge, the star's dense eigensolve raises."""
        def failing(t):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        if fault == "eigh-fails":
            monkeypatch.setattr(np.linalg, "eigh", failing)
        elif fault == "eigvalsh-fails":
            monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        else:
            monkeypatch.setattr(oracle, "_RESTARTS", 0)
        path = tmp_path / "star.txt"
        weights = np.exp(np.linspace(-14, 0, 9))
        lines = [f"0 {v} {float(w)!r}\n" for v, w in enumerate(weights, 1)]
        if fault != "eigvalsh-fails":
            lines.append(f"1 2 {float(weights[0])!r}\n")
        path.write_text("".join(lines))
        assert_one_line_error(main(["solve", str(path), "--oracle", "on"]), capsys)

    def test_negative_seed(self, tmp_path, capsys):
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        assert_one_line_error(main(["solve", str(path), "--seed", "-1"]), capsys)

    def test_nan_tol(self, tmp_path, capsys):
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        assert_one_line_error(main(["solve", str(path), "--tol", "nan"]), capsys)

    def test_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bytes.txt"
        path.write_bytes(b"\xff\xfe")
        assert_one_line_error(main(["solve", str(path)]), capsys)

    def test_unwritable_out(self, tmp_path, capsys):
        path = tmp_path / "edge.txt"
        path.write_text("0 1\n")
        out = tmp_path / "no" / "such" / "x.json"
        assert_one_line_error(main(["solve", str(path), "--out", str(out)]), capsys)

    @pytest.mark.parametrize("out", ["no/such/x.json", "."])  # a missing directory, a directory
    def test_unwritable_out_found_before_any_stage(self, tmp_path, capsys, monkeypatch, out):
        calls = count_calls(monkeypatch, [(sdp, "solve_maxcut_sdp")])
        path = tmp_path / "edge.txt"
        path.write_text("0 1\n")
        out = tmp_path / out
        assert_one_line_error(main(["solve", str(path), "--out", str(out)]), capsys)
        assert calls == {}

    def test_failed_solve_leaves_no_out_file(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("".join(f"{i} {(i + 1) % 22}\n" for i in range(22)))
        out = tmp_path / "x.json"
        assert_one_line_error(main(["solve", str(path), "--oracle", "on",
                                    "--out", str(out)]), capsys)
        assert not out.exists()

    def test_failure_at_final_write(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("quantum_maxcut.cli._writable", lambda path: True)
        path = tmp_path / "edge.txt"
        path.write_text("0 1\n")
        out = tmp_path / "no" / "such" / "x.json"
        assert_one_line_error(main(["solve", str(path), "--out", str(out)]), capsys)

    @pytest.mark.parametrize("oracle_flag", ["off", "on"])
    def test_total_weight_overflow(self, tmp_path, capsys, oracle_flag):
        path = tmp_path / "path.txt"
        path.write_text("0 1 1e308\n1 2 1e308\n")
        assert_one_line_error(main(["solve", str(path), "--oracle", oracle_flag]), capsys)

    def test_negative_tol_runs_to_cap(self, tmp_path, capsys):
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        code, out = run(capsys, "solve", str(path), "--tol", "-1", "--algorithms", "gw")
        assert code == 0
        assert json.loads(out)["algorithms"][0]["sweeps"] == 2000

    def test_theta_grid_flag_rejected(self, tmp_path, capsys):
        path = tmp_path / "edge.txt"
        path.write_text("0 1\n")
        assert_one_line_error(main(["solve", str(path), "--theta-grid", "400"]), capsys)

    @pytest.mark.parametrize("flags", [
        ["--oracle", "maybe"], ["--seed", "abc"], ["--attempts", "1.5"], ["--tol", "x"],
        ["--algorithms", "gw,nope"]])
    def test_bad_flag_found_before_the_file_is_read(self, tmp_path, capsys, monkeypatch, flags):
        calls = count_calls(monkeypatch, [(graphs, "parse_graph")])
        path = tmp_path / "edge.txt"
        path.write_text("0 1\n")
        assert_one_line_error(main(["solve", str(path), *flags]), capsys)
        assert calls == {}


def fuzz_cases(count=200, seed=15):
    """A seeded corpus of malformed and extreme `solve` inputs, drawn with plain
    numpy: (edge-list text, or None for no path, and the flags). Each case
    perturbs a cycle, a complete graph or a random subgraph of one, on at most
    8 vertices, once: a malformed line, an extreme id or weight, a duplicate
    or reversed edge, or a bad flag; valid flags ride along. No id above 64
    parses, so every solve stays small."""
    rng = np.random.default_rng(seed)
    junk = ["0", "0 1 2 3", "a b", "0 0", "1.5 2", "0 1 x", "# comment", "", "\t3\t4\t"]
    ids = ["-1", "64", "99999999999999999999", str(10**30), str(2**63 - 1), "nan", "1e3", "0x1"]
    weights = ["-1", "nan", "inf", "-inf", "1e-320", "1e308", "1e300", "1e-300", str(10**30),
               "0", "-0", "x"]
    bad_flags = [["--seed", "abc"], ["--attempts", "1.5"], ["--tol", "x"], ["--oracle", "maybe"],
                 ["--rank", "-2"], ["--bogus"], ["--seed", "-3"], ["--tol", "nan"],
                 ["--attempts", "0"], ["--algorithms", "gw,nope"], ["--rank"], ["--seed", "1e3"]]
    good_flags = [[], [], ["--oracle", "off"], ["--algorithms", "gw,circuit,best"],
                  ["--rank", "2"], ["--tol", "1e-6"], ["--attempts", "3"], ["--seed", "5"]]
    cases = [(None, []), (None, ["--seed", "1"])]
    while len(cases) < count:
        n, shape = int(rng.integers(3, 9)), int(rng.integers(3))
        if shape == 0:  # a cycle: 2-regular
            picked = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        else:  # a complete graph (regular), or a random subset of its edges
            picked = np.array([(u, v) for u in range(n) for v in range(u + 1, n)])
            if shape == 2:
                picked = picked[rng.permutation(len(picked))[:int(rng.integers(1, len(picked)))]]
        lines = [[str(u), str(v), f"{w:.6g}"]
                 for (u, v), w in zip(picked, rng.exponential(size=len(picked)))]
        flags = list(good_flags[rng.integers(len(good_flags))])
        at = int(rng.integers(len(lines)))
        kind = int(rng.integers(5))
        if kind == 0:
            lines[at] = [junk[rng.integers(len(junk))]]
        elif kind == 1:
            lines[at][int(rng.integers(2))] = ids[rng.integers(len(ids))]
        elif kind == 2:  # on one edge, or on every edge
            weight = weights[rng.integers(len(weights))]
            for line in lines if rng.random() < 0.5 else [lines[at]]:
                line[2] = weight
        elif kind == 3:
            u, v = lines[at][:2]
            lines.append([v, u] if rng.random() < 0.5 else [u, v, "2"])
        else:
            flags += bad_flags[rng.integers(len(bad_flags))]
        cases.append(("\n".join(" ".join(line) for line in lines) + "\n", flags))
    return cases


def test_fuzz_corpus_exits_cleanly(tmp_path, capsys):
    """Every case exits 0, 1 or 2 without raising, and prints one `error:`
    line exactly when it exits 1."""
    path = tmp_path / "g.txt"
    failures = []
    for i, (text, flags) in enumerate(fuzz_cases()):
        if text is not None:
            path.write_text(text)
        try:
            code = main(["solve", *([str(path)] if text is not None else []), *flags])
        except (Exception, SystemExit) as exc:  # what escapes is the finding
            code = f"raised {exc!r}"
        err = capsys.readouterr().err
        one_error_line = err.startswith("error: ") and err.count("\n") == 1
        if code not in (0, 1, 2) or one_error_line != (code == 1) or (code != 1 and err):
            failures.append(f"case {i}: {text!r} {flags}: exit {code}, stderr {err!r}")
    assert not failures, "\n".join(failures)


def run_python(code):
    """Run `code` in a fresh interpreter on this checkout; its stdout, as JSON."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_files_opened_as_utf8(tmp_path):
    """`random --out` and `solve` with `--out` name their encoding: under
    `-X warn_default_encoding` an `open()` without one warns, and the warning
    is an error here, so either command would exit 1."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    strict = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
              "-m", "quantum_maxcut.cli"]
    for argv in (["random", "--n", "10", "--model", "regular-3", "--seed", "1", "--out", "g.txt"],
                 ["solve", "g.txt", "--out", "r.json"]):
        result = subprocess.run(strict + argv, cwd=tmp_path, env=env, capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, (argv, result.stderr)
    assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["verdicts"]


def test_huge_requests_exit_1_under_memory_cap(tmp_path):
    """Requests numpy cannot allocate (1e9 rounding attempts on one edge, 14.9
    GiB; a vertex id of 99999999999) exit 1 with one `error:` line, and so do
    sizes whose byte count numpy cannot even index (an n x n certificate at a
    vertex id of 999999999999999, 1e18 attempts), where numpy would raise
    ValueError, and `random` at every model for 1e18, 2e18 and 1e19 vertices.
    They run in one subprocess with its address space capped at 1 GiB, so a
    buffer the host would overcommit is never touched."""
    pytest.importorskip("resource")
    edge, far, farther = tmp_path / "edge.txt", tmp_path / "far.txt", tmp_path / "farther.txt"
    edge.write_text("0 1\n")
    far.write_text("0 99999999999\n")
    farther.write_text("0 999999999999999\n")
    cases = [["solve", str(edge), "--attempts", "1000000000"], ["solve", str(far)],
             ["solve", str(far), "--rank", "1", "--oracle", "off"],
             ["solve", str(farther), "--oracle", "off"],
             ["solve", str(edge), "--attempts", "1000000000000000000"]]
    cases += [["random", "--n", str(n), "--model", model] for n in (10**18, 2 * 10**18, 10**19)
              for model in ("gnp", "star", "cycle", "regular-3")]
    code = (
        "import contextlib, io, json, resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({1 << 30}, {1 << 30}))\n"
        "from quantum_maxcut.cli import main\n"
        "results = []\n"
        f"for argv in {cases!r}:\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        results.append([main(argv), err.getvalue()])\n"
        "print(json.dumps(results))\n"
    )
    for argv, (exit_code, err) in zip(cases, run_python(code)):
        assert exit_code == 1 and err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_textless_memory_error_is_named_under_memory_cap():
    """A Python list that outgrows the address-space cap stops with a
    MemoryError that carries no text; the one `error:` line names the
    exception instead of ending blank. The generators draw their weights as
    arrays, whose MemoryError has text, so stand-ins for the star and cycle
    generators build the list, as `[1.0] * n` weights once did."""
    pytest.importorskip("resource")
    cases = [["random", "--n", "1000000000000000000", "--model", model]
             for model in ("star", "cycle")]
    code = (
        "import contextlib, io, json, resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({1 << 30}, {1 << 30}))\n"
        "from quantum_maxcut import generate\n"
        "from quantum_maxcut.cli import main\n"
        "def as_list(n, weights='unit', rng=None):\n"
        "    return [1.0] * n\n"
        "generate.star_graph = generate.cycle_graph = as_list\n"
        "results = []\n"
        f"for argv in {cases!r}:\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        results.append([main(argv), err.getvalue()])\n"
        "print(json.dumps(results))\n"
    )
    for argv, (exit_code, err) in zip(cases, run_python(code)):
        assert exit_code == 1 and err == "error: MemoryError\n", (argv, err)


def test_solve_imports_no_scipy_sparse(tmp_path):
    """`import quantum_maxcut` and a solve, with the oracle on or off, run on
    numpy and scipy's compiled CSR routines alone: no scipy package init runs,
    so neither `scipy.sparse` nor `scipy.linalg` is imported, nor the numpy
    modules `scipy.sparse`'s init pulls in (`numpy.f2py`, `numpy.testing`)."""
    path = tmp_path / "tri.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    code = (
        "import contextlib, io, json, sys\n"
        "import quantum_maxcut\n"
        "from quantum_maxcut.cli import main\n"
        "heavy = ('scipy', 'scipy.sparse', 'scipy.linalg', 'numpy.f2py', 'numpy.testing')\n"
        "runs = [[None, None, [m for m in heavy if m in sys.modules]]]\n"
        "for oracle in ('off', 'on'):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        f"        code = main(['solve', {str(path)!r}, '--oracle', oracle])\n"
        "    runs.append([code, json.loads(out.getvalue())['opt'],\n"
        "                 [m for m in heavy if m in sys.modules]])\n"
        "print(json.dumps(runs))\n"
    )
    imported, off, (on_code, on_opt, on_loaded) = run_python(code)
    assert imported == [None, None, []]
    assert off == [0, None, []]
    assert on_code == 0 and on_opt == pytest.approx(3.0, abs=1e-8)
    assert on_loaded == []


def test_report_same_after_scipy_sparse(tmp_path):
    """A process that imports `scipy.sparse` before the package runs the CSR
    products on that module's routines, and writes the same report, byte for
    byte once the stage times are taken out, as a process that does not."""
    path = tmp_path / "g.txt"
    g = generate.gnp_graph(9, 0.5, np.random.default_rng(4), weights="exp")
    path.write_text("".join(f"{u} {v} {w!r}\n"
                            for u, v, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist())))
    reports = []
    for first in ("", "import scipy.sparse\n"):
        code = (
            f"{first}import contextlib, io, json, sys\n"
            "from quantum_maxcut import graphs\n"
            "from quantum_maxcut.cli import main\n"
            "def untimed(x):\n"
            "    if isinstance(x, dict):\n"
            "        return {k: untimed(v) for k, v in x.items() if k != 'seconds'}\n"
            "    return [untimed(v) for v in x] if isinstance(x, list) else x\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    code = main(['solve', {str(path)!r}, '--oracle', 'on'])\n"
            "shared = graphs._SPARSETOOLS is sys.modules.get('scipy.sparse._sparsetools')\n"
            "print(json.dumps([code, shared, json.dumps(untimed(json.loads(out.getvalue())))]))\n"
        )
        reports.append(run_python(code))
    (code, shared, report), (code_after, shared_after, report_after) = reports
    assert (code, shared, code_after, shared_after) == (0, False, 0, True)
    assert report_after == report


class TestRandom:
    def test_k4_is_only_three_regular_on_four(self, capsys):
        code, out = run(capsys, "random", "--n", "4", "--model", "regular-3")
        assert code == 0
        edges = {tuple(line.split()[:2]) for line in out.strip().splitlines()}
        assert len(edges) == 6

    def test_odd_degree_product_rejected(self, capsys):
        assert main(["random", "--n", "5", "--model", "regular-3"]) == 1

    def test_negative_seed(self, capsys):
        assert_one_line_error(main(["random", "--n", "6", "--seed", "-1"]), capsys)

    @pytest.mark.parametrize("model", ["regular-x", "regular-", "regular-3.5"])
    def test_malformed_regular_model(self, capsys, model):
        assert_one_line_error(main(["random", "--n", "6", "--model", model]), capsys)

    def test_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.txt"
        assert_one_line_error(main(["random", "--n", "6", "--out", str(out)]), capsys)

    def test_star(self, capsys):
        code, out = run(capsys, "random", "--n", "6", "--model", "star")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.split()[0] == "0" for line in lines)

    @pytest.mark.parametrize("argv", [["--n", "1"], ["--n", "5", "--p", "0"]])
    def test_edgeless_draw_rejected(self, tmp_path, capsys, argv):
        """A draw with no edge is an error, not a file `solve` cannot read."""
        dest = tmp_path / "g.txt"
        assert_one_line_error(main(["random", *argv, "--out", str(dest)]), capsys)
        assert not dest.exists()

    def test_output_parses_back(self, tmp_path, capsys):
        from quantum_maxcut import parse_graph

        dest = tmp_path / "g.txt"
        code, _ = run(capsys, "random", "--n", "10", "--model", "gnp",
                      "--weights", "exp", "--seed", "3", "--out", str(dest))
        assert code == 0
        g = parse_graph(dest.read_text())
        assert g.n <= 10


@pytest.mark.parametrize("argv", [
    ["reproduce", "--which", "theorem5", "--instances", "0"],
    ["reproduce", "--which", "theorem5", "--instances", "-3"],
    ["random", "--n", "6", "--p", "nan"], ["random", "--n", "6", "--p", "-1"],
    ["random", "--n", "6", "--p", "7"], ["random", "--n", "6", "--model", "regular-0"]])
def test_out_of_range_random_and_reproduce_flags(capsys, argv):
    """No vacuous theorem5 pass, no edgeless or silently clamped G(n, p), no
    0-regular graph: each value is a bad flag."""
    assert_one_line_error(main(argv), capsys)


def test_every_flag_has_help():
    """Every argument of every subcommand but -h says what it is and its default."""
    from quantum_maxcut.cli import build_parser

    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == {"solve", "random", "reproduce"}
    missing = [f"{name} {action.dest}" for name, parser in commands.items()
               for action in parser._actions
               if not isinstance(action, argparse._HelpAction) and not action.help]
    assert not missing


class TestReproduce:
    def test_g_values(self, capsys):
        code, out = run(capsys, "reproduce", "--which", "G-values")
        assert code == 0
        report = json.loads(out)
        assert 1.046 <= report["G_3"] <= 1.048
        assert 1.000 <= report["G_4"] <= 1.002

    def test_minmax_grid(self, capsys):
        """Each exact minimum as a float and a rational, and where it lies:
        the three exact terms 2y, 3x + 1 and (4 + x + y) / 3 meet there."""
        code, out = run(capsys, "reproduce", "--which", "prod2-minmax")
        assert code == 0
        report = json.loads(out)
        assert report["exact_minimum_rational"] == "11/20"
        assert report["exact_minimizer"] == ["3/13", "11/13"]
        assert report["weakened_minimum_rational"] == "131689/248000"
        assert report["weakened_minimizer"] == ["33811/165250", "131689/165250"]
        for name in ("exact", "weakened"):
            low = Fraction(report[f"{name}_minimum_rational"])
            assert report[f"{name}_minimum"] == float(low)
        x, y = map(Fraction, report["exact_minimizer"])
        assert 2 * y == 3 * x + 1 == (4 + x + y) / 3
        assert report["exact_minimum"] >= 0.55
        assert report["weakened_minimum"] >= 0.53
        assert (report["exact_target"], report["weakened_target"]) == (0.55, 0.53)
        assert "grid_step" not in report
        assert report["passed"]

    @pytest.mark.parametrize("above, code", [(0, 0), (Fraction(1, 10**30), 2)])
    def test_minmax_compares_rationals(self, monkeypatch, capsys, above, code):
        """The exact minimum meets a target of 11/20 and fails one above it by
        1e-30, which no float comparison can tell from 0.55."""
        monkeypatch.setattr(cli, "EXACT_TARGET", Fraction(11, 20) + above)
        assert run(capsys, "reproduce", "--which", "prod2-minmax")[0] == code

    def test_negative_seed(self, capsys):
        assert_one_line_error(main(["reproduce", "--which", "theorem5", "--seed", "-2",
                                    "--instances", "1"]), capsys)

    def test_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.json"
        assert_one_line_error(main(["reproduce", "--which", "G-values", "--out", str(out)]),
                              capsys)

    def test_basis_state_batch(self, capsys):
        code, out = run(capsys, "reproduce", "--which", "theorem5",
                        "--instances", "10")
        assert code == 0
        assert json.loads(out)["passed"]
