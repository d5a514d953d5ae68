import json
import sys

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

from quantum_maxcut import bounds, graphs, oracle, sdp, states
from quantum_maxcut.cli import main


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
        for e1, e2 in zip(r1["algorithms"], r2["algorithms"]):
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
        assert set(report) == {"schema", "graph", "bounds", "opt", "algorithms",
                               "verdicts"}
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

    def test_tree_on_disconnected_graph(self, tmp_path, capsys):
        """The forest coloring cuts n - (number of components) edges."""
        path = tmp_path / "two.txt"
        path.write_text("0 1\n2 3\n")
        code, out = run(capsys, "solve", str(path), "--algorithms", "tree")
        assert code == 0
        by_label = {e["label"]: e for e in json.loads(out)["algorithms"]}
        assert by_label["tree-coloring"]["bits"] == "0101"
        assert by_label["tree-coloring"]["value"] == 2.0

    def test_each_stage_runs_once(self, tmp_path, capsys, monkeypatch):
        """Stages that feed later ones (roundings, singlet state, decomposition)
        run once per solve; later stages take their outcome."""
        traced = [(sdp, "gw_round"), (sdp, "rank3_round"),
                  (states, "match_singlet_state"), (graphs, "match_forest_decompose")]
        calls = count_calls(monkeypatch, traced)
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
        code, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert calls == {name: 1 for _, name in traced}

    def test_upper_bound_computed_once(self, tmp_path, capsys, monkeypatch):
        """rank3_round takes the report's bound instead of computing its own."""
        calls = count_calls(monkeypatch, [(bounds, "opt_upper_bound")])
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
        code, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert calls == {"opt_upper_bound": 1}


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

    @pytest.mark.parametrize("exc", [
        ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0))),
        ArpackError(-9),
    ])
    def test_oracle_not_converging(self, tmp_path, capsys, monkeypatch, exc):
        def failing_eigsh(*args, **kwargs):
            raise exc

        monkeypatch.setattr(oracle, "eigsh", failing_eigsh)
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n2 0\n")
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
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(path), "--theta-grid", "400"])
        assert exc.value.code == 2


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

    def test_output_parses_back(self, tmp_path, capsys):
        from quantum_maxcut import parse_graph

        dest = tmp_path / "g.txt"
        code, _ = run(capsys, "random", "--n", "10", "--model", "gnp",
                      "--weights", "exp", "--seed", "3", "--out", str(dest))
        assert code == 0
        g = parse_graph(dest.read_text())
        assert g.n <= 10


class TestReproduce:
    def test_g_values(self, capsys):
        code, out = run(capsys, "reproduce", "--which", "G-values")
        assert code == 0
        report = json.loads(out)
        assert 1.046 <= report["G_3"] <= 1.048
        assert 1.000 <= report["G_4"] <= 1.002

    def test_minmax_grid(self, capsys):
        code, out = run(capsys, "reproduce", "--which", "prod2-minmax")
        assert code == 0
        report = json.loads(out)
        assert report["exact_minimum"] >= 0.55
        assert report["weakened_minimum"] >= 0.53
        assert report["passed"]

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
