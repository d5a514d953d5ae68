"""Tests of the benchmark's own code: generators, reference eigensolver,
report checks, tracing and whole benchmark runs.

Run from the repository root: python3 -m pytest -q perfbench
"""
import json
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Instance, gnp, instances, star  # noqa: E402


def full_space_opt(inst: Instance) -> float:
    """Largest eigenvalue of sum_e (w/2)(I - XX - YY - ZZ) on all 2^n states."""
    paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]])]
    dim = 2 ** inst.n
    h = np.zeros((dim, dim), dtype=complex)
    for a, b, w in zip(inst.u.tolist(), inst.v.tolist(), inst.w.tolist()):
        h += 0.5 * w * np.eye(dim)
        for p in paulis:
            ops = [p if q in (a, b) else np.eye(2) for q in range(inst.n)]
            h -= 0.5 * w * reduce(np.kron, ops)
    return float(np.linalg.eigvalsh(h)[-1])


def test_one_edge_gives_twice_its_weight():
    inst = gnp(2, 1.0, np.random.default_rng(3))
    assert len(inst.u) == 1
    assert checks.opt_reference(inst) == pytest.approx(2 * inst.w[0], rel=1e-12)


@pytest.mark.parametrize("n", [3, 6, 9, 12, 15])
def test_uniform_star_gives_max_plus_sum(n):
    inst = star(n, np.random.default_rng(n), kind="unit")
    assert checks.opt_reference(inst) == pytest.approx(n, rel=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_sector_reference_matches_full_space(seed):
    rng = np.random.default_rng(seed)
    inst = gnp(5 + seed % 3, 0.6, rng)
    assert checks.opt_reference(inst) == pytest.approx(full_space_opt(inst), rel=1e-10)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workloads_are_seeded_connected_and_simple(name):
    warm, insts = instances(WORKLOADS[name], 5)
    again = instances(WORKLOADS[name], 5)[1]
    other = instances(WORKLOADS[name], 6)[1]
    assert [i.edge_list() for i in insts] == [i.edge_list() for i in again]
    assert [i.edge_list() for i in insts] != [i.edge_list() for i in other]
    assert [i.n for i in insts] == [i.n for i in other]
    for inst in [warm] + insts:
        pairs = set(zip(inst.u.tolist(), inst.v.tolist()))
        assert len(pairs) == len(inst.u) and all(a < b for a, b in pairs)
        assert workloads._is_connected(inst.n, inst.u, inst.v)
        assert np.all(inst.w > 0)
    if name == "regular3-sdp":
        for inst in insts:
            assert np.all(np.bincount(np.r_[inst.u, inst.v]) == 3)
    if name == "weighted-gnp-circuit":
        for inst in insts:
            assert len(inst.u) == round(workloads.GNP_DEGREE * inst.n / 2)


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A genuine report of `qmaxcut solve` on a small weighted graph."""
    from quantum_maxcut import cli

    inst = gnp(8, 0.5, np.random.default_rng(11))
    path = tmp_path_factory.mktemp("solve") / "g.txt"
    path.write_text(inst.edge_list())
    code = cli.main(["solve", str(path), "--seed", "1", "--out", f"{path}.json"])
    report = json.loads(Path(f"{path}.json").read_text())
    return inst, report, code, checks.opt_reference(inst)


def corrupt(report, edit):
    report = json.loads(json.dumps(report))
    edit(report)
    return report


def entry(report, label):
    return next(e for e in report["algorithms"] if e["label"] == label)


def test_genuine_report_passes(solved):
    inst, report, code, ref = solved
    assert code == 0
    assert checks.check_report(inst, report, code, ref, expect_opt=True) == []


@pytest.mark.parametrize("edit", [
    lambda r: entry(r, "tree-coloring").update(value=entry(r, "tree-coloring")["value"] + 0.5),
    lambda r: r.update(opt=entry(r, "best-candidate")["value"] - 1e-3),
    lambda r: entry(r, "match-singlet").update(pairs=[[0, 1], [1, 2]]),
    lambda r: entry(r, "gw-cut").update(value=float("nan")),
    lambda r: r["algorithms"].pop(),
    lambda r: r.update(opt=None),
    lambda r: r["bounds"].update(trivial=r["bounds"]["trivial"] * 2),
], ids=["tree-value", "opt-below-candidate", "overlapping-pairs", "nan",
        "missing-entry", "missing-opt", "inflated-bound"])
def test_corrupted_report_fails(solved, edit):
    inst, report, code, ref = solved
    bad = corrupt(report, edit)
    assert checks.check_report(inst, bad, code, ref, expect_opt=True)
    # the opt-vs-candidate check stands on its own, without the reference
    if bad.get("opt") is not None and bad["opt"] < report["opt"]:
        assert any("above opt" in p
                   for p in checks.check_report(inst, bad, code, None, True))


def test_nonzero_exit_fails(solved):
    inst, report, _, ref = solved
    assert checks.check_report(inst, report, 2, ref, True) == ["exit code 2"]


def test_calibration_loop_does_fixed_work():
    assert calibrate.loop() == calibrate.loop()
    assert calibrate.timed() > 0


def test_self_times_add_up_to_the_root():
    tracer = tracing.Tracer()

    def leaf(k):
        return sum(range(k))

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def middle():
        return wrapped_leaf(20000) + wrapped_leaf(30000)

    wrapped_middle = tracer.wrap("middle", middle)
    root = tracer.begin("root")
    wrapped_middle()
    wrapped_leaf(10000)
    tracer.end(root)
    own = tracing.self_times(tracer.spans)
    spans = tracer.spans
    assert [s[0] for s in spans] == ["root", "middle", "leaf", "leaf", "leaf"]
    assert [s[1] for s in spans] == [-1, 0, 1, 1, 0]
    assert sum(own) == pytest.approx(spans[0][4] - spans[0][3], rel=1e-9)
    assert all(t >= 0 for t in own)


def test_tracer_wraps_names_bound_by_import(solved, tmp_path):
    from quantum_maxcut import circuit, cli, sdp, states

    inst = solved[0]
    path = tmp_path / "g.txt"
    path.write_text(inst.edge_list())
    original = sdp.gw_round
    tracer = tracing.Tracer()
    tracer.solve = 0
    undo = tracer.install()
    try:
        assert circuit.gw_round is sdp.gw_round is not original
        assert states.rank3_round is sdp.rank3_round
        root = tracer.begin(tracing.ROOT)
        cli.main(["solve", str(path), "--out", str(tmp_path / "r.json")])
        tracer.end(root)
    finally:
        undo()
    assert sdp.gw_round is original and circuit.gw_round is original
    metrics, _ = run.per_layer(tracer.spans, [{"traced": True, "seconds": 1.0},
                                              {"traced": False, "seconds": 1.0}])
    assert metrics["sdp.roundings_per_solve"] == 4
    assert metrics["graphs.parse_graph.calls"] == 1
    assert metrics["oracle.apply_hamiltonian.calls"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}


def tiny_workload(monkeypatch, tmp_path):
    """Shrink small-batch to three instances and keep its files in tmp_path."""
    small = WORKLOADS["small-batch"]
    tiny = workloads.Workload(
        name=small.name, why=small.why, flags=small.flags, exact=True,
        warmup=small.warmup, group=3,
        build=lambda rng: [gnp(n, 0.5, rng) for n in (6, 7, 11)])
    monkeypatch.setitem(WORKLOADS, small.name, tiny)
    monkeypatch.setattr(run, "WORK", tmp_path)


def test_run_reports_every_metric_and_environment(monkeypatch, tmp_path):
    tiny_workload(monkeypatch, tmp_path)
    record = run.run_workload("small-batch", 3, 0.01, trace=0)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(record["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert record["correct"] and record["failed"] == 0 and record["attempted"] == 3
    assert all(v > 0 for v in record["metrics"].values())
    env = record["environment"]
    for key in ("python", "numpy", "scipy", "blas", "blas_threads", "nproc",
                "commit", "seed"):
        assert key in env
    assert env["seed"] == 3 and env["blas_threads"] == run.BLAS_THREADS


def test_run_counts_a_wrong_opt_as_failed(monkeypatch, tmp_path):
    tiny_workload(monkeypatch, tmp_path)
    monkeypatch.setattr(checks, "opt_reference", lambda inst: 1e6)
    record = run.run_workload("small-batch", 3, 0.01, trace=0)
    assert not record["correct"]
    assert record["failed"] == record["attempted"] == 3
    assert record["metrics"]["pass_rate"] == 0.0
