"""Benchmark of `qmaxcut solve` on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of the workloads in `perfbench/workloads.py`. The run writes
the seed's edge-list files under `.perfbench/`, computes the reference
values it checks against, then starts fresh processes that import the
program from `src/`: four that only set up (import plus one warm-up solve)
and one that also measures. With `--trace 0` the measuring process times
untraced solves by its CPU clock, scaled to the speed of the host given by
the calibration loop of `calibrate.py`, and the last line of output carries
the end-to-end metrics of `BENCHMARK.json`. With `--trace 1` it times every
instance once untraced and once traced, and the last line carries the
per-layer metrics. Every report is re-checked after its process has exited,
outside any timing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S
from worker import SETUP_CAL_LOOPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DEADLINE_S = 170.0
SETUP_ONLY_PROCESSES = 4   # plus the measuring process: five set-up samples
BLAS_THREADS = 1
ORACLE_AUTO_LIMIT = 16     # `qmaxcut solve --oracle auto` runs the oracle up to here
BRACKET_LOOPS = 2          # calibration loops on each side that scale one solve


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _environment(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": digest.hexdigest()}


def _spawn(config: dict, path: Path, deadline: float) -> dict:
    path.write_text(json.dumps(config))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(path)],
                              env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _fail(f"{path.name}: the process did not finish within {DEADLINE_S} s")
    if proc.returncode != 0:
        _fail(f"{path.name}: the process exited with code {proc.returncode}")
    return json.loads(Path(config["out"]).read_text())


def _load(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    from checks import best_value, check_report, opt_reference, upper_bounds
    from workloads import WORKLOADS, instances

    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[name]
    work = WORK / f"{name}-s{seed}-t{trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "instances").mkdir(parents=True)

    warm, insts = instances(workload, seed)
    files = []
    for label, inst in [("warmup", warm)] + list(enumerate(insts)):
        path = work / "instances" / f"{label}.txt"
        path.write_text(inst.edge_list())
        files.append({"path": str(path), "solve_seed": inst.solve_seed})
    flags = list(workload.flags)
    oracle = flags[flags.index("--oracle") + 1] if "--oracle" in flags else "auto"

    def expect_opt(inst):
        return oracle == "on" or (oracle == "auto" and inst.n <= ORACLE_AUTO_LIMIT)

    refs = [opt_reference(i) if workload.exact else None for i in insts]
    warm_ref = opt_reference(warm) if workload.exact else None

    results = []
    for k in range(SETUP_ONLY_PROCESSES + 1):
        mode = "setup" if k < SETUP_ONLY_PROCESSES else ("trace" if trace else "measure")
        reports = work / f"reports{k}"
        reports.mkdir()
        config = {"src": str(ROOT / "src"), "flags": flags, "warmup": files[0],
                  "instances": files[1:], "group": workload.group, "mode": mode,
                  "seconds": seconds, "reports": str(reports),
                  "out": str(work / f"result{k}.json")}
        results.append(_spawn(config, work / f"config{k}.json", deadline))
    measured = results[-1]

    problems = []
    for k, res in enumerate(results):
        warm_report = _load(str(work / f"reports{k}" / "warmup.json"))
        for fault in check_report(warm, warm_report, res["warmup"]["exit_code"],
                                  warm_ref, expect_opt(warm)):
            problems.append(f"warm-up in process {k}: {fault}")
    solves = measured["solves"]
    failed = 0
    values = []   # (best / W, best / reference) of each checked report
    for s in solves:
        inst = insts[s["instance"]]
        report = _load(s["report"])
        faults = check_report(inst, report, s["exit_code"], refs[s["instance"]],
                              expect_opt(inst))
        if s["error"]:
            faults.append(s["error"].strip().splitlines()[-1])
        if faults:
            failed += 1
            problems += [f"instance {s['instance']} (n={inst.n}): {i}" for i in faults]
        if report is not None and s["exit_code"] == 0 and not faults:
            best = best_value(report)
            ref = refs[s["instance"]] or min(upper_bounds(inst))
            values.append((best / inst.total_weight, best / ref))

    tail = {}
    if trace:
        metrics, counts = per_layer(measured["spans"], solves)
    else:
        times = scaled_times(solves, measured["calibration"])
        metrics = {
            "setup_s": statistics.median(
                r["setup_s"] * REFERENCE_S
                / statistics.median(s for _, s in r["calibration"][:SETUP_CAL_LOOPS])
                for r in results),
            "solve_s.p50": statistics.median(times),
            "instances_per_s": len(times) / sum(times),
            "pass_rate": 1.0 - failed / len(solves),
            "peak_rss_mb": measured["peak_rss_mb"],
            "energy_per_weight": statistics.fmean(v[0] for v in values) if values else 0.0,
            "ratio_vs_opt": statistics.fmean(v[1] for v in values) if values else 0.0,
        }
        counts = dict.fromkeys(metrics, len(solves))
        counts.update(setup_s=len(results), peak_rss_mb=1,
                      energy_per_weight=len(values), ratio_vs_opt=len(values))
        # over the few, equal solves of most workloads a tail measures the
        # host, not the program: kept in the record, not in BENCHMARK.json
        tail = {"solve_s.p90": _p90(times), "samples": len(times)}
    record = {"environment": _environment(name, seed, trace),
              "unscaled": unscaled(results, solves), "tail": tail,
              "instances": [{"n": i.n, "m": len(i.u), "opt_reference": r}
                            for i, r in zip(insts, refs)],
              "samples": counts, "problems": problems,
              "correct": not problems, "attempted": len(solves), "failed": failed,
              "metrics": metrics}
    (work / "record.json").write_text(json.dumps(record, indent=1))
    if trace:
        (work / "spans.json").write_text(json.dumps(measured["spans"]))
    return record


def unscaled(results: list[dict], solves: list[dict]) -> dict:
    """The time metrics as the clocks read them, before any scaling."""
    out = {"setup_s.cpu": statistics.median(r["setup_s"] for r in results)}
    for clock, key in (("cpu", "cpu_seconds"), ("wall", "seconds")):
        times = [s[key] for s in solves if not s["traced"]]
        out[f"solve_s.p50.{clock}"] = statistics.median(times)
        out[f"solve_s.p90.{clock}"] = _p90(times)
        out[f"instances_per_s.{clock}"] = len(times) / sum(times)
    loops = results[-1]["calibration"]
    out["calibration_s"] = statistics.median(s for _, s in loops)
    out["calibration_loops"] = len(loops)
    return out


def scaled_times(solves: list[dict], loops: list[list]) -> list[float]:
    """CPU seconds of each solve at the reference speed of the calibration
    loop: scaled by REFERENCE_S over the median time of the BRACKET_LOOPS
    loops that ran last before it and the BRACKET_LOOPS that ran first after
    it, so a change of host speed within a run is followed too."""
    out = []
    for s in solves:
        before = [t for start, t in loops if start < s["start"]][-BRACKET_LOOPS:]
        after = [t for start, t in loops if start > s["start"]][:BRACKET_LOOPS]
        out.append(s["cpu_seconds"] * REFERENCE_S / statistics.median(before + after))
    return out


def per_layer(spans: list[list], solves: list[dict]) -> tuple[dict, dict]:
    """Per-solve means over the traced solves, from their spans."""
    from tracing import ROOT as ROOT_SPAN, TRACED, self_times

    if any(end is None for _, _, _, _, end, _ in spans):
        _fail("a span was never closed")
    traced = [s for s in solves if s["traced"]]
    per_solve = 1.0 / len(traced)
    own = self_times(spans)
    totals = {name: [0, 0.0, 0.0] for name in TRACED + (ROOT_SPAN,)}
    for (name, _, _, start, end, _), self_s in zip(spans, own):
        entry = totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += self_s
    metrics = {}
    for name in TRACED:
        calls, seconds, self_s = totals[name]
        metrics[f"{name}.calls"] = calls * per_solve
        metrics[f"{name}.s"] = seconds * per_solve
        metrics[f"{name}.self_s"] = self_s * per_solve

    def infos(name):
        return [span[5] for span in spans if span[0] == name and span[5]]

    sdp = infos("sdp.solve_maxcut_sdp")
    sweeps = sum(i["sweeps"] for i in sdp)
    matvecs = totals["oracle.apply_hamiltonian"]
    metrics.update({
        "sdp.sweeps": sweeps / len(sdp) if sdp else 0.0,
        "sdp.s_per_sweep": totals["sdp.solve_maxcut_sdp"][1] / sweeps if sweeps else 0.0,
        "sdp.converged_share": sum(i["converged"] for i in sdp) / len(sdp) if sdp else 0.0,
        "sdp.roundings_per_solve": (totals["sdp.gw_round"][0]
                                    + totals["sdp.rank3_round"][0]) * per_solve,
        "oracle.s_per_matvec": matvecs[1] / matvecs[0] if matvecs[0] else 0.0,
        "oracle.bytes_per_matvec": (sum(i["bytes"] for i in infos("oracle.apply_hamiltonian"))
                                    / matvecs[0] if matvecs[0] else 0.0),
        "cli.run_solve.self_s": totals[ROOT_SPAN][2] * per_solve,
    })
    traced_s = totals[ROOT_SPAN][1] * per_solve
    untraced = [s["seconds"] for s in solves if not s["traced"]]
    metrics["trace.solve_s"] = traced_s
    metrics["trace.untraced_solve_s"] = statistics.fmean(untraced)
    metrics["trace.overhead_s"] = traced_s - metrics["trace.untraced_solve_s"]
    unaccounted = traced_s - sum(own) * per_solve
    if abs(unaccounted) > 1e-9 * max(1.0, traced_s):
        _fail(f"self times leave {unaccounted} s of the traced solve time unaccounted")
    return metrics, dict.fromkeys(metrics, len(traced))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "quantum_maxcut" / "cli.py").is_file():
        _fail(f"no program to measure: {ROOT / 'src' / 'quantum_maxcut'} is missing")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    known = [w["name"] for w in spec["workloads"]]
    names = known if args.workload == "all" else [args.workload]
    if not set(names) <= set(known):
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(known)} or all")

    sys.path.insert(0, str(HERE))
    records = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace)
        if set(record["metrics"]) != set(wanted):
            _fail("computed metrics differ from BENCHMARK.json: "
                  f"{sorted(set(record['metrics']) ^ set(wanted))}")
        print(f"# {json.dumps(record['environment'])}")
        print(f"# unscaled {json.dumps(record['unscaled'])}")
        if record["tail"]:
            print(f"# tail {json.dumps(record['tail'])}")
        for problem in record["problems"]:
            print(f"# FAIL {name}: {problem}")
        for metric, unit in wanted.items():
            print(f"{name:22s} {metric:40s} {record['metrics'][metric]:>14.6g} "
                  f"{unit:14s} n={record['samples'][metric]}")
        records[name] = record

    def entry(metric, value):
        return {"value": value, "unit": wanted[metric]}

    if len(names) == 1:
        metrics = {m: entry(m, v) for m, v in records[names[0]]["metrics"].items()}
    else:
        metrics = {f"{w}/{m}": entry(m, v)
                   for w, r in records.items() for m, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records.values()),
                      "attempted": sum(r["attempted"] for r in records.values()),
                      "failed": sum(r["failed"] for r in records.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
