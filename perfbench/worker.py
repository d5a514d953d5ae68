"""One benchmark process: import the program, warm up, then solve in a loop.

Usage: python3 worker.py CONFIG.json

The config names the source tree, the workload flags, the warm-up file and
the measured files, and the mode: "setup" stops after the warm-up,
"measure" times untraced solves, "trace" times each instance once untraced
and once traced. A closed loop with one client: each solve starts after the
previous one returns. The instance list is solved in groups of the
config's "group" instances, wrapping round to the start, and a group is
never cut short; the next group starts only if it is expected to end within
the time budget, so a slow host gets fewer solves, not a longer run.
Results, spans included, are written to the config's "out" path at the end.

Each solve is timed twice: by the process's CPU clock, which the benchmark
reports, and by the wall clock, which the time budget and the traced spans
use. The program runs on one thread (BLAS is limited to one), so on an idle
machine the two agree; the CPU clock leaves out the time the process waited
for a core, which on a shared host varies from run to run. The set-up time
is the CPU time of the process from its start to the end of the warm-up
solve. Every process runs `SETUP_CAL_LOOPS` of the calibration loop of
`calibrate.py` after its warm-up, and untraced solves are interleaved with
more of them, one per `CAL_EVERY_S` of solving. Each loop is recorded as
[wall-clock start, CPU seconds].
"""
import itertools
import json
import resource
import sys
import time
import traceback

import calibrate

CAL_EVERY_S = 0.25
SETUP_CAL_LOOPS = 5


def solve(cli, path, seed, flags, out):
    """Run `qmaxcut solve` in-process; returns (exit code, error text)."""
    try:
        return cli.main(["solve", path, "--seed", str(seed), "--out", out, *flags]), None
    except SystemExit as exc:  # argparse rejects the flags
        return exc.code, "SystemExit"
    except Exception:  # a crash is a failed solve, not a failed benchmark
        return None, traceback.format_exc()


def main(config_path):
    with open(config_path) as fh:
        cfg = json.load(fh)
    sys.path.insert(0, cfg["src"])
    from quantum_maxcut import cli

    flags = cfg["flags"]
    warm = cfg["warmup"]
    warm_rc, warm_err = solve(cli, warm["path"], warm["solve_seed"], flags,
                              cfg["reports"] + "/warmup.json")
    setup_s = time.process_time()
    loops = []
    for _ in range(SETUP_CAL_LOOPS):
        calibrate_once(loops)
    result = {"setup_s": setup_s, "calibration": loops,
              "warmup": {"exit_code": warm_rc, "error": warm_err}}
    if cfg["mode"] != "setup":
        result.update(measure(cli, cfg, flags, loops))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(cfg["out"], "w") as fh:
        json.dump(result, fh)


def calibrate_once(loops):
    loops.append([time.perf_counter(), calibrate.timed()])


def measure(cli, cfg, flags, loops):
    traced = cfg["mode"] == "trace"
    tracer = None
    if traced:
        from tracing import ROOT, Tracer
        tracer = Tracer()
    solves = []
    owed = [0.0]   # CPU seconds of solving not yet matched by a calibration loop

    def run(index, inst, with_trace):
        report = f"{cfg['reports']}/{len(solves)}.json"
        if with_trace:
            tracer.solve = len(solves)
            undo = tracer.install()
            root = tracer.begin(ROOT)
        start, cpu_start = time.perf_counter(), time.process_time()
        rc, err = solve(cli, inst["path"], inst["solve_seed"], flags, report)
        cpu_seconds = time.process_time() - cpu_start
        seconds = time.perf_counter() - start
        if with_trace:
            tracer.end(root)
            undo()
        solves.append({"instance": index, "traced": with_trace, "start": start,
                       "seconds": seconds,
                       "cpu_seconds": cpu_seconds, "exit_code": rc, "error": err,
                       "report": report})
        if not with_trace:
            owed[0] += cpu_seconds
            while owed[0] >= CAL_EVERY_S:
                calibrate_once(loops)
                owed[0] -= CAL_EVERY_S

    budget = cfg["seconds"]
    instances = cfg["instances"]
    begin = time.perf_counter()
    for first in itertools.cycle(range(0, len(instances), cfg["group"])):
        group_start = time.perf_counter()
        for index in range(first, min(first + cfg["group"], len(instances))):
            # alternate which of the pair goes first, so drift cancels
            order = (False, True) if index % 2 == 0 else (True, False)
            for with_trace in (order if traced else (False,)):
                run(index, instances[index], with_trace)
        now = time.perf_counter()
        if now - begin + (now - group_start) > budget:
            break
    out = {"solves": solves}
    if traced:
        out["spans"] = tracer.spans
    return out


if __name__ == "__main__":
    main(sys.argv[1])
