"""Command-line harness: solve instances, generate test graphs, reproduce the
pinned numeric checks.

Exit codes: 0 on success; 2 only when a verdict or pinned check fails; 1,
with one `error:` line, on any bad input: a malformed or out-of-range flag
value, an unknown flag or a missing argument (`build_parser` checks them all
before any file is read), a file that cannot be read or parsed, a rejected
graph, a request numpy cannot allocate, an oracle run over the qubit cap or
without convergence, or an `--out` path that cannot be written (checked
before any work). `main` is the one place an error is reported.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import bounds as bounds_mod
from . import circuit as circuit_mod
from . import generate, oracle, sdp, states
from .graphs import GraphError, ParseError, match_forest_decompose, parse_graph

SCHEMA_VERSION = 1
ORACLE_AUTO_LIMIT = 16
ALL_ALGORITHMS = ("tree", "singlet", "rank3", "gw", "circuit", "best")
GRID_STEP = 1e-3  # of the prod2-minmax grid


def _grid_minimum(weakened: bool) -> float:
    """Minimum over 0 <= x <= y <= 1, on a grid of GRID_STEP, of the three-way
    candidate ratio.

    x and y are the matching and forest weights as fractions of the total;
    the denominator 2 + y + x is twice the degree-sum upper bound in the
    same units. The weakened variant replaces the exact product-state terms
    by their efficiently-achievable counterparts.
    """
    xs = np.arange(0.0, 1.0 + GRID_STEP / 2, GRID_STEP)
    best = np.inf
    for x in xs:
        y = np.arange(x, 1.0 + GRID_STEP / 2, GRID_STEP)
        if weakened:
            top = np.maximum(np.maximum(2 * y, 3 * x + 0.98),
                             (0.956 / 3) * (4 + x + y))
        else:
            top = np.maximum(np.maximum(2 * y, 3 * x + 1.0),
                             (1.0 / 3) * (4 + x + y))
        best = min(best, float(np.min(top / (2 + y + x))))
    return best


def run_solve(args) -> int:
    with open(args.path) as fh:
        g = parse_graph(fh.read())
    report = _solve(g, args)
    _emit(report, args)
    return 2 if "fail" in report["verdicts"].values() else 0


def _timed(stage, *args, **kwargs):
    """stage(*args, **kwargs) and the seconds it took."""
    start = time.perf_counter()
    result = stage(*args, **kwargs)
    return result, time.perf_counter() - start


def _solve(g, args) -> dict:
    """Run the oracle, the relaxation and the requested algorithms; the report.

    The only place that composes stages: each runs at most once, and a later
    stage takes the outcomes of the earlier ones it depends on."""
    algorithms = args.algorithms
    use_oracle = args.oracle == "on" or (args.oracle == "auto" and g.n <= ORACLE_AUTO_LIMIT)
    opt, oracle_run = None, None
    if use_oracle:
        top, seconds = _timed(oracle.max_eigenvalue, g)
        opt = top.value
        oracle_run = dict(certificate=top.certificate, ones=top.ones, dim=top.dim, seconds=seconds)
    sol, seconds = _timed(sdp.solve_maxcut_sdp, g, rank=args.rank, tol=args.tol, seed=args.seed)
    report_bounds = bounds_mod.opt_upper_bound(g, sdp_value=sol.dual_bound)
    denom = report_bounds.best

    entries = []
    verdicts = {}

    def record(label, value, seconds, **extra):
        entries.append({"label": label, "value": value,
                        "ratio_vs_upper_bound": value / denom if denom > 0 else None,
                        "ratio_vs_opt": value / opt if opt else None,
                        "seed": args.seed, **extra, "seconds": seconds})

    record("sdp-relaxation", sol.objective, seconds, rank=sol.rank, converged=sol.converged,
           sweeps=sol.sweeps, residual=sol.residual, gap=sol.gap)

    if {"tree", "singlet", "best"} & set(algorithms):
        picks, picks_seconds = _timed(match_forest_decompose, g)  # in both states' seconds
    if "tree" in algorithms or "best" in algorithms:
        tree, seconds = _timed(states.tree_coloring_state, g, picks)
        if "tree" in algorithms:
            record("tree-coloring", tree[1], picks_seconds + seconds,
                   bits="".join(map(str, tree[0])))
    if "singlet" in algorithms or "best" in algorithms:
        singlet, seconds = _timed(states.match_singlet_state, g, picks)
        if "singlet" in algorithms:
            record("match-singlet", singlet[1], picks_seconds + seconds,
                   pairs=[list(p) for p in singlet[0].pairs])
    if "gw" in algorithms or "circuit" in algorithms:
        gw, seconds = _timed(sdp.gw_round, g, sol, seed=args.seed, attempts=args.attempts)
        if "gw" in algorithms:
            record("gw-cut", gw.value, seconds, failed=gw.failed)
            verdicts["gw_guarantee"] = "fail" if gw.failed else "pass"
    if "rank3" in algorithms or "best" in algorithms:
        rank3, seconds = _timed(sdp.rank3_round, g, sol, seed=args.seed, attempts=args.attempts)
        if "rank3" in algorithms:
            record("rank3-product", rank3.value, seconds, failed=rank3.failed)
    if "best" in algorithms:
        rep, seconds = _timed(states.best_few_qubit_candidate, tree, singlet, rank3)
        record("best-candidate", rep.energy, seconds, winner=rep.label)
        if opt:
            verdicts["candidate_ratio"] = (
                "pass" if rep.energy / opt >= 0.53 - 1e-9 else "fail")
        else:
            verdicts["candidate_ratio"] = "not-applicable"
    if "circuit" in algorithms:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res, seconds = _timed(circuit_mod.shallow_circuit_pipeline, g, sol, gw)
        record("shallow-circuit", res.energy, seconds, theta=res.circuit.theta,
               layers=len(res.circuit.layers), warnings=[str(w.message) for w in caught])
        if res.guaranteed:
            verdicts["circuit_guarantee"] = (
                "pass" if res.ratio >= res.guarantee_value - 1e-9 else "fail")
        else:
            verdicts["circuit_guarantee"] = "not-applicable"

    d = g.is_regular()
    return {
        "schema": SCHEMA_VERSION,
        "graph": {"n": g.n, "edges": len(g.edges), "total_weight": g.total_weight,
                  "regular_degree": d if d is not None else "irregular"},
        "bounds": dataclasses.asdict(report_bounds),
        "opt": opt,
        "oracle": oracle_run,
        "algorithms": entries,
        "verdicts": verdicts,
    }


def run_random(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.model == "gnp":
        g = generate.gnp_graph(args.n, args.p, rng, weights=args.weights)
    elif args.model == "star":
        g = generate.star_graph(args.n, weights=args.weights, rng=rng)
    elif args.model == "cycle":
        g = generate.cycle_graph(args.n, weights=args.weights, rng=rng)
    else:  # regular-D, as _model checked
        degree = int(args.model.removeprefix("regular-"))
        g = generate.regular_graph(args.n, degree, rng, weights=args.weights)
    if not g.edges:  # `parse_graph` rejects a document with no edge line
        raise GraphError(f"the {args.model} draw with n={args.n} has no edge")
    _output(generate.to_edge_list(g), args.out)
    return 0


def run_reproduce(args) -> int:
    if args.which == "G-values":
        report = {"schema": SCHEMA_VERSION, "which": "G-values"}
        for d in (3, 4):
            theta, fval = circuit_mod.best_angle(d)
            report[f"theta_star_{d}"] = theta
            report[f"F_{d}"] = fval
            report[f"G_{d}"] = circuit_mod.approximation_guarantee(d)
    elif args.which == "prod2-minmax":
        report = {
            "schema": SCHEMA_VERSION,
            "which": "prod2-minmax",
            "grid_step": GRID_STEP,
            "exact_minimum": _grid_minimum(weakened=False),
            "weakened_minimum": _grid_minimum(weakened=True),
            "exact_target": 0.55,
            "weakened_target": 0.53,
        }
        report["passed"] = (report["exact_minimum"] >= 0.55
                            and report["weakened_minimum"] >= 0.53)
    else:  # theorem5
        rng = np.random.default_rng(args.seed)
        results = []
        for _ in range(args.instances):
            n = int(rng.integers(4, 13))
            g = generate.random_connected_graph(n, 0.4, rng, weights="unit")
            opt = oracle.max_eigenvalue(g).value
            mc, _ = oracle.brute_force_maxcut(g)
            m, v = len(g.edges), g.n
            target = 1.0 / 3 + (2.0 / 3) * (m / (2 * m + v))
            results.append({"n": v, "edges": m, "ratio": mc / opt,
                            "target": target, "ok": mc / opt >= target - 1e-9})
        report = {"schema": SCHEMA_VERSION, "which": "theorem5",
                  "instances": results,
                  "passed": all(r["ok"] for r in results)}
    _emit(report, args)
    return 0 if report.get("passed", True) else 2


def _emit(report: dict, args) -> None:
    _output(json.dumps(report, indent=2, default=float) + "\n", args.out)


def _writable(path) -> None:
    """Check before any work that path can be written, as an existing file or
    a new one in an existing directory (`os.access`); OSError if not."""
    where = path if os.path.exists(path) else os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(where, os.W_OK):
        kind = "file" if where == path else "directory"
        raise OSError(f"cannot write {path}: {where} is not a writable {kind}")


def _output(text: str, path) -> None:
    """Write text to stdout, or to path if given."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as `ArgumentError` for `main` to report."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _checked(convert, ok, requirement: str):
    """An argparse type: `convert` the text, then reject a value not `ok`."""
    def check(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value

    check.__name__ = convert.__name__  # argparse names it in "invalid int value: ..."
    return check


_SEED = _checked(int, lambda x: x >= 0, "non-negative")
_COUNT = _checked(int, lambda x: x >= 1, "at least 1")
_TOL = _checked(float, lambda x: not math.isnan(x), "a number")
_PROBABILITY = _checked(float, lambda x: 0 <= x <= 1, "in [0, 1]")


def _algorithms(text: str) -> list[str]:
    """Comma-separated subset of ALL_ALGORITHMS, as a list; all of them if empty."""
    names = text.split(",") if text else list(ALL_ALGORITHMS)
    for name in names:
        if name not in ALL_ALGORITHMS:
            raise argparse.ArgumentTypeError(f"unknown algorithm {name!r}")
    return names


def _model(text: str) -> str:
    """`random --model`: gnp, star, cycle or regular-D, D at least 1."""
    degree = text.removeprefix("regular-")
    if text in ("gnp", "star", "cycle") or text != degree and degree.isdecimal() and int(degree):
        return text
    raise argparse.ArgumentTypeError(f"unknown model {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: a build takes about ten parses' time."""
    parser = _Parser(
        prog="qmaxcut",
        description="Approximation algorithms and bounds for the quantum Max Cut "
                    "Hamiltonian of a weighted graph.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run algorithms on an edge-list file")
    p_solve.add_argument("path", help="edge-list file: one 'u v [w]' per line, w defaults to 1")
    p_solve.add_argument("--algorithms", type=_algorithms, default="",
                         help=f"comma-separated subset of {','.join(ALL_ALGORITHMS)} "
                              "(default: all)")
    p_solve.add_argument("--seed", type=_SEED, default=0,
                         help="seed of the SDP start and both roundings (default: 0)")
    p_solve.add_argument("--attempts", type=_COUNT, default=200,
                         help="draws of each rounding, hyperplane and rank-3 alike (default: 200)")
    p_solve.add_argument("--oracle", choices=("auto", "on", "off"), default="auto",
                         help=f"exact maximum eigenvalue; auto runs it for n <= {ORACLE_AUTO_LIMIT}"
                              " (default: auto)")
    p_solve.add_argument("--rank", type=_COUNT, default=None,
                         help="SDP factor rank (default: ceil(sqrt(2n)) + 1, at most n)")
    p_solve.add_argument("--tol", type=_TOL, default=1e-13,
                         help="stop after the first sweep that changes the SDP objective by at "
                              "most tol relative; a negative value runs to the "
                              f"{sdp.MAX_SWEEPS}-sweep cap (default: 1e-13)")
    p_solve.add_argument("--out", default=None, help="JSON report file (default: stdout)")
    p_solve.set_defaults(func=run_solve)

    p_rand = sub.add_parser("random", help="generate a random edge-list file")
    p_rand.add_argument("--n", type=int, required=True, help="vertex count (required)")
    p_rand.add_argument("--model", type=_model, default="gnp",
                        help="gnp | regular-D | star | cycle (default: gnp)")
    p_rand.add_argument("--p", type=_PROBABILITY, default=0.5,
                        help="edge probability for gnp (default: 0.5)")
    p_rand.add_argument("--weights", choices=("unit", "uniform", "exp"), default="unit",
                        help="all 1, uniform on (0, 1] or exponential of mean 1 (default: unit)")
    p_rand.add_argument("--seed", type=_SEED, default=0, help="generator seed (default: 0)")
    p_rand.add_argument("--out", default=None, help="edge-list file (default: stdout)")
    p_rand.set_defaults(func=run_random)

    p_rep = sub.add_parser("reproduce", help="re-run the pinned numeric checks")
    p_rep.add_argument("--which", choices=("G-values", "prod2-minmax", "theorem5"),
                       required=True, help="the check to run (required)")
    p_rep.add_argument("--seed", type=_SEED, default=0,
                       help="seed of the theorem5 graphs (default: 0)")
    p_rep.add_argument("--instances", type=_COUNT, default=50,
                       help="graph count of theorem5 (default: 50)")
    p_rep.add_argument("--out", default=None, help="JSON report file (default: stdout)")
    p_rep.set_defaults(func=run_reproduce)
    return parser


# What the user can get wrong; a fault inside a stage keeps its traceback.
USER_ERRORS = (argparse.ArgumentError, OSError, UnicodeDecodeError, ParseError, GraphError,
               MemoryError, oracle.ResourceLimitError, oracle.ConvergenceError)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.out:
            _writable(args.out)
        return args.func(args)
    except USER_ERRORS as exc:
        # Python's own MemoryError carries no text: name the exception instead
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
