"""Spans around the public functions of each `quantum_maxcut` module.

A traced function is wrapped under every name it is bound to inside the
package, including names bound by `from .x import f`, so that callers that
look it up through their own module globals also hit the wrapper. Spans are
kept in memory as (name, parent, solve id, start, end, info) and written out
when the run ends.
"""
from __future__ import annotations

import functools
import sys
import time

TRACED = (
    "graphs.parse_graph",
    "graphs.triangles_per_edge",
    "graphs.cut_partition",
    "graphs.proper_edge_coloring",
    "graphs.match_forest_decompose",
    "sdp.solve_maxcut_sdp",
    "sdp.sdp_objective",
    "sdp.gw_round",
    "sdp.rank3_round",
    "bounds.opt_upper_bound",
    "oracle.max_eigenvalue",
    "oracle.apply_hamiltonian",
    "states.tree_coloring_state",
    "states.match_singlet_state",
    "states.product_energy",
    "states.best_few_qubit_candidate",
    "circuit.shallow_circuit_pipeline",
    "circuit.optimize_angle",
    "circuit.circuit_energy",
    "circuit.best_angle",
    "circuit.build_circuit",
)
ROOT = "cli.run_solve"  # the whole `cli.main(["solve", ...])` call

# What a span records from the call's result, besides its times.
INFO = {
    "sdp.solve_maxcut_sdp": lambda r: {"sweeps": r.sweeps, "converged": r.converged},
    # one read of the input vector and one write of the output, computed
    # from the state dimension and dtype
    "oracle.apply_hamiltonian": lambda r: {"bytes": 2 * r.nbytes},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, parent, solve, start, end, info]
        self._open: list[int] = []
        self.solve: int | None = None

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, self.solve, time.perf_counter(), None, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if info is not None:
                self.spans[index][5] = info(result)
            return result

        return traced

    def install(self, package: str = "quantum_maxcut"):
        """Wrap every binding of each traced function; returns the undo."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        patched = []
        for name in TRACED:
            module = sys.modules.get(f"{package}.{name.split('.')[0]}")
            original = getattr(module, name.split(".")[1], None)
            if original is None:
                continue  # gone from the program: its metrics read 0
            wrapper = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))

        def undo():
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

        return undo


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are sequential, so children never overlap and the self times of
    one solve add up to the duration of its root span.
    """
    own = [end - start for _, _, _, start, end, _ in spans]
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
