"""A fixed CPU loop that gauges how fast the host runs at the moment.

On a shared host the speed of one core changes by as much as a third
between phases that last tens of seconds, and a run of the benchmark can
fall wholly into a fast or a slow phase. The measuring process therefore
runs this loop between solves, and the reported times are scaled by
`REFERENCE_S` over the loop's median time in the same process: CPU seconds
at the speed the host has when the loop takes `REFERENCE_S`.

The loop shares no code with the program, so a change to the program
cannot change it. It mixes the three kinds of work a solve does: plain
Python, many small numpy calls, and one dense LAPACK routine.
"""
from __future__ import annotations

import time

import numpy as np

# CPU seconds of one `loop()` on a 2-vCPU x86-64 virtual machine with
# OpenBLAS on one thread, in the slower and more common of the two speeds
# its host switched between (the other took about 0.024 s).
REFERENCE_S = 0.035

_rng = np.random.default_rng(2003)
_ROWS = _rng.random((200, 200))
_VECS = _rng.standard_normal((200, 21))
_SYM = _rng.random((120, 120))
_SYM = _SYM + _SYM.T


def loop() -> float:
    """Run the fixed work once; returns a checksum so none of it is skipped."""
    x, table = 0, {}
    for i in range(60000):
        x = (x * 31 + i) % 1000003
        table[i % 97] = x
    vecs = _VECS.copy()
    for _ in range(9):
        for i in range(len(vecs)):
            s = -(_ROWS[i] @ vecs)
            vecs[i] = s / np.linalg.norm(s)
    top = 0.0
    for _ in range(12):
        top += np.linalg.eigvalsh(_SYM)[-1]
    return x + float(vecs.sum()) + top


def timed() -> float:
    """CPU seconds of one `loop()`."""
    start = time.process_time()
    loop()
    return time.process_time() - start
