"""Reference loop that measures how fast the machine runs right now.

On a shared host the speed of this process drifts by up to 1.6x over
minutes (on a 2-core Intel Xeon VM with numpy kernels, one
qp_gaussian pass of identical work took 3.0 s to 4.9 s in one
process).  The benchmark times this fixed loop next to every timed
section and reports times at the reference speed:

    seconds * REFERENCE_SECONDS / (time the loop took next to them)

which reads as seconds on a machine where the loop takes
``REFERENCE_SECONDS``.  The loop is the benchmark's own code, shaped
like the solver's inner work (a CSR-style gather and segmented sum, a
dot product and an axpy on vectors of a few hundred entries), so no
change to sisqo changes it.
"""

from time import perf_counter

import numpy as np

REFERENCE_SECONDS = 0.01

_N, _NNZ, _STEPS = 512, 1536, 450
_rng = np.random.default_rng(20211)
_INDPTR = np.linspace(0, _NNZ, _N + 1).astype(np.int64)
_INDICES = _rng.integers(0, _N, _NNZ)
_DATA = _rng.standard_normal(_NNZ)
_X0 = _rng.standard_normal(_N)


def _loop():
    x = _X0.copy()
    for _ in range(_STEPS):
        y = np.add.reduceat(_DATA * x[_INDICES], _INDPTR[:-1])
        x = x + (1e-3 / (1.0 + float(np.dot(y, y)))) * y


def reference_time(min_seconds=0.0):
    """Mean seconds of one reference loop, over as many loops as fill
    ``min_seconds`` (at least one).  A single loop is short enough to
    land inside a burst of contention, so long timed sections are
    scaled by a proportionally longer block."""
    loops, start = 0, perf_counter()
    while True:
        _loop()
        loops += 1
        elapsed = perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / loops


def at_reference_speed(seconds, reference):
    return seconds * REFERENCE_SECONDS / reference
