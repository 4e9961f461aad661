"""Machine-speed probe: one fixed kernel, timed in thread CPU time.

The machine this benchmark was written on runs the same code up to twice as
fast in some hours as in others, in phases that last from seconds to whole
runs; CPU time follows wall time, so the slowdown is the core's, not the
scheduler's.  Each operation of the timed loop is preceded by one probe, and
the run scales every operation's time by ``REFERENCE_S`` over the median
probe of its round (``normalise``).  The probe is fixed code outside the
program, so a change to the program moves the scaled times and a change of
machine speed moves the probe with them.

The kernel mixes the two kinds of work the program does: a pure-Python loop
(the interpreter, as in argparse, JSON and the g3 triple loop) and two small
matmuls (BLAS, as in the oracle's dense builds).
"""

from __future__ import annotations

import statistics
from time import thread_time

import numpy as np

# Median probe time on a 2-core Xeon VM (Python 3.11, one OpenBLAS thread)
# in a fast phase; the scaled times read as times at that speed.
REFERENCE_S = 0.8e-3

_MATRIX = np.random.default_rng(0).standard_normal((120, 120))


def probe() -> float:
    """Thread CPU seconds of the fixed kernel."""
    t0 = thread_time()
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    _MATRIX @ _MATRIX
    _MATRIX @ _MATRIX
    return thread_time() - t0


def normalise(latencies, probes):
    """Scale ``latencies[k][r]`` by REFERENCE_S over round r's median probe.

    ``probes[k][r]`` is the probe taken just before operation k of round r.
    """
    rounds = len(latencies[0])
    speed = [REFERENCE_S / statistics.median(p[r] for p in probes) for r in range(rounds)]
    return [[t * speed[r] for r, t in enumerate(lat)] for lat in latencies]
