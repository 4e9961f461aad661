"""Re-measure the per-layer baseline rows the roadmap's benchmark item lists.

    python3 clibench/baselines.py

Library calls, not CLI operations, timed in this process with one BLAS
thread: classify on exact non-displaced data at M = 4, 6, 8; two-port
(displaced-squeezed) reconstruction at M = 4, 5; the single-mode
displaced-squeezed feasibility search.  Best of three, one run for rows
slower than a second.  Inputs come from fixed seeds.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

from gausstat.classify import (  # noqa: E402
    classify,
    displaced_squeezed_feasibility,
    synthesize_measurements,
)
from gausstat.recon_multi import recon_displaced_squeezed_multi  # noqa: E402
from gausstat.states import GaussianParams, derive_moments  # noqa: E402
from inputs import displaced_squeezed_multi, non_displaced  # noqa: E402


def best_ms(fn) -> float:
    t0 = perf_counter()
    fn()
    first = perf_counter() - t0
    times = [first]
    if first < 1.0:
        for _ in range(2):
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
    return 1e3 * min(times)


def measurements(draw):
    return synthesize_measurements(derive_moments(GaussianParams(*draw)), include_p0=True)


def main():
    rng = np.random.default_rng(7)
    for m in (4, 6, 8):
        data = measurements(non_displaced(rng, m))
        print(f"classify, non-displaced, M = {m}: {best_ms(lambda: classify(data, 1e-9)):.1f} ms")
    for m in (4, 5):
        alpha, z, phi, occ = displaced_squeezed_multi(rng, m)
        minus = measurements((np.zeros(m), z, phi, occ))
        orig = measurements((alpha, z, phi, occ))
        ms = best_ms(lambda: recon_displaced_squeezed_multi(minus, orig, tol=1e-8))
        print(f"two-port reconstruction, M = {m}: {ms:.0f} ms")
    data = measurements(([0.8 * np.exp(0.4j)], [[0.5 * np.exp(1.1j)]], [[0.0]], [0.2]))
    g2, g3, nbar = data.g2[0, 0], data.g3[(0, 0, 0)], data.nbar[0]
    ms = best_ms(lambda: displaced_squeezed_feasibility(g2, g3, 1e-6, nbar=nbar))
    print(f"single-mode feasibility search: {ms:.0f} ms")


if __name__ == "__main__":
    main()
