#!/usr/bin/env python3
"""Per-rung cost of the truncated-Fock oracle that `gausstat verify` builds.

For one seeded state per mode count M = 1-3, drawn by the benchmark's own
`verify` sampler (`clibench/inputs.py:oracle_state`), and for every cutoff of
its `verify` ladder and one past the M = 3 ladder (cutoff 14), prints one row:

- build_ms: thread CPU time of `fock.build_density`, median of REPEAT calls;
- k and delta: the thermal columns kept and the weight the floor dropped;
- largest: the largest dense eigenproblem the build solved, an SVD of a
  p x q bipartite half ("svd pxq") or an eigh of an n x n block ("eigh n"),
  recorded from the calls of one further build;
- rows_ms: thread CPU time of `cli._verify_rows`, the closed forms and the
  oracle moments `verify` reports at that cutoff, median of REPEAT calls.

Run it with one BLAS thread for stable numbers:

    OPENBLAS_NUM_THREADS=1 python scripts/oracle_build_profile.py
"""

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "clibench"), str(ROOT / "src")]

import numpy as np  # noqa: E402
from inputs import oracle_state  # noqa: E402

from gausstat import cli, fock  # noqa: E402
from gausstat.states import GaussianParams  # noqa: E402

SEED = 0
REPEAT = 3
# cutoffs past the verify ladder, per mode count
EXTRA_CUTOFFS = {3: (14,)}


def cpu_ms(fn):
    times = []
    for _ in range(REPEAT):
        start = time.thread_time()
        out = fn()
        times.append(1e3 * (time.thread_time() - start))
    return statistics.median(times), out


def largest_eigenproblem(build):
    """The largest matrix that one call of ``build`` hands to numpy's SVD or
    eigh, by entry count, as "svd pxq" or "eigh n" ("-" when none)."""
    linalg = np.linalg
    seen = []

    def recorded(name, solve):
        def call(a, *args, **kwargs):
            shape = "x".join(map(str, a.shape)) if name == "svd" else a.shape[0]
            seen.append((a.size, f"{name} {shape}"))
            return solve(a, *args, **kwargs)
        return call

    svd, eigh = linalg.svd, linalg.eigh
    linalg.svd, linalg.eigh = recorded("svd", svd), recorded("eigh", eigh)
    try:
        build()
    finally:
        linalg.svd, linalg.eigh = svd, eigh
    return max(seen)[1] if seen else "-"


def main():
    print(f"{'M':>2} {'cutoff':>6} {'dim':>5} {'k':>5} {'delta':>9} "
          f"{'build_ms':>9} {'largest':>12} {'rows_ms':>8}")
    for m in (1, 2, 3):
        params = GaussianParams(*oracle_state(np.random.default_rng([SEED, m]), m))
        for cutoff in cli.VERIFY_LADDERS[m] + EXTRA_CUTOFFS.get(m, ()):
            def build():
                return fock.build_density(params, cutoff=cutoff, tail_tol=1.0)
            build_ms, rho = cpu_ms(build)
            largest = largest_eigenproblem(build)
            rows_ms, _ = cpu_ms(lambda: cli._verify_rows(params, rho))
            print(f"{m:>2} {cutoff:>6} {cutoff**m:>5} {rho.factor.shape[1]:>5} "
                  f"{rho.dropped_weight:>9.2e} {build_ms:>9.2f} {largest:>12} {rows_ms:>8.2f}")


if __name__ == "__main__":
    main()
