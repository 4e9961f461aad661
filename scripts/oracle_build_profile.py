#!/usr/bin/env python3
"""Per-rung cost of the truncated-Fock oracle that `gausstat verify` builds.

For one seeded state per mode count M = 1-3, drawn by the benchmark's own
`verify` sampler (`clibench/inputs.py:oracle_state`), and for every cutoff of
its `verify` ladder, prints one row:

- build_ms: thread CPU time of `fock.build_density`, median of REPEAT calls;
- k and delta: the thermal columns kept and the weight the floor dropped;
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


def cpu_ms(fn):
    times = []
    for _ in range(REPEAT):
        start = time.thread_time()
        out = fn()
        times.append(1e3 * (time.thread_time() - start))
    return statistics.median(times), out


def main():
    print(f"{'M':>2} {'cutoff':>6} {'dim':>5} {'k':>5} {'delta':>9} "
          f"{'build_ms':>9} {'rows_ms':>8}")
    for m in (1, 2, 3):
        params = GaussianParams(*oracle_state(np.random.default_rng([SEED, m]), m))
        for cutoff in cli.VERIFY_LADDERS[m]:
            build_ms, rho = cpu_ms(
                lambda: fock.build_density(params, cutoff=cutoff, tail_tol=1.0))
            rows_ms, _ = cpu_ms(lambda: cli._verify_rows(params, rho))
            print(f"{m:>2} {cutoff:>6} {cutoff**m:>5} {rho.factor.shape[1]:>5} "
                  f"{rho.dropped_weight:>9.2e} {build_ms:>9.2f} {rows_ms:>8.2f}")


if __name__ == "__main__":
    main()
