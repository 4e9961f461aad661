#!/usr/bin/env python3
"""Per-rung cost of the truncated-Fock oracle that `gausstat verify` builds.

For one seeded state per mode count M = 1-3, drawn by the benchmark's own
`verify` sampler (`clibench/inputs.py:oracle_state`), and for every cutoff of
its `verify` ladder and one past the M = 3 ladder (cutoff 14), prints one row:

- build_ms: thread CPU time of `fock.build_density`, median of REPEAT calls;
- rot_ms, sq_ms, disp_ms: thread CPU time of its stages, `fock._rotate`,
  `fock._squeeze` and `fock._displacement` (summed over the displaced
  modes), medians over REPEAT further builds with the stages wrapped;
- k and delta: the thermal columns kept and the weight the floor dropped;
- largest: the largest dense eigenproblem the build solved, the Gram
  matrix of a bipartite half's smaller side ("gram n", a squeeze parity
  block or a displacement factor) or a rotation number block ("eigh n"),
  recorded from the calls of one further build;
- rows_ms: thread CPU time of `cli._verify_rows`, the oracle moments
  `verify` reports at that cutoff (the closed forms are computed once per
  state, by `cli._closed_forms`), median of REPEAT calls.

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
from gausstat.states import GaussianParams, derive_moments  # noqa: E402

SEED = 0
REPEAT = 3
# cutoffs past the verify ladder, per mode count
EXTRA_CUTOFFS = {3: (14,)}
STAGES = ("_rotate", "_squeeze", "_displacement")


def cpu_ms(fn):
    times = []
    for _ in range(REPEAT):
        start = time.thread_time()
        out = fn()
        times.append(1e3 * (time.thread_time() - start))
    return statistics.median(times), out


def stage_ms(build):
    """Median thread CPU milliseconds of each of STAGES per build, over
    REPEAT builds with the stages wrapped."""
    spent = {name: [] for name in STAGES}
    originals = {name: getattr(fock, name) for name in STAGES}

    def timed(name, fn):
        def call(*args, **kwargs):
            start = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name][-1] += 1e3 * (time.thread_time() - start)
        return call

    for name, fn in originals.items():
        setattr(fock, name, timed(name, fn))
    try:
        for _ in range(REPEAT):
            for times in spent.values():
                times.append(0.0)
            build()
    finally:
        for name, fn in originals.items():
            setattr(fock, name, fn)
    return [statistics.median(spent[name]) for name in STAGES]


def largest_eigenproblem(build):
    """The largest matrix that one call of ``build`` hands to numpy's eigh,
    as "gram n" inside ``fock._expm_bipartite`` or "eigh n" elsewhere ("-"
    when none)."""
    eigh, bipartite = np.linalg.eigh, fock._expm_bipartite
    kind = ["eigh"]
    seen = []

    def recorded_eigh(a, *args, **kwargs):
        seen.append((a.shape[0], f"{kind[-1]} {a.shape[0]}"))
        return eigh(a, *args, **kwargs)

    def recorded_bipartite(half):
        kind.append("gram")
        try:
            return bipartite(half)
        finally:
            kind.pop()

    np.linalg.eigh, fock._expm_bipartite = recorded_eigh, recorded_bipartite
    try:
        build()
    finally:
        np.linalg.eigh, fock._expm_bipartite = eigh, bipartite
    return max(seen)[1] if seen else "-"


def main():
    print(f"{'M':>2} {'cutoff':>6} {'dim':>5} {'k':>5} {'delta':>9} {'build_ms':>9} "
          f"{'rot_ms':>8} {'sq_ms':>8} {'disp_ms':>8} {'largest':>10} {'rows_ms':>8}")
    for m in (1, 2, 3):
        params = GaussianParams(*oracle_state(np.random.default_rng([SEED, m]), m))
        forms = cli._closed_forms(derive_moments(params))
        for cutoff in cli.VERIFY_LADDERS[m] + EXTRA_CUTOFFS.get(m, ()):
            def build():
                return fock.build_density(params, cutoff=cutoff, tail_tol=1.0)
            build_ms, rho = cpu_ms(build)
            stages = stage_ms(build)
            largest = largest_eigenproblem(build)
            rows_ms, _ = cpu_ms(lambda: cli._verify_rows(forms, rho))
            print(f"{m:>2} {cutoff:>6} {cutoff**m:>5} {rho.factor.shape[1]:>5} "
                  f"{rho.dropped_weight:>9.2e} {build_ms:>9.2f} "
                  + " ".join(f"{ms:>8.2f}" for ms in stages)
                  + f" {largest:>10} {rows_ms:>8.2f}")


if __name__ == "__main__":
    main()
