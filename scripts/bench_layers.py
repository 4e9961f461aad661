#!/usr/bin/env python3
"""Per-layer cost of the forward model, swept over the mode count M.

For each M in MODES, draws STATES states as the benchmark's `simulate`
workload does (`clibench/inputs.py:random_params`) and records, per layer,
the median over REPEAT batches of the thread CPU time per call, in
microseconds:

- derive_moments: the Bogoliubov map and the moments of a state;
- g2_tensor, g3_tensor, bucket_correlations, synthesize_measurements: each
  on a MomentSummary fresh from `derive_moments` (timed apart), so each
  pays the normalized blocks and the g3 tensor as the first reader of a
  state does (`synthesize_measurements` with p0, as `gausstat simulate`);
- measurement_residual: one state against its own exact data, as
  reconstruction scores a candidate;
- serialize: `serialize.dumps(serialize.measurement_to_json(...))` of that
  data.

It also records the machine, Python and numpy versions.  Run it with one
BLAS thread for stable numbers:

    OPENBLAS_NUM_THREADS=1 python scripts/bench_layers.py --out BENCH_<label>.json
"""

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "clibench"), str(ROOT / "src")]

import numpy as np  # noqa: E402
from inputs import random_params  # noqa: E402

from gausstat import serialize  # noqa: E402
from gausstat.bucket import bucket_correlations  # noqa: E402
from gausstat.classify import synthesize_measurements  # noqa: E402
from gausstat.recon_multi import measurement_residual  # noqa: E402
from gausstat.states import GaussianParams, derive_moments, g2_tensor, g3_tensor  # noqa: E402

MODES = (1, 2, 3, 4, 8, 12, 16)
STATES = 8
SEED = 0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def median_us(fn, args_of, repeat: int) -> float:
    """Median over ``repeat`` batches of the thread CPU microseconds of one
    ``fn(*args)``; ``args_of()`` builds a batch's arguments, untimed."""
    times = []
    for _ in range(repeat):
        batch = args_of()
        start = time.thread_time()
        for args in batch:
            fn(*args)
        times.append(1e6 * (time.thread_time() - start) / len(batch))
    return statistics.median(times)


def layers(params: list, repeat: int) -> dict[str, float]:
    data = [synthesize_measurements(derive_moments(p), include_p0=True) for p in params]

    def fresh():
        return [(derive_moments(p),) for p in params]

    return {
        "derive_moments": median_us(derive_moments, lambda: [(p,) for p in params], repeat),
        "g2_tensor": median_us(g2_tensor, fresh, repeat),
        "g3_tensor": median_us(g3_tensor, fresh, repeat),
        "bucket_correlations": median_us(bucket_correlations, fresh, repeat),
        "synthesize_measurements": median_us(
            lambda mom: synthesize_measurements(mom, include_p0=True), fresh, repeat),
        "measurement_residual": median_us(measurement_residual,
                                          lambda: list(zip(params, data)), repeat),
        "serialize": median_us(lambda m: serialize.dumps(serialize.measurement_to_json(m)),
                               lambda: [(m,) for m in data], repeat),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the record as JSON to this file")
    parser.add_argument("--repeat", type=int, default=31, help="batches per median")
    args = parser.parse_args(argv)
    by_layer = {}
    for m in MODES:
        rng = np.random.default_rng([SEED, m])
        params = [GaussianParams(*random_params(rng, m)) for _ in range(STATES)]
        for name, us in layers(params, args.repeat).items():
            by_layer.setdefault(name, {})[str(m)] = us
    record = {
        "unit": "us per call, median of thread CPU time over batches",
        "modes": list(MODES),
        "states_per_batch": STATES,
        "repeat": args.repeat,
        "machine": {"cpu": _cpu_model(), "arch": platform.machine(),
                    "system": platform.system(), "release": platform.release()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "layers": by_layer,
    }
    print(f"{'layer (us/call)':<24}" + "".join(f"{'M=' + str(m):>10}" for m in MODES))
    for name, row in by_layer.items():
        print(f"{name:<24}" + "".join(f"{row[str(m)]:>10.1f}" for m in MODES))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n",
                                  encoding="utf-8")


if __name__ == "__main__":
    main()
