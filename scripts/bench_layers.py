#!/usr/bin/env python3
"""Per-layer cost of the forward model, swept over the mode count M.

For each M in MODES, draws STATES states as the benchmark's `simulate`
workload does (`clibench/inputs.py:random_params`) and records, per layer,
the median over REPEAT batches of the thread CPU time per call, in
microseconds.  The batches of every (layer, M) cell take turns, one batch
of each per pass, so a phase in which the machine runs slower falls on all
cells alike, and each batch is scaled as the benchmark scales an operation:
by `clibench/probe.py`'s REFERENCE_S over the machine-speed probe taken
just before it.  The layers:

- params_from_json: a state's `gaussian_params` document, as `json` reads
  it, to validated GaussianParams;
- derive_moments: the Bogoliubov map and the moments of a state;
- g2_tensor, g3_tensor, bucket_correlations, synthesize_measurements: each
  on a MomentSummary fresh from `derive_moments` (timed apart), so each
  pays the normalized blocks and the g3 tensor as the first reader of a
  state does (`synthesize_measurements` with p0, as `gausstat simulate`);
- MeasurementSet: validating a state's exact data, arrays and g3 entries,
  which `synthesize_measurements` and `serialize.measurement_from_json` pay;
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
from probe import REFERENCE_S, probe  # noqa: E402

from gausstat import serialize  # noqa: E402
from gausstat.bucket import bucket_correlations  # noqa: E402
from gausstat.classify import MeasurementSet, synthesize_measurements  # noqa: E402
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


def batch_us(fn, batch: list) -> float:
    """Thread CPU microseconds of one ``fn(*args)`` over a batch of argument
    tuples, scaled by the probe run just before it."""
    speed = REFERENCE_S / probe()
    start = time.thread_time()
    for args in batch:
        fn(*args)
    return 1e6 * speed * (time.thread_time() - start) / len(batch)


def layers(params: list) -> dict[str, tuple]:
    """Per layer, the function timed and a function that makes a batch's
    arguments (called untimed before each batch)."""
    data = [synthesize_measurements(derive_moments(p), include_p0=True) for p in params]

    docs = [serialize.params_to_json(p) for p in params]

    def fresh():
        return [(derive_moments(p),) for p in params]

    def validate(m):
        return MeasurementSet(m.modes, nbar=m.nbar, g1_abs=m.g1_abs, g1_phase=m.g1_phase,
                              g2=m.g2, g3=m.g3, p0=m.p0, sigma=m.sigma)

    return {
        "params_from_json": (serialize.params_from_json, lambda: [(d,) for d in docs]),
        "derive_moments": (derive_moments, lambda: [(p,) for p in params]),
        "g2_tensor": (g2_tensor, fresh),
        "g3_tensor": (g3_tensor, fresh),
        "bucket_correlations": (bucket_correlations, fresh),
        "synthesize_measurements": (
            lambda mom: synthesize_measurements(mom, include_p0=True), fresh),
        "MeasurementSet": (validate, lambda: [(m,) for m in data]),
        "measurement_residual": (measurement_residual, lambda: list(zip(params, data))),
        "serialize": (lambda m: serialize.dumps(serialize.measurement_to_json(m)),
                      lambda: [(m,) for m in data]),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the record as JSON to this file")
    parser.add_argument("--repeat", type=int, default=31, help="batches per median")
    args = parser.parse_args(argv)
    cells = {}
    for m in MODES:
        rng = np.random.default_rng([SEED, m])
        params = [GaussianParams(*random_params(rng, m)) for _ in range(STATES)]
        for name, case in layers(params).items():
            cells[name, m] = case
    times = {key: [] for key in cells}
    for _ in range(args.repeat):
        for key, (fn, args_of) in cells.items():
            times[key].append(batch_us(fn, args_of()))
    by_layer = {}
    for (name, m), samples in times.items():
        by_layer.setdefault(name, {})[str(m)] = statistics.median(samples)
    record = {
        "unit": "us per call, median over batches of thread CPU time scaled by the probe",
        "probe_reference_s": REFERENCE_S,
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
