#!/usr/bin/env python3
"""Per-layer cost of gausstat, swept over the mode count M.

Three parts, all with thread CPU times.  First, the forward model: for each
M in MODES, draws STATES states as the benchmark's `simulate` workload does
(`clibench/inputs.py:random_params`) and records, per layer, the median over
REPEAT batches of the time per call, in microseconds.  The layers:

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

Second, the phase searches, at each M in PHASE_MODES, timed like the layers
above and in the same passes:

- solve_covariance_phases: on the covariance-phase system, and at the
  solver tolerance, that `classify` at the command line's default tol builds
  from the exact data of each of STATES `non_displaced` draws
  (`clibench/inputs.py`);
- solve_displacement_phases: the same for the displacement-phase system of
  `non_squeezed` draws.

The batches of every (layer, M) cell take turns, one batch of each per
pass, so a phase in which the machine runs slower falls on all cells alike,
and each batch is scaled as the benchmark scales an operation: by
`clibench/probe.py`'s REFERENCE_S over the machine-speed probe taken just
before it.

Third, the truncated-Fock oracle that `gausstat verify` builds.  For one
seeded state per mode count M = 1-3, drawn by the benchmark's own `verify`
sampler (`clibench/inputs.py:oracle_state`), and for every cutoff of its
`verify` ladder and one past the M = 3 ladder (cutoff 14), one row:

- build_ms: time of `fock.build_density`, median of ORACLE_REPEAT calls;
- rot_ms, sq_ms, disp_ms: time of its stages, `fock._rotate`,
  `fock._squeeze` and `fock._displacement` (summed over the displaced
  modes), medians over ORACLE_REPEAT further builds with the stages wrapped;
- k and delta: the thermal columns kept and the weight the floor dropped;
- largest: the largest dense eigenproblem the build solved, the Gram
  matrix of a bipartite half's smaller side ("gram n", a squeeze parity
  block or a displacement factor) or a rotation number block ("eigh n"),
  recorded from the calls of one further build;
- rows_ms: time of `cli._verify_rows`, the oracle moments `verify` reports
  at that cutoff (the closed forms are computed once per state, by
  `cli._closed_forms`), median of ORACLE_REPEAT calls.

It also records the machine, Python and numpy versions.  Run it with one
BLAS thread for stable numbers:

    OPENBLAS_NUM_THREADS=1 python scripts/bench_layers.py --out BENCH_<label>.json
"""

import argparse
import importlib
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "clibench"), str(ROOT / "src")]

import numpy as np  # noqa: E402
from inputs import non_displaced, non_squeezed, oracle_state, random_params  # noqa: E402
from probe import REFERENCE_S, probe  # noqa: E402

from gausstat import cli, fock, phases, serialize  # noqa: E402
from gausstat.bucket import bucket_correlations  # noqa: E402
from gausstat.classify import MeasurementSet, classify, synthesize_measurements  # noqa: E402
from gausstat.recon_multi import measurement_residual  # noqa: E402
from gausstat.states import GaussianParams, derive_moments, g2_tensor, g3_tensor  # noqa: E402

MODES = (1, 2, 3, 4, 8, 12, 16)
PHASE_MODES = (3, 4, 6, 8)
STATES = 8
SEED = 0
# per phase search, the sector draw whose exact data classify solves it for
PHASE_SEARCHES = {"solve_covariance_phases": non_displaced,
                  "solve_displacement_phases": non_squeezed}
ORACLE_REPEAT = 3
# cutoffs past the verify ladder, per mode count
EXTRA_CUTOFFS = {3: (14,)}
STAGES = ("_rotate", "_squeeze", "_displacement")


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


def classify_systems(solver: str, params: list) -> list:
    """The (system, tol) arguments ``classify`` passes the named solver while
    it classifies the exact data of each state at the command line's tol."""
    module = importlib.import_module("gausstat.classify")
    solve, seen = getattr(module, solver), []

    def record(system, tol, stats=None):
        seen.append((system, tol))
        return solve(system, tol=tol, stats=stats)

    setattr(module, solver, record)
    try:
        for p in params:
            classify(synthesize_measurements(derive_moments(p)), tol=1e-8)
    finally:
        setattr(module, solver, solve)
    return seen


def cpu_ms(fn):
    times = []
    for _ in range(ORACLE_REPEAT):
        start = time.thread_time()
        out = fn()
        times.append(1e3 * (time.thread_time() - start))
    return statistics.median(times), out


def stage_ms(build):
    """Median thread CPU milliseconds of each of STAGES per build, over
    ORACLE_REPEAT builds with the stages wrapped."""
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
        for _ in range(ORACLE_REPEAT):
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


def oracle_rows() -> list[dict]:
    """One row per verify rung (and EXTRA_CUTOFFS) of one state per M = 1-3."""
    rows = []
    for m in (1, 2, 3):
        params = GaussianParams(*oracle_state(np.random.default_rng([SEED, m]), m))
        forms = cli._closed_forms(derive_moments(params))
        for cutoff in cli.VERIFY_LADDERS[m] + EXTRA_CUTOFFS.get(m, ()):
            def build():
                return fock.build_density(params, cutoff=cutoff, tail_tol=1.0)
            build_ms, rho = cpu_ms(build)
            rot_ms, sq_ms, disp_ms = stage_ms(build)
            rows.append({"M": m, "cutoff": cutoff, "dim": cutoff**m,
                         "k": rho.factor.shape[1], "delta": rho.dropped_weight,
                         "build_ms": build_ms, "rot_ms": rot_ms, "sq_ms": sq_ms,
                         "disp_ms": disp_ms, "largest": largest_eigenproblem(build),
                         "rows_ms": cpu_ms(lambda: cli._verify_rows(forms, rho))[0]})
    return rows


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
    for solver, draw in PHASE_SEARCHES.items():
        for m in PHASE_MODES:
            rng = np.random.default_rng([SEED, m])
            systems = classify_systems(solver, [GaussianParams(*draw(rng, m))
                                                for _ in range(STATES)])
            cells[solver, m] = (getattr(phases, solver), lambda systems=systems: systems)
    times = {key: [] for key in cells}
    for _ in range(args.repeat):
        for key, (fn, args_of) in cells.items():
            times[key].append(batch_us(fn, args_of()))
    by_layer = {}
    for (name, m), samples in times.items():
        by_layer.setdefault(name, {})[str(m)] = statistics.median(samples)
    oracle = oracle_rows()
    record = {
        "unit": "us per call, median over batches of thread CPU time scaled by the probe",
        "probe_reference_s": REFERENCE_S,
        "modes": list(MODES),
        "phase_modes": list(PHASE_MODES),
        "states_per_batch": STATES,
        "repeat": args.repeat,
        "machine": {"cpu": _cpu_model(), "arch": platform.machine(),
                    "system": platform.system(), "release": platform.release()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "layers": by_layer,
        "oracle_unit": "ms, median of thread CPU time over ORACLE_REPEAT calls, not scaled",
        "oracle_repeat": ORACLE_REPEAT,
        "oracle": oracle,
    }
    columns = sorted(set(MODES) | set(PHASE_MODES))
    print(f"{'layer (us/call)':<26}" + "".join(f"{'M=' + str(m):>10}" for m in columns))
    for name, row in by_layer.items():
        print(f"{name:<26}" + "".join(f"{row[str(m)]:>10.1f}" if str(m) in row else f"{'-':>10}"
                                      for m in columns))
    print()
    print(f"{'M':>2} {'cutoff':>6} {'dim':>5} {'k':>5} {'delta':>9} {'build_ms':>9} "
          f"{'rot_ms':>8} {'sq_ms':>8} {'disp_ms':>8} {'largest':>10} {'rows_ms':>8}")
    for r in oracle:
        print(f"{r['M']:>2} {r['cutoff']:>6} {r['dim']:>5} {r['k']:>5} {r['delta']:>9.2e} "
              f"{r['build_ms']:>9.2f} {r['rot_ms']:>8.2f} {r['sq_ms']:>8.2f} "
              f"{r['disp_ms']:>8.2f} {r['largest']:>10} {r['rows_ms']:>8.2f}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n",
                                  encoding="utf-8")


if __name__ == "__main__":
    main()
