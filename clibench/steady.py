"""Steadiness of one workload: run it N times over a set of seeds and report the spread.

    python3 clibench/steady.py --workload simulate --runs 10 --seeds 1,2,3,4,5

Seeds are used in turn (1, 2, ..., 5, 1, 2, ...).  For every end-to-end metric
it prints the median, the quartiles (``statistics.quantiles(n=4)``), the
spread (q3 - q1) / median and the bound from BENCHMARK.json; the bounds were
set from these figures.  It also prints each run's failed share, the
machine-speed probe (start / median of the timed loop / end) and the metrics
before scaling by the probe, so machine drift can be told apart from a
program change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    runs, summaries = [], []
    for n in range(args.runs):
        seed = seeds[n % len(seeds)]
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"run with seed {seed} failed:\n{proc.stderr}")
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        summary = json.loads((HERE / "out" / f"{args.workload}-seed{seed}-trace0.json")
                             .read_text(encoding="utf-8"))
        probe = summary["probe_ms"]
        values = {k: v["value"] for k, v in line["metrics"].items()}
        runs.append(values)
        summaries.append(summary)
        print(f"seed {seed:>4}  correct {line['correct']}  failed {line['failed']}/"
              f"{line['attempted']} = {line['failed'] / line['attempted']:.6f}  "
              + "  ".join(f"{k} {v:.5g}" for k, v in values.items())
              + f"  probe {probe['start']:.3f}/{probe['median']:.3f}/{probe['end']:.3f} ms"
              + "  unscaled " + "  ".join(f"{k} {v:.5g}" for k, v in summary["unscaled"].items()),
              flush=True)

    print(f"\n{args.workload}: {len(runs)} runs of {args.seconds:g} s")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        print(f"  {name:<12} median {med:<10.5g} q1 {q1:<10.5g} q3 {q3:<10.5g} "
              f"spread {spread:.4f}  bound {metric['bound']}"
              + ("  ABOVE BOUND/3" if spread > metric["bound"] / 3 else ""))

    print("\nmedian ms per operation of each kind, and failed operations, per seed:")
    kinds = sorted(summaries[0]["kinds"])
    print("  seed  " + "  ".join(f"{k:>18}" for k in kinds) + "  failed")
    for summary in summaries:
        fails = {k: sum(c.values()) for k, c in summary["failures"].items()}
        print(f"  {summary['seed']:>4}  "
              + "  ".join(f"{summary['kinds'][k]['median_ms']:>18.2f}" for k in kinds)
              + f"  {fails or 0}")


if __name__ == "__main__":
    main()
