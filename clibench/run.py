"""Benchmark of the gausstat CLI: one workload, one seed, one run.

    python3 clibench/run.py --workload simulate|analyze|verify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  Three processes take part:
``inputs.py`` draws the workload's inputs and their reference values,
``worker.py`` runs the operations (the measured process), and this process
samples set-up time, checks every output and prints the result.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  A summary with more detail goes to ``clibench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("simulate", "analyze", "verify")
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}
SETUP_SAMPLES = (3, 1, 3)  # before the inputs, before the worker, after the worker
# CPU seconds of the import, then the median of ten probes (probe.py) run
# right after it in the same interpreter, warm
IMPORT_SNIPPET = ("import statistics, sys, time; sys.path[:0] = ['src', 'clibench']; "
                  "t = time.process_time(); import gausstat.cli; t = time.process_time() - t; "
                  "from probe import probe; print(t, statistics.median(probe() for _ in range(10)))")


def fail(message: str) -> None:
    print(f"clibench: {message}", file=sys.stderr)
    sys.exit(2)


def python(args, timeout, **kwargs):
    return subprocess.run([sys.executable, *args], cwd=ROOT, timeout=timeout,
                          capture_output=True, text=True, **kwargs)


def setup_sample() -> tuple[float, float]:
    """CPU seconds to import gausstat.cli in a fresh interpreter, unscaled and scaled."""
    from probe import REFERENCE_S

    proc = python(["-c", IMPORT_SNIPPET], timeout=60)
    if proc.returncode != 0:
        fail(f"importing gausstat.cli failed:\n{proc.stderr}")
    seconds, probe_s = map(float, proc.stdout.split()[-2:])
    return seconds, seconds * REFERENCE_S / probe_s


def import_times() -> dict[str, float]:
    """Cumulative -X importtime of scipy's outermost imports and of gausstat, in ms."""
    proc = python(["-X", "importtime", "-c", "import sys; sys.path.insert(0, 'src'); "
                   "import gausstat.cli"], timeout=60)
    entries = []  # (depth, name, cumulative us), in the order printed (children first)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        label = parts[2][1:]
        name = label.lstrip(" ")
        entries.append(((len(label) - len(name)) // 2, name, int(parts[1])))
    scipy_us = gausstat_us = 0
    stack: list[tuple[int, bool]] = []  # walk parents first: (depth, scipy in chain)
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy_us += cumulative
        if depth == 0 and (name == "gausstat" or name.startswith("gausstat.")):
            gausstat_us += cumulative
        stack.append((depth, inside or is_scipy))
    return {"import.scipy_ms": scipy_us / 1e3, "import.gausstat_ms": gausstat_us / 1e3}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gausstat" / "cli.py").is_file():
        fail(f"no gausstat sources under {ROOT / 'src'}; run from a source checkout")

    sys.path.insert(0, str(HERE))
    from checks import check
    from probe import normalise
    from spans import LAYER_METRICS

    tag = f"{args.workload}-seed{args.seed}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = [setup_sample() for _ in range(SETUP_SAMPLES[0])]
        proc = python([str(HERE / "inputs.py"), "--workload", args.workload,
                       "--seed", str(args.seed), "--dir", str(work)], timeout=120)
        if proc.returncode != 0:
            fail(f"drawing inputs failed:\n{proc.stderr}")
        setup += [setup_sample() for _ in range(SETUP_SAMPLES[1])]
        result_path = work / "result.json"
        proc = python([str(HERE / "worker.py"), "--manifest", str(work / "manifest.json"),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--out", str(result_path)], timeout=args.seconds + 120)
        if proc.returncode != 0:
            fail(f"worker failed:\n{proc.stderr}")
        setup += [setup_sample() for _ in range(SETUP_SAMPLES[2])]
        items = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
        result = json.loads(result_path.read_text(encoding="utf-8"))

        problems = {}
        failures = defaultdict(Counter)  # kind -> exit code or exception -> timed count
        for item, outputs, failed_k in zip(items, result["outputs"], result["failures"]):
            codes = sorted({str(out["code"]) for out in outputs if out["code"] != 0})
            if failed_k:
                failures[item["kind"]]["/".join(codes)] += failed_k
            for out in outputs:
                if out["code"] != 0:
                    continue
                found = check(item, out["text"])
                if found:
                    problems.setdefault(item["kind"], []).append(
                        {"argv": item["argv"], "problems": found})
        unexpected = sorted(item["kind"] for item, n in zip(items, result["failures"])
                            if n and not item["kept_fault"])
        if unexpected:
            print(f"clibench: failures outside the kept fault in {unexpected}", file=sys.stderr)
        for kind, found in problems.items():
            print(f"clibench: wrong output ({kind}): {found[0]}", file=sys.stderr)

        raw = result["latencies_s"]
        latencies = normalise(raw, result["probes_s"])
        attempted = result["rounds"] * len(items)
        failed = sum(result["failures"])
        # Each round repeats the same operations, so an operation's spread
        # across rounds is the machine's, which alternates between fast and
        # slow phases; its median round was the steadiest measure of its cost.
        # Times are scaled to the probe's reference speed (probe.py).
        per_item = [statistics.median(lat) for lat in latencies]
        per_item_raw = [statistics.median(lat) for lat in raw]
        by_kind = defaultdict(list)
        for item, lat in zip(items, latencies):
            by_kind[item["kind"]].extend(lat)
        end_to_end = {
            "setup_s": statistics.median(s for _, s in setup),
            "ops_per_s": len(items) / sum(per_item),
            "op_ms_p50": 1e3 * statistics.median(per_item),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        summary = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "correct": not problems, "attempted": attempted,
            "failed": failed, "rounds": result["rounds"], "elapsed_s": result["elapsed_s"],
            "operations_per_round": len(items), "end_to_end": end_to_end,
            "unscaled": {"setup_s": statistics.median(u for u, _ in setup),
                         "ops_per_s": len(items) / sum(per_item_raw),
                         "op_ms_p50": 1e3 * statistics.median(per_item_raw),
                         "mean_ops_per_s": attempted / result["elapsed_s"]},
            "setup_samples_s": setup, "probe_ms": {
                **result["probe_ms"],
                "median": 1e3 * statistics.median(p for row in result["probes_s"] for p in row)},
            "kinds": {kind: {"ops_per_round": sum(i["kind"] == kind for i in items),
                             "median_ms": 1e3 * statistics.median(lat),
                             "best_ms": 1e3 * min(lat)}
                      for kind, lat in sorted(by_kind.items())},
            "failures": {kind: dict(c) for kind, c in failures.items()},
            "problems": problems,
        }
        if args.trace:
            imports = [import_times() for _ in range(3)]
            layers = {**{k: statistics.median(s[k] for s in imports) for k in imports[0]},
                      **result["layers"]}
            summary["layers"] = layers
            (OUT / f"{tag}.spans.json").write_text(json.dumps(result["spans"]),
                                                   encoding="utf-8")
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}
        else:
            metrics = {name: {"value": end_to_end[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
        (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1),
                                                           encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
