"""The measured process: calls gausstat.cli.main in-process, one operation after another.

    python3 clibench/worker.py --manifest M --seconds S --trace 0|1 --out R

A closed loop with one client.  Each operation is one CLI invocation with
stdout and stderr captured in memory; the timer (thread CPU time, which on
one BLAS thread equals the call's wall time on a quiet core) covers only the
call.  A machine-speed probe (``probe.py``) runs just before each call,
outside the timer.  After one untimed warm-up round (lazy imports, the
oracle's operator cache) it runs whole rounds of the manifest's items until
``--seconds`` have passed.  Outputs are not checked here: each distinct
output text per item is written to R for the checker, with how often it
occurred.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: two threads made the oracle's
# dense builds slower and far more erratic on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, thread_time  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gausstat.cli  # noqa: E402
from probe import probe  # noqa: E402
from spans import Tracer  # noqa: E402


def probe_ms(samples=20) -> float:
    """Median of a few probes, for the run summary."""
    return 1e3 * statistics.median(probe() for _ in range(samples))


def call(argv):
    """One CLI operation; returns (exit code or exception name, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = thread_time()
        try:
            code = gausstat.cli.main(argv)
        except Exception as exc:  # a crash is one failed operation, never the run's end
            code = type(exc).__name__
        t1 = thread_time()
    return code, out.getvalue(), t1 - t0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    items = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    # gausstat.cli.main calls logging.basicConfig; give the root logger its
    # handler now so that call cannot bind it to one operation's captured stderr
    logging.basicConfig(stream=open(os.devnull, "w"), level=logging.WARNING)
    tracer = Tracer()
    if args.trace:
        tracer.install()

    outputs = [{} for _ in items]

    def record(k, code, text):
        digest = hashlib.sha1(f"{code}\n{text}".encode()).hexdigest()
        entry = outputs[k].setdefault(digest, {"code": code, "text": text, "count": 0})
        entry["count"] += 1

    probe_start = probe_ms()
    for k, item in enumerate(items):
        code, text, _ = call(item["argv"])
        record(k, code, text)

    latencies = [[] for _ in items]
    probes = [[] for _ in items]
    failures = [0 for _ in items]
    rounds = 0
    start = perf_counter()
    while True:
        for k, item in enumerate(items):
            tracer.operation = rounds * len(items) + k
            probes[k].append(probe())
            tracer.recording = True
            code, text, seconds = call(item["argv"])
            tracer.recording = False
            latencies[k].append(seconds)
            failures[k] += code != 0
            record(k, code, text)
        rounds += 1
        if perf_counter() - start >= args.seconds:
            break
    elapsed = perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probe_end = probe_ms()

    result = {
        "rounds": rounds,
        "elapsed_s": elapsed,
        "latencies_s": latencies,
        "probes_s": probes,
        "failures": failures,
        "outputs": [list(out.values()) for out in outputs],
        "peak_rss_kb": peak_kb,
        "probe_ms": {"start": probe_start, "end": probe_end},
    }
    if args.trace:
        result["layers"] = tracer.layer_metrics(rounds * len(items))
        result["spans"] = tracer.spans
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
