"""One repetition of one workload, in a fresh process; started by run.py.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE OUT_DIR [--reduced]

MODE is `run` or `trace` (the same with spans).  Prints one JSON object on
stdout: the perf_counter value at which the timed body started (run.py
subtracts its spawn time from it to get set-up time), the body's wall time,
the per-call times, peak RSS, the output checks, and in `trace` mode the
per-layer table.
perf_counter is CLOCK_MONOTONIC on Linux, so the two processes' readings
are comparable.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402

import vertexmagic.kernels  # noqa: E402
from tracing import Tracer, span_cost  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

def main(argv: list[str]) -> int:
    name, seed, mode, out_dir = argv[0], int(argv[1]), argv[2], argv[3]
    reduced = "--reduced" in argv[4:]
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        wl = WORKLOADS[name](seed, reduced, scratch)
        tracer = Tracer() if mode == "trace" else None
        if tracer is not None:
            tracer.install()
        t0 = perf_counter()
        wl.run()
        t1 = perf_counter()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
        ops, failures, out_digest, counts = wl.check()
    result = {
        "body_start": t0,
        "wall_s": t1 - t0,
        "peak_rss_mb": peak_kb / 1024.0,
        "ops": ops,
        "failures": failures,
        "digest": out_digest,
        "counts": counts,
        "call": wl.call,
        "backend": vertexmagic.kernels.BACKEND,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "call_times": wl.times,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_table()
        result["counters"] = tracer.counters
        result["top_level_s"] = tracer.top_level_seconds()
        result["spans"] = len(tracer)
        result["span_cost_s"] = len(tracer) * span_cost()
        spans_path = os.path.join(out_dir, f"{name}-seed{seed}.spans")
        tracer.dump(spans_path)
        result["spans_file"] = spans_path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
