"""End-to-end benchmark of the vertexmagic workbench.

Usage:
    python3 perfbench/run.py --workload {campaign,atlas,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Each repetition of a workload runs in its own fresh, single-threaded process
(perfbench/worker.py), one process at a time, so every repetition pays the
import and the cold caches a user pays.  Repetitions continue while the
next one is expected to end within --seconds, with at least two.  wall_s,
setup_s and peak_rss_mb are medians over them; call_p50_ms and
call_tail_ms are taken over the per-item calls of all of them.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics, with the tracing
overhead (the median over the pairs of traced minus untraced wall time).
The metric names and units are those listed in BENCHMARK.json at the root
of the checkout.

The outputs are checked on every repetition: reference digests
(perfbench/reference.json), independent re-verification of every witness,
and the deterministic counts, which must agree across repetitions and
between traced and untraced runs.  Human-readable lines come first; the last
line of stdout is one JSON object {correct, attempted, failed, metrics}.
A failed check exits 1; a missing program or a crashed worker exits 2
without printing a result.  Per-run details, including the whole per-layer
table and the spans, are written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("campaign", "atlas")
DEFAULT_SEED = 2303
DEFAULT_SECONDS = 60
# time a run may take beyond --seconds before its worker is killed: the
# last repetition may start just before --seconds is up, and a campaign
# repetition, traced and untraced, takes about 22 s
RUN_MARGIN_S = 100.0
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# the percentiles call_tail_ms may report, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# counts the benchmark reads from return values on every repetition; the
# traced run adds the ones only spans can see
TRACED_COUNTS = (
    "solver.exists_magic.nodes",
    "kernels.search_exists.calls",
    "kernels.min_code.calls",
)


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, mode: str, deadline: float,
               reduced: bool = False) -> dict:
    """One `run` or `trace` repetition in a fresh process; returns its
    result with setup_s added."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), mode, OUT_DIR]
    if reduced:
        cmd.append("--reduced")
    env = {**os.environ, **SINGLE_THREAD_ENV}
    t_spawn = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{workload} repetition passed the run time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited with {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["setup_s"] = result["body_start"] - t_spawn
    return result


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def call_latency(reps: list[dict]) -> dict:
    """Median and tail of the per-item calls of all repetitions, pooled.

    The tail is the highest ladder percentile with at least 10 calls beyond
    it in a single repetition, so the percentile depends on the workload
    only, not on how many repetitions fitted in the run.
    """
    per_rep = len(reps[0]["call_times"])
    tail = next((p for p in TAIL_LADDER if per_rep * (1 - p / 100) >= 10), 50.0)
    xs = sorted(t for rep in reps for t in rep["call_times"])
    tail_s = percentile(xs, tail)
    return {
        "call_p50_ms": percentile(xs, 50.0) * 1e3,
        "call_tail_ms": tail_s * 1e3,
        "tail_pct": tail,
        "samples": len(xs),
        "beyond_tail": sum(1 for x in xs if x > tail_s),
    }


def layer_metrics(rep: dict) -> dict[str, float]:
    """Flat per-layer metrics of one traced repetition."""
    flat: dict[str, float] = {}
    for name, row in rep["layers"].items():
        for key, value in row.items():
            flat[f"{name}.{key}"] = value
    flat.update(rep["counters"])
    calls = flat["kernels.search_exists.calls"]
    flat["kernels.search_exists.hit_ratio"] = (
        flat.pop("kernels.search_exists.hits") / calls if calls else 0.0
    )
    calls = flat["solver.exists_magic.calls"]
    flat["solver.exists_magic.witness_ratio"] = (
        flat.pop("solver.exists_magic.witnesses") / calls if calls else 0.0
    )
    flat["trace.wall_s"] = rep["wall_s"]
    flat["trace.spans"] = rep["spans"]
    flat["trace.span_cost_s"] = rep["span_cost_s"]
    flat["trace.top_span_coverage"] = rep["top_level_s"] / rep["wall_s"]
    for key, value in rep["counts"].items():
        flat[f"counts.{key}"] = value
    return flat


def check_reps(workload: str, untraced: list[dict], traced: list[dict],
               reference: dict | None) -> list[str]:
    """Digest and determinism checks across repetitions of one run."""
    problems = []
    reps = untraced + traced
    for rep in reps:
        problems.extend(rep["failures"])
    if reference is not None:
        for rep in reps:
            if rep["digest"] != reference["digest"]:
                problems.append(f"{workload}: output digest {rep['digest']} "
                                f"differs from the reference")
    for key in ("digest", "counts", "ops", "backend"):
        if len({json.dumps(rep[key], sort_keys=True) for rep in reps}) > 1:
            problems.append(f"{workload}: {key} differs between repetitions")
    traced_counts = {
        json.dumps([layer_metrics(rep)[k] for k in TRACED_COUNTS]) for rep in traced
    }
    if len(traced_counts) > 1:
        problems.append(f"{workload}: traced counts differ between repetitions")
    return list(dict.fromkeys(problems))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            reduced: bool = False) -> dict:
    """Repetitions within `seconds` (at least two); medians and checks."""
    start = perf_counter()
    deadline = start + seconds + RUN_MARGIN_S
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        t_rep = perf_counter()
        untraced.append(run_worker(workload, seed, "run", deadline, reduced))
        if trace:
            traced.append(run_worker(workload, seed, "trace", deadline, reduced))
        # stop when one more repetition would end past `seconds`; a median
        # of at least two keeps one slow repetition from setting the result
        if len(untraced) >= 2 and 2 * perf_counter() - t_rep - start > seconds:
            break
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = None if reduced else json.load(fh)[workload]
    problems = check_reps(workload, untraced, traced, reference)
    first = untraced[0]
    latency = call_latency(untraced)
    e2e = {
        "wall_s": statistics.median(rep["wall_s"] for rep in untraced),
        "setup_s": statistics.median(rep["setup_s"] for rep in untraced),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in untraced),
        "call_p50_ms": latency["call_p50_ms"],
        "call_tail_ms": latency["call_tail_ms"],
    }
    out = {
        "workload": workload,
        "seed": seed,
        "reduced": reduced,
        "repetitions": len(untraced),
        "backend": first["backend"],
        "python": first["python"],
        "numpy": first["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "ops": first["ops"],
        "failed_ops": min(len(problems), first["ops"]),
        "problems": problems,
        "end_to_end": e2e,
        "repetition_wall_s": [rep["wall_s"] for rep in untraced],
        "call": first["call"],
        "tail_pct": latency["tail_pct"],
        "samples": latency["samples"],
        "beyond_tail": latency["beyond_tail"],
        "counts": first["counts"],
        "digest": first["digest"],
    }
    if trace:
        layers = [layer_metrics(rep) for rep in traced]
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        per_layer["trace.untraced_wall_s"] = e2e["wall_s"]
        # repetitions alternate, so pairing each traced one with the untraced
        # one just before it cancels most of the machine's drift
        per_layer["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced)
        )
        out["per_layer"] = per_layer
        out["spans_file"] = traced[-1]["spans_file"]
    return out


def print_report(res: dict, spec: dict) -> None:
    e2e = res["end_to_end"]
    print(f"== {res['workload']}  seed={res['seed']}  backend={res['backend']}  "
          f"python={res['python']}  numpy={res['numpy']}  nproc={res['nproc']}  "
          f"repetitions={res['repetitions']} (fresh processes, medians)")
    for m in spec["end_to_end"]:
        note = ""
        if m["name"] == "call_tail_ms":
            note = (f"  (p{res['tail_pct']:g} of {res['samples']} {res['call']} "
                    f"calls over all repetitions, {res['beyond_tail']} beyond)")
        print(f"   {m['name']:<14} {e2e[m['name']]:>12.4f} {m['unit']}{note}")
    print(f"   {'ops':<14} {res['ops']:>12d} count")
    print(f"   {'failed_ops':<14} {res['failed_ops']:>12d} count")
    for problem in res["problems"][:20]:
        print(f"     FAILED: {problem}")
    counts = "  ".join(f"{k}={v}" for k, v in sorted(res["counts"].items()))
    print(f"   deterministic counts: {counts}")
    if "per_layer" in res:
        pl = res["per_layer"]
        print(f"   traced: wall {pl['trace.wall_s']:.3f} s, untraced "
              f"{pl['trace.untraced_wall_s']:.3f} s, overhead "
              f"{pl['trace.overhead_s']:.3f} s (spans x their cost: "
              f"{pl['trace.span_cost_s']:.3f} s), top-level spans cover "
              f"{pl['trace.top_span_coverage']:.1%}; spans in {res['spans_file']}")
        print(f"   {'layer':<44} {'calls':>9} {'s':>9} {'self_s':>9}")
        names = sorted({k.rsplit(".", 1)[0] for k in pl if k.endswith(".self_s")},
                       key=lambda n: -pl[f"{n}.self_s"])
        for n in names:
            if pl[f"{n}.calls"]:
                print(f"   {n:<44} {pl[n + '.calls']:>9.0f} {pl[n + '.s']:>9.3f} "
                      f"{pl[n + '.self_s']:>9.3f}")
        traced = "  ".join(f"{k}={pl[k]:.0f}" for k in TRACED_COUNTS)
        print(f"   traced counts: {traced}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so that run_worker kills its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "vertexmagic", "__init__.py")):
        print("perfbench: no vertexmagic sources under src/ in this checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            res = measure(name, args.seed, args.seconds, bool(args.trace))
            print_report(res, spec)
            path = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(res, fh, indent=1, sort_keys=True)
            results.append(res)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for res in results:
        values = res["per_layer"] if args.trace else res["end_to_end"]
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    failed = sum(res["failed_ops"] for res in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(res["ops"] for res in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
