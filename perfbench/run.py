#!/usr/bin/env python3
"""saikit benchmark: one closed-loop client solving seeded inputs.

Run from the repository root:

    python3 perfbench/run.py --workload psai-drop --seed 1 --seconds 20 --trace 0

The client solves one generated input at a time for ``--seconds`` of
wall time, checks every solution, and prints as its
last stdout line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
solves every input twice, untraced and then traced, and reports the
per-layer metrics of the traced solves plus the tracing overhead. The line
before the result carries the machine record, sample counts, tail
percentiles and layer shares. ``--tiny`` runs each workload at smoke-test
size. See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("psai-drop", "spai-grow", "file-many-rhs", "permuted-rows")


def metric_units(root: str) -> dict:
    """Unit of every metric, as BENCHMARK.json at the repository root declares it."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_program(root: str) -> None:
    """Make the checkout's ``src/saikit`` importable, or exit with code 2."""
    if not os.path.isfile(os.path.join(root, "src", "saikit", "__init__.py")):
        print(f"error: no saikit sources under {root}/src; run from the repository root",
              file=sys.stderr)
        sys.exit(2)
    # One BLAS thread: the client is single-threaded apart from spai-grow's
    # two column workers, and the machine has two cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(root, "src"), HERE]


def machine_record() -> dict:
    import numpy as np
    import scipy

    def blas(mod) -> str:
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (TypeError, KeyError):
            return "unknown"

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(np), "scipy_blas": blas(scipy),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def summarize(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it.

    With k samples that is the nearest-rank percentile floor(100 (k - 10) / k);
    it is reported only when it lies above the median (k >= 21).
    """
    k = len(values)
    out = {"median": statistics.median(values), "n": k, "tail_pct": None, "tail": None}
    if k >= 21:
        pct = 100 * (k - 10) // k
        out["tail_pct"] = pct
        out["tail"] = sorted(values)[math.ceil(pct * k / 100) - 1]
    if k >= 4:
        q = statistics.quantiles(values, n=4)
        out["iqr_over_median"] = (q[2] - q[0]) / out["median"] if out["median"] else None
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    load_program(root)

    import workloads as wl

    w = wl.WORKLOADS[args.workload]
    workdir = os.path.join(root, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result, detail = measure(w, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["machine"] = machine_record()
    detail["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace == 0:
        result["metrics"]["peak_rss_mib"] = detail["peak_rss_mib"]
    units = metric_units(root)
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


def gate_selftest(w, seed: int, workdir: str) -> bool:
    """A starved solve (one iteration, eps 1e-14) must be counted as failed."""
    import workloads as wl

    case = wl.make_case(w, seed, 1_000_000, True, workdir)
    try:
        return wl.check(w, case, wl.solve(w, case, starved=True), starved=True) is not None
    finally:
        case.close()


def measure(w, args, workdir: str) -> tuple[dict, dict]:
    import workloads as wl

    # Untimed warm-up on a small input: lazy imports, allocator.
    warm = wl.make_case(w, args.seed, 1_000_001, True, workdir)
    wl.solve(w, warm)
    warm.close()
    selftest_ok = gate_selftest(w, args.seed, workdir)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    pool: dict[int, object] = {}
    attempted = failed = 0
    reasons: list[str] = []
    identical = True
    tts, setup, solve_s, overhead, layers, shares = [], [], [], [], [], []
    measured = 0.0
    index = 0
    cpu0, wall0 = time.process_time(), time.perf_counter()
    while time.perf_counter() - wall0 < args.seconds:
        key = index % w.pool if w.pool else index
        case = pool.get(key) or wl.make_case(w, args.seed, key, args.tiny, workdir)
        if w.pool:
            pool[key] = case
        gc.collect()   # start every timed solve from the same collector state
        out = wl.solve(w, case)
        attempted += 1
        measured += out.time_s
        why = wl.check(w, case, out)
        if why:
            failed += 1
            reasons.append(why)
        if tracer is None:
            tts.append(out.time_s)
            setup.append(out.t_setup)
            solve_s.append(out.time_s - out.t_setup)
        else:
            tracer.run = index + 1
            gc.collect()
            with tracer:
                traced = wl.solve(w, case)
            attempted += 1
            measured += traced.time_s
            why_t = wl.check(w, case, traced)
            if why_t is None and why is None and (traced.x.tobytes() != out.x.tobytes()
                                                  or traced.nnz_m != out.nnz_m):
                why_t = "traced solution or nnz(M) differs from the untraced one"
                identical = False
            if why_t:
                failed += 1
                reasons.append(why_t)
            m = tracing.layer_metrics(tracer, tracer.run, traced.report_bytes)
            layers.append(m)
            shares.append(tracing.layer_shares(m, traced.time_s))
            overhead.append(traced.time_s - out.time_s)
            tts.append(traced.time_s)
        if not w.pool:
            case.close()
        index += 1
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    for case in pool.values():
        case.close()

    detail = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "solves": attempted,
              "failed": failed, "failure_reasons": reasons[:5],
              "gate_selftest_ok": selftest_ok, "timed_s": measured, "loop_wall_s": wall,
              "loop_cpu_s": cpu}
    if tracer is None:
        metrics = {
            "time_to_solution_s": statistics.median(tts),
            "setup_s": statistics.median(setup),
            "solve_s": statistics.median(solve_s),
            "solved_frac": (attempted - failed) / attempted,
        }
        detail["summary"] = {"time_to_solution_s": summarize(tts),
                             "setup_s": summarize(setup), "solve_s": summarize(solve_s)}
    else:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(overhead)
        detail["traced_time_to_solution_s"] = summarize(tts)
        detail["trace_overhead_s"] = summarize(overhead)
        detail["traced_identical"] = identical
        detail["layer_shares"] = {k: statistics.median(s[k] for s in shares)
                                  for k in shares[0]}
        trace_dir = os.path.join(os.getcwd(), ".perfbench_work", "traces")
        tracer.dump(os.path.join(trace_dir, f"{w.name}-seed{args.seed}.jsonl.gz"))
    correct = failed == 0 and selftest_ok and identical
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


if __name__ == "__main__":
    sys.exit(main())
