#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes; run from the repository root.

    python3 perfbench/smoke.py

For every workload, in an untraced and a traced run, it checks that the
last stdout line is the result object, that every metric BENCHMARK.json
names is printed with its unit, that the solutions passed the correctness
gate and that the gate's starved self-test ran and failed as it must. It
also checks the gate directly on starved solves, that each workload's own
layers report work, that tracing a 2-thread SPAI build records worker spans
and leaves its solution bit-identical, and that the benchmark exits non-zero
without printing a result where there is no program to measure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(HERE, "run.py")]

# A metric of each workload's own layers that must be non-zero when traced.
OWN_LAYER = {
    "psai-drop": ["psai.build_s", "psai.drops", "lstsq.drop_calls"],
    "spai-grow": ["spai.build_s", "spai.candidates", "spai.pick_ratio"],
    "file-many-rhs": ["sparse_core.read_s", "cli.self_s", "cli.report_bytes",
                      "krylov.iterations"],
    "permuted-rows": ["sparse_core.permute_s", "psai.build_s"],
}


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(RUN + ["--workload", workload, "--seed", "3", "--seconds", "0.3",
                                 "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(workload: str, trace: int, spec: dict) -> None:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, (result, detail)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert detail["gate_selftest_ok"] is True
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, \
        set(result["metrics"]) ^ {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), got
        if not trace:
            assert got["value"] > 0, (workload, m["name"], got)
    if trace:
        assert detail["traced_identical"] is True
        for name in OWN_LAYER[workload]:
            assert result["metrics"][name]["value"] > 0, (workload, name)


def check_gate_counts_starved_solves() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads as wl

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for w in wl.WORKLOADS.values():
            case = wl.make_case(w, 3, 0, True, tmp)
            assert wl.check(w, case, wl.solve(w, case)) is None, w.name
            starved = wl.solve(w, case, starved=True)
            assert wl.check(w, case, starved, starved=True) is not None, w.name
            case.close()


def check_tracing_two_threads() -> None:
    import threading

    import saikit.driver
    import tracing
    from saikit import DriverConfig, SpaiConfig

    import workloads as wl

    w = wl.WORKLOADS["spai-grow"]
    case = wl.make_case(w, 3, 0, True, ROOT)
    cfg = DriverConfig(method="spai", spai=SpaiConfig(delta=0.1), threads=2, epsilon=w.eps)
    plain = saikit.driver.solve_irregular(case.a, case.b_ref, cfg)
    tracer = tracing.Tracer()
    tracer.run = 1
    with tracer:
        traced = saikit.driver.solve_irregular(case.a, case.b_ref, cfg)
    assert traced.x_hat.tobytes() == plain.x_hat.tobytes()
    workers = {s[6] for s in tracer.spans} - {threading.get_ident()}
    assert workers, "no spans were recorded on the worker threads"
    assert tracing.layer_metrics(tracer, 1)["spai.candidates"] > 0


def check_fails_without_program(spec_path: str) -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        shutil.copy(spec_path, bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("psai-drop", 0, cwd=bare)
        assert proc.returncode != 0, proc
        assert '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        for trace in (0, 1):
            check_result(workload, trace, spec)
            print(f"ok  {workload} --trace {trace}")
    check_gate_counts_starved_solves()
    print("ok  starved solves are counted as failed")
    check_tracing_two_threads()
    print("ok  tracing a 2-thread build is bit-identical and sees the workers")
    check_fails_without_program(spec_path)
    print("ok  exits non-zero without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
