"""Span and counter tracing around saikit's public names, from outside.

The tracer replaces module attributes (``saikit.driver.spai``,
``saikit.spai.ls_init``, ``LsWorkspace.augment``, ...) with wrappers while
it is installed and restores them afterwards, so untraced solves run the
program unmodified. Every wrapped call becomes a span (id, parent, name,
start, end, run id, thread); results are inspected for counts. Spans and
counts stay in memory; :meth:`Tracer.dump` writes them out at the end.

The wrappers are thread-safe: with ``threads > 1`` saikit builds columns
on worker threads. Each thread keeps its own span stack; a span opened on a worker
thread with an empty stack takes as parent the innermost span open on the
thread that installed the tracer (the preconditioner build that started
the pool).
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from importlib import import_module

import numpy as np

from saikit.lstsq import LsWorkspace, WorkspaceGuardError

# The package re-exports the functions spai and psai under the module names,
# so the modules are looked up by import path.
_driver, _cli, _spai, _psai = (import_module(f"saikit.{m}")
                               for m in ("driver", "cli", "spai", "psai"))

# (namespace, attribute, span name); the span name is the layer-qualified
# public name the call goes through.
TARGETS = [
    (_driver, "solve_irregular", "driver.solve_irregular"),
    (_driver, "split", "driver.split"),
    (_driver, "spai", "driver.spai"),
    (_driver, "psai", "driver.psai"),
    (_driver, "bicgstab", "driver.bicgstab"),
    (_driver, "matvec", "driver.matvec"),
    (_driver, "assemble_solution", "driver.assemble_solution"),
    (_driver, "zero_free_diagonal_permutation", "driver.zero_free_diagonal_permutation"),
    (_driver, "permute_rows", "driver.permute_rows"),
    (_cli, "main", "cli.main"),
    (_cli, "read_matrix_market", "cli.read_matrix_market"),
    (_spai, "spai_candidates", "spai.spai_candidates"),
    (_spai, "spai_profitability", "spai.spai_profitability"),
    (_spai, "ls_init", "spai.ls_init"),
    (_psai, "ls_init", "psai.ls_init"),
    (LsWorkspace, "augment", "LsWorkspace.augment"),
    (LsWorkspace, "drop_columns", "LsWorkspace.drop_columns"),
]

LS_INIT = ("spai.ls_init", "psai.ls_init")


class Tracer:
    """In-memory spans and per-run counters for wrapped saikit calls."""

    def __init__(self):
        self.spans: list[tuple] = []     # (id, parent, name, t0, t1, run, thread, error)
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.shapes: dict = defaultdict(list)   # run -> [(rows, cols)] per LS solve
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list = []
        self._saved: list = []
        self._builder = None       # "spai" | "psai" while a build span is open
        self._m = None             # preconditioner of the current solve
        self.run = 0

    # -- install / restore -------------------------------------------

    def __enter__(self) -> "Tracer":
        self._local.stack = self._main_stack
        hooks = {
            "driver.split": self._on_split,
            "driver.spai": self._on_build,
            "driver.psai": self._on_build,
            "driver.bicgstab": self._on_bicgstab,
            "driver.matvec": self._on_matvec,
            "cli.read_matrix_market": self._on_read,
            "spai.spai_candidates": self._on_candidates,
            "spai.spai_profitability": self._on_profitability,
            "spai.ls_init": self._on_workspace,
            "psai.ls_init": self._on_workspace,
            "LsWorkspace.augment": self._on_augment,
            "LsWorkspace.drop_columns": self._on_workspace,
        }
        for owner, attr, name in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hooks.get(name)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- span recording ------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else (0, "")
            sid = tracer._next_id()
            if name in ("driver.spai", "driver.psai"):
                tracer._builder = name.split(".")[1]
            stack.append((sid, name))
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = time.perf_counter()
                stack.pop()
                tracer._record(sid, parent[0], name, t0, t1, type(exc).__name__)
                if isinstance(exc, WorkspaceGuardError):
                    tracer.count("lstsq.guard_hits", 1)
                raise
            t1 = time.perf_counter()
            stack.pop()
            tracer._record(sid, parent[0], name, t0, t1, None)
            if hook is not None:
                hook(args, out, parent[1])
            return out

        return traced

    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def _record(self, sid, parent, name, t0, t1, error) -> None:
        span = (sid, parent, name, t0, t1, self.run, threading.get_ident(), error)
        with self._lock:
            self.spans.append(span)

    def count(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[self.run][key] += value

    # -- result hooks --------------------------------------------------

    def _on_split(self, args, sys_, parent) -> None:
        self.count("splitting.s", sys_.s)
        self.count("splitting.nnz_a_tilde", sys_.a_tilde.nnz)

    def _on_build(self, args, out, parent) -> None:
        m, rep = out
        self._m = m
        kind = self._builder
        self._builder = None
        self.count(f"{kind}.nnz_m", m.nnz)
        self.count(f"{kind}.loops", sum(c.loops_used for c in rep.columns))
        if kind == "spai":
            self.count("spai.n_c", rep.n_c)
        else:
            self.count("psai.drops", sum(c.dropped_count for c in rep.columns))
            self.count("psai.l_m", rep.l_m)
            self.count("psai.failed_columns", len(rep.errors))

    def _on_bicgstab(self, args, outcome, parent) -> None:
        self.count("krylov.iterations", outcome.iterations)
        with self._lock:
            run = self.counts[self.run]
            run["krylov.iterations_max"] = max(run["krylov.iterations_max"],
                                               outcome.iterations)
        if outcome.flag != "converged":
            self.count("krylov.not_converged", 1)

    def _on_matvec(self, args, out, parent) -> None:
        if args[0] is self._m:
            self.count("krylov.m_applies", 1)
        elif parent == "driver.bicgstab":
            self.count("krylov.a_applies", 1)

    def _on_read(self, args, out, parent) -> None:
        self.count("sparse_core.read_bytes", os.path.getsize(args[0]))

    def _on_candidates(self, args, cand, parent) -> None:
        self.count("spai.candidates", len(cand))

    def _on_profitability(self, args, out, parent) -> None:
        self.count("spai.evaluated", len(out[0]))

    def _on_workspace(self, args, ws, parent) -> None:
        self._shape(ws)

    def _on_augment(self, args, out, parent) -> None:
        ws, new_cols = args[0], args[2]
        if self._builder == "spai":
            self.count("spai.picked", len(np.unique(new_cols)))
        self._shape(ws)

    def _shape(self, ws: LsWorkspace) -> None:
        with self._lock:
            self.shapes[self.run].append((len(ws.rows), len(ws.cols)))

    # -- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span and count as gzip-compressed JSON lines."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        keys = ("id", "parent", "name", "start", "end", "run", "thread", "error")
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            for run, counts in sorted(self.counts.items()):
                fh.write(json.dumps({"run": run, "counts": dict(counts)}) + "\n")


def _uncovered(span: tuple, children: list) -> float:
    """Duration of ``span`` minus the union of its children's intervals.

    Children on worker threads overlap each other, so their durations are
    merged as intervals rather than summed.
    """
    t0, t1 = span[3], span[4]
    covered, end = 0.0, t0
    for c0, c1 in sorted((max(c[3], t0), min(c[4], t1)) for c in children):
        if c1 > end:
            covered += c1 - max(c0, end)
            end = c1
    return t1 - t0 - covered


def layer_metrics(tracer: Tracer, run: int, report_bytes: int = 0) -> dict:
    """Per-layer metrics of one traced solve, from its spans and counts."""
    spans = [s for s in tracer.spans if s[5] == run]
    counts = tracer.counts[run]
    by_id = {s[0]: s for s in spans}
    total = defaultdict(float)
    calls = defaultdict(int)
    children = defaultdict(list)
    for span in spans:
        sid, parent, name, t0, t1 = span[:5]
        total[name] += t1 - t0
        calls[name] += 1
        children[parent].append(span)

    def self_time(name: str) -> float:
        return sum(_uncovered(s, children[s[0]]) for s in spans if s[2] == name)

    residual_s = sum(s[4] - s[3] for s in spans if s[2] == "driver.matvec"
                     and s[1] in by_id and by_id[s[1]][2] == "driver.solve_irregular")
    shapes = np.array(tracer.shapes[run] or [(0, 0)], dtype=float)
    read_s = total["cli.read_matrix_market"]
    evaluated = counts["spai.evaluated"]
    kept = counts["psai.nnz_m"]
    iterations = counts["krylov.iterations"]
    out = {
        "sparse_core.read_s": read_s,
        "sparse_core.read_mb_per_s": (counts["sparse_core.read_bytes"] / 1e6 / read_s
                                      if read_s else 0.0),
        "sparse_core.matvec_calls": calls["driver.matvec"],
        "sparse_core.matvec_s": total["driver.matvec"],
        "sparse_core.permute_s": (total["driver.zero_free_diagonal_permutation"]
                                  + total["driver.permute_rows"]),
        "splitting.split_s": total["driver.split"],
        "splitting.s": counts["splitting.s"],
        "splitting.nnz_a_tilde": counts["splitting.nnz_a_tilde"],
        "spai.build_s": total["driver.spai"],
        "spai.loops": counts["spai.loops"],
        "spai.candidates": counts["spai.candidates"],
        "spai.pick_ratio": counts["spai.picked"] / evaluated if evaluated else 0.0,
        "spai.candidates_s": total["spai.spai_candidates"],
        "spai.profitability_s": total["spai.spai_profitability"],
        "spai.nnz_m": counts["spai.nnz_m"],
        "spai.n_c": counts["spai.n_c"],
        "psai.build_s": total["driver.psai"],
        "psai.loops": counts["psai.loops"],
        "psai.drops": counts["psai.drops"],
        "psai.keep_ratio": (kept / (kept + counts["psai.drops"])
                            if kept + counts["psai.drops"] else 0.0),
        "psai.l_m": counts["psai.l_m"],
        "psai.nnz_m": kept,
        "psai.failed_columns": counts["psai.failed_columns"],
        "lstsq.init_calls": sum(calls[n] for n in LS_INIT),
        "lstsq.augment_calls": calls["LsWorkspace.augment"],
        "lstsq.drop_calls": calls["LsWorkspace.drop_columns"],
        "lstsq.init_s": sum(total[n] for n in LS_INIT),
        "lstsq.augment_s": total["LsWorkspace.augment"],
        "lstsq.drop_s": total["LsWorkspace.drop_columns"],
        "lstsq.rows_p50": float(np.percentile(shapes[:, 0], 50)),
        "lstsq.rows_p99": float(np.percentile(shapes[:, 0], 99)),
        "lstsq.cols_p50": float(np.percentile(shapes[:, 1], 50)),
        "lstsq.cols_p99": float(np.percentile(shapes[:, 1], 99)),
        "lstsq.guard_hits": counts["lstsq.guard_hits"],
        "krylov.calls": calls["driver.bicgstab"],
        "krylov.iterations": iterations,
        "krylov.iterations_max": counts["krylov.iterations_max"],
        "krylov.a_applies": counts["krylov.a_applies"],
        "krylov.m_applies": counts["krylov.m_applies"],
        "krylov.a_applies_per_iter": (counts["krylov.a_applies"] / iterations
                                      if iterations else 0.0),
        "krylov.s": total["driver.bicgstab"],
        "krylov.not_converged": counts["krylov.not_converged"],
        "driver.assemble_s": total["driver.assemble_solution"],
        "driver.residual_check_s": residual_s,
        "driver.self_s": self_time("driver.solve_irregular"),
        "cli.self_s": self_time("cli.main"),
        "cli.report_bytes": report_bytes,
    }
    return {k: float(v) for k, v in out.items()}


def layer_shares(metrics: dict, time_to_solution: float) -> dict:
    """Share of one traced solve's wall time spent in each top-level stage."""
    build = metrics["spai.build_s"] + metrics["psai.build_s"]
    stages = {
        "read": metrics["sparse_core.read_s"],
        "permute": metrics["sparse_core.permute_s"],
        "split": metrics["splitting.split_s"],
        "build": build,
        "build.lstsq": (metrics["lstsq.init_s"] + metrics["lstsq.augment_s"]
                        + metrics["lstsq.drop_s"]),
        "krylov": metrics["krylov.s"],
        "assemble": metrics["driver.assemble_s"],
        "residual_check": metrics["driver.residual_check_s"],
        "driver_self": metrics["driver.self_s"],
        "cli_self": metrics["cli.self_s"],
    }
    return {k: v / time_to_solution for k, v in stages.items()}
