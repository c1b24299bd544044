"""Command-line front end: analyze, split, precond, solve, bench.

Reports are JSON with a ``schema_version`` field and stable names; timing
fields are wall-clock and not reproducible across machines. Exit codes:
0 on success (for solves: accuracy target met, a < 1), 1 when a solve ran
but missed the target, 2 for input or configuration errors, 3 for
numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import driver as _driver
from .lstsq import DegeneratePatternError, WorkspaceGuardError
from .psai import PsaiConfig
from .spai import SpaiConfig
from .sparse_core import (CscMatrix, MatrixMarketError, StructurallySingularError,
                          column_stats, matvec, read_matrix_market,
                          write_matrix_market)
from .splitting import condition_estimates, classify, split

SCHEMA_VERSION = 1
DEFAULT_MEM_GUARD = 2 << 30  # 2 GiB dense-workspace guard

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="Matrix Market file")
    p.add_argument("--output", help="also write the JSON report here")
    p.add_argument("--seed", type=int, default=0,
                   help="only echoed into the solve and bench reports; "
                        "no computation uses it")
    p.add_argument("--threads", type=int, default=1,
                   help="preconditioner build only: spai and psai split the columns "
                        "into that many contiguous chunks, each built in lockstep "
                        "on its own thread; the solves run serially")


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=("spai", "psai"), default="psai")
    p.add_argument("-ep", "--delta", type=float, default=0.4,
                   help="residual tolerance per preconditioner column")
    p.add_argument("-mn", "--mn", type=int, default=5,
                   help="profitable indices added per loop (spai)")
    p.add_argument("-ns", "--ns", "--lmax", dest="lmax", type=int, default=None,
                   help="maximum adaptive loops (default 20 spai, 10 psai)")
    p.add_argument("--tol", default="adaptive",
                   help="psai dropping: 'adaptive' or 'fixed:<value>'")
    p.add_argument("--mem-guard", type=int, default=DEFAULT_MEM_GUARD,
                   help="per-column dense workspace limit in bytes")


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--factor", type=float, default=10.0,
                   help="irregularity threshold multiplier on p")
    p.add_argument("--strategy", choices=("nearest", "largest"), default="nearest")
    p.add_argument("--p-kept", type=int, default=None)


def _add_solve_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--c-policy", default="fixed:1",
                   help="'fixed:<value>' or 'posthoc'")
    p.add_argument("--permute", choices=("auto", "always", "never"), default="auto")
    p.add_argument("--rhs", default="ones",
                   help="'ones' (b = A * all-ones) or a Matrix Market vector file")
    p.add_argument("--precond-file",
                   help="reuse a previously written M: solve A as stored, "
                        "with no permutation and no split")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="saikit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural and class report")
    _add_common(p)
    p.add_argument("--factor", type=float, default=10.0)
    p.add_argument("--cond-max-n", type=int, default=500)

    p = sub.add_parser("split", help="write A_tilde, U and a JSON sidecar")
    _add_common(p)
    _add_split_flags(p)
    p.add_argument("--prefix", default="split_out",
                   help="output file prefix")

    p = sub.add_parser("precond", help="build a preconditioner, write it out")
    _add_common(p)
    _add_method_flags(p)
    p.add_argument("--matrix-out", default="precond_m.mtx")

    p = sub.add_parser("solve", help="solve A x = b through the splitting")
    _add_common(p)
    _add_method_flags(p)
    _add_split_flags(p)
    _add_solve_flags(p)

    p = sub.add_parser("bench", help="compare standard and split variants")
    _add_common(p)
    _add_method_flags(p)
    _add_split_flags(p)
    _add_solve_flags(p)
    p.add_argument("--variants", default="S-SPAI,N-SPAI,S-PSAI,N-PSAI",
                   help="comma-separated subset of S-SPAI,N-SPAI,S-PSAI,N-PSAI")
    return ap


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")


def _parse_c_policy(raw: str) -> tuple[str, float]:
    if raw == "posthoc":
        return "posthoc", 1.0
    if raw.startswith("fixed:"):
        return "fixed", float(raw.split(":", 1)[1])
    raise ValueError(f"bad --c-policy value {raw!r}")


def _parse_tol_policy(raw: str):
    if raw == "adaptive":
        return "adaptive"
    if raw.startswith("fixed:"):
        return float(raw.split(":", 1)[1])
    raise ValueError(f"bad --tol value {raw!r}")


def _configs_from_args(args) -> tuple[SpaiConfig, PsaiConfig]:
    spai_lmax = args.lmax if args.lmax is not None else 20
    psai_lmax = args.lmax if args.lmax is not None else 10
    sc = SpaiConfig(delta=args.delta, l_max=spai_lmax, mn=args.mn,
                    max_workspace_bytes=args.mem_guard)
    pc = PsaiConfig(delta=args.delta, l_max=psai_lmax,
                    tol_policy=_parse_tol_policy(args.tol),
                    max_workspace_bytes=args.mem_guard)
    return sc, pc


def _driver_config(args) -> _driver.DriverConfig:
    sc, pc = _configs_from_args(args)
    policy, c_fixed = _parse_c_policy(args.c_policy)
    return _driver.DriverConfig(epsilon=args.eps, c_policy=policy, c_fixed=c_fixed,
                                method=args.method, max_iter=args.max_iter,
                                preprocess=args.permute, factor=args.factor,
                                strategy=args.strategy, p_kept=args.p_kept,
                                spai=sc, psai=pc, threads=args.threads)


def _load_rhs(a: CscMatrix, spec: str) -> np.ndarray:
    if spec == "ones":
        return matvec(a, np.ones(a.n_cols))
    vec = read_matrix_market(spec)
    if vec.n_cols != 1 or vec.n_rows != a.n_rows:
        raise MatrixMarketError("rhs file must be an n-by-1 matrix")
    return vec.to_dense()[:, 0]


def cmd_analyze(args) -> int:
    a = read_matrix_market(args.input)
    stats = column_stats(a, args.factor)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "input": args.input,
        "n": a.n_rows,
        "nnz": a.nnz,
        "p": stats.p,
        "p_d": stats.p_d,
        "s": stats.s,
        "irregular_cols": [int(j) for j in stats.irregular_cols],
    }
    if a.n_rows == a.n_cols:
        rep = classify(a)
        payload.update({
            "strict_row_dd": rep.strict_row_dd,
            "strict_col_dd": rep.strict_col_dd,
            "irreducible": rep.irreducible,
            "m_matrix": rep.m_matrix,
            "m_matrix_certified": rep.m_matrix_certified,
        })
        if a.n_rows <= args.cond_max_n:
            payload.update(condition_estimates(a, max_n=args.cond_max_n))
    _emit(payload, args)
    return EXIT_OK


def cmd_split(args) -> int:
    a = read_matrix_market(args.input)
    sys_ = split(a, factor=args.factor, strategy=args.strategy, p_kept=args.p_kept)
    a_tilde_path = f"{args.prefix}_a_tilde.mtx"
    u_path = f"{args.prefix}_u.mtx"
    write_matrix_market(sys_.a_tilde, a_tilde_path)
    write_matrix_market(sys_.u, u_path)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "input": args.input,
        "s": sys_.s,
        "irregular_cols": [int(j) for j in sys_.irregular_cols],
        "strategy": sys_.strategy,
        "p_kept": sys_.p_kept,
        "nnz_a": a.nnz,
        "nnz_a_tilde": sys_.a_tilde.nnz,
        "a_tilde_file": a_tilde_path,
        "u_file": u_path,
    }
    sidecar = f"{args.prefix}_split.json"
    with open(sidecar, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    _emit(payload, args)
    return EXIT_OK


def cmd_precond(args) -> int:
    a = read_matrix_market(args.input)
    sc, pc = _configs_from_args(args)
    cfg = _driver.DriverConfig(method=args.method, spai=sc, psai=pc, threads=args.threads)
    m, stats = _driver.build_preconditioner(a, cfg)
    write_matrix_market(m, args.matrix_out)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "input": args.input,
        "method": args.method,
        "matrix_out": args.matrix_out,
    }
    payload.update(stats)
    _emit(payload, args)
    return EXIT_OK


def cmd_solve(args) -> int:
    a = read_matrix_market(args.input)
    b = _load_rhs(a, args.rhs)
    cfg = _driver_config(args)
    if args.precond_file:
        m = read_matrix_market(args.precond_file)
        report = _driver.solve_standard(a, b, cfg, m=m)
    else:
        report = _driver.solve_irregular(a, b, cfg)
    payload = report.to_dict()
    payload["seed"] = args.seed
    payload["input"] = args.input
    if args.precond_file:
        payload["precond_file"] = args.precond_file
    _emit(payload, args)
    return EXIT_OK if report.a < 1.0 else EXIT_NOT_CONVERGED


_VARIANTS = ("S-SPAI", "N-SPAI", "S-PSAI", "N-PSAI")


def cmd_bench(args) -> int:
    a = read_matrix_market(args.input)
    b = _load_rhs(a, args.rhs)
    wanted = [v.strip().upper() for v in args.variants.split(",") if v.strip()]
    bad = [v for v in wanted if v not in _VARIANTS]
    if bad:
        raise ValueError(f"unknown variants: {bad}")
    base = _driver_config(args)
    rows = []
    for variant in wanted:
        method = "spai" if "SPAI" in variant else "psai"
        cfg = dataclasses.replace(base, method=method)
        t0 = time.perf_counter()
        try:
            if variant.startswith("S-"):
                report = _driver.solve_standard(a, b, cfg)
            else:
                report = _driver.solve_irregular(a, b, cfg)
        except (DegeneratePatternError, WorkspaceGuardError) as exc:
            rows.append({"variant": variant, "status": f"skipped: {_guard_label(exc)}"})
            continue
        elapsed = time.perf_counter() - t0
        stats = report.preconditioner_stats
        row = {
            "variant": variant,
            "status": "ok",
            "T_setup": stats.get("t_setup", 0.0),
            "T_solve": elapsed - stats.get("t_setup", 0.0),
            "spar": stats.get("spar", 0.0),
            "iter": report.max_iter_used,
            "a": report.a,
        }
        if method == "spai":
            row["n_c"] = stats.get("n_c")
        else:
            row["l_m"] = stats.get("l_m")
        guard_hits = _guard_failures(report)
        if guard_hits:
            row["status"] = "skipped: workspace guard"
            for key in ("T_setup", "T_solve", "iter", "a"):
                row.pop(key, None)
        rows.append(row)
    payload = {"schema_version": SCHEMA_VERSION, "input": args.input,
               "seed": args.seed, "rows": rows}
    _emit(payload, args)
    ok_rows = [r for r in rows if r["status"] == "ok"]
    if not ok_rows:
        return EXIT_NUMERICAL
    return EXIT_OK if all(r["a"] < 1.0 for r in ok_rows) else EXIT_NOT_CONVERGED


def _guard_label(exc: Exception) -> str:
    if isinstance(exc, WorkspaceGuardError):
        return "workspace guard"
    return type(exc).__name__


def _guard_failures(report: _driver.SolveReport) -> bool:
    return bool(report.preconditioner_stats.get("guard_hits"))


COMMANDS = {
    "analyze": cmd_analyze,
    "split": cmd_split,
    "precond": cmd_precond,
    "solve": cmd_solve,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return COMMANDS[args.command](args)
    except (StructurallySingularError, _driver.SingularUpdateError,
            _driver.AssemblyError, DegeneratePatternError,
            WorkspaceGuardError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (MatrixMarketError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
