"""Command-line front end: analyze, split, precond, solve, bench.

Reports are JSON with a ``schema_version`` field and stable names; timing
fields are wall-clock and not reproducible across machines. Exit codes:
0 on success (for solves: accuracy target met, a < 1), 1 when a solve ran
but missed the target, 2 for input or configuration errors, 3 for
numerical failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import driver as _driver
from .driver import SCHEMA_VERSION
from .lstsq import DegeneratePatternError, WorkspaceGuardError
from .psai import PsaiConfig
from .spai import SpaiConfig
from .sparse_core import (CscMatrix, MatrixMarketError, StructurallySingularError,
                          column_stats, matvec, read_matrix_market,
                          write_matrix_market)
from .splitting import STRATEGIES, condition_estimates, classify, split

DEFAULT_MEM_GUARD = 2 << 30  # 2 GiB dense-workspace guard

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="Matrix Market file")
    p.add_argument("--output", help="also write the JSON report here")


def _add_build_flags(p: argparse.ArgumentParser, with_method: bool = True) -> None:
    if with_method:
        p.add_argument("--method", choices=("spai", "psai"), default="psai")
    p.add_argument("--threads", type=int, default=1,
                   help="preconditioner build only: worker threads for spai and psai, "
                        "which build at least this many contiguous column chunks of at "
                        "most 2048 columns, each in lockstep; the solves run serially")
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
    p.add_argument("--strategy", choices=STRATEGIES, default="nearest")
    p.add_argument("--p-kept", type=int, default=None)


def _add_solve_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--c-policy", default="fixed:1",
                   help="'fixed:<value>' or 'posthoc'")
    p.add_argument("--permute", choices=("auto", "always", "never"), default="auto",
                   help="maximum-product row matching for a zero-free diagonal: 'auto' "
                        "runs it only when the diagonal has a zero, 'always' on every "
                        "input, 'never' not at all")
    p.add_argument("--seed", type=int, default=0,
                   help="only echoed into the report; no computation uses it")
    p.add_argument("--rhs", default="ones",
                   help="'ones' (b = A * all-ones) or a Matrix Market vector file")


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
    _add_build_flags(p)
    p.add_argument("--matrix-out", default="precond_m.mtx")

    p = sub.add_parser("solve", help="solve A x = b through the splitting")
    _add_common(p)
    _add_build_flags(p)
    _add_split_flags(p)
    _add_solve_flags(p)
    p.add_argument("--precond-file",
                   help="reuse a previously written M: solve A as stored, "
                        "with no permutation and no split")

    p = sub.add_parser("bench", help="compare standard and split variants")
    _add_common(p)
    _add_build_flags(p, with_method=False)  # --variants picks the methods
    _add_split_flags(p)
    _add_solve_flags(p)
    p.add_argument("--variants", default="S-SPAI,N-SPAI,S-PSAI,N-PSAI",
                   help="comma-separated subset of S-SPAI,N-SPAI,S-PSAI,N-PSAI")
    return ap


def _stamped(fields: dict, args) -> dict:
    """The report: ``fields`` with the schema version and the input path."""
    return {**fields, "schema_version": SCHEMA_VERSION, "input": args.input}


def _check_output(path: str | None) -> None:
    """Raise ``OSError`` when the report could not be written to ``path``; creates nothing."""
    if path is None:
        return
    parent = os.path.dirname(path) or "."
    if (os.path.isdir(path) or not os.path.isdir(parent)
            or not os.access(path if os.path.exists(path) else parent, os.W_OK)):
        raise OSError(f"cannot write the report to --output {path!r}")


def _fixed_or(raw: str, other: str, flag: str) -> str | float:
    """``other`` as given, or the value of ``fixed:<value>`` as a float."""
    if raw == other:
        return other
    if raw.startswith("fixed:"):
        return float(raw.split(":", 1)[1])
    raise ValueError(f"bad {flag} value {raw!r}")


def _method_fields(args, method: str) -> dict:
    """The DriverConfig fields of one method: its build config and the threads.

    Only ``method``'s settings are read and checked. ``l_max`` is passed
    only when ``--lmax`` is given, so each config keeps its own default.
    """
    build = {"delta": args.delta, "max_workspace_bytes": args.mem_guard}
    if args.lmax is not None:
        build["l_max"] = args.lmax
    if method == "spai":
        config = SpaiConfig(mn=args.mn, **build)
    else:
        config = PsaiConfig(tol_policy=_fixed_or(args.tol, "adaptive", "--tol"), **build)
    return {"method": method, method: config, "threads": args.threads}


def _driver_config(args, method: str) -> _driver.DriverConfig:
    c = _fixed_or(args.c_policy, "posthoc", "--c-policy")
    return _driver.DriverConfig(epsilon=args.eps, c=c, max_iter=args.max_iter,
                                preprocess=args.permute, factor=args.factor,
                                strategy=args.strategy, p_kept=args.p_kept,
                                **_method_fields(args, method))


def _load_rhs(a: CscMatrix, spec: str) -> np.ndarray:
    if spec == "ones":
        return matvec(a, np.ones(a.n_cols))
    vec = read_matrix_market(spec)
    if vec.n_cols != 1 or vec.n_rows != a.n_rows:
        raise MatrixMarketError("rhs file must be an n-by-1 matrix")
    return vec.to_dense()[:, 0]


def cmd_analyze(args, a: CscMatrix) -> tuple[dict, int]:
    stats = column_stats(a, args.factor)
    fields = {
        "n": a.n_rows,
        "nnz": a.nnz,
        "p": stats.p,
        "p_d": stats.p_d,
        "s": stats.s,
        "irregular_cols": [int(j) for j in stats.irregular_cols],
    }
    if a.n_rows == a.n_cols:
        rep = classify(a)
        fields.update({
            "strict_row_dd": rep.strict_row_dd,
            "strict_col_dd": rep.strict_col_dd,
            "irreducible": rep.irreducible,
            "m_matrix": rep.m_matrix,
            "m_matrix_certified": rep.m_matrix_certified,
        })
    fields.update(condition_estimates(a, max_n=args.cond_max_n))
    return fields, EXIT_OK


def cmd_split(args, a: CscMatrix) -> tuple[dict, int]:
    sys_ = split(a, factor=args.factor, strategy=args.strategy, p_kept=args.p_kept)
    a_tilde_path = f"{args.prefix}_a_tilde.mtx"
    u_path = f"{args.prefix}_u.mtx"
    write_matrix_market(sys_.a_tilde, a_tilde_path)
    write_matrix_market(sys_.u, u_path)
    fields = {
        "s": sys_.s,
        "irregular_cols": [int(j) for j in sys_.irregular_cols],
        "strategy": sys_.strategy,
        "p_kept": sys_.p_kept,
        "nnz_a": a.nnz,
        "nnz_a_tilde": sys_.a_tilde.nnz,
        "a_tilde_file": a_tilde_path,
        "u_file": u_path,
    }
    with open(f"{args.prefix}_split.json", "w") as fh:
        json.dump(_stamped(fields, args), fh, indent=2, sort_keys=True)
    return fields, EXIT_OK


def cmd_precond(args, a: CscMatrix) -> tuple[dict, int]:
    cfg = _driver.DriverConfig(**_method_fields(args, args.method))
    m, stats = _driver.build_preconditioner(a, cfg)
    write_matrix_market(m, args.matrix_out)
    return {"method": args.method, "matrix_out": args.matrix_out, **stats}, EXIT_OK


def cmd_solve(args, a: CscMatrix) -> tuple[dict, int]:
    b = _load_rhs(a, args.rhs)
    cfg = _driver_config(args, args.method)
    if args.precond_file:
        m = read_matrix_market(args.precond_file)
        report = _driver.solve_standard(a, b, cfg, m=m)
    else:
        report = _driver.solve_irregular(a, b, cfg)
    fields = report.to_dict()
    fields["seed"] = args.seed
    if args.precond_file:
        fields["precond_file"] = args.precond_file
    return fields, EXIT_OK if report.a < 1.0 else EXIT_NOT_CONVERGED


_VARIANTS = ("S-SPAI", "N-SPAI", "S-PSAI", "N-PSAI")


def cmd_bench(args, a: CscMatrix) -> tuple[dict, int]:
    b = _load_rhs(a, args.rhs)
    wanted = [v.strip().upper() for v in args.variants.split(",") if v.strip()]
    bad = [v for v in wanted if v not in _VARIANTS]
    if bad or not wanted:
        raise ValueError(f"--variants must name some of {','.join(_VARIANTS)}, "
                         f"got {args.variants!r}")
    method = {v: v[2:].lower() for v in wanted}  # "N-PSAI" -> "psai"
    # every config is checked before the first solve
    cfgs = {m: _driver_config(args, m) for m in dict.fromkeys(method.values())}
    rows = []
    for variant in wanted:
        cfg = cfgs[method[variant]]
        solve = _driver.solve_standard if variant.startswith("S-") else _driver.solve_irregular
        t0 = time.perf_counter()
        report = solve(a, b, cfg)
        elapsed = time.perf_counter() - t0
        stats = report.preconditioner_stats
        quality = "n_c" if cfg.method == "spai" else "l_m"
        row = {"variant": variant, "status": "ok", "spar": stats["spar"],
               quality: stats[quality]}
        if stats["guard_hits"]:
            row["status"] = "skipped: workspace guard"
        else:
            row.update(T_setup=stats["t_setup"], T_solve=elapsed - stats["t_setup"],
                       iter=report.max_iter_used, a=report.a)
        rows.append(row)
    met = [r["a"] < 1.0 for r in rows if r["status"] == "ok"]
    code = EXIT_NUMERICAL if not met else EXIT_OK if all(met) else EXIT_NOT_CONVERGED
    return {"seed": args.seed, "rows": rows}, code


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
        _check_output(args.output)      # before any work, so a bad path leaves nothing
        fields, code = COMMANDS[args.command](args, read_matrix_market(args.input))
        text = json.dumps(_stamped(fields, args), indent=2, sort_keys=True)
        print(text)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        return code
    except (StructurallySingularError, _driver.AssemblyError, DegeneratePatternError,
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
