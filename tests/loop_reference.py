"""Per-candidate and per-column loop kernels that vectorised ones replaced.

They are kept as they were, less the argument checks and with the matrix
passed in, as test oracles for ``spai.spai_profitability``,
``sparse_core.matvec`` / ``matvec_t`` and ``CscMatrix.diagonal`` /
``has_full_structural_diagonal``. The per-line Matrix Market reader, the
per-column ``split`` and the two-pass DFS behind
``splitting._strongly_connected`` are kept verbatim, their imports aside,
and so are the per-column PSAI build (``psai_column`` and ``psai``) and
the per-column SPAI build (``spai_candidates``, ``_select_profitable``,
``spai_column`` and ``spai``) that the lockstep builds replaced, with the
worker pool they ran on (``_map_columns``). They find their least-squares
kernel ``ls_init``, and SPAI its ``spai_candidates`` and
``spai_profitability``, as module globals, so a test may swap in another
one. The one change to the SPAI loop: it writes the residual into its
dense vector from ``ws.residual()``, as the workspace no longer has
``scatter_residual``.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from saikit.lstsq import DegeneratePatternError, WorkspaceGuardError, _sorted_unique, ls_init
from saikit.psai import PsaiColumnResult, PsaiConfig, PsaiReport, psai_tol
from saikit.sparse_core import (CscMatrix, MatrixMarketError, PathOrStream, SparseVector,
                                UnsupportedFieldError, _open_text, column_stats, norm1,
                                transpose)
from saikit.spai import (ColumnProfile, ColumnResult, SpaiConfig, SpaiReport,
                         _assemble_columns)
from saikit.splitting import SplitSystem, _keep_indices


def spai_profitability(a: CscMatrix, r_dense: np.ndarray, cand,
                       col_sqnorms: np.ndarray | None = None,
                       ) -> tuple[list[tuple[int, float]], list[int]]:
    """rho_j for each candidate, one ``CscMatrix.col`` and two dots at a time."""
    r2 = float(r_dense @ r_dense)
    rhos: list[tuple[int, float]] = []
    skipped: list[int] = []
    for j in np.asarray(cand, dtype=np.int64):
        rows, vals = a.col(int(j))
        nj2 = float(col_sqnorms[j]) if col_sqnorms is not None else float(vals @ vals)
        if nj2 == 0.0:
            skipped.append(int(j))
            continue
        dot = float(vals @ r_dense[rows])
        rho2 = max(r2 - dot * dot / nj2, 0.0)
        rhos.append((int(j), math.sqrt(rho2)))
    return rhos, skipped


def matvec(a: CscMatrix, x) -> np.ndarray:
    """y = A x, accumulated with ``bincount`` in storage order."""
    x = np.asarray(x, dtype=np.float64)
    if a.nnz == 0:
        return np.zeros(a.n_rows)
    contrib = a.values * np.repeat(x, a.per_col_nnz)
    return np.bincount(a.row_idx, weights=contrib, minlength=a.n_rows)


def matvec_t(a: CscMatrix, x) -> np.ndarray:
    """y = A^T x, accumulated with ``bincount`` in storage order."""
    x = np.asarray(x, dtype=np.float64)
    if a.nnz == 0:
        return np.zeros(a.n_cols)
    contrib = a.values * x[a.row_idx]
    return np.bincount(a.entry_cols(), weights=contrib, minlength=a.n_cols)


def diagonal(a: CscMatrix) -> np.ndarray:
    n = min(a.n_rows, a.n_cols)
    d = np.zeros(n)
    for j in range(n):
        rows, vals = a.col(j)
        pos = np.searchsorted(rows, j)
        if pos < len(rows) and rows[pos] == j:
            d[j] = vals[pos]
    return d


def has_full_structural_diagonal(a: CscMatrix) -> bool:
    n = min(a.n_rows, a.n_cols)
    for j in range(n):
        rows, _ = a.col(j)
        pos = np.searchsorted(rows, j)
        if pos >= len(rows) or rows[pos] != j:
            return False
    return True


def read_matrix_market(source: PathOrStream) -> CscMatrix:
    """Parse a coordinate-format, real Matrix Market stream or file.

    Symmetric files are expanded to general storage. Duplicate entries are
    summed. Integer, complex and pattern fields are rejected.
    """
    stream, owned = _open_text(source, "r")
    try:
        header = stream.readline()
        if not header.startswith("%%MatrixMarket"):
            raise MatrixMarketError("missing %%MatrixMarket header")
        parts = header.strip().split()
        if len(parts) != 5:
            raise MatrixMarketError(f"malformed header: {header.strip()!r}")
        _, obj, fmt, fld, sym = (p.lower() for p in parts)
        if obj != "matrix":
            raise MatrixMarketError(f"unsupported object {obj!r}")
        if fmt != "coordinate":
            raise MatrixMarketError(f"unsupported format {fmt!r} (coordinate only)")
        if fld != "real":
            raise UnsupportedFieldError(f"unsupported field {fld!r} (real only)")
        if sym not in ("general", "symmetric"):
            raise UnsupportedFieldError(f"unsupported symmetry {sym!r}")

        size_line = None
        for line in stream:
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            size_line = stripped
            break
        if size_line is None:
            raise MatrixMarketError("missing size line")
        try:
            m_str, n_str, nnz_str = size_line.split()
            n_rows, n_cols, nnz = int(m_str), int(n_str), int(nnz_str)
        except ValueError as exc:
            raise MatrixMarketError(f"malformed size line: {size_line!r}") from exc
        if n_rows < 0 or n_cols < 0 or nnz < 0:
            raise MatrixMarketError("negative dimension in size line")

        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.float64)
        k = 0
        for line in stream:
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            fields = stripped.split()
            if len(fields) != 3:
                raise MatrixMarketError(f"malformed entry line: {stripped!r}")
            if k >= nnz:
                raise MatrixMarketError("more entries than declared")
            try:
                i, j, v = int(fields[0]), int(fields[1]), float(fields[2])
            except ValueError as exc:
                raise MatrixMarketError(f"malformed entry line: {stripped!r}") from exc
            if not (1 <= i <= n_rows and 1 <= j <= n_cols):
                raise MatrixMarketError(
                    f"entry ({i}, {j}) outside declared {n_rows}x{n_cols} bounds")
            rows[k], cols[k], vals[k] = i - 1, j - 1, v
            k += 1
        if k != nnz:
            raise MatrixMarketError(f"declared {nnz} entries, found {k}")

        if sym == "symmetric":
            off = rows != cols
            rows, cols, vals = (np.concatenate([rows, cols[off]]),
                                np.concatenate([cols, rows[off]]),
                                np.concatenate([vals, vals[off]]))
        return CscMatrix.from_coo(n_rows, n_cols, rows, cols, vals)
    finally:
        if owned:
            stream.close()


def split(a: CscMatrix, factor: float = 10.0, strategy: str = "nearest",
          p_kept: int | None = None) -> SplitSystem:
    """Split off the irregular columns of a square matrix.

    Irregular columns with at most ``p_kept`` entries are left untouched
    and not reported. ``s == 0`` returns A itself with an n-by-0 U.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    stats = column_stats(a, factor)
    if p_kept is None:
        p_kept = stats.p
    if p_kept < 1:
        raise ValueError("p_kept must be at least 1")
    irregular = [int(j) for j in stats.irregular_cols
                 if stats.per_col_nnz[j] > p_kept]
    if not irregular:
        return SplitSystem(a_tilde=a, u=CscMatrix.empty(a.n_rows, 0),
                           irregular_cols=np.empty(0, dtype=np.int64),
                           strategy=strategy, p_kept=p_kept)

    keep_rows, keep_vals, keep_cols = [], [], []
    u_rows, u_vals, u_cols = [], [], []
    irregular_set = set(irregular)
    for j in range(a.n_cols):
        rows, vals = a.col(j)
        if j in irregular_set:
            kept = _keep_indices(rows, vals, j, p_kept, strategy)
            mask = np.zeros(len(rows), dtype=bool)
            mask[kept] = True
            keep_rows.append(rows[mask])
            keep_vals.append(vals[mask])
            keep_cols.append(np.full(int(mask.sum()), j, dtype=np.int64))
            u_idx = len(u_cols)
            u_rows.append(rows[~mask])
            u_vals.append(vals[~mask])
            u_cols.append(np.full(int((~mask).sum()), u_idx, dtype=np.int64))
        else:
            keep_rows.append(rows)
            keep_vals.append(vals)
            keep_cols.append(np.full(len(rows), j, dtype=np.int64))

    a_tilde = CscMatrix.from_coo(a.n_rows, a.n_cols,
                                 np.concatenate(keep_rows),
                                 np.concatenate(keep_cols),
                                 np.concatenate(keep_vals))
    u = CscMatrix.from_coo(a.n_rows, len(irregular),
                           np.concatenate(u_rows),
                           np.concatenate(u_cols),
                           np.concatenate(u_vals))
    return SplitSystem(a_tilde=a_tilde, u=u,
                       irregular_cols=np.asarray(irregular, dtype=np.int64),
                       strategy=strategy, p_kept=p_kept)


def _strongly_connected(a: CscMatrix) -> bool:
    """Strong connectivity of the pattern digraph (edge j -> i per entry)."""
    n = a.n_rows
    if n <= 1:
        return True

    def reaches_all(neighbors) -> bool:
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            v = stack.pop()
            for w in neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(int(w))
        return count == n

    fwd_adj = [a.col(j)[0] for j in range(n)]
    rev_adj = [[] for _ in range(n)]
    for j in range(n):
        for i in fwd_adj[j]:
            rev_adj[int(i)].append(j)
    return (reaches_all(lambda v: fwd_adj[v])
            and reaches_all(lambda v: rev_adj[v]))


def _pattern_step(a: CscMatrix, frontier: np.ndarray) -> np.ndarray:
    """Structural pattern of A applied to a vector supported on ``frontier``."""
    return np.unique(a.columns(frontier)[0])


def psai_column(a: CscMatrix, k: int, cfg: PsaiConfig,
                a_norm1: float | None = None,
                dropping: bool = True) -> PsaiColumnResult:
    """Adaptive power-pattern column; raises on a degenerate subproblem."""
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    if a_norm1 is None:
        a_norm1 = norm1(a)
    try:
        ws = ls_init(a, k, [k], max_workspace_bytes=cfg.max_workspace_bytes)
    except DegeneratePatternError as exc:
        raise DegeneratePatternError(f"column {k}: {exc}") from exc

    drops: list[tuple[int, int, float, float]] = []
    tol_history: list[float] = []
    frontier = np.array([k], dtype=np.int64)
    loops_used = 0

    def apply_dropping(loop: int) -> None:
        nonlocal ws
        sol = ws.solution()
        nnz_now = sol.nnz
        if nnz_now < 1:
            return
        if cfg.tol_policy == "adaptive":
            tol = psai_tol(cfg.delta, nnz_now, a_norm1)
        else:
            tol = float(cfg.tol_policy)
        tol_history.append(tol)
        cols = ws.cols
        mags = np.zeros(len(cols))
        mags[np.searchsorted(cols, sol.indices)] = np.abs(sol.values)
        doomed = (mags <= tol) & (cols != k)
        drops.extend((loop, int(j), float(mag), tol)
                     for j, mag in zip(cols[doomed], mags[doomed]))
        if doomed.any():
            ws = ws.drop_columns(a, cols[doomed])

    if dropping:
        apply_dropping(0)
    for loop in range(1, cfg.l_max + 1):
        if ws.residual_norm <= cfg.delta:
            break
        frontier = _pattern_step(a, frontier)
        new_cols = np.setdiff1d(frontier, ws.cols, assume_unique=True)   # both from np.unique
        if len(new_cols):
            ws.augment(a, new_cols)
        loops_used = loop
        if dropping:
            apply_dropping(loop)
    return PsaiColumnResult(m_k=ws.solution(), residual_norm=ws.residual_norm,
                            loops_used=loops_used, dropped_count=len(drops),
                            converged=ws.residual_norm <= cfg.delta,
                            drops=drops, tol_history=tol_history)


def psai(a: CscMatrix, cfg: PsaiConfig | None = None, threads: int = 1,
         dropping: bool = True) -> tuple[CscMatrix, PsaiReport]:
    """Assemble the preconditioner column by column; failures stay local."""
    cfg = cfg or PsaiConfig()
    a1 = norm1(a)

    def run(k: int) -> PsaiColumnResult:
        try:
            return psai_column(a, k, cfg, a_norm1=a1, dropping=dropping)
        except (DegeneratePatternError, WorkspaceGuardError) as exc:
            empty = SparseVector(a.n_cols, np.empty(0, dtype=np.int64), np.empty(0))
            return PsaiColumnResult(m_k=empty, residual_norm=1.0, loops_used=0,
                                    dropped_count=0, converged=False,
                                    error=f"{type(exc).__name__}: {exc}")

    results = _map_columns(run, a.n_cols, threads)
    m = _assemble_columns(a.n_rows, [r.m_k for r in results])
    residuals = np.array([r.residual_norm for r in results])
    errors = [(k, r.error) for k, r in enumerate(results) if r.error]
    report = PsaiReport(residuals=residuals,
                        l_m=max((r.loops_used for r in results), default=0),
                        columns=results, errors=errors)
    return m, report


def _map_columns(fn, n: int, threads: int) -> list:
    if threads <= 1:
        return [fn(k) for k in range(n)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n)))


def spai_candidates(a: CscMatrix, r_k: SparseVector, s,
                    at: CscMatrix | None = None) -> np.ndarray:
    """Candidate indices: columns touching the residual rows, minus the pattern.

    ``at`` may carry a precomputed transpose of ``a`` to avoid rebuilding it
    per call.
    """
    if r_k.nnz == 0:
        return np.empty(0, dtype=np.int64)
    if at is None:
        at = transpose(a)
    return _outside(at.columns(r_k.indices)[0], np.asarray(s, dtype=np.int64))


def _outside(values: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``np.setdiff1d(values, s)``: one sort and dedupe, then a membership test."""
    uniq = _sorted_unique(values) if len(values) else values
    s = np.sort(s)
    return uniq[np.searchsorted(s, uniq, "left") == np.searchsorted(s, uniq, "right")]


def _select_profitable(rhos: list[tuple[int, float]], mn: int) -> list[int]:
    """The mn smallest rho values; exact ties broken toward the smaller index."""
    ranked = sorted(rhos, key=lambda t: (t[1], t[0]))
    return [j for j, _ in ranked[:mn]]


def spai_column(a: CscMatrix, k: int, cfg: SpaiConfig,
                s0=None, at: CscMatrix | None = None,
                col_sqnorms: np.ndarray | None = None) -> ColumnResult:
    """Grow the pattern of column k until the residual meets ``delta``.

    A degenerate initial pattern falls back to the row pattern of column k
    of A; if that is degenerate too, the error propagates.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    if at is None:
        at = transpose(a)
    init = np.asarray([k] if s0 is None else s0, dtype=np.int64)
    try:
        ws = ls_init(a, k, init, max_workspace_bytes=cfg.max_workspace_bytes)
    except DegeneratePatternError:
        fallback = a.col(k)[0]
        ws = ls_init(a, k, fallback, max_workspace_bytes=cfg.max_workspace_bytes)

    profile = ColumnProfile()
    r_dense = np.zeros(a.n_rows)
    loops_used = 0
    for loop in range(cfg.l_max + 1):
        profile.residual_norms.append(ws.residual_norm)
        if ws.residual_norm <= cfg.delta:
            break
        if loop == cfg.l_max:
            break
        r_sparse = ws.residual()
        cand = spai_candidates(a, r_sparse, ws.cols, at=at)
        profile.candidates_per_loop.append(len(cand))
        profile.residual_rows_per_loop.append(r_sparse.nnz)
        if len(cand) == 0:
            # no candidate can touch the residual: structurally stuck
            break
        r_dense[ws.rows] = 0.0
        r_dense[r_sparse.indices] = r_sparse.values
        rhos, _ = spai_profitability(a, r_dense, cand, col_sqnorms=col_sqnorms)
        if not rhos:
            break
        picked = _select_profitable(rhos, cfg.mn)
        if cfg.record_choices:
            profile.choices.append(rhos)
            profile.chosen.append(picked)
        ws.augment(a, picked)
        loops_used += 1
    return ColumnResult(m_k=ws.solution(), residual_norm=ws.residual_norm,
                        loops_used=loops_used,
                        converged=ws.residual_norm <= cfg.delta,
                        profile=profile)


def spai(a: CscMatrix, cfg: SpaiConfig | None = None,
         threads: int = 1) -> tuple[CscMatrix, SpaiReport]:
    """Approximate inverse of A, one independent subproblem per column.

    A column that cannot be computed (zero column, workspace guard) yields
    its best effort, here the zero vector, and is counted as non-converged
    rather than aborting the whole matrix.
    """
    cfg = cfg or SpaiConfig()
    at = transpose(a)
    col_sqnorms = np.bincount(a.entry_cols(), weights=a.values ** 2, minlength=a.n_cols)

    def run(k: int) -> ColumnResult:
        try:
            return spai_column(a, k, cfg, at=at, col_sqnorms=col_sqnorms)
        except (DegeneratePatternError, WorkspaceGuardError) as exc:
            empty = SparseVector(a.n_cols, np.empty(0, dtype=np.int64), np.empty(0))
            return ColumnResult(m_k=empty, residual_norm=1.0, loops_used=0,
                                converged=False, profile=ColumnProfile(),
                                error=f"{type(exc).__name__}: {exc}")

    results = _map_columns(run, a.n_cols, threads)
    m = _assemble_columns(a.n_rows, [r.m_k for r in results])
    residuals = np.array([r.residual_norm for r in results])
    max_cand = max((max(r.profile.candidates_per_loop, default=0) for r in results),
                   default=0)
    errors = [(k, r.error) for k, r in enumerate(results) if r.error]
    report = SpaiReport(residuals=residuals,
                        n_c=int(np.sum(residuals > cfg.delta)),
                        columns=results, max_candidates=max_cand, errors=errors)
    return m, report
