"""Per-candidate and per-column loop kernels that vectorised ones replaced.

``CscMatrix.from_coo`` with its two-key ``np.lexsort`` and the
interior-mask row order check of ``CscMatrix.__post_init__`` are kept
verbatim as ``from_coo`` and ``check_csc``: the one returns the three CSC
arrays in place of the matrix, the other raises what the constructor raised.

The all-LAPACK block solve of ``lstsq.LsWorkspace._solve_blocks``, which
ran every row-k block, one-column blocks included, through
``_householder_solve`` one target at a time, is kept verbatim as
``solve_blocks``, with ``self`` the workspace, so a test may set it in
place of the method that solves one-column blocks in closed form.

The others are kept as they were, less the argument checks and with the
matrix passed in, as test oracles for ``spai.spai_profitability``,
``sparse_core.matvec`` and ``CscMatrix.diagonal`` /
``has_full_structural_diagonal``. The structural row matching that the
maximum-product one replaced (``zero_free_diagonal_permutation``), the
per-line Matrix Market reader, the per-column ``split`` and the two-pass
DFS behind ``splitting._strongly_connected`` are kept verbatim, their
imports aside, and so are the per-column PSAI build (``psai_column`` and
``psai``) and the per-column SPAI build (``spai_candidates``,
``_select_profitable``, ``spai_column`` and ``spai``) that the lockstep
builds replaced, with the worker pool they ran on (``_map_columns``), the
concatenation that assembled their M (``_assemble_columns``) and the
report types they filled (``SpaiReport`` and ``PsaiReport``, whose
``columns`` was a plain list). They find their least-squares kernel
``ls_init``, and SPAI its ``spai_candidates`` and ``spai_profitability``,
as module globals, so a test may swap in another one. Their ``ls_init``
here is ``_OneTarget``: a batch of one of ``lstsq.LsWorkspace`` behind
the single-target interface the loops were written for, which raises the
failure the batch records. The changes to the loops: SPAI writes the
residual into its dense vector from ``ws.residual()``, as the workspace
no longer has ``scatter_residual``, and builds A^T with ``_transpose``,
which is what the removed ``sparse_core.transpose`` did; PSAI no longer
prefixes its initial ``DegeneratePatternError`` with ``column k:``, as
the lockstep build pairs each error text with its column instead.

The per-system BiCGStab (``bicgstab``, which judged convergence on the
true residual of every half step) and the driver's loop over the systems
(``_solve_systems``) that the block solve replaced are kept verbatim, their
imports aside; ``_solve_systems`` finds ``bicgstab`` and ``matvec`` as
module globals, so it runs the loop kernels of this module. So is the
first block BiCGStab, renamed ``block_bicgstab``, with its ``_block`` and
helpers: it took a vector or a block, ended a column in four places and
compacted the start exits out before its loop.

The driver's two solve paths are kept too: ``solve_standard`` with its own
single solve (``_standard_on``), and ``solve_irregular`` with its posthoc
rounds, which held the ``y`` system apart from the ``w_j`` systems and
rebuilt the re-solve list with a ``-1`` marker for ``y``. They call the
driver's ``build_preconditioner``, ``assemble_solution`` and
``_finish_report``, which now takes the ``s + 1`` outcomes as one list, and
solve each list of systems as one block through the driver's
``_solve_block`` (``_solve_block`` here stacks the list).

The test-matrix generator, which drew each column's rows from an
``(n - 1)``-element array, is kept verbatim, its argument checks aside, as
``generate_test_matrix``.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.sparse import csc_matrix as _scipy_csc
from scipy.sparse.csgraph import maximum_bipartite_matching as _max_matching

from saikit import driver
from saikit.driver import DriverConfig, SolveReport
from saikit.krylov import BlockOutcome, SolveOutcome
from saikit.lstsq import (DegeneratePatternError, LsWorkspace, WorkspaceGuardError,
                          _householder_solve)
from saikit.psai import PsaiColumnResult, PsaiConfig, psai_tol
from saikit.sparse_core import (CscMatrix, MatrixMarketError, PathOrStream, SparseVector,
                                StructurallySingularError, UnsupportedFieldError,
                                _as_index_array, _as_value_array, _open_text, column_stats,
                                norm1, pointers)
from saikit.sparse_core import sorted_unique as _sorted_unique
from saikit.spai import ColumnProfile, ColumnResult, SpaiConfig
from saikit.splitting import SplitSystem, _keep_indices

from .conftest import of_one


def check_csc(n_rows: int, n_cols: int, col_ptr, row_idx, values) -> None:
    """The checks of ``CscMatrix.__post_init__``, rows ordered by the interior mask."""
    col_ptr = _as_index_array(col_ptr)
    row_idx = _as_index_array(row_idx)
    values = _as_value_array(values)
    if n_rows < 0 or n_cols < 0:
        raise ValueError("matrix dimensions must be non-negative")
    if col_ptr.shape != (n_cols + 1,):
        raise ValueError("col_ptr must have length n_cols + 1")
    if col_ptr[0] != 0 or col_ptr[-1] != len(row_idx):
        raise ValueError("col_ptr must start at 0 and end at nnz")
    if np.any(np.diff(col_ptr) < 0):
        raise ValueError("col_ptr must be non-decreasing")
    if len(row_idx) != len(values):
        raise ValueError("row_idx and values length mismatch")
    if len(row_idx):
        if row_idx.min() < 0 or row_idx.max() >= n_rows:
            raise ValueError("row index out of range")
        # strictly increasing rows within each column
        d = np.diff(row_idx)
        col_starts = col_ptr[1:-1]
        interior = np.ones(len(d), dtype=bool)
        interior[col_starts[(col_starts > 0) & (col_starts < len(row_idx))] - 1] = False
        if np.any(d[interior] <= 0):
            raise ValueError("row indices must strictly increase within a column")
    if not np.all(np.isfinite(values)):
        raise ValueError("matrix values must be finite")
    if np.any(values == 0.0):
        raise ValueError("explicit zeros must be purged before construction")


def from_coo(n_rows: int, n_cols: int, rows, cols, vals,
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build from coordinate triplets; duplicates are summed, zeros purged."""
    rows = _as_index_array(rows)
    cols = _as_index_array(cols)
    vals = _as_value_array(vals)
    if not (len(rows) == len(cols) == len(vals)):
        raise ValueError("triplet arrays must have equal length")
    if len(rows):
        if rows.min() < 0 or rows.max() >= n_rows:
            raise ValueError("row index out of range")
        if cols.min() < 0 or cols.max() >= n_cols:
            raise ValueError("column index out of range")
    order = np.lexsort((rows, cols))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if len(rows):
        new_group = np.empty(len(rows), dtype=bool)
        new_group[0] = True
        new_group[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(new_group)
        summed = np.add.reduceat(vals, starts)
        rows, cols, vals = rows[starts], cols[starts], summed
    keep = vals != 0.0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    col_ptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.add.at(col_ptr, cols + 1, 1)
    np.cumsum(col_ptr, out=col_ptr)
    return col_ptr, rows, vals


def solve_blocks(self, coeffs, in_rows, in_cols, is_k, l_owner, owner, e_owner,
                 at, pos, vals) -> None:
    """Fill ``coeffs`` on the row-k blocks, one dense block at a time."""
    n_t = len(self.targets)
    m = np.bincount(l_owner[in_rows], minlength=n_t)   # block shape per target
    p = np.bincount(owner[in_cols], minlength=n_t)
    row_start, col_start = np.cumsum(m) - m, np.cumsum(p) - p
    rhs = is_k[in_rows].astype(np.float64)
    block_cols = np.flatnonzero(in_cols)
    ent = np.flatnonzero(in_cols[pos])        # block entries, target after target
    row = (np.cumsum(in_rows) - 1 - row_start[l_owner])[at[ent]]
    col = (np.cumsum(in_cols) - 1 - col_start[owner])[pos[ent]]
    val = vals[ent]
    ptr = pointers(e_owner[ent], n_t).tolist()
    ms, ps, rs, cs = (x.tolist() for x in (m, p, row_start, col_start))
    for t in np.flatnonzero(p).tolist():
        mt, r0, c0, lo, hi = ms[t], rs[t], cs[t], ptr[t], ptr[t + 1]
        sub = np.zeros((mt, ps[t]))
        sub[row[lo:hi], col[lo:hi]] = val[lo:hi]
        y, active = _householder_solve(sub, rhs[r0:r0 + mt])
        coeffs[block_cols[c0 + active]] = y


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


def zero_free_diagonal_permutation(a: CscMatrix) -> np.ndarray:
    """Row permutation ``perm`` making every diagonal of A[perm, :] structural.

    Returns the identity when the diagonal is already zero-free. Raises
    :class:`StructurallySingularError` when the pattern has no perfect
    matching between columns and rows.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    n = a.n_rows
    if n == 0 or a.has_full_structural_diagonal():
        return np.arange(n, dtype=np.int64)
    graph = _scipy_csc((np.ones(a.nnz), a.row_idx.copy(), a.col_ptr.copy()),
                       shape=(n, n)).tocsr()
    match = _max_matching(graph, perm_type="row")
    if np.any(match < 0):
        raise StructurallySingularError(
            "no perfect matching: the matrix is structurally singular")
    # match[j] is the row holding a nonzero in column j
    return np.asarray(match, dtype=np.int64)


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


@dataclass
class SpaiReport:
    residuals: np.ndarray
    n_c: int
    columns: list[ColumnResult]
    max_candidates: int
    errors: list[tuple[int, str]]


@dataclass
class PsaiReport:
    residuals: np.ndarray
    l_m: int
    columns: list[PsaiColumnResult]
    errors: list[tuple[int, str]]


def _assemble_columns(n: int, columns: list[SparseVector]) -> CscMatrix:
    """Deterministic concatenation of per-column sparse vectors."""
    counts = np.array([c.nnz for c in columns], dtype=np.int64)
    col_ptr = np.concatenate([[0], np.cumsum(counts)])
    row_idx = (np.concatenate([c.indices for c in columns])
               if counts.sum() else np.empty(0, dtype=np.int64))
    values = (np.concatenate([c.values for c in columns])
              if counts.sum() else np.empty(0))
    return CscMatrix(n, len(columns), col_ptr, row_idx, values)


def _pattern_step(a: CscMatrix, frontier: np.ndarray) -> np.ndarray:
    """Structural pattern of A applied to a vector supported on ``frontier``."""
    return np.unique(a.columns(frontier)[0])


class _OneTarget:
    """Target k of an ``LsWorkspace`` batch of one, with the single-target
    interface the per-column loops were written for: an init, augment or
    drop that fails raises the exception the batch records."""

    def __init__(self, a: CscMatrix, k: int, cols, max_workspace_bytes: int | None = None):
        self._ws = LsWorkspace(a, [k], *of_one(cols), max_workspace_bytes)
        self._raise()

    def _raise(self) -> None:
        if self._ws.errors:
            raise self._ws.errors[0]

    @property
    def residual_norm(self) -> float:
        return float(self._ws.residual_norms[0])

    @property
    def cols(self) -> np.ndarray:
        return self._ws.cols

    @property
    def rows(self) -> np.ndarray:
        return self._ws.rows

    def solution(self) -> SparseVector:
        _, cols, coeffs = self._ws.pattern()
        return SparseVector(self._ws.n_cols, cols, coeffs)

    def residual(self) -> SparseVector:
        _, rows, resid = self._ws.residuals()
        return SparseVector(self._ws.n_rows, rows, resid)

    def augment(self, a: CscMatrix, new_cols) -> None:
        self._ws.augment(a, *of_one(new_cols))
        self._raise()

    def drop_columns(self, a: CscMatrix, drop) -> "_OneTarget":
        self._ws.drop_columns(a, *of_one(drop))
        self._raise()
        return self


ls_init = _OneTarget


def psai_column(a: CscMatrix, k: int, cfg: PsaiConfig,
                a_norm1: float | None = None,
                dropping: bool = True) -> PsaiColumnResult:
    """Adaptive power-pattern column; raises on a degenerate subproblem."""
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    if a_norm1 is None:
        a_norm1 = norm1(a)
    ws = ls_init(a, k, [k], max_workspace_bytes=cfg.max_workspace_bytes)

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


def _transpose(a: CscMatrix) -> CscMatrix:
    """A^T, as ``sparse_core.transpose`` built it before it was removed."""
    return CscMatrix.from_coo(a.n_cols, a.n_rows, a.entry_cols(), a.row_idx, a.values)


def spai_candidates(a: CscMatrix, r_k: SparseVector, s,
                    at: CscMatrix | None = None) -> np.ndarray:
    """Candidate indices: columns touching the residual rows, minus the pattern.

    ``at`` may carry a precomputed transpose of ``a`` to avoid rebuilding it
    per call.
    """
    if r_k.nnz == 0:
        return np.empty(0, dtype=np.int64)
    if at is None:
        at = _transpose(a)
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
        at = _transpose(a)
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
    at = _transpose(a)
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


_BREAKDOWN_REL = 1e-30
_STAGNATION_WINDOW = 30


def bicgstab(apply_op: Callable[[np.ndarray], np.ndarray],
             b: np.ndarray,
             x0: Optional[np.ndarray] = None,
             *,
             apply_precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
             tol: float = 1e-8,
             max_iter: int = 500) -> SolveOutcome:
    """Solve A x = b, optionally as A M z = b with x = M z.

    Stops when ``||b - A x|| / ||b||`` reaches ``tol`` or after
    ``max_iter`` iterations. Inner-product breakdown (or any non-finite
    value) ends the run with the best iterate found so far.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return SolveOutcome(x=np.zeros(n), iterations=0, rel_residual=0.0,
                            flag="converged")

    prec = apply_precond if apply_precond is not None else (lambda v: v)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    r = b - apply_op(x)
    rr = float(np.linalg.norm(r)) / norm_b
    best_x, best_rr = x.copy(), rr
    if rr <= tol:
        return SolveOutcome(x=x, iterations=0, rel_residual=rr, flag="converged")

    r_shadow = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    breakdown_floor = _BREAKDOWN_REL * norm_b * norm_b
    since_improved = 0

    def finish(it: int, flag: str) -> SolveOutcome:
        return SolveOutcome(x=best_x, iterations=it, rel_residual=best_rr, flag=flag)

    # A step that overflows is the breakdown the checks below detect, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            rho_new = float(r_shadow @ r)
            if not np.isfinite(rho_new) or abs(rho_new) < breakdown_floor:
                return finish(it - 1, "breakdown")
            beta = (rho_new / rho) * (alpha / omega)
            p = r + beta * (p - omega * v)
            p_hat = prec(p)
            v = apply_op(p_hat)
            denom = float(r_shadow @ v)
            if not np.isfinite(denom) or abs(denom) < breakdown_floor:
                return finish(it - 1, "breakdown")
            alpha = rho_new / denom
            s = r - alpha * v

            x_half = x + alpha * p_hat
            rr_half = float(np.linalg.norm(b - apply_op(x_half))) / norm_b
            if np.isfinite(rr_half) and rr_half < best_rr * (1.0 - 1e-12):
                best_x, best_rr = x_half.copy(), rr_half
                since_improved = 0
            if rr_half <= tol:
                return SolveOutcome(x=x_half, iterations=it, rel_residual=rr_half,
                                    flag="converged")

            s_hat = prec(s)
            t = apply_op(s_hat)
            tt = float(t @ t)
            if not np.isfinite(tt) or tt == 0.0:
                return finish(it, "breakdown")
            omega = float(t @ s) / tt
            if not np.isfinite(omega) or abs(omega) < _BREAKDOWN_REL:
                return finish(it, "breakdown")
            x = x_half + omega * s_hat
            r = s - omega * t

            rr = float(np.linalg.norm(b - apply_op(x))) / norm_b
            if not np.isfinite(rr):
                return finish(it, "breakdown")
            if rr < best_rr * (1.0 - 1e-12):
                best_x, best_rr = x.copy(), rr
                since_improved = 0
            else:
                since_improved += 1
            if rr <= tol:
                return SolveOutcome(x=x, iterations=it, rel_residual=rr, flag="converged")
            if since_improved >= _STAGNATION_WINDOW:
                return finish(it, "stagnation")
            rho = rho_new

    return finish(max_iter, "max_iter")


def _solve_systems(a: CscMatrix, m: CscMatrix, rhs_list: list[np.ndarray],
                   tols: list[float], max_iter: int,
                   x0_list: list[np.ndarray | None] | None = None,
                   ) -> list[SolveOutcome]:
    apply_op = lambda v: matvec(a, v)
    apply_m = lambda v: matvec(m, v)
    x0_list = x0_list or [None] * len(rhs_list)
    return [bicgstab(apply_op, rhs, x0, apply_precond=apply_m, tol=tol,
                     max_iter=max_iter)
            for rhs, tol, x0 in zip(rhs_list, tols, x0_list)]


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Column-wise inner products of two ``(n, k)`` blocks."""
    return np.einsum("ij,ij->j", u, v)


def _broken(values: np.ndarray, floor) -> np.ndarray:
    """Where a recurrence scalar is below its floor in magnitude, or not finite."""
    return ~(np.abs(values) >= floor) | np.isinf(values)


def block_bicgstab(apply_op: Callable[[np.ndarray], np.ndarray],
             b: np.ndarray,
             x0: Optional[np.ndarray] = None,
             *,
             apply_precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
             tol: float | np.ndarray = 1e-8,
             max_iter: int = 500) -> SolveOutcome | BlockOutcome:
    """Solve A X = B, optionally as A M Z = B with X = M Z.

    ``b`` is one right-hand side or an ``(n, k)`` block of them; ``tol`` is
    one relative tolerance or one per column, and ``x0`` has the shape of
    ``b``. A column stops when ``||b - A x|| / ||b||`` reaches its ``tol``,
    after ``max_iter`` iterations, on breakdown (an inner product below its
    floor, or any non-finite value) or after the estimate has not improved
    for 30 iterations. A vector ``b`` returns its :class:`SolveOutcome`
    (the closures then see vectors); a block returns a :class:`BlockOutcome`.
    """
    b = np.asarray(b, dtype=np.float64)
    vector = b.ndim == 1
    if vector:
        b = b[:, None]
        x0 = None if x0 is None else np.asarray(x0, dtype=np.float64)[:, None]
        op, prec = apply_op, apply_precond
        apply_op = lambda x: op(x[:, 0])[:, None]
        if prec is not None:
            apply_precond = lambda x: prec(x[:, 0])[:, None]
    # A step that overflows is the breakdown the checks detect, not a warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = _block(apply_op, b, x0, apply_precond, tol, max_iter)
    return out.columns[0] if vector else out


def _block(apply_op, b: np.ndarray, x0, apply_precond, tol, max_iter: int) -> BlockOutcome:
    n, k = b.shape
    tol = np.broadcast_to(np.asarray(tol, dtype=np.float64), (k,))
    if not np.all(tol > 0.0):
        raise ValueError("tol must be positive")
    prec = apply_precond if apply_precond is not None else (lambda x: x)
    b = np.ascontiguousarray(b)
    norm_b = np.sqrt(_dots(b, b))
    if x0 is not None and np.shape(x0) != (n, k):
        raise ValueError(f"x0 has shape {np.shape(x0)}, right-hand sides {b.shape}")
    x = np.zeros((n, k)) if x0 is None else np.array(x0, dtype=np.float64, order="C")
    r = b.copy() if x0 is None else b - apply_op(x)
    done: list[Optional[SolveOutcome]] = [None] * k

    def outcome(xj: np.ndarray, it: int, rr: float, flag: str) -> SolveOutcome:
        return SolveOutcome(x=xj.copy(), iterations=int(it), rel_residual=float(rr), flag=flag)

    rr = np.sqrt(_dots(r, r)) / norm_b
    zero = norm_b == 0.0
    start = ~zero & (rr <= tol)
    for j in zero.nonzero()[0]:
        done[j] = SolveOutcome(x=np.zeros(n), iterations=0, rel_residual=0.0, flag="converged")
    for j in start.nonzero()[0]:
        done[j] = outcome(x[:, j], 0, rr[j], "converged")

    # State of the live columns; ``cols`` maps them to the block's columns.
    cols = (~zero & ~start).nonzero()[0]
    if len(cols) < k:
        x, r = x[:, cols], r[:, cols]
        norm_b, tol, rr = norm_b[cols], tol[cols], rr[cols]
    # r starts as b without x0; neither b nor r_shadow is written in place
    r_shadow = b if x0 is None and len(cols) == k else r.copy()
    p = np.zeros_like(r)
    v = np.zeros_like(r)
    work = np.empty_like(r)
    x_prev = np.empty_like(r)      # the iterate before x: x is written here, then swapped
    rho, alpha, omega = (np.ones(len(cols)) for _ in range(3))
    floor = _BREAKDOWN_REL * norm_b * norm_b
    # The best iterate is x itself where ``at_x``, else the column of best_x.
    best_x, best_rr, best_true = np.empty_like(r), rr.copy(), rr.copy()
    at_x = np.ones(len(cols), dtype=bool)
    since_improved = np.zeros(len(cols), dtype=np.int64)
    live = np.ones(len(cols), dtype=bool)

    def true_rr(idx: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residuals ``b - A x`` of live columns ``idx`` and their relative norms."""
        res = b[:, cols[idx]]
        res -= apply_op(xs)
        return res, np.sqrt(_dots(res, res)) / norm_b[idx]

    def stop(mask: np.ndarray, it: int, flag: str) -> None:
        """End the live columns in ``mask`` with their best iterate."""
        idx = (mask & live).nonzero()[0]
        if len(idx) == 0:
            return
        live[idx] = False
        xs = np.where(at_x[idx], x[:, idx], best_x[:, idx])
        unknown = np.isnan(best_true[idx])
        if unknown.any():
            best_true[idx[unknown]] = true_rr(idx[unknown], xs[:, unknown])[1]
        for c, j in enumerate(idx):
            done[cols[j]] = outcome(xs[:, c], it, best_true[j], flag)

    def judge(est: np.ndarray, it: int, full_step: bool) -> None:
        """Confirm estimates that meet their target, then track the best iterate.

        ``est`` estimates the residual of ``x`` from ``r``; a column whose
        true residual misses its target has that residual written over ``r``.
        """
        known = np.nan                  # the true residuals of x, where computed
        hit = (live & (est <= tol)).nonzero()[0]
        if len(hit):
            true_res, true = true_rr(hit, x[:, hit] if len(hit) < len(est) else x)
            known = np.full(len(est), np.nan)
            known[hit] = est[hit] = true
            ok = true <= tol[hit]
            for j, t in zip(hit[ok], true[ok]):
                done[cols[j]] = outcome(x[:, j], it, t, "converged")
            live[hit[ok]] = False
            r[:, hit[~ok]] = true_res[:, ~ok]
        # A non-finite estimate compares false, so it is never an improvement.
        improved = live & (est < best_rr * (1.0 - 1e-12))
        kept = (at_x > improved).nonzero()[0]     # the iterate before x stays the best
        best_x[:, kept] = x_prev[:, kept]
        np.copyto(at_x, improved)
        np.copyto(best_rr, est, where=improved)
        np.copyto(best_true, known, where=improved)
        if full_step:
            since_improved[:] += 1
        np.copyto(since_improved, 0, where=improved)

    # Columns that finish mid-step ride along until the step ends.
    it = 0
    while live.any() and it < max_iter:
        it += 1
        rho_new = _dots(r_shadow, r)
        stop(_broken(rho_new, floor), it - 1, "breakdown")
        beta = (rho_new / rho) * (alpha / omega)
        np.multiply(v, omega, out=work)
        p -= work
        p *= beta
        p += r
        del v                          # its successor is not allocated beside it
        p_hat = prec(p)
        v = apply_op(p_hat)
        denom = _dots(r_shadow, v)
        stop(_broken(denom, floor), it - 1, "breakdown")
        alpha = rho_new / denom
        np.multiply(v, alpha, out=work)
        r -= work                      # r is now s, the half-step residual
        np.multiply(p_hat, alpha, out=x_prev)
        x_prev += x
        x, x_prev = x_prev, x
        del p_hat
        judge(np.sqrt(_dots(r, r)) / norm_b, it, full_step=False)

        s_hat = prec(r)
        t = apply_op(s_hat)
        # omega is broken also when t t is 0 or not finite
        omega = _dots(t, r) / _dots(t, t)
        stop(_broken(omega, _BREAKDOWN_REL), it, "breakdown")
        np.multiply(s_hat, omega, out=x_prev)     # before r changes: s_hat may be r
        x_prev += x
        x, x_prev = x_prev, x
        np.multiply(t, omega, out=work)
        r -= work
        del s_hat, t
        est = np.sqrt(_dots(r, r)) / norm_b
        judge(est, it, full_step=True)
        stop(~np.isfinite(est), it, "breakdown")
        stop(since_improved >= _STAGNATION_WINDOW, it, "stagnation")
        rho = rho_new

        if not live.all():
            # One array at a time, so each is freed before the next is copied.
            keep = live.nonzero()[0]
            r_shadow = r_shadow[:, keep]
            x = x[:, keep]
            r = r[:, keep]
            p = p[:, keep]
            v = v[:, keep]
            best_x = best_x[:, keep]
            del work, x_prev
            work, x_prev = np.empty_like(r), np.empty_like(r)
            cols, norm_b, tol, floor, rho, alpha, omega = (
                vec[keep] for vec in (cols, norm_b, tol, floor, rho, alpha, omega))
            best_rr, best_true, at_x, since_improved, live = (
                vec[keep] for vec in (best_rr, best_true, at_x, since_improved, live))
    stop(live, it, "max_iter")

    flags = [o.flag for o in done]
    flag = next((f for f in flags if f != "converged"), "converged")
    return BlockOutcome(columns=done, iterations=it, flag=flag)


POSTHOC_ROUNDS = 8


def _solve_block(a: CscMatrix, m: CscMatrix, rhs_list: list[np.ndarray], tols: list[float],
                 max_iter: int, x0_list: list[np.ndarray] | None = None) -> list[SolveOutcome]:
    x0 = None if x0_list is None else np.column_stack(x0_list)
    return driver._solve_block(a, m, np.column_stack(rhs_list), np.array(tols), max_iter, x0)


def _finish_report(a0, b0, x_hat, cfg, outcome_y: SolveOutcome,
                   outcomes_w: list[SolveOutcome], stats, cond, s, posthoc_c):
    return driver._finish_report(a0, b0, x_hat, cfg, [outcome_y] + outcomes_w, stats,
                                 cond, posthoc_c)


def solve_standard(a: CscMatrix, b: np.ndarray, cfg: DriverConfig | None = None,
                   m: CscMatrix | None = None) -> SolveReport:
    cfg = cfg or DriverConfig()
    b = np.asarray(b, dtype=np.float64)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side must be finite")
    if np.linalg.norm(b) == 0.0:
        return driver._zero_rhs_report(a, cfg, m)
    a_w, b_w = (a, b) if m is not None else driver._apply_preprocess(a, b, cfg.preprocess)
    return _standard_on(a, b, a_w, b_w, cfg, m)


def _standard_on(a0: CscMatrix, b0: np.ndarray, a_w: CscMatrix, b_w: np.ndarray,
                 cfg: DriverConfig, m: CscMatrix | None = None) -> SolveReport:
    if m is None:
        m, stats = driver.build_preconditioner(a_w, cfg)
    else:
        stats = driver._preconditioner_stats(cfg.method, m, a_w)
    outcome = _solve_block(a_w, m, [b_w], [cfg.epsilon], cfg.max_iter)[0]
    return _finish_report(a0, b0, outcome.x, cfg, outcome, [], stats, 1.0, 0, None)


def solve_irregular(a: CscMatrix, b: np.ndarray,
                    cfg: DriverConfig | None = None) -> SolveReport:
    cfg = cfg or DriverConfig()
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (a.n_rows,):
        raise ValueError("right-hand side length mismatch")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side must be finite")
    if np.linalg.norm(b) == 0.0:
        return driver._zero_rhs_report(a, cfg)

    a_w, b_w = driver._apply_preprocess(a, b, cfg.preprocess)
    sys = driver.split(a_w, factor=cfg.factor, strategy=cfg.strategy, p_kept=cfg.p_kept)
    if sys.s == 0:
        return _standard_on(a, b, a_w, b_w, cfg)

    m, stats = driver.build_preconditioner(sys.a_tilde, cfg)

    s = sys.s
    norm_b = float(np.linalg.norm(b_w))
    u_cols = [sys.u.col(i) for i in range(s)]
    u_dense = [np.zeros(a.n_rows) for _ in range(s)]
    for i, (rows, vals) in enumerate(u_cols):
        u_dense[i][rows] = vals
    norm_u = np.array([float(np.linalg.norm(col)) for col in u_dense])

    c_now = cfg.c_fixed if cfg.c_policy == "fixed" else 1.0
    tol_y, tol_w = driver.subsystem_tolerances(cfg.epsilon, s, c_now, norm_b, norm_u)
    outcomes = _solve_block(sys.a_tilde, m, [b_w] + u_dense,
                                     [tol_y] + list(tol_w), cfg.max_iter)
    outcome_y, outcomes_w = outcomes[0], outcomes[1:]
    posthoc_c = None

    if cfg.c_policy == "posthoc":
        for _ in range(POSTHOC_ROUNDS):
            w_hat = np.column_stack([o.x for o in outcomes_w])
            c_mat = np.eye(s) + w_hat[sys.irregular_cols, :]
            try:
                z = np.linalg.solve(c_mat, outcome_y.x[sys.irregular_cols])
            except np.linalg.LinAlgError:
                break
            posthoc_c = float(np.linalg.norm(z))
            c_eff = max(posthoc_c, np.finfo(float).tiny)
            _, tol_w_exact = driver.subsystem_tolerances(cfg.epsilon, s, c_eff,
                                                         norm_b, norm_u)
            stale = [j for j, o in enumerate(outcomes_w)
                     if o.rel_residual >= tol_w_exact[j]]
            if outcome_y.rel_residual >= tol_y:
                stale_y = True
            else:
                stale_y = False
            if not stale and not stale_y:
                break
            redo_rhs, redo_tol, redo_x0, redo_idx = [], [], [], []
            if stale_y:
                redo_rhs.append(b_w)
                redo_tol.append(tol_y * 0.5)
                redo_x0.append(outcome_y.x)
                redo_idx.append(-1)
            for j in stale:
                redo_rhs.append(u_dense[j])
                redo_tol.append(tol_w_exact[j] * 0.5)
                redo_x0.append(outcomes_w[j].x)
                redo_idx.append(j)
            redone = _solve_block(sys.a_tilde, m, redo_rhs, redo_tol,
                                           cfg.max_iter, x0_list=redo_x0)
            progressed = False
            for idx, out in zip(redo_idx, redone):
                if idx == -1:
                    if out.rel_residual < outcome_y.rel_residual:
                        outcome_y = out
                        progressed = True
                else:
                    if out.rel_residual < outcomes_w[idx].rel_residual:
                        outcomes_w[idx] = out
                        progressed = True
            if not progressed:
                break

    w_hat = np.column_stack([o.x for o in outcomes_w])
    x_hat, cond = driver.assemble_solution(outcome_y.x, w_hat, sys.irregular_cols)
    return _finish_report(a, b, x_hat, cfg, outcome_y, outcomes_w, stats,
                          cond, s, posthoc_c)


def generate_test_matrix(kind: str, n: int, density: float | None = None,
                         planted_dense_cols: int = 0, seed: int = 0) -> CscMatrix:
    """``splitting.generate_test_matrix``, each column's rows chosen from an array."""
    if density is None:
        density = min(1.0, 3.0 / (n - 1))
    k_off = int(round(density * (n - 1)))

    rng = np.random.default_rng(seed)
    rows_l, cols_l, vals_l = [], [], []
    dense_cols = set(int(j) for j in
                     rng.choice(n, size=planted_dense_cols, replace=False)) \
        if planted_dense_cols else set()

    def magnitudes(count: int) -> np.ndarray:
        return rng.uniform(0.1, 1.0, size=count)

    def signed(count: int) -> np.ndarray:
        mags = magnitudes(count)
        if kind == "m-matrix":
            return -mags
        return mags * rng.choice((-1.0, 1.0), size=count)

    for j in range(n):
        if j in dense_cols:
            r = np.concatenate([np.arange(j), np.arange(j + 1, n)])
            v = signed(n - 1) / n
        else:
            choices = np.concatenate([np.arange(j), np.arange(j + 1, n)])
            r = rng.choice(choices, size=min(k_off, n - 1), replace=False)
            v = signed(len(r))
        if kind == "irreducible-dd":
            cyc = (j + 1) % n
            if cyc not in set(int(x) for x in r):
                r = np.concatenate([r, [cyc]])
                v = np.concatenate([v, signed(1)])
        rows_l.append(r)
        cols_l.append(np.full(len(r), j, dtype=np.int64))
        vals_l.append(v)

    rows = np.concatenate(rows_l)
    cols = np.concatenate(cols_l)
    vals = np.concatenate(vals_l)

    abs_rowsums = np.bincount(rows, weights=np.abs(vals), minlength=n)
    abs_colsums = np.bincount(cols, weights=np.abs(vals), minlength=n)
    margins = rng.uniform(0.5, 1.5, size=n)
    if kind in ("dominant-row", "m-matrix"):
        diag = abs_rowsums + margins
    elif kind == "dominant-col":
        diag = abs_colsums + margins
    else:  # irreducible-dd: weak row dominance, strict in one row
        diag = abs_rowsums.copy()
        diag[diag == 0.0] = 1.0
        diag[int(rng.integers(n))] += margins[0]

    rows = np.concatenate([rows, np.arange(n)])
    cols = np.concatenate([cols, np.arange(n)])
    vals = np.concatenate([vals, diag])
    return CscMatrix.from_coo(n, n, rows, cols, vals)
