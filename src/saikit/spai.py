"""Adaptive sparse approximate inverse by pattern growth, all columns in lockstep.

Column m_k of M minimizes ||A m_k - e_k|| over a pattern that starts at {k}
and grows by the ``mn`` most profitable candidates per loop until the
residual norm falls to ``delta`` or the loop cap is hit (Grote and Huckle,
1997). Every column still growing advances one loop together: one
structural product finds the candidates, one product A^T R of the
residuals R scores them, one lexsort picks them and one batched augment
re-solves. A column's result does not depend on its batch, so
``spai_column`` is the batch of one. ``_build_columns`` chunks the columns
for both constructions.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_matrix as _scipy_csc

from .lstsq import DegeneratePatternError, _member, ls_init
from .sparse_core import CscMatrix, SparseVector

# Columns per lockstep batch at most: a batch holds the subproblems of all
# its columns at once, so its memory grows with its size.
_BATCH_COLUMNS = 512


@dataclass
class SpaiConfig:
    """Parameters of the adaptive procedure.

    ``l_max=20`` matches the experimental setting used throughout the test
    suite; the classic reference implementation ships with 5.
    """

    delta: float = 0.4
    l_max: int = 20
    mn: int = 5
    record_choices: bool = False
    max_workspace_bytes: int | None = None

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.l_max < 0:
            raise ValueError("l_max must be >= 0")
        if self.mn < 1:
            raise ValueError("mn must be >= 1")


@dataclass
class ColumnProfile:
    candidates_per_loop: list[int] = field(default_factory=list)
    residual_rows_per_loop: list[int] = field(default_factory=list)
    residual_norms: list[float] = field(default_factory=list)
    choices: list[list[tuple[int, float]]] = field(default_factory=list)
    chosen: list[list[int]] = field(default_factory=list)


@dataclass
class ColumnResult:
    m_k: SparseVector
    residual_norm: float
    loops_used: int
    converged: bool
    profile: ColumnProfile
    error: str | None = None


@dataclass
class SpaiReport:
    residuals: np.ndarray
    n_c: int
    columns: list[ColumnResult]
    max_candidates: int
    errors: list[tuple[int, str]]


def _ones_pattern(a: CscMatrix) -> _scipy_csc:
    """A's pattern as a scipy matrix with ones as its data, so nothing cancels."""
    return _scipy_csc((np.ones(a.nnz), a.row_idx, a.col_ptr), shape=(a.n_rows, a.n_cols))


def _keys(c) -> tuple[np.ndarray, np.ndarray]:
    """Sorted ``t * n + j`` keys of the entries of a scipy n-by-n_t matrix, and their values."""
    c = c.tocsc()
    owner = np.repeat(np.arange(c.shape[1], dtype=np.int64), np.diff(c.indptr))
    return owner * c.shape[0] + c.indices, c.data


def spai_candidates(a: CscMatrix, r, s, pattern_t=None) -> np.ndarray:
    """Candidate keys ``t * n + j``: the columns j touching residual t's rows, minus its pattern.

    ``r`` holds the residuals as the columns of a scipy sparse matrix with
    no stored zeros; ``s`` holds the pattern keys. ``pattern_t``
    may carry ``_ones_pattern(a).T`` to avoid rebuilding it per call. The
    keys come out sorted, target after target.
    """
    if pattern_t is None:
        pattern_t = _ones_pattern(a).T
    r = _scipy_csc(r)
    touched = _keys(pattern_t @ _scipy_csc((np.ones(r.nnz), r.indices, r.indptr),
                                           shape=r.shape))[0]
    s = np.sort(np.asarray(s, dtype=np.int64))
    return touched[~_member(s, touched)] if len(s) else touched


def spai_profitability(a: CscMatrix, r, cand, col_sqnorms: np.ndarray | None = None,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Post-update residual norms rho for the candidate keys ``cand`` (``t * n + j``).

    rho^2 = ||r_t||^2 - (r_t . A e_j)^2 / ||A e_j||^2, clamped at zero, with
    every dot taken from one sparse product A^T R (``r`` as for
    :func:`spai_candidates`). Each dot and ``||r_t||^2`` sum their terms in
    row order. Zero columns cannot improve anything. Returns the scored
    keys, their rho, and the keys of zero columns, each in ``cand`` order.
    """
    cand = np.asarray(cand, dtype=np.int64)
    n = a.n_cols
    if col_sqnorms is None:
        col_sqnorms = np.bincount(a.entry_cols(), weights=a.values ** 2, minlength=n)
    r = _scipy_csc(r)
    owner = cand // n
    live = col_sqnorms[cand - owner * n] != 0.0
    scored, owner = cand[live], owner[live]
    keys, sums = _keys(a._scipy.T @ r)     # a dot that sums to exactly 0 is not stored
    keys, sums = np.append(keys, -1), np.append(sums, 0.0)   # -1: the key of none
    at = np.searchsorted(keys[:-1], scored)
    dots = np.where(keys[at] == scored, sums[at], 0.0)
    r2 = np.bincount(np.repeat(np.arange(r.shape[1]), np.diff(r.indptr)),
                     weights=r.data * r.data, minlength=r.shape[1])
    rho = np.sqrt(np.maximum(r2[owner] - dots * dots / col_sqnorms[scored - owner * n], 0.0))
    return scored, rho, cand[~live]


def _lockstep(a: CscMatrix, ks: np.ndarray, cfg: SpaiConfig,
              s0=None) -> tuple[list, dict[int, Exception]]:
    """Grow the columns ``ks`` together, each loop one batch step for all.

    ``s0`` replaces the initial pattern {k} of a batch of one. Returns a
    result per column (None where it failed) and the exception of each
    failed column, by position in ``ks``.
    """
    n, n_t, guard = a.n_cols, len(ks), cfg.max_workspace_bytes
    pattern_t = _ones_pattern(a).T
    col_sqnorms = np.bincount(a.entry_cols(), weights=a.values ** 2, minlength=n)
    owner, cols = ((np.arange(n_t), ks) if s0 is None else
                   (np.zeros(len(s0), dtype=np.int64), np.asarray(s0, dtype=np.int64)))
    ws = ls_init(a, ks, (owner, cols), max_workspace_bytes=guard)
    retry = np.array([t for t, exc in ws.errors.items()
                      if isinstance(exc, DegeneratePatternError)], dtype=np.int64)
    if len(retry):      # a degenerate initial pattern falls back to column k's rows
        rows, _, pos = a.columns(ks[retry])
        keep = ~np.isin(owner, retry)
        owner, cols = np.append(owner[keep], retry[pos]), np.append(cols[keep], rows)
        ws = ls_init(a, ks, (owner, cols), max_workspace_bytes=guard)

    profiles = [ColumnProfile() for _ in range(n_t)]
    loops_used = np.zeros(n_t, dtype=np.int64)
    live = np.ones(n_t, dtype=bool)
    live[list(ws.errors)] = False
    for loop in range(cfg.l_max + 1):
        norms = ws.residual_norms
        for t in np.flatnonzero(live).tolist():
            profiles[t].residual_norms.append(float(norms[t]))
        live &= ~(norms <= cfg.delta)
        if loop == cfg.l_max or not live.any():
            break
        r_owner, r_rows, r_vals = ws.residuals()
        nz = live[r_owner] & (r_vals != 0.0)
        ptr = np.concatenate(([0], np.cumsum(np.bincount(r_owner[nz], minlength=n_t))))
        r = _scipy_csc((r_vals[nz], r_rows[nz], ptr), shape=(a.n_rows, n_t))
        s_owner, s_cols, _ = ws.pattern()
        cand = spai_candidates(a, r, s_owner * n + s_cols, pattern_t)
        n_cand = np.bincount(cand // n, minlength=n_t)
        for t, c, m in zip(np.flatnonzero(live).tolist(), n_cand[live].tolist(),
                           np.diff(ptr)[live].tolist()):
            profiles[t].candidates_per_loop.append(c)
            profiles[t].residual_rows_per_loop.append(m)
        keys, rho, _ = spai_profitability(a, r, cand, col_sqnorms)
        p_owner = keys // n
        p_cols = keys - p_owner * n
        n_live = np.bincount(p_owner, minlength=n_t)
        live &= n_live > 0          # no (live) candidate can touch the residual: stuck
        if not live.any():
            break
        order = np.lexsort((p_cols, rho, p_owner))
        start = np.cumsum(n_live) - n_live
        pick = order[np.arange(len(order)) - start[p_owner[order]] < cfg.mn]
        if cfg.record_choices:
            chosen = np.split(p_cols[pick], np.cumsum(np.minimum(n_live, cfg.mn))[:-1])
            for t in np.flatnonzero(live).tolist():
                lo, hi = start[t], start[t] + n_live[t]
                profiles[t].choices.append(list(zip(p_cols[lo:hi].tolist(),
                                                    rho[lo:hi].tolist())))
                profiles[t].chosen.append(chosen[t].tolist())
        ws.augment(a, p_cols[pick], p_owner[pick])
        loops_used[live] += 1
        live[list(ws.errors)] = False

    norms = ws.residual_norms.tolist()
    results = [None if t in ws.errors else ColumnResult(
        m_k=m_k, residual_norm=norms[t], loops_used=int(loops_used[t]),
        converged=norms[t] <= cfg.delta, profile=profiles[t])
        for t, m_k in enumerate(ws.solutions())]
    return results, ws.errors


def spai_column(a: CscMatrix, k: int, cfg: SpaiConfig, s0=None) -> ColumnResult:
    """Grow the pattern of column k until the residual meets ``delta``; the batch of one.

    A degenerate initial pattern (``s0``, by default {k}) falls back to the
    row pattern of column k of A; if that is degenerate too, or the
    workspace guard trips, the error is raised.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    results, errors = _lockstep(a, np.array([k], dtype=np.int64), cfg, s0=s0)
    if errors:
        raise errors[0]
    return results[0]


def _assemble_columns(n: int, columns: list[SparseVector]) -> CscMatrix:
    """Deterministic concatenation of per-column sparse vectors."""
    counts = np.array([c.nnz for c in columns], dtype=np.int64)
    col_ptr = np.concatenate([[0], np.cumsum(counts)])
    row_idx = (np.concatenate([c.indices for c in columns])
               if counts.sum() else np.empty(0, dtype=np.int64))
    values = (np.concatenate([c.values for c in columns])
              if counts.sum() else np.empty(0))
    return CscMatrix(n, len(columns), col_ptr, row_idx, values)


def _build_columns(a: CscMatrix, threads: int, lockstep, failed):
    """Results, M, residual norms and ``(column, error)`` list, built in lockstep chunks.

    ``lockstep(ks)`` builds columns ``ks`` as one batch: a result each (None
    where it failed) and the exceptions by position; ``failed(error)`` makes
    a failed column's result. ``threads`` threads build ``threads`` contiguous
    chunks, or more so that none exceeds ``_BATCH_COLUMNS`` columns.
    """
    n_chunks = max(threads, -(-a.n_cols // _BATCH_COLUMNS))
    chunks = np.array_split(np.arange(a.n_cols, dtype=np.int64),
                            max(1, min(n_chunks, a.n_cols)))

    def run(ks: np.ndarray) -> list:
        results, errors = lockstep(ks)
        for t, exc in errors.items():
            results[t] = failed(f"{type(exc).__name__}: {exc}")
        return results

    if threads <= 1:
        parts = [run(ks) for ks in chunks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, chunks))
    results = [r for part in parts for r in part]
    m = _assemble_columns(a.n_rows, [r.m_k for r in results])
    errors = [(k, r.error) for k, r in enumerate(results) if r.error]
    return results, m, np.array([r.residual_norm for r in results]), errors


def spai(a: CscMatrix, cfg: SpaiConfig | None = None,
         threads: int = 1) -> tuple[CscMatrix, SpaiReport]:
    """Approximate inverse of A, all columns in lockstep.

    A column that cannot be computed (zero column, workspace guard) yields
    its best effort, here the zero vector, and is counted as non-converged
    rather than aborting the whole matrix. ``threads`` splits the columns
    as for ``psai``.
    """
    cfg = cfg or SpaiConfig()
    if a.n_rows != a.n_cols and a.n_cols:
        raise ValueError("square matrix required")
    empty = SparseVector(a.n_cols, np.empty(0, dtype=np.int64), np.empty(0))
    results, m, residuals, errors = _build_columns(
        a, threads, lambda ks: _lockstep(a, ks, cfg),
        lambda error: ColumnResult(m_k=empty, residual_norm=1.0, loops_used=0,
                                   converged=False, profile=ColumnProfile(), error=error))
    max_cand = max((max(r.profile.candidates_per_loop, default=0) for r in results),
                   default=0)
    report = SpaiReport(residuals=residuals, n_c=int(np.sum(residuals > cfg.delta)),
                        columns=results, max_candidates=max_cand, errors=errors)
    return m, report
