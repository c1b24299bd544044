"""Adaptive sparse approximate inverse by per-column pattern growth.

Each column m_k of the preconditioner M minimizes ||A m_k - e_k|| over a
pattern that starts at {k} and grows by the most profitable candidate
indices until the residual norm falls to ``delta`` or the loop cap is hit.
Columns are independent and may be computed by parallel workers sharing A
read-only.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .lstsq import DegeneratePatternError, WorkspaceGuardError, _sorted_unique, ls_init
from .sparse_core import CscMatrix, SparseVector, transpose


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


def spai_mu(a: CscMatrix, r_dense: np.ndarray, j: int) -> float:
    """Optimal step -r.(Ae_j) / ||Ae_j||^2 of the one-dimensional update."""
    rows, vals = a.col(j)
    nj2 = float(vals @ vals)
    if nj2 == 0.0:
        raise ValueError(f"column {j} of A is zero")
    return -float(vals @ r_dense[rows]) / nj2


def spai_profitability(a: CscMatrix, r_dense: np.ndarray, cand,
                       col_sqnorms: np.ndarray | None = None,
                       ) -> tuple[list[tuple[int, float]], list[int]]:
    """Post-update residual norms rho_j for each candidate.

    rho_j^2 = ||r||^2 - (r.(Ae_j))^2 / ||Ae_j||^2, clamped at zero. Zero
    columns cannot improve anything and are reported in the second list.
    All candidates are scored from one gather of their entries.
    """
    cand = np.asarray(cand, dtype=np.int64)
    rows, vals, pos = a.columns(cand)
    nj2 = (np.bincount(pos, weights=vals * vals, minlength=len(cand))
           if col_sqnorms is None else col_sqnorms[cand])
    live = nj2 != 0.0
    dots = np.bincount(pos, weights=vals * r_dense[rows], minlength=len(cand))[live]
    r2 = float(r_dense @ r_dense)
    rho = np.sqrt(np.maximum(r2 - dots * dots / nj2[live], 0.0))
    return list(zip(cand[live].tolist(), rho.tolist())), cand[~live].tolist()


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
        ws.scatter_residual(r_dense)
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


def _assemble_columns(n: int, columns: list[SparseVector]) -> CscMatrix:
    """Deterministic concatenation of per-column sparse vectors."""
    counts = np.array([c.nnz for c in columns], dtype=np.int64)
    col_ptr = np.concatenate([[0], np.cumsum(counts)])
    row_idx = (np.concatenate([c.indices for c in columns])
               if counts.sum() else np.empty(0, dtype=np.int64))
    values = (np.concatenate([c.values for c in columns])
              if counts.sum() else np.empty(0))
    return CscMatrix(n, len(columns), col_ptr, row_idx, values)


def _map_columns(fn, n: int, threads: int) -> list:
    if threads <= 1:
        return [fn(k) for k in range(n)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n)))


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
