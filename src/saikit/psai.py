"""Power-pattern sparse approximate inverse with adaptive dropping.

Column k starts from the pattern {k}; each loop unions in the structural
pattern of the next power of |A| applied to e_k, re-solves the least
squares subproblem, and drops solved entries whose magnitude falls below
the adaptive tolerance delta / (nnz(m_k) * ||A||_1). The basic variant
(dropping disabled) serves as the reference for the 2*delta residual
comparison. Pattern propagation is structural, so exact numeric
cancellation never removes a reachable position.

All columns advance in lockstep: at each loop every column still above
delta takes its frontier step in one sparse product, its new columns in
one augment of a batched least-squares workspace, and its drops in one
drop refit. A column's result does not depend on which other columns
share its batch, so ``psai_column`` is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_matrix as _scipy_csc

from .lstsq import DegeneratePatternError, _member, ls_init
from .sparse_core import CscMatrix, SparseVector, norm1
from .spai import _build_columns, _error, _ones_pattern


@dataclass
class PsaiConfig:
    delta: float = 0.4
    l_max: int = 10
    tol_policy: str | float = "adaptive"
    max_workspace_bytes: int | None = None

    def __post_init__(self):
        if not (0.0 < self.delta < 0.5):
            raise ValueError("delta must lie in (0, 0.5)")
        if self.l_max < 0:
            raise ValueError("l_max must be >= 0")
        if isinstance(self.tol_policy, str):
            if self.tol_policy != "adaptive":
                raise ValueError("tol_policy must be 'adaptive' or a fixed float")
        elif not 0.0 <= self.tol_policy < np.inf:
            raise ValueError("fixed drop tolerance must be finite and >= 0")


@dataclass
class PsaiColumnResult:
    m_k: SparseVector
    residual_norm: float
    loops_used: int
    dropped_count: int
    converged: bool
    drops: list[tuple[int, int, float, float]] = field(default_factory=list)
    tol_history: list[float] = field(default_factory=list)
    error: str | None = None


@dataclass
class PsaiReport:
    residuals: np.ndarray
    l_m: int
    columns: list[PsaiColumnResult]
    errors: list[tuple[int, str]]


def psai_tol(delta: float, nnz_mk: int, a_norm1: float) -> float:
    """Adaptive drop tolerance delta / (nnz(m_k) * ||A||_1)."""
    if nnz_mk < 1:
        raise ValueError("nnz_mk must be at least 1")
    if a_norm1 <= 0.0:
        raise ValueError("matrix 1-norm must be positive")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    return delta / (nnz_mk * a_norm1)


def _pattern_step(pattern_b, owner: np.ndarray, cols: np.ndarray,
                  n_targets: int) -> tuple[np.ndarray, np.ndarray]:
    """Structural pattern of A applied to every target's frontier at once.

    ``pattern_b`` is A's pattern with ones as its data, so nothing cancels;
    the frontiers are flat ``(owner, col)`` arrays, target after target.
    """
    ptr = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=n_targets))))
    f = _scipy_csc((np.ones(len(cols)), cols, ptr), shape=(pattern_b.shape[1], n_targets))
    step = pattern_b @ f
    step.sort_indices()
    return (np.repeat(np.arange(n_targets), np.diff(step.indptr)),
            step.indices.astype(np.int64))


def _lockstep(a: CscMatrix, ks: np.ndarray, cfg: PsaiConfig, a_norm1: float,
              dropping: bool, pattern_b) -> tuple[list[PsaiColumnResult], dict[int, Exception]]:
    """Build the columns ``ks`` together, each loop one batch step for all.

    Returns a result per column and the exception of each failed column,
    by position in ``ks``; a failed column's result is the zero vector with
    its error.
    """
    n = a.n_cols
    n_t = len(ks)
    ws = ls_init(a, ks, (np.arange(n_t), ks), max_workspace_bytes=cfg.max_workspace_bytes)
    for t, exc in ws.errors.items():
        if isinstance(exc, DegeneratePatternError):
            ws.errors[t] = DegeneratePatternError(f"column {ks[t]}: {exc}")
    drops: list[list] = [[] for _ in range(n_t)]
    tol_history: list[list] = [[] for _ in range(n_t)]
    loops_used = np.zeros(n_t, dtype=np.int64)
    active = np.ones(n_t, dtype=bool)
    active[list(ws.errors)] = False
    f_owner, f_cols = np.arange(n_t), ks

    def apply_dropping(loop: int) -> None:
        owner, cols, coeffs = ws.pattern()
        nnz = np.bincount(owner[coeffs != 0.0], minlength=n_t)
        tol = np.full(n_t, -1.0)        # below every magnitude: nothing is dropped
        for t, nnz_t in enumerate(nnz.tolist()):
            if active[t] and nnz_t:
                tol_t = (psai_tol(cfg.delta, nnz_t, a_norm1)
                         if cfg.tol_policy == "adaptive" else float(cfg.tol_policy))
                tol_history[t].append(tol_t)
                tol[t] = tol_t
        mags = np.abs(coeffs)
        doomed = (mags <= tol[owner]) & (cols != ks[owner])
        if not doomed.any():
            return
        order = np.lexsort((cols[doomed], owner[doomed]))     # each column's drops by index
        d_owner, d_cols = owner[doomed][order], cols[doomed][order]
        for t, j, mag in zip(d_owner.tolist(), d_cols.tolist(), mags[doomed][order].tolist()):
            drops[t].append((loop, j, mag, tol_history[t][-1]))
        ws.drop_columns(a, d_cols, d_owner)
        active[list(ws.errors)] = False

    if dropping:
        apply_dropping(0)
    for loop in range(1, cfg.l_max + 1):
        active &= ~(ws.residual_norms <= cfg.delta)
        if not active.any():
            break
        keep = active[f_owner]
        f_owner, f_cols = _pattern_step(pattern_b, f_owner[keep], f_cols[keep], n_t)
        owner, cols, _ = ws.pattern()
        new = ~_member(np.sort(owner * n + cols), f_owner * n + f_cols)
        if new.any():
            ws.augment(a, f_cols[new], f_owner[new])
            active[list(ws.errors)] = False
        loops_used[active] = loop
        if dropping:
            apply_dropping(loop)

    norms = ws.residual_norms.tolist()
    results = [PsaiColumnResult(m_k=m_k, residual_norm=1.0, loops_used=0, dropped_count=0,
                                converged=False, error=_error(ws.errors[t]))
               if t in ws.errors else
               PsaiColumnResult(m_k=m_k, residual_norm=norms[t], loops_used=int(loops_used[t]),
                                dropped_count=len(drops[t]), converged=norms[t] <= cfg.delta,
                                drops=drops[t], tol_history=tol_history[t])
               for t, m_k in enumerate(ws.solutions())]
    return results, ws.errors


def psai_column(a: CscMatrix, k: int, cfg: PsaiConfig,
                a_norm1: float | None = None,
                dropping: bool = True) -> PsaiColumnResult:
    """Adaptive power-pattern column, the batch of one; raises on failure."""
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    if a_norm1 is None:
        a_norm1 = norm1(a)
    results, errors = _lockstep(a, np.array([k], dtype=np.int64), cfg, a_norm1,
                                dropping, _ones_pattern(a))
    if errors:
        raise errors[0]
    return results[0]


def bpsai_column(a: CscMatrix, k: int, cfg: PsaiConfig,
                 a_norm1: float | None = None) -> PsaiColumnResult:
    """Basic power-pattern column: identical growth, no dropping."""
    return psai_column(a, k, cfg, a_norm1=a_norm1, dropping=False)


def psai(a: CscMatrix, cfg: PsaiConfig | None = None, threads: int = 1,
         dropping: bool = True) -> tuple[CscMatrix, PsaiReport]:
    """Assemble the preconditioner, all columns in lockstep; failures stay local.

    ``threads`` splits the columns into that many contiguous chunks, each
    built as one lockstep batch on its own worker thread (see
    ``spai._build_columns``).
    """
    cfg = cfg or PsaiConfig()
    if a.n_rows != a.n_cols and a.n_cols:
        raise ValueError("square matrix required")
    a1 = norm1(a)
    pattern_b = _ones_pattern(a)
    results, m, residuals, errors = _build_columns(
        a, threads, lambda ks: _lockstep(a, ks, cfg, a1, dropping, pattern_b))
    report = PsaiReport(residuals=residuals,
                        l_m=max((r.loops_used for r in results), default=0),
                        columns=results, errors=errors)
    return m, report
