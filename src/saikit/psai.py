"""Power-pattern sparse approximate inverse with adaptive dropping.

Column k starts from the pattern {k}; each loop unions in the structural
pattern of the next power of |A| applied to e_k, re-solves the least
squares subproblem, and drops solved entries whose magnitude falls below
the adaptive tolerance delta / (nnz(m_k) * ||A||_1). The basic variant
(dropping disabled) serves as the reference for the 2*delta residual
comparison. Pattern propagation is structural, so exact numeric
cancellation never removes a reachable position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lstsq import DegeneratePatternError, WorkspaceGuardError, ls_init
from .sparse_core import CscMatrix, SparseVector, norm1
from .spai import _assemble_columns, _map_columns


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
        elif self.tol_policy < 0:
            raise ValueError("fixed drop tolerance must be >= 0")


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


def bpsai_column(a: CscMatrix, k: int, cfg: PsaiConfig,
                 a_norm1: float | None = None) -> PsaiColumnResult:
    """Basic power-pattern column: identical growth, no dropping."""
    return psai_column(a, k, cfg, a_norm1=a_norm1, dropping=False)


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
