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
from functools import cached_property

import numpy as np
from scipy.sparse import csc_matrix as _scipy_csc

from .lstsq import DegeneratePatternError, ls_init
from .sparse_core import CscMatrix, SparseVector, member, norm1, owners, pointers
from .spai import _build_columns, _Report


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
        if self.max_workspace_bytes is not None and self.max_workspace_bytes < 1:
            raise ValueError("max_workspace_bytes must be >= 1, or None for no limit")


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
class PsaiReport(_Report):
    tols: tuple         # (column, drop tolerance) of each dropping pass
    drops: tuple        # (column, loop, dropped column, magnitude, tolerance)

    @property
    def l_m(self) -> int:
        return int(self.loops.max(initial=0))

    @property
    def n_failed(self) -> int:
        return len(self.errors)

    @cached_property
    def columns(self) -> list[PsaiColumnResult]:
        drops = self._by_column(self.drops)
        return self._results(PsaiColumnResult, drops=drops, dropped_count=list(map(len, drops)),
                             tol_history=self._by_column(self.tols))


def psai_tol(delta: float, nnz_mk: int | np.ndarray,
             a_norm1: float) -> float | np.ndarray:
    """Adaptive drop tolerance delta / (nnz(m_k) * ||A||_1), of one column or of each.

    It divides twice: the product ``nnz(m_k) * ||A||_1`` would overflow
    for ``||A||_1`` near the top of the float range.
    """
    if np.any(np.asarray(nnz_mk) < 1):
        raise ValueError("nnz_mk must be at least 1")
    if a_norm1 <= 0.0:
        raise ValueError("matrix 1-norm must be positive")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    return delta / nnz_mk / a_norm1


def _pattern_step(a: CscMatrix, owner: np.ndarray, cols: np.ndarray,
                  n_targets: int) -> tuple[np.ndarray, np.ndarray]:
    """Structural pattern of A applied to every target's frontier at once.

    The frontiers are flat ``(owner, col)`` arrays, target after target.
    """
    f = _scipy_csc((np.ones(len(cols)), cols, pointers(owner, n_targets)),
                   shape=(a.n_cols, n_targets))
    step = a._scipy_pattern @ f
    step.sort_indices()
    return owners(step.indptr), step.indices.astype(np.int64)


def _lockstep(a: CscMatrix, ks: np.ndarray, cfg: PsaiConfig, a_norm1: float,
              dropping: bool):
    """Build the columns ``ks`` together, each loop one batch step for all.

    Returns what ``spai._build_columns`` joins: the failures, final
    residual norms and loop counts by position in ``ks``, and the records
    of :class:`PsaiReport` with the final ``pattern``.
    """
    n = a.n_cols
    n_t = len(ks)
    ws = ls_init(a, ks, (np.arange(n_t), ks), max_workspace_bytes=cfg.max_workspace_bytes)
    for t, exc in ws.errors.items():
        if isinstance(exc, DegeneratePatternError):
            ws.errors[t] = DegeneratePatternError(f"column {ks[t]}: {exc}")
    none, empty = np.empty(0, dtype=np.int64), np.empty(0)
    tols, drops = [(none, empty)], [(none, none, none, empty, empty)]
    loops_used = np.zeros(n_t, dtype=np.int64)
    active = np.ones(n_t, dtype=bool)
    f_owner, f_cols = np.arange(n_t), ks

    def apply_dropping(loop: int) -> None:
        owner, cols, coeffs = ws.pattern()
        nnz = np.bincount(owner[coeffs != 0.0], minlength=n_t)
        at = np.flatnonzero(active & (nnz > 0))
        tol = np.full(n_t, -1.0)        # below every magnitude: nothing is dropped
        if cfg.tol_policy != "adaptive":
            tol[at] = float(cfg.tol_policy)
        elif len(at):                   # an all-zero A, of 1-norm 0, has none
            tol[at] = psai_tol(cfg.delta, nnz[at], a_norm1)
        tols.append((at, tol[at]))
        mags = np.abs(coeffs)
        doomed = (mags <= tol[owner]) & (cols != ks[owner])
        if not doomed.any():
            return
        order = np.argsort(owner[doomed] * n + cols[doomed])     # each column's drops by index
        d_owner, d_cols = owner[doomed][order], cols[doomed][order]
        drops.append((d_owner, np.full(len(d_owner), loop), d_cols, mags[doomed][order],
                      tol[d_owner]))
        ws.drop_columns(a, d_cols, d_owner)

    if dropping:
        apply_dropping(0)
    for loop in range(1, cfg.l_max + 1):
        active &= ws.residual_norms > cfg.delta     # a failed column's NaN ends it too
        if not active.any():
            break
        keep = active[f_owner]
        f_owner, f_cols = _pattern_step(a, f_owner[keep], f_cols[keep], n_t)
        owner, cols, _ = ws.pattern()
        new = ~member(np.sort(owner * n + cols), f_owner * n + f_cols)
        if new.any():
            ws.augment(a, f_cols[new], f_owner[new])
        loops_used[active] = loop
        if dropping:
            apply_dropping(loop)
    return ws.errors, ws.residual_norms, loops_used, {
        "pattern": [ws.pattern()], "tols": tols, "drops": drops}


def psai_column(a: CscMatrix, k: int, cfg: PsaiConfig,
                a_norm1: float | None = None,
                dropping: bool = True) -> PsaiColumnResult:
    """Adaptive power-pattern column, the batch of one; raises on failure."""
    if a_norm1 is None:
        a_norm1 = norm1(a)
    return PsaiReport(delta=cfg.delta, **_build_columns(
        a, 1, lambda ks: _lockstep(a, ks, cfg, a_norm1, dropping), k)).columns[0]


def bpsai_column(a: CscMatrix, k: int, cfg: PsaiConfig,
                 a_norm1: float | None = None) -> PsaiColumnResult:
    """Basic power-pattern column: identical growth, no dropping."""
    return psai_column(a, k, cfg, a_norm1=a_norm1, dropping=False)


def psai(a: CscMatrix, cfg: PsaiConfig | None = None, threads: int = 1,
         dropping: bool = True) -> tuple[CscMatrix, PsaiReport]:
    """Assemble the preconditioner, all columns in lockstep; failures stay local.

    The columns are cut into contiguous chunks of at most 2048, and at
    least ``threads`` of them, each built as one lockstep batch on
    ``threads`` worker threads (see ``spai._build_columns``).
    """
    cfg = cfg or PsaiConfig()
    a1 = norm1(a)
    report = PsaiReport(delta=cfg.delta, **_build_columns(
        a, threads, lambda ks: _lockstep(a, ks, cfg, a1, dropping)))
    return report.m, report
