"""Dense least-squares kernel for the small per-column subproblems.

Each workspace minimizes ``|| A(:, S) m - e_k ||`` over a column pattern S.
The active row set L holds every nonzero row of A(:, S) plus k itself, so
the subproblem residual norm equals the full-length residual norm exactly.
Every init, augment and drop gathers A(L, S) in one vectorised pass and
re-solves from scratch with an unpivoted Householder QR (LAPACK ``dgeqrf``,
``dormqr``, ``dtrtrs``), columns taken in insertion order.

Exact zeros: only the connected block of row k in A(L, S) is solved. The
problem decouples into blocks and e_k vanishes off this one, so a pattern
column that shares no row with the block gets coefficient exactly 0.

Dependent columns: column i of the block is dependent when
``|R_ii| <= 1e-12 * max |R_jj|`` over the earlier accepted columns, or when
``|R_ii| == 0`` before any column is accepted. Householder spends a row on a
dependent column, so the diagonals after it cannot be trusted: only the
first dependent column is removed and the rest is refactorized, one column
at a time, which reproduces the greedy choice of incremental Gram-Schmidt.
Dependent columns get coefficient 0.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgeqrf, dormqr, dtrtrs

from .sparse_core import CscMatrix, SparseVector

_DEPENDENT_TOL = 1e-12


class DegeneratePatternError(ValueError):
    """The requested pattern yields an all-zero subproblem matrix."""


class WorkspaceGuardError(MemoryError):
    """Estimated dense workspace would exceed the configured limit."""

    def __init__(self, estimated_bytes: int, limit_bytes: int):
        super().__init__(f"workspace estimate {estimated_bytes} B exceeds "
                         f"guard of {limit_bytes} B")
        self.estimated_bytes = estimated_bytes
        self.limit_bytes = limit_bytes


def _row_block(rows: np.ndarray, cols: np.ndarray, in_rows: np.ndarray,
               p: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column masks of the connected block that holds ``in_rows``.

    ``rows`` and ``cols`` give the row and column position of every entry
    of the m-by-p subproblem matrix; ``in_rows`` is the seed row mask.
    """
    count = np.count_nonzero(in_rows)
    while True:
        in_cols = np.zeros(p, dtype=bool)
        in_cols[cols[in_rows[rows]]] = True
        in_rows[rows[in_cols[cols]]] = True
        grown = np.count_nonzero(in_rows)
        if grown == len(in_rows):      # every row: every nonzero column joins
            in_cols[cols] = True
            return in_rows, in_cols
        if grown == count:
            return in_rows, in_cols
        count = grown


def _householder_solve(sub: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients of ``sub`` and the positions they belong to.

    Columns flagged dependent are left out (coefficient 0), one at a time.
    """
    active = np.arange(sub.shape[1])
    qr, tau, _, _ = dgeqrf(sub)
    while True:
        diag = np.abs(qr.diagonal())
        # a running max that includes column i flags the same columns as one
        # over the earlier columns only: a new max is flagged only when 0
        dependent = diag <= _DEPENDENT_TOL * np.maximum.accumulate(diag)
        if not dependent.any():
            break
        active = np.delete(active, dependent.argmax())
        qr, tau, _, _ = dgeqrf(sub[:, active])
    # with more columns than rows the first len(diag) span the block rows
    r = len(diag)
    z = dormqr("L", "T", qr[:, :r], tau, rhs[:, None], 1)[0]
    y = dtrtrs(qr[:r, :r], z[:r])[0]
    return y[:, 0], active[:r]


class LsWorkspace:
    """Least-squares state for one target column k over the pattern S."""

    def __init__(self, a: CscMatrix, k: int, cols,
                 max_workspace_bytes: int | None = None):
        if not (0 <= k < a.n_rows):
            raise ValueError("target index k out of range")
        cols = np.unique(np.asarray(cols, dtype=np.int64))
        if len(cols) == 0:
            raise DegeneratePatternError("empty initial pattern")
        if cols[0] < 0 or cols[-1] >= a.n_cols:
            raise ValueError("column index out of range")
        self.n_rows = a.n_rows
        self.n_cols = a.n_cols
        self.k = k
        self.max_workspace_bytes = max_workspace_bytes
        self._fit(a, cols)
        if not self._ahat.any():
            raise DegeneratePatternError("pattern selects an all-zero submatrix")

    def _guard(self, m: int, p: int) -> None:
        if self.max_workspace_bytes is None:
            return
        est = 2 * m * max(p, 1) * 8
        if est > self.max_workspace_bytes:
            raise WorkspaceGuardError(est, self.max_workspace_bytes)

    def _fit(self, a: CscMatrix, cols: np.ndarray) -> None:
        """Gather A(L, cols), check the guard, then solve on the row-k block."""
        rows, vals, pos = a.columns(cols)
        srt = np.sort(np.append(rows, self.k))   # L: one sort, then dedupe
        l_rows = srt[np.concatenate(([True], srt[1:] != srt[:-1]))]
        self._guard(len(l_rows), len(cols))
        at = np.searchsorted(l_rows, rows)
        ahat = np.zeros((len(l_rows), len(cols)))
        ahat[at, pos] = vals
        ehat = (l_rows == self.k).astype(np.float64)

        coeffs = np.zeros(len(cols))
        in_rows, in_cols = _row_block(at, pos, ehat != 0.0, len(cols))
        if in_cols.any():
            y, owner = _householder_solve(ahat[in_rows][:, in_cols], ehat[in_rows])
            coeffs[np.flatnonzero(in_cols)[owner]] = y
        self._cols, self._rows, self._ahat = cols, l_rows, ahat
        self._coeffs = coeffs
        resid = self._resid_vec = ahat @ coeffs - ehat
        self.residual_norm = float(np.sqrt(resid.dot(resid)))   # as np.linalg.norm

    # -- public state --------------------------------------------------

    @property
    def cols(self) -> np.ndarray:
        return np.sort(self._cols)

    @property
    def rows(self) -> np.ndarray:
        return self._rows.copy()

    def solution(self) -> SparseVector:
        """Current minimizer as a sparse vector over the column pattern."""
        return SparseVector._from_unique(self.n_cols, self._cols, self._coeffs)

    def residual(self) -> SparseVector:
        """Residual A(:, S) m - e_k as a sparse vector over the rows of L."""
        return SparseVector._from_unique(self.n_rows, self._rows, self._resid_vec)

    def scatter_residual(self, out: np.ndarray) -> None:
        """Write the residual into a dense scratch vector at the L positions."""
        out[self._rows] = self._resid_vec

    # -- mutation ------------------------------------------------------

    def augment(self, a: CscMatrix, new_cols) -> None:
        """Extend the pattern in place; rows of the new columns join L."""
        new_cols = np.unique(np.asarray(new_cols, dtype=np.int64))
        if len(new_cols) == 0:
            return
        if new_cols[0] < 0 or new_cols[-1] >= a.n_cols:
            raise ValueError("column index out of range")
        if not set(new_cols.tolist()).isdisjoint(self._cols.tolist()):
            raise ValueError("augment columns must be disjoint from the pattern")
        self._fit(a, np.concatenate([self._cols, new_cols]))

    def drop_columns(self, a: CscMatrix, drop) -> "LsWorkspace":
        """Re-solve on S minus ``drop`` (returns a new workspace)."""
        drop = set(np.asarray(drop, dtype=np.int64).tolist())
        cols = self._cols.tolist()
        if not drop.issubset(cols):
            raise ValueError("drop set must be a subset of the pattern")
        remaining = [j for j in cols if j not in drop]
        if not remaining:
            raise DegeneratePatternError("cannot drop every pattern column")
        return LsWorkspace(a, self.k, remaining,
                           max_workspace_bytes=self.max_workspace_bytes)


def ls_init(a: CscMatrix, k: int, s0, max_workspace_bytes: int | None = None) -> LsWorkspace:
    """Factorize and solve the subproblem for target k on the initial pattern."""
    return LsWorkspace(a, k, s0, max_workspace_bytes=max_workspace_bytes)


def ls_augment(w: LsWorkspace, new_cols, a: CscMatrix) -> LsWorkspace:
    w.augment(a, new_cols)
    return w


def ls_drop_columns(w: LsWorkspace, drop, a: CscMatrix) -> LsWorkspace:
    return w.drop_columns(a, drop)
