"""Test-only reference: the incremental Gram-Schmidt least-squares kernel.

This is the ``saikit.lstsq`` module as it stood before the Householder
rewrite, kept verbatim as an oracle for the property tests in
``test_lstsq_reference.py``. Only the imports differ: the exception classes
come from ``saikit.lstsq`` (so spai and psai catch the reference's errors
when it is swapped in), and the sparse types from ``saikit.sparse_core``.

Original docstring:

Dense QR least-squares kernel for small per-column subproblems.

Each workspace minimizes ``|| A(:, S) m - e_k ||`` over a growing column
pattern S. The active row set L holds every nonzero row of A(:, S) plus k
itself, so the subproblem residual norm equals the full-length residual
norm exactly. Column augmentation updates the thin QR factor in place
(Gram-Schmidt with one reorthogonalization pass); dropping columns
refactorizes from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from saikit.lstsq import DegeneratePatternError, WorkspaceGuardError
from saikit.sparse_core import CscMatrix, SparseVector

_DEPENDENT_TOL = 1e-12


@dataclass
class ColumnPattern:
    """Sorted column pattern S and its shadow row set L for one column."""

    cols: np.ndarray
    rows: np.ndarray


class LsWorkspace:
    """Incrementally factorized least-squares state for one target column k."""

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

        row_set = {int(k)}
        for j in cols:
            row_set.update(int(r) for r in a.col(j)[0])
        self._rows = np.array(sorted(row_set), dtype=np.int64)
        self._row_pos = {int(r): i for i, r in enumerate(self._rows)}
        m = len(self._rows)
        self._guard(m, len(cols))

        self._cols: list[int] = []
        self._ahat = np.zeros((m, 0))
        self._q = np.zeros((m, 0))
        self._r_diag: list[float] = []
        self._r_cols: list[np.ndarray] = []        # columns of R, ragged
        self._factor_slot: list[int | None] = []   # per pattern column
        self._ehat = np.zeros(m)
        self._ehat[self._row_pos[int(k)]] = 1.0

        for j in cols:
            self._push_column(a, int(j))
        if all(slot is None for slot in self._factor_slot) and self._all_zero_cols(a, cols):
            raise DegeneratePatternError("pattern selects an all-zero submatrix")
        self._solve()

    # -- internal helpers ---------------------------------------------

    def _guard(self, m: int, p: int) -> None:
        if self.max_workspace_bytes is None:
            return
        est = 2 * m * max(p, 1) * 8
        if est > self.max_workspace_bytes:
            raise WorkspaceGuardError(est, self.max_workspace_bytes)

    @staticmethod
    def _all_zero_cols(a: CscMatrix, cols) -> bool:
        return all(len(a.col(int(j))[0]) == 0 for j in cols)

    def _dense_col(self, a: CscMatrix, j: int) -> np.ndarray:
        rows, vals = a.col(j)
        out = np.zeros(len(self._rows))
        for r, v in zip(rows, vals):
            out[self._row_pos[int(r)]] = v
        return out

    def _push_column(self, a: CscMatrix, j: int) -> None:
        """Append pattern column j and extend the QR factor if independent."""
        col = self._dense_col(a, j)
        self._ahat = np.column_stack([self._ahat, col])
        self._cols.append(j)
        w = self._q.T @ col
        v = col - self._q @ w
        w2 = self._q.T @ v
        v -= self._q @ w2
        w += w2
        rho = float(np.linalg.norm(v))
        dmax = max(self._r_diag) if self._r_diag else 0.0
        dependent = rho <= _DEPENDENT_TOL * dmax if dmax > 0.0 else rho == 0.0
        if dependent:
            self._factor_slot.append(None)
            return
        self._q = np.column_stack([self._q, v / rho])
        self._r_cols.append(np.concatenate([w, [rho]]))
        self._r_diag.append(rho)
        self._factor_slot.append(len(self._r_diag) - 1)

    def _solve(self) -> None:
        r_active = len(self._r_diag)
        coeffs = np.zeros(len(self._cols))
        if r_active:
            rmat = np.zeros((r_active, r_active))
            for i, rc in enumerate(self._r_cols):
                rmat[: i + 1, i] = rc
            z = self._q.T @ self._ehat
            y = solve_triangular(rmat, z, lower=False)
            for i, slot in enumerate(self._factor_slot):
                if slot is not None:
                    coeffs[i] = y[slot]
        self._coeffs = coeffs
        self._resid_vec = self._ahat @ coeffs - self._ehat
        self.residual_norm = float(np.linalg.norm(self._resid_vec))

    # -- public state --------------------------------------------------

    @property
    def pattern(self) -> ColumnPattern:
        order = np.argsort(self._cols, kind="stable")
        return ColumnPattern(cols=np.asarray(self._cols, dtype=np.int64)[order],
                             rows=self._rows.copy())

    @property
    def cols(self) -> np.ndarray:
        return np.sort(np.asarray(self._cols, dtype=np.int64))

    @property
    def rows(self) -> np.ndarray:
        return np.sort(self._rows)

    def solution(self) -> SparseVector:
        """Current minimizer as a sparse vector over the column pattern."""
        return SparseVector(self.n_cols, np.asarray(self._cols, dtype=np.int64),
                            self._coeffs.copy())

    def residual(self) -> SparseVector:
        """Residual A(:, S) m - e_k as a sparse vector over the rows of L."""
        return SparseVector(self.n_rows, self._rows.copy(), self._resid_vec.copy())

    def scatter_residual(self, out: np.ndarray) -> None:
        """Write the residual into a dense scratch vector at the L positions."""
        out[self._rows] = self._resid_vec

    def nnz_solution(self) -> int:
        return int(np.count_nonzero(self._coeffs))

    # -- mutation ------------------------------------------------------

    def augment(self, a: CscMatrix, new_cols) -> None:
        """Extend the pattern in place; rows of the new columns join L."""
        new_cols = np.unique(np.asarray(new_cols, dtype=np.int64))
        if len(new_cols) == 0:
            return
        if new_cols[0] < 0 or new_cols[-1] >= a.n_cols:
            raise ValueError("column index out of range")
        existing = set(self._cols)
        if any(int(j) in existing for j in new_cols):
            raise ValueError("augment columns must be disjoint from the pattern")
        fresh_rows = set()
        for j in new_cols:
            for r in a.col(int(j))[0]:
                if int(r) not in self._row_pos:
                    fresh_rows.add(int(r))
        n_new_rows = len(fresh_rows)
        self._guard(len(self._rows) + n_new_rows, len(self._cols) + len(new_cols))
        if n_new_rows:
            added = np.array(sorted(fresh_rows), dtype=np.int64)
            base = len(self._rows)
            for i, r in enumerate(added):
                self._row_pos[int(r)] = base + i
            self._rows = np.concatenate([self._rows, added])
            pad = np.zeros((n_new_rows, self._ahat.shape[1]))
            # rows outside the old L carry no entries of the old columns
            self._ahat = np.vstack([self._ahat, pad])
            self._q = np.vstack([self._q, np.zeros((n_new_rows, self._q.shape[1]))])
            self._ehat = np.concatenate([self._ehat, np.zeros(n_new_rows)])
        for j in new_cols:
            self._push_column(a, int(j))
        self._solve()

    def drop_columns(self, a: CscMatrix, drop) -> "LsWorkspace":
        """Re-solve on S minus ``drop`` (refactorization, returns a new workspace)."""
        drop = set(int(j) for j in np.asarray(drop, dtype=np.int64))
        if not drop.issubset(set(self._cols)):
            raise ValueError("drop set must be a subset of the pattern")
        remaining = [j for j in self._cols if j not in drop]
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
