"""Dense least-squares kernel for the small per-column subproblems.

A workspace holds a batch of independent targets: target t minimizes
``|| A(:, S_t) m - e_{k_t} ||`` over its column pattern S_t. A single
target (``ls_init(a, k, s0)``) is the batch of one, fitted by the same
code as any batch; it differs only in raising its failure. The active row
set L_t holds every nonzero row of A(:, S_t) plus k_t itself, so the
subproblem residual norm equals the full-length residual norm exactly.
Every init, augment and drop gathers A(L, S) of the targets it changes in
one vectorised pass and re-solves them from scratch.

A pattern is a pair of flat ``(owner, col)`` arrays, target after target;
within a target the columns keep their insertion order, and a drop
re-sorts them.

Exact zeros: only the connected block of row k in A(L, S) is solved. The
problem decouples into blocks and e_k vanishes off this one, so a pattern
column that shares no row with the block gets coefficient exactly 0.

Solve: the gather, the row sets, the blocks and the residuals of the
whole batch are vectorised; each block is then solved on its own with an
unpivoted Householder QR called through LAPACK (``dgeqrf``, ``dormqr``,
``dtrtrs``), columns taken in insertion order. The residual is summed
entry by entry in pattern order, so a target's result does not depend,
bit for bit, on what else is in its batch.

Dependent columns: column i of the block is dependent when
``|R_ii| <= 1e-12 * max |R_jj|`` over the earlier accepted columns, or when
``|R_ii| == 0`` before any column is accepted. Householder spends a row on a
dependent column, so the diagonals after it cannot be trusted: only the
first dependent column is removed and the rest is refactorized, one column
at a time, which reproduces the greedy choice of incremental Gram-Schmidt.
Dependent columns get coefficient 0. With more columns than rows, the
first ``rows`` columns span the block.

Failures: a single target raises. In a batch, a target whose workspace
guard trips or whose pattern selects an all-zero submatrix is removed from
the workspace and its exception is kept in ``errors``; the rest go on.
"""

from __future__ import annotations

import copy

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
    Disjoint subproblems stacked in one matrix get all their blocks at once.
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


def _residual(at: np.ndarray, terms: np.ndarray, is_k: np.ndarray, l_owner: np.ndarray,
              n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """Residual A(L, S) m - e_k and each target's residual norm.

    ``terms`` holds each entry's value times its column's coefficient and
    ``at`` its row in L. Both sums run in entry order, one target's entries
    apart from the others'.
    """
    resid = np.bincount(at, weights=terms, minlength=len(is_k)) - is_k
    return resid, np.sqrt(np.bincount(l_owner, weights=resid * resid, minlength=n_t))


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a non-empty array: one sort, then a mask of first elements."""
    srt = np.sort(values)
    return srt[np.concatenate(([True], srt[1:] != srt[:-1]))]


def _member(srt: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mask of the ``values`` found in non-empty sorted ``srt``."""
    return srt[np.minimum(np.searchsorted(srt, values), len(srt) - 1)] == values


def _merge(touched: np.ndarray, old: tuple, new: tuple) -> list[np.ndarray]:
    """Flat state arrays, owner first: ``new`` in place of the touched owners of ``old``."""
    keep = ~touched[old[0]]
    both = [np.concatenate([x[keep], y]) for x, y in zip(old, new)]
    order = np.argsort(both[0], kind="stable")
    return [x[order] for x in both]


class LsWorkspace:
    """Least-squares state for a batch of targets over their column patterns.

    ``LsWorkspace(a, k, cols)`` with an integer ``k`` is the batch of one,
    which raises on failure. With an array of targets ``k``, ``cols`` is
    the pair ``(owner, cols)`` of the initial patterns, where ``owner``
    gives the position in ``k`` of each column's target.
    """

    def __init__(self, a: CscMatrix, k, cols,
                 max_workspace_bytes: int | None = None):
        self.single = np.ndim(k) == 0
        self.n_rows = a.n_rows
        self.n_cols = a.n_cols
        self.max_workspace_bytes = max_workspace_bytes
        self.errors: dict[int, Exception] = {}
        self.targets = np.asarray(k, dtype=np.int64).ravel()
        n_t = len(self.targets)
        if n_t and (self.targets.min() < 0 or self.targets.max() >= a.n_rows):
            raise ValueError("target index k out of range")
        self.residual_norms = np.full(n_t, np.nan)
        self._owner = self._cols = self._row_owner = self._rows = np.empty(0, dtype=np.int64)
        self._coeffs = self._resid_vec = np.empty(0)
        owner, cols = self._split(self._pairs(None, cols) if self.single else self._pairs(*cols))
        empty = np.ones(n_t, dtype=bool)
        empty[owner] = False
        for t in np.flatnonzero(empty):
            self._fail(t, DegeneratePatternError("empty initial pattern"))
        self._refit(a, owner, cols, ~empty)

    # -- public state --------------------------------------------------

    @property
    def k(self) -> int:
        """Target of a batch of one."""
        return int(self.targets[0])

    @property
    def residual_norm(self) -> float:
        """Residual norm of a batch of one."""
        return float(self.residual_norms[0])

    @property
    def cols(self) -> np.ndarray:
        """Pattern columns in ascending order, target after target."""
        return self._split(np.sort(self._owner * self.n_cols + self._cols))[1]

    @property
    def rows(self) -> np.ndarray:
        """Active rows L in ascending order, target after target."""
        return self._rows.copy()

    def pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat ``(owner, col, coefficient)`` arrays, in insertion order; do not write."""
        return self._owner, self._cols, self._coeffs

    def solution(self, t: int = 0) -> SparseVector:
        """Current minimizer of target t as a sparse vector over its pattern."""
        at = self._span(self._owner, t)
        return SparseVector._from_unique(self.n_cols, self._cols[at], self._coeffs[at])

    def solutions(self) -> list[SparseVector]:
        """:meth:`solution` of every target, in one pass; a failed target's is empty."""
        return SparseVector._split(self.n_cols, len(self.targets), self._owner,
                                   self._cols, self._coeffs)

    def residual(self, t: int = 0) -> SparseVector:
        """Residual A(:, S) m - e_k of target t as a sparse vector over its rows L."""
        at = self._span(self._row_owner, t)
        return SparseVector._from_unique(self.n_rows, self._rows[at], self._resid_vec[at])

    def residuals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat ``(owner, row, residual)`` arrays, rows ascending in each target; do not write."""
        return self._row_owner, self._rows, self._resid_vec

    # -- mutation ------------------------------------------------------

    def augment(self, a: CscMatrix, new_cols, owner=None) -> None:
        """Extend the patterns in place; rows of the new columns join L.

        ``owner`` gives the target of each new column; a batch of one needs
        none. Only the targets that get a column are re-solved.
        """
        keys = self._pairs(owner, new_cols)
        if len(keys) == 0:
            return
        new_owner, new_cols = self._split(keys)
        touched = np.zeros(len(self.targets), dtype=bool)
        touched[new_owner] = True
        old = touched[self._owner]
        old_owner, old_cols = self._owner[old], self._cols[old]
        if _member(keys, old_owner * self.n_cols + old_cols).any():
            raise ValueError("augment columns must be disjoint from the pattern")
        owner = np.concatenate([old_owner, new_owner])
        order = np.argsort(owner, kind="stable")      # old columns first in each target
        self._refit(a, owner[order], np.concatenate([old_cols, new_cols])[order], touched)

    def drop_columns(self, a: CscMatrix, drop, owner=None) -> "LsWorkspace":
        """Re-solve on S minus ``drop`` (returns a new workspace).

        ``owner`` gives the target of each dropped column; a batch of one
        needs none. Only the targets named in ``drop`` are re-solved, on
        their remaining columns in ascending order.
        """
        keys = self._pairs(owner, drop)
        touched = np.zeros(len(self.targets), dtype=bool)
        touched[keys // self.n_cols] = True
        mine = touched[self._owner]
        remaining = np.sort(self._owner[mine] * self.n_cols + self._cols[mine])
        if len(keys):
            gone = _member(keys, remaining)
            if np.count_nonzero(gone) != len(keys):
                raise ValueError("drop set must be a subset of the pattern")
            remaining = remaining[~gone]
        out = copy.copy(self)
        out.errors = dict(self.errors)
        out.residual_norms = self.residual_norms.copy()
        rem_owner, rem_cols = out._split(remaining)
        emptied = touched.copy()
        emptied[rem_owner] = False
        for t in np.flatnonzero(emptied):
            out._fail(t, DegeneratePatternError("cannot drop every pattern column"))
        out._refit(a, rem_owner, rem_cols, touched)
        return out

    # -- internals -----------------------------------------------------

    def _pairs(self, owner, cols) -> np.ndarray:
        """Sorted unique ``owner * n_cols + col`` keys of checked (owner, col) pairs."""
        cols = np.asarray(cols, dtype=np.int64).ravel()
        if len(cols) == 0:
            return cols
        owner = (np.zeros(len(cols), dtype=np.int64) if owner is None
                 else np.asarray(owner, dtype=np.int64).ravel())
        if len(owner) != len(cols):
            raise ValueError("owner and column arrays differ in length")
        if owner.min() < 0 or owner.max() >= len(self.targets):
            raise ValueError("owner index out of range")
        if cols.min() < 0 or cols.max() >= self.n_cols:
            raise ValueError("column index out of range")
        return _sorted_unique(owner * self.n_cols + cols)

    def _split(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        owner = keys // self.n_cols
        return owner, keys - owner * self.n_cols

    def _span(self, owner: np.ndarray, t: int):
        """Positions of target t in a flat state array."""
        lo, hi = np.searchsorted(owner, (t, t + 1))
        return slice(lo, hi)

    def _fail(self, t: int, exc: Exception) -> None:
        if self.single:
            raise exc
        self.errors[int(t)] = exc
        self.residual_norms[t] = np.nan

    def _refit(self, a: CscMatrix, owner: np.ndarray, cols: np.ndarray,
               touched: np.ndarray) -> None:
        """Solve the targets in ``owner`` on their whole patterns and store them.

        The state of every target marked in ``touched`` is replaced; one
        absent from ``owner`` (it failed) is left with none.
        """
        fitted, norms, pattern, rows = self._fit(a, owner, cols)
        self._owner, self._cols, self._coeffs = _merge(
            touched, (self._owner, self._cols, self._coeffs), pattern)
        self._row_owner, self._rows, self._resid_vec = _merge(
            touched, (self._row_owner, self._rows, self._resid_vec), rows)
        self.residual_norms[fitted] = norms

    def _guard(self, t: int, m: int, p: int) -> bool:
        """Whether target t trips the workspace guard (recorded as its failure)."""
        est = 2 * m * max(p, 1) * 8
        if self.max_workspace_bytes is None or est <= self.max_workspace_bytes:
            return False
        self._fail(t, WorkspaceGuardError(est, self.max_workspace_bytes))
        return True

    def _all_zero(self, t: int) -> bool:
        """Record target t's all-zero submatrix as its failure; always True."""
        self._fail(t, DegeneratePatternError("pattern selects an all-zero submatrix"))
        return True

    def _fit(self, a: CscMatrix, owner: np.ndarray, cols: np.ndarray):
        """Gather A(L, S), check the guard and for all-zero patterns, then solve.

        Returns the fitted targets, their residual norms, their patterns
        ``(owner, cols, coeffs)`` and their rows ``(owner, rows, residual)``;
        a target that fails is left out.
        """
        n, n_t = self.n_rows, len(self.targets)
        if len(owner) == 0:
            none = np.empty(0, dtype=np.int64)
            return none, np.empty(0), (none, none, np.empty(0)), (none, none, np.empty(0))
        fitted = _sorted_unique(owner)
        k_keys = fitted * n + self.targets[fitted]
        rows, vals, pos = a.columns(cols)
        e_owner = owner[pos]
        keys = e_owner * n + rows
        l_keys = _sorted_unique(np.concatenate([keys, k_keys]))
        l_owner = l_keys // n
        m = np.bincount(l_owner, minlength=n_t)
        p = np.bincount(owner, minlength=n_t)
        nonzero = np.zeros(n_t, dtype=bool)
        nonzero[e_owner[vals != 0.0]] = True
        bad = ~nonzero[fitted]
        if self.max_workspace_bytes is not None:
            bad |= 2 * m[fitted] * np.maximum(p[fitted], 1) * 8 > self.max_workspace_bytes
        if bad.any():
            for t in fitted[bad].tolist():
                if not self._guard(t, int(m[t]), int(p[t])):
                    self._all_zero(t)
            keep = np.ones(n_t, dtype=bool)
            keep[fitted[bad]] = False
            keep = keep[owner]
            return self._fit(a, owner[keep], cols[keep])

        at = np.searchsorted(l_keys, keys)
        is_k = np.zeros(len(l_keys), dtype=bool)
        is_k[np.searchsorted(l_keys, k_keys)] = True
        in_rows, in_cols = _row_block(at, pos, is_k.copy(), len(cols))
        coeffs = np.zeros(len(cols))
        if in_cols.any():
            self._solve_blocks(coeffs, in_rows, in_cols, is_k, l_owner, owner, e_owner,
                               at, pos, vals)
        resid, norms = _residual(at, vals * coeffs[pos], is_k, l_owner, n_t)
        return fitted, norms[fitted], (owner, cols, coeffs), (l_owner, l_keys - l_owner * n, resid)

    def _solve_blocks(self, coeffs, in_rows, in_cols, is_k, l_owner, owner, e_owner,
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
        ptr = np.searchsorted(e_owner[ent], np.arange(n_t + 1)).tolist()
        ms, ps, rs, cs = (x.tolist() for x in (m, p, row_start, col_start))
        for t in np.flatnonzero(p).tolist():
            mt, r0, c0, lo, hi = ms[t], rs[t], cs[t], ptr[t], ptr[t + 1]
            sub = np.zeros((mt, ps[t]))
            sub[row[lo:hi], col[lo:hi]] = val[lo:hi]
            y, active = _householder_solve(sub, rhs[r0:r0 + mt])
            coeffs[block_cols[c0 + active]] = y


def ls_init(a: CscMatrix, k, s0, max_workspace_bytes: int | None = None) -> LsWorkspace:
    """Factorize and solve the subproblem for target k on the initial pattern.

    With an array of targets ``k``, ``s0`` is the pair ``(owner, cols)`` of
    their initial patterns and the workspace holds the whole batch.
    """
    return LsWorkspace(a, k, s0, max_workspace_bytes=max_workspace_bytes)
