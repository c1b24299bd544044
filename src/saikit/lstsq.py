"""Dense least-squares kernel for the small per-column subproblems.

A workspace holds a batch of independent targets: target t minimizes
``|| A(:, S_t) m - e_{k_t} ||`` over its column pattern S_t. A single
target (``ls_init(a, k, cols)``) is the batch of one, fitted by the same
code as any batch; it differs only in raising its failure. The active row
set L_t holds every nonzero row of A(:, S_t) plus k_t itself, so the
subproblem residual norm equals the full-length residual norm exactly.
Every init, augment and drop gathers A(L, S) of the targets it changes in
one vectorised pass and re-solves them from scratch, in place.

A pattern is a pair of flat ``(owner, col)`` arrays, target after target;
within a target the columns keep their insertion order, and a drop
re-sorts them.

Exact zeros: only the connected block of row k in A(L, S) is solved. The
problem decouples into blocks and e_k vanishes off this one, so a pattern
column that shares no row with the block gets coefficient exactly 0.

Solve: the gather, the row sets, the blocks and the residuals of the
whole batch are vectorised. A block of one column ``a`` is solved in
closed form, ``a_k / ||a||^2`` (Grote and Huckle, 1997), for every such
target at once: two ``bincount``s over the block entries give ``a_k`` and
``||a||^2``. Where ``||a||^2`` is not a normal float (it under- or
overflows, which takes entries below about 1e-154 or above about 1e154),
that block goes to the loop below instead. A block of two or more
columns is solved by block class: its column count ``p`` and its row
count rounded up to a multiple of 8, the height to which it is padded
with zero rows. The right-hand side ``e_k`` is appended as column ``p``;
one unpivoted Householder QR (``np.linalg.qr``, ``mode="r"``) of a stack
of a class's blocks gives each ``R`` and, in its last column, ``Q^T e_k``,
and one stacked triangular solve gives the coefficients. A stack holds
64 KiB at most. Three kinds of block are solved one at a time instead,
by a loop over an unpivoted Householder QR called through LAPACK
(``dgeqrf``, ``dormqr``, ``dtrtrs``): a block with fewer rows than
columns, one that fills more than half a stack (it would be alone in it),
and one in which the stacked ``R`` shows a dependent column. Columns are
taken in insertion order throughout. The three solvers agree to within
rounding, not bit for bit. Each sum runs entry by entry in pattern order,
the choice of solver is made from the block alone, and the stacked QR
solves each block of a stack on its own, so a target's result does not
depend, bit for bit, on what else is in its batch.

Dependent columns: column i of the block is dependent when
``|R_ii| <= 1e-12 * max |R_jj|`` over the earlier accepted columns, or when
``|R_ii| == 0`` before any column is accepted. Householder spends a row on a
dependent column, so the diagonals after it cannot be trusted: only the
first dependent column is removed and the rest is refactorized, one column
at a time, which reproduces the greedy choice of incremental Gram-Schmidt.
Dependent columns get coefficient 0. With more columns than rows, the
first ``rows`` columns span the block. A one-column block is never
dependent: ``A`` stores no zeros and the column holds an entry of the
block, so ``||a|| > 0``; a zero ``||a||^2`` can only be an underflow,
which the loop solves. A stacked block with a dependent column goes to
the loop, which applies this rule.

Failures: a single target raises. In a batch, a target whose workspace
guard trips, whose pattern selects an all-zero submatrix, or whose fit
gives a coefficient that is not finite (a column so small that the
coefficient overflows float64, such as a lone entry of 1e-310) is removed
from the workspace and its exception is kept in ``errors``; the rest go on.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgeqrf, dormqr, dtrtrs

from .sparse_core import (CscMatrix, SparseVector, key_parts, member, pointers, ranges,
                          sorted_unique)

_DEPENDENT_TOL = 1e-12
_TINY = np.finfo(np.float64).tiny
_STACK_BYTES = 64 * 1024       # the input of one stacked QR, at most
# bound once, so a later patch of ``np.linalg`` does not reach this kernel
_qr, _solve = np.linalg.qr, np.linalg.solve


class DegeneratePatternError(ValueError):
    """The pattern admits no fit: it is empty, selects an all-zero subproblem
    matrix, or gives a coefficient that is not finite."""


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


def is_normal(x: np.ndarray) -> np.ndarray:
    """Where the sums of squares ``x`` are normal floats: neither under- nor overflowed."""
    return (x >= _TINY) & (x < np.inf)


def _dependent(diag: np.ndarray) -> np.ndarray:
    """Dependent columns by their ``|R_ii|``, along the last axis of ``diag``."""
    # a running max that includes column i flags the same columns as one
    # over the earlier columns only: a new max is flagged only when 0
    return diag <= _DEPENDENT_TOL * np.maximum.accumulate(diag, axis=-1)


def _householder_solve(sub: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients of ``sub`` and the positions they belong to.

    Columns flagged dependent are left out (coefficient 0), one at a time.
    """
    active = np.arange(sub.shape[1])
    qr, tau, _, _ = dgeqrf(sub)
    while True:
        dependent = _dependent(np.abs(qr.diagonal()))
        if not dependent.any():
            break
        active = np.delete(active, dependent.argmax())
        qr, tau, _, _ = dgeqrf(sub[:, active])
    # with more columns than rows the first len(dependent) span the block rows
    r = len(dependent)
    z = dormqr("L", "T", qr[:, :r], tau, rhs[:, None], 1)[0]
    y = dtrtrs(qr[:r, :r], z[:r])[0]
    return y[:, 0], active[:r]


def _one_column_fits(owner: np.ndarray, val: np.ndarray, at_k: np.ndarray,
                     n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form fits ``a_k / ||a||^2`` of one-column blocks, and where they hold.

    ``val`` holds the entries of each target's block column, target after
    target, and ``at_k`` marks the entry in row k. Both sums run in entry
    order. A fit holds where ``||a||^2`` is a normal float: an all-zero
    column, or one whose squares under- or overflow, is left to the QR.
    """
    with np.errstate(over="ignore"):
        den = np.bincount(owner, weights=val * val, minlength=n_t)
    num = np.bincount(owner, weights=val * at_k, minlength=n_t)
    ok = is_normal(den)
    return np.divide(num, den, out=np.zeros(n_t), where=ok), ok


def _stack_solve(stack: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients of a stack of blocks with ``p`` columns each.

    Each block carries its right-hand side as column ``p``. One QR of the
    stack gives ``R`` and, in its last column, ``Q^T b``; one stacked
    triangular solve gives the coefficients of the blocks in which no
    column is dependent. Returns those, block after block, and the mask of
    the blocks solved. A block's bits do not depend on the others.
    """
    r = _qr(stack, mode="r")
    diag = np.abs(np.diagonal(r[:, :p, :p], axis1=1, axis2=2))
    ok = ~_dependent(diag).any(axis=1)
    return _solve(r[ok, :p, :p], r[ok, :p, p:])[:, :, 0], ok


def _stacks(key: np.ndarray, size: np.ndarray) -> list[int]:
    """Bounds of the stacks of blocks sorted by class ``key`` (0: no stack).

    A stack holds blocks of one class, ``size`` floats each, and takes
    ``_STACK_BYTES`` at most. The first bound is where class 0 ends.
    """
    bounds = [int(np.searchsorted(key, 0, side="right"))]
    for end in [*(np.flatnonzero(np.diff(key)) + 1).tolist(), len(key)]:
        if end > bounds[-1]:                # a class of stacked blocks ends here
            cap = _STACK_BYTES // (8 * int(size[bounds[-1]]))
            bounds += range(bounds[-1], end, cap)[1:]
            bounds.append(end)
    return bounds


def _residual(at: np.ndarray, terms: np.ndarray, is_k: np.ndarray, l_owner: np.ndarray,
              n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """Residual A(L, S) m - e_k and each target's residual norm.

    ``terms`` holds each entry's value times its column's coefficient and
    ``at`` its row in L. Both sums run in entry order, one target's entries
    apart from the others'.
    """
    resid = np.bincount(at, weights=terms, minlength=len(is_k)) - is_k
    return resid, np.sqrt(np.bincount(l_owner, weights=resid * resid, minlength=n_t))


def _merge(touched: np.ndarray, old: tuple, new: tuple) -> list[np.ndarray]:
    """Flat state arrays, owner first: ``new`` in place of the touched owners of ``old``."""
    keep = ~touched[old[0]]
    both = [np.concatenate([x[keep], y]) for x, y in zip(old, new)]
    order = np.argsort(both[0], kind="stable")
    return [x[order] for x in both]


class LsWorkspace:
    """Least-squares state for a batch of targets over their column patterns.

    Construction solves every target on its initial pattern; ``ls_init``
    is another name for the class. ``LsWorkspace(a, k, cols)`` with an
    integer ``k`` is the batch of one, which raises on failure. With an
    array of targets ``k``, ``cols`` is the pair ``(owner, cols)`` of the
    initial patterns, where ``owner`` gives the position in ``k`` of each
    column's target. A failed target keeps its exception in ``errors``, no
    pattern or residual entries, and a NaN in ``residual_norms``, which the
    lockstep builds rely on to stop it.
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
        keys = self._pairs(None, cols) if self.single else self._pairs(*cols)
        owner, cols = key_parts(keys, self.n_cols)
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
        return key_parts(np.sort(self._owner * self.n_cols + self._cols), self.n_cols)[1]

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
        return SparseVector(self.n_cols, self._cols[at], self._coeffs[at])

    def residual(self, t: int = 0) -> SparseVector:
        """Residual A(:, S) m - e_k of target t as a sparse vector over its rows L."""
        at = self._span(self._row_owner, t)
        return SparseVector(self.n_rows, self._rows[at], self._resid_vec[at])

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
        new_owner, new_cols = key_parts(keys, self.n_cols)
        touched = np.zeros(len(self.targets), dtype=bool)
        touched[new_owner] = True
        old = touched[self._owner]
        old_owner, old_cols = self._owner[old], self._cols[old]
        if member(keys, old_owner * self.n_cols + old_cols).any():
            raise ValueError("augment columns must be disjoint from the pattern")
        owner = np.concatenate([old_owner, new_owner])
        order = np.argsort(owner, kind="stable")      # old columns first in each target
        self._refit(a, owner[order], np.concatenate([old_cols, new_cols])[order], touched)

    def drop_columns(self, a: CscMatrix, drop, owner=None) -> "LsWorkspace":
        """Re-solve in place on S minus ``drop``; returns the workspace.

        ``owner`` gives the target of each dropped column; a batch of one
        needs none. Only the targets named in ``drop`` are re-solved, on
        their remaining columns in ascending order.
        """
        keys = self._pairs(owner, drop)
        touched = np.zeros(len(self.targets), dtype=bool)
        touched[keys // self.n_cols] = True
        mine = touched[self._owner]
        remaining = np.sort(self._owner[mine] * self.n_cols + self._cols[mine])
        gone = member(keys, remaining)
        if np.count_nonzero(gone) != len(keys):
            raise ValueError("drop set must be a subset of the pattern")
        remaining = remaining[~gone]
        rem_owner, rem_cols = key_parts(remaining, self.n_cols)
        emptied = touched.copy()
        emptied[rem_owner] = False
        for t in np.flatnonzero(emptied):
            self._fail(t, DegeneratePatternError("cannot drop every pattern column"))
        self._refit(a, rem_owner, rem_cols, touched)
        return self

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
        return sorted_unique(owner * self.n_cols + cols)

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
        fitted = sorted_unique(owner)
        k_keys = fitted * n + self.targets[fitted]
        rows, vals, pos = a.columns(cols)
        e_owner = owner[pos]
        keys = e_owner * n + rows
        l_keys = sorted_unique(np.concatenate([keys, k_keys]))
        l_owner, l_rows = key_parts(l_keys, n)
        limit = self.max_workspace_bytes
        est = 16 * np.bincount(l_owner, minlength=n_t) * np.maximum(
            np.bincount(owner, minlength=n_t), 1)     # two m-by-p float64 arrays
        guard = np.zeros(n_t, dtype=bool) if limit is None else est > limit
        bad = np.ones(n_t, dtype=bool)
        bad[e_owner[vals != 0.0]] = False             # every value of the pattern is zero
        bad |= guard
        if bad[fitted].any():
            return self._fit_without(a, owner, cols, bad, lambda t: (
                WorkspaceGuardError(int(est[t]), limit) if guard[t] else
                DegeneratePatternError("pattern selects an all-zero submatrix")))

        at = np.searchsorted(l_keys, keys)
        is_k = np.zeros(len(l_keys), dtype=bool)
        is_k[np.searchsorted(l_keys, k_keys)] = True
        in_rows, in_cols = _row_block(at, pos, is_k.copy(), len(cols))
        coeffs = np.zeros(len(cols))
        if in_cols.any():
            self._solve_blocks(coeffs, in_rows, in_cols, is_k, l_owner, owner, e_owner,
                               at, pos, vals)
        bad[owner[~np.isfinite(coeffs)]] = True      # a coefficient overflowed
        if bad[fitted].any():
            return self._fit_without(a, owner, cols, bad, lambda t: DegeneratePatternError(
                "pattern gives a coefficient that is not finite"))
        resid, norms = _residual(at, vals * coeffs[pos], is_k, l_owner, n_t)
        return fitted, norms[fitted], (owner, cols, coeffs), (l_owner, l_rows, resid)

    def _fit_without(self, a: CscMatrix, owner: np.ndarray, cols: np.ndarray,
                     bad: np.ndarray, error):
        """Fail every target marked in ``bad`` with ``error(t)``, then fit the others."""
        for t in sorted_unique(owner[bad[owner]]).tolist():
            self._fail(t, error(t))
        keep = ~bad[owner]
        return self._fit(a, owner[keep], cols[keep])

    def _solve_blocks(self, coeffs, in_rows, in_cols, is_k, l_owner, owner, e_owner,
                      at, pos, vals) -> None:
        """Fill ``coeffs`` on the row-k blocks: one-column blocks in closed
        form, all at once; the others in stacks by block class; the blocks
        that neither solves one at a time."""
        n_t = len(self.targets)
        m = np.bincount(l_owner[in_rows], minlength=n_t)   # block shape per target
        p = np.bincount(owner[in_cols], minlength=n_t)
        col_start = np.cumsum(p) - p
        block_cols = np.flatnonzero(in_cols)
        ent = np.flatnonzero(in_cols[pos])        # block entries, target after target
        t_ent = e_owner[ent]
        fit, closed = _one_column_fits(t_ent, vals[ent], is_k[at[ent]], n_t)
        closed &= p == 1
        coeffs[block_cols[col_start[closed]]] = fit[closed]
        ts = np.flatnonzero((p > 0) & ~closed)    # the blocks left
        if len(ts) == 0:
            return
        # class 0: solved alone (short, or over half a stack); else p and the
        # rows rounded up to 8
        m_t, p_t = m[ts], p[ts]
        height = (m_t + 7) // 8 * 8
        stacked = (p_t > 1) & (m_t >= p_t) & (16 * height * (p_t + 1) <= _STACK_BYTES)
        key = np.where(stacked, p_t * (height.max() + 1) + height, 0)
        order = np.argsort(key, kind="stable")
        ts, m_t, p_t, height, key = ts[order], m_t[order], p_t[order], height[order], key[order]
        ptr = pointers(t_ent, n_t)
        lens = ptr[ts + 1] - ptr[ts]
        ent = ent[ranges(ptr[ts], lens)]         # their entries, block after block
        row_start = np.cumsum(m) - m
        row = (np.cumsum(in_rows) - 1 - row_start[l_owner])[at[ent]]
        col = (np.cumsum(in_cols) - 1 - col_start[owner])[pos[ent]]
        val = vals[ent]
        rhs = is_k[in_rows].astype(np.float64)
        # row k of each block: rhs holds one 1 per target with a block, in target order
        k_row = np.flatnonzero(rhs)[np.searchsorted(np.flatnonzero(m), ts)] - row_start[ts]
        e_ptr = np.concatenate(([0], np.cumsum(lens))).tolist()
        bounds = _stacks(key, height * (p_t + 1))
        alone = list(range(bounds[0]))
        solved, y = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            stack = np.zeros((hi - lo, height[lo], p_t[lo] + 1))
            slot = np.arange(hi - lo)
            stack[slot.repeat(lens[lo:hi]), row[e_ptr[lo]:e_ptr[hi]],
                  col[e_ptr[lo]:e_ptr[hi]]] = val[e_ptr[lo]:e_ptr[hi]]
            stack[slot, k_row[lo:hi], p_t[lo]] = 1.0
            y_s, ok = _stack_solve(stack, int(p_t[lo]))
            solved.append(ts[lo:hi][ok])
            y.append(y_s.ravel())
            alone.extend(np.flatnonzero(~ok) + lo)
        if solved:
            done = np.concatenate(solved)
            coeffs[block_cols[ranges(col_start[done], p[done])]] = np.concatenate(y)
        for i in alone:
            t, mt, lo, hi = ts[i], m_t[i], e_ptr[i], e_ptr[i + 1]
            sub = np.zeros((mt, p_t[i]))
            sub[row[lo:hi], col[lo:hi]] = val[lo:hi]
            y_t, active = _householder_solve(sub, rhs[row_start[t]:row_start[t] + mt])
            coeffs[block_cols[col_start[t] + active]] = y_t


ls_init = LsWorkspace
