"""Per-candidate and per-column loop kernels that vectorised ones replaced.

They are kept as they were, less the argument checks and with the matrix
passed in, as test oracles for ``spai.spai_profitability``,
``sparse_core.matvec`` / ``matvec_t`` and ``CscMatrix.diagonal`` /
``has_full_structural_diagonal``.
"""

from __future__ import annotations

import math

import numpy as np

from saikit.sparse_core import CscMatrix


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


def matvec_t(a: CscMatrix, x) -> np.ndarray:
    """y = A^T x, accumulated with ``bincount`` in storage order."""
    x = np.asarray(x, dtype=np.float64)
    if a.nnz == 0:
        return np.zeros(a.n_cols)
    contrib = a.values * x[a.row_idx]
    return np.bincount(a.entry_cols(), weights=contrib, minlength=a.n_cols)


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
