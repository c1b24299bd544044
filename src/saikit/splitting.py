"""Regular/irregular splitting A = A_tilde + U V^T and matrix classifiers.

Columns whose entry count reaches ``factor * p`` (p the floor-average
column fill, clamped to 1) are irregular. Each irregular column of
A_tilde keeps its diagonal plus ``p_kept - 1`` further entries, chosen
either nearest to the diagonal or largest in magnitude; everything
dropped lands in the corresponding column of U. V is implicit: it selects
the irregular column positions, so U V^T scatters U's columns back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from .sparse_core import CscMatrix, abs_sums, column_stats

_M_MATRIX_DENSE_CUTOFF = 400
STRATEGIES = ("nearest", "largest")    # which entries an irregular column keeps


class ZeroDiagonalError(ValueError):
    """An irregular column lacks a structural diagonal entry.

    Apply :func:`saikit.sparse_core.zero_free_diagonal_permutation` first.
    """


@dataclass
class SplitSystem:
    a_tilde: CscMatrix
    u: CscMatrix
    irregular_cols: np.ndarray
    strategy: str
    p_kept: int

    @property
    def s(self) -> int:
        return len(self.irregular_cols)


@dataclass
class MatrixClassReport:
    strict_row_dd: bool
    strict_col_dd: bool
    irreducible: bool
    m_matrix: bool
    m_matrix_certified: bool
    beta: np.ndarray


def _keep_indices(rows: np.ndarray, vals: np.ndarray, j: int,
                  p_kept: int, strategy: str) -> np.ndarray:
    """Positions (into rows) retained in the sparsified column j."""
    diag_pos = int(np.searchsorted(rows, j))
    if diag_pos >= len(rows) or rows[diag_pos] != j:
        raise ZeroDiagonalError(
            f"irregular column {j} has no structural diagonal; "
            "apply zero_free_diagonal_permutation before splitting")
    if strategy == "nearest":
        # distance ties resolved toward the smaller row index
        order = np.lexsort((rows, np.abs(rows - j)))
    else:                   # "largest"
        others = np.delete(np.arange(len(rows)), diag_pos)
        ranked = others[np.lexsort((rows[others], -np.abs(vals[others])))]
        order = np.concatenate([[diag_pos], ranked])
    return np.sort(order[:p_kept])


def split(a: CscMatrix, factor: float = 10.0, strategy: str = "nearest",
          p_kept: int | None = None) -> SplitSystem:
    """Split off the irregular columns of a square matrix.

    Irregular columns with at most ``p_kept`` entries are left untouched
    and not reported. ``s == 0`` returns A itself with an n-by-0 U.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    stats = column_stats(a, factor)
    if p_kept is None:
        p_kept = stats.p
    if p_kept < 1:
        raise ValueError("p_kept must be at least 1")
    irregular = stats.irregular_cols[stats.per_col_nnz[stats.irregular_cols] > p_kept]
    if not len(irregular):
        return SplitSystem(a_tilde=a, u=CscMatrix.empty(a.n_rows, 0),
                           irregular_cols=np.empty(0, dtype=np.int64),
                           strategy=strategy, p_kept=p_kept)

    # entries that move to U: all of each irregular column but the kept ones
    moved = np.zeros(a.nnz, dtype=bool)
    for j in irregular:
        lo, hi = a.col_ptr[j], a.col_ptr[j + 1]
        rows, vals = a.col(j)
        moved[lo:hi] = True
        moved[lo + _keep_indices(rows, vals, j, p_kept, strategy)] = False
    cols = a.entry_cols()
    kept = ~moved
    a_tilde = CscMatrix.from_coo(a.n_rows, a.n_cols, a.row_idx[kept], cols[kept],
                                 a.values[kept])
    u = CscMatrix.from_coo(a.n_rows, len(irregular), a.row_idx[moved],
                           np.searchsorted(irregular, cols[moved]), a.values[moved])
    return SplitSystem(a_tilde=a_tilde, u=u, irregular_cols=irregular,
                       strategy=strategy, p_kept=p_kept)


# -- classifiers -----------------------------------------------------------


def _margins(a: CscMatrix, axis: int) -> np.ndarray:
    """beta_i = |a_ii| - sum_{j != i} |a_ij| for every row (axis 1) or column (axis 0)."""
    absdiag = np.abs(a.diagonal())
    return absdiag - (abs_sums(a, axis) - absdiag)


def _strongly_connected(a: CscMatrix) -> bool:
    """Strong connectivity of the pattern digraph (edge j -> i per entry).

    Reversing every edge keeps strong connectivity, so the CSC orientation
    of the scipy view does not matter.
    """
    if a.n_rows <= 1:
        return True
    return connected_components(a._scipy, directed=True, connection="strong")[0] == 1


def classify(a: CscMatrix) -> MatrixClassReport:
    """Dominance, irreducibility and M-matrix flags for a square matrix.

    The M-matrix flag combines the sign-pattern test with an
    inverse-nonnegativity certificate computed densely; above
    ``_M_MATRIX_DENSE_CUTOFF`` rows only the sign pattern is checked and
    ``m_matrix_certified`` is False.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    beta = _margins(a, 1)
    gamma = _margins(a, 0)
    diag = a.diagonal()
    off_mask = a.row_idx != a.entry_cols()
    sign_ok = bool(np.all(diag > 0.0) and np.all(a.values[off_mask] <= 0.0))
    certified = False
    m_matrix = sign_ok
    if sign_ok and a.n_rows <= _M_MATRIX_DENSE_CUTOFF:
        certified = True
        try:
            inv = np.linalg.inv(a.to_dense())
            m_matrix = bool(np.all(inv >= -1e-12))
        except np.linalg.LinAlgError:
            m_matrix = False
    return MatrixClassReport(strict_row_dd=bool(np.all(beta > 0.0)),
                             strict_col_dd=bool(np.all(gamma > 0.0)),
                             irreducible=_strongly_connected(a),
                             m_matrix=m_matrix,
                             m_matrix_certified=certified,
                             beta=beta)


def dominance_margins(a: CscMatrix, a_tilde: CscMatrix,
                      ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Row dominance margins of both matrices and the 1/min-margin bounds.

    The bounds dominate the infinity norms of the inverses. Requires both
    inputs strictly row diagonally dominant; margins of the sparsified
    matrix can never fall below those of the original.
    """
    beta = _margins(a, 1)
    beta_tilde = _margins(a_tilde, 1)
    if beta.min() <= 0.0 or beta_tilde.min() <= 0.0:
        raise ValueError("both matrices must be strictly row diagonally dominant")
    if np.any(beta_tilde < beta - 1e-12 * np.maximum(1.0, np.abs(beta))):
        raise ValueError("sparsified margins fell below the originals; "
                         "the second matrix is not a sparsification of the first")
    return beta, beta_tilde, 1.0 / float(beta.min()), 1.0 / float(beta_tilde.min())


def condition_estimates(a: CscMatrix, max_n: int = 500) -> dict:
    """Dense 1-norm condition estimate ``kappa_1`` (None if singular), up to ``max_n`` only."""
    if a.n_rows != a.n_cols or a.n_rows > max_n:
        return {}
    dense = a.to_dense()
    try:
        inv = np.linalg.inv(dense)
    except np.linalg.LinAlgError:
        return {"kappa_1": None}
    return {"kappa_1": float(np.abs(dense).sum(axis=0).max() * np.abs(inv).sum(axis=0).max())}


# -- generators ------------------------------------------------------------

_KINDS = ("dominant-row", "dominant-col", "m-matrix", "irreducible-dd")


def generate_test_matrix(kind: str, n: int, density: float | None = None,
                         planted_dense_cols: int = 0, seed: int = 0) -> CscMatrix:
    """Random member of a matrix class, optionally with planted dense columns.

    ``density`` is the off-diagonal fill fraction per column (default about
    three entries). Planted columns are fully dense with entries scaled by
    1/n; diagonals are set last from the realized row or column sums, so
    the class membership holds by construction.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {_KINDS}")
    if n < 2:
        raise ValueError("n must be at least 2")
    if planted_dense_cols < 0 or planted_dense_cols > n:
        raise ValueError("planted_dense_cols out of range")
    if density is None:
        density = min(1.0, 3.0 / (n - 1))
    if density < 0 or density > 1:
        raise ValueError("density must lie in [0, 1]")
    k_off = int(round(density * (n - 1)))
    if kind == "irreducible-dd" and k_off < 1:
        raise ValueError("density too low for irreducibility")

    rng = np.random.default_rng(seed)
    rows_l, cols_l, vals_l = [], [], []
    dense_cols = set(int(j) for j in
                     rng.choice(n, size=planted_dense_cols, replace=False)) \
        if planted_dense_cols else set()

    def magnitudes(count: int) -> np.ndarray:
        return rng.uniform(0.1, 1.0, size=count)

    def signed(count: int) -> np.ndarray:
        mags = magnitudes(count)
        if kind == "m-matrix":
            return -mags
        return mags * rng.choice((-1.0, 1.0), size=count)

    for j in range(n):
        if j in dense_cols:
            r = np.concatenate([np.arange(j), np.arange(j + 1, n)])
            v = signed(n - 1) / n
        else:
            r = rng.choice(n - 1, size=min(k_off, n - 1), replace=False)
            r = r + (r >= j)        # skip the diagonal
            v = signed(len(r))
        if kind == "irreducible-dd":
            cyc = (j + 1) % n
            if cyc not in set(int(x) for x in r):
                r = np.concatenate([r, [cyc]])
                v = np.concatenate([v, signed(1)])
        rows_l.append(r)
        cols_l.append(np.full(len(r), j, dtype=np.int64))
        vals_l.append(v)

    rows = np.concatenate(rows_l)
    cols = np.concatenate(cols_l)
    vals = np.concatenate(vals_l)

    abs_rowsums = np.bincount(rows, weights=np.abs(vals), minlength=n)
    abs_colsums = np.bincount(cols, weights=np.abs(vals), minlength=n)
    margins = rng.uniform(0.5, 1.5, size=n)
    if kind in ("dominant-row", "m-matrix"):
        diag = abs_rowsums + margins
    elif kind == "dominant-col":
        diag = abs_colsums + margins
    else:  # irreducible-dd: weak row dominance, strict in one row
        diag = abs_rowsums.copy()
        diag[diag == 0.0] = 1.0
        diag[int(rng.integers(n))] += margins[0]

    rows = np.concatenate([rows, np.arange(n)])
    cols = np.concatenate([cols, np.arange(n)])
    vals = np.concatenate([vals, diag])
    return CscMatrix.from_coo(n, n, rows, cols, vals)
