import os

import numpy as np
import pytest
from hypothesis import settings

from saikit import CscMatrix, column_stats, generate_test_matrix

# HYPOTHESIS_PROFILE=ci replays the same examples on every run
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def dense_split_factor(a: CscMatrix) -> float:
    """Threshold multiplier placing the irregularity cut just below n.

    With this factor only fully dense columns qualify, which is how the
    planted-column generators are meant to be split in tests.
    """
    stats = column_stats(a, 1.0)
    return (a.n_rows - 0.5) / stats.p


def of_one(cols) -> tuple[np.ndarray, np.ndarray]:
    """Columns and owners of target 0: ``ls_init(a, [k], *of_one(cols))`` is a
    batch of one, and ``ws.augment(a, *of_one(cols))`` grows it."""
    cols = np.asarray(cols, dtype=np.int64).ravel()
    return cols, np.zeros(len(cols), dtype=np.int64)


def dense_solution(ws, t: int = 0) -> np.ndarray:
    """Coefficients of target t of a least-squares workspace, as a dense vector."""
    owner, cols, coeffs = ws.pattern()
    out = np.zeros(ws.n_cols)
    out[cols[owner == t]] = coeffs[owner == t]
    return out


def tridiagonal(n: int, diag: float = 2.0, off: float = -1.0) -> CscMatrix:
    rows, cols, vals = [], [], []
    for j in range(n):
        rows.append(j); cols.append(j); vals.append(diag)
        if j > 0:
            rows.append(j - 1); cols.append(j); vals.append(off)
        if j + 1 < n:
            rows.append(j + 1); cols.append(j); vals.append(off)
    return CscMatrix.from_coo(n, n, rows, cols, vals)


def with_dense_column(a: CscMatrix, j: int, fill: float = 0.1,
                      keep_diag: float | None = None) -> CscMatrix:
    """Replace column j with a fully dense column of alternating-sign fill."""
    dense = a.to_dense()
    n = a.n_rows
    col = fill * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    if keep_diag is not None:
        col[j] = keep_diag
    dense[:, j] = col
    return CscMatrix.from_dense(dense)


def random_dominant(n: int, seed: int, planted: int = 0) -> CscMatrix:
    return generate_test_matrix("dominant-row", n, planted_dense_cols=planted,
                                seed=seed)


def uf_matrix_path(name: str):
    """Path to a locally supplied reference matrix, or None."""
    root = os.environ.get("SAIKIT_UF_DIR", os.path.join(os.path.dirname(__file__),
                                                        "..", "data", "uf"))
    path = os.path.join(root, f"{name}.mtx")
    return path if os.path.exists(path) else None


def require_uf(name: str) -> str:
    path = uf_matrix_path(name)
    if path is None:
        pytest.skip(f"reference matrix {name}.mtx not supplied locally")
    return path
