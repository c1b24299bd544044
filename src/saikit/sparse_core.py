"""Compressed sparse column matrices, Matrix Market I/O, and basic kernels.

Matrices are stored in CSC form with 0-based indices in memory. Matrix
Market files use 1-based indices on disk, coordinate format, real field
(integer is read too).
All matrices are normalized on construction: duplicate entries summed,
explicitly stored zeros purged, row indices sorted within each column.
Instances are treated as immutable and are safe to share across workers.
Flat sparse data is ordered by one int64 key, ``outer * inner_dim + inner``
(``col * n_rows + row`` here; ``target * n + col`` or ``+ row`` in a build
batch); the helpers below own that layout.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Union

import numpy as np
from scipy.sparse import csc_matrix as _scipy_csc
from scipy.sparse import csr_matrix as _scipy_csr
from scipy.sparse._sparsetools import csc_matvec as _csc_matvec
from scipy.sparse._sparsetools import csc_matvecs as _csc_matvecs
from scipy.sparse.csgraph import min_weight_full_bipartite_matching as _min_weight_matching


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input (header, size line, or entries)."""


class UnsupportedFieldError(MatrixMarketError):
    """Matrix Market field or symmetry this reader does not handle."""


class StructurallySingularError(ValueError):
    """The matrix pattern admits no zero-free diagonal (no perfect matching)."""


PathOrStream = Union[str, os.PathLike, IO[str]]

# one Matrix Market coordinate entry line: 1-based row, column, value
_ENTRY_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _as_index_array(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _as_value_array(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def owners(ptr: np.ndarray) -> np.ndarray:
    """Owner of every entry of runs that start at ``ptr[:-1]``: i, ``ptr[i+1] - ptr[i]`` times."""
    return np.repeat(np.arange(len(ptr) - 1, dtype=np.int64), np.diff(ptr))


def pointers(owner: np.ndarray, n: int) -> np.ndarray:
    """Run starts, and the end, of ``n`` owners whose entries lie owner after owner."""
    return np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=n))))


def ranges(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The runs ``start[i] ... start[i] + length[i] - 1``, one after another."""
    ends = np.cumsum(length)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(start - ends + length, length)


def key_parts(keys: np.ndarray, inner_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``(outer, inner)`` of the keys ``outer * inner_dim + inner``."""
    outer = keys // inner_dim
    return outer, keys - outer * inner_dim


def run_starts(srt: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in sorted ``srt``."""
    return np.concatenate(([True], srt[1:] != srt[:-1]))[:len(srt)]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique``: one sort, then the first entry of each run."""
    srt = np.sort(values)
    return srt[run_starts(srt)]


def member(srt: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mask of the ``values`` found in sorted ``srt``."""
    if len(srt) == 0:
        return np.zeros(len(values), dtype=bool)
    return srt[np.minimum(np.searchsorted(srt, values), len(srt) - 1)] == values


@dataclass
class CscMatrix:
    """Real sparse matrix in compressed sparse column form.

    Invariants (checked on construction): ``col_ptr`` is monotone with
    ``col_ptr[0] == 0`` and ``col_ptr[-1] == nnz``; row indices strictly
    increase within each column and lie in ``[0, n_rows)``; values are
    finite and none is stored as an exact zero.
    """

    n_rows: int
    n_cols: int
    col_ptr: np.ndarray
    row_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.col_ptr = _as_index_array(self.col_ptr)
        self.row_idx = _as_index_array(self.row_idx)
        self.values = _as_value_array(self.values)
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if self.col_ptr.shape != (self.n_cols + 1,):
            raise ValueError("col_ptr must have length n_cols + 1")
        if self.col_ptr[0] != 0 or self.col_ptr[-1] != len(self.row_idx):
            raise ValueError("col_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.col_ptr) < 0):
            raise ValueError("col_ptr must be non-decreasing")
        if len(self.row_idx) != len(self.values):
            raise ValueError("row_idx and values length mismatch")
        if len(self.row_idx):
            if self.row_idx.min() < 0 or self.row_idx.max() >= self.n_rows:
                raise ValueError("row index out of range")
            # with rows in range, the keys also increase from column to column
            if np.any(np.diff(self.entry_cols() * self.n_rows + self.row_idx) <= 0):
                raise ValueError("row indices must strictly increase within a column")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("matrix values must be finite")
        if np.any(self.values == 0.0):
            raise ValueError("explicit zeros must be purged before construction")
        for arr in (self.col_ptr, self.row_idx, self.values):
            arr.flags.writeable = False

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coo(cls, n_rows: int, n_cols: int, rows, cols, vals) -> "CscMatrix":
        """Build from coordinate triplets; duplicates are summed, zeros purged."""
        rows = _as_index_array(rows)
        cols = _as_index_array(cols)
        vals = _as_value_array(vals)
        if not (len(rows) == len(cols) == len(vals)):
            raise ValueError("triplet arrays must have equal length")
        if len(rows):
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of range")
        keys = cols * n_rows + rows
        order = np.argsort(keys, kind="stable")     # duplicates keep their order
        keys, vals = keys[order], vals[order]
        starts = np.flatnonzero(run_starts(keys))
        if len(starts):
            keys, vals = keys[starts], np.add.reduceat(vals, starts)
        keep = vals != 0.0
        cols, rows = key_parts(keys[keep], n_rows)
        return cls(n_rows, n_cols, pointers(cols, n_cols), rows, vals[keep])

    @classmethod
    def from_dense(cls, arr) -> "CscMatrix":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        rows, cols = np.nonzero(arr)
        return cls.from_coo(arr.shape[0], arr.shape[1], rows, cols, arr[rows, cols])

    @classmethod
    def identity(cls, n: int) -> "CscMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    @classmethod
    def empty(cls, n_rows: int, n_cols: int) -> "CscMatrix":
        return cls(n_rows, n_cols, np.zeros(n_cols + 1, dtype=np.int64),
                   np.empty(0, dtype=np.int64), np.empty(0))

    # -- accessors ----------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.col_ptr[-1])

    @property
    def per_col_nnz(self) -> np.ndarray:
        return np.diff(self.col_ptr)

    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Row indices and values of column j (read-only views)."""
        lo, hi = self.col_ptr[j], self.col_ptr[j + 1]
        return self.row_idx[lo:hi], self.values[lo:hi]

    def columns(self, cols) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entries of A(:, cols), column by column in ``cols`` order.

        Returns their row indices, their values, and for each entry the
        position in ``cols`` of the column that owns it.
        """
        cols = _as_index_array(cols)
        starts = self.col_ptr[cols]
        counts = self.col_ptr[cols + 1] - starts
        pos = np.arange(len(cols), dtype=np.int64).repeat(counts)
        idx = ranges(starts, counts)
        return self.row_idx[idx], self.values[idx], pos

    def entry_cols(self) -> np.ndarray:
        """Column index of each stored entry, in storage order."""
        return owners(self.col_ptr)

    def diagonal(self) -> np.ndarray:
        """Dense diagonal, with 0.0 at positions lacking a stored entry."""
        on = self.row_idx == self.entry_cols()
        d = np.zeros(min(self.n_rows, self.n_cols))
        d[self.row_idx[on]] = self.values[on]
        return d

    def has_full_structural_diagonal(self) -> bool:
        # rows are unique within a column, so each column holds at most one
        on = np.count_nonzero(self.row_idx == self.entry_cols())
        return bool(on == min(self.n_rows, self.n_cols))

    @cached_property
    def _scipy(self) -> _scipy_csc:
        """scipy CSC copy, built on first use, for the SPAI candidate products and
        the connectivity test; :func:`matvec` needs none."""
        return _scipy_csc((self.values, self.row_idx, self.col_ptr),
                          shape=(self.n_rows, self.n_cols))

    @cached_property
    def _scipy_pattern(self) -> _scipy_csc:
        """The pattern as a scipy CSC matrix with ones as its data, so no product cancels."""
        return _scipy_csc((np.ones(self.nnz), self.row_idx, self.col_ptr),
                          shape=(self.n_rows, self.n_cols))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.row_idx, self.entry_cols()] = self.values
        return out

    def same_as(self, other: "CscMatrix") -> bool:
        """Exact pattern and value equality."""
        return (self.n_rows == other.n_rows and self.n_cols == other.n_cols
                and np.array_equal(self.col_ptr, other.col_ptr)
                and np.array_equal(self.row_idx, other.row_idx)
                and np.array_equal(self.values, other.values))


@dataclass
class SparseVector:
    """Sparse real vector with sorted indices and no stored zeros."""

    dim: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.indices = _as_index_array(self.indices)
        self.values = _as_value_array(self.values)
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values length mismatch")
        # the nonzero entries in index order, as frozen copies
        keep = self.values.nonzero()[0]
        keep = keep[self.indices[keep].argsort(kind="stable")]
        self.indices, self.values = self.indices[keep], self.values[keep]
        if not np.isfinite(self.values).all():
            raise ValueError("vector values must be finite")
        self.indices.flags.writeable = False
        self.values.flags.writeable = False
        if len(self.indices):
            if self.indices[0] < 0 or self.indices[-1] >= self.dim:
                raise ValueError("index out of range")
            if np.any(np.diff(self.indices) == 0):
                raise ValueError("duplicate indices in sparse vector")

    @classmethod
    def from_dense(cls, x) -> "SparseVector":
        x = np.asarray(x, dtype=np.float64)
        idx = np.flatnonzero(x)
        return cls(len(x), idx, x[idx])

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out

    @property
    def nnz(self) -> int:
        return len(self.indices)


@dataclass
class ColumnStats:
    """Per-column fill statistics and the irregular-column census.

    ``p`` is floor(nnz / n_cols) clamped to at least 1. A column is
    irregular when its entry count is at least ``factor * p``.
    """

    p: int
    per_col_nnz: np.ndarray
    p_d: int
    s: int
    factor: float
    irregular_cols: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


def column_stats(a: CscMatrix, factor: float = 10.0) -> ColumnStats:
    """Average/max column fill and the count of irregular columns."""
    if a.n_cols == 0 or a.nnz == 0:
        raise ValueError("column_stats requires a non-empty matrix")
    if not 0.0 < factor < np.inf:
        raise ValueError("factor must be finite and positive")
    per_col = a.per_col_nnz
    p = max(1, a.nnz // a.n_cols)
    threshold = factor * p
    irregular = np.flatnonzero(per_col >= threshold)
    return ColumnStats(p=p, per_col_nnz=per_col, p_d=int(per_col.max()),
                       s=len(irregular), factor=factor, irregular_cols=irregular)


def matvec(a: CscMatrix, x) -> np.ndarray:
    """y = A x with a fixed column-major accumulation order.

    ``x`` is a vector or an ``(n_cols, k)`` block; each column of a block
    gets the bits it would get alone. The product runs scipy's compiled
    CSC kernels on ``a``'s own arrays, as ``csc_matrix @ x`` does, with no
    scipy matrix built: a vector and a one-column block go through
    ``csc_matvec``, a wider block through ``csc_matvecs``, which reads it
    in C order, so an F-order block is copied first. Every call returns a
    new zeroed C-order array that the caller may keep and write.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] != a.n_cols:
        raise ValueError(f"dimension mismatch: matrix has {a.n_cols} columns, "
                         f"vector has shape {x.shape}")
    y = np.zeros((a.n_rows,) + x.shape[1:])
    if x.ndim == 1 or x.shape[1] == 1:
        _csc_matvec(a.n_rows, a.n_cols, a.col_ptr, a.row_idx, a.values, x.ravel(), y.ravel())
    else:
        _csc_matvecs(a.n_rows, a.n_cols, x.shape[1], a.col_ptr, a.row_idx, a.values,
                     x.ravel(), y.ravel())
    return y


def abs_sums(a: CscMatrix, axis: int) -> np.ndarray:
    """Sums of ``|a_ij|`` along ``axis``: one per column for 0, one per row for 1."""
    index, size = (a.entry_cols(), a.n_cols) if axis == 0 else (a.row_idx, a.n_rows)
    return np.bincount(index, weights=np.abs(a.values), minlength=size)


def norm1(a: CscMatrix) -> float:
    """Maximum absolute column sum (0 for an empty matrix)."""
    return float(abs_sums(a, 0).max(initial=0.0))


def norm_inf(a: CscMatrix) -> float:
    """Maximum absolute row sum (0 for an empty matrix)."""
    return float(abs_sums(a, 1).max(initial=0.0))


def zero_free_diagonal_permutation(a: CscMatrix, always: bool = False) -> np.ndarray:
    """Row permutation ``perm`` maximising the product of |diag| of A[perm, :].

    A maximum-product matching (MC64 style: Olschowka & Neumaier, 1996;
    Duff & Koster, 2001): column ``j`` is matched to a row ``i`` so that the
    sum of the weights ``log max_i |a_ij| - log |a_ij| + 1`` over the stored
    entries is least. The ``+ 1`` keeps every weight positive, so no edge
    reads as missing. Returns the identity, with no weights built, when the
    diagonal is already zero-free, unless ``always`` is set. Raises
    :class:`StructurallySingularError` when the pattern has no perfect
    matching between columns and rows.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    n = a.n_rows
    if n == 0 or (not always and a.has_full_structural_diagonal()):
        return np.arange(n, dtype=np.int64)
    cols = a.entry_cols()
    log_abs = np.log(np.abs(a.values))
    col_max = np.full(n, -np.inf)
    np.maximum.at(col_max, cols, log_abs)
    weights = col_max[cols] - log_abs + 1.0
    # the CSC arrays read as CSR are A^T: graph row j is column j of A
    graph = _scipy_csr((weights, a.row_idx, a.col_ptr), shape=(n, n))
    try:
        _, match = _min_weight_matching(graph)
    except ValueError as exc:
        raise StructurallySingularError(
            "no perfect matching: the matrix is structurally singular") from exc
    # match[j] is the row matched to column j
    return np.asarray(match, dtype=np.int64)


def permute_rows(a: CscMatrix, perm) -> CscMatrix:
    """Matrix whose row i is row perm[i] of ``a``."""
    perm = _as_index_array(perm)
    if perm.shape != (a.n_rows,):
        raise ValueError("permutation length mismatch")
    if len(perm) and (perm.min() < 0 or perm.max() >= len(perm)
                      or np.bincount(perm, minlength=len(perm)).min() != 1):
        raise ValueError("perm must hold every row index exactly once")
    inv = np.empty_like(perm)
    inv[perm] = np.arange(a.n_rows, dtype=np.int64)
    return CscMatrix.from_coo(a.n_rows, a.n_cols, inv[a.row_idx], a.entry_cols(), a.values)


# -- Matrix Market I/O ----------------------------------------------------


def _open_text(source: PathOrStream, mode: str):
    if hasattr(source, "read") or hasattr(source, "write"):
        return source, False
    return open(source, mode), True


def read_matrix_market(source: PathOrStream) -> CscMatrix:
    """Parse a coordinate-format, real or integer Matrix Market stream or file.

    Symmetric files must declare a square size and are expanded to general
    storage. Duplicate entries are summed. Complex and pattern fields are
    rejected. Every error in the entries, a non-finite value and a
    non-integral value in an integer field included, raises
    :class:`MatrixMarketError`. Entry lines are parsed by
    ``np.loadtxt``: it accepts a trailing ``%`` comment on an entry line,
    and rejects the Python-only number spellings (``1_000``, non-ASCII
    digits) and an index written as a float (``2.0``). While it parses,
    it changes the warning filters inside ``warnings.catch_warnings``,
    which acts on the whole process, not only on the calling thread.
    """
    stream, owned = _open_text(source, "r")
    try:
        header = stream.readline()
        if not header.startswith("%%MatrixMarket"):
            raise MatrixMarketError("missing %%MatrixMarket header")
        parts = header.strip().split()
        if len(parts) != 5:
            raise MatrixMarketError(f"malformed header: {header.strip()!r}")
        _, obj, fmt, fld, sym = (p.lower() for p in parts)
        if obj != "matrix":
            raise MatrixMarketError(f"unsupported object {obj!r}")
        if fmt != "coordinate":
            raise MatrixMarketError(f"unsupported format {fmt!r} (coordinate only)")
        if fld not in ("real", "integer"):
            raise UnsupportedFieldError(f"unsupported field {fld!r} (real or integer only)")
        if sym not in ("general", "symmetric"):
            raise UnsupportedFieldError(f"unsupported symmetry {sym!r}")

        size_line = None
        for line in stream:
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            size_line = stripped
            break
        if size_line is None:
            raise MatrixMarketError("missing size line")
        try:
            m_str, n_str, nnz_str = size_line.split()
            n_rows, n_cols, nnz = int(m_str), int(n_str), int(nnz_str)
        except ValueError as exc:
            raise MatrixMarketError(f"malformed size line: {size_line!r}") from exc
        if n_rows < 0 or n_cols < 0 or nnz < 0:
            raise MatrixMarketError("negative dimension in size line")
        if sym == "symmetric" and n_rows != n_cols:
            raise MatrixMarketError(f"symmetric matrix must be square, size line "
                                    f"declares {n_rows}x{n_cols}")

        try:
            with warnings.catch_warnings():
                # An empty body warns. NumPy releases that still parse an
                # integer field through a float ("2.0" -> 2) warn with a
                # DeprecationWarning; as an error it becomes a ValueError.
                warnings.filterwarnings("ignore", message="loadtxt: input contained no data",
                                        category=UserWarning)
                warnings.simplefilter("error", DeprecationWarning)
                entries = np.loadtxt(stream, dtype=_ENTRY_DTYPE, comments="%", ndmin=1)
        except ValueError as exc:
            raise MatrixMarketError(f"malformed entry line: {exc}") from exc
        if len(entries) != nnz:
            raise MatrixMarketError(f"declared {nnz} entries, found {len(entries)}")
        rows, cols, vals = entries["i"] - 1, entries["j"] - 1, entries["v"]
        outside = (rows < 0) | (rows >= n_rows) | (cols < 0) | (cols >= n_cols)
        if outside.any():
            k = int(outside.argmax())
            raise MatrixMarketError(f"entry ({rows[k] + 1}, {cols[k] + 1}) outside "
                                    f"declared {n_rows}x{n_cols} bounds")
        if not np.isfinite(vals).all():
            raise MatrixMarketError("entry values must be finite")
        if fld == "integer" and not np.array_equal(vals, np.trunc(vals)):
            raise MatrixMarketError("entry values of an integer field must be integral")

        if sym == "symmetric":
            off = rows != cols
            rows, cols, vals = (np.concatenate([rows, cols[off]]),
                                np.concatenate([cols, rows[off]]),
                                np.concatenate([vals, vals[off]]))
        return CscMatrix.from_coo(n_rows, n_cols, rows, cols, vals)
    finally:
        if owned:
            stream.close()


def write_matrix_market(a: CscMatrix, dest: PathOrStream) -> None:
    """Write coordinate-format real general output, 1-based, column-major."""
    stream, owned = _open_text(dest, "w")
    try:
        stream.write("%%MatrixMarket matrix coordinate real general\n")
        stream.write(f"{a.n_rows} {a.n_cols} {a.nnz}\n")
        cols = a.entry_cols()
        for i, j, v in zip(a.row_idx, cols, a.values):
            stream.write(f"{i + 1} {j + 1} {v:.17g}\n")
    finally:
        if owned:
            stream.close()
