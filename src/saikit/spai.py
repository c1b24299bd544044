"""Adaptive sparse approximate inverse by pattern growth, all columns in lockstep.

Column m_k of M minimizes ||A m_k - e_k|| over a pattern that starts at {k}
and grows by the ``mn`` most profitable candidates per loop until the
residual norm falls to ``delta`` or the loop cap is hit (Grote and Huckle,
1997). Every column still growing advances one loop together: one
structural product finds the candidates, one product A^T R of the
residuals R scores them, one lexsort picks them and one batched augment
re-solves. A column's result does not depend on its batch.
``_build_columns`` chunks the columns for both constructions and
assembles M in one step; each loop's history stays in flat arrays until a
report's ``columns`` is read.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter

import numpy as np
from scipy.sparse import csc_matrix as _scipy_csc

from .lstsq import WorkspaceGuardError, is_normal, ls_init
from .sparse_core import CscMatrix, SparseVector, key_parts, member, owners, pointers

# Columns per lockstep batch at most: a batch holds the subproblems of all
# its columns at once, so its memory grows with its size, and each batch
# pays a loop's fixed cost once.
_BATCH_COLUMNS = 2048


@dataclass
class SpaiConfig:
    """Parameters of the adaptive procedure.

    ``l_max=20`` matches the experimental setting used throughout the test
    suite; the classic reference implementation ships with 5.
    """

    delta: float = 0.4
    l_max: int = 20
    mn: int = 5
    record_choices: bool = False
    max_workspace_bytes: int | None = None

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.l_max < 0:
            raise ValueError("l_max must be >= 0")
        if self.mn < 1:
            raise ValueError("mn must be >= 1")
        if self.max_workspace_bytes is not None and self.max_workspace_bytes < 1:
            raise ValueError("max_workspace_bytes must be >= 1, or None for no limit")


@dataclass
class ColumnProfile:
    candidates_per_loop: list[int] = field(default_factory=list)
    residual_rows_per_loop: list[int] = field(default_factory=list)
    residual_norms: list[float] = field(default_factory=list)
    choices: list[list[tuple[int, float]]] = field(default_factory=list)
    chosen: list[list[int]] = field(default_factory=list)


@dataclass
class ColumnResult:
    m_k: SparseVector
    residual_norm: float
    loops_used: int
    converged: bool
    profile: ColumnProfile
    error: str | None = None


@dataclass
class _Report:
    """A build's flat records; ``columns`` builds the per-column results on first use.

    A record is a tuple of flat arrays, the column first, column after
    column, each column's entries in loop order. A failed column has no
    record, residual norm 1.0, 0 loops and an empty column of ``m``.
    """

    m: CscMatrix
    delta: float
    residuals: np.ndarray
    loops: np.ndarray
    errors: list[tuple[int, str]]
    guard_hits: int     # failures that are workspace guard trips

    def _by_column(self, record: tuple) -> list[list]:
        """Each column's values of the record's one field, or tuples of several, in order."""
        owner, *fields = record
        values = [f.tolist() for f in fields]
        entries = values[0] if len(values) == 1 else list(zip(*values))
        ptr = pointers(owner, len(self.residuals)).tolist()
        return [entries[lo:hi] for lo, hi in zip(ptr[:-1], ptr[1:])]

    def _results(self, result, **history: list) -> list:
        """A ``result`` per column, given each column's entry of every ``history`` list."""
        errors = dict(self.errors)
        return [result(m_k=SparseVector(self.m.n_rows, *self.m.col(k)), residual_norm=norm,
                       loops_used=loops, converged=norm <= self.delta, error=errors.get(k),
                       **{name: lists[k] for name, lists in history.items()})
                for k, (norm, loops) in enumerate(zip(self.residuals.tolist(),
                                                      self.loops.tolist()))]


@dataclass
class SpaiReport(_Report):
    norms: tuple        # (column, residual norm) at the start of each loop
    sizes: tuple        # (column, candidates, residual rows) of each growing loop
    scored: tuple       # (column, loop, candidate, rho, picked), with record_choices

    @property
    def n_c(self) -> int:
        return int(np.count_nonzero(self.residuals > self.delta))

    @property
    def max_candidates(self) -> int:
        return int(self.sizes[1].max(initial=0))

    @cached_property
    def columns(self) -> list[ColumnResult]:
        profiles = []
        for norms, sizes, scored in zip(*map(self._by_column,
                                             (self.norms, self.sizes, self.scored))):
            steps = [list(g) for _, g in groupby(scored, key=itemgetter(0))]
            profiles.append(ColumnProfile(
                candidates_per_loop=[c for c, _ in sizes],
                residual_rows_per_loop=[r for _, r in sizes],
                residual_norms=norms,
                choices=[[(j, rho) for _, j, rho, _ in step] for step in steps],
                chosen=[[j for _, j, _, picked in sorted(step, key=itemgetter(2, 1)) if picked]
                        for step in steps]))
        return self._results(ColumnResult, profile=profiles)


def _keys(c) -> tuple[np.ndarray, np.ndarray]:
    """Sorted ``t * n + j`` keys of the entries of a scipy n-by-n_t matrix, and their values."""
    c = c.tocsc()
    return owners(c.indptr) * c.shape[0] + c.indices, c.data


def spai_candidates(a: CscMatrix, r, s) -> np.ndarray:
    """Candidate keys ``t * n + j``: the columns j touching residual t's rows, minus its pattern.

    ``r`` holds the residuals as the columns of a scipy sparse matrix with
    no stored zeros; ``s`` holds the pattern keys. The keys come out
    sorted, target after target.
    """
    r = _scipy_csc(r)
    touched = _keys(a._scipy_pattern.T @ _scipy_csc((np.ones(r.nnz), r.indices, r.indptr),
                                                    shape=r.shape))[0]
    return touched[~member(np.sort(np.asarray(s, dtype=np.int64)), touched)]


def _col_sqnorms(a: CscMatrix) -> np.ndarray:
    """``||A e_j||^2`` of every column; a square that overflows reads inf."""
    with np.errstate(over="ignore"):
        return np.bincount(a.entry_cols(), weights=a.values ** 2, minlength=a.n_cols)


def _col_norms(a: CscMatrix, cols: np.ndarray) -> np.ndarray:
    """``||A e_j||`` of the nonempty columns ``cols`` by ``hypot``, which forms no square."""
    _, vals, pos = a.columns(cols)
    return np.hypot.reduceat(np.abs(vals), pointers(pos, len(cols))[:-1])


def spai_profitability(a: CscMatrix, r, cand, col_sqnorms: np.ndarray | None = None,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Post-update residual norms rho for the candidate keys ``cand`` (``t * n + j``).

    rho^2 = ||r_t||^2 - (r_t . A e_j)^2 / ||A e_j||^2, clamped at zero, with
    every dot taken from one sparse product A^T R (``r`` as for
    :func:`spai_candidates`). Each dot and ``||r_t||^2`` sum their terms in
    row order. Where ``||A e_j||^2`` is not a normal float (entries below
    about 1e-154 or above about 1e154), the gain is ``(dot / ||A e_j||)^2``
    with a norm that forms no square. Zero columns cannot improve anything.
    Returns the scored keys, their rho, and the keys of zero columns, each
    in ``cand`` order.
    """
    cand = np.asarray(cand, dtype=np.int64)
    n = a.n_cols
    if col_sqnorms is None:
        col_sqnorms = _col_sqnorms(a)
    # nonempty columns whose ||A e_j||^2 is not a normal float
    odd = ~is_normal(col_sqnorms) & (a.per_col_nnz > 0)
    norms = np.zeros(n)
    if odd.any():
        norms[odd] = _col_norms(a, np.flatnonzero(odd))
    r = _scipy_csc(r)
    owner, col = key_parts(cand, n)
    live = (odd | (col_sqnorms != 0.0))[col]
    scored, owner, col = cand[live], owner[live], col[live]
    keys, sums = _keys(a._scipy.T @ r)     # a dot that sums to exactly 0 is not stored
    keys, sums = np.append(keys, -1), np.append(sums, 0.0)   # -1: the key of none
    at = np.searchsorted(keys[:-1], scored)
    dots = np.where(keys[at] == scored, sums[at], 0.0)
    r2 = np.bincount(owners(r.indptr), weights=r.data * r.data, minlength=r.shape[1])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gain = dots * dots / col_sqnorms[col]      # wrong where the column is odd
    if odd.any():
        at = odd[col]
        gain[at] = (dots[at] / norms[col[at]]) ** 2
    rho = np.sqrt(np.maximum(r2[owner] - gain, 0.0))
    return scored, rho, cand[~live]


def _lockstep(a: CscMatrix, ks: np.ndarray, cfg: SpaiConfig, col_sqnorms: np.ndarray):
    """Grow the columns ``ks`` together, each loop one batch step for all.

    Column k starts at {k}, or with no column when column k of A is empty
    (no start can fit it). ``col_sqnorms`` is :func:`_col_sqnorms` of A.
    Returns what :func:`_build_columns` joins: the failures, final
    residual norms and loop counts by position in ``ks``, and the records
    of :class:`SpaiReport` with the final ``pattern``.
    """
    n, n_t = a.n_cols, len(ks)
    start = np.flatnonzero(a.per_col_nnz[ks])
    ws = ls_init(a, ks, ks[start], start, max_workspace_bytes=cfg.max_workspace_bytes)

    none, empty = np.empty(0, dtype=np.int64), np.empty(0)
    norms, sizes = [(none, empty)], [(none, none, none)]
    scored = [(none, none, none, empty, np.empty(0, dtype=bool))]
    loops_used = np.zeros(n_t, dtype=np.int64)
    live = np.ones(n_t, dtype=bool)
    for loop in range(cfg.l_max + 1):
        norms.append((np.flatnonzero(live), ws.residual_norms[live]))
        live &= ws.residual_norms > cfg.delta       # a failed column's NaN ends it too
        if loop == cfg.l_max or not live.any():
            break
        r_owner, r_rows, r_vals = ws.residuals()
        nz = live[r_owner] & (r_vals != 0.0)
        ptr = pointers(r_owner[nz], n_t)
        r = _scipy_csc((r_vals[nz], r_rows[nz], ptr), shape=(a.n_rows, n_t))
        s_owner, s_cols, _ = ws.pattern()
        cand = spai_candidates(a, r, s_owner * n + s_cols)
        sizes.append((np.flatnonzero(live), np.bincount(cand // n, minlength=n_t)[live],
                      np.diff(ptr)[live]))
        keys, rho, _ = spai_profitability(a, r, cand, col_sqnorms)
        p_owner, p_cols = key_parts(keys, n)
        n_live = np.bincount(p_owner, minlength=n_t)
        live &= n_live > 0          # no (live) candidate can touch the residual: stuck
        if not live.any():
            break
        order = np.lexsort((rho, p_owner))      # keys are sorted: ties keep column order
        start = np.cumsum(n_live) - n_live
        pick = order[np.arange(len(order)) - start[p_owner[order]] < cfg.mn]
        if cfg.record_choices:
            picked = np.zeros(len(keys), dtype=bool)
            picked[pick] = True
            scored.append((p_owner, np.full(len(keys), loop), p_cols, rho, picked))
        ws.augment(a, p_cols[pick], p_owner[pick])
        loops_used[live] += 1
    return ws.errors, ws.residual_norms, loops_used, {
        "pattern": [ws.pattern()], "norms": norms, "sizes": sizes, "scored": scored}


def _build_columns(a: CscMatrix, threads: int, lockstep) -> dict:
    """Report fields of every column, built in lockstep chunks.

    ``lockstep(ks)`` builds columns ``ks`` as one batch and returns its
    failures, final residual norms, loop counts and records (array tuples
    owned by positions in ``ks``, the final ``pattern`` among them).
    ``threads`` worker threads build ``max(threads, ceil(n /
    _BATCH_COLUMNS))`` contiguous chunks; M is assembled from the joined
    patterns in one step. Every other record is joined column after column,
    so it does not depend on the chunks.
    """
    if a.n_rows != a.n_cols and a.n_cols:
        raise ValueError("square matrix required")
    n = a.n_cols
    cols = np.arange(n, dtype=np.int64)
    n_chunks = max(threads, -(-n // _BATCH_COLUMNS))
    chunks = np.array_split(cols, max(1, min(n_chunks, n)))
    if threads <= 1:
        parts = [lockstep(ks) for ks in chunks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lockstep, chunks))
    starts = np.cumsum([0] + [len(ks) for ks in chunks]).tolist()
    failures = [(start + t, exc) for start, (errors, *_) in zip(starts, parts)
                for t, exc in sorted(errors.items())]
    failed = np.zeros(n, dtype=bool)
    failed[[j for j, _ in failures]] = True

    def join(name: str, batches: list) -> tuple:
        owner, *rest = (np.concatenate(f) for f in zip(*[
            (start + o, *more) for start, record in zip(starts, batches) for o, *more in record]))
        keep = np.flatnonzero(~failed[owner])
        if name != "pattern":       # from_coo orders the pattern by its own key
            keep = keep[np.argsort(owner[keep], kind="stable")]
        return (owner[keep], *(f[keep] for f in rest))

    records = {name: join(name, [rec[name] for *_, rec in parts]) for name in parts[0][3]}
    owner, rows, coeffs = records.pop("pattern")
    residuals = np.concatenate([norms for _, norms, _, _ in parts])
    loops = np.concatenate([loops for _, _, loops, _ in parts])
    residuals[failed], loops[failed] = 1.0, 0
    return dict(m=CscMatrix.from_coo(a.n_rows, n, rows, owner, coeffs), residuals=residuals,
                loops=loops, errors=[(j, f"{type(exc).__name__}: {exc}") for j, exc in failures],
                guard_hits=sum(isinstance(exc, WorkspaceGuardError) for _, exc in failures),
                **records)


def spai(a: CscMatrix, cfg: SpaiConfig | None = None,
         threads: int = 1) -> tuple[CscMatrix, SpaiReport]:
    """Approximate inverse of A, all columns in lockstep.

    A column that cannot be computed (zero column, workspace guard, a fit
    that overflows) yields its best effort, here the zero vector, and is
    counted as non-converged rather than aborting the whole matrix.
    ``threads`` worker threads build the column chunks, as for ``psai``
    (see :func:`_build_columns`).
    """
    cfg = cfg or SpaiConfig()
    sq = _col_sqnorms(a)
    report = SpaiReport(delta=cfg.delta,
                        **_build_columns(a, threads, lambda ks: _lockstep(a, ks, cfg, sq)))
    return report.m, report
