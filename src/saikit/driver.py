"""End-to-end solve of A x = b through the regular/irregular splitting.

Pipeline: optional row permutation to a zero-free, maximum-product
diagonal, split into A_tilde + U V^T, one sparse approximate inverse M of
A_tilde, one block right-preconditioned BiCGStab solve of the s + 1
systems with per-system tolerances that budget the overall relative
residual, and recovery of x through the low-rank update formula. The
report always carries the relative residual recomputed against the
original A and b, never the solver's own estimate.

The s-by-s update system I + V^T W is solved in :func:`assemble_solution`.
Only the posthoc estimate of c solves it on its own, and stops there when
it is singular.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .krylov import SolveOutcome, bicgstab
from .psai import PsaiConfig, psai
from .spai import SpaiConfig, spai
from .sparse_core import CscMatrix, matvec, permute_rows, zero_free_diagonal_permutation
from .splitting import STRATEGIES, split

SCHEMA_VERSION = 1
POSTHOC_ROUNDS = 8  # posthoc re-solve rounds before the solves are kept as they are


class AssemblyError(ValueError):
    """The s-by-s system I + V^T W_hat is numerically singular."""

    def __init__(self, msg: str, cond: float):
        super().__init__(msg)
        self.cond = cond


@dataclass
class DriverConfig:
    epsilon: float = 1e-8
    c_policy: str = "fixed"        # "fixed" uses c_fixed; "posthoc" re-tightens
    c_fixed: float = 1.0
    method: str = "psai"           # "spai" | "psai"
    max_iter: int = 500
    # "auto" | "always" | "never": the maximum-product row matching, run by
    # "auto" only when the diagonal has a zero and by "always" on every input
    preprocess: str = "auto"
    factor: float = 10.0
    strategy: str = "nearest"
    p_kept: int | None = None
    spai: SpaiConfig = field(default_factory=SpaiConfig)
    psai: PsaiConfig = field(default_factory=PsaiConfig)
    threads: int = 1

    def __post_init__(self):
        for name in ("epsilon", "c_fixed", "factor"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        for name, allowed in (("c_policy", ("fixed", "posthoc")), ("method", ("spai", "psai")),
                              ("preprocess", ("auto", "always", "never")),
                              ("strategy", STRATEGIES)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, not {getattr(self, name)!r}")
        if self.max_iter < 1 or self.threads < 1 or (self.p_kept is not None and self.p_kept < 1):
            raise ValueError("max_iter, threads and p_kept must be >= 1")


@dataclass
class SolveReport:
    x_hat: np.ndarray
    rr: float
    a: float
    iter_y: int
    iter_w: list[int]
    max_iter_used: int
    preconditioner_stats: dict
    small_system_condition: float
    converged: bool
    flag_y: str
    flags_w: list[str]
    resid_y: float
    resid_w: list[float]
    s: int
    method: str
    posthoc_c: float | None = None

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "x_hat"}
        out["schema_version"] = SCHEMA_VERSION
        out["x_hat"] = [float(v) for v in self.x_hat]
        return out


def assemble_solution(y_hat: np.ndarray, w_hat: np.ndarray,
                      irregular_cols) -> tuple[np.ndarray, float]:
    """x_hat = y_hat - W_hat (I + V^T W_hat)^{-1} (V^T y_hat).

    V^T picks the irregular-column rows, so no general product is formed.
    Returns the assembled solution and the condition estimate of the small
    system. A non-finite system raises :class:`AssemblyError` with
    ``cond = inf``; so does a singular one, with its condition estimate,
    when an LU pivot is at most 1e-14 times the largest.
    """
    y_hat = np.asarray(y_hat, dtype=np.float64)
    irregular_cols = np.asarray(irregular_cols, dtype=np.int64)
    s = len(irregular_cols)
    if s == 0:
        return y_hat.copy(), 1.0
    w_hat = np.asarray(w_hat, dtype=np.float64)
    c_mat = np.eye(s) + w_hat[irregular_cols, :]
    if not np.isfinite(c_mat).all():
        raise AssemblyError("assembly system I + V^T W_hat is not finite", np.inf)
    cond = float(np.linalg.cond(c_mat))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the pivot check below reports it
        lu, piv = lu_factor(c_mat)
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= 1e-14 * pivots.max():
        raise AssemblyError("assembly system I + V^T W_hat is singular", cond)
    return y_hat - w_hat @ lu_solve((lu, piv), y_hat[irregular_cols]), cond


def subsystem_tolerances(epsilon: float, s: int, c: float, norm_b: float,
                         norm_u: np.ndarray | list[float],
                         ) -> tuple[float, np.ndarray]:
    """Relative tolerances budgeting the assembled residual below epsilon.

    The main system gets epsilon / 2, or the whole epsilon when s == 0 and
    the correction budget is empty; each correction system j gets
    epsilon * ||b|| / (2 sqrt(s) c ||u_j||).
    """
    if not 0.0 < norm_b < np.inf:
        raise ValueError("norm_b must be finite and positive")
    if c <= 0.0:
        raise ValueError("c must be positive")
    if s < 0:
        raise ValueError("s must be non-negative")
    norm_u = np.asarray(norm_u, dtype=np.float64)
    if norm_u.shape != (s,) or not np.all((0.0 < norm_u) & (norm_u < np.inf)):
        raise ValueError("norm_u must hold s finite positive norms")
    tol_w = epsilon * norm_b / (2.0 * np.sqrt(s) * c * norm_u)
    return epsilon / (2.0 if s else 1.0), tol_w


def _preconditioner_stats(method: str, m: CscMatrix | None, a: CscMatrix,
                         rep=None, t_setup: float = 0.0) -> dict:
    """Report stats of M for ``a``, same keys on every path; the build counts are
    read from the build report ``rep``, and are 0 without one (a supplied M, a zero b)."""
    keys = ("n_c", "max_candidates") if method == "spai" else ("l_m", "n_failed")
    nnz_m = m.nnz if m is not None else 0
    stats = {"nnz_m": nnz_m, "spar": nnz_m / max(a.nnz, 1), "t_setup": t_setup}
    stats.update({k: getattr(rep, k, 0) for k in ("guard_hits", *keys)})
    return stats


def build_preconditioner(a: CscMatrix, cfg: DriverConfig) -> tuple[CscMatrix, dict]:
    """Build M for ``a`` with ``cfg.method``; returns M and its report stats."""
    t0 = time.perf_counter()
    m, rep = (spai if cfg.method == "spai" else psai)(a, getattr(cfg, cfg.method),
                                                      threads=cfg.threads)
    return m, _preconditioner_stats(cfg.method, m, a, rep, time.perf_counter() - t0)


def _solve_block(a: CscMatrix, m: CscMatrix, rhs: np.ndarray, tols: np.ndarray,
                 max_iter: int, x0: np.ndarray | None = None) -> list[SolveOutcome]:
    """One block BiCGStab over the columns of ``rhs``; one outcome per column."""
    return bicgstab(lambda x: matvec(a, x), rhs, x0, apply_precond=lambda x: matvec(m, x),
                    tol=tols, max_iter=max_iter).columns


def _apply_preprocess(a: CscMatrix, b: np.ndarray,
                      mode: str) -> tuple[CscMatrix, np.ndarray]:
    if mode == "never":
        return a, b
    perm = zero_free_diagonal_permutation(a, always=(mode == "always"))
    if np.array_equal(perm, np.arange(a.n_rows)):
        return a, b
    return permute_rows(a, perm), b[perm]


def _finish_report(a0: CscMatrix, b0: np.ndarray, x_hat: np.ndarray,
                   cfg: DriverConfig, outcomes: list[SolveOutcome], stats: dict,
                   cond: float, posthoc_c: float | None) -> SolveReport:
    """Report of the s + 1 solves, ``outcomes[0]`` the one for b; ``rr`` is 0 when b is."""
    norm_b = float(np.linalg.norm(b0))
    rr = float(np.linalg.norm(b0 - matvec(a0, x_hat))) / norm_b if norm_b else 0.0
    outcome_y, outcomes_w = outcomes[0], outcomes[1:]
    return SolveReport(x_hat=x_hat, rr=rr, a=rr / cfg.epsilon,
                       iter_y=outcome_y.iterations,
                       iter_w=[o.iterations for o in outcomes_w],
                       max_iter_used=max(o.iterations for o in outcomes),
                       preconditioner_stats=stats,
                       small_system_condition=cond,
                       converged=all(o.flag == "converged" for o in outcomes),
                       flag_y=outcome_y.flag,
                       flags_w=[o.flag for o in outcomes_w],
                       resid_y=outcome_y.rel_residual,
                       resid_w=[o.rel_residual for o in outcomes_w],
                       s=len(outcomes_w), method=cfg.method, posthoc_c=posthoc_c)


def _zero_rhs_report(a: CscMatrix, cfg: DriverConfig,
                     m: CscMatrix | None = None) -> SolveReport:
    """Report of b = 0: x = 0, one converged system with no iteration and no build."""
    zero = np.zeros(a.n_cols)
    return _finish_report(a, zero, zero, cfg, [SolveOutcome(zero, 0, 0.0, "converged")],
                          _preconditioner_stats(cfg.method, m, a), 1.0, None)


def _checked_rhs(a: CscMatrix, b: np.ndarray) -> np.ndarray:
    """``b`` as a float vector, checked against a square ``a``; a nonzero ``b``
    needs a 2-norm that is neither 0 nor inf, to judge residuals against."""
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (a.n_rows,):
        raise ValueError("right-hand side length mismatch")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side must be finite")
    with np.errstate(over="ignore"):
        norm_b = np.linalg.norm(b)
    if b.any() and not 0.0 < norm_b < np.inf:
        raise ValueError(f"right-hand side norm is {norm_b} in float64; rescale A and b")
    return b


def solve_standard(a: CscMatrix, b: np.ndarray, cfg: DriverConfig | None = None,
                   m: CscMatrix | None = None) -> SolveReport:
    """Precondition A directly and run a single solve at tolerance epsilon.

    This is the s = 0 case of the split solve: A_tilde is A (row-permuted
    when needed) and U is empty. ``m``, when given, is a preconditioner
    already built for ``a`` as stored, of its n-by-n shape (else
    ``ValueError``): the solve uses it as it is, with no permutation and no
    build, and reports a setup time of 0.
    """
    cfg = cfg or DriverConfig()
    b = _checked_rhs(a, b)
    if m is not None and (m.n_rows, m.n_cols) != (a.n_rows, a.n_cols):
        raise ValueError(f"preconditioner is {m.n_rows}x{m.n_cols}, "
                         f"matrix is {a.n_rows}x{a.n_cols}")
    if not b.any():
        return _zero_rhs_report(a, cfg, m)
    a_w, b_w = (a, b) if m is not None else _apply_preprocess(a, b, cfg.preprocess)
    return _solve_split(a, b, a_w, b_w, CscMatrix.empty(a.n_rows, 0),
                        np.empty(0, dtype=np.int64), cfg, m)


def solve_irregular(a: CscMatrix, b: np.ndarray,
                    cfg: DriverConfig | None = None) -> SolveReport:
    """Split, precondition the sparsified matrix once, solve s + 1 systems.

    With no irregular columns the pipeline degenerates to the standard
    single solve at tolerance epsilon. Non-convergence of a subsystem is
    reported, never raised; the solution is still assembled and the true
    relative residual recorded.
    """
    cfg = cfg or DriverConfig()
    b = _checked_rhs(a, b)
    if not b.any():
        return _zero_rhs_report(a, cfg)
    a_w, b_w = _apply_preprocess(a, b, cfg.preprocess)
    sys = split(a_w, factor=cfg.factor, strategy=cfg.strategy, p_kept=cfg.p_kept)
    return _solve_split(a, b, sys.a_tilde, b_w, sys.u, sys.irregular_cols, cfg)


def _solve_split(a0: CscMatrix, b0: np.ndarray, a_tilde: CscMatrix, b_w: np.ndarray,
                 u: CscMatrix, irregular_cols: np.ndarray, cfg: DriverConfig,
                 m: CscMatrix | None = None) -> SolveReport:
    """Solve A_tilde [y, w_1 .. w_s] = [b_w, U] with one M and assemble x.

    One 2-norm per column of the dense block [b_w, U] serves, before any
    build, both the input check, which names a bad column of A, and every
    target, all from :func:`subsystem_tolerances`. The s + 1 systems are one
    block BiCGStab call. Under the posthoc policy each round re-solves, in
    one more block call from their last iterates at half their targets, the
    systems whose residuals miss the targets that the current estimate of c
    sets.
    """
    s = len(irregular_cols)
    rhs = np.column_stack([b_w, u.to_dense()])
    with np.errstate(over="ignore"):
        norm_b, *norm_u = (np.linalg.norm(col) for col in rhs.T)
    for col, norm in zip(irregular_cols, norm_u):
        if not 0.0 < norm < np.inf:
            raise ValueError(f"split-off part of column {col} has norm {norm} in float64; "
                             "rescale A and b")
    c_now = cfg.c_fixed if cfg.c_policy == "fixed" else 1.0
    tol_y, tol_w = subsystem_tolerances(cfg.epsilon, s, c_now, norm_b, norm_u)
    targets = np.concatenate([[tol_y], tol_w])
    if m is None:
        m, stats = build_preconditioner(a_tilde, cfg)
    else:
        stats = _preconditioner_stats(cfg.method, m, a_tilde)
    outcomes = _solve_block(a_tilde, m, rhs, targets, cfg.max_iter)
    w_hat = lambda: np.column_stack([np.empty((len(b_w), 0))] + [o.x for o in outcomes[1:]])
    posthoc_c = None

    for _ in range(POSTHOC_ROUNDS if cfg.c_policy == "posthoc" and s else 0):
        c_mat = np.eye(s) + w_hat()[irregular_cols, :]
        try:
            z = np.linalg.solve(c_mat, outcomes[0].x[irregular_cols])
        except np.linalg.LinAlgError:
            break
        posthoc_c = float(np.linalg.norm(z))
        c_eff = max(posthoc_c, np.finfo(float).tiny)
        targets[1:] = subsystem_tolerances(cfg.epsilon, s, c_eff, norm_b, norm_u)[1]
        stale = [i for i, o in enumerate(outcomes) if o.rel_residual >= targets[i]]
        if not stale:
            break
        redone = _solve_block(a_tilde, m, rhs[:, stale], 0.5 * targets[stale], cfg.max_iter,
                              x0=np.column_stack([outcomes[i].x for i in stale]))
        improved = [(i, o) for i, o in zip(stale, redone)
                    if o.rel_residual < outcomes[i].rel_residual]
        if not improved:
            break
        for i, o in improved:
            outcomes[i] = o

    x_hat, cond = assemble_solution(outcomes[0].x, w_hat(), irregular_cols)
    return _finish_report(a0, b0, x_hat, cfg, outcomes, stats, cond, posthoc_c)
