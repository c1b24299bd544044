"""Right-preconditioned stabilized biconjugate gradients for a block of systems.

The solver works on closures: ``apply_op(X)`` computes A X and the
optional ``apply_precond(X)`` computes M X, applied on the right, so the
residual being driven down is that of the original system. Given an
``(n, k)`` block of right-hand sides, one recurrence with per-column
scalars advances every live column, so each half step makes one
``apply_op`` and one ``apply_precond`` call for all of them.

Convergence is judged on the recursive residual. A column whose estimate
meets its target gets one true residual ``b - A x``: if that meets the
target too, the column stops there; if not, it replaces the recursive
residual (Sleijpen and van der Vorst, "Reliable updated residuals in
hybrid Bi-CG methods", Computing 56, 1996) and the column goes on. On any
other exit a column returns its best iterate by the estimate (the true
residual where one was computed), with that iterate's true residual, so
every reported residual is a true one. A column that breaks down or
stalls stops alone; the others go on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_BREAKDOWN_REL = 1e-30
_STAGNATION_WINDOW = 30


@dataclass
class SolveOutcome:
    x: np.ndarray
    iterations: int
    rel_residual: float
    flag: str  # converged | max_iter | breakdown | stagnation


@dataclass
class BlockOutcome:
    """Per-column outcomes of one block solve, and two plain summaries."""

    columns: list[SolveOutcome]
    iterations: int   # block steps run
    flag: str         # "converged" when every column converged, else the first other flag


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Column-wise inner products of two ``(n, k)`` blocks."""
    return np.einsum("ij,ij->j", u, v)


def _broken(values: np.ndarray, floor) -> np.ndarray:
    """Where a recurrence scalar is below its floor in magnitude, or not finite."""
    return ~(np.abs(values) >= floor) | np.isinf(values)


def bicgstab(apply_op: Callable[[np.ndarray], np.ndarray],
             b: np.ndarray,
             x0: Optional[np.ndarray] = None,
             *,
             apply_precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
             tol: float | np.ndarray = 1e-8,
             max_iter: int = 500) -> SolveOutcome | BlockOutcome:
    """Solve A X = B, optionally as A M Z = B with X = M Z.

    ``b`` is one right-hand side or an ``(n, k)`` block of them; ``tol`` is
    one relative tolerance or one per column, and ``x0`` has the shape of
    ``b``. A column stops when ``||b - A x|| / ||b||`` reaches its ``tol``,
    after ``max_iter`` iterations, on breakdown (an inner product below its
    floor, or any non-finite value) or after the estimate has not improved
    for 30 iterations. A vector ``b`` returns its :class:`SolveOutcome`
    (the closures then see vectors); a block returns a :class:`BlockOutcome`.
    """
    b = np.asarray(b, dtype=np.float64)
    vector = b.ndim == 1
    if vector:
        b = b[:, None]
        x0 = None if x0 is None else np.asarray(x0, dtype=np.float64)[:, None]
        op, prec = apply_op, apply_precond
        apply_op = lambda x: op(x[:, 0])[:, None]
        if prec is not None:
            apply_precond = lambda x: prec(x[:, 0])[:, None]
    # A step that overflows is the breakdown the checks detect, not a warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = _block(apply_op, b, x0, apply_precond, tol, max_iter)
    return out.columns[0] if vector else out


def _block(apply_op, b: np.ndarray, x0, apply_precond, tol, max_iter: int) -> BlockOutcome:
    n, k = b.shape
    tol = np.broadcast_to(np.asarray(tol, dtype=np.float64), (k,))
    if not np.all(tol > 0.0):
        raise ValueError("tol must be positive")
    prec = apply_precond if apply_precond is not None else (lambda x: x)
    b = np.ascontiguousarray(b)
    norm_b = np.sqrt(_dots(b, b))
    if x0 is not None and np.shape(x0) != (n, k):
        raise ValueError(f"x0 has shape {np.shape(x0)}, right-hand sides {b.shape}")
    x = np.zeros((n, k)) if x0 is None else np.array(x0, dtype=np.float64, order="C")
    r = b.copy() if x0 is None else b - apply_op(x)
    done: list[Optional[SolveOutcome]] = [None] * k

    def outcome(xj: np.ndarray, it: int, rr: float, flag: str) -> SolveOutcome:
        return SolveOutcome(x=xj.copy(), iterations=int(it), rel_residual=float(rr), flag=flag)

    rr = np.sqrt(_dots(r, r)) / norm_b
    zero = norm_b == 0.0
    start = ~zero & (rr <= tol)
    for j in zero.nonzero()[0]:
        done[j] = SolveOutcome(x=np.zeros(n), iterations=0, rel_residual=0.0, flag="converged")
    for j in start.nonzero()[0]:
        done[j] = outcome(x[:, j], 0, rr[j], "converged")

    # State of the live columns; ``cols`` maps them to the block's columns.
    cols = (~zero & ~start).nonzero()[0]
    if len(cols) < k:
        x, r = x[:, cols], r[:, cols]
        norm_b, tol, rr = norm_b[cols], tol[cols], rr[cols]
    # r starts as b without x0; neither b nor r_shadow is written in place
    r_shadow = b if x0 is None and len(cols) == k else r.copy()
    p = np.zeros_like(r)
    v = np.zeros_like(r)
    work = np.empty_like(r)
    x_prev = np.empty_like(r)      # the iterate before x: x is written here, then swapped
    rho, alpha, omega = (np.ones(len(cols)) for _ in range(3))
    floor = _BREAKDOWN_REL * norm_b * norm_b
    # The best iterate is x itself where ``at_x``, else the column of best_x.
    best_x, best_rr, best_true = np.empty_like(r), rr.copy(), rr.copy()
    at_x = np.ones(len(cols), dtype=bool)
    since_improved = np.zeros(len(cols), dtype=np.int64)
    live = np.ones(len(cols), dtype=bool)

    def true_rr(idx: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residuals ``b - A x`` of live columns ``idx`` and their relative norms."""
        res = b[:, cols[idx]]
        res -= apply_op(xs)
        return res, np.sqrt(_dots(res, res)) / norm_b[idx]

    def stop(mask: np.ndarray, it: int, flag: str) -> None:
        """End the live columns in ``mask`` with their best iterate."""
        idx = (mask & live).nonzero()[0]
        if len(idx) == 0:
            return
        live[idx] = False
        xs = np.where(at_x[idx], x[:, idx], best_x[:, idx])
        unknown = np.isnan(best_true[idx])
        if unknown.any():
            best_true[idx[unknown]] = true_rr(idx[unknown], xs[:, unknown])[1]
        for c, j in enumerate(idx):
            done[cols[j]] = outcome(xs[:, c], it, best_true[j], flag)

    def judge(est: np.ndarray, it: int, full_step: bool) -> None:
        """Confirm estimates that meet their target, then track the best iterate.

        ``est`` estimates the residual of ``x`` from ``r``; a column whose
        true residual misses its target has that residual written over ``r``.
        """
        known = np.nan                  # the true residuals of x, where computed
        hit = (live & (est <= tol)).nonzero()[0]
        if len(hit):
            true_res, true = true_rr(hit, x[:, hit] if len(hit) < len(est) else x)
            known = np.full(len(est), np.nan)
            known[hit] = est[hit] = true
            ok = true <= tol[hit]
            for j, t in zip(hit[ok], true[ok]):
                done[cols[j]] = outcome(x[:, j], it, t, "converged")
            live[hit[ok]] = False
            r[:, hit[~ok]] = true_res[:, ~ok]
        # A non-finite estimate compares false, so it is never an improvement.
        improved = live & (est < best_rr * (1.0 - 1e-12))
        kept = (at_x > improved).nonzero()[0]     # the iterate before x stays the best
        best_x[:, kept] = x_prev[:, kept]
        np.copyto(at_x, improved)
        np.copyto(best_rr, est, where=improved)
        np.copyto(best_true, known, where=improved)
        if full_step:
            since_improved[:] += 1
        np.copyto(since_improved, 0, where=improved)

    # Columns that finish mid-step ride along until the step ends.
    it = 0
    while live.any() and it < max_iter:
        it += 1
        rho_new = _dots(r_shadow, r)
        stop(_broken(rho_new, floor), it - 1, "breakdown")
        beta = (rho_new / rho) * (alpha / omega)
        np.multiply(v, omega, out=work)
        p -= work
        p *= beta
        p += r
        del v                          # its successor is not allocated beside it
        p_hat = prec(p)
        v = apply_op(p_hat)
        denom = _dots(r_shadow, v)
        stop(_broken(denom, floor), it - 1, "breakdown")
        alpha = rho_new / denom
        np.multiply(v, alpha, out=work)
        r -= work                      # r is now s, the half-step residual
        np.multiply(p_hat, alpha, out=x_prev)
        x_prev += x
        x, x_prev = x_prev, x
        del p_hat
        judge(np.sqrt(_dots(r, r)) / norm_b, it, full_step=False)

        s_hat = prec(r)
        t = apply_op(s_hat)
        # omega is broken also when t t is 0 or not finite
        omega = _dots(t, r) / _dots(t, t)
        stop(_broken(omega, _BREAKDOWN_REL), it, "breakdown")
        np.multiply(s_hat, omega, out=x_prev)     # before r changes: s_hat may be r
        x_prev += x
        x, x_prev = x_prev, x
        np.multiply(t, omega, out=work)
        r -= work
        del s_hat, t
        est = np.sqrt(_dots(r, r)) / norm_b
        judge(est, it, full_step=True)
        stop(~np.isfinite(est), it, "breakdown")
        stop(since_improved >= _STAGNATION_WINDOW, it, "stagnation")
        rho = rho_new

        if not live.all():
            # One array at a time, so each is freed before the next is copied.
            keep = live.nonzero()[0]
            r_shadow = r_shadow[:, keep]
            x = x[:, keep]
            r = r[:, keep]
            p = p[:, keep]
            v = v[:, keep]
            best_x = best_x[:, keep]
            del work, x_prev
            work, x_prev = np.empty_like(r), np.empty_like(r)
            cols, norm_b, tol, floor, rho, alpha, omega = (
                vec[keep] for vec in (cols, norm_b, tol, floor, rho, alpha, omega))
            best_rr, best_true, at_x, since_improved, live = (
                vec[keep] for vec in (best_rr, best_true, at_x, since_improved, live))
    stop(live, it, "max_iter")

    flags = [o.flag for o in done]
    flag = next((f for f in flags if f != "converged"), "converged")
    return BlockOutcome(columns=done, iterations=it, flag=flag)
