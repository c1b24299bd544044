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
stalls stops alone; the others go on. Every exit ends a column in one
place, a zero column and a start that meets its target included.
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


def _sound(values, floor) -> np.ndarray:
    """Where the recurrence scalars ``values`` (one per system, or a tuple of
    such arrays) are finite and at least ``floor`` in magnitude."""
    mags = np.abs(values)
    return (mags >= floor) & (mags < np.inf)


def _whole(mask: np.ndarray) -> bool:
    """Whether ``mask`` holds everywhere (``count_nonzero`` is the cheapest test)."""
    return np.count_nonzero(mask) == mask.size


def bicgstab(apply_op: Callable[[np.ndarray], np.ndarray],
             b: np.ndarray,
             x0: Optional[np.ndarray] = None,
             *,
             apply_precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
             tol: float | np.ndarray = 1e-8,
             max_iter: int = 500) -> BlockOutcome:
    """Solve A X = B, optionally as A M Z = B with X = M Z.

    ``b`` is an ``(n, k)`` block of right-hand sides; ``tol`` is one
    relative tolerance or one per column, and ``x0`` has the shape of
    ``b``. A column stops when ``||b - A x|| / ||b||`` reaches its ``tol``,
    after ``max_iter`` iterations, on breakdown (an inner product below its
    floor, or any non-finite value, such as the norm of a nonzero column
    that under- or overflows) or after the estimate has not improved for
    30 iterations. A zero column is solved by ``x = 0`` with no iteration.
    """
    if np.ndim(b) != 2:
        raise ValueError(f"b must be an (n, k) block, got shape {np.shape(b)}")
    b = np.ascontiguousarray(b, dtype=np.float64)
    n, k = b.shape
    tol = np.broadcast_to(np.asarray(tol, dtype=np.float64), (k,))
    if not np.all(tol > 0.0):
        raise ValueError("tol must be positive")
    if x0 is not None and np.shape(x0) != (n, k):
        raise ValueError(f"x0 has shape {np.shape(x0)}, right-hand sides {b.shape}")
    prec = apply_precond if apply_precond is not None else (lambda x: x)
    done: list[Optional[SolveOutcome]] = [None] * k
    # A step that overflows is the breakdown the checks detect, not a warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        zero = ~b.any(axis=0)
        x = np.zeros((n, k)) if x0 is None else np.array(x0, dtype=np.float64, order="C")
        x[:, zero] = 0.0
        r = b.copy() if x0 is None else b - apply_op(x)
        norm_b = np.sqrt(_dots(b, b))
        # The best iterate is x itself where ``at_x``, else the column of best_x.
        best_rr = np.sqrt(_dots(r, r)) / norm_b
        best_rr[zero] = 0.0
        best_true, at_x = best_rr.copy(), np.ones(k, dtype=bool)

        # State of the live columns; ``cols`` maps them to the block's columns.
        cols = np.arange(k)
        # r at the start, never written; b itself without x0 (with a copy, the
        # heap was trimmed and its pages faulted in again every step at n x k = 1500 x 41)
        r_shadow = b if x0 is None else r.copy()
        p = np.zeros_like(r)
        v = np.zeros_like(r)
        work = np.empty_like(r)
        x_prev = np.empty_like(r)      # the iterate before x: x is written here, then swapped
        best_x = np.empty_like(r)
        rho, alpha, omega = (np.ones(k) for _ in range(3))
        floor = _BREAKDOWN_REL * norm_b * norm_b
        # A column has gone ``it - last_good`` full steps without improving: an
        # improvement sets last_good to its step, or on a half step to the one before.
        last_good = np.zeros(k, dtype=np.int64)
        live = np.ones(k, dtype=bool)
        n_live = k

        def true_rr(idx: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Residuals ``b - A x`` of live columns ``idx`` and their relative norms."""
            res = b[:, cols[idx]]
            res -= apply_op(xs)
            return res, np.sqrt(_dots(res, res)) / norm_b[idx]

        def stop(mask: np.ndarray, it: int, flag: str) -> None:
            """End the live columns in ``mask`` with their best iterate: every exit."""
            nonlocal n_live
            idx = (mask & live).nonzero()[0]
            if len(idx) == 0:
                return
            live[idx] = False
            n_live -= len(idx)
            xs = np.where(at_x[idx], x[:, idx], best_x[:, idx])
            unknown = np.isnan(best_true[idx])
            if unknown.any():
                best_true[idx[unknown]] = true_rr(idx[unknown], xs[:, unknown])[1]
            for c, j in enumerate(idx):
                done[cols[j]] = SolveOutcome(x=xs[:, c].copy(), iterations=it,
                                             rel_residual=float(best_true[j]), flag=flag)

        def judge(est: np.ndarray, it: int, full_step: bool) -> None:
            """Confirm estimates that meet their target, stop the columns whose
            true residual meets it too, and track the best iterate of the rest.

            ``est`` estimates the residual of ``x`` from ``r``; a column whose
            true residual misses its target has that residual written over ``r``.
            """
            nonlocal at_x
            known = np.nan                  # the true residuals of x, where computed
            met = live & (est <= tol)
            hit = met.nonzero()[0]
            if len(hit):
                true_res, true = true_rr(hit, x[:, hit] if len(hit) < len(est) else x)
                known = np.full(len(est), np.nan)
                known[hit] = est[hit] = true
                miss = ~(true <= tol[hit])
                met[hit[miss]] = False
                r[:, hit[miss]] = true_res[:, miss]
                # a confirmed column's x is its best, whatever the estimates said
                at_x[met], best_true[met] = True, true[~miss]
                stop(met, it, "converged")
            # A non-finite estimate compares false, so it is never an improvement.
            improved = live & (est < best_rr * (1.0 - 1e-12))
            kept = (at_x > improved).nonzero()[0]     # the iterate before x stays the best
            if len(kept):
                best_x[:, kept] = x_prev[:, kept]
            at_x = improved
            if np.count_nonzero(improved):
                np.copyto(best_rr, est, where=improved)
                np.copyto(best_true, known, where=improved)
                np.copyto(last_good, it if full_step else it - 1, where=improved)

        stop(best_rr <= tol, 0, "converged")      # zero columns, and starts that meet tol
        it = 0
        # Columns that finish mid-step ride along until the next step starts.
        while n_live and it < max_iter:
            if n_live < len(cols):
                # One array at a time, so each is freed before the next is copied.
                keep = live.nonzero()[0]
                x = x[:, keep]
                r = r[:, keep]
                # At the start a C-order copy: einsum sums the F-order columns
                # of a compacted block in another order.
                r_shadow = r_shadow[:, keep] if it else r.copy()
                p = p[:, keep]
                v = v[:, keep]
                best_x = best_x[:, keep]
                del work, x_prev
                work, x_prev = np.empty_like(r), np.empty_like(r)
                cols, norm_b, tol, floor, rho, alpha, omega = (
                    vec[keep] for vec in (cols, norm_b, tol, floor, rho, alpha, omega))
                best_rr, best_true, at_x, last_good, live = (
                    vec[keep] for vec in (best_rr, best_true, at_x, last_good, live))
            it += 1
            rho_new = _dots(r_shadow, r)
            beta = (rho_new / rho) * (alpha / omega)
            np.multiply(v, omega, out=work)
            p -= work
            p *= beta
            p += r
            del v                          # its successor is not allocated beside it
            p_hat = prec(p)
            v = apply_op(p_hat)
            denom = _dots(r_shadow, v)
            sound = _sound((rho_new, denom), floor)
            if not _whole(sound):
                # neither x nor the best iterate has moved yet this step
                stop(~sound.all(axis=0), it - 1, "breakdown")
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
            sound = _sound(omega, _BREAKDOWN_REL)
            if not _whole(sound):
                stop(~sound, it, "breakdown")
            np.multiply(s_hat, omega, out=x_prev)     # before r changes: s_hat may be r
            x_prev += x
            x, x_prev = x_prev, x
            np.multiply(t, omega, out=work)
            r -= work
            del s_hat, t
            est = np.sqrt(_dots(r, r)) / norm_b
            judge(est, it, full_step=True)
            finite = np.isfinite(est)
            if not _whole(finite):
                stop(~finite, it, "breakdown")
            if it >= _STAGNATION_WINDOW:
                stop(it - last_good >= _STAGNATION_WINDOW, it, "stagnation")
            rho = rho_new
        stop(live, it, "max_iter")

    flags = [o.flag for o in done]
    flag = next((f for f in flags if f != "converged"), "converged")
    return BlockOutcome(columns=done, iterations=it, flag=flag)
