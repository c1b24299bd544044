"""Right-preconditioned stabilized biconjugate gradients.

The solver works on closures: ``apply_op(x)`` computes A x and the
optional ``apply_precond(x)`` computes M x, applied on the right, so the
residual being driven down is that of the original system. Convergence is
judged on the true residual of the current iterate, recomputed every
iteration, and the reported iterate is always the best one seen.
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


def bicgstab(apply_op: Callable[[np.ndarray], np.ndarray],
             b: np.ndarray,
             x0: Optional[np.ndarray] = None,
             *,
             apply_precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
             tol: float = 1e-8,
             max_iter: int = 500) -> SolveOutcome:
    """Solve A x = b, optionally as A M z = b with x = M z.

    Stops when ``||b - A x|| / ||b||`` reaches ``tol`` or after
    ``max_iter`` iterations. Inner-product breakdown (or any non-finite
    value) ends the run with the best iterate found so far.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return SolveOutcome(x=np.zeros(n), iterations=0, rel_residual=0.0,
                            flag="converged")

    prec = apply_precond if apply_precond is not None else (lambda v: v)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    r = b - apply_op(x)
    rr = float(np.linalg.norm(r)) / norm_b
    best_x, best_rr = x.copy(), rr
    if rr <= tol:
        return SolveOutcome(x=x, iterations=0, rel_residual=rr, flag="converged")

    r_shadow = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    breakdown_floor = _BREAKDOWN_REL * norm_b * norm_b
    since_improved = 0

    def finish(it: int, flag: str) -> SolveOutcome:
        return SolveOutcome(x=best_x, iterations=it, rel_residual=best_rr, flag=flag)

    # A step that overflows is the breakdown the checks below detect, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            rho_new = float(r_shadow @ r)
            if not np.isfinite(rho_new) or abs(rho_new) < breakdown_floor:
                return finish(it - 1, "breakdown")
            beta = (rho_new / rho) * (alpha / omega)
            p = r + beta * (p - omega * v)
            p_hat = prec(p)
            v = apply_op(p_hat)
            denom = float(r_shadow @ v)
            if not np.isfinite(denom) or abs(denom) < breakdown_floor:
                return finish(it - 1, "breakdown")
            alpha = rho_new / denom
            s = r - alpha * v

            x_half = x + alpha * p_hat
            rr_half = float(np.linalg.norm(b - apply_op(x_half))) / norm_b
            if np.isfinite(rr_half) and rr_half < best_rr * (1.0 - 1e-12):
                best_x, best_rr = x_half.copy(), rr_half
                since_improved = 0
            if rr_half <= tol:
                return SolveOutcome(x=x_half, iterations=it, rel_residual=rr_half,
                                    flag="converged")

            s_hat = prec(s)
            t = apply_op(s_hat)
            tt = float(t @ t)
            if not np.isfinite(tt) or tt == 0.0:
                return finish(it, "breakdown")
            omega = float(t @ s) / tt
            if not np.isfinite(omega) or abs(omega) < _BREAKDOWN_REL:
                return finish(it, "breakdown")
            x = x_half + omega * s_hat
            r = s - omega * t

            rr = float(np.linalg.norm(b - apply_op(x))) / norm_b
            if not np.isfinite(rr):
                return finish(it, "breakdown")
            if rr < best_rr * (1.0 - 1e-12):
                best_x, best_rr = x.copy(), rr
                since_improved = 0
            else:
                since_improved += 1
            if rr <= tol:
                return SolveOutcome(x=x, iterations=it, rel_residual=rr, flag="converged")
            if since_improved >= _STAGNATION_WINDOW:
                return finish(it, "stagnation")
            rho = rho_new

    return finish(max_iter, "max_iter")
