import warnings

import numpy as np
import pytest

from saikit import CscMatrix, PsaiConfig, bicgstab, generate_test_matrix, matvec
from saikit.psai import psai
from .conftest import tridiagonal


def op(a: CscMatrix):
    return lambda v: matvec(a, v)


class TestBasic:
    def test_identity_single_iteration(self):
        out = bicgstab(op(CscMatrix.identity(6)), np.arange(1.0, 7.0), tol=1e-10)
        assert out.flag == "converged"
        assert out.iterations <= 1
        assert np.allclose(out.x, np.arange(1.0, 7.0), atol=1e-12)

    def test_diagonal_closed_form(self):
        d = np.arange(1.0, 11.0)
        a = CscMatrix.from_dense(np.diag(d))
        out = bicgstab(op(a), np.ones(10), tol=1e-12)
        assert out.flag == "converged"
        assert np.max(np.abs(out.x - 1.0 / d)) <= 1e-10

    def test_zero_rhs(self):
        out = bicgstab(op(CscMatrix.identity(4)), np.zeros(4), tol=1e-8)
        assert out.flag == "converged"
        assert out.iterations == 0
        assert np.array_equal(out.x, np.zeros(4))

    def test_reported_residual_is_true_residual(self):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((12, 12)) + 12 * np.eye(12)
        a = CscMatrix.from_dense(dense)
        b = rng.standard_normal(12)
        out = bicgstab(op(a), b, tol=1e-6, max_iter=100)
        recomputed = np.linalg.norm(b - dense @ out.x) / np.linalg.norm(b)
        assert out.rel_residual == pytest.approx(recomputed, rel=1e-10)

    def test_determinism(self):
        rng = np.random.default_rng(8)
        dense = rng.standard_normal((15, 15)) + 15 * np.eye(15)
        a = CscMatrix.from_dense(dense)
        b = rng.standard_normal(15)
        out1 = bicgstab(op(a), b, tol=1e-10)
        out2 = bicgstab(op(a), b, tol=1e-10)
        assert np.array_equal(out1.x, out2.x)
        assert out1.iterations == out2.iterations


class TestPreconditioning:
    def test_exact_inverse_two_iterations(self):
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((10, 10)) + 10 * np.eye(10)
        a = CscMatrix.from_dense(dense)
        inv = np.linalg.inv(dense)
        b = rng.standard_normal(10)
        out = bicgstab(op(a), b, apply_precond=lambda v: inv @ v, tol=1e-10)
        assert out.flag == "converged"
        assert out.iterations <= 2

    def test_preconditioned_beats_unpreconditioned(self):
        n = 50
        a = tridiagonal(n, diag=2.05, off=-1.0)
        b = matvec(a, np.ones(n))
        plain = bicgstab(op(a), b, tol=1e-8, max_iter=500)
        m, _ = psai(a, PsaiConfig(delta=0.4))
        prec = bicgstab(op(a), b, apply_precond=op(m), tol=1e-8, max_iter=500)
        assert prec.flag == "converged"
        assert prec.iterations < plain.iterations

    def test_right_preconditioning_keeps_original_residual(self):
        rng = np.random.default_rng(11)
        dense = rng.standard_normal((8, 8)) + 8 * np.eye(8)
        a = CscMatrix.from_dense(dense)
        m = np.diag(1.0 / np.diag(dense))
        b = rng.standard_normal(8)
        out = bicgstab(op(a), b, apply_precond=lambda v: m @ v, tol=1e-9)
        assert np.linalg.norm(b - dense @ out.x) / np.linalg.norm(b) <= 1e-9


class TestFailureModes:
    def test_nan_operator_breakdown(self):
        def bad(v):
            out = v.copy()
            out[0] = np.nan
            return out

        out = bicgstab(bad, np.ones(3), tol=1e-8, max_iter=10)
        assert out.flag == "breakdown"
        assert np.all(np.isfinite(out.x))

    def test_max_iter_reported(self):
        # an indefinite system stalls long before the residual target
        rng = np.random.default_rng(13)
        dense = rng.standard_normal((40, 40))
        a = CscMatrix.from_dense(dense)
        b = rng.standard_normal(40)
        out = bicgstab(op(a), b, tol=1e-14, max_iter=3)
        assert out.flag in ("max_iter", "breakdown", "stagnation")
        assert out.iterations <= 3

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            bicgstab(op(CscMatrix.identity(2)), np.ones(2), tol=0.0)


def test_overflowing_step_is_silent():
    # a preconditioner this poor (guard-skipped columns) overflows a step
    a = generate_test_matrix("dominant-row", 60, planted_dense_cols=0, seed=0)
    m, _ = psai(a, PsaiConfig(delta=0.05, max_workspace_bytes=3000))
    b = matvec(a, np.ones(60))

    def solve(action: str):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            return bicgstab(op(a), b, apply_precond=op(m), tol=1e-8, max_iter=500)

    quiet, strict = solve("ignore"), solve("error")
    assert (strict.flag, strict.iterations) == (quiet.flag, quiet.iterations)
    assert strict.x.tobytes() == quiet.x.tobytes()
