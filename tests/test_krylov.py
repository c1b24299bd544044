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
        out = bicgstab(op(CscMatrix.identity(6)), np.arange(1.0, 7.0)[:, None],
                       tol=1e-10).columns[0]
        assert out.flag == "converged"
        assert out.iterations <= 1
        assert np.allclose(out.x, np.arange(1.0, 7.0), atol=1e-12)

    def test_diagonal_closed_form(self):
        d = np.arange(1.0, 11.0)
        a = CscMatrix.from_dense(np.diag(d))
        out = bicgstab(op(a), np.ones((10, 1)), tol=1e-12).columns[0]
        assert out.flag == "converged"
        assert np.max(np.abs(out.x - 1.0 / d)) <= 1e-10

    def test_zero_rhs(self):
        out = bicgstab(op(CscMatrix.identity(4)), np.zeros((4, 1)), tol=1e-8).columns[0]
        assert out.flag == "converged"
        assert out.iterations == 0
        assert np.array_equal(out.x, np.zeros(4))

    def test_reported_residual_is_true_residual(self):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((12, 12)) + 12 * np.eye(12)
        a = CscMatrix.from_dense(dense)
        b = rng.standard_normal(12)
        out = bicgstab(op(a), b[:, None], tol=1e-6, max_iter=100).columns[0]
        recomputed = np.linalg.norm(b - dense @ out.x) / np.linalg.norm(b)
        assert out.rel_residual == pytest.approx(recomputed, rel=1e-10)

    def test_determinism(self):
        rng = np.random.default_rng(8)
        dense = rng.standard_normal((15, 15)) + 15 * np.eye(15)
        a = CscMatrix.from_dense(dense)
        b = rng.standard_normal(15)
        out1 = bicgstab(op(a), b[:, None], tol=1e-10).columns[0]
        out2 = bicgstab(op(a), b[:, None], tol=1e-10).columns[0]
        assert np.array_equal(out1.x, out2.x)
        assert out1.iterations == out2.iterations


class TestPreconditioning:
    def test_exact_inverse_two_iterations(self):
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((10, 10)) + 10 * np.eye(10)
        a = CscMatrix.from_dense(dense)
        inv = np.linalg.inv(dense)
        b = rng.standard_normal(10)
        out = bicgstab(op(a), b[:, None], apply_precond=lambda v: inv @ v, tol=1e-10).columns[0]
        assert out.flag == "converged"
        assert out.iterations <= 2

    def test_preconditioned_beats_unpreconditioned(self):
        n = 50
        a = tridiagonal(n, diag=2.05, off=-1.0)
        b = matvec(a, np.ones(n))
        plain = bicgstab(op(a), b[:, None], tol=1e-8, max_iter=500).columns[0]
        m, _ = psai(a, PsaiConfig(delta=0.4))
        prec = bicgstab(op(a), b[:, None], apply_precond=op(m), tol=1e-8,
                        max_iter=500).columns[0]
        assert prec.flag == "converged"
        assert prec.iterations < plain.iterations

    def test_right_preconditioning_keeps_original_residual(self):
        rng = np.random.default_rng(11)
        dense = rng.standard_normal((8, 8)) + 8 * np.eye(8)
        a = CscMatrix.from_dense(dense)
        m = np.diag(1.0 / np.diag(dense))
        b = rng.standard_normal(8)
        out = bicgstab(op(a), b[:, None], apply_precond=lambda v: m @ v, tol=1e-9).columns[0]
        assert np.linalg.norm(b - dense @ out.x) / np.linalg.norm(b) <= 1e-9


class TestFailureModes:
    def test_nan_operator_breakdown(self):
        def bad(v):
            out = v.copy()
            out[0] = np.nan
            return out

        out = bicgstab(bad, np.ones((3, 1)), tol=1e-8, max_iter=10).columns[0]
        assert out.flag == "breakdown"
        assert np.all(np.isfinite(out.x))

    def test_max_iter_reported(self):
        # an indefinite system stalls long before the residual target
        rng = np.random.default_rng(13)
        dense = rng.standard_normal((40, 40))
        a = CscMatrix.from_dense(dense)
        b = rng.standard_normal(40)
        out = bicgstab(op(a), b[:, None], tol=1e-14, max_iter=3).columns[0]
        assert out.flag in ("max_iter", "breakdown", "stagnation")
        assert out.iterations <= 3

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            bicgstab(op(CscMatrix.identity(2)), np.ones((2, 1)), tol=0.0)


class TestBlock:
    def test_mixed_block_reports_per_column_flags(self):
        # a zero column, one that cannot reach 1e-14 in 20 steps, two that converge
        a = tridiagonal(100, diag=2.05, off=-1.0)
        b = np.random.default_rng(0).standard_normal((100, 4))
        b[:, 1] = 0.0
        tol = np.array([1e-1, 1e-8, 1e-14, 1e-2])
        out = bicgstab(op(a), b, tol=tol, max_iter=20)
        assert [o.flag for o in out.columns] == ["converged", "converged", "max_iter",
                                                 "converged"]
        assert (out.flag, out.iterations) == ("max_iter", 20)
        assert out.columns[1].iterations == 0 and not out.columns[1].x.any()
        assert out.columns[2].iterations == 20
        for j in (0, 2, 3):
            got = out.columns[j]
            true = np.linalg.norm(b[:, j] - matvec(a, got.x)) / np.linalg.norm(b[:, j])
            assert got.rel_residual == pytest.approx(true, rel=1e-10)
        for j in (0, 3):
            assert 0 < out.columns[j].iterations < 20
            assert out.columns[j].rel_residual <= tol[j]

    def test_broken_column_stops_alone(self):
        # x . A x = 0 on the skew 2x2 block, so a right-hand side there breaks
        # down at once; one on the diagonal block converges in four steps
        dense = np.zeros((6, 6))
        dense[0, 1], dense[1, 0] = 1.0, -1.0
        dense[2:, 2:] = np.diag([2.0, 3.0, 4.0, 5.0])
        b = np.zeros((6, 2))
        b[2:, 0] = 1.0
        b[0, 1] = 1.0
        out = bicgstab(op(CscMatrix.from_dense(dense)), b, tol=1e-12)
        good, broken = out.columns
        assert (broken.flag, broken.iterations, broken.rel_residual) == ("breakdown", 0, 1.0)
        assert not broken.x.any()
        assert good.flag == "converged" and good.rel_residual <= 1e-12
        assert (out.flag, out.iterations) == ("breakdown", good.iterations)

    def test_closures_may_return_their_argument(self):
        # the solver must not write into what apply_op or apply_precond return
        b = np.arange(1.0, 13.0).reshape(6, 2)
        same = lambda v: v
        out = bicgstab(same, b, apply_precond=same, tol=1e-12)
        for j, col in enumerate(out.columns):
            assert (col.flag, col.iterations, col.rel_residual) == ("converged", 1, 0.0)
            assert np.array_equal(col.x, b[:, j])
        vec = bicgstab(same, b[:, :1], apply_precond=same, tol=1e-12).columns[0]
        assert np.array_equal(vec.x, b[:, 0])

    def test_identical_calls_give_identical_bytes(self):
        a = generate_test_matrix("dominant-row", 50, seed=2)
        m, _ = psai(a, PsaiConfig(delta=0.4))
        rng = np.random.default_rng(2)
        b = rng.standard_normal((50, 5))
        x0 = rng.standard_normal((50, 5)) * np.array([0, 1, 0, 1, 1])
        tol = np.array([1e-6, 1e-10, 1e-12, 1e-8, 1e-9])
        runs = [bicgstab(op(a), b, x0, apply_precond=op(m), tol=tol, max_iter=50)
                for _ in range(2)]
        assert runs[0].iterations == runs[1].iterations
        for u, v in zip(runs[0].columns, runs[1].columns):
            assert (u.flag, u.iterations) == (v.flag, v.iterations)
            assert u.x.tobytes() == v.x.tobytes()
            assert np.float64(u.rel_residual).tobytes() == np.float64(v.rel_residual).tobytes()

    def test_zero_block_makes_no_product(self):
        calls = []

        def counting(x):
            calls.append(x.shape)
            return x

        out = bicgstab(counting, np.zeros((5, 3)), tol=1e-8)
        assert calls == [] and out.iterations == 0 and out.flag == "converged"
        assert all(not col.x.any() and col.rel_residual == 0.0 for col in out.columns)

    @pytest.mark.parametrize("scale", [1e-165, 1e160])
    def test_column_whose_norm_under_or_overflows_is_not_converged(self, scale):
        # ||b||^2 is 0 or inf in float64 though b is nonzero: no relative
        # residual can be judged, so the column breaks down; the other converges
        a = tridiagonal(20, diag=3.0, off=-1.0)
        b = np.ones((20, 2))
        b[:, 1] *= scale
        out = bicgstab(op(a), b, tol=1e-10)
        good, bad = out.columns
        assert bad.flag == "breakdown" and bad.iterations <= 1
        assert good.flag == "converged" and good.rel_residual <= 1e-10

    def test_shape_and_tolerance_checks(self):
        identity = op(CscMatrix.identity(3))
        with pytest.raises(ValueError, match=r"\(n, k\) block, got shape \(3,\)"):
            bicgstab(identity, np.ones(3))
        with pytest.raises(ValueError, match="x0 has shape"):
            bicgstab(identity, np.ones((3, 2)), np.ones((3, 1)))
        with pytest.raises(ValueError, match="tol must be positive"):
            bicgstab(identity, np.ones((3, 2)), tol=np.array([1e-8, 0.0]))


def test_overflowing_step_is_silent():
    # a preconditioner this poor (guard-skipped columns) overflows a step
    a = generate_test_matrix("dominant-row", 60, planted_dense_cols=0, seed=0)
    m, _ = psai(a, PsaiConfig(delta=0.05, max_workspace_bytes=3000))
    b = matvec(a, np.ones(60))
    block = np.column_stack([b, matvec(a, np.linspace(-1.0, 1.0, 60))])

    def solve(action: str, rhs: np.ndarray):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            return bicgstab(op(a), rhs, apply_precond=op(m), tol=1e-8, max_iter=500)

    quiet, strict = solve("ignore", b[:, None]), solve("error", b[:, None])
    quiet, strict = quiet.columns[0], strict.columns[0]
    assert (strict.flag, strict.iterations) == (quiet.flag, quiet.iterations)
    assert strict.x.tobytes() == quiet.x.tobytes()
    quiet, strict = solve("ignore", block), solve("error", block)
    assert (strict.flag, strict.iterations) == (quiet.flag, quiet.iterations)
    for u, v in zip(strict.columns, quiet.columns):
        assert (u.flag, u.iterations) == (v.flag, v.iterations)
        assert u.x.tobytes() == v.x.tobytes()
