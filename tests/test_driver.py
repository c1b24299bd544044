from dataclasses import replace

import numpy as np
import pytest

from saikit import (AssemblyError, CscMatrix, DriverConfig, PsaiConfig, SpaiConfig,
                    assemble_solution, bicgstab, generate_test_matrix, matvec, permute_rows,
                    solve_irregular, solve_standard, split, subsystem_tolerances)
from saikit import driver, sparse_core
from saikit import psai as psai_module
from saikit import spai as spai_module
from .conftest import dense_split_factor, tridiagonal, with_dense_column


def exact_recovery(a_tilde: np.ndarray, u: np.ndarray, irregular_cols, b) -> np.ndarray:
    """x = A^{-1} b by the update formula on exact dense solves with A_tilde."""
    return assemble_solution(np.linalg.solve(a_tilde, b), np.linalg.solve(a_tilde, u),
                             irregular_cols)[0]


class TestDriverConfig:
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["epsilon", "c", "factor"])
    def test_non_finite_setting_rejected(self, name, value):
        with pytest.raises(ValueError):
            DriverConfig(**{name: value})

    @pytest.mark.parametrize("value", [0, -3])
    @pytest.mark.parametrize("name", ["threads", "max_iter", "p_kept"])
    def test_count_below_one_rejected(self, name, value):
        with pytest.raises(ValueError, match=">= 1"):
            DriverConfig(**{name: value})

    @pytest.mark.parametrize("setting", [{"factor": 0.0}, {"factor": -2.0},
                                         {"strategy": "bogus"}, {"c": 0.0}, {"c": -2.0},
                                         {"c": "fixed"}, {"c": "bogus"}])
    def test_bad_split_setting_rejected(self, setting):
        with pytest.raises(ValueError):
            DriverConfig(**setting)

    @pytest.mark.parametrize("setting", [{"c_policy": "posthoc"}, {"c_fixed": 2.0}])
    def test_c_policy_and_c_fixed_are_gone(self, setting):
        with pytest.raises(TypeError):
            DriverConfig(**setting)


class TestSmwInverseApply:
    """A^{-1} b through the update formula, by :func:`assemble_solution` of exact solves."""

    def test_no_update(self):
        dense = np.diag([2.0, 4.0])
        x = exact_recovery(dense, np.empty((2, 0)), [], np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_rank_one_2x2(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        a_tilde = np.array([[2.0, 0.0], [1.0, 2.0]])
        u = a - a_tilde  # single nonzero in column 1
        b = np.array([1.0, -1.0])
        x = exact_recovery(a_tilde, u[:, [1]], [1], b)
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-12)

    def test_split_instances_match_dense_inverse(self):
        for seed in range(5):
            a = generate_test_matrix("dominant-row", 30, planted_dense_cols=2,
                                     seed=seed)
            sys_ = split(a, factor=dense_split_factor(a))
            assert sys_.s == 2
            dense = a.to_dense()
            b = dense @ np.ones(30)
            x = exact_recovery(sys_.a_tilde.to_dense(), sys_.u.to_dense(),
                               sys_.irregular_cols, b)
            assert np.linalg.norm(x - np.linalg.solve(dense, b)) <= \
                1e-9 * np.linalg.norm(x)

    def test_planted_singular_capacitance(self):
        rng = np.random.default_rng(6)
        n = 8
        a_tilde = rng.standard_normal((n, n)) + n * np.eye(n)
        irregular = [2, 5]
        # choose W so that I + V^T W is exactly singular, then set U = A_tilde W
        c_sing = np.array([[2.0, 4.0], [1.0, 2.0]])  # rank one
        w = rng.standard_normal((n, 2))
        w[irregular, :] = c_sing - np.eye(2)
        u = a_tilde @ w
        with pytest.raises(AssemblyError, match="singular"):
            exact_recovery(a_tilde, u, irregular, rng.random(n))

    def test_non_finite_solves(self):
        nan = np.full(3, np.nan)
        with pytest.raises(AssemblyError, match="not finite") as exc_info:
            assemble_solution(nan, nan[:, None], [1])
        assert exc_info.value.cond == np.inf


class TestAssembleSolution:
    def test_no_update(self):
        y = np.array([1.0, 2.0, 3.0])
        x, cond = assemble_solution(y, np.empty((3, 0)), [])
        assert np.array_equal(x, y)
        assert cond == 1.0

    def test_zero_w_hat(self):
        y = np.array([1.0, -2.0])
        x, _ = assemble_solution(y, np.zeros((2, 1)), [0])
        assert np.allclose(x, y)

    def test_exact_inputs_reproduce_dense_solution(self):
        for seed, (n, planted) in enumerate([(20, 1), (20, 2), (60, 3), (100, 5)]):
            a = generate_test_matrix("dominant-row", n, planted_dense_cols=planted,
                                     seed=seed)
            sys_ = split(a, factor=dense_split_factor(a))
            assert sys_.s == planted
            at_dense = sys_.a_tilde.to_dense()
            dense = a.to_dense()
            b = dense @ np.ones(n)
            y = np.linalg.solve(at_dense, b)
            w = np.linalg.solve(at_dense, sys_.u.to_dense())
            x, _ = assemble_solution(y, w, sys_.irregular_cols)
            assert np.linalg.norm(x - np.linalg.solve(dense, b)) <= \
                1e-10 * max(1.0, np.linalg.norm(x))

    def test_singular_small_system(self):
        y = np.ones(3)
        w = np.zeros((3, 1))
        w[1, 0] = -1.0  # 1 + w[1] = 0
        with pytest.raises(AssemblyError) as exc_info:
            assemble_solution(y, w, [1])
        assert exc_info.value.cond > 1e14 or np.isinf(exc_info.value.cond)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_small_system(self, value):
        w = np.zeros((3, 2))
        w[2, 1] = value
        with pytest.raises(AssemblyError) as exc_info:
            assemble_solution(np.ones(3), w, [0, 2])
        assert exc_info.value.cond == np.inf


class TestSubsystemTolerances:
    def test_single_correction(self):
        tol_y, tol_w = subsystem_tolerances(1e-8, 1, 1.0, 2.0, [2.0])
        assert tol_y == pytest.approx(5e-9)
        assert tol_w[0] == pytest.approx(5e-9)

    def test_four_corrections(self):
        tol_y, tol_w = subsystem_tolerances(1e-8, 4, 1.0, 4.0, [2.0] * 4)
        assert np.allclose(tol_w, 5e-9)

    def test_empty_when_no_corrections(self):
        # with no corrections the single system gets the whole budget
        tol_y, tol_w = subsystem_tolerances(1e-8, 0, 1.0, 1.0, [])
        assert tol_y == 1e-8
        assert len(tol_w) == 0

    @pytest.mark.parametrize("c_policy", ["fixed", "posthoc"])
    def test_single_system_target_is_the_s_zero_budget(self, monkeypatch, c_policy):
        a = generate_test_matrix("dominant-row", 30, seed=4)
        cfg = DriverConfig(epsilon=3e-9, c=2.5 if c_policy == "fixed" else c_policy)
        tols = []

        def recording(apply_op, rhs, x0=None, **kwargs):
            tols.append(np.asarray(kwargs["tol"]).tolist())
            return bicgstab(apply_op, rhs, x0, **kwargs)

        monkeypatch.setattr(driver, "bicgstab", recording)
        solve_standard(a, matvec(a, np.ones(30)), cfg)
        assert tols == [[subsystem_tolerances(3e-9, 0, 2.5, 1.0, [])[0]]] == [[3e-9]]

    def test_zero_rhs_rejected(self):
        with pytest.raises(ValueError):
            subsystem_tolerances(1e-8, 1, 1.0, 0.0, [1.0])

    @pytest.mark.parametrize("norm_b, norm_u", [(np.inf, [1.0]), (np.nan, [1.0]),
                                                (1.0, [np.inf]), (1.0, [np.nan]), (1.0, [0.0])])
    def test_non_finite_or_zero_norm_rejected(self, norm_b, norm_u):
        with pytest.raises(ValueError, match="finite and positive|finite positive norms"):
            subsystem_tolerances(1e-8, 1, 1.0, norm_b, norm_u)

    def test_budget_sound_with_posthoc_c(self):
        # residuals at the computed tolerances keep the assembled rr below eps
        rng = np.random.default_rng(17)
        eps = 1e-8
        for _ in range(20):
            a = generate_test_matrix("dominant-row", 25, planted_dense_cols=2,
                                     seed=int(rng.integers(1 << 30)))
            sys_ = split(a, factor=dense_split_factor(a))
            dense = a.to_dense()
            at_dense = sys_.a_tilde.to_dense()
            b = dense @ rng.uniform(0.5, 1.5, size=25)
            norm_b = np.linalg.norm(b)
            u_dense = sys_.u.to_dense()
            norm_u = np.linalg.norm(u_dense, axis=0)
            s = sys_.s

            y_exact = np.linalg.solve(at_dense, b)
            w_exact = np.linalg.solve(at_dense, u_dense)
            y_hat, w_hat = y_exact, w_exact
            for _ in range(30):
                c_mat = np.eye(s) + w_hat[sys_.irregular_cols, :]
                c = np.linalg.norm(np.linalg.solve(c_mat, y_hat[sys_.irregular_cols]))
                tol_y, tol_w = subsystem_tolerances(eps, s, max(c, 1e-300),
                                                    norm_b, norm_u)
                r_y = rng.standard_normal(25)
                r_y *= 0.9 * tol_y * norm_b / np.linalg.norm(r_y)
                r_w = rng.standard_normal((25, s))
                r_w *= 0.9 * tol_w * norm_u / np.linalg.norm(r_w, axis=0)
                y_hat = np.linalg.solve(at_dense, b - r_y)
                w_hat = np.linalg.solve(at_dense, u_dense - r_w)
                c_after = np.linalg.norm(np.linalg.solve(
                    np.eye(s) + w_hat[sys_.irregular_cols, :],
                    y_hat[sys_.irregular_cols]))
                ok_y = np.linalg.norm(r_y) / norm_b < tol_y
                ok_w = np.all(np.linalg.norm(r_w, axis=0) / norm_u <
                              eps * norm_b / (2 * np.sqrt(s) * max(c_after, 1e-300)
                                              * norm_u))
                if ok_y and ok_w:
                    break
            else:
                pytest.fail("could not stabilize the post-hoc factor")
            x_hat, _ = assemble_solution(y_hat, w_hat, sys_.irregular_cols)
            rr = np.linalg.norm(b - dense @ x_hat) / norm_b
            assert rr < eps

    @pytest.mark.parametrize("c_policy", [
        pytest.param("fixed", marks=pytest.mark.xfail(
            strict=True, reason="the default c = 1 is not scale-invariant (ROADMAP item 3)")),
        "posthoc"])
    def test_budget_holds_on_scaled_a(self, c_policy):
        # c = ||(I + V^T W)^{-1} V^T y|| scales as 1 / alpha when A is scaled by
        # alpha: at 1e-3 the default gives a = 135, posthoc a = 0.2 with c = 896
        a = generate_test_matrix("dominant-row", 80, planted_dense_cols=2, seed=7)
        scaled = CscMatrix(a.n_rows, a.n_cols, a.col_ptr, a.row_idx, a.values * 1e-3)
        cfg = DriverConfig(c=1.0 if c_policy == "fixed" else c_policy)
        assert solve_irregular(scaled, np.ones(80), cfg).a <= 1.0


class TestResidualComposition:
    def test_identity_for_arbitrary_inputs(self):
        # the assembled residual equals r_y - R_w (I + V^T W)^{-1} V^T y exactly
        rng = np.random.default_rng(23)
        for seed in range(5):
            a = generate_test_matrix("dominant-row", 20, planted_dense_cols=2,
                                     seed=seed)
            sys_ = split(a, factor=dense_split_factor(a))
            dense = a.to_dense()
            at_dense = sys_.a_tilde.to_dense()
            b = rng.standard_normal(20)
            y_hat = rng.standard_normal(20)
            w_hat = rng.standard_normal((20, sys_.s))
            x_hat, _ = assemble_solution(y_hat, w_hat, sys_.irregular_cols)
            r_direct = b - dense @ x_hat
            r_y = b - at_dense @ y_hat
            r_w = sys_.u.to_dense() - at_dense @ w_hat
            z = np.linalg.solve(np.eye(sys_.s) + w_hat[sys_.irregular_cols, :],
                                y_hat[sys_.irregular_cols])
            r_formula = r_y - r_w @ z
            scale = max(1.0, np.linalg.norm(b))
            assert np.linalg.norm(r_direct - r_formula) <= 1e-10 * scale


class TestSolveIrregular:
    def test_identity(self):
        a = CscMatrix.identity(8)
        rep = solve_irregular(a, np.ones(8))
        assert np.allclose(rep.x_hat, np.ones(8), atol=1e-12)
        assert rep.rr <= 1e-12
        assert rep.a < 1.0

    def test_zero_rhs_shortcut(self):
        rep = solve_irregular(CscMatrix.identity(5), np.zeros(5))
        assert rep.rr == 0.0 and rep.converged
        stats = {"nnz_m": 0, "spar": 0.0, "t_setup": 0.0, "guard_hits": 0, "l_m": 0,
                 "n_failed": 0}
        assert rep.to_dict() == {
            "rr": 0.0, "a": 0.0, "iter_y": 0, "iter_w": [], "max_iter_used": 0,
            "preconditioner_stats": stats, "small_system_condition": 1.0, "converged": True,
            "flag_y": "converged", "flags_w": [], "resid_y": 0.0, "resid_w": [], "s": 0,
            "method": "psai", "posthoc_c": None, "schema_version": driver.SCHEMA_VERSION,
            "x_hat": [0.0] * 5}
        normal = solve_irregular(CscMatrix.identity(5), np.ones(5))
        assert list(rep.to_dict()) == list(normal.to_dict())

    @pytest.mark.parametrize("solve", [solve_irregular, solve_standard])
    @pytest.mark.parametrize("method", ["spai", "psai"])
    def test_zero_rhs_stats_have_normal_keys(self, solve, method):
        a = tridiagonal(6, diag=3.0)
        cfg = DriverConfig(method=method)
        zero = solve(a, np.zeros(6), cfg).preconditioner_stats
        normal = solve(a, np.ones(6), cfg).preconditioner_stats
        assert set(zero) == set(normal)
        assert all(zero[key] == 0 for key in ("guard_hits", "nnz_m"))

    @pytest.mark.parametrize("method", ["spai", "psai"])
    def test_supplied_preconditioner_is_used_as_is(self, method, monkeypatch):
        a = generate_test_matrix("dominant-row", 40, seed=11)
        b = matvec(a, np.ones(40))
        cfg = DriverConfig(method=method)
        built = solve_standard(a, b, cfg)
        m, stats = driver.build_preconditioner(a, cfg)

        def forbidden(*args, **kwargs):
            raise AssertionError("a supplied M must not be rebuilt or permuted")

        for name in ("spai", "psai", "zero_free_diagonal_permutation"):
            monkeypatch.setattr(driver, name, forbidden)
        reused = solve_standard(a, b, cfg, m=m)
        assert np.array_equal(reused.x_hat, built.x_hat)
        assert set(reused.preconditioner_stats) == set(stats)
        assert reused.preconditioner_stats["nnz_m"] == m.nnz
        assert reused.preconditioner_stats["t_setup"] == 0.0
        zero = solve_standard(a, np.zeros(40), cfg, m=m)
        assert zero.rr == 0.0 and zero.preconditioner_stats["nnz_m"] == m.nnz

    @pytest.mark.parametrize("solve", [solve_irregular, solve_standard])
    @pytest.mark.parametrize("length", [29, 31])
    def test_rhs_length_checked_before_any_work(self, solve, length, monkeypatch):
        # rows reversed: the diagonal is zero and the solve would permute b
        a = permute_rows(generate_test_matrix("dominant-row", 30, seed=4),
                         np.arange(30)[::-1])

        def forbidden(*args, **kwargs):
            raise AssertionError("b must be checked before any build or permutation")

        for name in ("spai", "psai", "zero_free_diagonal_permutation"):
            monkeypatch.setattr(driver, name, forbidden)
        with pytest.raises(ValueError, match="right-hand side length mismatch"):
            solve(a, np.ones(length))

    @pytest.mark.parametrize("solve", [solve_irregular, solve_standard])
    @pytest.mark.parametrize("scale", [1e-165, 1e160])
    def test_rhs_norm_out_of_range_rejected_before_any_work(self, solve, scale, monkeypatch):
        # ||b||^2 under- or overflows though b is nonzero: once answered by x = 0
        a = generate_test_matrix("dominant-row", 30, seed=4)

        def forbidden(*args, **kwargs):
            raise AssertionError("b must be checked before any build or permutation")

        for name in ("spai", "psai", "zero_free_diagonal_permutation", "bicgstab"):
            monkeypatch.setattr(driver, name, forbidden)
        with pytest.raises(ValueError, match="right-hand side norm is (0.0|inf)"):
            solve(a, matvec(a, np.ones(30)) * scale)

    def test_split_column_norm_overflow_rejected_before_the_build(self, monkeypatch):
        # ||b|| is fine, but a dense column's norm overflows; once found after the build
        a = generate_test_matrix("dominant-row", 80, planted_dense_cols=2, seed=7)
        huge = CscMatrix(a.n_rows, a.n_cols, a.col_ptr, a.row_idx, a.values * 1e160)

        irregular = split(huge).irregular_cols

        def forbidden(*args, **kwargs):
            raise AssertionError("U must be checked before the build and the solve")

        for name in ("build_preconditioner", "spai", "psai", "bicgstab"):
            monkeypatch.setattr(driver, name, forbidden)
        with pytest.raises(ValueError, match=rf"split-off part of column {irregular[0]} has "
                                             r"norm inf in float64; rescale A and b"):
            solve_irregular(huge, np.ones(80))

    def test_one_block_solve_per_pass(self, monkeypatch):
        # few iterations leave systems stale, so posthoc rounds re-solve them
        a = generate_test_matrix("dominant-row", 40, planted_dense_cols=3, seed=7)
        b = matvec(a, np.ones(40))
        cfg = DriverConfig(factor=dense_split_factor(a), c="posthoc", max_iter=4)
        calls = []

        def recording(apply_op, rhs, x0=None, **kwargs):
            calls.append((rhs.shape, x0 is not None))
            return bicgstab(apply_op, rhs, x0, **kwargs)

        monkeypatch.setattr(driver, "bicgstab", recording)
        rep = solve_irregular(a, b, cfg)
        assert rep.s == 3 and len(calls) > 1
        assert calls[0] == ((40, 4), False)
        assert all(restarted and 1 <= shape[1] <= 4 for shape, restarted in calls[1:])

    def test_supplied_preconditioner_solves_a_as_stored(self):
        # rows reversed: the diagonal is zero and the standard path permutes
        a = permute_rows(generate_test_matrix("dominant-row", 30, seed=4),
                         np.arange(30)[::-1])
        b = matvec(a, np.ones(30))
        cfg = DriverConfig(max_iter=5)
        rep = solve_standard(a, b, cfg, m=CscMatrix.identity(30))
        direct = bicgstab(lambda v: matvec(a, v), b[:, None], None, apply_precond=lambda v: v,
                          tol=cfg.epsilon, max_iter=cfg.max_iter).columns[0]
        assert np.array_equal(rep.x_hat, direct.x)
        assert rep.rr == pytest.approx(
            np.linalg.norm(b - matvec(a, rep.x_hat)) / np.linalg.norm(b), rel=1e-12)

    def test_dominant_irregular_instance(self):
        a = generate_test_matrix("dominant-row", 40, planted_dense_cols=2, seed=3)
        b = matvec(a, np.ones(40))
        cfg = DriverConfig(factor=dense_split_factor(a), method="psai")
        rep = solve_irregular(a, b, cfg)
        assert rep.s == 2
        assert rep.a < 1.0
        assert rep.rr == pytest.approx(
            np.linalg.norm(b - matvec(a, rep.x_hat)) / np.linalg.norm(b),
            rel=1e-12)

    def test_posthoc_policy(self):
        a = generate_test_matrix("dominant-row", 40, planted_dense_cols=2, seed=7)
        b = matvec(a, np.ones(40))
        cfg = DriverConfig(factor=dense_split_factor(a), c="posthoc")
        rep = solve_irregular(a, b, cfg)
        assert rep.a < 1.0
        assert rep.posthoc_c is not None

    def test_spai_method(self):
        a = generate_test_matrix("dominant-row", 35, planted_dense_cols=1, seed=11)
        b = matvec(a, np.ones(35))
        cfg = DriverConfig(factor=dense_split_factor(a), method="spai")
        rep = solve_irregular(a, b, cfg)
        assert rep.a < 1.0
        assert rep.method == "spai"

    def test_regular_matrix_equals_standard_path(self):
        a = generate_test_matrix("dominant-row", 40, seed=19)
        b = matvec(a, np.ones(40))
        cfg = DriverConfig()
        rep_i = solve_irregular(a, b, cfg)
        rep_s = solve_standard(a, b, cfg)
        assert rep_i.s == rep_s.s == 0
        assert np.array_equal(rep_i.x_hat, rep_s.x_hat)
        assert rep_i.iter_y == rep_s.iter_y
        assert rep_i.rr == rep_s.rr
        assert rep_i.iter_w == rep_s.iter_w == []

    def test_zero_diagonal_permutation_path(self):
        a = generate_test_matrix("dominant-row", 30, planted_dense_cols=1, seed=23)
        shift = np.roll(np.arange(30), 1)
        dense = a.to_dense()[shift, :]  # scrambled rows: zero diagonal
        scrambled = CscMatrix.from_dense(dense)
        b = dense @ np.ones(30)
        cfg = DriverConfig(factor=dense_split_factor(scrambled))
        rep = solve_irregular(scrambled, b, cfg)
        assert rep.a < 1.0
        assert np.allclose(rep.x_hat, np.ones(30), atol=1e-6)

    def test_shuffled_rows_keep_m_sparse(self):
        # the structural matching left a weak diagonal here: nnz(M) was 18.5 nnz(A)
        n = 800
        a = generate_test_matrix("dominant-row", n, planted_dense_cols=3, seed=0)
        a = permute_rows(a, np.random.default_rng(0).permutation(n))
        rep = solve_irregular(a, matvec(a, np.ones(n)))
        assert rep.a < 1.0
        assert rep.preconditioner_stats["nnz_m"] <= 2 * a.nnz

    def test_zero_free_diagonal_skips_the_matching(self, monkeypatch):
        a = generate_test_matrix("dominant-row", 60, planted_dense_cols=2, seed=5)
        b = matvec(a, np.ones(60))
        reps = {mode: solve_irregular(a, b, DriverConfig(preprocess=mode))
                for mode in ("never", "always")}

        def matching(*args, **kwargs):
            raise AssertionError("a zero-free diagonal must not be matched under 'auto'")
        monkeypatch.setattr(sparse_core, "_min_weight_matching", matching)
        auto = solve_irregular(a, b, DriverConfig(preprocess="auto"))
        for rep in reps.values():
            assert np.array_equal(auto.x_hat, rep.x_hat)
            assert auto.preconditioner_stats["nnz_m"] == rep.preconditioner_stats["nnz_m"]

    def test_always_permutes_a_weak_diagonal(self):
        a = CscMatrix.from_dense([[1e-3, 1.0], [1.0, 1e-3]])
        b = np.array([1.0, 2.0])
        a_w, b_w = driver._apply_preprocess(a, b, "auto")
        assert a_w is a and b_w is b
        a_w, b_w = driver._apply_preprocess(a, b, "always")
        assert np.array_equal(a_w.to_dense(), [[1.0, 1e-3], [1e-3, 1.0]])
        assert np.array_equal(b_w, [2.0, 1.0])

    def test_subsystem_counter_comparison(self):
        n = 60
        a = with_dense_column(tridiagonal(n, diag=2.2), 30, fill=1.0,
                              keep_diag=2.2)
        b = matvec(a, np.ones(n))
        cfg = DriverConfig(method="spai")
        rep_std = solve_standard(a, b, cfg)
        rep_new = solve_irregular(a, b, cfg)
        assert rep_std.preconditioner_stats["max_candidates"] > \
            rep_new.preconditioner_stats["max_candidates"]

    def test_report_serialization(self):
        a = CscMatrix.identity(4)
        rep = solve_irregular(a, np.ones(4))
        payload = rep.to_dict()
        assert payload["schema_version"] == 1
        assert "x_hat" in payload and len(payload["x_hat"]) == 4

    def test_report_keys_are_the_fields(self):
        payload = solve_irregular(CscMatrix.identity(4), np.ones(4)).to_dict()
        assert set(payload) == {
            "rr", "a", "iter_y", "iter_w", "max_iter_used", "preconditioner_stats",
            "small_system_condition", "converged", "flag_y", "flags_w", "resid_y",
            "resid_w", "s", "method", "posthoc_c", "schema_version", "x_hat"}

    def test_column_dominant_instance(self):
        a = generate_test_matrix("dominant-col", 50, planted_dense_cols=2, seed=29)
        b = matvec(a, np.ones(50))
        cfg = DriverConfig(factor=dense_split_factor(a))
        rep = solve_irregular(a, b, cfg)
        assert rep.s == 2
        assert rep.a < 1.0

    def test_threaded_subsystem_solves_deterministic(self):
        a = generate_test_matrix("dominant-row", 60, planted_dense_cols=3, seed=37)
        b = matvec(a, np.ones(60))
        f = dense_split_factor(a)
        rep1 = solve_irregular(a, b, DriverConfig(factor=f, threads=1))
        rep4 = solve_irregular(a, b, DriverConfig(factor=f, threads=4))
        assert np.array_equal(rep1.x_hat, rep4.x_hat)
        assert rep1.iter_w == rep4.iter_w
        assert rep1.rr == rep4.rr


@pytest.mark.parametrize("method", ["spai", "psai"])
def test_untraced_build_makes_no_per_column_objects(method, monkeypatch):
    dense = generate_test_matrix("dominant-row", 60, planted_dense_cols=1, seed=2).to_dense()
    dense[:, 7] = 0.0               # column 7 cannot be fitted and fails
    a = CscMatrix.from_dense(dense)
    cfg = DriverConfig(method=method)
    m_want, stats_want = driver.build_preconditioner(a, cfg)

    def forbidden(*args, **kwargs):
        raise AssertionError("an untraced build must not build per-column results")

    for module, name in [(spai_module, "ColumnResult"), (spai_module, "ColumnProfile"),
                         (psai_module, "PsaiColumnResult")]:
        monkeypatch.setattr(module, name, forbidden)
    m, stats = driver.build_preconditioner(a, cfg)
    assert m.same_as(m_want) and m.values.tobytes() == m_want.values.tobytes()
    assert m.per_col_nnz[7] == 0
    del stats["t_setup"], stats_want["t_setup"]
    assert stats == stats_want
    assert stats["n_c" if method == "spai" else "n_failed"] >= 1


def test_solve_calls_what_the_bench_tracer_wraps(monkeypatch):
    # perfbench's tracer wraps driver.matvec, driver.bicgstab, driver.split and
    # driver.psai, looked up at call time. It counts an A~ product as one made
    # inside bicgstab, an M product as one whose args[0] is the built M, and
    # the rr check as the product solve_irregular makes itself.
    a = generate_test_matrix("dominant-row", 60, planted_dense_cols=3, seed=3)
    original = {name: getattr(driver, name) for name in ("matvec", "bicgstab", "split", "psai")}
    seen, inside, made = [], [], {}

    def counted_matvec(*args, **kwargs):
        seen.append((args[0], bool(inside)))
        return original["matvec"](*args, **kwargs)

    def counted_bicgstab(*args, **kwargs):
        inside.append(True)
        try:
            return original["bicgstab"](*args, **kwargs)
        finally:
            inside.pop()

    def counted_split(*args, **kwargs):
        made["split"] = original["split"](*args, **kwargs)
        return made["split"]

    def counted_psai(*args, **kwargs):
        made["m"] = original["psai"](*args, **kwargs)
        return made["m"]

    for name, fn in [("matvec", counted_matvec), ("bicgstab", counted_bicgstab),
                     ("split", counted_split), ("psai", counted_psai)]:
        monkeypatch.setattr(driver, name, fn)
    rep = solve_irregular(a, matvec(a, np.ones(60)))
    a_tilde, m = made["split"].a_tilde, made["m"][0]
    assert rep.s == 3 and rep.converged and a_tilde is not a
    a_applies = sum(1 for arg, within in seen if arg is a_tilde and within)
    m_applies = sum(1 for arg, within in seen if arg is m and within)
    assert a_applies >= m_applies > 0
    assert [arg for arg, within in seen if not within] == [a]
    assert a_applies + m_applies + 1 == len(seen)


@pytest.mark.parametrize("method", ["spai", "psai"])
def test_guard_hits_count_guard_failures_by_type(method):
    # the dense columns' fits trip a small guard; the empty column 7 fails as degenerate
    dense = generate_test_matrix("dominant-row", 80, planted_dense_cols=2, seed=7).to_dense()
    dense[:, 7] = 0.0
    a = CscMatrix.from_dense(dense)
    build = {"spai": SpaiConfig, "psai": PsaiConfig}[method](max_workspace_bytes=200)
    _, rep = getattr(driver, method)(a, build)
    kinds = [msg.split(":")[0] for _, msg in rep.errors]
    assert kinds.count("DegeneratePatternError") == 1
    assert 0 < rep.guard_hits == kinds.count("WorkspaceGuardError") == len(kinds) - 1
    _, stats = driver.build_preconditioner(a, DriverConfig(method=method, **{method: build}))
    assert stats["guard_hits"] == rep.guard_hits
    if method == "psai":
        assert stats["n_failed"] == rep.n_failed == len(kinds)


class TestPosthocExits:
    """The posthoc loop's early exits keep the first pass's solves."""

    @pytest.fixture
    def instance(self):
        # few iterations leave systems stale, so a posthoc round would re-solve them
        a = generate_test_matrix("dominant-row", 40, planted_dense_cols=3, seed=7)
        b = matvec(a, np.ones(40))
        cfg = DriverConfig(factor=dense_split_factor(a), c="posthoc", max_iter=4)
        # c = 1, the budget of the posthoc policy's first pass
        return a, b, cfg, solve_irregular(a, b, replace(cfg, c=1.0))

    @staticmethod
    def assert_first_pass(rep, first_pass):
        assert rep.x_hat.tobytes() == first_pass.x_hat.tobytes()
        assert (rep.iter_y, rep.iter_w) == (first_pass.iter_y, first_pass.iter_w)
        assert (rep.resid_y, rep.resid_w) == (first_pass.resid_y, first_pass.resid_w)

    def test_singular_update_system(self, instance, monkeypatch):
        a, b, cfg, first_pass = instance
        calls = []
        solve_block = driver._solve_block

        def recording(*args, **kwargs):
            calls.append(args[2].shape[1])
            return solve_block(*args, **kwargs)

        monkeypatch.setattr(driver, "_solve_block", recording)
        assert solve_irregular(a, b, cfg).posthoc_c is not None and len(calls) > 1

        def singular(*args):
            raise AssemblyError("assembly system I + V^T W_hat is singular", 1e17)

        # the rounds stop at the first update system; the assembly meets the same one
        calls.clear()
        monkeypatch.setattr(driver, "_update_system", singular)
        with pytest.raises(AssemblyError, match="singular"):
            solve_irregular(a, b, cfg)
        assert calls == [4]

    def test_no_stale_system_improves(self, instance, monkeypatch):
        a, b, cfg, first_pass = instance
        calls, first = [], []
        solve_block = driver._solve_block

        def no_better(a_tilde, m, rhs, tols, max_iter, x0=None):
            calls.append(x0 is not None)
            if x0 is None:
                first.extend(solve_block(a_tilde, m, rhs, tols, max_iter))
                return list(first)
            # the first-pass outcomes of the re-solved columns, matched by their start
            return [next(o for o in first if np.array_equal(o.x, x0[:, j]))
                    for j in range(x0.shape[1])]

        monkeypatch.setattr(driver, "_solve_block", no_better)
        rep = solve_irregular(a, b, cfg)
        assert calls == [False, True] and rep.posthoc_c is not None
        self.assert_first_pass(rep, first_pass)
