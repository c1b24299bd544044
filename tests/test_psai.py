import warnings

import numpy as np
import pytest

from saikit import CscMatrix, PsaiConfig, SpaiConfig, generate_test_matrix, norm1, psai_tol
from saikit.psai import psai
from . import loop_reference
from .conftest import random_dominant, tridiagonal


def boolean_power_pattern(a_dense: np.ndarray, k: int, loops: int) -> set:
    """Oracle: reachable pattern of (I + |A|)^loops applied to e_k."""
    n = a_dense.shape[0]
    b = (np.abs(a_dense) > 0) | np.eye(n, dtype=bool)
    reach = np.zeros(n, dtype=bool)
    reach[k] = True
    for _ in range(loops):
        reach = b @ reach
    return set(np.flatnonzero(reach))


class TestTol:
    def test_direct_substitution(self):
        assert psai_tol(0.4, 1, 1.0) == pytest.approx(0.4)
        assert psai_tol(0.4, 8, 5.0) == pytest.approx(0.01)

    def test_homogeneity(self):
        assert psai_tol(0.4, 6, 2.0) == pytest.approx(psai_tol(0.4, 3, 2.0) / 2)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            psai_tol(0.4, 0, 1.0)
        with pytest.raises(ValueError):
            psai_tol(0.4, 1, 0.0)
        with pytest.raises(ValueError):
            psai_tol(0.4, np.array([3, 0, 2]), 1.0)

    def test_array_call_is_the_scalar_calls(self):
        nnz = np.array([1, 2, 3, 7, 40, 1000])
        got = psai_tol(0.1, nnz, 3.7)
        want = [psai_tol(0.1, int(k), 3.7) for k in nnz]
        assert [np.float64(t).tobytes() for t in got] == [np.float64(t).tobytes() for t in want]

    def test_huge_matrix_keeps_the_unscaled_pattern(self):
        # nnz(m_k) * ||A||_1 overflows for ||A||_1 near the top of the float range
        a = generate_test_matrix("dominant-row", 80, planted_dense_cols=2, seed=7)
        huge = CscMatrix(a.n_rows, a.n_cols, a.col_ptr, a.row_idx, a.values * 1e307)
        want, _ = psai(a, PsaiConfig(delta=0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, _ = psai(huge, PsaiConfig(delta=0.1))
        assert want.nnz == 922
        assert np.array_equal(got.col_ptr, want.col_ptr)
        assert np.array_equal(got.row_idx, want.row_idx)

    def test_all_zero_matrix_fails_every_column(self):
        m, report = psai(CscMatrix.empty(4, 4))
        assert len(report.errors) == 4 and m.nnz == 0


class TestConfig:
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_fixed_tolerance_rejected(self, value):
        with pytest.raises(ValueError):
            PsaiConfig(tol_policy=value)

    @pytest.mark.parametrize("guard", [0, -1])
    @pytest.mark.parametrize("config", [SpaiConfig, PsaiConfig])
    def test_workspace_guard_below_one_rejected(self, config, guard):
        with pytest.raises(ValueError, match="max_workspace_bytes"):
            config(max_workspace_bytes=guard)
        assert config(max_workspace_bytes=None).max_workspace_bytes is None


def built_columns(a: CscMatrix, cfg: PsaiConfig, dropping: bool = True) -> list:
    """Every column result of one build of ``a``, which no column fails."""
    _, rep = psai(a, cfg, dropping=dropping)
    assert rep.errors == []
    return rep.columns


class TestColumn:
    def test_identity(self):
        res = built_columns(CscMatrix.identity(5), PsaiConfig())[3]
        assert np.array_equal(res.m_k.to_dense(), np.eye(5)[3])
        assert res.loops_used == 0
        assert res.converged

    def test_2x2_exact_after_one_growth(self):
        a = CscMatrix.from_dense([[2.0, 1.0], [0.0, 3.0]])
        res = built_columns(a, PsaiConfig(delta=0.3))[1]
        assert res.loops_used == 1
        assert np.allclose(res.m_k.to_dense(), [-1 / 6, 1 / 3], atol=1e-12)
        assert res.residual_norm <= 1e-12

    def test_tridiagonal_dominant(self):
        a = tridiagonal(30, diag=3.0)
        dense = a.to_dense()
        cfg = PsaiConfig(delta=0.4, l_max=10)
        for k, res in enumerate(built_columns(a, cfg)):
            assert res.converged and res.loops_used <= 10
            e = np.zeros(30); e[k] = 1.0
            assert np.linalg.norm(dense @ res.m_k.to_dense() - e) <= 0.4 + 1e-12
            # every drop honored the tolerance recorded at its loop
            for loop, j, mag, tol in res.drops:
                assert mag <= tol

    def test_degenerate_column_mentions_index(self):
        dense = np.eye(4)
        dense[2, 2] = 0.0
        _, rep = psai(CscMatrix.from_dense(dense), PsaiConfig())
        # the report pairs the text with its column, as SPAI's does
        assert rep.errors == [(2, "DegeneratePatternError: "
                                  "pattern selects an all-zero submatrix")]

    def test_pivotal_entry_never_dropped(self):
        a = random_dominant(25, seed=3)
        for k, res in enumerate(built_columns(a, PsaiConfig(delta=0.4))):
            assert all(j != k for _, j, _, _ in res.drops)

    def test_fixed_tolerance_mode(self):
        a = tridiagonal(12, diag=3.0)
        res_loose = built_columns(a, PsaiConfig(delta=0.05, tol_policy=0.2, l_max=4))[6]
        res_tight = built_columns(a, PsaiConfig(delta=0.05, tol_policy=0.0, l_max=4))[6]
        assert res_loose.m_k.nnz <= res_tight.m_k.nnz


class TestBasicVariant:
    def test_identity(self):
        res = built_columns(CscMatrix.identity(4), PsaiConfig(), dropping=False)[1]
        assert np.array_equal(res.m_k.to_dense(), np.eye(4)[1])

    def test_dropping_only_removes(self):
        a = random_dominant(30, seed=9)
        cfg = PsaiConfig(delta=0.2, l_max=6)
        basic = built_columns(a, cfg, dropping=False)
        for b, dropped in zip(basic, built_columns(a, cfg)):
            assert dropped.m_k.nnz <= b.m_k.nnz
        assert basic[0].dropped_count == 0

    def test_two_delta_guarantee_on_dominant_instances(self):
        cfg = PsaiConfig(delta=0.4, l_max=10)
        for seed in range(5):
            a = random_dominant(20, seed=seed)
            dense = a.to_dense()
            basic = built_columns(a, cfg, dropping=False)
            for k, res in enumerate(built_columns(a, cfg)):
                assert basic[k].residual_norm <= cfg.delta
                e = np.zeros(20); e[k] = 1.0
                true_resid = np.linalg.norm(dense @ res.m_k.to_dense() - e)
                assert true_resid <= 2 * cfg.delta + 1e-12


class TestEnvelope:
    def test_pattern_contained_in_boolean_power(self):
        for seed in (1, 2, 3):
            a = random_dominant(15, seed=seed)
            dense = a.to_dense()
            for k, res in enumerate(built_columns(a, PsaiConfig(delta=0.1, l_max=5))):
                envelope = boolean_power_pattern(dense, k, res.loops_used)
                assert set(res.m_k.indices.tolist()) <= envelope


class TestAssembly:
    def test_identity(self):
        m, report = psai(CscMatrix.identity(6))
        assert m.same_as(CscMatrix.identity(6))
        assert report.l_m == 0

    def test_bidiagonal(self):
        dense = 4.0 * np.eye(20) + np.diag(np.ones(19), k=1)
        a = CscMatrix.from_dense(dense)
        cfg = PsaiConfig(delta=0.4, l_max=10)
        m, report = psai(a, cfg)
        assert report.l_m <= 10
        resid = dense @ m.to_dense() - np.eye(20)
        assert np.all(np.linalg.norm(resid, axis=0) <= 0.4 + 1e-12)

    def test_pattern_envelope_via_boolean_powers(self):
        a = random_dominant(15, seed=8)
        dense = a.to_dense()
        m, report = psai(a, PsaiConfig(delta=0.1, l_max=4))
        for k in range(15):
            envelope = boolean_power_pattern(dense, k, report.columns[k].loops_used)
            rows = set(m.col(k)[0].tolist())
            assert rows <= envelope

    @pytest.mark.parametrize("seed", [3, 8, 31])
    def test_tolerances_are_psai_tol_bit_for_bit(self, seed):
        # the build computes every column's tolerance in one vector expression
        a = random_dominant(30, seed=seed, planted=1)
        cfg = PsaiConfig(delta=0.1)
        _, report = psai(a, cfg)
        _, reference = loop_reference.psai(a, cfg)
        assert [c.tol_history for c in report.columns] == \
            [c.tol_history for c in reference.columns]
        assert any(c.drops for c in report.columns)

    def test_threads_deterministic(self):
        a = random_dominant(20, seed=31, planted=1)
        m1, _ = psai(a, PsaiConfig(), threads=1)
        m2, _ = psai(a, PsaiConfig(), threads=3)
        assert m1.same_as(m2)

    def test_norm1_feeds_tolerance(self):
        a = tridiagonal(10, diag=3.0)
        assert norm1(a) == 5.0
