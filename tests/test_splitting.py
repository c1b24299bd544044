import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saikit import (CscMatrix, ZeroDiagonalError, classify, column_stats,
                    dense_lu_min_pivot, dominance_margins, generate_test_matrix,
                    norm1, norm_inf, read_matrix_market, reconstruct, split)
from .conftest import dense_split_factor, require_uf, tridiagonal, with_dense_column


class TestSplit:
    def test_regular_matrix_untouched(self):
        a = tridiagonal(8)
        sys_ = split(a, factor=10.0)
        assert sys_.s == 0
        assert sys_.a_tilde.same_as(a)
        assert sys_.u.n_cols == 0

    def test_hand_constructed_5x5(self):
        a = with_dense_column(tridiagonal(5), 2, fill=0.5, keep_diag=2.0)
        sys_ = split(a, factor=1.5, strategy="nearest")
        assert list(sys_.irregular_cols) == [2]
        assert sys_.p_kept == 3
        kept_rows, _ = sys_.a_tilde.col(2)
        assert list(kept_rows) == [1, 2, 3]
        u_rows, _ = sys_.u.col(0)
        assert list(u_rows) == [0, 4]
        assert reconstruct(sys_).same_as(a)

    def test_largest_magnitude_strategy(self):
        dense = np.diag([5.0, 5.0, 5.0, 5.0])
        dense[:, 1] = [0.01, 5.0, -3.0, 2.0]
        a = CscMatrix.from_dense(dense)
        sys_ = split(a, factor=1.2, p_kept=3, strategy="largest")
        kept_rows, _ = sys_.a_tilde.col(1)
        assert list(kept_rows) == [1, 2, 3]  # diagonal plus |-3|, |2|
        assert reconstruct(sys_).same_as(a)

    def test_zero_diagonal_rejected(self):
        dense = np.eye(5)
        dense[:, 2] = 1.0
        dense[2, 2] = 0.0
        a = CscMatrix.from_dense(dense)
        with pytest.raises(ZeroDiagonalError, match="permutation"):
            split(a, factor=1.1)

    def test_small_irregular_column_left_alone(self):
        # column is over the census threshold but has <= p_kept entries
        a = tridiagonal(6)
        sys_ = split(a, factor=1.0, p_kept=5)
        assert sys_.s == 0
        assert sys_.a_tilde.same_as(a)

    def test_p_kept_validation(self):
        with pytest.raises(ValueError):
            split(tridiagonal(4), p_kept=0)

    def test_unknown_strategy_rejected_with_no_irregular_column(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            split(tridiagonal(4), strategy="bogus")

    def test_norms_never_grow(self):
        a = generate_test_matrix("dominant-row", 40, planted_dense_cols=2, seed=5)
        sys_ = split(a, factor=dense_split_factor(a))
        assert sys_.s == 2
        assert norm1(sys_.a_tilde) <= norm1(a)
        assert norm_inf(sys_.a_tilde) <= norm_inf(a)

    def test_untouched_columns_bit_identical(self):
        a = generate_test_matrix("dominant-row", 30, planted_dense_cols=1, seed=9)
        sys_ = split(a, factor=dense_split_factor(a))
        (j,) = sys_.irregular_cols
        for col in range(30):
            if col == j:
                continue
            r0, v0 = a.col(col)
            r1, v1 = sys_.a_tilde.col(col)
            assert np.array_equal(r0, r1) and np.array_equal(v0, v1)

    def test_reference_matrix_split(self):
        path = require_uf("fs_541_3")
        a = read_matrix_market(path)
        sys_ = split(a, factor=10.0)
        assert sys_.s == 1
        assert a.nnz == 4282
        assert sys_.a_tilde.nnz == 3745


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(0, 3))
def test_reconstruction_identity(seed, planted):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    planted = min(planted, n // 4)
    a = generate_test_matrix("dominant-row", n, planted_dense_cols=planted,
                             seed=seed)
    sys_ = split(a, factor=dense_split_factor(a))
    assert sys_.s == planted
    assert reconstruct(sys_).same_as(a)


class TestClassify:
    def test_identity(self):
        rep = classify(CscMatrix.identity(4))
        assert rep.strict_row_dd and rep.strict_col_dd
        assert rep.m_matrix and rep.m_matrix_certified

    def test_margin_arithmetic(self):
        rep = classify(CscMatrix.from_dense([[1.0, -2.0], [0.0, 1.0]]))
        assert not rep.strict_row_dd
        assert np.allclose(rep.beta, [-1.0, 1.0])

    def test_generated_dominant_row(self):
        for seed in range(5):
            a = generate_test_matrix("dominant-row", 25, seed=seed)
            assert classify(a).strict_row_dd

    def test_generated_dominant_col(self):
        for seed in range(5):
            a = generate_test_matrix("dominant-col", 25, seed=seed)
            assert classify(a).strict_col_dd

    def test_generated_m_matrix(self):
        for seed in range(5):
            a = generate_test_matrix("m-matrix", 20, seed=seed)
            rep = classify(a)
            assert rep.m_matrix and rep.m_matrix_certified
            inv = np.linalg.inv(a.to_dense())
            assert np.all(inv >= -1e-12)

    def test_generated_irreducible(self):
        for seed in range(5):
            a = generate_test_matrix("irreducible-dd", 15, seed=seed)
            assert classify(a).irreducible

    def test_reducible_detected(self):
        rep = classify(CscMatrix.from_dense([[1.0, 1.0], [0.0, 1.0]]))
        assert not rep.irreducible

    def test_cutoff_leaves_m_matrix_uncertified(self):
        rep = classify(generate_test_matrix("m-matrix", 401, seed=0))   # one row over the cutoff
        assert rep.m_matrix and not rep.m_matrix_certified


class TestDominanceMargins:
    def test_scaled_identity_bound_is_exact(self):
        a = CscMatrix.from_dense(2.0 * np.eye(6))
        beta, beta_tilde, bound_a, bound_t = dominance_margins(a, a)
        assert np.allclose(beta, 2.0)
        assert bound_a == pytest.approx(0.5)
        inv_norm = norm_inf(CscMatrix.from_dense(np.linalg.inv(a.to_dense())))
        assert inv_norm == pytest.approx(bound_a)

    def test_split_improves_min_margin(self):
        a = generate_test_matrix("dominant-row", 40, planted_dense_cols=1, seed=13)
        sys_ = split(a, factor=dense_split_factor(a))
        beta, beta_tilde, bound_a, bound_t = dominance_margins(a, sys_.a_tilde)
        assert np.all(beta_tilde >= beta)
        assert beta_tilde.min() >= beta.min()
        assert bound_t <= bound_a
        assert np.any(beta_tilde > beta)

    def test_bound_dominates_dense_inverse_norm(self):
        for seed in range(5):
            a = generate_test_matrix("dominant-row", 20, seed=seed)
            beta, _, bound_a, _ = dominance_margins(a, a)
            inv = np.linalg.inv(a.to_dense())
            assert np.abs(inv).sum(axis=1).max() <= bound_a + 1e-12

    def test_non_dominant_rejected(self):
        a = CscMatrix.from_dense([[1.0, -2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            dominance_margins(a, a)


class TestGenerator:
    def test_planted_columns_counted(self):
        a = generate_test_matrix("dominant-row", 50, planted_dense_cols=2, seed=21)
        stats = column_stats(a, dense_split_factor(a))
        assert stats.s == 2
        assert stats.p_d == 50

    def test_lu_nonsingular(self):
        for kind in ("dominant-row", "dominant-col", "m-matrix"):
            a = generate_test_matrix(kind, 30, planted_dense_cols=1, seed=2)
            assert dense_lu_min_pivot(a) > 0.0

    def test_infeasible_requests(self):
        with pytest.raises(ValueError):
            generate_test_matrix("irreducible-dd", 10, density=0.0)
        with pytest.raises(ValueError):
            generate_test_matrix("dominant-row", 1)
        with pytest.raises(ValueError):
            generate_test_matrix("no-such-kind", 10)

    def test_deterministic_for_seed(self):
        a = generate_test_matrix("dominant-row", 20, planted_dense_cols=1, seed=4)
        b = generate_test_matrix("dominant-row", 20, planted_dense_cols=1, seed=4)
        assert a.same_as(b)
