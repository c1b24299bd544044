import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csc_matrix

from saikit import (CscMatrix, SpaiConfig, generate_test_matrix, spai_candidates,
                    spai_profitability)
from saikit.spai import spai
from .conftest import random_dominant, tridiagonal, with_dense_column
from .test_lstsq_reference import column_value_difference


def residuals(*r) -> csc_matrix:
    """Dense residual vectors as the columns of the sparse R the SPAI kernels take."""
    return csc_matrix(np.column_stack(r))


def golden_section_rho(a_dense: np.ndarray, r: np.ndarray, j: int) -> float:
    """Oracle: minimize ||r + mu * A e_j|| by scalar golden-section search."""
    col = a_dense[:, j]

    def g(mu):
        return np.linalg.norm(r + mu * col)

    lo, hi = -1e3, 1e3
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    for _ in range(200):
        if g(x1) < g(x2):
            hi = x2
        else:
            lo = x1
        x1 = hi - phi * (hi - lo)
        x2 = lo + phi * (hi - lo)
    return g((lo + hi) / 2.0)


class TestCandidates:
    def test_identity_single(self):
        a = CscMatrix.identity(5)
        r = residuals(np.eye(5)[3])
        cand = spai_candidates(a, r, [0])
        assert list(cand) == [3]

    def test_dense_column_floods_candidates(self):
        n = 12
        a = with_dense_column(tridiagonal(n), 3, keep_diag=2.0)
        r = residuals(np.ones(n))
        cand = spai_candidates(a, r, [5])
        # oracle: brute-force from the dense pattern
        dense = a.to_dense()
        expected = sorted(set(np.nonzero(dense[np.arange(n), :].any(axis=0))[0])
                          - {5})
        assert list(cand) == expected
        assert 3 in cand
        assert len(cand) == n - 1

    def test_zero_residual(self):
        a = CscMatrix.identity(3)
        r = residuals(np.zeros(3))
        assert len(spai_candidates(a, r, [0])) == 0

    def test_batch_keys(self):
        # target t's candidate j comes back as the key t * n + j
        a = tridiagonal(6)
        r = residuals(np.eye(6)[0], np.eye(6)[4])
        cand = spai_candidates(a, r, [0, 6 + 4])
        assert list(cand) == [1, 6 + 3, 6 + 5]


index_arrays = arrays(np.int64, st.integers(0, 40), elements=st.integers(0, 25))


@settings(max_examples=300, deadline=None)
@given(index_arrays, index_arrays, st.integers(0, 2 ** 31 - 1))
def test_candidate_set_difference_matches_setdiff1d(rows, s, seed):
    # repeats and unsorted arrays on both sides, and either side may be empty
    dense = np.random.default_rng(seed).random((26, 26)) < 0.1
    r = np.zeros(26)
    r[rows] = 1.0
    got = spai_candidates(CscMatrix.from_dense(dense.astype(float)), residuals(r), s)
    want = np.setdiff1d(np.flatnonzero(dense[rows].any(axis=0)), s)
    assert got.dtype == want.dtype and np.array_equal(got, want)


class TestProfitability:
    def test_orthogonal_column_cannot_help(self):
        a = CscMatrix.from_dense([[1.0, 0.0], [0.0, 1.0]])
        r = residuals([1.0, 0.0])
        keys, rho, _ = spai_profitability(a, r, [1])
        assert list(keys) == [1] and list(rho) == [pytest.approx(1.0)]

    def test_parallel_column_zeroes_residual(self):
        a = CscMatrix.from_dense([[2.0, 1.0], [0.0, 0.5]])
        r = residuals([2.0, 1.0])  # parallel to column 1
        _, rho, _ = spai_profitability(a, r, [1])
        assert rho[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_golden_section_oracle(self):
        rng = np.random.default_rng(21)
        dense = rng.standard_normal((10, 10))
        a = CscMatrix.from_dense(dense)
        r = rng.standard_normal(10)
        keys, rho, _ = spai_profitability(a, residuals(r), list(range(10)))
        for j, rho_j in zip(keys, rho):
            assert rho_j == pytest.approx(golden_section_rho(dense, r, j), abs=1e-8)

    def test_zero_column_skipped(self):
        a = CscMatrix.from_dense([[1.0, 0.0], [0.0, 0.0]])
        keys, _, skipped = spai_profitability(a, residuals([1.0, 1.0]), [0, 1])
        assert list(keys) == [0]
        assert list(skipped) == [1]

    def test_batch_matches_targets_scored_alone(self):
        rng = np.random.default_rng(8)
        dense = rng.standard_normal((9, 9)) * (rng.random((9, 9)) < 0.4)
        a = CscMatrix.from_dense(dense)
        r = rng.standard_normal((9, 3)) * (rng.random((9, 3)) < 0.6)
        cand = np.array([0, 4, 8, 9 + 2, 9 + 3, 18 + 0, 18 + 7])
        keys, rho, _ = spai_profitability(a, csc_matrix(r), cand)
        for t in range(3):
            alone_keys, alone_rho, _ = spai_profitability(
                a, residuals(r[:, t]), cand[cand // 9 == t] - 9 * t)
            mine = keys // 9 == t
            assert np.array_equal(keys[mine] - 9 * t, alone_keys)
            assert rho[mine].tobytes() == alone_rho.tobytes()


def built_columns(a: CscMatrix, cfg: SpaiConfig) -> list:
    """Every column result of one build of ``a``, which no column fails."""
    _, rep = spai(a, cfg)
    assert rep.errors == []
    return rep.columns


class TestColumn:
    def test_identity(self):
        res = built_columns(CscMatrix.identity(6), SpaiConfig())[2]
        assert np.array_equal(res.m_k.to_dense(), np.eye(6)[2])
        assert res.residual_norm == 0.0
        assert res.loops_used == 0
        assert res.converged

    def test_2x2_stops_at_loose_delta(self):
        # with delta = 0.4 the single-entry pattern already satisfies the bound
        a = CscMatrix.from_dense([[2.0, 1.0], [0.0, 3.0]])
        res = built_columns(a, SpaiConfig(delta=0.4))[1]
        assert res.converged and res.loops_used == 0
        assert res.residual_norm == pytest.approx(np.sqrt(0.1), abs=1e-12)
        assert np.allclose(res.m_k.to_dense(), [0.0, 0.3], atol=1e-12)

    def test_2x2_exact_inverse_after_one_augmentation(self):
        a = CscMatrix.from_dense([[2.0, 1.0], [0.0, 3.0]])
        res = built_columns(a, SpaiConfig(delta=0.3))[1]
        assert res.converged and res.loops_used == 1
        assert np.allclose(res.m_k.to_dense(), [-1 / 6, 1 / 3], atol=1e-12)
        assert res.residual_norm <= 1e-12

    def test_dominant_matrix_all_columns_converge(self):
        a = random_dominant(30, seed=17)
        dense = a.to_dense()
        cfg = SpaiConfig(delta=0.4, mn=5, l_max=20)
        for k, res in enumerate(built_columns(a, cfg)):
            assert res.converged
            # oracle: recompute the residual from scratch
            e = np.zeros(30); e[k] = 1.0
            assert np.linalg.norm(dense @ res.m_k.to_dense() - e) <= 0.4 + 1e-12

    def test_residual_sequence_non_increasing(self):
        a = random_dominant(25, seed=5)
        for res in built_columns(a, SpaiConfig(delta=0.01, l_max=8)):
            seq = res.profile.residual_norms
            assert all(b <= x + 1e-12 for x, b in zip(seq, seq[1:]))

    def test_nnz_bound(self):
        a = random_dominant(40, seed=29)
        cfg = SpaiConfig(delta=0.01, mn=3, l_max=4)
        for res in built_columns(a, cfg):
            assert res.m_k.nnz <= 1 + cfg.mn * cfg.l_max

    def test_rho_minimal_choices(self):
        a = random_dominant(30, seed=41)
        cfg = SpaiConfig(delta=0.005, mn=4, l_max=6, record_choices=True)
        checked = 0
        for res in built_columns(a, cfg):
            for rhos, chosen in zip(res.profile.choices, res.profile.chosen):
                chosen_set = set(chosen)
                worst_chosen = max(rho for j, rho in rhos if j in chosen_set)
                for j, rho in rhos:
                    if j not in chosen_set:
                        assert rho >= worst_chosen - 1e-15
                        checked += 1
        assert checked > 0

    def test_zero_column_raises_through_fallback(self):
        # the column's DegeneratePatternError is recorded, not raised out of the build
        dense = np.eye(4)
        dense[3, 3] = 0.0
        _, rep = spai(CscMatrix.from_dense(dense), SpaiConfig())
        assert rep.errors == [(3, "DegeneratePatternError: empty initial pattern")]
        assert rep.columns[3].error == rep.errors[0][1]


class TestAssembly:
    def test_identity(self):
        m, report = spai(CscMatrix.identity(7))
        assert m.same_as(CscMatrix.identity(7))
        assert report.n_c == 0

    def test_scaled_identity(self):
        a = CscMatrix.from_dense(2.0 * np.eye(5))
        m, report = spai(a)
        assert np.allclose(m.to_dense(), 0.5 * np.eye(5))
        assert report.n_c == 0

    def test_frobenius_bound(self):
        a = random_dominant(40, seed=101)
        cfg = SpaiConfig(delta=0.4)
        m, report = spai(a, cfg)
        assert report.n_c == 0
        frob = np.linalg.norm(a.to_dense() @ m.to_dense() - np.eye(40), "fro")
        assert frob <= np.sqrt(40) * cfg.delta

    def test_zero_column_yields_best_effort(self):
        dense = np.eye(4)
        dense[2, 2] = 0.0
        a = CscMatrix.from_dense(dense)
        m, report = spai(a)
        assert report.n_c == 1
        assert report.errors and report.errors[0][0] == 2
        assert m.per_col_nnz[2] == 0

    def test_threads_deterministic(self):
        a = random_dominant(25, seed=77, planted=1)
        m1, _ = spai(a, SpaiConfig(), threads=1)
        m2, _ = spai(a, SpaiConfig(), threads=3)
        assert m1.same_as(m2)


def test_spai_and_psai_name_their_modules():
    import types

    import saikit
    import saikit.spai as m
    assert isinstance(saikit.spai, types.ModuleType)
    assert isinstance(saikit.psai, types.ModuleType)
    assert callable(m.spai) and callable(saikit.psai.psai)


class TestIrregularityCounters:
    def test_candidate_flood_on_dense_column(self):
        from saikit import split
        n = 150
        a = with_dense_column(tridiagonal(n, diag=2.2), 40, fill=1.0,
                              keep_diag=2.2)
        sys_ = split(a, factor=10.0)
        assert sys_.s == 1
        cfg = SpaiConfig(delta=0.4)
        _, rep_a = spai(a, cfg)
        _, rep_t = spai(sys_.a_tilde, cfg)
        assert rep_a.max_candidates >= 10 * max(rep_t.max_candidates, 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_pick_order_needs_no_column_key(seed):
    # the scored keys come sorted by (owner, col), so a stable sort on
    # (owner, rho) breaks rho ties by column, as the three-key sort does
    rng = np.random.default_rng(seed)
    n_t, n = int(rng.integers(1, 6)), int(rng.integers(1, 30))
    keys = np.unique(rng.integers(0, n_t * n, size=int(rng.integers(0, 3 * n))))
    owner, cols = keys // n, keys % n
    rho = rng.choice(rng.random(int(rng.integers(1, 4))), size=len(keys))   # many ties
    assert np.array_equal(np.lexsort((rho, owner)), np.lexsort((cols, rho, owner)))


@pytest.mark.parametrize("scale", [1e160, 1e155, 1e-155, 1e-170])
def test_builds_at_extreme_scales(scale):
    # ||A e_j||^2 and the squared dots overflow, are subnormal or underflow
    # to 0 here; those candidates are scored by (dot / ||A e_j||)^2
    a = generate_test_matrix("dominant-row", 80, planted_dense_cols=2, seed=7)
    scaled = CscMatrix(a.n_rows, a.n_cols, a.col_ptr, a.row_idx, a.values * scale)
    cfg = SpaiConfig(delta=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, m_scaled = spai(a, cfg)[0], spai(scaled, cfg)[0]
    assert np.array_equal(m_scaled.col_ptr, m.col_ptr)
    assert np.array_equal(m_scaled.row_idx, m.row_idx)
    back = CscMatrix(m.n_rows, m.n_cols, m.col_ptr, m.row_idx, m_scaled.values * scale)
    assert column_value_difference(back, m) <= 1e-14
