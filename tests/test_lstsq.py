import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saikit import CscMatrix, DegeneratePatternError, WorkspaceGuardError, ls_init


def dense_ls_residual(dense: np.ndarray, cols, k: int) -> float:
    """Independent oracle: SVD least squares on the chosen columns."""
    sub = dense[:, sorted(cols)]
    e_k = np.zeros(dense.shape[0])
    e_k[k] = 1.0
    coef, *_ = np.linalg.lstsq(sub, e_k, rcond=None)
    return float(np.linalg.norm(sub @ coef - e_k))


def full_residual(dense: np.ndarray, ws) -> float:
    sol = ws.solution().to_dense()
    e_k = np.zeros(dense.shape[0])
    e_k[ws.k] = 1.0
    return float(np.linalg.norm(dense @ sol - e_k))


class TestInit:
    def test_identity_column(self):
        ws = ls_init(CscMatrix.identity(4), 0, [0])
        assert np.array_equal(ws.solution().to_dense(), [1.0, 0, 0, 0])
        assert ws.residual_norm == 0.0

    def test_exact_2x2_inverse_column(self):
        a = CscMatrix.from_dense([[2.0, 1.0], [0.0, 3.0]])
        ws = ls_init(a, 1, [0, 1])
        assert np.allclose(ws.solution().to_dense(), [-1 / 6, 1 / 3], atol=1e-14)
        assert ws.residual_norm <= 1e-14

    def test_tall_block_matches_normal_equations(self):
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((4, 2))
        a = CscMatrix.from_dense(dense)
        ws = ls_init(a, 2, [0, 1])
        # oracle: normal equations solved densely
        e = np.zeros(4)
        e[2] = 1.0
        coef = np.linalg.solve(dense.T @ dense, dense.T @ e)
        assert np.allclose(ws.solution().to_dense(), coef, atol=1e-10)

    def test_row_k_always_included(self):
        # column 0 has no entry at row 2, yet the subproblem must see e_k
        a = CscMatrix.from_dense([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ws = ls_init(a, 2, [0])
        assert 2 in set(ws.rows)
        assert ws.residual_norm == pytest.approx(1.0)

    def test_degenerate(self):
        a = CscMatrix.from_dense([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegeneratePatternError):
            ls_init(a, 1, [1])

    def test_workspace_guard(self):
        a = CscMatrix.from_dense(np.eye(50))
        with pytest.raises(WorkspaceGuardError):
            ls_init(a, 0, list(range(50)), max_workspace_bytes=100)

    def test_underdetermined_pattern(self):
        # more pattern columns than active rows: extras go dependent, coef 0
        dense = np.zeros((6, 6))
        dense[0, :4] = [1.0, 2.0, 3.0, 4.0]
        a = CscMatrix.from_dense(dense)
        ws = ls_init(a, 0, [0, 1, 2, 3])
        sol = ws.solution().to_dense()
        assert np.count_nonzero(sol) == 1
        assert ws.residual_norm <= 1e-14
        assert len(ws.rows) == 1  # only row 0 (k itself) is active


class TestAugment:
    def test_orthogonal_column_leaves_residual(self):
        # residual after fitting col 0 lies along e_1; col 1 is orthogonal to it
        a = CscMatrix.from_dense([[1.0, 0.0, 0.0],
                                  [0.0, 0.0, 1.0],
                                  [0.0, 1.0, 0.0]])
        ws = ls_init(a, 1, [0])
        before = ws.residual_norm
        ws.augment(a, [1])
        assert ws.residual_norm <= before + 1e-12
        assert ws.residual_norm == pytest.approx(before, abs=1e-12)

    def test_full_pattern_reaches_zero(self):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        a = CscMatrix.from_dense(dense)
        ws = ls_init(a, 2, [2])
        ws.augment(a, [0, 1, 3, 4, 5])
        assert ws.residual_norm <= 1e-10
        # oracle: from-scratch full-pattern solve
        assert dense_ls_residual(dense, range(6), 2) <= 1e-10

    def test_incremental_matches_one_shot(self):
        rng = np.random.default_rng(12)
        dense = rng.standard_normal((10, 10))
        a = CscMatrix.from_dense(dense)
        ws = ls_init(a, 4, [4])
        for j in [1, 7, 2, 9]:
            ws.augment(a, [j])
        fresh = ls_init(a, 4, [4, 1, 7, 2, 9])
        assert np.allclose(ws.solution().to_dense(), fresh.solution().to_dense(),
                           atol=1e-9)

    def test_disjointness_enforced(self):
        a = CscMatrix.identity(3)
        ws = ls_init(a, 0, [0])
        with pytest.raises(ValueError):
            ws.augment(a, [0])

    def test_out_of_range(self):
        a = CscMatrix.identity(3)
        ws = ls_init(a, 0, [0])
        with pytest.raises(ValueError):
            ws.augment(a, [5])


class TestDrop:
    def test_drop_zero_coefficient_column(self):
        # col 2 duplicates col 0, so the factorization marks it dependent (coef 0)
        dense = np.array([[1.0, 0.0, 1.0],
                          [0.0, 1.0, 0.0],
                          [0.0, 0.0, 0.0]])
        a = CscMatrix.from_dense(dense)
        ws = ls_init(a, 0, [0, 1, 2])
        sol = ws.solution().to_dense()
        assert sol[2] == 0.0
        before = ws.residual_norm
        ws2 = ws.drop_columns(a, [2])
        assert abs(ws2.residual_norm - before) <= 1e-12

    def test_drop_then_readd(self):
        rng = np.random.default_rng(9)
        dense = rng.standard_normal((8, 8))
        a = CscMatrix.from_dense(dense)
        ws = ls_init(a, 3, [3, 1, 5])
        sol_before = ws.solution().to_dense()
        ws2 = ws.drop_columns(a, [5])
        ws2.augment(a, [5])
        assert np.allclose(ws2.solution().to_dense(), sol_before, atol=1e-9)

    def test_drop_everything_rejected(self):
        a = CscMatrix.identity(2)
        ws = ls_init(a, 0, [0])
        with pytest.raises(DegeneratePatternError):
            ws.drop_columns(a, [0])


@st.composite
def ls_instances(draw):
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 51))
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5)
    k = int(rng.integers(n))
    size = int(rng.integers(1, n))
    cols = rng.choice(n, size=size, replace=False)
    return dense, k, cols, rng


@settings(max_examples=50, deadline=None)
@given(ls_instances())
def test_matches_svd_oracle_and_recomputation(instance):
    dense, k, cols, _ = instance
    a = CscMatrix.from_dense(dense)
    try:
        ws = ls_init(a, k, cols)
    except DegeneratePatternError:
        cols_dense = dense[:, sorted(cols)]
        assert not cols_dense.any()
        return
    oracle = dense_ls_residual(dense, cols, k)
    assert abs(ws.residual_norm - oracle) <= 1e-9 * max(1.0, oracle)
    # stored residual equals a from-scratch evaluation over the full system
    assert abs(ws.residual_norm - full_residual(dense, ws)) <= \
        1e-10 * max(1.0, ws.residual_norm)


@settings(max_examples=50, deadline=None)
@given(ls_instances())
def test_augment_monotonicity(instance):
    dense, k, cols, rng = instance
    a = CscMatrix.from_dense(dense)
    try:
        ws = ls_init(a, k, cols)
    except DegeneratePatternError:
        return
    n = dense.shape[1]
    remaining = np.setdiff1d(np.arange(n), ws.cols)
    prev = ws.residual_norm
    while len(remaining):
        take = remaining[: max(1, len(remaining) // 2)]
        remaining = remaining[len(take):]
        ws.augment(a, take)
        assert ws.residual_norm <= prev + 1e-12
        prev = ws.residual_norm
    assert abs(ws.residual_norm - full_residual(dense, ws)) <= \
        1e-10 * max(1.0, ws.residual_norm)
