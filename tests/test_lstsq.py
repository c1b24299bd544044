import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saikit import (CscMatrix, DegeneratePatternError, PsaiConfig, WorkspaceGuardError,
                    generate_test_matrix, ls_init)
from saikit import lstsq
from saikit.psai import psai

from .test_lstsq_reference import column_value_difference


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

    def test_overflowing_coefficient(self):
        # ||a||^2 underflows, so the QR fits 1 / 1e-310, which overflows
        with pytest.raises(DegeneratePatternError, match="not finite"):
            ls_init(CscMatrix.from_dense([[1e-310]]), 0, [0])

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


class TestBatchFailure:
    def test_guard_trip_mid_build_reads_nan_and_leaves_no_state(self):
        # the lockstep builds stop a failed target by its NaN residual norm alone
        a = CscMatrix.from_dense(np.eye(8) + np.diag(np.ones(7), 1) + np.diag(np.ones(7), -1))
        ws = ls_init(a, np.array([0, 4]), (np.array([0, 1]), np.array([0, 4])),
                     max_workspace_bytes=200)
        assert not ws.errors and np.isfinite(ws.residual_norms).all()
        ws.augment(a, [1, 2, 3, 5, 6, 7], [0, 1, 1, 1, 1, 1])
        assert list(ws.errors) == [1] and isinstance(ws.errors[1], WorkspaceGuardError)
        assert np.isnan(ws.residual_norms[1]) and not ws.residual_norms[1] > 0.0
        assert np.isfinite(ws.residual_norms[0])
        assert not (ws.pattern()[0] == 1).any()
        assert not (ws.residuals()[0] == 1).any()

    def test_overflowing_coefficient_fails_alone(self):
        a = CscMatrix.from_dense(np.diag([2.0, 1e-310, 4.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ws = ls_init(a, np.arange(3), (np.arange(3), np.arange(3)))
        assert list(ws.errors) == [1] and isinstance(ws.errors[1], DegeneratePatternError)
        assert np.isnan(ws.residual_norms[1])
        assert ws.residual_norms[[0, 2]].tolist() == [0.0, 0.0]
        owner, cols, coeffs = ws.pattern()
        assert owner.tolist() == [0, 2] and coeffs.tolist() == [0.5, 0.25]


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


def one_column_block(rng) -> tuple[np.ndarray, np.ndarray]:
    """A block column with stored zeros, maybe all zero, at a scale in 1e-155..1e155,
    and the mask of its row k."""
    m = int(rng.integers(1, 40))
    col = rng.standard_normal(m) * (rng.random(m) < rng.choice([0.3, 0.7, 1.0]))
    if rng.random() < 0.1:
        col[:] = 0.0
    return col * 10.0 ** rng.uniform(-155, 155), np.arange(m) == rng.integers(m)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_one_column_fit_matches_householder(seed):
    rng = np.random.default_rng(seed)
    blocks = [one_column_block(rng) for _ in range(int(rng.integers(1, 5)))]
    owner = np.concatenate([np.full(len(c), t) for t, (c, _) in enumerate(blocks)])
    val, at_k = (np.concatenate(x) for x in zip(*blocks))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit, ok = lstsq._one_column_fits(owner, val, at_k, len(blocks))
        for t, (col, k_mask) in enumerate(blocks):
            alone = lstsq._one_column_fits(np.zeros(len(col), dtype=np.int64), col, k_mask, 1)
            assert (alone[0][0], alone[1][0]) == (fit[t], ok[t])   # bits do not depend on the batch
            if not col.any():
                # no caller has one (a block column holds a stored nonzero of A),
                # and the QR, which flags it dependent, cannot solve it either
                assert not ok[t]
                continue
            y, active = lstsq._householder_solve(col[:, None], k_mask.astype(np.float64))
            assert list(active) == [0]
            if ok[t]:
                # relative to 1 / max |a|, the coefficient's scale: the QR's own
                # 1 - tau cancels when row k is the block's first and |a_k| is small
                tol = 4 * len(col) * np.finfo(float).eps / np.abs(col).max()
                assert abs(fit[t] - y[0]) <= tol


@pytest.mark.parametrize("scale", [1e160, 1e155, 1e-155, 1e-170])
def test_one_column_builds_at_extreme_scales(scale):
    # ||A e_k||^2 overflows, is subnormal or underflows to 0 here, so those
    # fits fall back to the QR
    a = generate_test_matrix("dominant-row", 80, planted_dense_cols=2, seed=7)
    scaled = CscMatrix(a.n_rows, a.n_cols, a.col_ptr, a.row_idx, a.values * scale)
    m, m_scaled = psai(a, PsaiConfig(l_max=0))[0], psai(scaled, PsaiConfig(l_max=0))[0]
    assert m_scaled.nnz == 80
    assert np.array_equal(m_scaled.col_ptr, m.col_ptr)
    assert np.array_equal(m_scaled.row_idx, m.row_idx)
    back = CscMatrix(m.n_rows, m.n_cols, m.col_ptr, m.row_idx, m_scaled.values * scale)
    assert column_value_difference(back, m) <= 1e-14


def stacked_block(rng, p: int, height: int) -> tuple[np.ndarray, int]:
    """A block of the class (p, height), maybe with stored zeros, at a scale in
    1e-150..1e150, and its row k."""
    m = int(rng.integers(max(p, height - 7), height + 1))
    block = rng.standard_normal((m, p)) * (rng.random((m, p)) < rng.choice([0.5, 0.8, 1.0]))
    if rng.random() < 0.1:                              # a dependent column
        block[:, rng.integers(1, p)] = block[:, 0] * rng.choice([0.0, 2.0])
    return block * 10.0 ** rng.uniform(-150, 150), int(rng.integers(m))


def stack_of(blocks: list, p: int, height: int) -> np.ndarray:
    stack = np.zeros((len(blocks), height, p + 1))
    for s, (block, k) in enumerate(blocks):
        stack[s, :len(block), :p] = block
        stack[s, k, p] = 1.0
    return stack


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_stacked_solve_matches_householder(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 9))
    height = 8 * int(rng.integers(-(-p // 8), 7))
    blocks = [stacked_block(rng, p, height) for _ in range(int(rng.integers(1, 7)))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, ok = lstsq._stack_solve(stack_of(blocks, p, height), p)
        y_rev, ok_rev = lstsq._stack_solve(stack_of(blocks[::-1], p, height), p)
        assert np.array_equal(ok_rev, ok[::-1])
        assert y_rev.tobytes() == y[::-1].tobytes()   # bits do not depend on the stack
        row = iter(y)
        for s, (block, k) in enumerate(blocks):
            alone, ok_alone = lstsq._stack_solve(stack_of([(block, k)], p, height), p)
            assert ok_alone[0] == ok[s]
            if not ok[s]:
                continue
            y_s = next(row)
            assert y_s.tobytes() == alone[0].tobytes()
            y_h, active = lstsq._householder_solve(block, np.arange(len(block)) == k)
            assert list(active) == list(range(p))
            # a backward-stable solve's error scales with the condition number
            tol = 4 * len(block) * np.finfo(float).eps * np.linalg.cond(block) / np.abs(block).max()
            assert np.abs(y_s - y_h).max() <= tol


def test_blocks_no_stack_solves_match_householder_exactly():
    # dependent (column 1 = 2 * column 0), short (3 x 5) and over half a
    # stack (120 x 40) blocks, with a stacked one, on the diagonal of A
    rng = np.random.default_rng(5)
    blocks = [rng.standard_normal(shape) + 3.0 for shape in ((6, 3), (3, 5), (120, 40), (9, 4))]
    blocks[0][:, 1] = 2.0 * blocks[0][:, 0]
    n_rows, n_cols = (sum(x) for x in zip(*(b.shape for b in blocks)))
    dense = np.zeros((n_rows, n_cols))
    r0 = c0 = 0
    ks, owner, cols, spans = [], [], [], []
    for t, b in enumerate(blocks):
        dense[r0:r0 + b.shape[0], c0:c0 + b.shape[1]] = b
        ks.append(r0 + 1)
        owner += [t] * b.shape[1]
        cols += range(c0, c0 + b.shape[1])
        spans.append(slice(c0, c0 + b.shape[1]))
        r0, c0 = r0 + b.shape[0], c0 + b.shape[1]
    ws = ls_init(CscMatrix.from_dense(dense), np.array(ks), (np.array(owner), np.array(cols)))
    for t, b in enumerate(blocks):
        got = ws.solution(t).to_dense()[spans[t]]
        y, active = lstsq._householder_solve(b, (np.arange(len(b)) == 1).astype(np.float64))
        want = np.zeros(b.shape[1])
        want[active] = y
        if t < 3:
            assert got.tobytes() == want.tobytes(), t
        else:
            assert np.abs(got - want).max() <= 1e-12
