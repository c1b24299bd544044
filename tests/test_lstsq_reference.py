"""The Householder least-squares kernel against the Gram-Schmidt reference.

``gs_reference`` holds the incremental Gram-Schmidt workspace that the
Householder kernel replaced. Both are driven through the same operations
and must agree on the active sets, the exceptions raised, the residual
norms and the fitted vectors A(:, S) m; exact-zero coefficients may differ
at rounding level and are not compared. Whole SPAI and PSAI
preconditioners built with each kernel must have the same pattern and
values equal to within rounding; the old side of that comparison is the
per-column SPAI and PSAI loops of ``loop_reference`` running on the
reference kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saikit import (CscMatrix, DegeneratePatternError, PsaiConfig, SpaiConfig,
                    WorkspaceGuardError, generate_test_matrix, permute_rows,
                    zero_free_diagonal_permutation)
from saikit.psai import psai
from saikit.spai import spai
from saikit import lstsq

from . import gs_reference, loop_reference

EXCEPTIONS = (DegeneratePatternError, WorkspaceGuardError, ValueError)


def attempt(fn):
    """Result of ``fn()``, or the type of the kernel exception it raised."""
    try:
        return fn()
    except EXCEPTIONS as exc:
        return type(exc)


def assert_same_state(dense: np.ndarray, new, old) -> None:
    assert np.array_equal(new.rows, old.rows)
    assert np.array_equal(new.cols, old.cols)
    r = old.residual_norm
    assert abs(new.residual_norm - r) <= 1e-10 * max(1.0, r)
    diff = new.solution().to_dense() - old.solution().to_dense()
    assert np.linalg.norm(dense @ diff) <= 1e-10


@st.composite
def ls_programs(draw):
    """A matrix with planted duplicate and zero columns, and a seeded rng."""
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 31 if rng.random() < 0.5 else 8))
    density = rng.choice([0.1, 0.25, 0.5])
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    # Duplicates, possibly scaled. Not by much: neither kernel flags a column
    # that is a multiple of an earlier one larger by ~1e4 or more (its
    # rounding-level diagonal exceeds 1e-12 of the earlier one), and the
    # two then disagree on the resulting noise.
    for _ in range(int(rng.integers(0, 4))):
        src, dst = rng.choice(n, size=2, replace=False)
        dense[:, dst] = dense[:, src] * rng.choice([1.0, -2.0, 0.5])
    dense[:, rng.choice(n, size=int(rng.integers(0, 3)), replace=False)] = 0.0
    return dense, rng


def random_subset(rng, pool: np.ndarray) -> np.ndarray:
    return rng.choice(pool, size=int(rng.integers(1, len(pool) + 1)), replace=False)


def next_op(rng, n: int, pattern: np.ndarray) -> tuple[str, np.ndarray]:
    """A random augment or drop; about one in four is invalid on purpose."""
    op = rng.choice(["augment", "drop"])
    outside = np.setdiff1d(np.arange(n), pattern)
    pool = outside if op == "augment" else pattern
    if rng.random() < 0.25 or len(pool) == 0:
        return op, random_subset(rng, np.arange(n + 1))   # may overlap or overflow
    return op, random_subset(rng, pool)


@settings(max_examples=200, deadline=None)
@given(ls_programs())
def test_householder_matches_gram_schmidt(program):
    dense, rng = program
    n = dense.shape[0]
    a = CscMatrix.from_dense(dense)
    k = int(rng.integers(n))
    guard = None if rng.random() < 0.8 else int(rng.integers(16, 2000))
    init = random_subset(rng, np.arange(n))
    new = attempt(lambda: lstsq.ls_init(a, k, init, max_workspace_bytes=guard))
    old = attempt(lambda: gs_reference.ls_init(a, k, init, max_workspace_bytes=guard))
    if isinstance(old, type):
        assert new is old
        return
    assert_same_state(dense, new, old)
    for _ in range(int(rng.integers(1, 6))):
        op, cols = next_op(rng, n, old.cols)
        if op == "augment":
            assert attempt(lambda: new.augment(a, cols)) is \
                attempt(lambda: old.augment(a, cols))
        else:
            got = attempt(lambda: new.drop_columns(a, cols))
            want = attempt(lambda: old.drop_columns(a, cols))
            if isinstance(want, type):
                assert got is want
            else:
                new, old = got, want
        assert_same_state(dense, new, old)


def test_planted_duplicate_gets_zero_in_both():
    dense = np.array([[1.0, 2.0, 0.0, 1.0],
                      [0.0, 0.0, 3.0, 0.0],
                      [1.0, 2.0, 1.0, 1.0],
                      [0.0, 0.0, 0.0, 2.0]])
    a = CscMatrix.from_dense(dense)
    for kernel in (lstsq, gs_reference):
        ws = kernel.ls_init(a, 0, [0, 1, 2])
        ws.augment(a, [3])
        assert ws.solution().to_dense()[1] == 0.0   # column 1 = 2 * column 0


def test_only_first_dependent_column_is_removed():
    # column 1 = -column 0; Householder spends row 2 on it, after which the
    # diagonal of column 3 is no longer its Gram-Schmidt norm
    dense = np.array([[0.0, 0.0, -0.125, 0.0],
                      [0.0, 0.0, 0.625, 0.03],
                      [-4.0, 2.0, -0.75, -0.11],
                      [0.0, 0.0, -0.175, 0.0]])
    a = CscMatrix.from_dense(dense)
    new = lstsq.ls_init(a, 0, [0, 1, 2, 3])
    assert_same_state(dense, new, gs_reference.ls_init(a, 0, [0, 1, 2, 3]))
    assert new.solution().to_dense()[1] == 0.0


def test_column_outside_row_block_is_exactly_zero():
    # columns 0 and 1 share no row with the block of row 0, and their
    # Householder pivots would land on rows 0 and 1 of that block
    dense = np.zeros((4, 4))
    dense[2:, :2] = [[1.0, 2.0], [3.0, -1.0]]
    dense[:2, 2:] = [[2.0, 1.0], [1.0, 3.0]]
    a = CscMatrix.from_dense(dense)
    ws = lstsq.ls_init(a, 0, [0, 1, 2, 3])
    sol = ws.solution().to_dense()
    assert sol[0] == 0.0 and sol[1] == 0.0
    assert ws.residual_norm <= 1e-14


def generator_inputs(n: int, seed: int):
    """Every generator kind, plain and row-shuffled then matched."""
    rng = np.random.default_rng(seed)
    for kind in ("dominant-row", "dominant-col", "m-matrix", "irreducible-dd"):
        a = generate_test_matrix(kind, n, seed=seed)
        yield pytest.param(a, id=kind)
        shuffled = permute_rows(a, rng.permutation(n))
        matched = permute_rows(shuffled, zero_free_diagonal_permutation(shuffled))
        yield pytest.param(matched, id=f"{kind}-shuffled")


def column_value_difference(m_new: CscMatrix, m_old: CscMatrix) -> float:
    """Largest entry difference of a column, relative to max(1, its largest entry)."""
    cols = m_old.entry_cols()
    n = m_old.n_cols
    diff = np.zeros(n)
    scale = np.ones(n)
    np.maximum.at(diff, cols, np.abs(m_new.values - m_old.values))
    np.maximum.at(scale, cols, np.abs(m_old.values))
    return float(np.max(diff / scale, initial=0.0))


def assert_same_preconditioner(m_new: CscMatrix, m_old: CscMatrix) -> None:
    assert np.array_equal(m_new.col_ptr, m_old.col_ptr)
    assert np.array_equal(m_new.row_idx, m_old.row_idx)
    assert column_value_difference(m_new, m_old) <= 1e-11


@pytest.mark.parametrize("a", generator_inputs(60, seed=5))
def test_preconditioners_match_with_reference_kernel(a, monkeypatch):
    # The lockstep builds hand ls_init a batch, which the reference cannot
    # take, so the per-column loops they replaced run on the reference
    # kernel instead.
    spai_cfg, psai_cfg = SpaiConfig(delta=0.2), PsaiConfig(delta=0.1)
    new = [spai(a, spai_cfg)[0], psai(a, psai_cfg)[0]]
    monkeypatch.setattr(loop_reference, "ls_init", gs_reference.ls_init)
    old = [loop_reference.spai(a, spai_cfg)[0], loop_reference.psai(a, psai_cfg)[0]]
    for m_new, m_old in zip(new, old):
        assert_same_preconditioner(m_new, m_old)
