"""Vectorised build kernels against the loop kernels they replaced.

``loop_reference`` keeps the per-candidate ``spai_profitability``, the
``bincount`` products and the per-column diagonal scans. ``matvec``,
``matvec_t`` and the diagonal must match them bit for bit. Profitability
sums its dot products in another order, so rho may differ at rounding
level, but the candidates and the SPAI preconditioner built from them
must not.
"""

from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saikit import (CscMatrix, DegeneratePatternError, SparseVector, SpaiConfig,
                    ls_init, matvec, matvec_t, spai, spai_profitability)

from . import loop_reference
from .test_lstsq_reference import generator_inputs, ls_programs, random_subset

seeds = st.integers(0, 2 ** 31 - 1)


def random_matrix(rng, min_dim: int = 0, max_dim: int = 30) -> np.ndarray:
    """Dense array of a random sparse matrix, possibly rectangular or empty."""
    m, n = (int(d) for d in rng.integers(min_dim, max_dim + 1, size=2))
    density = rng.choice([0.0, 0.05, 0.3, 0.8])
    return rng.standard_normal((m, n)) * (rng.random((m, n)) < density)


@settings(max_examples=300, deadline=None)
@given(seeds)
def test_profitability_matches_per_candidate_loop(seed):
    rng = np.random.default_rng(seed)
    dense = random_matrix(rng, min_dim=1)
    m, n = dense.shape
    dense[:, rng.choice(n, size=min(n, int(rng.integers(0, 3))), replace=False)] = 0.0
    r = rng.standard_normal(m) * (rng.random(m) < 0.7)
    if rng.random() < 0.3:       # a candidate parallel to r: rho^2 cancels
        r = dense[:, rng.integers(n)] * rng.standard_normal()
    a = CscMatrix.from_dense(dense)
    cand = rng.choice(n, size=int(rng.integers(0, 2 * n)), replace=True)
    if rng.random() < 0.5:
        cand = np.unique(cand)
    sq = None
    if rng.random() < 0.5:
        sq = np.bincount(a.entry_cols(), weights=a.values ** 2, minlength=n)

    rhos, skipped = spai_profitability(a, r, cand, col_sqnorms=sq)
    ref_rhos, ref_skipped = loop_reference.spai_profitability(a, r, cand, col_sqnorms=sq)
    assert skipped == ref_skipped
    assert [j for j, _ in rhos] == [j for j, _ in ref_rhos]
    assert all(type(j) is int and type(rho) is float for j, rho in rhos)
    # Dots of length <= m summed in two orders differ by at most m eps
    # ||A e_j|| ||r||, so rho^2 = ||r||^2 - dot^2 / ||A e_j||^2 by a few
    # m eps ||r||^2. rho itself may differ by far more when rho^2 cancels.
    got = np.array([rho for _, rho in rhos])
    want = np.array([rho for _, rho in ref_rhos])
    tol = 4 * m * np.finfo(float).eps * float(r @ r)
    assert np.all(np.abs(got ** 2 - want ** 2) <= tol)


@pytest.mark.parametrize("a", generator_inputs(60, seed=5))
def test_spai_build_matches_per_candidate_loop(a, monkeypatch):
    cfg = SpaiConfig(delta=0.1)
    m_new = spai(a, cfg)[0]
    # without col_sqnorms the loop takes ||A e_j||^2 as a per-column dot, the
    # way spai() used to precompute it
    monkeypatch.setattr(import_module("saikit.spai"), "spai_profitability",
                        lambda a, r, cand, col_sqnorms=None:
                        loop_reference.spai_profitability(a, r, cand))
    m_old = spai(a, cfg)[0]
    assert m_new.same_as(m_old)


def assert_same_vector(got: SparseVector, want: SparseVector) -> None:
    assert got.dim == want.dim
    assert np.all(got.values != 0.0) and np.all(np.diff(got.indices) > 0)
    for g, w in ((got.indices, want.indices), (got.values, want.values)):
        assert g.dtype == w.dtype and np.array_equal(g, w)
        assert not g.flags.writeable


@settings(max_examples=200, deadline=None)
@given(ls_programs())
def test_workspace_vectors_match_validated_constructor(program):
    dense, rng = program
    n = dense.shape[0]
    a = CscMatrix.from_dense(dense)
    try:
        ws = ls_init(a, int(rng.integers(n)), random_subset(rng, np.arange(n)))
    except DegeneratePatternError:
        return
    outside = np.setdiff1d(np.arange(n), ws.cols)
    if len(outside) and rng.random() < 0.5:
        ws.augment(a, random_subset(rng, outside))
    assert_same_vector(ws.solution(), SparseVector(n, ws._cols, ws._coeffs))
    assert_same_vector(ws.residual(), SparseVector(n, ws._rows, ws._resid_vec))


def test_workspace_vectors_purge_exact_zeros():
    # column 1 = 2 * column 0 gets coefficient 0; the fit of row 0 is exact
    a = CscMatrix.from_dense([[1.0, 2.0, 0.0], [0.0, 0.0, 3.0], [1.0, 2.0, 0.0]])
    ws = ls_init(a, 1, [0, 1, 2])
    assert 0.0 in ws._coeffs and 0.0 in ws._resid_vec
    assert_same_vector(ws.solution(), SparseVector(3, ws._cols, ws._coeffs))
    assert_same_vector(ws.residual(), SparseVector(3, ws._rows, ws._resid_vec))


def test_unchecked_vector_still_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        SparseVector._from_unique(3, np.array([2, 0]), np.array([1.0, np.inf]))


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_products_match_bincount(seed):
    rng = np.random.default_rng(seed)
    a = CscMatrix.from_dense(random_matrix(rng))
    x = rng.standard_normal(a.n_cols)
    y = rng.standard_normal(a.n_rows)
    for got, want in ((matvec(a, x), loop_reference.matvec(a, x)),
                      (matvec_t(a, y), loop_reference.matvec_t(a, y))):
        assert got.dtype == np.float64 and np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (4, 2), (2, 4)])
def test_products_of_empty_matrices(shape):
    a = CscMatrix.empty(*shape)
    assert np.array_equal(matvec(a, np.ones(shape[1])), np.zeros(shape[0]))
    assert np.array_equal(matvec_t(a, np.ones(shape[0])), np.zeros(shape[1]))


def test_matvec_dimension_message():
    with pytest.raises(ValueError, match=r"matrix has 3 columns, vector has shape \(4,\)"):
        matvec(CscMatrix.identity(3), np.ones(4))
    with pytest.raises(ValueError, match="dimension mismatch in transpose matvec"):
        matvec_t(CscMatrix.empty(3, 2), np.ones(2))


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_diagonal_matches_column_scan(seed):
    rng = np.random.default_rng(seed)
    dense = random_matrix(rng)
    d = min(dense.shape)
    if rng.random() < 0.5:       # full diagonal, then perhaps one entry missing
        dense[np.arange(d), np.arange(d)] = rng.uniform(0.5, 1.0, d)
        if d and rng.random() < 0.5:
            i = rng.integers(d)
            dense[i, i] = 0.0
    a = CscMatrix.from_dense(dense)
    assert np.array_equal(a.diagonal(), loop_reference.diagonal(a))
    assert a.has_full_structural_diagonal() is loop_reference.has_full_structural_diagonal(a)
