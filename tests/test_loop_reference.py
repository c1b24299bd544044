"""Vectorised and library kernels against the loop kernels they replaced.

``loop_reference`` keeps the per-candidate ``spai_profitability``, the
``bincount`` products, the per-column diagonal scans, the per-line Matrix
Market reader, the per-column ``split``, the DFS connectivity check and
the per-column SPAI build. ``matvec``, ``matvec_t``, the diagonal, the
reader, ``split`` and the connectivity check must match them exactly.
Profitability sums its dot products in another order, so rho may differ at
rounding level, but the candidates and the SPAI preconditioner built from
them must not.
"""

import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csc_matrix

from saikit import (CscMatrix, DegeneratePatternError, MatrixMarketError, SparseVector,
                    SpaiConfig, generate_test_matrix, ls_init, matvec, matvec_t,
                    permute_rows, read_matrix_market, spai, spai_profitability, split)
from saikit.splitting import _strongly_connected

from . import loop_reference
from .conftest import dense_split_factor
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

    # the batch of one: the keys t * n + j of target 0 are the indices j
    keys, got, skipped = spai_profitability(a, csc_matrix(r[:, None]), cand, col_sqnorms=sq)
    ref_rhos, ref_skipped = loop_reference.spai_profitability(a, r, cand, col_sqnorms=sq)
    assert skipped.tolist() == ref_skipped
    assert keys.tolist() == [j for j, _ in ref_rhos]
    assert keys.dtype == np.int64 and got.dtype == np.float64
    # Dots of length <= m summed in two orders differ by at most m eps
    # ||A e_j|| ||r||, so rho^2 = ||r||^2 - dot^2 / ||A e_j||^2 by a few
    # m eps ||r||^2. rho itself may differ by far more when rho^2 cancels.
    want = np.array([rho for _, rho in ref_rhos])
    tol = 4 * m * np.finfo(float).eps * float(r @ r)
    assert np.all(np.abs(got ** 2 - want ** 2) <= tol)


@pytest.mark.parametrize("a", generator_inputs(60, seed=5))
def test_spai_build_matches_per_candidate_loop(a, monkeypatch):
    cfg = SpaiConfig(delta=0.1)
    m_new = spai(a, cfg)[0]
    # the per-column loop, scoring one candidate at a time; without
    # col_sqnorms it takes ||A e_j||^2 as a per-column dot, the way spai()
    # used to precompute it
    monkeypatch.setattr(loop_reference, "spai_profitability",
                        lambda a, r, cand, col_sqnorms=None,
                        score=loop_reference.spai_profitability: score(a, r, cand))
    m_old = loop_reference.spai(a, cfg)[0]
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


def matrix_market_text(rng) -> tuple[str, str]:
    """A random coordinate file, with and without trailing entry-line comments.

    The body mixes comment and blank lines, duplicates, explicit zeros,
    out-of-bounds indices, malformed lines and non-finite values, and the
    size line may miscount the entry lines.
    """
    sym = rng.choice(["general", "symmetric"])
    m, n = (int(d) for d in rng.choice(6, size=2, p=[0.1, 0.18, 0.18, 0.18, 0.18, 0.18]))
    if sym == "symmetric" and rng.random() < 0.8:
        n = m
    text = [f"%%MatrixMarket matrix coordinate real {sym}\n"]
    plain = list(text)

    def noise() -> str:
        return str(rng.choice(["", "\n", "   \n", "% comment\n", "\t% indented\n"],
                              p=[0.7, 0.1, 0.05, 0.1, 0.05]))

    entries: list[tuple[str, str]] = []
    for _ in range(int(rng.integers(0, 9))):
        if entries and rng.random() < 0.15:          # a duplicate position
            i, j = entries[int(rng.integers(len(entries)))][0].split()[:2]
        else:
            i, j = (str(int(rng.integers(1, max(d, 1) + 1))) if rng.random() < 0.97
                    else str(rng.choice([0, -1, d + 1])) for d in (m, n))
        v = rng.choice([repr(float(rng.standard_normal())), "0.0", "-0", "3", "1e-300",
                        "nan", "inf", "-inf", "1e400"],
                       p=[0.64, 0.1, 0.05, 0.1, 0.05, 0.015, 0.015, 0.015, 0.015])
        fields = [i, j, str(v)]
        bad = rng.random()
        if bad < 0.01:
            fields = fields[:2]
        elif bad < 0.02:
            fields.append("1")
        elif bad < 0.03:
            fields[int(rng.integers(2))] = str(rng.choice(["1.5", "x", "1e0", "2."]))
        elif bad < 0.04:
            fields[2] = "abc"
        sep = str(rng.choice([" ", "\t", "  "]))
        line = str(rng.choice(["", " "])) + sep.join(fields)
        comment = str(rng.choice([" % note", "%x"])) if rng.random() < 0.05 else ""
        entries.append((line + "\n", line + comment + "\n"))
    declared = len(entries) + int(rng.choice([-1, 0, 1], p=[0.05, 0.9, 0.05]))
    size_line = noise() + f"{m} {n} {max(declared, 0)}\n"
    text.append(size_line)
    plain.append(size_line)
    for bare, commented in entries:
        gap = noise()
        plain += [gap, bare]
        text += [gap, commented]
    return "".join(text), "".join(plain)


def outcome(read, text: str, warn: str = "error"):
    """The matrix read from ``text``, or the class of the exception raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter(warn)
            return read(io.StringIO(text))
    except Exception as exc:
        return type(exc)


def is_non_square_symmetric(text: str) -> bool:
    lines = text.splitlines()
    if "symmetric" not in lines[0]:
        return False
    size = next(line.split() for line in lines[1:] if line.strip()
                and not line.strip().startswith("%"))
    return size[0] != size[1]


def has_non_finite(text: str) -> bool:
    return any(w in text for w in ("nan", "inf", "1e400"))


@settings(max_examples=500, deadline=None)
@given(seeds)
def test_reader_matches_per_line_loop(seed):
    text, plain = matrix_market_text(np.random.default_rng(seed))
    got = outcome(read_matrix_market, text)      # any warning fails the read
    # the loop rejects a trailing comment; loadtxt strips it. The loop's sum
    # of inf and -inf duplicates warns; that is not under test.
    want = outcome(loop_reference.read_matrix_market, plain, warn="ignore")
    if text != plain:
        assert outcome(loop_reference.read_matrix_market, text,
                       warn="ignore") is MatrixMarketError
    if is_non_square_symmetric(plain):
        # the loop read these (or failed in CscMatrix); the size line is rejected now
        assert got is MatrixMarketError
    elif isinstance(want, CscMatrix):
        assert isinstance(got, CscMatrix) and got.same_as(want)
    elif want is ValueError and has_non_finite(plain):
        # the loop let a non-finite value reach CscMatrix
        assert got is MatrixMarketError
    else:
        assert got is want


def connectivity_pattern(rng) -> np.ndarray:
    n = int(rng.integers(0, 12))
    kind = rng.integers(4)
    if kind == 0:                # diagonal only, perhaps with holes
        return np.diag(rng.choice([0.0, 1.0], size=n, p=[0.2, 0.8]))
    if kind == 1:                # two diagonal blocks: never strongly connected
        k = int(rng.integers(0, n + 1))
        out = np.zeros((n, n))
        for lo, hi in ((0, k), (k, n)):
            out[lo:hi, lo:hi] = rng.random((hi - lo, hi - lo)) < 0.6
        return out
    out = (rng.random((n, n)) < rng.choice([0.05, 0.2, 0.5])).astype(float)
    if kind == 2 and n:          # plus a Hamiltonian cycle: strongly connected
        order = rng.permutation(n)
        out[order, np.roll(order, 1)] = 1.0
    return out


@settings(max_examples=300, deadline=None)
@given(seeds)
def test_connectivity_matches_dfs(seed):
    a = CscMatrix.from_dense(connectivity_pattern(np.random.default_rng(seed)))
    assert _strongly_connected(a) is loop_reference._strongly_connected(a)


@pytest.mark.parametrize("dense, connected", [
    (np.zeros((0, 0)), True), (np.zeros((1, 1)), True), (np.eye(2), False),
    (np.ones((2, 2)), True), (np.eye(3, k=1) + np.eye(3, k=-2), True),
    (np.eye(3, k=1), False)])
def test_connectivity_small_cases(dense, connected):
    a = CscMatrix.from_dense(dense)
    assert _strongly_connected(a) is connected
    assert loop_reference._strongly_connected(a) is connected


KINDS = ("dominant-row", "dominant-col", "m-matrix", "irreducible-dd")


@settings(max_examples=300, deadline=None)
@given(seeds, st.sampled_from(KINDS), st.sampled_from(["nearest", "largest", "bogus"]),
       st.sampled_from([None, 1, 3]))
def test_split_matches_per_column_loop(seed, kind, strategy, p_kept):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))  # density 0.3 leaves irreducible-dd no edge below 3
    a = generate_test_matrix(kind, n, density=rng.choice([None, 0.3]),
                             planted_dense_cols=int(rng.integers(0, min(n, 4) + 1)),
                             seed=seed)
    if rng.random() < 0.2:       # diagonals may go missing: ZeroDiagonalError
        a = permute_rows(a, rng.permutation(n))
    factor = float(rng.choice([1.0, 2.0, 10.0, dense_split_factor(a)]))

    def run(fn):
        try:
            return fn(a, factor=factor, strategy=strategy, p_kept=p_kept)
        except ValueError as exc:
            return type(exc)

    got, want = run(split), run(loop_reference.split)
    if isinstance(want, type):
        assert got is want
        return
    assert got.a_tilde.same_as(want.a_tilde) and got.u.same_as(want.u)
    assert got.irregular_cols.dtype == want.irregular_cols.dtype
    assert np.array_equal(got.irregular_cols, want.irregular_cols)
    assert (got.strategy, got.p_kept) == (want.strategy, want.p_kept)
