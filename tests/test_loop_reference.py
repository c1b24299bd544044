"""Vectorised and library kernels against the loop kernels they replaced.

``loop_reference`` keeps the two-key ``from_coo`` and its row order
check, the per-candidate ``spai_profitability``, the
``bincount`` product, the per-column diagonal scans, the per-line Matrix
Market reader, the per-column ``split``, the DFS connectivity check and
the per-column SPAI build, the per-system BiCGStab and the driver's two
solve paths. ``matvec``, the diagonal, the reader, ``split``, the
connectivity check and the one split solve path must match them exactly.
Profitability sums its dot products in another order, so rho may differ at
rounding level, but the candidates and the SPAI preconditioner built from
them must not. The block BiCGStab judges convergence on the recursive
residual where the loop judged it on the true one, so a column may stop
one iteration apart, but with the same flag and a true reported residual.
The one-exit block BiCGStab must match the first block solver byte for byte,
the solver on ``matvec``'s block products and the oracle on products built
column by column with the ``bincount`` kernel, so a change in the bits of
either the step or the product kernel shows.
The least-squares kernel solves one-column blocks in closed form where the
loop ran LAPACK's QR on them, so SPAI and PSAI built on the two must have
the same pattern and values equal to within rounding. The driver's one
``dgesv`` solve of the update system must match the ``lu_factor`` and
``lu_solve`` route byte for byte, errors included.
"""

import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csc_matrix

from saikit import (AssemblyError, CscMatrix, DriverConfig, MatrixMarketError, PsaiConfig,
                    SparseVector, SpaiConfig, assemble_solution, bicgstab,
                    generate_test_matrix, matvec, permute_rows, read_matrix_market,
                    solve_irregular, solve_standard, spai_profitability, split,
                    zero_free_diagonal_permutation)
from saikit.psai import psai
from saikit.spai import spai
from saikit import driver, lstsq
from saikit.splitting import _strongly_connected

from . import loop_reference
from .conftest import dense_split_factor
from .test_lstsq_reference import column_value_difference, generator_inputs

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


# duplicates whose sum depends on their order (1e16 + 1 rounds to 1e16),
# and ones that cancel to exactly 0
_COO_VALUES = st.one_of(st.sampled_from([1e16, 1.0, -1e16, 0.5, -0.5, -3.0, 0.0, 5e-324]),
                        st.floats(-1e3, 1e3))


@st.composite
def coo_triplets(draw):
    n_rows, n_cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    count = draw(st.integers(0, 30)) if n_rows and n_cols else 0
    index = lambda dim: st.lists(st.integers(0, max(dim - 1, 0)), min_size=count, max_size=count)
    return (n_rows, n_cols, draw(index(n_rows)), draw(index(n_cols)),
            draw(st.lists(_COO_VALUES, min_size=count, max_size=count)))


@settings(max_examples=500, deadline=None)
@given(coo_triplets())
@example((3, 2, [1, 1, 1, 0], [1, 1, 1, 0], [1e16, 1.0, -1e16, 2.0]))
@example((3, 2, [1, 1, 1, 2], [1, 1, 1, 1], [-1e16, 1e16, 1.0, 2.0]))
@example((4, 3, [2, 0, 2, 2], [1, 0, 1, 1], [0.5, 1.0, -0.25, -0.25]))
@example((0, 0, [], [], []))
@example((0, 4, [], [], []))
@example((4, 0, [], [], []))
@example((2, 5, [1, 0, 1], [4, 4, 0], [1.0, -1.0, 3.0]))
def test_from_coo_matches_two_key_lexsort(triplets):
    n_rows, n_cols, *coo = triplets
    got = CscMatrix.from_coo(n_rows, n_cols, *coo)
    want = loop_reference.from_coo(n_rows, n_cols, *coo)
    for g, w in zip((got.col_ptr, got.row_idx, got.values), want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@st.composite
def csc_arrays(draw):
    """Hand-built CSC arrays, mostly well formed, with rows in any order."""
    n_rows, n_cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    counts = draw(st.lists(st.integers(0, 4), min_size=n_cols, max_size=n_cols))
    col_ptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    rows = draw(st.lists(st.integers(-1, n_rows), min_size=int(col_ptr[-1]),
                         max_size=int(col_ptr[-1])))
    if draw(st.booleans()):          # half the inputs keep their rows in range
        rows = [min(max(r, 0), max(n_rows - 1, 0)) for r in rows]
    values = draw(st.lists(st.sampled_from([1.0, -2.0, 0.0, np.inf]), min_size=len(rows),
                           max_size=len(rows)))
    return n_rows, n_cols, col_ptr, rows, values


def _construct(build) -> str | None:
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=500, deadline=None)
@given(csc_arrays())
@example((3, 1, [0, 2], [1, 1], [1.0, 1.0]))           # a repeated row: rejected
@example((3, 1, [0, 2], [2, 1], [1.0, 1.0]))           # a descending row: rejected
@example((3, 2, [0, 1, 2], [2, 0], [1.0, 1.0]))        # next column starts lower: accepted
@example((3, 3, [0, 2, 2, 3], [0, 2, 1], [1.0, 1.0, 1.0]))
def test_single_key_order_check_matches_interior_mask(arrays):
    got = _construct(lambda: CscMatrix(*arrays))
    assert got == _construct(lambda: loop_reference.check_csc(*arrays))


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


def test_vector_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        SparseVector(3, np.array([2, 0]), np.array([1.0, np.inf]))


@settings(max_examples=200, deadline=None)
@given(seeds, st.sampled_from([None, 0, 1, 2, 5]), st.booleans())
def test_products_match_bincount(seed, k, fortran):
    # a vector (k None) or an (n, k) block in either order, of a matrix that
    # may be rectangular or empty: every column has the bits of the bincount
    # product and of scipy's csc_matrix @ x, and no scipy matrix is cached
    rng = np.random.default_rng(seed)
    a = CscMatrix.from_dense(random_matrix(rng))
    x = rng.standard_normal(a.n_cols if k is None else (a.n_cols, k))
    if fortran:
        x = np.asfortranarray(x)
    got = matvec(a, x)
    matvec(a, x)
    assert "_scipy" not in a.__dict__
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert got.shape == (a.n_rows,) + x.shape[1:]
    scipy_a = csc_matrix((a.values, a.row_idx, a.col_ptr), shape=(a.n_rows, a.n_cols))
    for col, xj in ([(got, x)] if k is None else zip(got.T, x.T)):
        assert col.tobytes() == loop_reference.matvec(a, xj).tobytes()
        assert col.tobytes() == (scipy_a @ xj).tobytes()


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (4, 2), (2, 4)])
def test_products_of_empty_matrices(shape):
    a = CscMatrix.empty(*shape)
    assert np.array_equal(matvec(a, np.ones(shape[1])), np.zeros(shape[0]))


def test_matvec_dimension_message():
    with pytest.raises(ValueError, match=r"matrix has 3 columns, vector has shape \(4,\)"):
        matvec(CscMatrix.identity(3), np.ones(4))


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
    if strategy == "bogus":     # split checks it up front, also with no irregular column
        assert got is ValueError
        return
    if isinstance(want, type):
        assert got is want
        return
    assert got.a_tilde.same_as(want.a_tilde) and got.u.same_as(want.u)
    assert got.irregular_cols.dtype == want.irregular_cols.dtype
    assert np.array_equal(got.irregular_cols, want.irregular_cols)
    assert (got.strategy, got.p_kept) == (want.strategy, want.p_kept)


def _same(u, v) -> bool:
    """Equal values, NaN equal to NaN."""
    return np.array_equal(np.asarray(u, dtype=float), np.asarray(v, dtype=float),
                          equal_nan=True)


@settings(max_examples=120, deadline=None)
@given(seeds, st.sampled_from(["spai", "psai"]), st.sampled_from(["fixed", "posthoc"]),
       st.sampled_from(["irregular", "standard", "supplied"]), st.booleans())
def test_split_solve_matches_loop_driver(seed, method, c_policy, path, shuffle):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 41))
    planted = int(rng.integers(0, 4))
    a = generate_test_matrix("dominant-row", n, planted_dense_cols=planted, seed=seed)
    if shuffle:                  # zero diagonal: the row permutation runs
        a = permute_rows(a, rng.permutation(n))
    b = matvec(a, rng.uniform(0.5, 1.5, n))
    # few iterations leave systems stale, so posthoc rounds re-solve them
    c_fixed = float(rng.choice([0.1, 1.0, 10.0]))
    cfg = DriverConfig(method=method, c=c_fixed if c_policy == "fixed" else "posthoc",
                       epsilon=float(rng.choice([1e-6, 1e-10])),
                       max_iter=int(rng.choice([2, 6, 500])),
                       factor=float(rng.choice([10.0, dense_split_factor(a)],
                                               p=[0.25, 0.75])))
    m = driver.build_preconditioner(a, cfg)[0] if path == "supplied" else None

    def run(solve, standard):
        try:
            return solve(a, b, cfg, m) if standard else solve(a, b, cfg)
        except ValueError as exc:
            return type(exc), str(exc)

    if path == "irregular":
        got, want = run(solve_irregular, False), run(loop_reference.solve_irregular, False)
    else:
        got, want = run(solve_standard, True), run(loop_reference.solve_standard, True)
    if isinstance(want, tuple):
        assert got == want
        return
    assert np.array_equal(got.x_hat, want.x_hat)
    for key in ("iter_y", "iter_w", "max_iter_used", "flag_y", "flags_w", "converged",
                "s", "method"):
        assert getattr(got, key) == getattr(want, key), key
    for key in ("rr", "resid_y", "resid_w", "small_system_condition"):
        assert _same(getattr(got, key), getattr(want, key)), key
    assert (got.posthoc_c is None) == (want.posthoc_c is None)
    if want.posthoc_c is not None:
        assert _same(got.posthoc_c, want.posthoc_c)
    strip = lambda stats: {k: v for k, v in stats.items() if k != "t_setup"}
    assert strip(got.preconditioner_stats) == strip(want.preconditioner_stats)


@settings(max_examples=300, deadline=None)
@given(seeds, st.integers(1, 40),
       st.sampled_from(["random", "singular", "near-singular", "non-finite"]))
def test_update_system_matches_lu_route(seed, s, kind):
    # one dgesv against lu_factor + lu_solve, the 1e-14 pivot rule and cond
    rng = np.random.default_rng(seed)
    n = s + int(rng.integers(0, 6))
    irr = np.sort(rng.choice(n, size=s, replace=False))
    w = rng.standard_normal((n, s)) * 10.0 ** rng.uniform(-3, 3)
    y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    j, i = rng.integers(s), rng.integers(s)
    if kind == "singular":                      # column j of I + V^T W is exactly 0
        w[irr, j] = -np.eye(s)[j]
    elif kind == "near-singular" and s > 1:     # column j a multiple of column i, plus
        i = (j + 1 + rng.integers(s - 1)) % s   # noise on both sides of the pivot rule
        c_mat = np.eye(s) + w[irr, :]
        noise = 1e-15 * 10.0 ** rng.uniform(0, 2) * np.abs(c_mat[:, i]).max()
        c_mat[:, j] = rng.choice([-2.0, 0.5, 3.0]) * c_mat[:, i] + noise * rng.standard_normal(s)
        w[irr, :] = c_mat - np.eye(s)
    elif kind == "non-finite":
        w[irr[i], j] = rng.choice([np.inf, -np.inf, np.nan])

    def outcome(fn):
        try:
            return fn()
        except AssemblyError as exc:
            return exc

    want = outcome(lambda: loop_reference.update_system(y, w, irr))
    got_z = outcome(lambda: driver._update_system(y, w, irr)[0])
    got = outcome(lambda: assemble_solution(y, w, irr))
    if kind in ("singular", "non-finite"):
        assert isinstance(want, AssemblyError)
    if isinstance(want, AssemblyError):
        for exc in (got_z, got):
            assert (type(exc), str(exc)) == (type(want), str(want))
            assert _same(exc.cond, want.cond)
        return
    z, cond = want
    assert got_z.tobytes() == z.tobytes()
    assert got[1] == cond
    assert got[0].tobytes() == (y - w @ z).tobytes()


@settings(max_examples=150, deadline=None)
@given(seeds, st.integers(1, 6), st.sampled_from([1, 3, 500]),
       st.sampled_from(["psai", "identity"]))
def test_block_bicgstab_matches_per_system_loop(seed, k, max_iter, precond):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 41))
    a = generate_test_matrix(str(rng.choice(["dominant-row", "m-matrix"])), n, seed=seed)
    m = (driver.build_preconditioner(a, DriverConfig())[0] if precond == "psai"
         else CscMatrix.identity(n))
    rhs = rng.standard_normal((n, k)) * (rng.random(k) < 0.85)     # some zero columns
    x0 = rng.standard_normal((n, k)) * (rng.random(k) < 0.5)       # some zero starts
    tols = 10.0 ** -rng.integers(3, 11, size=k).astype(float)
    got = bicgstab(lambda x: matvec(a, x), rhs, x0, apply_precond=lambda x: matvec(m, x),
                   tol=tols, max_iter=max_iter)
    want = loop_reference._solve_systems(a, m, list(rhs.T.copy()), list(tols), max_iter,
                                         x0_list=list(x0.T.copy()))
    assert len(got.columns) == k
    for j, (g, w) in enumerate(zip(got.columns, want)):
        assert g.flag == w.flag, j
        assert abs(g.iterations - w.iterations) <= 1, j
        norm_b = np.linalg.norm(rhs[:, j])
        if norm_b == 0.0:
            assert (g.iterations, g.rel_residual) == (0, 0.0) and not g.x.any()
            continue
        true = np.linalg.norm(rhs[:, j] - matvec(a, g.x)) / norm_b
        assert g.rel_residual == pytest.approx(true, rel=1e-10), j
        if g.flag == "converged":
            assert g.rel_residual <= tols[j]
    flags = [g.flag for g in got.columns]
    assert got.flag == next((f for f in flags if f != "converged"), "converged")
    most = max(g.iterations for g in got.columns)
    assert got.iterations == most if got.flag == "converged" else got.iterations >= most


def columnwise(a: CscMatrix):
    """``x -> A x`` for a block, one column at a time with the bincount product."""
    def apply(x: np.ndarray) -> np.ndarray:
        out = np.zeros((a.n_rows, x.shape[1]))
        for j in range(x.shape[1]):
            out[:, j] = loop_reference.matvec(a, x[:, j])
        return out
    return apply


def assert_one_exit_matches_block_reference(a, m, rhs, x0, tols, max_iter):
    """The one-exit solver on the kernel's products against the first block
    solver on products of its own, byte for byte."""
    got = bicgstab(lambda x: matvec(a, x), rhs, x0, apply_precond=lambda x: matvec(m, x),
                   tol=tols, max_iter=max_iter)
    want = loop_reference.block_bicgstab(columnwise(a), rhs, x0, apply_precond=columnwise(m),
                                         tol=tols, max_iter=max_iter)
    assert (got.iterations, got.flag) == (want.iterations, want.flag)
    assert len(got.columns) == len(want.columns) == rhs.shape[1]
    for j, (g, w) in enumerate(zip(got.columns, want.columns)):
        assert (g.flag, g.iterations) == (w.flag, w.iterations), j
        assert g.x.tobytes() == w.x.tobytes(), j
        assert np.float64(g.rel_residual).tobytes() == np.float64(w.rel_residual).tobytes(), j


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(1, 6), st.sampled_from([1, 3, 500]),
       st.sampled_from(["dominant-row", "m-matrix", "singular", "skew"]),
       st.sampled_from(["psai", "identity"]))
def test_one_exit_bicgstab_matches_block_reference(seed, k, max_iter, kind, precond):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 41))
    if kind == "skew":                   # recurrence scalars vanish: breakdowns mid-solve
        dense = rng.standard_normal((n, n))
        a = CscMatrix.from_dense(dense - dense.T)
    else:
        a = generate_test_matrix("dominant-row" if kind == "singular" else kind, n, seed=seed)
        if kind == "singular":           # a zero column and row: A is singular
            dense = a.to_dense()
            dense[:, 0] = dense[0, :] = 0.0
            a = CscMatrix.from_dense(dense)
    m = (driver.build_preconditioner(a, DriverConfig())[0] if precond == "psai"
         else CscMatrix.identity(n))
    rhs = rng.standard_normal((n, k)) * (rng.random(k) < 0.8)      # some zero columns
    x0 = rng.standard_normal((n, k)) * (rng.random(k) < 0.6)       # some zero starts
    start = rng.random(k) < 0.25                                   # starts that meet tol
    rhs[:, start] = matvec(a, x0[:, start])
    tols = 10.0 ** -rng.integers(1, 12, size=k).astype(float)
    if rng.random() < 0.3:
        x0 = None
    assert_one_exit_matches_block_reference(a, m, rhs, x0, tols, max_iter)


@pytest.mark.parametrize("n, planted, psai_cfg, eps, restart", [
    (600, 3, PsaiConfig(delta=0.1), 1e-8, False),    # a psai-drop solve
    (1500, 40, PsaiConfig(l_max=0), 1e-10, True),    # a file-many-rhs posthoc re-solve
])
def test_one_exit_bicgstab_matches_block_reference_at_bench_shapes(n, planted, psai_cfg, eps,
                                                                   restart):
    # the driver's block [b, U] and targets; the w_j systems finish first, so
    # the compacted (F-order) block runs the last steps
    a = generate_test_matrix("dominant-row", n, planted_dense_cols=planted, seed=n)
    sys_ = split(a)
    m = psai(sys_.a_tilde, psai_cfg)[0]
    rhs = np.column_stack([matvec(a, np.ones(n)), sys_.u.to_dense()])
    norm_b, *norm_u = np.linalg.norm(rhs, axis=0)
    tol_y, tol_w = driver.subsystem_tolerances(eps, sys_.s, 1.0, norm_b, norm_u)
    tols = np.concatenate([[tol_y], tol_w])
    assert rhs.shape == (n, planted + 1)
    x0 = None
    if restart:       # from the first pass's iterates, at half the targets of c = sqrt(s)
        first = bicgstab(lambda x: matvec(sys_.a_tilde, x), rhs,
                         apply_precond=lambda x: matvec(m, x), tol=tols)
        x0 = np.column_stack([o.x for o in first.columns])
        tols = 0.5 * tols / np.sqrt(sys_.s)
    assert_one_exit_matches_block_reference(sys_.a_tilde, m, rhs, x0, tols, 500)


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(KINDS), st.integers(2, 60), st.booleans())
def test_builds_match_all_lapack_block_solve(seed, kind, n, shuffle):
    a = generate_test_matrix(kind, n, seed=seed)
    if shuffle:
        shuffled = permute_rows(a, np.random.default_rng(seed).permutation(a.n_rows))
        a = permute_rows(shuffled, zero_free_diagonal_permutation(shuffled))
    builds = [lambda: spai(a, SpaiConfig(delta=0.2))[0],
              lambda: psai(a, PsaiConfig(delta=0.1))[0],
              lambda: psai(a, PsaiConfig(l_max=0))[0]]
    new = [build() for build in builds]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lstsq.LsWorkspace, "_solve_blocks", loop_reference.solve_blocks)
        old = [build() for build in builds]
    for m_new, m_old in zip(new, old):
        assert np.array_equal(m_new.col_ptr, m_old.col_ptr)
        assert np.array_equal(m_new.row_idx, m_old.row_idx)
        assert column_value_difference(m_new, m_old) <= 1e-14
