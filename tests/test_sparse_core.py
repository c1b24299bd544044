import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saikit import (CscMatrix, MatrixMarketError, SparseVector,
                    StructurallySingularError, UnsupportedFieldError,
                    column_stats, matvec, norm1, norm_inf,
                    permute_rows, read_matrix_market,
                    write_matrix_market, zero_free_diagonal_permutation)
from saikit.sparse_core import (key_parts, member, owners, pointers, run_starts,
                                sorted_unique)
from . import loop_reference
from .conftest import tridiagonal, require_uf


def mm(text: str) -> io.StringIO:
    return io.StringIO(text)


def _loadtxt_parsing_ints_via_float(real_loadtxt):
    """``np.loadtxt`` as NumPy 1.23 to 2.x parse integer fields: a field
    written as a float ("2.0") warns with a DeprecationWarning and is
    truncated, and when that warning is an error the field fails with a
    ValueError."""
    def loadtxt(stream, dtype, **kwargs):
        text = stream.read()
        try:
            return real_loadtxt(io.StringIO(text), dtype=dtype, **kwargs)
        except ValueError:
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
            except DeprecationWarning as exc:
                raise ValueError("could not convert string to int64") from exc
            as_floats = [(name, np.float64) for name in np.dtype(dtype).names]
            return real_loadtxt(io.StringIO(text), dtype=as_floats, **kwargs).astype(dtype)
    return loadtxt


IDENTITY_2 = """%%MatrixMarket matrix coordinate real general
2 2 2
1 1 1.0
2 2 1.0
"""


class TestRead:
    def test_identity(self):
        a = read_matrix_market(mm(IDENTITY_2))
        assert a.n_rows == a.n_cols == 2
        assert list(a.col_ptr) == [0, 1, 2]
        assert list(a.values) == [1.0, 1.0]

    def test_duplicates_summed(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 2.0\n1 1 2.0\n"
        a = read_matrix_market(mm(text))
        # oracle: dense accumulator over the raw triplets
        acc = np.zeros((2, 2))
        acc[0, 0] += 2.0
        acc[0, 0] += 2.0
        assert np.array_equal(a.to_dense(), acc)
        assert a.nnz == 1 and a.values[0] == 4.0

    def test_out_of_bounds(self):
        text = "%%MatrixMarket matrix coordinate real general\n3 3 1\n4 1 1.0\n"
        with pytest.raises(MatrixMarketError):
            read_matrix_market(mm(text))

    def test_malformed_header(self):
        with pytest.raises(MatrixMarketError):
            read_matrix_market(mm("%%NotMatrixMarket nope\n1 1 0\n"))

    @pytest.mark.parametrize("field", ["complex", "pattern"])
    def test_unsupported_fields(self, field):
        text = f"%%MatrixMarket matrix coordinate {field} general\n1 1 1\n1 1 1\n"
        with pytest.raises(UnsupportedFieldError):
            read_matrix_market(mm(text))

    @pytest.mark.parametrize("sym", ["general", "symmetric"])
    def test_integer_field_reads_as_real(self, sym):
        body = "3 3 6\n1 1 4\n2 1 -1\n3 1 0\n2 2 7 % note\n3 3 -12\n3 3 2\n"
        real = f"%%MatrixMarket matrix coordinate real {sym}\n" + body
        a = read_matrix_market(mm(real.replace("real", "integer")))
        assert a.same_as(read_matrix_market(mm(real)))
        # the per-line oracle reads the real field only, and no trailing comment
        plain = real.replace(" % note", "")
        assert a.same_as(loop_reference.read_matrix_market(mm(plain)))
        assert a.to_dense()[2, 2] == -10.0 and a.nnz == (5 if sym == "symmetric" else 4)

    @pytest.mark.parametrize("value", ["1.5", "-0.25", "1e-3"])
    def test_integer_field_non_integral_value(self, value):
        text = f"%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 1\n2 2 {value}\n"
        with pytest.raises(MatrixMarketError, match="integral") as exc_info:
            read_matrix_market(mm(text))
        assert not isinstance(exc_info.value, UnsupportedFieldError)

    def test_entry_count_mismatch(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n"
        with pytest.raises(MatrixMarketError):
            read_matrix_market(mm(text))

    def test_symmetric_expansion(self):
        text = ("%%MatrixMarket matrix coordinate real symmetric\n"
                "2 2 3\n1 1 3.0\n2 1 -1.0\n2 2 3.0\n")
        a = read_matrix_market(mm(text))
        assert np.array_equal(a.to_dense(), [[3.0, -1.0], [-1.0, 3.0]])

    @pytest.mark.parametrize("body", [
        "3 2 1\n2 1 1.0\n",          # every mirrored index fits: read as 3x2 before
        "2 3 1\n1 3 1.0\n",          # the mirror (3, 1) is out of bounds
    ])
    def test_symmetric_must_be_square(self, body):
        text = "%%MatrixMarket matrix coordinate real symmetric\n" + body
        with pytest.raises(MatrixMarketError, match="square"):
            read_matrix_market(mm(text))

    def test_comments_and_blanks_skipped(self):
        text = ("%%MatrixMarket matrix coordinate real general\n"
                "% a comment\n\n2 2 1\n% another\n2 1 5.0\n")
        a = read_matrix_market(mm(text))
        assert a.to_dense()[1, 0] == 5.0

    def test_explicit_zero_purged(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 0.0\n2 2 1.0\n"
        a = read_matrix_market(mm(text))
        assert a.nnz == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value(self, value):
        text = f"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 {value}\n"
        with pytest.raises(MatrixMarketError, match="finite"):
            read_matrix_market(mm(text))

    @pytest.mark.parametrize("line", ["2 2", "2 2 1.0 7", "2.0 2 1.0", "2 x 1.0",
                                      "1e0 2 1.0", "2 2 one"])
    def test_malformed_entry_line(self, line):
        text = f"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n{line}\n"
        with pytest.raises(MatrixMarketError):
            read_matrix_market(mm(text))

    @pytest.mark.parametrize("line", ["1.5 2 1.0", "2.0 2 1.0", "2 1e0 1.0"])
    def test_index_parsed_via_float_is_an_error(self, line, monkeypatch):
        monkeypatch.setattr(np, "loadtxt", _loadtxt_parsing_ints_via_float(np.loadtxt))
        text = f"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n{line}\n"
        with pytest.raises(MatrixMarketError):
            read_matrix_market(mm(text))

    def test_other_warnings_reach_the_caller(self, monkeypatch):
        real_loadtxt = np.loadtxt

        def loadtxt(*args, **kwargs):
            warnings.warn("an unrelated loadtxt warning", UserWarning)
            return real_loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n"
        with pytest.warns(UserWarning, match="unrelated"):
            read_matrix_market(mm(text))

    def test_trailing_comment_on_entry_line(self):
        text = ("%%MatrixMarket matrix coordinate real general\n"
                "2 2 2\n2 1 5.0 % a note\n1 2 -1.0%tight\n")
        a = read_matrix_market(mm(text))
        assert np.array_equal(a.to_dense(), [[0.0, -1.0], [5.0, 0.0]])

    def test_no_warning_without_entries(self, tmp_path):
        header = "%%MatrixMarket matrix coordinate real general\n"
        none_declared = tmp_path / "none.mtx"
        none_declared.write_text(header + "3 2 0\n% nothing follows\n")
        empty_body = tmp_path / "empty.mtx"
        empty_body.write_text(header + "3 2 2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_matrix_market(str(none_declared)).same_as(CscMatrix.empty(3, 2))
            with pytest.raises(MatrixMarketError, match="declared 2 entries, found 0"):
                read_matrix_market(str(empty_body))


@st.composite
def coo_matrices(draw, max_n=8, max_entries=20):
    n_rows = draw(st.integers(1, max_n))
    n_cols = draw(st.integers(1, max_n))
    count = draw(st.integers(0, max_entries))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=count, max_size=count))
    cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=count, max_size=count))
    vals = draw(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=count,
                         max_size=count))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=count, max_size=count))
    v = [a * s for a, s in zip(vals, signs)]
    return CscMatrix.from_coo(n_rows, n_cols, rows, cols, v)


@settings(max_examples=60, deadline=None)
@given(coo_matrices())
def test_matrix_market_round_trip(a):
    buf = io.StringIO()
    write_matrix_market(a, buf)
    buf.seek(0)
    again = read_matrix_market(buf)
    assert again.same_as(a)


class TestColumnStats:
    def test_identity(self):
        stats = column_stats(CscMatrix.identity(100))
        assert (stats.p, stats.p_d, stats.s) == (1, 1, 0)

    def test_tridiagonal_plus_dense_column(self):
        n = 50
        dense = tridiagonal(n).to_dense()
        dense[:, 7] = 0.5
        a = CscMatrix.from_dense(dense)
        # oracle: count per column on the dense array
        counts = (dense != 0).sum(axis=0)
        stats = column_stats(a, 10.0)
        assert np.array_equal(stats.per_col_nnz, counts)
        assert stats.p_d == 50
        assert stats.s == int(np.sum(counts >= 10 * max(1, a.nnz // n)))
        assert stats.s == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            column_stats(CscMatrix.empty(3, 3))

    @pytest.mark.parametrize("factor", [np.nan, np.inf, 0.0])
    def test_bad_factor_rejected(self, factor):
        with pytest.raises(ValueError, match="factor"):
            column_stats(CscMatrix.identity(4), factor)

    def test_reference_matrix_structural_fields(self):
        path = require_uf("fs_541_3")
        a = read_matrix_market(path)
        stats = column_stats(a, 10.0)
        assert a.n_rows == 541
        assert a.nnz == 4282
        assert stats.p == 7
        assert stats.p_d == 538
        assert stats.s == 1


class TestMatvec:
    def test_identity(self):
        x = np.arange(4.0)
        assert np.array_equal(matvec(CscMatrix.identity(4), x), x)

    def test_2x2(self):
        a = CscMatrix.from_dense([[2.0, 1.0], [0.0, 3.0]])
        assert np.array_equal(matvec(a, np.ones(2)), [3.0, 3.0])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            matvec(CscMatrix.identity(3), np.ones(4))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_against_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
        a = CscMatrix.from_dense(dense)
        x = rng.standard_normal(n)
        y = matvec(a, x)
        ref = dense @ x
        scale = max(1.0, float(np.linalg.norm(ref)))
        assert np.linalg.norm(y - ref) <= 1e-13 * scale

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 7), st.booleans())
    def test_block_equals_per_vector_bit_for_bit(self, seed, k, fortran):
        rng = np.random.default_rng(seed)
        m, n = (int(d) for d in rng.integers(1, 40, size=2))
        a = CscMatrix.from_dense(rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.3))
        x = rng.standard_normal((n, k))
        y = matvec(a, np.asfortranarray(x) if fortran else x)
        assert y.shape == (m, k)
        for j in range(k):
            assert y[:, j].tobytes() == matvec(a, x[:, j].copy()).tobytes()

    @pytest.mark.parametrize("shape", [(4,), (2, 4), (3, 2, 1)])
    def test_block_dim_mismatch(self, shape):
        with pytest.raises(ValueError, match="dimension mismatch"):
            matvec(CscMatrix.identity(3), np.ones(shape))

    def test_large_instance_against_dense_oracle(self):
        rng = np.random.default_rng(200)
        for n in (120, 200):
            dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.05)
            a = CscMatrix.from_dense(dense)
            x = rng.standard_normal(n)
            ref = dense @ x
            err = np.linalg.norm(matvec(a, x) - ref)
            assert err <= 1e-13 * max(1.0, np.linalg.norm(ref))


class TestNorms:
    def test_identity(self):
        assert norm1(CscMatrix.identity(3)) == 1.0

    def test_2x2(self):
        a = CscMatrix.from_dense([[2.0, -1.0], [0.0, 3.0]])
        assert norm1(a) == 4.0

    def test_random_against_dense(self):
        rng = np.random.default_rng(11)
        dense = rng.standard_normal((30, 30)) * (rng.random((30, 30)) < 0.3)
        a = CscMatrix.from_dense(dense)

        def seq_sums(arr, axis):
            # sequential accumulation in storage order, so equality is exact
            out = np.zeros(arr.shape[1 - axis])
            if axis == 0:
                for j in range(arr.shape[1]):
                    acc = 0.0
                    for i in range(arr.shape[0]):
                        acc += abs(arr[i, j])
                    out[j] = acc
            else:
                for i in range(arr.shape[0]):
                    acc = 0.0
                    for j in range(arr.shape[1]):
                        acc += abs(arr[i, j])
                    out[i] = acc
            return out

        assert norm1(a) == seq_sums(dense, 0).max()
        assert norm_inf(a) == seq_sums(dense, 1).max()


class TestPermuteRows:
    def test_rows_move(self):
        a = CscMatrix.from_dense([[1.0, 0.0], [2.0, 3.0], [0.0, 4.0]])
        assert np.array_equal(permute_rows(a, [2, 0, 1]).to_dense(), a.to_dense()[[2, 0, 1]])

    @pytest.mark.parametrize("perm", [[0, 0, 2], [-1, 0, 1], [0, 1, 5], [1, 1, 1], [0, 1]])
    def test_non_permutation_rejected(self, perm):
        with pytest.raises(ValueError):
            permute_rows(tridiagonal(3), perm)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=20), st.lists(st.integers(-1, 7), max_size=20),
       st.integers(7, 9))
def test_flat_layout_helpers(owner, values, n):
    owner = np.sort(np.array(owner, dtype=np.int64))
    ptr = pointers(owner, n)
    assert ptr.dtype == np.int64 and np.array_equal(ptr, np.searchsorted(owner, np.arange(n + 1)))
    assert np.array_equal(owners(ptr), owner)
    inner = np.arange(len(owner)) % n
    outer, got = key_parts(owner * n + inner, n)
    assert np.array_equal(outer, owner) and np.array_equal(got, inner)
    assert np.array_equal(owner[run_starts(owner)], np.unique(owner))
    assert np.array_equal(sorted_unique(owner[::-1]), np.unique(owner))
    values = np.array(values, dtype=np.int64)
    assert np.array_equal(member(np.unique(owner), values), np.isin(values, owner))


class TestZeroFreeDiagonal:
    def test_identity_when_diagonal_full(self):
        a = tridiagonal(6)
        perm = zero_free_diagonal_permutation(a)
        assert np.array_equal(perm, np.arange(6))

    def test_antidiagonal_reversal(self):
        a = CscMatrix.from_dense([[0, 0, 1.0], [0, 2.0, 0], [3.0, 0, 0]])
        perm = zero_free_diagonal_permutation(a)
        # oracle: enumerate all 3! permutations admitting a zero-free diagonal
        import itertools
        dense = a.to_dense()
        valid = [p for p in itertools.permutations(range(3))
                 if all(dense[p[j], j] != 0 for j in range(3))]
        assert valid == [(2, 1, 0)]
        assert tuple(perm) in valid
        permuted = permute_rows(a, perm)
        assert permuted.has_full_structural_diagonal()

    def test_structural_singularity(self):
        a = CscMatrix.from_dense([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(StructurallySingularError):
            zero_free_diagonal_permutation(a)

    def test_weak_diagonal_swapped_only_when_always(self):
        a = CscMatrix.from_dense([[1e-3, 1.0], [1.0, 1e-3]])
        assert np.array_equal(zero_free_diagonal_permutation(a), [0, 1])
        assert np.array_equal(zero_free_diagonal_permutation(a, always=True), [1, 0])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_permuted_diagonal_is_zero_free(self, seed):
        rng = np.random.default_rng(seed)
        a = CscMatrix.from_dense(random_pattern(rng, int(rng.integers(2, 10))))
        p = zero_free_diagonal_permutation(a)
        assert permute_rows(a, p).has_full_structural_diagonal()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 9), st.booleans(), st.integers(0, 2 ** 31 - 1))
    @example(0, False, 0)
    @example(1, False, 0)          # the 1 x 1 zero: no matching
    @example(1, True, 0)
    def test_maximum_product_against_structural_oracle(self, n, plant, seed):
        a = CscMatrix.from_dense(random_pattern(np.random.default_rng(seed), n, plant))
        try:
            oracle = loop_reference.zero_free_diagonal_permutation(a)
        except StructurallySingularError:
            for always in (False, True):
                with pytest.raises(StructurallySingularError):
                    zero_free_diagonal_permutation(a, always=always)
            return
        log_product = lambda p: float(np.log(np.abs(permute_rows(a, p).diagonal())).sum())
        floor = log_product(oracle)
        for always in (False, True):
            p = zero_free_diagonal_permutation(a, always=always)
            assert np.array_equal(np.sort(p), np.arange(n))
            assert permute_rows(a, p).has_full_structural_diagonal()
            assert log_product(p) >= floor - 1e-12 * max(1.0, abs(floor))


def random_pattern(rng, n: int, plant: bool = True) -> np.ndarray:
    """Dense n x n array with about 20% of its entries stored, at magnitudes
    spread over twelve decades; ``plant`` plants a perfect matching."""
    dense = np.zeros((n, n))
    if plant:
        dense[rng.permutation(n), np.arange(n)] = 1.0
    extra = rng.random((n, n)) < 0.2
    dense[extra] = rng.choice((-1.0, 1.0), size=int(extra.sum()))
    return dense * 10.0 ** rng.uniform(-6.0, 6.0, size=(n, n))


class TestSparseVector:
    def test_normalization(self):
        v = SparseVector(5, [3, 1, 2], [1.0, 0.0, 2.0])
        assert list(v.indices) == [2, 3]
        assert list(v.values) == [2.0, 1.0]

    def test_round_trip(self):
        x = np.array([0.0, 1.5, 0.0, -2.0])
        assert np.array_equal(SparseVector.from_dense(x).to_dense(), x)
