"""The lockstep SPAI and PSAI builds and the batched least-squares kernel.

``loop_reference`` keeps the per-column SPAI and PSAI loops the lockstep
builds replaced; ``spai()`` and ``psai()`` must match them column for
column. The batched kernel must give every target the same state, bit for
bit, as the same target solved alone, and stay within rounding of the
Gram-Schmidt reference. A column's result must not depend on the batch it
is built in.
"""

import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saikit import (CscMatrix, PsaiConfig, SpaiConfig, generate_test_matrix, ls_init,
                    permute_rows, psai_column, spai_column)
from saikit import psai as saikit_psai
from saikit import spai as saikit_spai
from saikit.psai import psai
from saikit.spai import spai

from . import gs_reference, loop_reference
from .test_lstsq_reference import EXCEPTIONS, column_value_difference, ls_programs

KINDS = ("dominant-row", "dominant-col", "m-matrix", "irreducible-dd")
seeds = st.integers(0, 2 ** 31 - 1)


def psai_input(rng) -> CscMatrix:
    """A generator or random dominant matrix, maybe with zero and duplicate columns."""
    n = int(rng.integers(2, 41))
    if rng.random() < 0.5:
        kind = str(rng.choice(KINDS))
        dense = generate_test_matrix(kind, max(n, 3), seed=int(rng.integers(2 ** 31)),
                                     planted_dense_cols=int(rng.integers(0, 2))).to_dense()
        n = dense.shape[0]
    else:
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < rng.choice([0.1, 0.3]))
        dense[np.arange(n), np.arange(n)] = np.abs(dense).sum(axis=1) + rng.uniform(0.1, 1, n)
    if rng.random() < 0.3:
        src, dst = rng.choice(n, size=2)
        dense[:, dst] = dense[:, src] * rng.choice([1.0, -2.0])
    if rng.random() < 0.3:
        dense[:, rng.choice(n, size=int(rng.integers(1, 3)))] = 0.0
    if rng.random() < 0.2:
        dense = permute_rows(CscMatrix.from_dense(dense), rng.permutation(n)).to_dense()
    return CscMatrix.from_dense(dense)


def psai_settings(rng) -> tuple[PsaiConfig, bool]:
    tol = "adaptive" if rng.random() < 0.6 else float(rng.choice([1e-3, 1e-2, 0.05]))
    guard = None if rng.random() < 0.8 else int(rng.integers(200, 20000))
    cfg = PsaiConfig(delta=float(rng.choice([0.05, 0.1, 0.2, 0.4])),
                     l_max=int(rng.integers(0, 6)), tol_policy=tol,
                     max_workspace_bytes=guard)
    return cfg, bool(rng.random() < 0.7)


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_psai_matches_per_column_loop(seed):
    rng = np.random.default_rng(seed)
    a = psai_input(rng)
    cfg, dropping = psai_settings(rng)
    m_new, rep_new = psai(a, cfg, dropping=dropping)
    m_old, rep_old = loop_reference.psai(a, cfg, dropping=dropping)
    assert np.array_equal(m_new.col_ptr, m_old.col_ptr)
    assert np.array_equal(m_new.row_idx, m_old.row_idx)
    assert column_value_difference(m_new, m_old) <= 1e-11
    assert rep_new.errors == rep_old.errors
    assert rep_new.l_m == rep_old.l_m
    for new, old in zip(rep_new.columns, rep_old.columns):
        assert new.loops_used == old.loops_used
        assert new.dropped_count == old.dropped_count
        assert [d[:2] for d in new.drops] == [d[:2] for d in old.drops]
        assert abs(new.residual_norm - old.residual_norm) <= 1e-12
        assert new.error == old.error


def spai_settings(rng) -> SpaiConfig:
    guard = None if rng.random() < 0.7 else int(rng.integers(200, 20000))
    return SpaiConfig(delta=float(rng.choice([0.05, 0.1, 0.2, 0.4])),
                      l_max=int(rng.integers(0, 7)), mn=int(rng.integers(1, 6)),
                      record_choices=True, max_workspace_bytes=guard)


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_spai_matches_per_column_loop(seed):
    rng = np.random.default_rng(seed)
    a = psai_input(rng)
    cfg = spai_settings(rng)
    m_new, rep_new = spai(a, cfg)
    m_old, rep_old = loop_reference.spai(a, cfg)
    assert np.array_equal(m_new.col_ptr, m_old.col_ptr)
    assert np.array_equal(m_new.row_idx, m_old.row_idx)
    assert column_value_difference(m_new, m_old) <= 1e-11
    assert rep_new.errors == rep_old.errors
    assert (rep_new.n_c, rep_new.max_candidates) == (rep_old.n_c, rep_old.max_candidates)
    # rho^2 = ||r||^2 - dot^2 / ||A e_j||^2 with each sum in another order
    rho2_tol = 4 * a.n_rows * np.finfo(float).eps
    for new, old in zip(rep_new.columns, rep_old.columns):
        assert (new.loops_used, new.converged, new.error) == \
            (old.loops_used, old.converged, old.error)
        assert abs(new.residual_norm - old.residual_norm) <= 1e-12
        p_new, p_old = new.profile, old.profile
        assert p_new.candidates_per_loop == p_old.candidates_per_loop
        assert p_new.residual_rows_per_loop == p_old.residual_rows_per_loop
        assert p_new.chosen == p_old.chosen
        assert len(p_new.residual_norms) == len(p_old.residual_norms)
        assert np.allclose(p_new.residual_norms, p_old.residual_norms, rtol=0, atol=1e-12)
        for got, want, r in zip(p_new.choices, p_old.choices, p_old.residual_norms):
            assert [j for j, _ in got] == [j for j, _ in want]
            rho2 = np.array([[x for _, x in got], [x for _, x in want]]) ** 2
            assert np.all(np.abs(rho2[0] - rho2[1]) <= rho2_tol * r * r)


def assert_same_column(got, want) -> None:
    """Two column results, equal bit for bit."""
    assert np.array_equal(got.m_k.indices, want.m_k.indices)
    assert got.m_k.values.tobytes() == want.m_k.values.tobytes()
    rest = [f.name for f in fields(got) if f.name != "m_k"]
    assert [getattr(got, f) for f in rest] == [getattr(want, f) for f in rest]


def batch_input(kind: str, shuffled: bool, n: int = 24) -> CscMatrix:
    a = generate_test_matrix(kind, n, planted_dense_cols=1, seed=3)
    if shuffled:
        a = permute_rows(a, np.random.default_rng(3).permutation(n))
    return a


def check_report_sums(rep, cfg) -> None:
    """The report's sums equal, bit for bit, those recomputed from its columns."""
    cols = rep.columns
    assert rep.residuals.tobytes() == np.array([c.residual_norm for c in cols]).tobytes()
    assert rep.errors == [(k, c.error) for k, c in enumerate(cols) if c.error]
    if isinstance(cfg, SpaiConfig):
        assert rep.n_c == sum(c.residual_norm > cfg.delta for c in cols)
        assert rep.max_candidates == max(
            (max(c.profile.candidates_per_loop, default=0) for c in cols), default=0)
    else:
        assert rep.l_m == max((c.loops_used for c in cols), default=0)


def check_batch_invariance(build, build_column, a: CscMatrix, cfg) -> None:
    """Threads 1, 3 and n give the same report, and each column alone the same results."""
    n = a.n_cols
    m1, rep1 = build(a, cfg, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)         # more thread switches inside the batches
    try:
        built = [build(a, cfg, threads=threads) for threads in (3, n)]
    finally:
        sys.setswitchinterval(interval)
    check_report_sums(rep1, cfg)
    for m_t, rep_t in built:
        assert m_t.same_as(m1)
        assert_same_report(rep_t, rep1)
    for k in range(n):
        try:
            alone = build_column(a, k, cfg)
        except EXCEPTIONS as exc:
            assert rep1.columns[k].error == f"{type(exc).__name__}: {exc}"
            continue
        assert_same_column(alone, rep1.columns[k])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shuffled", [False, True])
def test_result_does_not_depend_on_the_batch(kind, shuffled):
    check_batch_invariance(psai, psai_column, batch_input(kind, shuffled), PsaiConfig(delta=0.1))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shuffled", [False, True])
def test_spai_result_does_not_depend_on_the_batch(kind, shuffled):
    check_batch_invariance(spai, spai_column, batch_input(kind, shuffled),
                           SpaiConfig(delta=0.1, record_choices=True))


def test_batches_of_bounded_size_give_the_same_preconditioner(monkeypatch):
    a = generate_test_matrix("m-matrix", 30, planted_dense_cols=1, seed=4)
    whole, _ = psai(a, PsaiConfig(delta=0.1))
    monkeypatch.setattr(saikit_spai, "_BATCH_COLUMNS", 7)
    assert psai(a, PsaiConfig(delta=0.1))[0].same_as(whole)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shuffled", [False, True])
def test_spai_batches_of_bounded_size_give_the_same_preconditioner(kind, shuffled,
                                                                   monkeypatch):
    a = batch_input(kind, shuffled, n=30)
    whole, _ = spai(a, SpaiConfig(delta=0.1))
    monkeypatch.setattr(saikit_spai, "_BATCH_COLUMNS", 7)
    assert spai(a, SpaiConfig(delta=0.1))[0].same_as(whole)


def assert_same_report(got, want) -> None:
    """Two build reports with the same M and the same flat records, bit for bit."""
    assert got.m.same_as(want.m)
    for f in fields(want):
        if f.name == "m":
            continue
        g, w = getattr(got, f.name), getattr(want, f.name)
        if isinstance(w, tuple):
            assert [(x.dtype, x.tobytes()) for x in g] == [(x.dtype, x.tobytes()) for x in w]
        elif isinstance(w, np.ndarray):
            assert (g.dtype, g.tobytes()) == (w.dtype, w.tobytes())
        else:
            assert g == w


BUILDS = {"psai": (psai, PsaiConfig(delta=0.1)),
          "spai": (spai, SpaiConfig(delta=0.1, record_choices=True))}


def built_chunks(monkeypatch, method: str) -> list[list[int]]:
    """The column chunks the builds of ``method`` hand to its lockstep batches, as they start."""
    module = saikit_psai if method == "psai" else saikit_spai
    lockstep, chunks = module._lockstep, []

    def recorded(a, ks, *args):
        chunks.append(ks.tolist())
        return lockstep(a, ks, *args)

    monkeypatch.setattr(module, "_lockstep", recorded)
    return chunks


@pytest.mark.parametrize("method", ["psai", "spai"])
def test_dense_column_under_a_small_cap(method, monkeypatch):
    a = generate_test_matrix("dominant-row", 30, planted_dense_cols=1, seed=4)
    assert a.per_col_nnz.max() == 30
    build, cfg = BUILDS[method]
    _, whole = build(a, cfg)
    monkeypatch.setattr(saikit_spai, "_BATCH_COLUMNS", 7)
    chunks, reports = built_chunks(monkeypatch, method), []
    for threads in (1, 2, 3):
        chunks.clear()
        reports.append(build(a, cfg, threads=threads)[1])
        got = sorted(chunks)            # workers may start out of order
        assert got == [list(range(lo, lo + 6)) for lo in range(0, 30, 6)]
    for rep in reports:
        assert_same_report(rep, whole)


@pytest.mark.parametrize("method", ["psai", "spai"])
def test_overflowing_column_fails_alone(method):
    # a valid, finite A whose column 3 is a lone 1e-310: its fit 1 / 1e-310 overflows
    dense = generate_test_matrix("dominant-row", 80, planted_dense_cols=2, seed=7).to_dense()
    dense[:, 3] = 0.0
    dense[3, 3] = 1e-310
    build, cfg = BUILDS[method]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, rep = build(CscMatrix.from_dense(dense), cfg)
    assert rep.errors == [(3, "DegeneratePatternError: "
                           + ("column 3: " if method == "psai" else "")
                           + "pattern gives a coefficient that is not finite")]
    assert rep.residuals[3] == 1.0 and rep.loops[3] == 0
    assert np.flatnonzero(m.per_col_nnz == 0).tolist() == [3]
    assert rep.n_failed == 1 if method == "psai" else rep.n_c >= 1


@pytest.mark.parametrize("method", ["psai", "spai"])
@pytest.mark.parametrize("threads", [1, 3])
def test_no_columns_is_one_empty_batch(method, threads, monkeypatch):
    build, cfg = BUILDS[method]
    chunks = built_chunks(monkeypatch, method)
    m, rep = build(CscMatrix.empty(0, 0), cfg, threads=threads)
    assert chunks == [[]]
    assert (m.n_rows, m.n_cols, m.nnz) == (0, 0, 0)
    assert rep.columns == [] and rep.errors == [] and len(rep.residuals) == 0


def target_state(ws, t: int):
    """Pattern (insertion order), coefficients, rows, residual and norm of target t."""
    owner, cols, coeffs = ws.pattern()
    mine = owner == t
    res = ws.residual(t)
    return (cols[mine], coeffs[mine].tobytes(), res.indices, res.values.tobytes(),
            float(ws.residual_norms[t]))


def assert_bitwise(batch_state, single_state) -> None:
    for got, want in zip(batch_state, single_state):
        if isinstance(got, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want


@settings(max_examples=150, deadline=None)
@given(ls_programs())
def test_batch_matches_targets_solved_alone(program):
    dense, rng = program
    n = dense.shape[0]
    a = CscMatrix.from_dense(dense)
    n_t = int(rng.integers(1, 7))
    targets = rng.integers(n, size=n_t)
    patterns = [rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
                for _ in range(n_t)]
    guard = None if rng.random() < 0.8 else int(rng.integers(16, 2000))

    def alone(fn):
        try:
            return fn()
        except EXCEPTIONS as exc:
            return exc

    singles = [alone(lambda: ls_init(a, int(k), s, max_workspace_bytes=guard))
               for k, s in zip(targets, patterns)]
    refs = [alone(lambda: gs_reference.ls_init(a, int(k), s, max_workspace_bytes=guard))
            for k, s in zip(targets, patterns)]
    owner = np.concatenate([np.full(len(s), t) for t, s in enumerate(patterns)])
    batch = ls_init(a, targets, (owner, np.concatenate(patterns)), max_workspace_bytes=guard)

    def check() -> None:
        for t, (single, ref) in enumerate(zip(singles, refs)):
            if isinstance(single, Exception):
                got = batch.errors[t]
                assert (type(got), str(got)) == (type(single), str(single))
                assert type(ref) is type(single)
                continue
            assert t not in batch.errors
            assert_bitwise(target_state(batch, t), target_state(single, 0))
            r = ref.residual_norm
            assert abs(single.residual_norm - r) <= 1e-10 * max(1.0, r)
            diff = single.solution().to_dense() - ref.solution().to_dense()
            assert np.linalg.norm(dense @ diff) <= 1e-10

    check()
    for _ in range(int(rng.integers(1, 4))):
        live = [t for t, s in enumerate(singles) if not isinstance(s, Exception)]
        if not live:
            break
        picked = rng.choice(live, size=int(rng.integers(1, len(live) + 1)), replace=False)
        if rng.random() < 0.5:          # augment
            new = {t: np.setdiff1d(rng.choice(n, size=int(rng.integers(1, n + 1))),
                                   singles[t].cols) for t in picked}
            new = {t: c for t, c in new.items() if len(c)}
            if not new:
                continue
            for t, c in new.items():
                err, ref_err = (alone(lambda: ws.augment(a, c)) for ws in (singles[t], refs[t]))
                assert type(err) is type(ref_err)
                if err is not None:
                    singles[t], refs[t] = err, ref_err
            batch.augment(a, np.concatenate(list(new.values())),
                          np.concatenate([np.full(len(c), t) for t, c in new.items()]))
        else:                           # drop
            gone = {t: rng.choice(singles[t].cols,
                                  size=int(rng.integers(1, len(singles[t].cols) + 1)),
                                  replace=False) for t in picked}
            for t, c in gone.items():
                singles[t] = alone(lambda: singles[t].drop_columns(a, c))
                refs[t] = alone(lambda: refs[t].drop_columns(a, c))
            batch = batch.drop_columns(a, np.concatenate(list(gone.values())),
                                       np.concatenate([np.full(len(c), t)
                                                       for t, c in gone.items()]))
        check()
