"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS/FAIL line (visible with ``pytest -s``)."""

import time

import numpy as np
import pytest
import scipy.linalg

from saikit import (DriverConfig, PsaiConfig, SpaiConfig, assemble_solution, classify,
                    column_stats, generate_test_matrix, matvec, read_matrix_market,
                    solve_irregular, split, subsystem_tolerances)
from saikit.psai import psai
from saikit.spai import spai
from .conftest import (dense_split_factor, require_uf, tridiagonal,
                       with_dense_column)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{label}]: {status}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def _row_margins_dense(dense: np.ndarray) -> np.ndarray:
    absd = np.abs(np.diag(dense))
    return absd - (np.abs(dense).sum(axis=1) - absd)


def test_criterion_1_low_rank_recovery_exactness():
    rng = np.random.default_rng(20240811)
    kinds = ("dominant-row", "dominant-col", "m-matrix")
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(10, 101))
        planted = int(rng.integers(1, min(5, max(2, n // 6)) + 1))
        a = generate_test_matrix(kinds[trial % 3], n, planted_dense_cols=planted,
                                 seed=int(rng.integers(1 << 31)))
        sys_ = split(a, factor=dense_split_factor(a))
        assert 1 <= sys_.s <= 5
        dense = a.to_dense()
        at_dense = sys_.a_tilde.to_dense()
        b = dense @ rng.uniform(-1.0, 1.0, size=n)
        x, _ = assemble_solution(np.linalg.solve(at_dense, b),
                                 np.linalg.solve(at_dense, sys_.u.to_dense()),
                                 sys_.irregular_cols)
        ref = np.linalg.solve(dense, b)
        rel = np.linalg.norm(x - ref) / np.linalg.norm(ref)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(1, "low-rank recovery vs dense inverse",
            worst <= 1e-9 and elapsed < 10.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_stopping_budget_soundness():
    rng = np.random.default_rng(777)
    eps = 1e-8
    t0 = time.perf_counter()
    passed = 0
    identity_ok = True
    total = 200
    samples_per_instance = 20
    instance = 0
    while passed < total:
        instance += 1
        n = int(rng.integers(20, 61))
        a = generate_test_matrix("dominant-row", n,
                                 planted_dense_cols=int(rng.integers(1, 5)),
                                 seed=int(rng.integers(1 << 31)))
        sys_ = split(a, factor=dense_split_factor(a))
        s = sys_.s
        dense = a.to_dense()
        at_dense = sys_.a_tilde.to_dense()
        u_dense = sys_.u.to_dense()
        norm_u = np.linalg.norm(u_dense, axis=0)
        b = dense @ rng.uniform(0.5, 1.5, size=n)
        norm_b = np.linalg.norm(b)
        y_exact = np.linalg.solve(at_dense, b)
        w_exact = np.linalg.solve(at_dense, u_dense)
        for _ in range(samples_per_instance):
            if passed >= total:
                break
            theta_y = rng.uniform(0.05, 0.95)
            theta_w = rng.uniform(0.05, 0.95, size=s)
            y_hat, w_hat = y_exact, w_exact
            for _ in range(50):
                c_mat = np.eye(s) + w_hat[sys_.irregular_cols, :]
                c = float(np.linalg.norm(np.linalg.solve(
                    c_mat, y_hat[sys_.irregular_cols])))
                tol_y, tol_w = subsystem_tolerances(eps, s, max(c, 1e-300),
                                                    norm_b, norm_u)
                r_y = rng.standard_normal(n)
                r_y *= theta_y * tol_y * norm_b / np.linalg.norm(r_y)
                r_w = rng.standard_normal((n, s))
                r_w *= theta_w * tol_w * norm_u / np.linalg.norm(r_w, axis=0)
                y_hat = np.linalg.solve(at_dense, b - r_y)
                w_hat = np.linalg.solve(at_dense, u_dense - r_w)
                c_after = float(np.linalg.norm(np.linalg.solve(
                    np.eye(s) + w_hat[sys_.irregular_cols, :],
                    y_hat[sys_.irregular_cols])))
                ok_y = np.linalg.norm(r_y) / norm_b < tol_y
                bound_w = eps * norm_b / (2.0 * np.sqrt(s) * max(c_after, 1e-300)
                                          * norm_u)
                ok_w = bool(np.all(np.linalg.norm(r_w, axis=0) / norm_u < bound_w))
                if ok_y and ok_w:
                    break
            else:
                _report(2, "stopping-criteria budget", False,
                        "post-hoc factor failed to stabilize")
            x_hat, _ = assemble_solution(y_hat, w_hat, sys_.irregular_cols)
            r_direct = b - dense @ x_hat
            rr = np.linalg.norm(r_direct) / norm_b
            z = np.linalg.solve(np.eye(s) + w_hat[sys_.irregular_cols, :],
                                y_hat[sys_.irregular_cols])
            r_formula = r_y - (u_dense - at_dense @ w_hat) @ z
            if np.linalg.norm(r_direct - r_formula) > 1e-10 * max(1.0, norm_b):
                identity_ok = False
            if rr < eps:
                passed += 1
            else:
                _report(2, "stopping-criteria budget", False,
                        f"sample missed target: rr={rr:.3e}")
    elapsed = time.perf_counter() - t0
    _report(2, "stopping-criteria budget",
            passed == total and identity_ok and elapsed < 30.0,
            f"{passed}/{total} below eps, identity ok={identity_ok}, "
            f"{elapsed:.1f}s")


def test_criterion_3_class_preservation():
    rng = np.random.default_rng(4242)
    checks = {"dominant-row": lambda rep: rep.strict_row_dd,
              "dominant-col": lambda rep: rep.strict_col_dd,
              "m-matrix": lambda rep: rep.m_matrix}
    preserved = 0
    margins_ok = True
    total = 0
    for kind, flag in checks.items():
        for _ in range(50):
            total += 1
            n = int(rng.integers(20, 201))
            planted = int(rng.integers(1, 4))
            a = generate_test_matrix(kind, n, planted_dense_cols=planted,
                                     seed=int(rng.integers(1 << 31)))
            assert flag(classify(a))
            sys_ = split(a, factor=dense_split_factor(a))
            rep_tilde = classify(sys_.a_tilde)
            min_pivot = np.abs(np.diag(scipy.linalg.lu(sys_.a_tilde.to_dense())[2])).min()
            if flag(rep_tilde) and min_pivot > 0.0:
                preserved += 1
            beta = _row_margins_dense(a.to_dense())
            beta_tilde = _row_margins_dense(sys_.a_tilde.to_dense())
            if not np.all(beta_tilde >= beta):
                margins_ok = False
            if sys_.u.nnz > 0 and not np.any(beta_tilde > beta):
                margins_ok = False
    _report(3, "class preservation under sparsification",
            preserved == total and margins_ok,
            f"{preserved}/{total} preserved, margins ok={margins_ok}")


def test_criterion_4_adaptive_pattern_growth_contract():
    rng = np.random.default_rng(99)
    cfg = SpaiConfig(delta=0.4, mn=5, l_max=20, record_choices=True)
    converged_ok = True
    nnz_ok = True
    rho_violations = 0
    for _ in range(30):
        n = int(rng.integers(20, 101))
        a = generate_test_matrix("dominant-row", n,
                                 seed=int(rng.integers(1 << 31)))
        dense = a.to_dense()
        _, rep = spai(a, cfg)
        assert rep.errors == []
        for k in range(n):
            res = rep.columns[k]
            if res.converged:
                e = np.zeros(n); e[k] = 1.0
                true_resid = np.linalg.norm(dense @ res.m_k.to_dense() - e)
                if true_resid > cfg.delta:
                    converged_ok = False
            if res.m_k.nnz > 1 + cfg.mn * cfg.l_max:
                nnz_ok = False
            for rhos, chosen in zip(res.profile.choices, res.profile.chosen):
                chosen_set = set(chosen)
                worst = max(rho for j, rho in rhos if j in chosen_set)
                for j, rho in rhos:
                    if j not in chosen_set and rho < worst:
                        rho_violations += 1
    _report(4, "adaptive pattern-growth contract",
            converged_ok and nnz_ok and rho_violations == 0,
            f"residuals ok={converged_ok}, nnz ok={nnz_ok}, "
            f"rho violations={rho_violations}")


def test_criterion_5_dropping_residual_guarantee():
    rng = np.random.default_rng(550)
    cfg = PsaiConfig(delta=0.4, l_max=10)
    two_delta_ok = True
    envelope_violations = 0
    for trial in range(30):
        n = int(rng.integers(10, 16)) if trial < 12 else int(rng.integers(16, 41))
        a = generate_test_matrix("dominant-row", n,
                                 seed=int(rng.integers(1 << 31)))
        dense = a.to_dense()
        boolean = (np.abs(dense) > 0) | np.eye(n, dtype=bool)
        _, rep_basic = psai(a, cfg, dropping=False)
        _, rep = psai(a, cfg)
        assert rep_basic.errors == [] and rep.errors == []
        for k in range(n):
            basic = rep_basic.columns[k]
            assert basic.residual_norm <= cfg.delta, \
                "instance violates the basic-variant precondition"
            res = rep.columns[k]
            e = np.zeros(n); e[k] = 1.0
            true_resid = np.linalg.norm(dense @ res.m_k.to_dense() - e)
            if true_resid > 2 * cfg.delta:
                two_delta_ok = False
            if res.m_k.nnz > basic.m_k.nnz:
                two_delta_ok = False
            if n <= 15:
                reach = np.zeros(n, dtype=bool)
                reach[k] = True
                for _ in range(res.loops_used):
                    reach = boolean @ reach
                if not set(res.m_k.indices.tolist()) <= set(np.flatnonzero(reach)):
                    envelope_violations += 1
    _report(5, "dropping keeps residuals within twice delta",
            two_delta_ok and envelope_violations == 0,
            f"2-delta ok={two_delta_ok}, envelope violations={envelope_violations}")


def test_criterion_6_end_to_end_accuracy():
    rng = np.random.default_rng(31337)
    eps = 1e-8
    instances = []
    for _ in range(20):
        n = int(rng.integers(50, 301))
        planted = int(rng.integers(1, 5))
        a = generate_test_matrix("dominant-row", n, planted_dense_cols=planted,
                                 seed=int(rng.integers(1 << 31)))
        instances.append(a)

    a_values_fixed = []
    for a in instances:
        cfg = DriverConfig(epsilon=eps, method="psai", c=1.0,
                           factor=dense_split_factor(a))
        rep = solve_irregular(a, matvec(a, np.ones(a.n_rows)), cfg)
        assert rep.s >= 1
        a_values_fixed.append(rep.a)
    below_one = sum(1 for v in a_values_fixed if v < 1.0)
    below_two = sum(1 for v in a_values_fixed if v < 2.0)

    a_values_posthoc = []
    for a in instances:
        cfg = DriverConfig(epsilon=eps, method="psai", c="posthoc",
                           factor=dense_split_factor(a))
        rep = solve_irregular(a, matvec(a, np.ones(a.n_rows)), cfg)
        a_values_posthoc.append(rep.a)
    posthoc_below_one = sum(1 for v in a_values_posthoc if v < 1.0)

    _report(6, "end-to-end accuracy multiples",
            below_one >= 18 and below_two == 20 and posthoc_below_one == 20,
            f"fixed: {below_one}/20 below 1, {below_two}/20 below 2; "
            f"posthoc: {posthoc_below_one}/20 below 1")


def test_criterion_7_candidate_flood_signal():
    n = 500
    a = with_dense_column(tridiagonal(n, diag=2.2), 250, fill=1.0, keep_diag=2.2)
    sys_ = split(a, factor=10.0)
    assert sys_.s == 1
    cfg = SpaiConfig(delta=0.4, mn=5, l_max=20)
    _, rep_a = spai(a, cfg)
    _, rep_t = spai(sys_.a_tilde, cfg)
    ratio_floor = 10 * max(rep_t.max_candidates, 1)
    _report(7, "irregularity cost signal",
            rep_a.max_candidates >= ratio_floor,
            f"max |candidates| {rep_a.max_candidates} on A vs "
            f"{rep_t.max_candidates} on the sparsified matrix")


TABLE_FIELDS = {
    "fs_541_3": (541, 4282, 7, 538, 1),
    "fs_541_4": (541, 4273, 7, 535, 1),
    "rajat04": (1041, 8725, 8, 642, 4),
    "tols4000": (4000, 8784, 2, 22, 18),
}


def test_criterion_8_reference_matrix_smoke():
    paths = {name: require_uf(name) for name in TABLE_FIELDS}
    fields_ok = True
    for name, (n, nnz, p, p_d, s) in TABLE_FIELDS.items():
        a = read_matrix_market(paths[name])
        stats = column_stats(a, 10.0)
        if (a.n_rows, a.nnz, stats.p, stats.p_d, stats.s) != (n, nnz, p, p_d, s):
            fields_ok = False
    solves_ok = True
    for name in ("fs_541_3", "fs_541_4"):
        a = read_matrix_market(paths[name])
        cfg = DriverConfig(method="psai", max_iter=500)
        rep = solve_irregular(a, matvec(a, np.ones(a.n_rows)), cfg)
        if rep.max_iter_used > 500 or not rep.converged:
            solves_ok = False
    _report(8, "reference-matrix structural smoke",
            fields_ok and solves_ok,
            f"fields ok={fields_ok}, solves ok={solves_ok}")
