import json

import numpy as np
import pytest

from saikit import (CscMatrix, DriverConfig, PsaiConfig, SpaiConfig, cli, driver,
                    generate_test_matrix, matvec, read_matrix_market, solve_irregular,
                    write_matrix_market)
from saikit.cli import DEFAULT_MEM_GUARD, main
from saikit.driver import SCHEMA_VERSION
from .conftest import dense_split_factor, tridiagonal, with_dense_column


TIMING_KEYS = {"t_setup", "t_solve", "T_setup", "T_solve"}


def strip_timings(obj):
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def write_mtx(path, a: CscMatrix) -> str:
    write_matrix_market(a, str(path))
    return str(path)


def run_json(capsys, argv) -> tuple[int, dict]:
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


@pytest.fixture
def identity_mtx(tmp_path):
    return write_mtx(tmp_path / "identity.mtx", CscMatrix.identity(12))


@pytest.fixture
def irregular_mtx(tmp_path):
    a = generate_test_matrix("dominant-row", 40, planted_dense_cols=2, seed=5)
    return write_mtx(tmp_path / "irregular.mtx", a), a


class TestAnalyze:
    def test_identity(self, capsys, identity_mtx):
        rc, payload = run_json(capsys, ["analyze", identity_mtx])
        assert rc == 0
        assert payload["p"] == 1 and payload["s"] == 0
        assert payload["strict_row_dd"] is True
        assert "kappa_1" in payload

    def test_planted_columns_reported(self, capsys, tmp_path):
        a = generate_test_matrix("dominant-row", 30, planted_dense_cols=3, seed=2)
        path = write_mtx(tmp_path / "p3.mtx", a)
        rc, payload = run_json(
            capsys, ["analyze", path, "--factor", str(dense_split_factor(a))])
        assert rc == 0
        assert payload["s"] == 3

    @pytest.mark.parametrize("factor", ["nan", "inf", "0"])
    def test_bad_factor_exit_two(self, capsys, identity_mtx, factor):
        assert main(["analyze", identity_mtx, "--factor", factor]) == 2
        assert capsys.readouterr().out == ""

    def test_cond_max_n_below_n_reports_no_kappa(self, capsys, identity_mtx):
        _, payload = run_json(capsys, ["analyze", identity_mtx, "--cond-max-n", "11"])
        assert "kappa_1" not in payload
        _, payload = run_json(capsys, ["analyze", identity_mtx, "--cond-max-n", "12"])
        assert payload["kappa_1"] == 1.0

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("not a matrix\n")
        assert main(["analyze", str(bad)]) == 2

    def test_missing_file_exit_code(self):
        assert main(["analyze", "/no/such/file.mtx"]) == 2

    def test_bad_flag_exit_code(self):
        assert main(["analyze"]) == 2

    @pytest.mark.parametrize("argv", [["analyze", "--threads", "2"], ["analyze", "--seed", "1"],
                                      ["split", "--threads", "2"], ["split", "--seed", "1"],
                                      ["precond", "--seed", "1"], ["bench", "--method", "psai"],
                                      ["bench", "--precond-file", "m.mtx"]])
    def test_flag_the_command_does_not_use_rejected(self, capsys, identity_mtx, argv):
        assert main([argv[0], identity_mtx] + argv[1:]) == 2
        capsys.readouterr()


class TestSplitCommand:
    def test_regular_matrix_sidecar(self, capsys, tmp_path):
        a = tridiagonal(9)
        path = write_mtx(tmp_path / "reg.mtx", a)
        prefix = str(tmp_path / "out")
        rc, payload = run_json(capsys, ["split", path, "--prefix", prefix])
        assert rc == 0
        assert payload["s"] == 0
        sidecar = json.loads((tmp_path / "out_split.json").read_text())
        assert sidecar["s"] == 0
        a_tilde = read_matrix_market(f"{prefix}_a_tilde.mtx")
        assert a_tilde.same_as(a)

    def test_irregular_matrix_outputs(self, capsys, tmp_path, irregular_mtx):
        path, a = irregular_mtx
        prefix = str(tmp_path / "irr")
        rc, payload = run_json(
            capsys, ["split", path, "--prefix", prefix,
                     "--factor", str(dense_split_factor(a))])
        assert rc == 0
        assert payload["s"] == 2
        a_tilde = read_matrix_market(f"{prefix}_a_tilde.mtx")
        u = read_matrix_market(f"{prefix}_u.mtx")
        recon = a_tilde.to_dense()
        for i, j in enumerate(payload["irregular_cols"]):
            recon[:, j] += u.to_dense()[:, i]
        assert np.array_equal(recon, a.to_dense())

    def test_sidecar_is_the_stdout_report(self, capsys, tmp_path, irregular_mtx):
        path, a = irregular_mtx
        rc, payload = run_json(capsys, ["split", path, "--prefix", str(tmp_path / "irr"),
                                        "--factor", str(dense_split_factor(a))])
        assert rc == 0
        assert json.loads((tmp_path / "irr_split.json").read_text()) == payload
        assert payload["schema_version"] == SCHEMA_VERSION and payload["input"] == path


@pytest.mark.parametrize("argv, reads", [
    (["analyze"], 1), (["split", "--prefix", "OUT"], 1), (["precond", "--matrix-out", "OUT"], 1),
    (["solve"], 1), (["solve", "--rhs", "RHS"], 2), (["solve", "--precond-file", "M"], 2),
    (["solve", "--rhs", "RHS", "--precond-file", "M"], 3), (["bench"], 1),
    (["bench", "--rhs", "RHS"], 2)])
def test_each_file_is_read_once(capsys, tmp_path, monkeypatch, identity_mtx, argv, reads):
    files = {"OUT": str(tmp_path / "out"), "M": identity_mtx,
             "RHS": write_mtx(tmp_path / "b.mtx", CscMatrix.from_dense(np.ones((12, 1))))}
    read = []
    monkeypatch.setattr(cli, "read_matrix_market",
                        lambda path: read.append(path) or read_matrix_market(path))
    assert main([argv[0], identity_mtx] + [files.get(arg, arg) for arg in argv[1:]]) == 0
    capsys.readouterr()
    assert len(read) == reads and read[0] == identity_mtx


class TestOutputPath:
    """An unwritable ``--output`` exits 2 before the input is read, and writes nothing."""

    @pytest.mark.parametrize("argv", [["analyze"], ["split", "--prefix", "PREFIX"],
                                      ["precond", "--matrix-out", "PREFIX_m.mtx"], ["solve"],
                                      ["bench"]])
    @pytest.mark.parametrize("output", ["nodir/x.json", "DIR", "FILE/x.json"])
    def test_unwritable_output_exits_two_before_any_work(self, capsys, tmp_path, monkeypatch,
                                                         identity_mtx, argv, output):
        (tmp_path / "file").write_text("")
        names = {"PREFIX": str(tmp_path / "p"), "PREFIX_m.mtx": str(tmp_path / "p_m.mtx"),
                 "DIR": str(tmp_path), "FILE/x.json": str(tmp_path / "file" / "x.json"),
                 "nodir/x.json": str(tmp_path / "nodir" / "x.json")}

        def forbidden(path):
            raise AssertionError("the input must not be read")

        monkeypatch.setattr(cli, "read_matrix_market", forbidden)
        before = sorted(tmp_path.iterdir())
        rc = main([argv[0], identity_mtx, *(names.get(x, x) for x in argv[1:]),
                   "--output", names[output]])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "--output" in captured.err
        assert sorted(tmp_path.iterdir()) == before

    def test_split_writes_no_file(self, capsys, tmp_path, irregular_mtx):
        rc = main(["split", irregular_mtx[0], "--prefix", str(tmp_path / "p"),
                   "--output", str(tmp_path / "nodir" / "x.json")])
        assert rc == 2 and capsys.readouterr().out == ""
        assert not list(tmp_path.glob("p_*"))

    def test_failed_run_leaves_no_report_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["solve", str(tmp_path / "missing.mtx"), "--output", str(out)])
        assert rc == 2 and capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_report_file_is_the_stdout_text(self, capsys, tmp_path, irregular_mtx, existing):
        out = tmp_path / "report.json"
        if existing:
            out.write_text("stale")
        rc = main(["solve", irregular_mtx[0], "--output", str(out)])
        assert rc == 0
        assert out.read_text() == capsys.readouterr().out


class TestPrecondSolve:
    def test_precond_reuse(self, capsys, tmp_path, identity_mtx):
        m_path = str(tmp_path / "m.mtx")
        rc, payload = run_json(capsys, ["precond", identity_mtx, "--method", "psai",
                                        "--matrix-out", m_path])
        assert rc == 0 and payload["nnz_m"] == 12
        first = (tmp_path / "m.mtx").read_bytes()
        rc, report = run_json(capsys, ["solve", identity_mtx,
                                       "--precond-file", m_path])
        assert rc == 0 and report["a"] < 1.0
        assert (tmp_path / "m.mtx").read_bytes() == first

    @pytest.mark.parametrize("method", ["spai", "psai"])
    def test_precond_stats_keys_match_solve(self, capsys, tmp_path, irregular_mtx, method):
        path, _ = irregular_mtx
        rc, precond = run_json(capsys, ["precond", path, "--method", method,
                                        "--matrix-out", str(tmp_path / "m.mtx")])
        assert rc == 0
        _, report = run_json(capsys, ["solve", path, "--method", method])
        stats = report["preconditioner_stats"]
        assert set(stats) <= set(precond)
        assert set(precond) - set(stats) == {"schema_version", "input", "method",
                                             "matrix_out"}

    @pytest.mark.parametrize("method", ["spai", "psai"])
    def test_precond_file_report_keys_match_solve(self, capsys, tmp_path,
                                                  irregular_mtx, method):
        path, _ = irregular_mtx
        m_path = str(tmp_path / "m.mtx")
        run_json(capsys, ["precond", path, "--method", method, "--matrix-out", m_path])
        _, normal = run_json(capsys, ["solve", path, "--method", method])
        rc, reused = run_json(capsys, ["solve", path, "--method", method,
                                       "--precond-file", m_path])
        assert rc == 0
        assert set(reused) == set(normal) | {"precond_file"}
        assert reused["precond_file"] == m_path
        stats = reused["preconditioner_stats"]
        assert set(stats) == set(normal["preconditioner_stats"])
        build_only = {"t_setup", "guard_hits", "n_c", "max_candidates", "l_m", "n_failed"}
        assert all(stats[key] == 0 for key in build_only & set(stats))
        assert stats["nnz_m"] == read_matrix_market(m_path).nnz

    def test_precond_file_zero_rhs(self, capsys, tmp_path, identity_mtx):
        rhs_path = write_mtx(tmp_path / "zero.mtx", CscMatrix.empty(12, 1))
        rc, report = run_json(capsys, ["solve", identity_mtx, "--rhs", rhs_path,
                                       "--precond-file", identity_mtx])
        assert rc == 0
        assert report["rr"] == 0.0 and report["x_hat"] == [0.0] * 12
        assert report["preconditioner_stats"]["nnz_m"] == 12

    @pytest.mark.parametrize("m_shape", [(39, 39), (40, 39)])
    @pytest.mark.parametrize("rhs", ["zero", "ones"])
    def test_mis_sized_precond_file_exit_two(self, capsys, tmp_path, irregular_mtx,
                                             m_shape, rhs):
        # a zero right-hand side once took a shortcut that never looked at M
        m_path = write_mtx(tmp_path / "m.mtx", CscMatrix.from_dense(np.eye(*m_shape)))
        if rhs == "zero":
            rhs = write_mtx(tmp_path / "zero.mtx", CscMatrix.empty(40, 1))
        rc = main(["solve", irregular_mtx[0], "--rhs", rhs, "--precond-file", m_path])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"preconditioner is {m_shape[0]}x{m_shape[1]}, matrix is 40x40" in captured.err

    @pytest.mark.parametrize("scale", [1e-165, 1e160])
    def test_rhs_norm_out_of_range_exit_two(self, capsys, tmp_path, irregular_mtx, scale):
        # b = A 1 is nonzero, but ||b||^2 under- or overflows in float64
        a = irregular_mtx[1]
        scaled = CscMatrix(a.n_rows, a.n_cols, a.col_ptr, a.row_idx, a.values * scale)
        rc = main(["solve", write_mtx(tmp_path / "scaled.mtx", scaled)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "right-hand side norm is" in captured.err

    def test_split_column_norm_overflow_exit_two(self, capsys, tmp_path):
        # b = 1 is fine, but a dense column's norm overflows in float64
        a = generate_test_matrix("dominant-row", 80, planted_dense_cols=2, seed=7)
        huge = CscMatrix(a.n_rows, a.n_cols, a.col_ptr, a.row_idx, a.values * 1e160)
        rhs = write_mtx(tmp_path / "ones.mtx", CscMatrix.from_dense(np.ones((80, 1))))
        rc = main(["solve", write_mtx(tmp_path / "huge.mtx", huge), "--rhs", rhs])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rescale A and b" in captured.err and "overflow" not in captured.err

    def test_solve_exit_zero_on_target(self, capsys, tmp_path, irregular_mtx):
        path, a = irregular_mtx
        rc, report = run_json(
            capsys, ["solve", path, "--eps", "1e-8", "--max-iter", "500",
                     "--factor", str(dense_split_factor(a))])
        assert rc == 0
        assert report["a"] < 1.0
        assert report["s"] == 2

    def test_solve_rhs_from_file(self, capsys, tmp_path, identity_mtx):
        rhs = CscMatrix.from_coo(12, 1, np.arange(12), np.zeros(12, dtype=int),
                                 np.arange(1.0, 13.0))
        rhs_path = write_mtx(tmp_path / "b.mtx", rhs)
        rc, report = run_json(capsys, ["solve", identity_mtx, "--rhs", rhs_path])
        assert rc == 0
        assert np.allclose(report["x_hat"], np.arange(1.0, 13.0), atol=1e-10)

    def test_determinism_modulo_timings(self, capsys, tmp_path, irregular_mtx):
        path, a = irregular_mtx
        argv = ["solve", path, "--seed", "3",
                "--factor", str(dense_split_factor(a))]
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        assert strip_timings(first) == strip_timings(second)

    def test_output_file(self, capsys, tmp_path, identity_mtx):
        out = tmp_path / "report.json"
        rc, _ = run_json(capsys, ["solve", identity_mtx, "--output", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["a"] < 1.0

    def test_missed_target_exit_one(self, capsys, tmp_path):
        path = write_mtx(tmp_path / "hard.mtx", tridiagonal(40, diag=2.05))
        rc, report = run_json(capsys, ["solve", path, "--eps", "1e-8",
                                       "--max-iter", "1"])
        assert rc == 1
        assert report["a"] >= 1.0

    @pytest.mark.parametrize("flags", [["--eps", "inf"], ["--eps", "nan"],
                                       ["--c-policy", "fixed:inf"], ["--tol", "fixed:nan"],
                                       ["--factor", "nan"], ["--factor", "inf"],
                                       ["--c-policy", "fixed:0"], ["--c-policy", "fixed:-1"],
                                       ["--c-policy", "bogus"]])
    def test_non_finite_setting_exit_two(self, capsys, irregular_mtx, flags):
        assert main(["solve", irregular_mtx[0]] + flags) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag, c", [("fixed:0.5", 0.5), ("posthoc", "posthoc")])
    def test_c_policy_is_the_driver_c(self, capsys, monkeypatch, irregular_mtx, flag, c):
        seen = []
        solve = driver.solve_irregular

        def recording(a, b, cfg):
            seen.append(cfg.c)
            return solve(a, b, cfg)

        monkeypatch.setattr(driver, "solve_irregular", recording)
        assert main(["solve", irregular_mtx[0], "--c-policy", flag]) in (0, 1)
        capsys.readouterr()
        assert seen == [c]

    @pytest.mark.parametrize("flags", [["--threads", "0"], ["--threads", "-3"],
                                       ["--max-iter", "0"], ["--p-kept", "0"],
                                       ["--mem-guard", "0"], ["--mem-guard", "-1"]])
    def test_count_below_one_exit_two(self, capsys, irregular_mtx, flags):
        assert main(["solve", irregular_mtx[0]] + flags) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["solve", "precond"])
    def test_settings_are_read_for_the_method_that_runs(self, capsys, tmp_path,
                                                        irregular_mtx, command):
        # delta 0.6 is valid for SPAI, (0, 1), and not for PSAI, (0, 0.5)
        argv = [command, irregular_mtx[0], "--delta", "0.6"]
        if command == "precond":
            argv += ["--matrix-out", str(tmp_path / "m.mtx")]
        rc, report = run_json(capsys, argv + ["--method", "spai"])
        assert rc == 0 and report["method"] == "spai"
        assert main(argv + ["--method", "psai"]) == 2
        assert capsys.readouterr().out == ""

    def test_structural_singularity_exit_three(self, tmp_path, capsys):
        a = CscMatrix.from_dense([[1.0, 1.0], [0.0, 0.0]])
        path = write_mtx(tmp_path / "sing.mtx", a)
        for permute in ("auto", "always"):
            assert main(["solve", path, "--permute", permute]) == 3
            assert "structurally singular" in capsys.readouterr().err


class TestLmax:
    """``--lmax``, as the benchmark passes it, reaches the build of either method."""

    @pytest.mark.parametrize("method", ["spai", "psai"])
    def test_lmax_zero_is_the_library_build(self, capsys, irregular_mtx, method):
        path, _ = irregular_mtx
        rc, report = run_json(capsys, ["solve", path, "--method", method, "--lmax", "0"])
        assert rc in (0, 1)
        a = read_matrix_market(path)
        build = {"spai": SpaiConfig, "psai": PsaiConfig}[method](
            l_max=0, max_workspace_bytes=DEFAULT_MEM_GUARD)
        want = solve_irregular(a, matvec(a, np.ones(a.n_cols)),
                               DriverConfig(method=method, **{method: build}))
        assert np.array(report["x_hat"]).tobytes() == want.x_hat.tobytes()
        assert report["preconditioner_stats"]["nnz_m"] == want.preconditioner_stats["nnz_m"]

    @pytest.mark.parametrize("flags, caps", [([], {"spai": 20, "psai": 10}),
                                             (["--lmax", "0"], {"spai": 0, "psai": 0})])
    def test_each_method_keeps_its_own_cap(self, capsys, monkeypatch, irregular_mtx,
                                           flags, caps):
        seen = {}

        def recording(name, build):
            def record(a, cfg, **kwargs):
                seen[name] = cfg.l_max
                return build(a, cfg, **kwargs)
            return record

        for name in caps:
            monkeypatch.setattr(driver, name, recording(name, getattr(driver, name)))
            assert main(["solve", irregular_mtx[0], "--method", name] + flags) in (0, 1)
        capsys.readouterr()
        assert seen == caps

    @pytest.mark.parametrize("method", ["spai", "psai"])
    def test_negative_lmax_exit_two(self, capsys, irregular_mtx, method):
        assert main(["solve", irregular_mtx[0], "--method", method, "--lmax", "-1"]) == 2
        assert capsys.readouterr().out == ""


class TestBench:
    def test_identity_all_variants(self, capsys, identity_mtx):
        rc, payload = run_json(capsys, ["bench", identity_mtx])
        assert rc == 0
        assert [r["variant"] for r in payload["rows"]] == \
            ["S-SPAI", "N-SPAI", "S-PSAI", "N-PSAI"]
        for row in payload["rows"]:
            assert row["status"] == "ok"
            assert row["iter"] <= 1
            assert row["a"] < 1.0

    def test_irregular_instance_new_psai_converges(self, capsys, tmp_path,
                                                   irregular_mtx):
        path, a = irregular_mtx
        rc, payload = run_json(
            capsys, ["bench", path, "--variants", "N-PSAI",
                     "--factor", str(dense_split_factor(a))])
        assert rc == 0
        (row,) = payload["rows"]
        assert row["a"] < 1.0 and row["status"] == "ok"

    def test_workspace_guard_row(self, capsys, tmp_path):
        n = 60
        a = with_dense_column(tridiagonal(n, diag=2.2), 30, fill=1.0,
                              keep_diag=2.2)
        path = write_mtx(tmp_path / "dense_col.mtx", a)
        rc, payload = run_json(
            capsys, ["bench", path, "--variants", "S-PSAI",
                     "--mem-guard", "2000"])
        (row,) = payload["rows"]
        assert row["status"] == "skipped: workspace guard"
        assert "a" not in row

    @pytest.mark.parametrize("guard", ["0", "-1"])
    def test_workspace_guard_below_one_exit_two(self, capsys, identity_mtx, guard):
        assert main(["bench", identity_mtx, "--mem-guard", guard]) == 2
        assert capsys.readouterr().out == ""

    def test_unknown_variant_rejected(self, capsys, identity_mtx):
        assert main(["bench", identity_mtx, "--variants", "X-FOO"]) == 2

    @pytest.mark.parametrize("variants", [",", "", " , "])
    def test_empty_variants_rejected(self, capsys, identity_mtx, variants):
        assert main(["bench", identity_mtx, "--variants", variants]) == 2
        assert capsys.readouterr().out == ""

    def test_every_config_checked_before_the_first_row(self, capsys, identity_mtx):
        argv = ["bench", identity_mtx, "--delta", "0.6"]
        rc, payload = run_json(capsys, argv + ["--variants", "S-SPAI,N-SPAI"])
        assert rc == 0 and len(payload["rows"]) == 2
        assert main(argv + ["--variants", "S-SPAI,N-PSAI"]) == 2
        assert capsys.readouterr().out == ""
