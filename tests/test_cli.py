import numpy as np
import pytest

from biorth.cli import main
from biorth.matio import read_matrix, read_trace, write_matrix
from biorth.rng import make_rng


@pytest.fixture(autouse=True)
def in_tmp_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def trace_without_timing(path):
    return [(r.iter, r.cost, r.grad_norm, r.feas_err) for r in read_trace(path)]


class TestModelProblem:
    def test_writes_outputs_and_summary(self, capsys):
        code = main(["model-problem", "--n", "20", "--seed", "1",
                     "--max-iters", "30", "--out", "run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "final_cost=" in out and "feas_err=" in out
        assert "iters=" in out and "seconds=" in out
        trace = read_trace("run.trace.csv")
        assert len(trace) <= 31
        assert all(rec.feas_err <= 1e-8 for rec in trace)
        x = read_matrix("run.X.txt")
        y = read_matrix("run.Y.txt")
        assert np.linalg.norm(x @ y - np.eye(20)) <= 1e-8

    def test_deterministic_reruns(self):
        args = ["model-problem", "--n", "15", "--seed", "3", "--max-iters", "20"]
        assert main(args + ["--out", "a"]) == 0
        assert main(args + ["--out", "b"]) == 0
        assert trace_without_timing("a.trace.csv") == trace_without_timing("b.trace.csv")
        assert read_matrix("a.X.txt").tobytes() == read_matrix("b.X.txt").tobytes()

    def test_zero_n_is_usage_error(self, capsys):
        assert main(["model-problem", "--n", "0"]) == 2

    def test_gd_solver_flag(self):
        assert main(["model-problem", "--n", "8", "--solver", "gd",
                     "--max-iters", "10", "--out", "gd"]) == 0
        trace = read_trace("gd.trace.csv")
        costs = [r.cost for r in trace]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_benchmark_scale_invocation(self):
        # the documented full-size reproduction command
        code = main(["model-problem", "--n", "100", "--seed", "1",
                     "--solver", "cg", "--max-iters", "100", "--out", "bench"])
        assert code == 0
        trace = read_trace("bench.trace.csv")
        assert len(trace) <= 101
        assert all(rec.feas_err <= 1e-8 for rec in trace)


class TestPenalty:
    def test_summary_reports_violation(self, capsys):
        code = main(["penalty", "--n", "20", "--seed", "1", "--alpha", "100",
                     "--max-iters", "40", "--out", "pen"])
        assert code == 0
        trace = read_trace("pen.trace.csv")
        # relaxed runs drift off the constraint set
        assert trace[-1].feas_err > 1e-6
        costs = [r.cost for r in trace]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_nonpositive_alpha_is_usage_error(self):
        assert main(["penalty", "--n", "5", "--alpha", "0"]) == 2
        assert main(["penalty", "--n", "5", "--alpha", "-2"]) == 2


class TestFunmap:
    def test_synthetic_run(self, capsys):
        code = main(["funmap", "--synthetic", "--q" , "32", "--k", "8",
                     "--seed", "7", "--max-iters", "200", "--grad-tol", "1e-12",
                     "--out", "fm"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovery_c1=" in out and "recovery_c2=" in out
        c1 = read_matrix("fm.C1.txt")
        c2 = read_matrix("fm.C2.txt")
        assert np.linalg.norm(c1 @ c2 - np.eye(8)) <= 1e-10

    def test_q_less_than_k_is_usage_error(self):
        assert main(["funmap", "--synthetic", "--q", "4", "--k", "16"]) == 2

    def test_file_mode_runs(self, tmp_path):
        problem_seed = make_rng(5)
        a = problem_seed.standard_normal((12, 4))
        c = np.eye(4) + 0.1 * problem_seed.standard_normal((4, 4))
        write_matrix("a.txt", a)
        write_matrix("b.txt", a @ c)
        code = main(["funmap", "--a", "a.txt", "--b", "b.txt",
                     "--max-iters", "200", "--grad-tol", "1e-12", "--out", "ff"])
        assert code == 0
        c1 = read_matrix("ff.C1.txt")
        assert np.linalg.norm(a @ c1 - a @ c) <= 1e-5

    def test_file_mode_with_weight_matrix(self):
        rng = make_rng(6)
        a = rng.standard_normal((12, 4))
        c = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        write_matrix("a.txt", a)
        write_matrix("b.txt", a @ c)
        write_matrix("w.txt", np.abs(np.arange(4)[:, None] - np.arange(4)[None, :]) / 4.0)
        assert main(["funmap", "--a", "a.txt", "--b", "b.txt", "--w", "w.txt",
                     "--lambda", "0.01", "--max-iters", "50", "--out", "fw"]) == 0

    def test_file_mode_dimension_mismatch_is_data_error(self, capsys):
        write_matrix("a.txt", np.zeros((6, 3)))
        write_matrix("b.txt", np.zeros((5, 3)))
        assert main(["funmap", "--a", "a.txt", "--b", "b.txt"]) == 1

    def test_negative_weight_file_is_data_error(self, capsys):
        write_matrix("a.txt", make_rng(7).standard_normal((6, 3)))
        write_matrix("b.txt", make_rng(8).standard_normal((6, 3)))
        write_matrix("w.txt", -np.ones((3, 3)))
        assert main(["funmap", "--a", "a.txt", "--b", "b.txt", "--w", "w.txt"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_wide_a_file_is_data_error(self, capsys):
        write_matrix("a.txt", np.ones((2, 3)))
        write_matrix("b.txt", np.ones((2, 3)))
        assert main(["funmap", "--a", "a.txt", "--b", "b.txt"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_file_mode_requires_paths(self):
        assert main(["funmap"]) == 2

    def test_missing_file_is_data_error(self):
        assert main(["funmap", "--a", "no.txt", "--b", "b.txt"]) == 1


class TestProject:
    def write_inputs(self, n=3):
        rng = make_rng(11)
        write_matrix("x0.txt", np.eye(n))
        write_matrix("y0.txt", np.eye(n))
        self.phi = rng.standard_normal((n, n))
        self.psi = rng.standard_normal((n, n))
        write_matrix("phi.txt", self.phi)
        write_matrix("psi.txt", self.psi)

    def test_identity_base_closed_form(self, capsys):
        self.write_inputs()
        code = main(["project", "--x0", "x0.txt", "--y0", "y0.txt",
                     "--phi", "phi.txt", "--psi", "psi.txt", "--out", "pr"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("tangent_residual=")
        assert float(out.split("=")[1]) <= 1e-10 * 3
        assert np.allclose(read_matrix("pr.X.txt"), (self.phi - self.psi) / 2.0)
        assert np.allclose(read_matrix("pr.Y.txt"), (self.psi - self.phi) / 2.0)

    def test_infeasible_base_is_data_error(self, capsys):
        self.write_inputs()
        write_matrix("x0.txt", 2.0 * np.eye(3))
        code = main(["project", "--x0", "x0.txt", "--y0", "y0.txt",
                     "--phi", "phi.txt", "--psi", "psi.txt"])
        assert code == 1
        assert "not biorthogonal" in capsys.readouterr().err


class TestCheck:
    def test_single_suite_passes(self, capsys):
        assert main(["check", "--suite", "exp-identity"]) == 0
        out = capsys.readouterr().out
        assert "exp-identity: PASS" in out

    def test_zero_tolerance_fails(self, capsys):
        assert main(["check", "--suite", "exp-identity", "--tol", "0"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_negative_tolerance_is_usage_error(self):
        assert main(["check", "--tol", "-1"]) == 2


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["model-problem", "--grad-tol", "nan"],
            ["funmap", "--synthetic", "--noise", "nan"],
            ["penalty", "--alpha", "nan"],
            ["model-problem", "--scale", "nan"],
            ["check", "--tol", "nan"],
        ],
        ids=["grad-tol", "noise", "alpha", "scale", "tol"],
    )
    def test_nan_flag_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert "must be >" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
