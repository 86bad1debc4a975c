import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import biorth.checks
from biorth.cli import PARSER, main
from biorth.matio import format_real, read_matrix, read_trace, write_matrix
from biorth.problems import synth_funmap
from biorth.rng import make_rng
from biorth.solvers import SolverOptions
from biorth_launcher import THREAD_VARIABLES


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
        assert f" feas_err={format_real(trace[-1].feas_err)} " in out
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

    def test_large_targets_run(self):
        # Targets of size 1e5 give projected gradients whose tangency residual,
        # about 7e-8, is rounding relative to the data but above the absolute
        # default_tan_tol(5) = 5e-9.
        assert main(["model-problem", "--n", "5", "--scale", "1e5",
                     "--max-iters", "50", "--out", "big"]) == 0

    def test_overflowing_start_cost_is_data_error_without_warning(self, capsys):
        # Targets near 1e160 make the squared residuals overflow at the start
        # point. The suite turns a RuntimeWarning into an exception, so this
        # also checks that no warning escapes before the typed error.
        code = main(["model-problem", "--n", "5", "--scale", "1e160",
                     "--max-iters", "20", "--out", "huge"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: cost at the starting point is not finite: inf\n"
        assert not os.path.exists("huge.trace.csv")

    def test_benchmark_scale_invocation(self):
        # the documented full-size reproduction command
        code = main(["model-problem", "--n", "100", "--seed", "1",
                     "--solver", "cg", "--max-iters", "100", "--out", "bench"])
        assert code == 0
        trace = read_trace("bench.trace.csv")
        assert len(trace) <= 101
        assert all(rec.feas_err <= 1e-8 for rec in trace)


@pytest.mark.parametrize("command", ["model-problem", "penalty"])
def test_run_without_a_finite_trial_is_numerical_error(command, capsys):
    # At targets near 1e100 the start cost is finite, but every trial step of
    # the first search, down to the step floor, overflows. The suite turns a
    # RuntimeWarning into an exception, so no warning escapes either.
    code = main([command, "--n", "5", "--scale", "1e100", "--max-iters", "20", "--out", "huge"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: no trial step of the line search, down to min_step = 1.0e-16, has a finite cost\n")
    assert not os.path.exists("huge.trace.csv")


def test_search_rejected_by_the_feasibility_check_says_so(capsys):
    # At targets near 1e5 the iterates' feas_err nears the absolute tolerance
    # default_feas_tol(100), and the final search's trial points fail the
    # feasibility check; the message counts them apart from numerical failures.
    # The iteration of that search depends on the retraction's rounding (it
    # was 56 when this budget was set), so the budget leaves room past it.
    code = main(["model-problem", "--n", "100", "--scale", "1e5", "--max-iters", "100",
                 "--out", "big"])
    assert code == 1
    assert re.fullmatch(
        r"error: no trial step of the line search, down to min_step = 1\.0e-16, has a finite "
        r"cost: [1-9]\d* trial points failed the feasibility check and \d+ failed numerically\n",
        capsys.readouterr().err)


class TestPenalty:
    def test_summary_reports_violation(self, capsys):
        code = main(["penalty", "--n", "20", "--seed", "1", "--alpha", "100",
                     "--max-iters", "40", "--out", "pen"])
        assert code == 0
        trace = read_trace("pen.trace.csv")
        # relaxed runs drift off the constraint set
        assert trace[-1].feas_err > 1e-6
        assert f" feas_err={format_real(trace[-1].feas_err)} " in capsys.readouterr().out
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

    def test_file_mode_large_data_recovers_truth(self):
        # The synthetic instance with its data scaled by 100 has the same
        # truth, and its gradients are 1e4 times larger.
        problem, truth = synth_funmap(3, 64, 16)
        write_matrix("a.txt", 100.0 * problem.a)
        write_matrix("b.txt", 100.0 * problem.b)
        code = main(["funmap", "--a", "a.txt", "--b", "b.txt", "--seed", "3",
                     "--out", "big"])
        assert code == 0
        assert np.linalg.norm(read_matrix("big.C1.txt") - truth.x) <= 1e-10
        assert np.linalg.norm(read_matrix("big.C2.txt") - truth.y) <= 1e-10

    def test_file_mode_overflowing_gradient_is_numerical_error(self, capsys):
        # Data times 1e100 gives gradient entries near 1e200, whose squared
        # norm overflows: the run must fail rather than report iters=0.
        problem, _ = synth_funmap(3, 64, 16)
        write_matrix("a.txt", 1e100 * problem.a)
        write_matrix("b.txt", 1e100 * problem.b)
        code = main(["funmap", "--a", "a.txt", "--b", "b.txt", "--seed", "3",
                     "--out", "huge"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "gradient norm is not finite" in err
        assert not os.path.exists("huge.trace.csv")

    def test_non_finite_start_gradient_is_named_as_such(self, capsys):
        # Noise of 1e300 makes the start gradient overflow inside the problem,
        # whose gradient constructor rejects it before the run can begin: the
        # message names the gradient, not one of its internal legs.
        code = main(["funmap", "--synthetic", "--q", "4", "--k", "2", "--noise", "1e300",
                     "--out", "noisy"])
        assert code == 1
        assert capsys.readouterr().err == "error: gradient at the starting point is not finite\n"
        assert not os.path.exists("noisy.trace.csv")

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

    @pytest.mark.parametrize("synthetic, flag, value", [
        (True, "--a", "a.txt"), (True, "--b", "b.txt"), (True, "--w", "w.txt"),
        (False, "--q", "10"), (False, "--k", "4"), (False, "--noise", "5"),
    ])
    def test_a_flag_of_the_other_mode_is_usage_error(self, synthetic, flag, value, capsys):
        # Neither mode reads the other's flags, so setting one is a usage error
        # and not a run that silently ignores it.
        a = make_rng(5).standard_normal((12, 4))
        for name, m in (("a.txt", a), ("b.txt", a), ("w.txt", np.ones((4, 4)))):
            write_matrix(name, m)
        if synthetic:
            mode, flags = "synthetic", ["--synthetic", "--q", "8", "--k", "4"]
        else:
            mode, flags = "file", ["--a", "a.txt", "--b", "b.txt"]
        assert main(["funmap", *flags, flag, value, "--max-iters", "2", "--out", "mixed"]) == 2
        assert capsys.readouterr().err == f"usage error: {flag}: not used in {mode} mode\n"
        assert not os.path.exists("mixed.trace.csv")


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

    def test_overflowing_projection_is_numerical_error_without_warning(self, capsys):
        # x0 = Q D, y0 = D^-1 Q^T with D = diag(10^e), e in [-75, 300], is
        # feasible to rounding, but with ambient entries N(0, 1) * 10^[-300, 0]
        # the projection's products overflow. The suite turns a RuntimeWarning
        # into an exception, so this also checks that no warning escapes.
        n = 150
        rng = make_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d = 10.0 ** rng.integers(-75, 301, n)
        write_matrix("x0.txt", q * d)
        write_matrix("y0.txt", (q / d).T)
        for name in ("phi", "psi"):
            write_matrix(f"{name}.txt", rng.standard_normal((n, n))
                         * 10.0 ** rng.integers(-300, 1, (n, n)))
        code = main(["project", "--x0", "x0.txt", "--y0", "y0.txt",
                     "--phi", "phi.txt", "--psi", "psi.txt", "--out", "wide"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: tangent projection overflowed: the result has non-finite entries\n")
        assert not os.path.exists("wide.X.txt")


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

    @staticmethod
    def cheap_suite(value):
        @biorth.checks._worst_of_samples
        def suite():
            yield "worst err", 1.0, 0.5
            yield "worst err", 1.0, value

        return suite

    def test_without_a_suite_every_suite_runs_in_order(self, capsys, monkeypatch):
        monkeypatch.setattr(biorth.checks, "SUITES",
                            {"second": self.cheap_suite(0.25), "first": self.cheap_suite(0.75)})
        assert main(["check"]) == 0
        assert capsys.readouterr().out == (
            "second: PASS (worst err 5.000e-01 <= 1.000e+00)\n"
            "first: PASS (worst err 7.500e-01 <= 1.000e+00)\n")

    def test_without_a_suite_a_nan_sample_fails_the_run(self, capsys, monkeypatch):
        monkeypatch.setattr(biorth.checks, "SUITES",
                            {"second": self.cheap_suite(math.nan), "first": self.cheap_suite(0.75)})
        assert main(["check"]) == 1
        assert capsys.readouterr().out == (
            "second: FAIL (worst err nan <= 1.000e+00)\n"
            "first: PASS (worst err 7.500e-01 <= 1.000e+00)\n")


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["model-problem", "--grad-tol", "nan"],
            ["funmap", "--synthetic", "--noise", "nan"],
            ["penalty", "--alpha", "nan"],
            ["model-problem", "--scale", "nan"],
            ["check", "--tol", "nan"],
            ["funmap", "--synthetic", "--lambda", "nan"],
        ],
        ids=["grad-tol", "noise", "alpha", "scale", "tol", "lambda"],
    )
    def test_nan_flag_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert "must be >" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["penalty", "--n", "3", "--alpha", "inf", "--max-iters", "2"],
            ["funmap", "--synthetic", "--q", "8", "--k", "4", "--lambda", "inf", "--max-iters", "2"],
            ["model-problem", "--n", "3", "--scale", "inf", "--max-iters", "2"],
            ["penalty", "--n", "3", "--scale", "inf", "--max-iters", "2"],
            ["funmap", "--synthetic", "--q", "8", "--k", "4", "--noise", "inf", "--max-iters", "2"],
            ["check", "--tol", "inf"],
        ],
        ids=["alpha", "lambda", "model-scale", "penalty-scale", "noise", "check-tol"],
    )
    def test_infinite_weight_is_usage_error(self, argv, capsys):
        # Weights, data scales, noise levels and the check suites' tolerance
        # factor alike: an infinite one is refused by the parser before any
        # data is drawn or any suite passes.
        assert main(argv) == 2
        assert "and finite, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["model-problem", "penalty", "funmap"])
    def test_negative_seed_is_usage_error(self, command, capsys):
        assert main([command, "--seed", "-1"]) == 2
        assert "--seed: must be >= 0" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    def test_solver_defaults_are_the_solver_options(self):
        for command in ("model-problem", "penalty", "funmap"):
            args = PARSER.parse_args([command])
            assert args.grad_tol == SolverOptions.grad_tol == 1e-8
            assert args.max_iters == (500 if command == "funmap" else SolverOptions.max_iters)
        assert SolverOptions.max_iters == 100


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (["model-problem", "--n", "4", "--max-iters", "2"], ["trace.csv", "X.txt", "Y.txt"]),
        (["penalty", "--n", "4", "--max-iters", "2"], ["trace.csv", "X.txt", "Y.txt"]),
        (["funmap", "--synthetic", "--q", "8", "--k", "4", "--max-iters", "2"],
         ["trace.csv", "C1.txt", "C2.txt"]),
        (["project", "--x0", "in.x0", "--y0", "in.y0", "--phi", "in.phi", "--psi", "in.psi"],
         ["X.txt", "Y.txt"]),
    ],
    ids=["model-problem", "penalty", "funmap", "project"],
)
def test_outputs_default_to_the_command_name(argv, outputs, in_tmp_dir, capsys):
    for name in ("x0", "y0", "phi", "psi"):
        write_matrix(f"in.{name}", np.eye(3))
    assert main(argv) == 0
    written = sorted(p.name for p in in_tmp_dir.iterdir() if not p.name.startswith("in."))
    assert written == sorted(f"{argv[0]}.{suffix}" for suffix in outputs)
    assert PARSER.parse_args(argv).out is None


SRC = Path(__file__).resolve().parent.parent / "src"

# Runs the `biorth` command's entry point in a fresh interpreter, then
# reports the thread variable and, where the OpenBLAS that numpy loaded can
# be found, the thread count OpenBLAS itself reports (None otherwise).
THREAD_PROBE = """
import atexit, ctypes, glob, os, sys
import biorth_launcher
assert "numpy" not in sys.modules, "importing the launcher loaded numpy"

def report():
    import numpy
    count = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(ctypes.CDLL(path), name, None)
            if get is not None:
                count = get()
                break
    print("THREADS", os.environ.get("OPENBLAS_NUM_THREADS"), os.environ.get("OMP_NUM_THREADS"), count)

atexit.register(report)
sys.argv = ["biorth", "check", "--suite", "exp-identity"]
biorth_launcher.entry()
"""


def run_entry_point(**thread_env):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(thread_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    _, openblas, omp, count = done.stdout.split("\n")[-2].split()
    return openblas, omp, None if count == "None" else int(count)


class TestThreadPolicy:
    def test_default_is_one_thread(self):
        openblas, omp, count = run_entry_point()
        assert (openblas, omp) == ("1", "1")
        assert count in (None, 1)

    def test_user_setting_wins(self):
        openblas, omp, count = run_entry_point(OPENBLAS_NUM_THREADS="2")
        assert (openblas, omp) == ("2", "None")
        if count is not None and (os.cpu_count() or 1) >= 2:
            assert count == 2
