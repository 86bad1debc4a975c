"""The comparison of tools/same_outputs.py on small hand-made output trees."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)

MATRIX = "2 2\n1 0.5\n-0.25 1\n"
TRACE = "iter,cost,grad_norm,feas_err,elapsed_ms\n0,2,1,0,0.125\n1,1,0.5,1e-16,3.5\n"
CONSOLE = "final_cost=1 feas_err=1e-16 iters=1 seconds=0.004\n--- stderr\n--- exit 0\n"


def write_run(root, matrix=MATRIX, trace=TRACE, console=CONSOLE, name="model-cg-1"):
    run = root / name
    run.mkdir(parents=True)
    (run / "run.X.txt").write_text(matrix)
    (run / "run.trace.csv").write_text(trace)
    (run / same_outputs.CONSOLE).write_text(console)
    return root


def test_identical_trees_match(tmp_path):
    assert same_outputs.differences(write_run(tmp_path / "a"), write_run(tmp_path / "b")) == []


def test_timings_are_ignored(tmp_path):
    a = write_run(tmp_path / "a")
    b = write_run(tmp_path / "b", trace=TRACE.replace("0.125", "9.75").replace("3.5", "12"),
                  console=CONSOLE.replace("seconds=0.004", "seconds=1.250"))
    assert same_outputs.differences(a, b) == []


@pytest.mark.parametrize(
    "changed, name",
    [
        ({"matrix": MATRIX.replace("0.5", "0.6")}, "run.X.txt"),
        ({"trace": TRACE.replace("1e-16", "2e-16")}, "run.trace.csv"),
        ({"console": CONSOLE.replace("iters=1", "iters=2")}, same_outputs.CONSOLE),
        ({"console": CONSOLE.replace("exit 0", "exit 1")}, same_outputs.CONSOLE),
    ],
    ids=["matrix-byte", "trace-value", "stdout", "exit-code"],
)
def test_first_changed_file_is_named(tmp_path, changed, name):
    a = write_run(tmp_path / "a")
    b = write_run(tmp_path / "b", **changed)
    assert same_outputs.differences(a, b) == [str(Path("model-cg-1") / name)]


def test_a_missing_file_differs(tmp_path):
    a = write_run(tmp_path / "a")
    b = write_run(tmp_path / "b")
    (b / "model-cg-1" / "run.X.txt").unlink()
    assert same_outputs.differences(a, b) == [str(Path("model-cg-1") / "run.X.txt")]


def test_every_differing_run_is_named_once(tmp_path):
    # model-cg-1 differs in two files and names its first; model-gd-1 matches.
    a, b = tmp_path / "a", tmp_path / "b"
    for name in ("model-cg-1", "model-gd-1", "penalty-1"):
        write_run(a, name=name)
    write_run(b, name="model-cg-1", matrix=MATRIX.replace("0.5", "0.6"),
              trace=TRACE.replace("1e-16", "2e-16"))
    write_run(b, name="model-gd-1")
    write_run(b, name="penalty-1", console=CONSOLE.replace("exit 0", "exit 1"))
    assert same_outputs.differences(a, b) == [str(Path("model-cg-1") / "run.X.txt"),
                                              str(Path("penalty-1") / same_outputs.CONSOLE)]


def test_summary_says_how_far_a_run_moved(tmp_path):
    # 0.5 -> 0.6 in a matrix whose largest entry is 1; project runs print no cost.
    a, b = tmp_path / "a", tmp_path / "b"
    write_run(a)
    write_run(b, matrix=MATRIX.replace("0.5", "0.6"),
              console=CONSOLE.replace("final_cost=1 ", "final_cost=0.99 "))
    write_run(a, name="project-0", console="--- stderr\n--- exit 0\n")
    write_run(b, name="project-0", console="--- stderr\n--- exit 0\n")
    assert same_outputs.summary(a, b, "model-cg-1") == (
        "max_rel_diff=1.0e-01 final_cost=1 -> 0.99 feas_err=1e-16 -> 1e-16")
    assert same_outputs.summary(a, b, "project-0") == (
        "max_rel_diff=0.0e+00 final_cost=- -> - feas_err=- -> -")


@pytest.mark.parametrize(
    "matrix, note",
    [
        ("2 2\n1 0\n-0.25 1\n", ""),
        ("2 2\n1.0 0.0\n-0.25 1.0\n", "matrix_bits=identical"),
        ("2 2\n1 0\n-0.25 1.0000000000000002\n", "matrix_bits=differ"),
        ("2 2\n1 -0.0\n-0.25 1\n", "matrix_bits=differ"),
    ],
    ids=["same-bytes", "text-only", "one-ulp", "signed-zero"],
)
def test_matrix_bits_tell_a_text_change_from_a_value_change(tmp_path, matrix, note):
    a = write_run(tmp_path / "a", matrix="2 2\n1 0\n-0.25 1\n")
    b = write_run(tmp_path / "b", matrix=matrix)
    assert same_outputs.matrix_bits(a, b, "model-cg-1") == note
