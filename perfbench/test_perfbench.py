"""Tests of the benchmark's own machinery: span arithmetic, restoring
wrapped functions, repeatable per-layer counts and trace parsing."""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import biorth  # noqa: E402
import biorth.cli  # noqa: E402
import compare  # noqa: E402
from bench_child import Run, end_to_end, traced_pass  # noqa: E402
from hostspeed import KERNEL_REFERENCE_S, TEXT_REFERENCE_S, Burst  # noqa: E402
from invocations import Outcome, build, read_trace_columns  # noqa: E402
from layers import PER_LAYER, TARGETS  # noqa: E402
from run import END_TO_END, ROOT  # noqa: E402
from spans import Patch, Recorder, Span, Target, find_wrapped, self_times, totals  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

TINY = (
    Workload("tiny-funmap", "funmap", "test", size=4, items=2, interpreted=0.5,
             max_iters=200, gap=1e-12, pool=(1, 2, 3)),
    Workload("tiny-project", "project", "test", size=6, items=2, interpreted=0.5),
)


def test_self_time_of_nested_span_tree():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9].
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a1", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    t = totals(spans)
    assert (t["root"].calls, t["root"].self_s, t["root"].total_s) == (1, 3.0, 10.0)
    assert sum(x.self_s for x in t.values()) == pytest.approx(10.0)


def test_recorder_folds_same_name_reentry_and_orders_spans():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    outer = rec.open("problems.cost_grad")
    assert rec.open("problems.cost_grad") is None
    inner = rec.open("linalg.as_matrix")
    rec.count("solvers.trial_point")
    with pytest.raises(RuntimeError):
        rec.close(outer)
    rec.close(inner)
    rec.close(outer)
    assert [s.parent for s in rec.spans] == [-1, 0]
    assert rec.counts[("solvers.trial_point", "linalg.as_matrix")] == 1


def _snapshot():
    """Identity of every function-valued attribute of biorth's modules and classes."""
    snap = {}
    for name, module in sys.modules.items():
        if module is None or not (name == "biorth" or name.startswith("biorth.")):
            continue
        for key, value in vars(module).items():
            snap[(name, key)] = id(value)
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    snap[(name, key, attr)] = id(member)
    return snap


# Layers every model-problem run passes through. Other targets may vanish
# from the code under test; the patch skips them and run.py names them.
CORE = {"cli.main", "linalg.svd", "linalg.mat_exp", "manifold.project_tangent",
        "manifold.retract"}


def test_patch_wraps_then_restores_everything(tmp_path):
    before = _snapshot()
    rec = Recorder()
    with Patch(rec, TARGETS) as patch:
        core = [t for t in TARGETS if t.name in CORE]
        assert not {f"{t.module}.{t.attr}" for t in core} & set(patch.missing)
        assert find_wrapped()
        rc = biorth.cli.main(["model-problem", "--n", "4", "--max-iters", "3",
                              "--out", str(tmp_path / "m")])
    assert rc == 0
    assert find_wrapped() == []
    assert _snapshot() == before
    assert CORE <= {s.name for s in rec.spans}


def test_patch_restores_when_the_call_raises():
    before = _snapshot()
    with pytest.raises(biorth.DimensionError):
        with Patch(Recorder(), TARGETS):
            biorth.svd([[1.0, 2.0]])
    assert find_wrapped() == [] and _snapshot() == before


def test_missing_targets_are_skipped():
    with Patch(Recorder(), [Target("x.y", "biorth.linalg", "no_such_function")]) as patch:
        pass
    assert patch.missing == ["biorth.linalg.no_such_function"]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_pass_counts_repeat_exactly(workload, tmp_path):
    # Trace files carry wall-clock columns, so only their byte count varies.
    counted = [name for name, unit, _ in PER_LAYER
               if unit.startswith("count") or name.endswith("matrix.bytes")]
    results = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        run = Run(workload, build(workload, 5, str(workdir)))
        metrics = traced_pass(run)
        assert find_wrapped() == []
        assert len(run.records) == 2 * workload.items
        assert all(o.ok for _, _, o in run.records), [o.reason for _, _, o in run.records]
        assert set(metrics) == {name for name, _, _ in PER_LAYER}
        results.append({name: metrics[name] for name in counted})
    assert results[0] == results[1]
    assert results[0]["cli.main.calls"] == workload.items


def test_traced_pass_refuses_to_run_untraced_calls_on_wrapped_code(tmp_path, monkeypatch):
    leaked = []
    monkeypatch.setattr(Patch, "restore", lambda self: leaked.extend(self._undo))
    run = Run(TINY[1], build(TINY[1], 5, str(tmp_path)))
    try:
        with pytest.raises(RuntimeError, match="left wrappers"):
            traced_pass(run)
        assert len(run.records) == 1
    finally:
        for owner, key, original in reversed(leaked):
            setattr(owner, key, original)
    assert find_wrapped() == []


def test_burst_slowdown_weights_its_parts_by_the_interpreted_share():
    burst = Burst(0.25)
    assert burst.samples == []
    burst()
    assert len(burst.samples) == 1
    burst.samples[:] = [(KERNEL_REFERENCE_S, 2 * TEXT_REFERENCE_S),
                        (3 * KERNEL_REFERENCE_S, 4 * TEXT_REFERENCE_S)]
    assert burst.slowdown() == pytest.approx(0.75 * 2 + 0.25 * 3)


class _HalfSpeed:
    samples = [(0.1, 0.1)]

    def slowdown(self):
        return 2.0


def test_end_to_end_times_are_divided_by_the_slowdown():
    run = Run(TINY[1], [None, None], burst=_HalfSpeed())
    run.records = [(0, 0.2, Outcome(True)), (1, 0.5, Outcome(True)),
                   (0, 0.4, Outcome(True))]
    metrics, extra = end_to_end(run, 50.0)
    assert metrics["wall_s"] == pytest.approx((0.3 + 0.5) / 2)
    assert metrics["ops_per_s"] == pytest.approx(2 / 0.4)
    assert metrics["call_p50_ms"] == pytest.approx(1e3 * (0.15 + 0.25) / 2)
    assert extra["raw_wall_s"] == pytest.approx(0.8)
    assert (extra["calls"], extra["calls_per_item"]) == (3, 1)


def test_trace_columns_are_read_by_name(tmp_path):
    path = tmp_path / "run.trace.csv"
    path.write_text("iter,step,cost,grad_norm,feas_err,ls_evals,elapsed_ms\n"
                    "0,0,5.5,1,0,0,0.25\n1,0.5,4.5,1,0,3,1.5\n")
    cols = read_trace_columns(str(path))
    assert cols["cost"] == [5.5, 4.5]
    assert cols["elapsed_ms"] == [0.25, 1.5]


def _saved_output(path, env, wall, failed=0, prefix=""):
    result = {"correct": not failed, "attempted": 3, "failed": failed,
              "metrics": {prefix + "wall_s": {"value": wall, "unit": "s"}}}
    path.write_text("# biorth benchmark: workload=model-n100 seed=1 seconds=5 trace=0\n"
                    f"env {json.dumps(env)}\n{json.dumps(result)}\n")
    return str(path)


def test_compare_refuses_results_from_different_environments(tmp_path, capsys):
    env = {"blas_threads": 1, "numpy": "2.4.6", "cpu": "x"}
    a = _saved_output(tmp_path / "a.txt", env, 1.0)
    same = _saved_output(tmp_path / "b.txt", env, 1.1)
    other = _saved_output(tmp_path / "c.txt", dict(env, blas_threads=2), 1.0)
    assert compare.main(["--base", a, "--new", same]) == 0
    assert compare.main(["--base", a, "--new", other]) == 3
    assert "blas_threads: 1 vs 2" in capsys.readouterr().out
    slower = _saved_output(tmp_path / "d.txt", env, 2.0)
    assert compare.main(["--base", a, "--new", slower]) == 1


def test_compare_fails_on_failed_invocations_and_prefixed_metrics(tmp_path):
    env = {"blas_threads": 1}
    a = _saved_output(tmp_path / "a.txt", env, 1.0)
    failing = _saved_output(tmp_path / "b.txt", env, 1.0, failed=1)
    assert compare.main(["--base", a, "--new", failing]) == 1
    assert compare.main(["--base", failing, "--new", a]) == 0
    # Output of every workload names its metrics `<workload>.<metric>`.
    pa = _saved_output(tmp_path / "c.txt", env, 1.0, prefix="model-n100.")
    pb = _saved_output(tmp_path / "d.txt", env, 2.0, prefix="model-n100.")
    assert compare.main(["--base", pa, "--new", pb]) == 1


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
