"""tools/pool_targets.py on a two-instance subset of the benchmark's pools."""

import dataclasses
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "pool_targets.py"
spec = importlib.util.spec_from_file_location("pool_targets", TOOL)
pool_targets = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pool_targets)

SRC = str(ROOT / "src")


def test_every_workload_and_the_held_out_seed_are_listed():
    tasks = pool_targets.instances()
    assert {name for name, _ in tasks} == set(pool_targets.SOLVER_WORKLOADS)
    for name in pool_targets.SOLVER_WORKLOADS:
        seeds = [s for n, s in tasks if n == name]
        assert seeds == [*pool_targets.WORKLOADS[name].pool, pool_targets.HELDOUT]


def test_subset_meets_its_targets(capsys, monkeypatch):
    monkeypatch.setattr(pool_targets, "instances", lambda: [("model-n100", 1), ("funmap-k16", 2)])
    code = pool_targets.main([SRC])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].startswith("model-n100 seed 1: target met at iteration ")
    assert out[1].startswith("funmap-k16 seed 2: target met at iteration ")
    # One summary line per workload: the sum of iterations to target and the
    # worst final gap, which for one instance are that instance's numbers.
    iters, gap = re.match(r".*target met at iteration (\d+) of \d+, final gap (\S+) ",
                          out[0]).groups()
    assert out[2] == (f"model-n100: 1 of 1 met, {iters} iterations to target in all, "
                      f"worst final gap {gap} (target 3e-03)")
    assert out[3].startswith("funmap-k16: 1 of 1 met, ")
    assert out[-1] == "2 of 2 instances met their targets"


def test_a_miss_exits_1(capsys, monkeypatch):
    # Two CG iterations cannot reach the 3e-3 target of a model-n100 instance.
    short = dataclasses.replace(pool_targets.WORKLOADS["model-n100"], max_iters=2)
    monkeypatch.setitem(pool_targets.WORKLOADS, "model-n100", short)
    monkeypatch.setattr(pool_targets, "instances", lambda: [("model-n100", 1)])
    assert pool_targets.main([SRC]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("model-n100 seed 1: MISSED: target ")
    assert out[1] == "model-n100: 0 of 1 met"
    assert out[-1] == "0 of 1 instances met their targets"
