"""tools/pool_targets.py on a two-instance subset of the benchmark's pools."""

import dataclasses
import importlib.util
import re
from pathlib import Path

import pytest

import biorth.solvers
from biorth import (BiorthogonalManifold, EuclideanManifold, PenaltyProblem, SolverOptions,
                    conjugate_gradient, random_nearest_pair)

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "pool_targets.py"
spec = importlib.util.spec_from_file_location("pool_targets", TOOL)
pool_targets = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pool_targets)

SRC = str(ROOT / "src")
SEARCHES = (r"searches by trial points \(1 / 2 / 3 / >=4\) (\d+ / \d+ / \d+ / \d+), "
            r"(\d+\.\d{3}) trial points per iteration, (\d+\.\d{3}) projections per iteration")


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
    # worst final gap, which for one instance are that instance's numbers,
    # then its searches split by trial points, and its trial points and
    # projections per iteration.
    iters, gap = re.match(r".*target met at iteration (\d+) of \d+, final gap (\S+) ",
                          out[0]).groups()
    head = (f"model-n100: 1 of 1 met, {iters} iterations to target in all, "
            f"worst final gap {gap} (target 3e-03), ")
    assert out[2].startswith(head)
    split, per_iter, projections = re.fullmatch(SEARCHES, out[2][len(head):]).groups()
    # The run uses its whole budget of 35 iterations, one search each, and a
    # search in the last bin takes at least 4 trial points. CG projects the
    # start gradient, then per iteration one gradient and at most one
    # direction.
    split = [int(c) for c in split.split(" / ")]
    assert sum(split) == 35
    assert float(per_iter) >= sum(k * c for k, c in zip((1, 2, 3, 4), split)) / 35 - 5e-4
    assert 36 / 35 - 5e-4 <= float(projections) <= 71 / 35 + 5e-4
    assert out[3].startswith("funmap-k16: 1 of 1 met, ")
    assert re.fullmatch(SEARCHES, out[3].split("(target 1e-12), ")[1])
    assert out[-1] == "2 of 2 instances met their targets"


def test_a_miss_exits_1(capsys, monkeypatch):
    # Two CG iterations cannot reach the 3e-3 target of a model-n100 instance.
    short = dataclasses.replace(pool_targets.WORKLOADS["model-n100"], max_iters=2)
    monkeypatch.setitem(pool_targets.WORKLOADS, "model-n100", short)
    monkeypatch.setattr(pool_targets, "instances", lambda: [("model-n100", 1)])
    assert pool_targets.main([SRC]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("model-n100 seed 1: MISSED: target ")
    # A workload with no instance met still reports its searches.
    assert out[1].startswith("model-n100: 0 of 1 met, ")
    assert re.fullmatch(SEARCHES, out[1][len("model-n100: 0 of 1 met, "):])
    assert out[-1] == "0 of 1 instances met their targets"


def test_search_summary_bins_trial_points_and_divides_by_returned_searches():
    # The search that raised took 5 trial points: it is binned, but it is no iteration.
    searches = [(1, True), (2, True), (5, False), (3, True), (4, True), (1, True)]
    assert pool_targets.search_summary(pool_targets.Counts(searches, 8)) == (
        "searches by trial points (1 / 2 / 3 / >=4) 2 / 1 / 1 / 2, "
        "3.200 trial points per iteration, 1.600 projections per iteration")


@pytest.mark.parametrize("penalty", [False, True], ids=["biorthogonal", "euclidean"])
def test_counting_searches_counts_every_trial_point_and_restores(penalty):
    targets = random_nearest_pair(3, 4, 0.5)
    if penalty:
        problem, manifold = PenaltyProblem(targets.phi, targets.psi, 10.0), EuclideanManifold(4)
    else:
        problem, manifold = targets, BiorthogonalManifold(4)
    evaluations = []
    cost_grad = problem.cost_grad

    def counted_cost_grad(x, y):
        evaluations.append(1)
        return cost_grad(x, y)

    problem.cost_grad = counted_cost_grad
    projections = []

    class CountedProjections(type(manifold)):
        def project(self, p, a):
            projections.append(1)
            return super().project(p, a)

    manifold = CountedProjections(4)
    originals = (biorth.solvers.armijo_search, BiorthogonalManifold.retract,
                 EuclideanManifold.retract, BiorthogonalManifold.project,
                 EuclideanManifold.project)
    with pytest.raises(KeyError), pool_targets.counting_searches() as counts:
        _, trace = conjugate_gradient(problem, manifold, manifold.identity(),
                                      SolverOptions(max_iters=12))
        raise KeyError("the wrappers are restored when the block raises")
    assert (biorth.solvers.armijo_search, BiorthogonalManifold.retract,
            EuclideanManifold.retract, BiorthogonalManifold.project,
            EuclideanManifold.project) == originals
    searches = counts.searches
    # One cost_grad at the start point, then one per trial point: no retraction
    # of these small steps fails, so every trial point is evaluated.
    assert sum(trials for trials, _ in searches) == len(evaluations) - 1
    assert sum(returned for _, returned in searches) == trace[-1].iter == 12
    assert all(trials >= 1 for trials, _ in searches)
    # The subclass counts each projection the solver asks for; each reaches
    # the wrapped base-class method through super().
    assert counts.projections == len(projections) >= 13


def test_counting_searches_raises_when_a_target_is_absent(monkeypatch):
    # A renamed or deleted target must fail loudly, not count 0.
    monkeypatch.delattr(BiorthogonalManifold, "retract")
    search, project = biorth.solvers.armijo_search, BiorthogonalManifold.project
    with pytest.raises(RuntimeError, match=r"absent from the code: "
                                           r"biorth\.manifold\.BiorthogonalManifold\.retract$"):
        with pool_targets.counting_searches():
            pass
    assert (biorth.solvers.armijo_search, BiorthogonalManifold.project) == (search, project)
