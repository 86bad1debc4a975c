"""The four workloads and why each was chosen.

This module only names them, so the launcher can list them without
loading numpy; `invocations.py` turns one into inputs and checks outputs.

Each workload stresses a different layer, and for each optimization the
ROADMAP plans there is one workload that exercises it and one that
bypasses it, where the prediction is no change. BENCHMARK.json gates
model-n100 and project-io, which between them reach every traced layer;
funmap-k16 and penalty-n100 run with `run.py` and no --workload, but four
gated workloads leave time for 20-second runs only, which hold one to three
passes of their lists: on a shared 2-core host, with host-speed calibration,
five such runs spread up to 24% (funmap-k16 call_p50_ms) and 12%
(penalty-n100 time_to_target_s), against a bound of 25%.

Solver instances come from a pool of instance seeds per workload, whose
reference optima are stored; the benchmark seed picks which of them run and
in what order. A list holds most of its pool, so that instance difficulty
moves the medians little from seed to seed. Targets are loose enough, and
budgets long enough, that every pool instance meets its target.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    size: int            # n, or k for funmap
    items: int           # invocations in the fixed list
    # Share of a call's time in interpreted Python rather than BLAS/LAPACK
    # kernels, read off a 1-thread profile; weights the host-speed
    # calibration (hostspeed.py).
    interpreted: float
    max_iters: int = 0   # solver budget per invocation
    gap: float = 0.0     # target = reference + gap * scale
    pool: tuple = ()     # instance seeds with stored reference optima


POOL = tuple(range(1, 13))

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "model-n100", "model-problem",
            "model-problem n=100 CG, 1 BLAS thread: SVDs in projection and expm in "
            "retraction dominate; exercises a single-SVD projection, SVD caching or a "
            "cheaper retraction",
            size=100, items=8, interpreted=0.25, max_iters=35, gap=3e-3, pool=POOL),
        Workload(
            "funmap-k16", "funmap",
            "funmap from files, q=64 k=16, 1 BLAS thread: 16x16 kernels leave validation "
            "and per-call overhead dominant; exercises boundary-only checks, not flop "
            "savings",
            size=16, items=16, interpreted=0.75, max_iters=500, gap=1e-12,
            pool=tuple(range(1, 25))),
        Workload(
            "penalty-n100", "penalty",
            "penalty n=100 on the flat space, 1 BLAS thread: no SVD, projection or expm; "
            "cost_grad runs 3.5x per iteration; exercises evaluate-once, bypasses "
            "manifold kernels",
            size=100, items=5, interpreted=0.5, max_iters=1000, gap=1e-2, pool=POOL),
        Workload(
            "project-io", "project",
            "repeated project on n=150 files, 1 BLAS thread: text parse and format are "
            "~90% of a call; exercises matio, bypasses solvers and caching on points",
            size=150, items=4, interpreted=0.9),
    )
}
