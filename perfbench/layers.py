"""Which biorth functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules: cli, solvers, manifold, problems, linalg
and matio. `checks` is the verification gate, not user traffic, and `rng`
and `errors` do no measurable work, so none of them is traced.

Which end-to-end metric a change to each layer should move, and where:
  linalg    svd, mat_exp: time_to_target_s, wall_s on model-n100, none on
            penalty-n100; as_matrix: wall_s on funmap-k16 and penalty-n100
  manifold  time_to_target_s, ops_per_s on model-n100 and funmap-k16; almost
            none on project-io (one cold projection per call)
  problems  wall_s, ops_per_s on penalty-n100; little on model-n100
  solvers   time_to_target_s on the solver workloads; none on project-io
  matio     wall_s, call_p50_ms, setup_s on project-io; little on model-n100
  cli       call_p50_ms on project-io
"""

from __future__ import annotations

from spans import Recorder, SpanTotals, Target, totals

TARGETS = (
    Target("cli.main", "biorth.cli", "main"),
    # The two public solvers share one descent loop; its self time is the
    # CG/GD bookkeeping between line searches and gradient evaluations.
    Target("solvers.descent", "biorth.solvers", "conjugate_gradient"),
    Target("solvers.descent", "biorth.solvers", "gradient_descent"),
    Target("solvers.armijo_search", "biorth.solvers", "armijo_search"),
    # Every line-search trial point is one retraction of either manifold.
    Target("solvers.trial_point", "biorth.manifold", "BiorthogonalManifold.retract", "count"),
    Target("solvers.trial_point", "biorth.manifold", "EuclideanManifold.retract", "count"),
    Target("manifold.project_tangent", "biorth.manifold", "project_tangent"),
    Target("manifold.retract", "biorth.manifold", "retract"),
    Target("manifold.metric", "biorth.manifold", "BiorthogonalManifold.metric"),
    Target("manifold.metric", "biorth.manifold", "EuclideanManifold.metric"),
    Target("manifold.feasibility_error", "biorth.manifold", "BiorthogonalManifold.feasibility_error"),
    Target("manifold.feasibility_error", "biorth.manifold", "EuclideanManifold.feasibility_error"),
    Target("manifold.point", "biorth.manifold", "BiorthPoint.__init__"),
    Target("manifold.point", "biorth.manifold", "EuclideanPoint.__init__"),
    Target("manifold.tangent", "biorth.manifold", "TangentPair.__init__"),
    Target("manifold.tangent", "biorth.manifold", "AmbientPair.__init__"),
    Target("problems.cost_grad", "biorth.problems", "NearestPairProblem.cost_grad"),
    Target("problems.cost_grad", "biorth.problems", "PenaltyProblem.cost_grad"),
    Target("problems.cost_grad", "biorth.problems", "FunmapProblem.cost_grad"),
    # cost() evaluates cost_grad and drops the gradient.
    Target("problems.cost", "biorth.problems", "_MatrixPairProblem.cost"),
    Target("linalg.svd", "biorth.linalg", "svd"),
    Target("linalg.mat_exp", "biorth.linalg", "mat_exp"),
    Target("linalg.as_matrix", "biorth.linalg", "as_matrix"),
    Target("matio.read_matrix", "biorth.matio", "read_matrix", nbytes=0),
    Target("matio.write_matrix", "biorth.matio", "write_matrix", nbytes=0),
    Target("matio.write_trace", "biorth.matio", "write_trace", nbytes=0),
)

# (metric, unit, better). Every traced run reports all of them; a layer the
# workload does not reach reports 0.
PER_LAYER = (
    ("linalg.svd.calls", "count", "lower"),
    ("linalg.svd.calls_per_iter", "count/iter", "lower"),
    ("linalg.svd.self_s", "s", "lower"),
    ("linalg.mat_exp.calls", "count", "lower"),
    ("linalg.mat_exp.calls_per_iter", "count/iter", "lower"),
    ("linalg.mat_exp.self_s", "s", "lower"),
    ("linalg.as_matrix.calls", "count", "lower"),
    ("linalg.as_matrix.self_s", "s", "lower"),
    ("manifold.project_tangent.calls", "count", "lower"),
    ("manifold.project_tangent.calls_per_iter", "count/iter", "lower"),
    ("manifold.project_tangent.self_s", "s", "lower"),
    ("manifold.retract.calls", "count", "lower"),
    ("manifold.retract.calls_per_iter", "count/iter", "lower"),
    ("manifold.retract.self_s", "s", "lower"),
    ("manifold.metric.calls", "count", "lower"),
    ("manifold.metric.calls_per_iter", "count/iter", "lower"),
    ("manifold.metric.self_s", "s", "lower"),
    ("manifold.feasibility_error.calls", "count", "lower"),
    ("manifold.feasibility_error.calls_per_iter", "count/iter", "lower"),
    ("manifold.feasibility_error.self_s", "s", "lower"),
    ("manifold.point_constructions", "count", "lower"),
    ("manifold.tangent_constructions", "count", "lower"),
    ("manifold.validate_s", "s", "lower"),
    ("problems.cost_grad.calls", "count", "lower"),
    ("problems.cost_grad.calls_per_iter", "count/iter", "lower"),
    ("problems.cost_grad.self_s", "s", "lower"),
    ("problems.grad_used_ratio", "ratio", "higher"),
    ("solvers.iters", "count", "lower"),
    ("solvers.iters_to_target", "count", "lower"),
    ("solvers.armijo_search.calls", "count", "lower"),
    ("solvers.armijo_search.calls_per_iter", "count/iter", "lower"),
    ("solvers.armijo_search.self_s", "s", "lower"),
    ("solvers.trial_points", "count", "lower"),
    ("solvers.trials_per_iter", "count/iter", "lower"),
    ("solvers.line_search_failures", "count", "lower"),
    ("solvers.iter_s", "s", "lower"),
    ("solvers.descent.self_s", "s", "lower"),
    ("matio.read_matrix.calls", "count", "lower"),
    ("matio.read_matrix.self_s", "s", "lower"),
    ("matio.read_matrix.bytes", "B", "lower"),
    ("matio.write_matrix.calls", "count", "lower"),
    ("matio.write_matrix.self_s", "s", "lower"),
    ("matio.write_matrix.bytes", "B", "lower"),
    ("matio.write_trace.calls", "count", "lower"),
    ("matio.write_trace.self_s", "s", "lower"),
    ("matio.write_trace.bytes", "B", "lower"),
    ("matio.read_mb_per_s", "MB/s", "higher"),
    ("matio.write_mb_per_s", "MB/s", "higher"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, iters: int, iters_to_target: float,
                  traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's invocation list.

    `iters` is the number of accepted iterations in the pass and
    `iters_to_target` the median iteration at which a solve met its target,
    both read from the trace files the program wrote.
    """
    t = totals(rec.spans)
    none = SpanTotals()

    def get(name) -> SpanTotals:
        return t.get(name, none)

    out: dict[str, float] = {}
    for name in ("linalg.svd", "linalg.mat_exp", "manifold.project_tangent",
                 "manifold.retract", "manifold.metric", "manifold.feasibility_error",
                 "problems.cost_grad", "solvers.armijo_search"):
        out[f"{name}.calls"] = get(name).calls
        out[f"{name}.calls_per_iter"] = _ratio(get(name).calls, iters)
        out[f"{name}.self_s"] = get(name).self_s
    out["linalg.as_matrix.calls"] = get("linalg.as_matrix").calls
    out["linalg.as_matrix.self_s"] = get("linalg.as_matrix").self_s
    out["manifold.point_constructions"] = get("manifold.point").calls
    out["manifold.tangent_constructions"] = get("manifold.tangent").calls
    out["manifold.validate_s"] = get("manifold.point").total_s + get("manifold.tangent").total_s

    # A gradient is wasted when cost_grad runs on behalf of cost().
    discarded = sum(1 for s in rec.spans
                    if s.name == "problems.cost_grad" and s.parent >= 0
                    and rec.spans[s.parent].name == "problems.cost")
    evaluations = get("problems.cost_grad").calls
    out["problems.grad_used_ratio"] = _ratio(evaluations - discarded, evaluations)

    trials = rec.counts[("solvers.trial_point", "solvers.armijo_search")]
    out["solvers.iters"] = iters
    out["solvers.iters_to_target"] = iters_to_target
    out["solvers.trial_points"] = trials
    out["solvers.trials_per_iter"] = _ratio(trials, iters)
    out["solvers.line_search_failures"] = get("solvers.armijo_search").failed
    out["solvers.iter_s"] = _ratio(get("solvers.descent").total_s, iters)
    out["solvers.descent.self_s"] = get("solvers.descent").self_s

    for name in ("matio.read_matrix", "matio.write_matrix", "matio.write_trace"):
        out[f"{name}.calls"] = get(name).calls
        out[f"{name}.self_s"] = get(name).self_s
        out[f"{name}.bytes"] = get(name).nbytes
    read = get("matio.read_matrix")
    out["matio.read_mb_per_s"] = _ratio(read.nbytes / 1e6, read.total_s)
    writes = (get("matio.write_matrix"), get("matio.write_trace"))
    out["matio.write_mb_per_s"] = _ratio(sum(w.nbytes for w in writes) / 1e6,
                                         sum(w.total_s for w in writes))

    out["cli.main.calls"] = get("cli.main").calls
    out["cli.main.self_s"] = get("cli.main").self_s
    out["trace.overhead_frac"] = _ratio(traced_wall_s, untraced_wall_s) - 1.0
    return out
