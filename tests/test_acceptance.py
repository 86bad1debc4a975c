"""End-to-end acceptance suite.

One test per criterion, each asserting its stated tolerance and printing a
single PASS line (run with -s to see them). Everything is seeded and
deterministic apart from wall-clock measurements.
"""

import time

import numpy as np
import pytest

from biorth.checks import (
    curvature_suite,
    exp_identity_suite,
    gradient_fd_suite,
    lie_closure_suite,
    projection_oracle_suite,
    retraction_suite,
    tangency_suite,
)
from biorth.errors import MatrixFormatError
from biorth.linalg import fro_norm
from biorth.manifold import BiorthogonalManifold, EuclideanManifold, random_point
from biorth.matio import read_matrix, read_trace, write_matrix, write_trace
from biorth.problems import PenaltyProblem, random_nearest_pair, synth_funmap
from biorth.rng import make_rng
from biorth.solvers import SolverOptions, TraceRecord, conjugate_gradient


def report(num, name):
    print(f"acceptance {num} ({name}): PASS")


def assert_suite(checks):
    failed = [c for c in checks if not c.passed]
    assert not failed, f"failed: {failed}"


def test_01_projection_matches_vectorized_oracle():
    started = time.perf_counter()
    checks = projection_oracle_suite()
    elapsed = time.perf_counter() - started
    assert_suite(checks)
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s, budget is 5s"
    report(1, "projection oracle equivalence")


def test_02_projected_pairs_are_tangent_idempotent_orthogonal():
    assert_suite(tangency_suite())
    report(2, "tangent correctness")


def test_03_retraction_feasible_and_first_order():
    assert_suite(retraction_suite())
    report(3, "retraction")


def test_04_matrix_exponential_inverse_identity():
    assert_suite(exp_identity_suite())
    report(4, "matrix exponential identity")


def test_05_gradients_pass_finite_difference_checks():
    assert_suite(gradient_fd_suite())
    report(5, "gradient checks")


def test_06_manifold_beats_penalty_at_n100():
    n, seed, alpha = 100, 1, 100.0
    feas_bound = 1e-10 * n

    started = time.perf_counter()
    problem = random_nearest_pair(seed, n, 5.0)
    manifold = BiorthogonalManifold(n)
    t0 = time.perf_counter()
    _, trace_cg = conjugate_gradient(
        problem, manifold, manifold.identity(), SolverOptions(max_iters=100)
    )
    cg_seconds = time.perf_counter() - t0

    flat = EuclideanManifold(n)
    penalty = PenaltyProblem(problem.phi, problem.psi, alpha)
    _, trace_pen = conjugate_gradient(
        penalty, flat, flat.identity(), SolverOptions(max_iters=100)
    )
    total = time.perf_counter() - started

    # (a) the manifold run never leaves the constraint set; the relaxed run
    # ends at least three orders of magnitude further away
    assert all(rec.feas_err <= feas_bound for rec in trace_cg)
    assert trace_pen[-1].feas_err >= 1e3 * feas_bound

    # (b) iterations to come within 0.1% of the manifold run's final cost
    costs_cg = [rec.cost for rec in trace_cg]
    costs_pen = [rec.cost for rec in trace_pen]
    threshold = costs_cg[100] * 1.001
    k_cg = next(k for k, c in enumerate(costs_cg) if c <= threshold)
    k_pen = next((k for k, c in enumerate(costs_pen) if c <= threshold), None)
    if k_pen is not None:
        assert 2 * k_cg <= k_pen, f"manifold={k_cg} penalty={k_pen}"

    # (c) wall-clock sanity
    assert cg_seconds / max(trace_cg[-1].iter, 1) < 1.0
    assert total < 60.0
    report(6, "random-matrix benchmark, manifold vs penalty")


def test_07_synthetic_functional_maps_recovery():
    q, k, seed = 64, 16, 7
    problem, _ = synth_funmap(seed, q, k, noise=0.0, lam=0.0)
    manifold = BiorthogonalManifold(k)
    p0 = random_point(seed + 1, k, 0.3)
    point, trace = conjugate_gradient(
        problem, manifold, p0, SolverOptions(max_iters=500, grad_tol=1e-12)
    )
    assert trace[-1].iter <= 500
    assert trace[-1].cost <= 1e-8
    assert fro_norm(point.x @ point.y - np.eye(k)) <= 1e-10
    report(7, "synthetic functional maps")


def test_08_pair_product_group_structure():
    assert_suite(lie_closure_suite())
    report(8, "group structure of biorthogonal pairs")


def test_09_io_roundtrips_and_diagnostics(tmp_path):
    # bitwise matrix roundtrips, subnormals included
    path = tmp_path / "m.txt"
    specials = [5e-324, -5e-324, 1.1125369292536007e-308, -0.0, 1.7976931348623157e308]
    for trial in range(100):
        rng = make_rng(5000 + trial)
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        m = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300)
        flat = m.reshape(-1)
        for j, v in enumerate(specials):
            if j < flat.size:
                flat[j] = v
        write_matrix(path, m)
        back = read_matrix(path)
        assert back.tobytes() == m.tobytes()

    # bitwise trace roundtrip
    tpath = tmp_path / "t.csv"
    records = [
        TraceRecord(i, float(v), abs(float(v)), 5e-324, 0.5)
        for i, v in enumerate(make_rng(6000).standard_normal(50) * 1e8)
    ]
    write_trace(tpath, records)
    assert read_trace(tpath) == records

    # malformed fixtures carry line numbers
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 0\n0\n")
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(bad)
    assert err.value.line == 3

    bad.write_text("2 2\n1 0\ninf 0\n")
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(bad)
    assert err.value.line == 3

    bad.write_text("x\n")
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(bad)
    assert err.value.line == 1
    report(9, "matrix and trace file formats")


def test_10_curvatures_match_finite_differences():
    assert_suite(curvature_suite())
    report(10, "Hessian forms and retraction acceleration")
