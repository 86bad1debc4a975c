import math

import numpy as np
import pytest

from biorth.errors import DimensionError, LineSearchError
from biorth.linalg import fro_norm
from biorth.manifold import (
    AmbientPair,
    BiorthPoint,
    BiorthogonalManifold,
    EuclideanManifold,
    EuclideanPoint,
    identity_point,
    random_point,
    random_tangent,
)
from biorth.problems import (
    FunmapProblem,
    NearestPairProblem,
    PenaltyProblem,
    funnel_weights,
    random_nearest_pair,
    synth_funmap,
)
from biorth.rng import make_rng
from biorth.solvers import (
    ARMIJO_C1,
    MIN_STEP,
    SolverOptions,
    armijo_search,
    conjugate_gradient,
    fd_gradient_check,
    gradient_descent,
    riemannian_gradient,
)


class SquaredNorm:
    """f(x, y) = |x|_F^2 + |y|_F^2 on the flat space."""

    def cost(self, x, y):
        return float(np.sum(x * x) + np.sum(y * y))

    def euclidean_gradient(self, x, y):
        return AmbientPair(2.0 * x, 2.0 * y)

    def cost_grad(self, x, y):
        return self.cost(x, y), self.euclidean_gradient(x, y)


class ConstantProblem:
    def cost(self, x, y):
        return 42.0

    def euclidean_gradient(self, x, y):
        return AmbientPair(np.zeros_like(x), np.zeros_like(y))

    def cost_grad(self, x, y):
        return self.cost(x, y), self.euclidean_gradient(x, y)


class TestSolverOptions:
    def test_defaults_valid(self):
        SolverOptions()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": -1},
            {"grad_tol": -1e-3},
        ],
    )
    def test_rejects_bad_ranges(self, kwargs):
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)


NAN = float("nan")


@pytest.mark.parametrize(
    "name, build",
    [
        ("grad_tol", lambda: SolverOptions(grad_tol=NAN)),
        ("alpha", lambda: PenaltyProblem(np.eye(2), np.eye(2), alpha=NAN)),
        ("lam", lambda: FunmapProblem(np.eye(3), np.eye(3), funnel_weights(3), lam=NAN)),
        ("noise", lambda: synth_funmap(1, 6, 3, noise=NAN)),
        ("scale", lambda: random_point(1, 3, NAN)),
        ("scale", lambda: random_tangent(1, identity_point(3), NAN)),
        ("scale", lambda: EuclideanManifold(3).random_tangent(1, None, NAN)),
        ("h", lambda: fd_gradient_check(ConstantProblem(), BiorthogonalManifold(3),
                                        identity_point(3), h=NAN)),
    ],
    ids=["SolverOptions", "PenaltyProblem", "FunmapProblem", "synth_funmap", "random_point",
         "random_tangent", "EuclideanManifold.random_tangent", "fd_gradient_check"],
)
def test_range_checks_reject_nan(name, build):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build()


class TestArmijoSearch:
    def test_quadratic_halving_reaches_exact_minimizer(self):
        # f = |x|^2 + |y|^2 from (I, I) along (-2I, -2I): the 1-d section is
        # 2n (1 - 2s)^2, minimized exactly at s = 1/2, which is also the
        # first backtracked trial after s = 1 fails.
        n = 4
        manifold = EuclideanManifold(n)
        problem = SquaredNorm()
        p = manifold.identity()
        d = AmbientPair(-2.0 * np.eye(n), -2.0 * np.eye(n))
        slope = manifold.metric(p, problem.euclidean_gradient(p.x, p.y), d)
        assert slope == -8.0 * n
        step, point, cost, _ = armijo_search(problem, manifold, p, d, slope)
        assert step == 0.5
        assert cost == 0.0
        assert np.array_equal(point.x, np.zeros((n, n)))

    def test_zero_direction_rejected(self):
        n = 3
        manifold = EuclideanManifold(n)
        p = manifold.identity()
        d = manifold.zero_tangent(p)
        with pytest.raises(ValueError):
            armijo_search(SquaredNorm(), manifold, p, d, 0.0)

    def test_ascent_direction_rejected(self):
        n = 3
        manifold = EuclideanManifold(n)
        p = manifold.identity()
        d = AmbientPair(np.eye(n), np.eye(n))
        with pytest.raises(ValueError):
            armijo_search(SquaredNorm(), manifold, p, d, 1.0)

    def test_accepted_step_satisfies_sufficient_decrease(self):
        for seed in range(5):
            n = 6
            manifold = BiorthogonalManifold(n)
            problem = random_nearest_pair(seed, n, 2.0)
            p = manifold.random_point(seed + 50, scale=0.3)
            f0 = problem.cost(p.x, p.y)
            g = riemannian_gradient(problem, manifold, p)
            d = -g
            slope = manifold.metric(p, g, d)
            step, _, cost, _ = armijo_search(problem, manifold, p, d, slope, f0=f0)
            assert cost <= f0 + ARMIJO_C1 * step * slope
            assert step >= MIN_STEP

    def test_floor_raises_line_search_error(self):
        # zero cost everywhere can never beat the required strict decrease
        # of c1 * s * slope, so the search must exhaust the step floor

        class Zero:
            def cost(self, x, y):
                return 0.0

            def euclidean_gradient(self, x, y):
                return AmbientPair(np.zeros_like(x), np.zeros_like(y))

            def cost_grad(self, x, y):
                return self.cost(x, y), self.euclidean_gradient(x, y)

        n = 3
        manifold = EuclideanManifold(n)
        p = manifold.identity()
        d = AmbientPair(np.eye(n), np.eye(n))
        with pytest.raises(LineSearchError):
            armijo_search(Zero(), manifold, p, d, -1.0)


class TestRiemannianGradient:
    def test_zero_at_constrained_optimum(self):
        n = 6
        manifold = BiorthogonalManifold(n)
        problem = NearestPairProblem(np.eye(n), np.eye(n))
        g = riemannian_gradient(problem, manifold, identity_point(n))
        assert math.sqrt(manifold.metric(identity_point(n), g, g)) <= 1e-8

    def test_tangent_gradient_passes_through(self):
        # with psi = 2I - phi the Euclidean gradient at (I, I) is already
        # tangent, so projection must return it unchanged
        n = 5
        rng = make_rng(7)
        phi = rng.standard_normal((n, n))
        psi = 2.0 * np.eye(n) - phi
        manifold = BiorthogonalManifold(n)
        p = identity_point(n)
        problem = NearestPairProblem(phi, psi)
        g = riemannian_gradient(problem, manifold, p)
        raw = problem.euclidean_gradient(p.x, p.y)
        assert fro_norm(g.u - raw.phi) + fro_norm(g.v - raw.psi) <= 1e-12

    def test_matches_forward_difference(self):
        n = 8
        manifold = BiorthogonalManifold(n)
        problem = random_nearest_pair(3, n, 2.0)
        p = manifold.random_point(4, scale=0.3)
        g = riemannian_gradient(problem, manifold, p)
        gnorm = math.sqrt(manifold.metric(p, g, g))
        f0 = problem.cost(p.x, p.y)
        h = 1e-6
        for seed in range(10):
            t = manifold.random_tangent(seed, p, 1.0)
            analytic = manifold.metric(p, g, t)
            q = manifold.retract(p, h * t)
            fd = (problem.cost(q.x, q.y) - f0) / h
            # forward differences carry O(h) truncation; slopes along random
            # unit tangents can be tiny, so compare at the gradient scale
            assert abs(analytic - fd) <= 1e-5 * max(abs(analytic), abs(fd), gnorm)


class TestGradientDescent:
    def test_converges_to_known_optimum(self):
        n = 6
        manifold = BiorthogonalManifold(n)
        problem = NearestPairProblem(np.eye(n), np.eye(n))
        p0 = random_point(11, n, 0.05)
        point, trace = gradient_descent(
            problem, manifold, p0, SolverOptions(max_iters=300, grad_tol=1e-12)
        )
        assert trace[-1].cost <= 1e-10

    def test_zero_max_iters_returns_start(self):
        n = 5
        manifold = BiorthogonalManifold(n)
        problem = random_nearest_pair(1, n, 1.0)
        p0 = manifold.identity()
        point, trace = gradient_descent(problem, manifold, p0, SolverOptions(max_iters=0))
        assert len(trace) == 1
        assert np.array_equal(point.x, p0.x)

    def test_rejects_infeasible_start(self):
        from biorth.errors import OffManifoldError
        from biorth.manifold import EuclideanPoint

        n = 4
        manifold = BiorthogonalManifold(n)
        # a sloppy pair that only the solver's entry check can reject
        sloppy = EuclideanPoint((1.0 + 1e-4) * np.eye(n), np.eye(n))
        with pytest.raises(OffManifoldError):
            gradient_descent(random_nearest_pair(1, n, 1.0), manifold, sloppy)

    def test_starts_from_a_feasible_euclidean_point(self):
        n = 4
        manifold = BiorthogonalManifold(n)
        start = EuclideanPoint(np.eye(n), np.eye(n))
        problem = random_nearest_pair(1, n, 1.0)
        point, trace = conjugate_gradient(problem, manifold, start, SolverOptions(max_iters=5))
        assert isinstance(point, BiorthPoint)
        assert len(trace) == 6
        assert trace[-1].cost < trace[0].cost

    def test_rejects_start_of_wrong_size(self):
        # a 4 x 4 start on n = 5 manifolds: the problem alone would accept it
        problem = random_nearest_pair(1, 4, 1.0)
        opts = SolverOptions(max_iters=5)
        with pytest.raises(DimensionError):
            conjugate_gradient(problem, BiorthogonalManifold(5), identity_point(4), opts)
        with pytest.raises(DimensionError):
            gradient_descent(problem, EuclideanManifold(5), EuclideanManifold(4).identity(), opts)

    def test_feasibility_at_every_iterate(self):
        n = 20
        manifold = BiorthogonalManifold(n)
        problem = random_nearest_pair(5, n, 5.0)
        _, trace = gradient_descent(
            problem, manifold, manifold.identity(), SolverOptions(max_iters=40)
        )
        assert all(rec.feas_err <= 1e-10 * n for rec in trace)

    def test_monotone_costs(self):
        for seed in (1, 2, 3):
            n = 10
            manifold = BiorthogonalManifold(n)
            problem = random_nearest_pair(seed, n, 3.0)
            _, trace = gradient_descent(
                problem, manifold, manifold.identity(), SolverOptions(max_iters=50)
            )
            costs = [rec.cost for rec in trace]
            assert all(b <= a for a, b in zip(costs, costs[1:]))


class TestConjugateGradient:
    def test_terminates_immediately_at_optimum(self):
        n = 5
        manifold = BiorthogonalManifold(n)
        problem = NearestPairProblem(np.eye(n), np.eye(n))
        _, trace = conjugate_gradient(
            problem, manifold, identity_point(n), SolverOptions(max_iters=50)
        )
        assert len(trace) == 1
        assert trace[0].iter == 0

    def test_monotone_costs(self):
        for seed in (1, 2, 3):
            n = 12
            manifold = BiorthogonalManifold(n)
            problem = random_nearest_pair(seed, n, 4.0)
            _, trace = conjugate_gradient(
                problem, manifold, manifold.identity(), SolverOptions(max_iters=50)
            )
            costs = [rec.cost for rec in trace]
            assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_feasibility_at_every_iterate(self):
        n = 20
        manifold = BiorthogonalManifold(n)
        problem = random_nearest_pair(9, n, 5.0)
        _, trace = conjugate_gradient(
            problem, manifold, manifold.identity(), SolverOptions(max_iters=40)
        )
        assert all(rec.feas_err <= 1e-10 * n for rec in trace)

    @pytest.mark.parametrize("n", [20, 50, 100])
    def test_never_slower_than_gradient_descent(self, n):
        # elementwise trace comparison: for monotone traces this is the same
        # as "CG hits any cost threshold in no more iterations than GD"
        manifold = BiorthogonalManifold(n)
        problem = random_nearest_pair(1, n, 5.0)
        iters = 50
        _, tr_cg = conjugate_gradient(
            problem, manifold, manifold.identity(), SolverOptions(max_iters=iters)
        )
        _, tr_gd = gradient_descent(
            problem, manifold, manifold.identity(), SolverOptions(max_iters=iters)
        )
        assert len(tr_cg) == len(tr_gd) == iters + 1
        for rec_cg, rec_gd in zip(tr_cg, tr_gd):
            assert rec_cg.cost <= rec_gd.cost

    def test_reaches_plateau_quickly_on_benchmark_instance(self):
        n = 100
        manifold = BiorthogonalManifold(n)
        problem = random_nearest_pair(5, n, 5.0)
        _, trace = conjugate_gradient(
            problem, manifold, manifold.identity(), SolverOptions(max_iters=100)
        )
        costs = [rec.cost for rec in trace]
        threshold = costs[100] * 1.001
        hit = next(k for k, c in enumerate(costs) if c <= threshold)
        assert hit <= 25

    def test_deterministic_traces(self):
        n = 12
        manifold = BiorthogonalManifold(n)
        problem = random_nearest_pair(21, n, 3.0)
        runs = []
        for _ in range(2):
            _, trace = conjugate_gradient(
                problem, manifold, manifold.identity(), SolverOptions(max_iters=30)
            )
            runs.append([(r.iter, r.cost, r.grad_norm, r.feas_err) for r in trace])
        assert runs[0] == runs[1]


class CountingProblem:
    """Exposes only cost_grad, and counts its calls."""

    def __init__(self, problem):
        self.problem = problem
        self.calls = 0

    def cost_grad(self, x, y):
        self.calls += 1
        return self.problem.cost_grad(x, y)


class CountingManifold(BiorthogonalManifold):
    """Counts retractions; the line search makes one per trial point."""

    trials = 0

    def retract(self, p, t):
        self.trials += 1
        return super().retract(p, t)


class TestEvaluateOnce:
    def test_one_cost_grad_per_trial_point_plus_the_start(self):
        n = 12
        manifold = CountingManifold(n)
        problem = CountingProblem(random_nearest_pair(41, n, 4.0))
        point, trace = conjugate_gradient(
            problem, manifold, manifold.identity(), SolverOptions(max_iters=30)
        )
        assert len(trace) == 31
        assert manifold.trials >= 30
        assert problem.calls == manifold.trials + 1
        # the gradient the solver kept belongs to the point it returned
        g = riemannian_gradient(problem.problem, manifold, point)
        assert trace[-1].grad_norm == math.sqrt(manifold.metric(point, g, g))


class TestFdGradientCheck:
    def test_nearest_pair_gradient(self):
        n = 10
        manifold = BiorthogonalManifold(n)
        problem = random_nearest_pair(31, n, 2.0)
        p = manifold.random_point(32, scale=0.3)
        assert fd_gradient_check(problem, manifold, p, n_dirs=10, h=1e-6) <= 1e-5

    def test_penalty_gradient_on_flat_space(self):
        n = 10
        manifold = EuclideanManifold(n)
        targets = random_nearest_pair(33, n, 2.0)
        problem = PenaltyProblem(targets.phi, targets.psi, alpha=100.0)
        p = manifold.random_point(34, scale=0.3)
        assert fd_gradient_check(problem, manifold, p, n_dirs=10, h=1e-6) <= 1e-5

    def test_constant_problem_trivially_passes(self):
        manifold = BiorthogonalManifold(5)
        p = manifold.random_point(35, scale=0.3)
        assert fd_gradient_check(ConstantProblem(), manifold, p, n_dirs=5, h=1e-6) == 0.0

    def test_rejects_bad_h(self):
        manifold = BiorthogonalManifold(3)
        with pytest.raises(ValueError):
            fd_gradient_check(ConstantProblem(), manifold, identity_point(3), h=0.0)
