import dataclasses
import math
import threading

import numpy as np
import pytest

import biorth.manifold
import biorth.solvers
from biorth.errors import (
    DimensionError,
    InvalidTangentError,
    LineSearchError,
    NumericalError,
    OffManifoldError,
)
from biorth.linalg import fro_norm, svd
from biorth.manifold import (
    AmbientPair,
    BiorthPoint,
    BiorthogonalManifold,
    EuclideanManifold,
    EuclideanPoint,
    TangentPair,
    default_feas_tol,
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
    BACKTRACK_FACTOR,
    INTERPOLATE_MIN,
    MIN_STEP,
    WOLFE_C2,
    SolverOptions,
    _cubic_minimizer,
    armijo_search,
    conjugate_gradient,
    fd_gradient_check,
    gradient_descent,
    riemannian_gradient,
)


class SquaredNorm:
    """f(x, y) = |x|_F^2 + |y|_F^2 on the flat space."""

    def cost_grad(self, x, y):
        return float(np.sum(x * x) + np.sum(y * y)), AmbientPair(2.0 * x, 2.0 * y)


class ConstantProblem:
    def cost_grad(self, x, y):
        return 42.0, AmbientPair(np.zeros_like(x), np.zeros_like(y))


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

    @pytest.mark.parametrize("max_iters", [2.5, np.float64(3.0), math.inf, "3", None])
    def test_max_iters_must_be_an_integer(self, max_iters):
        with pytest.raises(ValueError, match="^max_iters must be an integer >= 0, got "):
            SolverOptions(max_iters=max_iters)

    def test_max_iters_of_any_integer_type_passes(self):
        SolverOptions(max_iters=np.int64(0))
        SolverOptions(max_iters=np.uint8(3))

    def test_fields_cannot_be_assigned_after_validation(self):
        opts = SolverOptions()
        for name, value in (("max_iters", -5), ("grad_tol", -1.0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(opts, name, value)
        assert opts == SolverOptions()


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
        ("max_iters", lambda: SolverOptions(max_iters=NAN)),
    ],
    ids=["SolverOptions", "PenaltyProblem", "FunmapProblem", "synth_funmap", "random_point",
         "random_tangent", "SolverOptions.max_iters"],
)
def test_range_checks_reject_nan(name, build):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build()


@pytest.mark.parametrize(
    "name, build",
    [
        ("alpha", lambda: PenaltyProblem(np.eye(2), np.eye(2), alpha=math.inf)),
        ("lam", lambda: FunmapProblem(np.eye(3), np.eye(3), funnel_weights(3), lam=math.inf)),
        ("lam", lambda: synth_funmap(1, 6, 3, lam=math.inf)),
    ],
    ids=["PenaltyProblem", "FunmapProblem", "synth_funmap"],
)
def test_weights_reject_infinity(name, build):
    with pytest.raises(ValueError, match=f"^{name} must be .* finite"):
        build()


class HugeGradient:
    """Finite cost, gradient entries of 1e160: each entry is finite, the norm is not."""

    def cost_grad(self, x, y):
        return 1.0, AmbientPair(np.full_like(x, 1e160), np.zeros_like(y))


@pytest.mark.parametrize("solve", [gradient_descent, conjugate_gradient])
@pytest.mark.parametrize("manifold", [BiorthogonalManifold(3), EuclideanManifold(3)],
                         ids=["biorth", "flat"])
def test_non_finite_gradient_norm_raises(solve, manifold):
    with pytest.raises(NumericalError, match="gradient norm is not finite at iteration 0"):
        solve(HugeGradient(), manifold, manifold.identity())


class HugeGradientAfterStart:
    """|x - 2I|^2, with gradient entries of 1e160 everywhere but at x = I."""

    def cost_grad(self, x, y):
        eye = np.eye(x.shape[0])
        r = x - 2.0 * eye
        g = 2.0 * r if np.array_equal(x, eye) else np.full_like(x, 1e160)
        return float(np.sum(r * r)), AmbientPair(g, np.zeros_like(y))


@pytest.mark.parametrize("solve", [gradient_descent, conjugate_gradient])
@pytest.mark.parametrize("manifold", [BiorthogonalManifold(3), EuclideanManifold(3)],
                         ids=["biorth", "flat"])
def test_non_finite_gradient_norm_at_an_accepted_point_raises(solve, manifold):
    with pytest.raises(NumericalError, match="gradient norm is not finite at iteration 1"):
        solve(HugeGradientAfterStart(), manifold, manifold.identity())


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
        f0, egrad = problem.cost_grad(p.x, p.y)
        slope = egrad.inner(d)
        assert slope == -8.0 * n
        step, point, cost, _ = armijo_search(problem, manifold, p, d, slope, f0=f0)
        assert step == 0.5
        assert cost == 0.0
        assert np.array_equal(point.x, np.zeros((n, n)))

    def test_zero_direction_rejected(self):
        n = 3
        manifold = EuclideanManifold(n)
        p = manifold.identity()
        d = AmbientPair(np.zeros((n, n)), np.zeros((n, n)))
        with pytest.raises(ValueError):
            armijo_search(SquaredNorm(), manifold, p, d, 0.0, f0=6.0)

    def test_ascent_direction_rejected(self):
        n = 3
        manifold = EuclideanManifold(n)
        p = manifold.identity()
        d = AmbientPair(np.eye(n), np.eye(n))
        with pytest.raises(ValueError):
            armijo_search(SquaredNorm(), manifold, p, d, 1.0, f0=6.0)

    @pytest.mark.parametrize("initial_step", [math.inf, 0.0, math.nan, -1.0, 0.5 * MIN_STEP])
    def test_rejects_a_first_step_outside_the_floor_and_infinity(self, initial_step):
        # An infinite step would be halved forever; the others would end
        # below the floor without a single trial.
        manifold = CountingEuclidean(3)
        p = manifold.identity()
        d = AmbientPair(-np.eye(3), -np.eye(3))
        with pytest.raises(ValueError, match="^initial_step must be finite"):
            armijo_search(SquaredNorm(), manifold, p, d, -12.0, f0=6.0, initial_step=initial_step)
        assert manifold.trials == 0

    @pytest.mark.parametrize("f0", [math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_start_cost(self, f0):
        manifold = CountingEuclidean(3)
        p = manifold.identity()
        d = AmbientPair(-np.eye(3), -np.eye(3))
        with pytest.raises(ValueError, match="^cost at the start of the search is not finite"):
            armijo_search(SquaredNorm(), manifold, p, d, -12.0, f0=f0)
        assert manifold.trials == 0

    @pytest.mark.parametrize("slope", [-math.inf, math.nan])
    def test_rejects_a_non_finite_slope(self, slope):
        manifold = CountingEuclidean(3)
        p = manifold.identity()
        d = AmbientPair(-np.eye(3), -np.eye(3))
        with pytest.raises(ValueError, match="^not a descent direction"):
            armijo_search(SquaredNorm(), manifold, p, d, slope, f0=6.0)
        assert manifold.trials == 0

    def test_accepted_step_satisfies_sufficient_decrease(self):
        for seed in range(5):
            n = 6
            manifold = BiorthogonalManifold(n)
            problem = random_nearest_pair(seed, n, 2.0)
            p = random_point(seed + 50, n, 0.3)
            f0 = problem.cost_grad(p.x, p.y)[0]
            g = riemannian_gradient(problem, manifold, p)
            d = -g
            slope = g.inner(d)
            step, _, cost, _ = armijo_search(problem, manifold, p, d, slope, f0=f0)
            assert cost <= f0 + ARMIJO_C1 * step * slope
            assert step >= MIN_STEP

    def test_accepted_step_passes_the_curvature_test_or_was_refined(self):
        # Each search records its trials: step, cost and the slope of the
        # ray there. The returned step satisfies sufficient decrease. Where
        # it fails the curvature test, the search has tried the one cubic
        # refine after an acceptable trial and returns the lower acceptable
        # one, unless the cubic has no minimizer in the refine window. With
        # WOLFE_C2 = 0.5 most trials pass the curvature test; of these 80
        # searches, one on BO(n) from step 0.15 (seed 2) keeps a refine.
        outcomes = set()
        for manifold, problem, p in self.searches():
            g = riemannian_gradient(problem, manifold, p)
            d = -g
            slope = g.inner(d)
            f0 = problem.cost_grad(p.x, p.y)[0]
            for initial_step in (1e-3, 0.15, 0.2, 1.0, 4.0):
                rec = TrialRecorder(manifold, problem, p, d)
                step, point, cost, _ = armijo_search(
                    rec, rec, p, d, slope, f0=f0, initial_step=initial_step)
                trials = rec.trials

                def acceptable(trial):
                    s, c = trial[:2]
                    return c <= f0 + ARMIJO_C1 * s * slope

                (returned,) = [t for t in trials if t[3] is point]
                assert returned[0] == pytest.approx(step, rel=1e-12)
                assert returned[1] == cost and acceptable(returned)
                for trial, following in zip(trials, trials[1:]):
                    if not acceptable(trial):
                        s, s_next = trial[0], following[0]
                        assert INTERPOLATE_MIN * s * (1 - 1e-12) <= s_next
                        assert s_next <= BACKTRACK_FACTOR * s * (1 + 1e-12)
                if abs(returned[2]) <= WOLFE_C2 * -slope:
                    assert returned is trials[-1]
                    outcomes.add("curvature")
                    continue
                t = hermite_minimizer(f0, slope, *returned[:3])
                if returned is trials[-1] and not (0 < t < 4 * step and abs(t - step) > 1e-3 * step):
                    outcomes.add("no refine window")
                    continue
                armijo_point, refined = trials[-2], trials[-1]
                assert acceptable(armijo_point) and abs(armijo_point[2]) > WOLFE_C2 * -slope
                assert refined[0] == pytest.approx(hermite_minimizer(f0, slope, *armijo_point[:3]))
                if returned is refined:
                    assert refined[1] < armijo_point[1]
                    outcomes.add("refined")
                else:
                    assert returned is armijo_point
                    assert not (refined[1] < armijo_point[1] and acceptable(refined))
                    outcomes.add("refine rejected")
        assert {"curvature", "refined"} <= outcomes

    def test_an_acceptable_first_trial_that_fails_the_curvature_test_is_refined(self):
        # f = |x|^2 + |y|^2 from (I, I) along (-2I, -2I) is 2n (1 - 2s)^2 on
        # the ray, with slope -8n and its minimizer at s = 1/2. The first
        # trial s = 0.15 decreases f enough, but its slope -8n (1 - 2s) =
        # -5.6n is steeper than WOLFE_C2 * 8n = 4n. The Hermite cubic of a
        # quadratic is the quadratic itself, so the one refine lands on the
        # minimizer, inside the window (0, 4 * 0.15), and is kept.
        n = 3
        manifold = EuclideanManifold(n)
        problem = SquaredNorm()
        p = manifold.identity()
        d = AmbientPair(-2.0 * np.eye(n), -2.0 * np.eye(n))
        f0, egrad = problem.cost_grad(p.x, p.y)
        slope = egrad.inner(d)
        rec = TrialRecorder(manifold, problem, p, d)
        step, point, cost, _ = armijo_search(rec, rec, p, d, slope, f0=f0, initial_step=0.15)
        first, refined = rec.trials
        assert first[0] == pytest.approx(0.15, rel=1e-12)
        assert first[1] <= f0 + ARMIJO_C1 * first[0] * slope
        assert abs(first[2]) > WOLFE_C2 * -slope
        assert refined[3] is point and refined[1] == cost < first[1]
        assert step == pytest.approx(0.5, rel=1e-12)
        assert cost == pytest.approx(0.0, abs=1e-20)

    def test_without_the_curvature_test_the_first_sufficient_decrease_is_returned(self):
        # The search never refines, and it asks for the ray's slope only at
        # trials that fail sufficient decrease, for the cubic backtrack. The
        # same searches with the curvature test refine at least once, and
        # some backtrack.
        refined = backtracked = 0
        for manifold, problem, p in self.searches():
            g = riemannian_gradient(problem, manifold, p)
            d = -g
            slope = g.inner(d)
            f0 = problem.cost_grad(p.x, p.y)[0]
            for initial_step in (1e-3, 0.2, 1.0, 4.0):
                rec = SlopeRecorder(manifold, problem, p, d)
                step, point, cost, _ = armijo_search(
                    rec, rec, p, d, slope, f0=f0, initial_step=initial_step,
                    curvature_test=False)
                decreased = [c <= f0 + ARMIJO_C1 * s * slope for s, c, _, _ in rec.trials]
                assert decreased.index(True) == len(rec.trials) - 1
                last = rec.trials[-1]
                assert last[3] is point and last[1] == cost
                assert last[0] == pytest.approx(step, rel=1e-12)
                failed = [t[3] for t in rec.trials[:-1]]
                assert len(rec.slopes_at) == len(failed)
                assert all(a is b for a, b in zip(rec.slopes_at, failed))
                backtracked += bool(failed)
                tested = TrialRecorder(manifold, problem, p, d)
                armijo_search(tested, tested, p, d, slope, f0=f0, initial_step=initial_step)
                refined += len(tested.trials) > len(rec.trials)
        assert refined > 0 and backtracked > 0

    @staticmethod
    def searches():
        for seed in range(8):
            n = 6
            yield (BiorthogonalManifold(n), random_nearest_pair(seed, n, 2.0),
                   random_point(seed + 60, n, 0.3))
            targets = random_nearest_pair(seed + 70, n, 2.0)
            flat = EuclideanManifold(n)
            q = EuclideanPoint(*(np.eye(n) + 0.5 * make_rng(seed + 80).standard_normal((2, n, n))))
            yield flat, PenaltyProblem(targets.phi, targets.psi, 10.0), q

    def test_floor_raises_line_search_error(self):
        # zero cost everywhere can never beat the required strict decrease
        # of c1 * s * slope, so the search must exhaust the step floor

        class Zero:
            def cost_grad(self, x, y):
                return 0.0, AmbientPair(np.zeros_like(x), np.zeros_like(y))

        n = 3
        manifold = EuclideanManifold(n)
        p = manifold.identity()
        d = AmbientPair(np.eye(n), np.eye(n))
        with pytest.raises(LineSearchError):
            armijo_search(Zero(), manifold, p, d, -1.0, f0=0.0)

    @pytest.mark.parametrize("manifold_cls, draw", [
        (BiorthogonalManifold, lambda p: random_tangent(1, p, 1.0)),
        (EuclideanManifold, lambda p: AmbientPair(*make_rng(1).standard_normal((2, p.n, p.n)))),
    ], ids=["biorth", "flat"])
    def test_no_finite_trial_cost_raises_numerical_error(self, manifold_cls, draw):
        # Every trial cost is infinite, and on BO(n) every trial step also
        # overflows the retraction. With no finite cost there is nothing to
        # decrease: a numerical failure, not a cost without descent.
        class Overflowing:
            def cost_grad(self, x, y):
                return math.inf, AmbientPair(np.zeros_like(x), np.zeros_like(y))

        n = 3
        manifold = manifold_cls(n)
        p = manifold.identity()
        d = 1e100 * draw(p)
        with pytest.raises(NumericalError, match="^no trial step .* has a finite cost$"):
            armijo_search(Overflowing(), manifold, p, d, -1.0, f0=1.0)

    def test_rejections_by_the_feasibility_check_are_counted(self, monkeypatch):
        # The first trial overflows and every later one leaves the feasible
        # set. Halving from step 1 tries 2^0 ... 2^-53 before the step floor,
        # 54 trials in all, and the message names both causes.
        manifold = BiorthogonalManifold(3)
        p = manifold.identity()
        d = random_tangent(1, p, 1.0)
        calls = []

        def rejecting(base, t, s):
            calls.append(t)
            if len(calls) == 1:
                raise NumericalError("injected overflow")
            raise OffManifoldError("injected drift")

        monkeypatch.setattr(manifold, "retract", rejecting)
        with pytest.raises(NumericalError) as err:
            armijo_search(SquaredNorm(), manifold, p, d, -1.0, f0=1.0)
        assert len(calls) == 54
        assert str(err.value) == (
            "no trial step of the line search, down to min_step = 1.0e-16, has a finite cost: "
            "53 trial points failed the feasibility check and 1 failed numerically")

    def test_trial_points_past_the_feasibility_tolerance_are_reported(self):
        # No patched retraction: the start's feasibility error sits just under
        # default_feas_tol(n), and the generator Q diag(a, -a, 0, 0) Q^T, with
        # a = 40 and 20 at the two trials, gives e^{sW} a condition number of
        # e^{2a}. The rounding of x0 e^{sW} e^{-sW} y0 then exceeds the
        # tolerance about 1e10-fold at the smaller step, so both trials fail
        # the feasibility check and the search reaches the step floor.
        n = 4
        manifold = BiorthogonalManifold(n)
        y0 = np.eye(n)
        y0[0, 0] += 0.99 * default_feas_tol(n)
        p = BiorthPoint(np.eye(n), y0)
        assert 0.98 * default_feas_tol(n) < p.feasibility_error() <= default_feas_tol(n)
        q, _ = np.linalg.qr(make_rng(260).standard_normal((n, n)))
        w = (q * [1.0, -1.0, 0.0, 0.0]) @ q.T
        d = (20.0 / MIN_STEP) * TangentPair(p.x @ w, -(w @ p.y), p)
        f0, _ = SquaredNorm().cost_grad(p.x, p.y)
        with pytest.raises(NumericalError) as err:
            armijo_search(SquaredNorm(), manifold, p, d, -1.0, f0=f0, initial_step=2 * MIN_STEP)
        assert str(err.value) == (
            "no trial step of the line search, down to min_step = 1.0e-16, has a finite cost: "
            "2 trial points failed the feasibility check and 0 failed numerically")

    def test_other_manifold_errors_propagate(self):
        # Only a trial point that fails the feasibility check or numerically
        # counts as infinitely bad; any other error is the caller's and ends
        # the search at the first retraction.
        class Raising(CountingEuclidean):
            def retract(self, p, t, s=1.0):
                super().retract(p, t, s)
                raise InvalidTangentError("injected")

        manifold = Raising(3)
        p = manifold.identity()
        d = AmbientPair(-np.eye(3), -np.eye(3))
        with pytest.raises(InvalidTangentError, match="^injected$"):
            armijo_search(SquaredNorm(), manifold, p, d, -12.0, f0=6.0)
        assert manifold.trials == 1


class TestRiemannianGradient:
    def test_zero_at_constrained_optimum(self):
        n = 6
        manifold = BiorthogonalManifold(n)
        problem = NearestPairProblem(np.eye(n), np.eye(n))
        g = riemannian_gradient(problem, manifold, identity_point(n))
        assert math.sqrt(g.inner(g)) <= 1e-8

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
        raw = problem.cost_grad(p.x, p.y)[1]
        assert fro_norm(g.u - raw.phi) + fro_norm(g.v - raw.psi) <= 1e-12

    def test_matches_forward_difference(self):
        n = 8
        manifold = BiorthogonalManifold(n)
        problem = random_nearest_pair(3, n, 2.0)
        p = random_point(4, n, 0.3)
        g = riemannian_gradient(problem, manifold, p)
        gnorm = math.sqrt(g.inner(g))
        f0 = problem.cost_grad(p.x, p.y)[0]
        h = 1e-6
        for seed in range(10):
            t = random_tangent(seed, p, 1.0)
            analytic = g.inner(t)
            q = manifold.retract(p, h * t)
            fd = (problem.cost_grad(q.x, q.y)[0] - f0) / h
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

    @pytest.mark.parametrize("manifold", [BiorthogonalManifold(3), EuclideanManifold(3)],
                             ids=["biorth", "flat"])
    def test_rejects_a_start_that_is_not_a_point(self, manifold):
        problem = random_nearest_pair(1, 3, 1.0)
        for solve in (conjugate_gradient, gradient_descent):
            with pytest.raises(TypeError, match="^point must be of type EuclideanPoint, got "
                                                "ndarray$"):
                solve(problem, manifold, np.eye(3), SolverOptions(max_iters=2))

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

    def test_restarted_every_iteration_is_gradient_descent(self, monkeypatch):
        # Gradient descent is this loop restarted on every iteration; at a Powell
        # threshold of 0, Powell's test restarts conjugate gradient just as often.
        n = 12
        manifold = BiorthogonalManifold(n)
        problem = random_nearest_pair(41, n, 4.0)
        opts = SolverOptions(max_iters=30)
        monkeypatch.setattr(biorth.solvers, "POWELL_RESTART_THRESHOLD", 0.0)
        runs = []
        for solve in (gradient_descent, conjugate_gradient):
            p, trace = solve(problem, manifold, identity_point(n), opts)
            runs.append((p, [(r.iter, r.cost, r.grad_norm, r.feas_err) for r in trace]))
        (p_gd, gd), (p_cg, cg) = runs
        assert len(gd) == 31 and cg == gd
        assert np.array_equal(p_cg.x, p_gd.x) and np.array_equal(p_cg.y, p_gd.y)

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

    def test_concurrent_solves_match_serial_runs(self):
        # The package keeps no mutable state between calls, so two solves on
        # threads of their own, one on BO(30) and one on the k = 16 funmap,
        # give the bits of their serial runs.
        funmap, _ = synth_funmap(5, 64, 16)
        work = [(random_nearest_pair(22, 30, 3.0), BiorthogonalManifold(30), identity_point(30)),
                (funmap, BiorthogonalManifold(16), random_point(5 + 7919, 16, 0.3))]

        def solve(problem, manifold, p0):
            p, trace = conjugate_gradient(problem, manifold, p0, SolverOptions(max_iters=40))
            return (p.x.tobytes(), p.y.tobytes(),
                    [(r.iter, r.cost, r.grad_norm, r.feas_err) for r in trace])

        serial = [solve(*args) for args in work]
        barrier = threading.Barrier(len(work))
        results = [None] * len(work)

        def worker(i):
            barrier.wait()
            results[i] = solve(*work[i])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(work))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert results == serial
        assert all(len(trace) == 41 for _, _, trace in serial)


def hermite_minimizer(f0, slope0, s, fs, slope_s):
    """Local minimizer of the cubic c with c(0) = f0, c'(0) = slope0, c(s) = fs,
    c'(s) = slope_s, from its coefficients; NaN if it has none."""
    # c(t) = f0 + slope0 t + a t^2 + b t^3
    a, b = np.linalg.solve([[s * s, s ** 3], [2 * s, 3 * s * s]],
                           [fs - f0 - slope0 * s, slope_s - slope0])
    roots = np.roots([3 * b, 2 * a, slope0])
    minima = [r.real for r in roots if abs(r.imag) <= 1e-12 * abs(r) and 2 * a + 6 * b * r.real > 0]
    return minima[0] if minima else math.nan


class TestCubicMinimizer:
    def test_a_linear_section_has_no_minimizer(self):
        # phi(t) = -t through (0, 0, -1) and (1, -1, -1): d1 = 1 and disc = 0,
        # so the denominator is exactly 0, where a bare division would raise
        # ZeroDivisionError.
        assert math.isnan(_cubic_minimizer(1.0, 0.0, -1.0, -1.0, -1.0))
        assert math.isnan(hermite_minimizer(0.0, -1.0, 1.0, -1.0, -1.0))


class TrialRecorder:
    """Stands in for both the manifold and the problem of one search, and
    records (step, cost, ray slope, point) of each trial.

    The step of a trial is the one the search passes to `retract`.
    """

    def __init__(self, manifold, problem, p, d):
        self.manifold, self.problem = manifold, problem
        self.velocity = manifold.ray_velocity(p, d)
        self.trials = []

    def __getattr__(self, name):
        return getattr(self.manifold, name)

    def retract(self, p, t, s=1.0):
        self._step, self._point = s, self.manifold.retract(p, t, s)
        return self._point

    def cost_grad(self, x, y):
        cost, egrad = self.problem.cost_grad(x, y)
        self.trials.append((self._step, cost, egrad.inner(self.velocity(self._point)), self._point))
        return cost, egrad


class SlopeRecorder(TrialRecorder):
    """A TrialRecorder that also records each point at which the search asks
    the ray's velocity for a slope."""

    def __init__(self, manifold, problem, p, d):
        super().__init__(manifold, problem, p, d)
        self.slopes_at = []

    def ray_velocity(self, p, d):
        velocity = self.manifold.ray_velocity(p, d)

        def recorded(q):
            self.slopes_at.append(q)
            return velocity(q)

        return recorded


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

    def retract(self, p, t, s=1.0):
        self.trials += 1
        return super().retract(p, t, s)


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
        assert trace[-1].grad_norm == math.sqrt(g.inner(g))


class TestTrialPoints:
    # Searches seeded with the slope-ratio step and a strict curvature test
    # made 2.13 retractions per iteration on the nearest-pair run and 2.37 on
    # the funmap run. The Newton step on the ray makes 1.33 and 1.00: most
    # searches end at their first trial. Without the curvature test along
    # conjugate directions the nearest-pair run makes 1.20.

    @staticmethod
    def trials_in_30_iterations(manifold, problem, p0):
        _, trace = conjugate_gradient(problem, manifold, p0, SolverOptions(max_iters=30))
        assert len(trace) == 31
        return manifold.trials

    def test_few_trial_points_per_iteration(self):
        manifold = CountingManifold(12)
        problem = random_nearest_pair(41, 12, 4.0)
        assert self.trials_in_30_iterations(manifold, problem, manifold.identity()) <= 1.25 * 30

    def test_one_trial_point_per_iteration_on_funmap(self):
        manifold = CountingManifold(16)
        problem, _ = synth_funmap(3, 64, 16)
        p0 = random_point(3 + 7919, 16, 0.3)
        assert self.trials_in_30_iterations(manifold, problem, p0) <= 1.1 * 30


class CountingEuclidean(EuclideanManifold):
    """Counts retractions of the flat space."""

    trials = 0

    def retract(self, p, t, s=1.0):
        self.trials += 1
        return super().retract(p, t, s)


class FixedCurvature:
    """A problem's cost and gradient with a `curvature` that returns `value`."""

    def __init__(self, problem, value):
        self.cost_grad = problem.cost_grad
        self.value = value

    def curvature(self, x, y, u, v):
        return self.value


class TestNewtonStep:
    def test_exact_on_a_quadratic_over_the_flat_space(self):
        # The nearest-pair cost is quadratic in (x, y), and the flat ray is a
        # straight line, so -phi'(0) / phi''(0) = 1/2 lands on the minimizer
        # with one trial point.
        n = 5
        manifold = CountingEuclidean(n)
        problem = random_nearest_pair(3, n, 2.0)
        point, trace = gradient_descent(problem, manifold, manifold.identity(),
                                        SolverOptions(max_iters=1))
        assert manifold.trials == 1
        assert trace[-1].cost <= 1e-28 * trace[0].cost
        assert np.allclose(point.x, problem.phi, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
    def test_unusable_curvature_falls_back_to_the_slope_ratio(self, value):
        # phi''(0) <= 0 or not finite: every search starts where a problem
        # without `curvature` starts it, so the runs are the same. On the
        # flat space phi''(0) is the problem's curvature alone.
        n = 12
        targets = random_nearest_pair(41, n, 4.0)
        base = PenaltyProblem(targets.phi, targets.psi, 10.0)
        manifold = EuclideanManifold(n)
        opts = SolverOptions(max_iters=10)
        _, expected = conjugate_gradient(CountingProblem(base), manifold, manifold.identity(), opts)
        _, trace = conjugate_gradient(FixedCurvature(base, value), manifold,
                                      manifold.identity(), opts)
        assert [(r.cost, r.grad_norm) for r in trace] == [(r.cost, r.grad_norm) for r in expected]


class CountingTransport(BiorthogonalManifold):
    """Counts projections; conjugate gradient carries only the direction, by projection."""

    projections = 0

    def project(self, p, a):
        self.projections += 1
        return super().project(p, a)


class TestConjugateGradientKernels:
    def test_one_transport_per_iteration_and_one_svd_per_point(self, monkeypatch):
        svds = []

        def counted(m, **kwargs):
            svds.append(m)
            return svd(m, **kwargs)

        monkeypatch.setattr(biorth.manifold, "svd", counted)
        n = 12
        manifold = CountingTransport(n)
        problem = random_nearest_pair(41, n, 4.0)
        _, trace = conjugate_gradient(
            problem, manifold, manifold.identity(), SolverOptions(max_iters=30)
        )
        assert len(trace) == 31
        # the start gradient, then per iteration one gradient and at most one direction
        assert manifold.projections <= 1 + 2 * (len(trace) - 1)
        # one factorization per iterate, the identity start included
        assert len(svds) == len(trace)

    @pytest.mark.parametrize("stop", ["max_iters", "grad_tol"])
    def test_the_point_that_ends_the_run_is_projected_once(self, stop):
        # Its gradient is projected; a CG direction is carried to a point
        # only when another search starts from it.
        n = 12
        problem = random_nearest_pair(41, n, 4.0)
        manifold = BiorthogonalManifold(n)
        _, full = conjugate_gradient(problem, manifold, manifold.identity(),
                                     SolverOptions(max_iters=30))
        # Both stops end on an iteration whose search along -g is not due.
        opts = (SolverOptions(max_iters=11) if stop == "max_iters"
                else SolverOptions(max_iters=30, grad_tol=full[11].grad_norm))
        points = []

        class Recording(BiorthogonalManifold):
            def project(self, p, a):
                points.append(p)
                return super().project(p, a)

        manifold = Recording(n)
        last, trace = conjugate_gradient(problem, manifold, manifold.identity(), opts)
        assert trace[-1].grad_norm == full[len(trace) - 1].grad_norm
        assert sum(q is last for q in points) == 1
        assert all(points.count(q) <= 2 for q in points)

    def test_model_problem_points_take_the_gram_route(self, monkeypatch):
        # Every point of a model-problem solve, the identity start included,
        # is well conditioned, so svd factors it by one eigh of its Gram and
        # never calls LAPACK's SVD; a limit that sent them back to LAPACK
        # would show here.
        calls = {"svd": 0, "eigh": 0}

        def counted(name, kernel):
            def run(*args, **kwargs):
                calls[name] += 1
                return kernel(*args, **kwargs)

            return run

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        n = 30
        manifold = BiorthogonalManifold(n)
        _, trace = conjugate_gradient(
            random_nearest_pair(43, n), manifold, manifold.identity(), SolverOptions(max_iters=20)
        )
        assert len(trace) == 21
        assert calls == {"svd": 0, "eigh": len(trace)}

    def test_no_tangency_measurement_inside_the_run(self, residual_checks):
        # Projections and tangent arithmetic are tangent by construction;
        # only the public TangentPair constructor measures the residual.
        n = 12
        manifold = BiorthogonalManifold(n)
        problem = random_nearest_pair(41, n, 4.0)
        _, trace = conjugate_gradient(
            problem, manifold, manifold.identity(), SolverOptions(max_iters=30)
        )
        assert len(trace) == 31
        assert residual_checks == []


class ReadRecorder:
    """Forwards attribute reads to `manifold` and adds each name to `reads`."""

    def __init__(self, manifold, reads):
        self._manifold = manifold
        self._reads = reads

    def __getattr__(self, name):
        self._reads.add(name)
        return getattr(self._manifold, name)


def test_solvers_read_only_the_manifold_interface():
    # Inner products and the feasibility error come from the values, so the
    # solvers ask the manifold for no metric and no feasibility measure.
    reads = set()
    targets = random_nearest_pair(41, 6, 4.0)
    penalty = PenaltyProblem(targets.phi, targets.psi, 10.0)
    for manifold, problem in ((BiorthogonalManifold(6), targets), (EuclideanManifold(6), penalty)):
        proxy = ReadRecorder(manifold, reads)
        p0 = manifold.identity()
        for solve in (gradient_descent, conjugate_gradient):
            _, trace = solve(problem, proxy, p0, SolverOptions(max_iters=10))
            assert len(trace) == 11
        fd_gradient_check(problem, proxy, p0)
    assert reads == {"check_point", "project", "retract", "ray_velocity", "ray_acceleration"}


class TestSearchFallback:
    """A search that fails along a CG direction is retried once along -g."""

    N = 12
    ITERS = 12

    def patch_search(self, monkeypatch, fail):
        """Record, per armijo_search call, whether it runs along -g; `fail(calls)`
        returns the exception to raise in place of the search, or None."""
        calls = []
        search = biorth.solvers.armijo_search

        def patched(problem, manifold, p, d, slope, **kwargs):
            # Along -g the solver passes slope = -g.inner(g) = -d.inner(d) exactly.
            calls.append(slope == -d.inner(d))
            exc = fail(calls)
            if exc is not None:
                raise exc
            return search(problem, manifold, p, d, slope, **kwargs)

        monkeypatch.setattr(biorth.solvers, "armijo_search", patched)
        return calls

    def solve(self, max_iters=ITERS):
        manifold = BiorthogonalManifold(self.N)
        problem = random_nearest_pair(41, self.N, 4.0)
        return conjugate_gradient(problem, manifold, manifold.identity(),
                                  SolverOptions(max_iters=max_iters))

    @pytest.mark.parametrize("error", [LineSearchError, NumericalError])
    def test_failed_cg_search_is_retried_along_the_gradient(self, monkeypatch, error):
        def fail_first_cg_search(calls):
            return error("injected") if calls.count(False) == 1 and not calls[-1] else None

        calls = self.patch_search(monkeypatch, fail_first_cg_search)
        _, trace = self.solve()
        assert len(trace) == self.ITERS + 1
        first = calls.index(False)
        assert calls[first + 1] is True
        # one search per iteration plus the one retry
        assert len(calls) == self.ITERS + 1
        costs = [r.cost for r in trace]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_failure_along_the_gradient_ends_the_run_at_the_current_point(self, monkeypatch):
        calls = self.patch_search(
            monkeypatch, lambda calls: LineSearchError("injected") if False in calls else None)
        point, trace = self.solve()
        first = calls.index(False)
        assert first >= 1 and calls[first:] == [False, True]
        assert len(trace) == first + 1
        monkeypatch.undo()
        ref_point, ref_trace = self.solve(max_iters=first)
        assert np.array_equal(point.x, ref_point.x) and np.array_equal(point.y, ref_point.y)
        assert [r.cost for r in trace] == [r.cost for r in ref_trace]

    def test_no_finite_cost_along_the_gradient_raises(self, monkeypatch):
        calls = self.patch_search(
            monkeypatch, lambda calls: NumericalError("injected") if False in calls else None)
        with pytest.raises(NumericalError, match="^injected$"):
            self.solve()
        assert calls[-2:] == [False, True]


class TestCurvatureTestOnRestartsOnly:
    """A search applies the curvature test exactly when it runs along -g."""

    @pytest.mark.parametrize("solve", [conjugate_gradient, gradient_descent], ids=["cg", "gd"])
    def test_curvature_test_is_the_restart_flag(self, monkeypatch, solve):
        calls = []
        search = biorth.solvers.armijo_search

        def patched(problem, manifold, p, d, slope, **kwargs):
            # Along -g the solver passes slope = -g.inner(g) = -d.inner(d) exactly.
            calls.append((slope == -d.inner(d), kwargs["curvature_test"]))
            return search(problem, manifold, p, d, slope, **kwargs)

        monkeypatch.setattr(biorth.solvers, "armijo_search", patched)
        manifold = BiorthogonalManifold(12)
        problem = random_nearest_pair(41, 12, 4.0)
        _, trace = solve(problem, manifold, manifold.identity(), SolverOptions(max_iters=30))
        assert len(calls) == len(trace) - 1 == 30
        assert all(along_gradient is tested for along_gradient, tested in calls)
        restarts = {along_gradient for along_gradient, _ in calls}
        assert restarts == ({True, False} if solve is conjugate_gradient else {True})


class GradientRecorder:
    """Forwards to `manifold`; keeps the result of the first `project` at each new point."""

    def __init__(self, manifold, gradients):
        self._manifold = manifold
        self._gradients = gradients
        self._last = None

    def __getattr__(self, name):
        return getattr(self._manifold, name)

    def project(self, p, a):
        t = self._manifold.project(p, a)
        if p is not self._last:
            self._last = p
            self._gradients.append(t)
        return t


@pytest.mark.parametrize("kind, seed", [("biorth", 3), ("biorth", 41), ("penalty", 1)])
def test_conjugate_gradient_restarts_on_powells_test_alone(monkeypatch, kind, seed):
    # Over 40 iterations no search fails and descent is never lost, so a search
    # runs along -g exactly at k = 0 and where |<g_k, g_(k-1)>| >= 0.1 |g_k|^2.
    if kind == "biorth":
        manifold, problem = BiorthogonalManifold(3), random_nearest_pair(seed, 3, 4.0)
    else:
        targets = random_nearest_pair(seed, 2, 4.0)
        manifold, problem = EuclideanManifold(2), PenaltyProblem(targets.phi, targets.psi, 10.0)
    restarts, gradients = [], []
    search = biorth.solvers.armijo_search

    def patched(*args, **kwargs):
        restarts.append(kwargs["curvature_test"])
        return search(*args, **kwargs)

    monkeypatch.setattr(biorth.solvers, "armijo_search", patched)
    iters = 40
    opts = SolverOptions(max_iters=iters, grad_tol=0.0)
    _, trace = conjugate_gradient(problem, GradientRecorder(manifold, gradients),
                                  manifold.identity(), opts)
    assert len(trace) == len(gradients) == iters + 1 and len(restarts) == iters
    powell = [k == 0 or abs(g.inner(gradients[k - 1])) >= 0.1 * g.inner(g)
              for k, g in enumerate(gradients[:iters])]
    assert restarts == powell
    assert False in restarts


class TestFdGradientCheck:
    def test_nearest_pair_gradient(self):
        n = 10
        manifold = BiorthogonalManifold(n)
        problem = random_nearest_pair(31, n, 2.0)
        p = random_point(32, n, 0.3)
        assert fd_gradient_check(problem, manifold, p) <= 1e-5

    def test_penalty_gradient_on_flat_space(self):
        n = 10
        manifold = EuclideanManifold(n)
        targets = random_nearest_pair(33, n, 2.0)
        problem = PenaltyProblem(targets.phi, targets.psi, alpha=100.0)
        p = EuclideanPoint(*(np.eye(n) + 0.3 * make_rng(34).standard_normal((2, n, n))))
        assert fd_gradient_check(problem, manifold, p) <= 1e-5

    def test_constant_problem_trivially_passes(self):
        manifold = BiorthogonalManifold(5)
        p = random_point(35, 5, 0.3)
        assert fd_gradient_check(ConstantProblem(), manifold, p) == 0.0

    def test_a_nan_difference_quotient_gives_nan(self):
        # The cost is 0 with a zero gradient at p and NaN everywhere else, so
        # every difference quotient is NaN: the check must not score that as 0.
        manifold = BiorthogonalManifold(5)
        p = random_point(35, 5, 0.3)

        class NanOffStart:
            def cost_grad(self, x, y):
                cost = 0.0 if np.array_equal(x, p.x) else math.nan
                return cost, AmbientPair(np.zeros_like(x), np.zeros_like(y))

        assert math.isnan(fd_gradient_check(NanOffStart(), manifold, p))


def gradient_legs(problem, manifold, p):
    g = riemannian_gradient(problem, manifold, p)
    return g.u, g.v


class TestGradientToolsCertifyTheirPoint:
    """riemannian_gradient and fd_gradient_check start from manifold.check_point, as the solvers do."""

    TOOLS = (gradient_legs, fd_gradient_check)

    @pytest.mark.parametrize("tool", TOOLS, ids=["riemannian_gradient", "fd_gradient_check"])
    def test_a_feasible_flat_point_gives_its_biorth_points_value(self, tool):
        manifold = BiorthogonalManifold(4)
        problem = random_nearest_pair(36, 4, 2.0)
        p = random_point(37, 4, 0.3)
        expected = tool(problem, manifold, p)
        got = tool(problem, manifold, EuclideanPoint(p.x, p.y))
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("tool", TOOLS, ids=["riemannian_gradient", "fd_gradient_check"])
    def test_an_infeasible_flat_point_is_off_the_manifold(self, tool):
        problem = random_nearest_pair(38, 4, 2.0)
        with pytest.raises(OffManifoldError, match="^pair is not biorthogonal"):
            tool(problem, BiorthogonalManifold(4), EuclideanPoint(2.0 * np.eye(4), np.eye(4)))

    @pytest.mark.parametrize("tool", TOOLS, ids=["riemannian_gradient", "fd_gradient_check"])
    def test_a_point_of_the_wrong_size_is_a_dimension_error(self, tool):
        problem = random_nearest_pair(39, 4, 2.0)
        with pytest.raises(DimensionError, match="^point has n=3, expected n=4$"):
            tool(problem, BiorthogonalManifold(4), random_point(40, 3, 0.3))

    @pytest.mark.parametrize("tool", TOOLS, ids=["riemannian_gradient", "fd_gradient_check"])
    def test_a_value_that_is_not_a_point_is_a_type_error(self, tool):
        problem = random_nearest_pair(41, 3, 2.0)
        with pytest.raises(TypeError, match="^point must be of type EuclideanPoint, got ndarray$"):
            tool(problem, BiorthogonalManifold(3), np.eye(3))
