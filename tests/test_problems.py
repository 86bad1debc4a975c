import numpy as np
import pytest

from biorth.errors import DimensionError
from biorth.linalg import fro_norm
from biorth.manifold import (
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
from biorth.solvers import fd_gradient_check


class TestNearestPair:
    def test_zero_at_targets(self):
        rng = make_rng(1)
        phi = rng.standard_normal((5, 5))
        psi = rng.standard_normal((5, 5))
        problem = NearestPairProblem(phi, psi)
        cost, grad = problem.cost_grad(phi, psi)
        assert cost == 0.0
        assert fro_norm(grad.phi) == 0.0
        assert fro_norm(grad.psi) == 0.0

    def test_identity_against_zero_targets(self):
        n = 7
        problem = NearestPairProblem(np.zeros((n, n)), np.zeros((n, n)))
        cost = problem.cost_grad(np.eye(n), np.eye(n))[0]
        assert cost == 2.0 * n

    def test_gradient_formula(self):
        rng = make_rng(2)
        phi, psi, x, y = (rng.standard_normal((4, 4)) for _ in range(4))
        grad = NearestPairProblem(phi, psi).cost_grad(x, y)[1]
        assert np.allclose(grad.phi, 2.0 * (x - phi))
        assert np.allclose(grad.psi, 2.0 * (y - psi))

    def test_finite_difference(self):
        n = 10
        manifold = BiorthogonalManifold(n)
        rng = make_rng(3)
        problem = NearestPairProblem(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        p = random_point(4, n, 0.4)
        assert fd_gradient_check(problem, manifold, p) <= 1e-5

    def test_dimension_mismatch(self):
        problem = NearestPairProblem(np.eye(3), np.eye(3))
        with pytest.raises(DimensionError):
            problem.cost_grad(np.eye(4), np.eye(4))


class TestPenalty:
    def test_agrees_with_nearest_pair_on_feasible_points(self):
        n = 6
        rng = make_rng(5)
        phi = rng.standard_normal((n, n))
        psi = rng.standard_normal((n, n))
        p = random_point(6, n, 0.4)
        base_cost = NearestPairProblem(phi, psi).cost_grad(p.x, p.y)[0]
        for alpha in (1.0, 100.0, 1e6):
            pen_cost = PenaltyProblem(phi, psi, alpha).cost_grad(p.x, p.y)[0]
            # the constraint term is an exact square of the tiny feasibility
            # error, so the two costs agree to rounding even for huge alpha
            assert pen_cost == pytest.approx(base_cost, rel=1e-12)

    def test_vanishing_alpha_limit(self):
        n = 5
        rng = make_rng(7)
        phi, psi, x, y = (rng.standard_normal((n, n)) for _ in range(4))
        base = NearestPairProblem(phi, psi).cost_grad(x, y)[0]
        pen = PenaltyProblem(phi, psi, 1e-12).cost_grad(x, y)[0]
        assert abs(pen - base) <= 1e-9

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            PenaltyProblem(np.eye(2), np.eye(2), 0.0)
        with pytest.raises(ValueError):
            PenaltyProblem(np.eye(2), np.eye(2), -1.0)

    def test_finite_difference(self):
        n = 10
        manifold = EuclideanManifold(n)
        rng = make_rng(8)
        problem = PenaltyProblem(
            rng.standard_normal((n, n)), rng.standard_normal((n, n)), alpha=100.0
        )
        p = EuclideanPoint(*(np.eye(n) + 0.4 * make_rng(9).standard_normal((2, n, n))))
        assert fd_gradient_check(problem, manifold, p) <= 1e-5


class TestFunmap:
    def test_exact_fit_costs_nothing(self):
        problem, truth = synth_funmap(3, q=32, k=8, noise=0.0, lam=0.0)
        cost = problem.cost_grad(truth.x, truth.y)[0]
        assert cost <= 1e-24

    def test_zero_weights_disable_regularizer(self):
        rng = make_rng(10)
        a = rng.standard_normal((20, 6))
        b = rng.standard_normal((20, 6))
        c1 = rng.standard_normal((6, 6))
        c2 = rng.standard_normal((6, 6))
        with_reg = FunmapProblem(a, b, np.zeros((6, 6)), lam=7.5).cost_grad(c1, c2)[0]
        without = FunmapProblem(a, b, np.zeros((6, 6)), lam=0.0).cost_grad(c1, c2)[0]
        assert with_reg == without

    def test_finite_difference(self):
        problem, _ = synth_funmap(11, q=64, k=16, noise=0.1, lam=0.1)
        manifold = BiorthogonalManifold(16)
        p = random_point(12, 16, 0.3)
        assert fd_gradient_check(problem, manifold, p) <= 1e-5

    def test_rejects_wide_data(self):
        rng = make_rng(13)
        with pytest.raises(ValueError):
            FunmapProblem(rng.standard_normal((4, 8)), rng.standard_normal((4, 8)),
                          np.zeros((8, 8)))

    def test_rejects_weights_of_the_wrong_size(self):
        a = make_rng(17).standard_normal((10, 4))
        with pytest.raises(DimensionError, match=r"w must be 4 x 4, got \(5, 5\)"):
            FunmapProblem(a, a, np.zeros((5, 5)))

    def test_rejects_negative_weights(self):
        rng = make_rng(14)
        a = rng.standard_normal((10, 4))
        with pytest.raises(ValueError):
            FunmapProblem(a, a, -np.ones((4, 4)))

    def test_rejects_negative_regularizer_weight(self):
        rng = make_rng(16)
        a = rng.standard_normal((10, 4))
        with pytest.raises(ValueError):
            FunmapProblem(a, a, np.zeros((4, 4)), lam=-0.5)

    def test_rejects_map_dimension_mismatch(self):
        problem, _ = synth_funmap(15, q=16, k=4)
        with pytest.raises(DimensionError):
            problem.cost_grad(np.eye(5), np.eye(5))


class TestFunnelWeights:
    def test_shape_and_diagonal(self):
        w = funnel_weights(6)
        assert w.shape == (6, 6)
        assert np.array_equal(np.diag(w), np.zeros(6))

    def test_grows_away_from_diagonal(self):
        w = funnel_weights(8)
        assert w[0, 7] == pytest.approx(7.0 / 8.0)
        assert np.all(w >= 0)
        assert np.array_equal(w, w.T)


class TestSynthFunmap:
    def test_noiseless_fit_is_exact(self):
        problem, truth = synth_funmap(21, q=40, k=10, noise=0.0)
        assert fro_norm(problem.a @ truth.x - problem.b) == 0.0

    def test_shapes(self):
        problem, truth = synth_funmap(22, q=64, k=16)
        assert problem.a.shape == (64, 16)
        assert problem.b.shape == (64, 16)
        assert problem.w.shape == (16, 16)
        assert truth.x.shape == (16, 16)

    def test_seed7_instance_is_well_conditioned(self):
        _, truth = synth_funmap(7, q=64, k=16)
        assert np.linalg.cond(truth.x) <= 50.0

    def test_groundtruth_is_biorthogonal(self):
        _, truth = synth_funmap(23, q=32, k=8)
        assert truth.feasibility_error() <= 1e-12

    def test_deterministic(self):
        p1, t1 = synth_funmap(24, q=20, k=5, noise=0.3)
        p2, t2 = synth_funmap(24, q=20, k=5, noise=0.3)
        assert np.array_equal(p1.a, p2.a)
        assert np.array_equal(p1.b, p2.b)
        assert np.array_equal(t1.x, t2.x)

    def test_noise_perturbs_data(self):
        clean, _ = synth_funmap(25, q=20, k=5, noise=0.0)
        noisy, _ = synth_funmap(25, q=20, k=5, noise=0.5)
        assert np.array_equal(clean.a, noisy.a)
        assert not np.array_equal(clean.b, noisy.b)

    def test_rejects_wide_request(self):
        # FunmapProblem's own check rejects it; synth_funmap keeps no copy.
        with pytest.raises(ValueError, match=r"^need at least as many rows as columns, got 3 x 9$"):
            synth_funmap(26, q=3, k=9)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            synth_funmap(27, q=10, k=5, noise=-0.1)


@pytest.mark.parametrize("value", [-1.0, -1e-300, np.inf, np.nan],
                         ids=["negative", "tiny-negative", "inf", "nan"])
@pytest.mark.parametrize(
    "name, build",
    [
        ("scale", lambda value: random_nearest_pair(1, 4, value)),
        ("noise", lambda value: synth_funmap(1, 8, 4, noise=value)),
        ("scale", lambda value: random_point(1, 3, value)),
        ("scale", lambda value: random_tangent(1, identity_point(3), value)),
        ("lam", lambda value: FunmapProblem(np.eye(3), np.eye(3), np.zeros((3, 3)), lam=value)),
    ],
    ids=["random_nearest_pair", "synth_funmap", "random_point", "random_tangent", "FunmapProblem"],
)
def test_data_scales_must_be_nonnegative_and_finite(name, build, value):
    with pytest.raises(ValueError, match=f"^{name} must be >= 0 and finite, got "):
        build(value)


def test_a_zero_data_scale_is_accepted():
    assert not random_nearest_pair(1, 4, 0.0).phi.any()
    clean, _ = synth_funmap(1, 8, 4)
    assert np.array_equal(synth_funmap(1, 8, 4, noise=0.0)[0].b, clean.b)


@pytest.mark.parametrize(
    "name, build",
    [
        ("n", lambda size: random_nearest_pair(1, size)),
        ("q", lambda size: synth_funmap(1, size, 1)),
        ("k", lambda size: synth_funmap(1, 8, size)),
        ("k", funnel_weights),
    ],
    ids=["random_nearest_pair", "synth_funmap-q", "synth_funmap-k", "funnel_weights"],
)
@pytest.mark.parametrize("size", [2.5, 6.5, np.float64(3.0), "3", 0, -1])
def test_sizes_must_be_integers_of_at_least_one(name, build, size):
    with pytest.raises(DimensionError, match=f"^{name} must be an integer >= 1, got "):
        build(size)


def test_sizes_of_any_integer_type_pass():
    assert random_nearest_pair(1, np.int64(3)).n == 3
    assert np.array_equal(funnel_weights(np.int32(4)), funnel_weights(4))
    problem, _ = synth_funmap(1, np.int64(8), np.int64(3))
    assert (problem.q, problem.k) == (8, 3)
