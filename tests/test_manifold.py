import warnings

import numpy as np
import pytest

import biorth.manifold
from biorth.checks import min_norm_tangent_oracle
from biorth.errors import (
    BiorthError,
    DimensionError,
    InvalidTangentError,
    NumericalError,
    OffManifoldError,
)
from biorth.linalg import fro_inner, fro_norm, mat_exp, svd
from biorth.manifold import (
    AmbientPair,
    BiorthPoint,
    BiorthogonalManifold,
    EuclideanManifold,
    TangentPair,
    default_feas_tol,
    default_tan_tol,
    identity_point,
    is_on_manifold,
    metric,
    pair_inverse,
    pair_product,
    project_tangent,
    random_point,
    random_tangent,
    retract,
)
from biorth.rng import make_rng


# Base-point scales for the projection tests: random_point(scale=1.5) at
# n = 20 has a condition number near 7e5.
BASE_SCALES = (0.4, 1.0, 1.5)


def seeded_point(seed, n, scale=0.4):
    return random_point(seed, n, scale)


@pytest.fixture
def svd_calls(monkeypatch):
    """Record every matrix that the manifold module factorizes."""
    calls = []

    def counted(m):
        calls.append(m)
        return svd(m)

    monkeypatch.setattr(biorth.manifold, "svd", counted)
    return calls


class TestBiorthPoint:
    def test_accepts_identity(self):
        p = BiorthPoint(np.eye(4), np.eye(4))
        assert p.feasibility_error() == 0.0

    def test_rejects_infeasible(self):
        with pytest.raises(OffManifoldError):
            BiorthPoint(2.0 * np.eye(3), np.eye(3))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError):
            BiorthPoint(np.eye(3), np.eye(4))

    def test_immutable(self):
        p = identity_point(3)
        with pytest.raises(AttributeError):
            p.x = np.zeros((3, 3))
        with pytest.raises(ValueError):
            p.x[0, 0] = 5.0


class TestTangentPair:
    def test_accepts_valid(self):
        p = seeded_point(1, 5)
        u = make_rng(2).standard_normal((5, 5))
        v = -(p.y @ u @ p.y)
        t = TangentPair(u, v, p)
        assert t.norm() > 0

    def test_rejects_violation(self):
        p = identity_point(3)
        with pytest.raises(InvalidTangentError):
            TangentPair(np.eye(3), np.eye(3), p)  # needs v = -u at identity

    def test_cross_base_arithmetic_rejected(self):
        p = seeded_point(3, 4)
        q = seeded_point(4, 4)
        t1 = random_tangent(5, p, 1.0)
        t2 = random_tangent(6, q, 1.0)
        with pytest.raises(InvalidTangentError):
            _ = t1 + t2

    def test_linear_combinations_stay_tangent(self):
        p = seeded_point(7, 6)
        t1 = random_tangent(8, p, 1.0)
        t2 = random_tangent(9, p, 2.0)
        combo = 0.5 * t1 + (-3.0) * t2
        assert fro_norm(p.x @ combo.v + combo.u @ p.y) <= 1e-9 * 6


class TestPairOps:
    def test_identity_element(self):
        p = seeded_point(10, 4)
        e = identity_point(4)
        out = pair_product(e, p)
        assert np.allclose(out.x, p.x, atol=1e-15)
        assert np.allclose(out.y, p.y, atol=1e-15)

    def test_product_on_integer_tuples(self):
        a = (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        b = (np.array([[2.0, 0.0], [1.0, 1.0]]), np.array([[1.0, 1.0], [0.0, 2.0]]))
        first, second = pair_product(a, b)
        assert np.array_equal(first, a[0] @ b[0])
        assert np.array_equal(second, b[1] @ a[1])

    def test_closure_of_seeded_points(self):
        for seed in range(10):
            p = seeded_point(20 + seed, 6)
            q = seeded_point(40 + seed, 6)
            out = pair_product(p, q)
            assert isinstance(out, BiorthPoint)
            assert out.feasibility_error() <= 1e-10

    def test_inverse_swaps(self):
        p = BiorthPoint(np.diag([2.0, 4.0]), np.diag([0.5, 0.25]))
        inv = pair_inverse(p)
        assert np.array_equal(inv.x, p.y)
        assert np.array_equal(inv.y, p.x)

    def test_inverse_is_involution(self):
        p = seeded_point(11, 5)
        back = pair_inverse(pair_inverse(p))
        assert np.array_equal(back.x, p.x)
        assert np.array_equal(back.y, p.y)

    def test_inverse_times_self_is_identity(self):
        p = seeded_point(12, 5)
        first, second = pair_product((p.y, p.x), (p.x, p.y))
        eye = np.eye(5)
        assert fro_norm(first - eye) <= 1e-10
        assert fro_norm(second - eye) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            pair_product((np.eye(2), np.eye(2)), (np.eye(3), np.eye(3)))


class TestIsOnManifold:
    def test_identity(self):
        ok, err = is_on_manifold(np.eye(3), np.eye(3), 1e-12)
        assert ok
        assert err == 0.0

    def test_scaled_identity_fails(self):
        n = 4
        ok, err = is_on_manifold(2.0 * np.eye(n), np.eye(n), 1e-6)
        assert not ok
        assert err == pytest.approx(np.sqrt(n), rel=1e-12)

    def test_numerical_inverse_passes(self):
        for seed in range(5):
            rng = make_rng(60 + seed)
            n = 8
            x = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            y = np.linalg.solve(x, np.eye(n))
            ok, _ = is_on_manifold(x, y, 1e-9 * n)
            assert ok


class TestProjectTangent:
    def test_identity_base_closed_form(self):
        rng = make_rng(70)
        n = 6
        phi = rng.standard_normal((n, n))
        psi = rng.standard_normal((n, n))
        t = project_tangent(identity_point(n), AmbientPair(phi, psi))
        assert np.allclose(t.u, (phi - psi) / 2.0, atol=1e-14)
        assert np.allclose(t.v, (psi - phi) / 2.0, atol=1e-14)

    def test_diagonal_worked_example(self):
        # base (diag(2, 1/2), diag(1/2, 2)), input (diag(1, 0), 0): the only
        # active entry has sigma = 1/2, so u = 1 / (1 + sigma^4) = 16/17 and
        # v = -sigma^2 u = -4/17.
        p = BiorthPoint(np.diag([2.0, 0.5]), np.diag([0.5, 2.0]))
        a = AmbientPair(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        t = project_tangent(p, a)
        assert np.allclose(t.u, np.diag([16.0 / 17.0, 0.0]), atol=1e-15)
        assert np.allclose(t.v, np.diag([-4.0 / 17.0, 0.0]), atol=1e-15)
        assert fro_norm(p.x @ t.v + t.u @ p.y) <= 1e-15

    def test_tangent_input_unchanged(self):
        for scale in BASE_SCALES:
            p = seeded_point(71, 7, scale)
            t = random_tangent(72, p, 2.0)
            back = project_tangent(p, t.as_ambient())
            assert fro_norm(back.u - t.u) + fro_norm(back.v - t.v) <= 1e-12

    def test_idempotent(self):
        # Each projection also passes the default tangency check of TangentPair.
        for scale in BASE_SCALES:
            for seed in range(10):
                rng = make_rng(80 + seed)
                n = int(rng.integers(2, 21))
                p = seeded_point(90 + seed, n, scale)
                a = AmbientPair(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
                t1 = project_tangent(p, a)
                t2 = project_tangent(p, t1.as_ambient())
                err = fro_norm(t2.u - t1.u) + fro_norm(t2.v - t1.v)
                assert err <= 1e-10 * a.norm()

    def test_residual_orthogonal_to_tangents(self):
        for scale in BASE_SCALES:
            p = seeded_point(100, 8, scale)
            rng = make_rng(101)
            a = AmbientPair(rng.standard_normal((8, 8)), rng.standard_normal((8, 8)))
            t = project_tangent(p, a)
            u_ref, v_ref = min_norm_tangent_oracle(p, a)
            rel = (fro_norm(t.u - u_ref) + fro_norm(t.v - v_ref)) / (
                fro_norm(u_ref) + fro_norm(v_ref)
            )
            assert rel <= 1e-8
            ru = a.phi - t.u
            rv = a.psi - t.v
            for seed in range(20):
                w = random_tangent(110 + seed, p, 1.0)
                ip = abs(fro_inner(ru, w.u) + fro_inner(rv, w.v))
                assert ip <= 1e-8 * a.norm()

    def test_drifted_base_point_projects_to_a_tangent(self):
        # x0 @ y0 - I = diag(1.8e-9, 0) is inside the n = 2 feasibility
        # tolerance of 2e-9, but u11 = 5 makes the uncorrected -y0 u y0
        # miss tangency against the stored x0 by about 9e-9.
        # The correction must also keep the projection idempotent.
        p = BiorthPoint(np.eye(2), np.diag([1.0 + 1.8e-9, 1.0]))
        assert 1e-9 < p.feasibility_error() <= default_feas_tol(2)
        a = AmbientPair(np.diag([10.0, 0.0]), np.zeros((2, 2)))
        t = project_tangent(p, a)
        assert t.u[0, 0] == pytest.approx(5.0, rel=1e-8)
        assert fro_norm(p.x @ t.v + t.u @ p.y) <= 1e-15
        back = project_tangent(p, t.as_ambient())
        assert fro_norm(back.u - t.u) + fro_norm(back.v - t.v) <= 1e-10 * a.norm()

    def test_dimension_mismatch(self):
        p = identity_point(3)
        with pytest.raises(DimensionError):
            project_tangent(p, AmbientPair(np.eye(4), np.eye(4)))


class TestSvdCache:
    def test_projections_at_one_point_share_one_svd(self, svd_calls):
        p = seeded_point(250, 6)
        rng = make_rng(251)
        for _ in range(3):
            project_tangent(p, AmbientPair(*rng.standard_normal((2, 6, 6))))
        assert len(svd_calls) == 1
        assert np.array_equal(svd_calls[0], p.y)

    def test_retract_runs_no_svd(self, svd_calls):
        p = seeded_point(252, 6)
        retract(p, random_tangent(253, p, 0.5))
        assert svd_calls == []

    def test_new_points_factor_their_own_y(self, svd_calls):
        p = seeded_point(254, 6)
        a = AmbientPair(*make_rng(255).standard_normal((2, 6, 6)))
        t = project_tangent(p, a)
        for q in (retract(p, 0.1 * t), pair_inverse(p)):
            before = len(svd_calls)
            tq = project_tangent(q, a)
            assert len(svd_calls) == before + 1
            assert np.array_equal(svd_calls[-1], q.y)
            fresh = project_tangent(BiorthPoint(q.x, q.y), a)
            assert np.array_equal(tq.u, fresh.u)
            assert np.array_equal(tq.v, fresh.v)

    def test_cached_point_stays_immutable(self):
        p = seeded_point(256, 4)
        f = p.y_svd()
        for a in (f.u, f.s, f.v):
            with pytest.raises(ValueError):
                a[0] = 0.0
        with pytest.raises(AttributeError):
            p._y_svd = None
        with pytest.raises(AttributeError):
            p.y = np.eye(4)


class TestRetract:
    def test_zero_tangent_returns_same_point(self):
        p = seeded_point(120, 6)
        z = TangentPair(np.zeros((6, 6)), np.zeros((6, 6)), p)
        q = retract(p, z)
        assert np.array_equal(q.x, p.x)
        assert np.array_equal(q.y, p.y)

    def test_identity_base_is_exponential(self):
        n = 5
        p = identity_point(n)
        u = 0.3 * make_rng(121).standard_normal((n, n))
        t = TangentPair(u, -u, p)
        q = retract(p, t)
        assert np.allclose(q.x, mat_exp(u), atol=1e-14)
        assert np.allclose(q.y, mat_exp(-u), atol=1e-14)

    def test_feasibility_preserved(self):
        for seed in range(10):
            rng = make_rng(130 + seed)
            n = int(rng.integers(2, 21))
            p = seeded_point(140 + seed, n, scale=0.3)
            t = random_tangent(150 + seed, p, float(rng.uniform(0.1, 5.0)))
            q = retract(p, t)
            assert q.feasibility_error() <= 1e-11 * n

    def test_first_order_agreement(self):
        for seed in range(10):
            p = seeded_point(160 + seed, 6, scale=0.3)
            t = random_tangent(170 + seed, p, 1.0)

            def lin_err(s):
                q = retract(p, s * t)
                return np.sqrt(
                    fro_norm(q.x - (p.x + s * t.u)) ** 2
                    + fro_norm(q.y - (p.y + s * t.v)) ** 2
                )

            ratio = lin_err(0.1) / lin_err(0.05)
            assert 3.5 <= ratio <= 4.5

    def test_oversized_step_raises_typed_error_without_warning(self):
        # diag(700, -750): e^W is finite but its second entry underflows to
        # zero, so e^W is exactly singular. The random steps are far too long
        # for the exponential or for the feasibility check.
        steps = []
        p0 = identity_point(2)
        u = np.diag([700.0, -750.0])
        steps.append((p0, TangentPair(u, -u, p0)))
        for seed in range(3):
            p = seeded_point(185 + seed, 6)
            steps.append((p, random_tangent(188 + seed, p, 1e3)))
        for p, t in steps:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(BiorthError):
                    retract(p, t)

    def test_foreign_base_rejected(self):
        p = seeded_point(180, 5)
        q = seeded_point(181, 5)
        t = random_tangent(182, p, 1.0)
        with pytest.raises(InvalidTangentError):
            retract(q, t)


class TestMetric:
    def test_positive_definite(self):
        p = seeded_point(190, 5)
        t = random_tangent(191, p, 2.0)
        z = TangentPair(np.zeros((5, 5)), np.zeros((5, 5)), p)
        assert metric(p, t, t) > 0
        assert metric(p, z, z) == 0.0

    def test_identity_base_doubles_single_leg(self):
        n = 4
        p = identity_point(n)
        u = make_rng(192).standard_normal((n, n))
        t = TangentPair(u, -u, p)
        assert metric(p, t, t) == pytest.approx(2.0 * fro_inner(u, u), rel=1e-14)

    def test_matches_elementwise_sum(self):
        p = seeded_point(193, 5)
        t1 = random_tangent(194, p, 1.0)
        t2 = random_tangent(195, p, 3.0)
        expected = float(np.sum(t1.u * t2.u) + np.sum(t1.v * t2.v))
        assert metric(p, t1, t2) == pytest.approx(expected, rel=1e-14)

    def test_base_mismatch_rejected(self):
        p = seeded_point(196, 4)
        q = seeded_point(197, 4)
        t1 = random_tangent(198, p, 1.0)
        t2 = random_tangent(199, q, 1.0)
        with pytest.raises(InvalidTangentError):
            metric(p, t1, t2)

    def test_ambient_pairs_rejected(self):
        p = seeded_point(196, 4)
        a = AmbientPair(np.eye(4), np.eye(4))
        with pytest.raises(InvalidTangentError):
            metric(p, a, a)
        with pytest.raises(InvalidTangentError):
            metric(p, random_tangent(198, p, 1.0), a)


class TestRandomPoint:
    def test_zero_scale_is_identity(self):
        p = random_point(200, 7, 0.0)
        assert np.array_equal(p.x, np.eye(7))
        assert np.array_equal(p.y, np.eye(7))

    def test_deterministic(self):
        p1 = random_point(201, 6, 0.5)
        p2 = random_point(201, 6, 0.5)
        assert np.array_equal(p1.x, p2.x)
        assert np.array_equal(p1.y, p2.y)

    def test_feasibility_by_construction(self):
        p = random_point(1, 10, 0.5)
        assert p.feasibility_error() <= 1e-12


class TestRandomTangent:
    def test_zero_scale(self):
        p = seeded_point(210, 5)
        t = random_tangent(211, p, 0.0)
        assert t.norm() == 0.0

    def test_norm_matches_scale(self):
        p = seeded_point(212, 5)
        t = random_tangent(213, p, 2.5)
        assert t.norm() == pytest.approx(2.5, rel=1e-12)

    def test_residual_small(self):
        for seed in range(10):
            n = 4 + seed
            p = seeded_point(220 + seed, n)
            t = random_tangent(230 + seed, p, 1.0)
            assert fro_norm(p.x @ t.v + t.u @ p.y) <= 1e-11 * n

    def test_deterministic(self):
        p = seeded_point(240, 6)
        t1 = random_tangent(241, p, 1.0)
        t2 = random_tangent(241, p, 1.0)
        assert np.array_equal(t1.u, t2.u)
        assert np.array_equal(t1.v, t2.v)


class TestManifoldInterfaces:
    def test_biorthogonal_bundle(self):
        m = BiorthogonalManifold(6)
        p = m.random_point(1, scale=0.4)
        a = AmbientPair(*make_rng(2).standard_normal((2, 6, 6)))
        t = m.project(p, a)
        q = m.retract(p, t * 0.01)
        assert m.feasibility_error(q) <= default_feas_tol(6)
        assert m.metric(p, t, t) == pytest.approx(t.norm() ** 2, rel=1e-12)
        assert m.dim == 36

    def test_check_point_returns_a_biorth_point_as_is(self):
        m = BiorthogonalManifold(4)
        p = m.random_point(5, scale=0.4)
        assert m.check_point(p) is p

    def test_retract_at_zero_is_identity_map(self):
        m = BiorthogonalManifold(5)
        p = m.random_point(3, scale=0.4)
        q = m.retract(p, m.zero_tangent(p))
        assert np.array_equal(q.x, p.x)

    def test_euclidean_bundle(self):
        m = EuclideanManifold(5)
        p = m.identity()
        a = AmbientPair(*make_rng(4).standard_normal((2, 5, 5)))
        t = m.project(p, a)
        assert t is a  # projection is the identity on the flat space
        q = m.retract(p, t)
        assert np.allclose(q.x, p.x + a.phi)
        assert np.allclose(q.y, p.y + a.psi)
        assert m.metric(p, a, a) == pytest.approx(a.norm() ** 2, rel=1e-14)
        assert m.dim == 50

    def test_euclidean_feasibility_is_diagnostic(self):
        m = EuclideanManifold(3)
        p = m.retract(m.identity(), AmbientPair(np.eye(3), np.zeros((3, 3))))
        # x = 2I, y = I: the reported violation is |2I - I| = sqrt(3)
        assert m.feasibility_error(p) == pytest.approx(np.sqrt(3.0), rel=1e-12)

    def test_euclidean_random_draws_deterministic(self):
        m = EuclideanManifold(4)
        assert np.array_equal(m.random_point(9, 0.5).x, m.random_point(9, 0.5).x)
        p = m.identity()
        t1 = m.random_tangent(10, p, 2.0)
        assert t1.norm() == pytest.approx(2.0, rel=1e-12)


@pytest.fixture
def residual_checks(monkeypatch):
    """Count the two-matmul tangency checks the manifold module runs."""
    calls = []
    measure = biorth.manifold._tangent_residual

    def counted(base, u, v):
        calls.append(base)
        return measure(base, u, v)

    monkeypatch.setattr(biorth.manifold, "_tangent_residual", counted)
    return calls


class TestTangentArithmeticBound:
    def test_stored_measurements_match_a_fresh_one(self):
        p = seeded_point(250, 6)
        t = project_tangent(p, AmbientPair(*make_rng(251).standard_normal((2, 6, 6))))
        assert t.residual == fro_norm(p.x @ t.v + t.u @ p.y)
        assert p.feasibility_error() == fro_norm(p.x @ p.y - np.eye(6))
        assert BiorthogonalManifold(6).feasibility_error(p) == p.feasibility_error()

    def test_bound_over_tolerance_is_measured_and_raises(self, residual_checks):
        # The residual of t is 0.6 tol, so any result whose triangle bound is
        # 1.2 tol must be measured, and its true residual is over tolerance.
        n = 2
        p = identity_point(n)
        tol = default_tan_tol(n)
        u = np.array([[1.0, 0.5], [0.0, -2.0]])
        drift = np.array([[0.0, 0.6 * tol], [0.0, 0.0]])
        t = TangentPair(u, -u + drift, p)
        assert t.residual == pytest.approx(0.6 * tol, rel=1e-6)
        for combine in (lambda: 2 * t, lambda: t + t, lambda: t - (-t)):
            del residual_checks[:]
            with pytest.raises(InvalidTangentError):
                combine()
            assert len(residual_checks) == 1

    def test_small_residual_arithmetic_runs_no_matmul_check(self, residual_checks):
        p = seeded_point(252, 6)
        a = random_tangent(253, p, 1.0)
        b = random_tangent(254, p, 2.0)
        del residual_checks[:]
        c = -(a + 3.0 * b) - 0.5 * a
        for _ in range(10):
            c = c + a * 0.1
        assert residual_checks == []
        assert c.residual <= default_tan_tol(6)
        assert fro_norm(p.x @ c.v + c.u @ p.y) <= default_tan_tol(6)
        with pytest.raises(ValueError):
            c.u[0, 0] = 1.0

    def test_non_finite_arithmetic_raises(self, residual_checks):
        # A zero residual keeps the bound at zero, so only the finiteness
        # check can catch the overflow.
        p = identity_point(3)
        u = 4.0 * np.eye(3)
        t = TangentPair(u, -u, p)
        assert t.residual == 0.0
        del residual_checks[:]
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError):
                t * 1e308
        assert residual_checks == []
