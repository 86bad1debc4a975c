import inspect
import math
import warnings

import numpy as np
import pytest

import biorth.linalg
import biorth.manifold
from biorth.checks import min_norm_tangent_oracle
from biorth.errors import (
    BiorthError,
    DimensionError,
    InvalidTangentError,
    NumericalError,
    OffManifoldError,
)
from biorth.linalg import fro_norm, mat_exp, svd
from biorth.manifold import (
    AmbientPair,
    BiorthPoint,
    BiorthogonalManifold,
    EuclideanManifold,
    EuclideanPoint,
    TangentPair,
    default_feas_tol,
    default_tan_tol,
    identity_point,
    pair_inverse,
    pair_product,
    project_tangent,
    random_point,
    random_tangent,
    ray_acceleration,
    ray_velocity,
    retract,
)
from biorth.problems import random_nearest_pair
from biorth.rng import make_rng
from biorth.solvers import armijo_search


# Base-point scales for the projection tests: random_point(scale=1.5) at
# n = 20 has a condition number near 7e5.
BASE_SCALES = (0.4, 1.0, 1.5)


def seeded_point(seed, n, scale=0.4):
    return random_point(seed, n, scale)


def flat_point(seed, n, scale):
    """Point of the flat space: the identity pair plus a Gaussian pair by make_rng(seed) times `scale`."""
    return EuclideanPoint(*(np.eye(n) + scale * make_rng(seed).standard_normal((2, n, n))))


def flat_tangent(seed, n, scale):
    """Random tangent of the flat space: a Gaussian pair by make_rng(seed), of norm `scale`."""
    t = AmbientPair(*make_rng(seed).standard_normal((2, n, n)))
    return (scale / t.norm()) * t


class MatmulCounter(np.ndarray):
    """An array view that counts the products it enters, on either side."""

    products = 0

    def __matmul__(self, other):
        MatmulCounter.products += 1
        return np.asarray(self) @ np.asarray(other)

    def __rmatmul__(self, other):
        MatmulCounter.products += 1
        return np.asarray(other) @ np.asarray(self)


def counting_leg(p, leg):
    """`p` with its `leg` ("x" or "y") viewed as a MatmulCounter, counting from 0."""
    MatmulCounter.products = 0
    x, y = p.x, p.y
    if leg == "x":
        x = x.view(MatmulCounter)
    else:
        y = y.view(MatmulCounter)
    return BiorthPoint._build(x, y, p.feasibility_error())


@pytest.fixture
def svd_calls(monkeypatch):
    """Record every matrix that the manifold module factorizes."""
    calls = []

    def counted(m, **kwargs):
        calls.append(m)
        return svd(m, **kwargs)

    monkeypatch.setattr(biorth.manifold, "svd", counted)
    return calls


class TestBiorthPoint:
    def test_accepts_identity(self):
        p = BiorthPoint(np.eye(4), np.eye(4))
        assert p.feasibility_error() == 0.0

    def test_rejects_infeasible(self):
        with pytest.raises(OffManifoldError) as exc:
            BiorthPoint(2.0 * np.eye(3), np.eye(3))
        assert str(exc.value) == ("pair is not biorthogonal: fro_norm(x @ y - I) = 1.732e+00 "
                                  "exceeds tolerance 3.000e-09")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError):
            BiorthPoint(np.eye(3), np.eye(4))

    def test_overflowing_product_is_rejected_without_warning(self):
        # Finite legs whose product overflows measure an infinite error. The
        # suite turns warnings into errors, so this also checks that the
        # overflow is reported by the typed error alone.
        with pytest.raises(OffManifoldError, match=r"^pair is not .* = inf exceeds"):
            BiorthPoint(1e200 * np.eye(2), 1e200 * np.eye(2))

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

    def test_rejects_shape_of_another_base(self):
        with pytest.raises(DimensionError, match="^base has n=3, expected n=4$"):
            TangentPair(np.zeros((4, 4)), np.zeros((4, 4)), identity_point(3))

    def test_a_flat_base_is_a_type_error(self):
        # A feasible flat point is not certified, so it cannot carry tangents.
        with pytest.raises(TypeError, match="^base must be of type BiorthPoint, got "
                                            "EuclideanPoint$"):
            TangentPair(np.zeros((3, 3)), np.zeros((3, 3)), EuclideanPoint(np.eye(3), np.eye(3)))

    def test_overflowing_residual_is_rejected_without_warning(self):
        # Both products overflow in the same entry, to -inf and +inf, so the
        # residual is NaN. The suite turns warnings into errors.
        p = BiorthPoint(np.diag([1e200, 1e-200]), np.diag([1e-200, 1e200]))
        u = np.array([[0.0, 1e200], [0.0, 0.0]])
        with pytest.raises(InvalidTangentError, match=r"^pair is not tangent .* = nan exceeds"):
            TangentPair(u, -u, p)

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
        out = pair_product(pair_inverse(p), p)
        eye = np.eye(5)
        assert fro_norm(out.x - eye) <= 1e-10
        assert fro_norm(out.y - eye) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError, match="^point has n=3, expected n=2$"):
            pair_product(identity_point(2), identity_point(3))

    def test_a_value_that_is_not_a_point_is_a_type_error(self):
        # A feasible flat point is not certified, so the group operations take none.
        p = identity_point(3)
        for value in (np.eye(3), EuclideanPoint(np.eye(3), np.eye(3))):
            for call in (lambda: pair_product(p, value), lambda: pair_product(value, p),
                         lambda: pair_inverse(value), lambda: random_tangent(1, value, 1.0)):
                with pytest.raises(TypeError, match="^point must be of type BiorthPoint, got "
                                                    f"{type(value).__name__}$"):
                    call()


class TestIsOnManifold:
    """Membership in BO(n), as the BiorthPoint constructor decides it."""

    def test_identity(self):
        p = BiorthPoint(np.eye(3), np.eye(3))
        assert p.feasibility_error() == 0.0

    def test_scaled_identity_fails(self):
        n = 4
        with pytest.raises(OffManifoldError):
            BiorthPoint(2.0 * np.eye(n), np.eye(n))
        err = EuclideanPoint(2.0 * np.eye(n), np.eye(n)).feasibility_error()
        assert err == pytest.approx(np.sqrt(n), rel=1e-12)

    def test_numerical_inverse_passes(self):
        for seed in range(5):
            rng = make_rng(60 + seed)
            n = 8
            x = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            y = np.linalg.solve(x, np.eye(n))
            assert BiorthPoint(x, y).feasibility_error() <= 1e-9 * n


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
            back = project_tangent(p, t)
            assert fro_norm(back.u - t.u) + fro_norm(back.v - t.v) <= 1e-12

    def test_idempotent(self):
        for scale in BASE_SCALES:
            for seed in range(10):
                rng = make_rng(80 + seed)
                n = int(rng.integers(2, 21))
                p = seeded_point(90 + seed, n, scale)
                a = AmbientPair(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
                t1 = project_tangent(p, a)
                assert fro_norm(p.x @ t1.v + t1.u @ p.y) <= default_tan_tol(n)
                t2 = project_tangent(p, t1)
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
                ip = abs(float(np.vdot(ru, w.u)) + float(np.vdot(rv, w.v)))
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
        back = project_tangent(p, t)
        assert fro_norm(back.u - t.u) + fro_norm(back.v - t.v) <= 1e-10 * a.norm()

    def test_dimension_mismatch(self):
        p = identity_point(3)
        with pytest.raises(DimensionError):
            project_tangent(p, AmbientPair(np.eye(4), np.eye(4)))

    def test_a_flat_point_is_a_type_error(self):
        a = AmbientPair(np.eye(3), np.eye(3))
        with pytest.raises(TypeError, match="^point must be of type BiorthPoint, got "
                                            "EuclideanPoint$"):
            project_tangent(EuclideanPoint(np.eye(3), np.eye(3)), a)

    def test_an_array_in_place_of_the_pair_is_a_type_error(self):
        with pytest.raises(TypeError, match="^ambient pair must be of type AmbientPair, got "
                                            "ndarray$"):
            project_tangent(identity_point(3), np.eye(3))


class TestSvdCache:
    def test_projections_at_one_point_share_one_svd(self, svd_calls):
        p = seeded_point(250, 6)
        rng = make_rng(251)
        for _ in range(3):
            project_tangent(p, AmbientPair(*rng.standard_normal((2, 6, 6))))
        assert len(svd_calls) == 1
        assert np.array_equal(svd_calls[0], p.y)

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 100])
    def test_identity_carries_its_exact_svd(self, n):
        # The Gram route factors I exactly, as (J, ones, J).
        p = identity_point(n)
        fu, s, fv = p.projector()[:3]
        assert np.array_equal((fu * s) @ fv.T, np.eye(n))
        a = AmbientPair(*make_rng(257 + n).standard_normal((2, n, n)))
        t = project_tangent(p, a)
        fresh = project_tangent(BiorthPoint(np.eye(n), np.eye(n)), a)
        assert np.array_equal(t.u, fresh.u) and np.array_equal(t.v, fresh.v)
        assert p.feasibility_error() == 0.0

    def test_projections_at_one_point_build_the_rotated_base_once(self):
        # The rotated base V^T x0 U is the only product that reads x0.
        p = counting_leg(seeded_point(258, 6), "x")
        rng = make_rng(259)
        a, b = (AmbientPair(*rng.standard_normal((2, 6, 6))) for _ in range(2))
        ta, tb = project_tangent(p, a), project_tangent(p, b)
        assert MatmulCounter.products == 1
        fresh = seeded_point(258, 6)
        for t, c in ((ta, a), (tb, b)):
            expected = project_tangent(fresh, c)
            assert np.array_equal(t.u, expected.u) and np.array_equal(t.v, expected.v)

    def test_ill_conditioned_point_goes_straight_to_lapack(self, monkeypatch):
        # x0 = Q D and y0 = D^-1 Q^T with D = diag(1e-3 x 4, 1e2 x 4): kappa(y0)
        # is 1e5 and the projector's bound |x0|_F |y0|_F / (n (1 + feas_err))
        # is 5e4, past svd's 2e4, so no eigh of the Gram runs.
        n = 8
        q, _ = np.linalg.qr(make_rng(286).standard_normal((n, n)))
        d = np.array([1e-3] * 4 + [1e2] * 4)
        p = BiorthPoint(q * d, (q / d).T)
        u, s, vh = np.linalg.svd(p.y)

        def refuse(*args, **kwargs):
            raise AssertionError("eigh ran")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        fu, fs, fv = p.projector()[:3]
        assert np.array_equal(fu, u) and np.array_equal(fs, s) and np.array_equal(fv, vh.T)

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
        for a in p.projector():
            with pytest.raises(ValueError):
                a[0] = 0.0
        with pytest.raises(AttributeError):
            p._projector = None
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
        assert np.allclose(q.x, mat_exp(u)[0], atol=1e-14)
        assert np.allclose(q.y, mat_exp(-u)[0], atol=1e-14)

    def test_solves_no_linear_system(self, monkeypatch):
        # Both legs of the new point come from products with mat_exp's pair.
        def refuse(*args, **kwargs):
            raise AssertionError("retract solved a linear system")

        for name in ("solve", "inv", "lstsq"):
            monkeypatch.setattr(np.linalg, name, refuse)
        p = seeded_point(122, 6, scale=0.3)
        q = retract(p, random_tangent(123, p, 2.0))
        assert q.feasibility_error() <= 1e-11 * 6

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
        # diag(700, -750): e^W is finite, but e^-W = diag(e^-700, e^750)
        # overflows. The random steps are far too long for the exponential
        # or for the feasibility check.
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

    def test_overflowing_legs_raise_a_typed_error(self):
        # x0 = 1e300 I and W = y0 u = 20 I: e^W is finite, x0 e^W is not, so
        # the measured feasibility error is NaN. The suite turns warnings
        # into errors, so this also checks that the overflow is not reported
        # as a warning.
        p = BiorthPoint(1e300 * np.eye(2), 1e-300 * np.eye(2))
        t = TangentPair(2e301 * np.eye(2), -2e-299 * np.eye(2), p)
        with pytest.raises(OffManifoldError) as exc:
            retract(p, t)
        assert str(exc.value) == ("retracted pair is not biorthogonal: fro_norm(x @ y - I) = nan "
                                  "exceeds tolerance 2.000e-09")

    def test_nan_feasibility_error_is_rejected(self, monkeypatch):
        # Both feasibility checks compare with `not err <= tol`, so a NaN
        # measurement fails them rather than passing as "not above the tolerance".
        p = seeded_point(189, 3)
        t = random_tangent(190, p, 1.0)
        monkeypatch.setattr(biorth.manifold, "_feasibility_error", lambda x, y: math.nan)
        with pytest.raises(OffManifoldError, match=r"^pair is not biorthogonal: .* = nan exceeds"):
            BiorthPoint(p.x, p.y)
        with pytest.raises(OffManifoldError, match=r"^retracted pair is not .* = nan exceeds"):
            retract(p, t)

    def test_stores_the_measured_feasibility_error(self, matrix_scans):
        p = seeded_point(183, 6)
        t = random_tangent(184, p, 1.0)
        del matrix_scans[:]
        q = retract(p, t)
        # mat_exp validates its argument, once for both legs; the new point
        # is not scanned again.
        assert matrix_scans == ["matrix"]
        assert isinstance(q, BiorthPoint)
        assert not q.x.flags.writeable and not q.y.flags.writeable
        assert q.feasibility_error() == BiorthPoint(q.x, q.y).feasibility_error()


class TestRetractTakesTheStep:
    """retract(p, t, s) is the point that the step s * t reaches, on both manifolds."""

    STEPS = (0.3, -1.7, 2.5, 1.0)

    def test_matches_the_scaled_tangent(self):
        p = seeded_point(286, 6)
        t = random_tangent(287, p, 1.0)
        for s in self.STEPS:
            q, r = retract(p, t, s), retract(p, s * t)
            for a, b in ((q.x, r.x), (q.y, r.y)):
                assert fro_norm(a - b) <= 1e-14 * fro_norm(b)
            m = BiorthogonalManifold(6).retract(p, t, s)
            assert np.array_equal(m.x, q.x) and np.array_equal(m.y, q.y)

    def test_matches_the_scaled_tangent_bit_for_bit_on_the_flat_space(self):
        m = EuclideanManifold(5)
        p = flat_point(288, 5, 0.5)
        a = AmbientPair(*make_rng(289).standard_normal((2, 5, 5)))
        for s in self.STEPS:
            q, r = m.retract(p, a, s), m.retract(p, s * a)
            assert np.array_equal(q.x, r.x) and np.array_equal(q.y, r.y)

    def test_a_zero_step_returns_the_point(self):
        p = seeded_point(290, 5)
        flat = flat_point(291, 5, 0.5)
        pairs = ((BiorthogonalManifold(5), p, random_tangent(292, p, 1.0)),
                 (EuclideanManifold(5), flat, flat_tangent(293, 5, 1.0)))
        for m, base, t in pairs:
            q = m.retract(base, t, 0.0)
            assert np.array_equal(q.x, base.x) and np.array_equal(q.y, base.y)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_step_is_a_numerical_error(self, s):
        p = seeded_point(294, 3)
        flat = flat_point(295, 3, 0.5)
        pairs = ((BiorthogonalManifold(3), p, random_tangent(296, p, 1.0)),
                 (EuclideanManifold(3), flat, flat_tangent(297, 3, 1.0)))
        for m, base, t in pairs:
            with pytest.raises(NumericalError, match="^scalar factor is not finite"):
                m.retract(base, t, s)

    def test_a_search_forms_the_generator_once(self, monkeypatch):
        # The ray's velocity forms W = y0 u; every trial exponentiates s * W
        # from that one product, and builds no scaled tangent.
        steps, exponents = [], []

        class Recording(BiorthogonalManifold):
            def retract(self, p, t, s=1.0):
                steps.append(s)
                return super().retract(p, t, s)

        def recorded(m):
            exponents.append(m)
            return mat_exp(m)

        n = 6
        problem = random_nearest_pair(298, n, 2.0)
        manifold = Recording(n)
        p = seeded_point(299, n)
        f0, egrad = problem.cost_grad(p.x, p.y)
        g = manifold.project(p, egrad)
        d = TangentPair._build((-g.u).view(MatmulCounter), -g.v, p)
        monkeypatch.setattr(biorth.manifold, "mat_exp", recorded)
        MatmulCounter.products = 0
        armijo_search(problem, manifold, p, d, g.inner(d), f0, initial_step=64.0)
        assert MatmulCounter.products == 1
        assert len(steps) >= 3
        w = d.generator()
        assert [m.tobytes() for m in exponents] == [(s * w).tobytes() for s in steps]


class TestRayVelocity:
    """ray_velocity(p, t)(q) is the derivative of s -> retract(p, s t) at q = retract(p, s t)."""

    @staticmethod
    def central_difference(m, p, t, s, h=1e-6):
        plus, minus = m.retract(p, (s + h) * t), m.retract(p, (s - h) * t)
        return (plus.x - minus.x) / (2 * h), (plus.y - minus.y) / (2 * h)

    def assert_matches_the_curve(self, m, p, t, steps):
        velocity = m.ray_velocity(p, t)
        for s in steps:
            q = m.retract(p, s * t)
            got = velocity(q)
            dx, dy = self.central_difference(m, p, t, s)
            err = np.sqrt(fro_norm(got.phi - dx) ** 2 + fro_norm(got.psi - dy) ** 2)
            assert err <= 1e-6 * got.norm()

    def test_biorthogonal_manifold(self):
        n = 6
        m = BiorthogonalManifold(n)
        for seed in range(4):
            p = seeded_point(370 + seed, n)
            t = random_tangent(380 + seed, p, 1.0)
            self.assert_matches_the_curve(m, p, t, (0.0, 0.3, 1.5))

    def test_drifted_base_point(self):
        # The drifted point of TestInnerTransported: the curve is still
        # (x0 e^{sW}, e^{-sW} y0), whatever x0 y0 is.
        p = BiorthPoint(np.eye(2), np.diag([1.0 + 1.8e-9, 1.0]))
        m = BiorthogonalManifold(2)
        t = m.project(p, AmbientPair(np.diag([10.0, 0.0]), np.zeros((2, 2))))
        self.assert_matches_the_curve(m, p, t, (0.0, 0.05, 0.2))

    def test_velocity_is_tangent_at_the_trial_point(self, residual_checks):
        n = 6
        m = BiorthogonalManifold(n)
        p = seeded_point(390, n)
        t = random_tangent(391, p, 1.0)
        q = m.retract(p, 0.7 * t)
        del residual_checks[:]
        v = m.ray_velocity(p, t)(q)
        assert residual_checks == []
        assert fro_norm(q.x @ v.psi + v.phi @ q.y) <= 1e-12 * v.norm()

    def test_flat_manifold(self):
        m = EuclideanManifold(4)
        p = flat_point(392, 4, 0.5)
        t = flat_tangent(393, 4, 1.0)
        self.assert_matches_the_curve(m, p, t, (0.0, 0.3, 1.5))
        assert m.ray_velocity(p, t)(m.retract(p, 0.3 * t)) is t

    def test_foreign_base_rejected(self):
        p = seeded_point(394, 4)
        t = random_tangent(395, seeded_point(396, 4), 1.0)
        with pytest.raises(InvalidTangentError):
            BiorthogonalManifold(4).ray_velocity(p, t)


class TestRayAcceleration:
    """ray_acceleration(p, t) is c''(0) of c(s) = retract(p, s t); the curvature suite checks its values."""

    def test_velocity_and_acceleration_share_one_generator(self):
        # W = y0 @ u is one n x n product, formed once per tangent.
        n = 5
        m = BiorthogonalManifold(n)
        p = seeded_point(397, n)
        t = random_tangent(398, p, 1.0)
        m.ray_velocity(p, t)
        w = t.generator()
        assert not w.flags.writeable
        assert np.array_equal(w, p.y @ t.u)
        a = m.ray_acceleration(p, t)
        assert t.generator() is w
        assert np.allclose(a.phi, p.x @ w @ w) and np.allclose(a.psi, w @ w @ p.y)

    def test_flat_ray_is_straight(self):
        m = EuclideanManifold(4)
        p = flat_point(399, 4, 0.5)
        assert m.ray_acceleration(p, flat_tangent(400, 4, 1.0)) is None

    def test_foreign_base_rejected(self):
        p = seeded_point(401, 4)
        t = random_tangent(402, seeded_point(403, 4), 1.0)
        with pytest.raises(InvalidTangentError):
            BiorthogonalManifold(4).ray_acceleration(p, t)


class TestMetric:
    def test_positive_definite(self):
        p = seeded_point(190, 5)
        t = random_tangent(191, p, 2.0)
        z = TangentPair(np.zeros((5, 5)), np.zeros((5, 5)), p)
        assert t.inner(t) > 0
        assert z.inner(z) == 0.0

    def test_identity_base_doubles_single_leg(self):
        n = 4
        p = identity_point(n)
        u = make_rng(192).standard_normal((n, n))
        t = TangentPair(u, -u, p)
        assert t.inner(t) == pytest.approx(2.0 * float(np.vdot(u, u)), rel=1e-14)

    def test_matches_elementwise_sum(self):
        p = seeded_point(193, 5)
        t1 = random_tangent(194, p, 1.0)
        t2 = random_tangent(195, p, 3.0)
        expected = float(np.sum(t1.u * t2.u) + np.sum(t1.v * t2.v))
        assert t1.inner(t2) == pytest.approx(expected, rel=1e-14)
        assert t1.inner(t2) == AmbientPair(t1.u, t1.v).inner(AmbientPair(t2.u, t2.v))

    def test_one_base_point_check(self):
        # Every operation that takes a tangent at a given point rejects a
        # tangent based elsewhere, or an ambient pair, with the same error, and
        # a tangent of another size with the size error of every operand.
        # "Based at p" is `base is p`: a tangent at an equal copy of p is
        # based elsewhere, and project_tangent carries it over.
        m = BiorthogonalManifold(4)
        p = seeded_point(200, 4)
        t = random_tangent(201, seeded_point(202, 4), 1.0)
        s = random_tangent(203, p, 1.0)
        a = AmbientPair(np.eye(4), np.eye(4))
        r = random_tangent(204, seeded_point(205, 5), 1.0)
        c = random_tangent(206, BiorthPoint(p.x, p.y), 1.0)
        for other in (t, a, c):
            for call in (lambda: retract(p, other), lambda: m.ray_velocity(p, other),
                         lambda: m.ray_acceleration(p, other), lambda: s + other,
                         lambda: s - other):
                with pytest.raises(InvalidTangentError,
                                   match="^expected a TangentPair based at the given point$"):
                    call()
        for call in (lambda: retract(p, r), lambda: m.ray_velocity(p, r),
                     lambda: m.ray_acceleration(p, r), lambda: s + r, lambda: s - r):
            with pytest.raises(DimensionError, match="^tangent has n=5, expected n=4$"):
                call()
        for call in (lambda: retract(p, np.eye(4)), lambda: m.ray_velocity(p, 3),
                     lambda: m.ray_acceleration(p, None), lambda: s + 3, lambda: s - None):
            with pytest.raises(TypeError, match="^tangent must be of type AmbientPair, got "
                                                r"(ndarray|int|NoneType)$"):
                call()

    def test_a_value_in_place_of_the_point_is_a_type_error(self):
        # Every ray operation checks its point, not only its tangent.
        m = BiorthogonalManifold(4)
        s = random_tangent(207, seeded_point(208, 4), 1.0)
        for bad in (np.eye(4), None, 3):
            for call in (lambda: retract(bad, s), lambda: m.ray_velocity(bad, s),
                         lambda: m.ray_acceleration(bad, s)):
                with pytest.raises(TypeError, match="^point must be of type BiorthPoint, got "
                                                    r"(ndarray|NoneType|int)$"):
                    call()
        flat = EuclideanManifold(4)
        a = AmbientPair(np.eye(4), np.eye(4))
        with pytest.raises(TypeError, match="^point must be of type EuclideanPoint, got ndarray$"):
            flat.retract(np.eye(4), a)
        # A point of another size is a size error on both manifolds, before its tangent is read.
        big = identity_point(5)
        for call in (lambda: m.project(big, s), lambda: m.retract(big, s),
                     lambda: m.ray_velocity(big, s), lambda: m.ray_acceleration(big, s),
                     lambda: flat.retract(EuclideanPoint(np.eye(5), np.eye(5)), a)):
            with pytest.raises(DimensionError, match="^point has n=5, expected n=4$"):
                call()


class TestInnerTransported:
    """t.inner(s) is t.inner(project(p, s)) for `t` at `p`, without the projection.

    `s` may be based anywhere. The projection is orthogonal in the ambient
    Frobenius metric, so it is self-adjoint and fixes `t`: <t, P(s)> =
    <P(t), s> = <t, s>. Conjugate gradient takes its overlap of successive
    gradients this way. Errors are measured against |t| |s|, the scale of
    the inner product.
    """

    def test_matches_the_metric_of_the_transport(self):
        n = 8
        m = BiorthogonalManifold(n)
        for scale in BASE_SCALES:
            for seed in range(5):
                p = seeded_point(300 + seed, n, scale)
                q = m.retract(p, random_tangent(310 + seed, p, 0.1))
                t = m.project(q, AmbientPair(*make_rng(320 + seed).standard_normal((2, n, n))))
                s = random_tangent(330 + seed, p, 2.0)
                expected = t.inner(m.project(q, s))
                assert abs(t.inner(s) - expected) <= 1e-12 * t.norm() * s.norm()
                # s is based at p, t at q: the tangent product reads the arrays alone.
                assert t.inner(s) == float(np.vdot(t.u, s.u)) + float(np.vdot(t.v, s.v))

    def test_drifted_base_point_gets_the_exact_product(self):
        # The drifted point of test_drifted_base_point_projects_to_a_tangent.
        # project_tangent is orthogonal there only up to the drift, so the
        # product through the projection is off by O(drift) |t| |s|. The product
        # without it equals <t, P(s)> for the exact orthogonal projection P
        # onto the stored pair's tangent space, as the Kronecker oracle gives it.
        p = BiorthPoint(np.eye(2), np.diag([1.0 + 1.8e-9, 1.0]))
        m = BiorthogonalManifold(2)
        t = m.project(p, AmbientPair(np.diag([10.0, 0.0]), np.zeros((2, 2))))
        for seed in range(5):
            s = random_tangent(340 + seed, seeded_point(350 + seed, 2, 0.5), 1.0)
            got = t.inner(s)
            u_ref, v_ref = min_norm_tangent_oracle(p, s)
            exact = float(np.vdot(t.u, u_ref)) + float(np.vdot(t.v, v_ref))
            scale = t.norm() * s.norm()
            assert abs(got - exact) <= 1e-12 * scale
            through_projection = t.inner(m.project(p, s))
            assert abs(got - through_projection) <= p.feasibility_error() * scale

    def test_flat_manifold(self):
        m = EuclideanManifold(5)
        p = m.identity()
        t = flat_tangent(360, 5, 1.0)
        s = flat_tangent(361, 5, 2.0)
        assert t.inner(s) == t.inner(m.project(p, s))


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

    def test_generator_is_drawn_from_as_given(self):
        rng = make_rng(202)
        assert make_rng(rng) is rng
        p = random_point(rng, 4, 0.3)
        assert np.array_equal(p.x, random_point(202, 4, 0.3).x)
        t = random_tangent(rng, p, 1.0)
        again = make_rng(202)
        random_point(again, 4, 0.3)
        assert np.array_equal(t.u, random_tangent(again, p, 1.0).u)
        assert not np.array_equal(t.u, random_tangent(202, p, 1.0).u)

    def test_feasibility_by_construction(self):
        p = random_point(1, 10, 0.5)
        assert p.feasibility_error() <= 1e-12


class TestMakeRng:
    @pytest.mark.parametrize("seed", [2.7, np.float64(5.0), "5", None])
    def test_seed_must_be_an_integer_or_a_generator(self, seed):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            make_rng(seed)

    def test_seeds_of_any_integer_type_give_one_stream(self):
        draw = make_rng(5).standard_normal(3)
        for seed in (np.int64(5), np.uint32(5)):
            assert np.array_equal(make_rng(seed).standard_normal(3), draw)


class TestRandomTangent:
    def test_zero_scale(self):
        p = seeded_point(210, 5)
        t = random_tangent(211, p, 0.0)
        assert t.norm() == 0.0

    @pytest.mark.parametrize("draw", [
        lambda rng, scale: random_point(rng, 4, scale),
        lambda rng, scale: random_tangent(rng, seeded_point(214, 4), scale),
    ], ids=["random_point", "random_tangent"])
    def test_zero_scale_draws_from_a_shared_generator_as_any_scale(self, draw):
        zero, other = make_rng(215), make_rng(215)
        draw(zero, 0.0)
        draw(other, 0.3)
        assert zero.bit_generator.state == other.bit_generator.state
        assert zero.standard_normal() == other.standard_normal()

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
        p = random_point(1, 6, 0.4)
        a = AmbientPair(*make_rng(2).standard_normal((2, 6, 6)))
        t = m.project(p, a)
        q = m.retract(p, t * 0.01)
        assert q.feasibility_error() <= default_feas_tol(6)
        assert t.inner(t) == pytest.approx(t.norm() ** 2, rel=1e-12)

    def test_check_point_returns_a_biorth_point_as_is(self):
        m = BiorthogonalManifold(4)
        p = random_point(5, 4, 0.4)
        assert m.check_point(p) is p

    def test_retract_at_zero_is_identity_map(self):
        m = BiorthogonalManifold(5)
        p = random_point(3, 5, 0.4)
        q = m.retract(p, TangentPair(np.zeros((5, 5)), np.zeros((5, 5)), p))
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
        assert a.inner(a) == pytest.approx(a.norm() ** 2, rel=1e-14)

    @pytest.mark.parametrize("manifold", [BiorthogonalManifold(3), EuclideanManifold(3)],
                             ids=["biorth", "flat"])
    def test_check_point_rejects_a_value_that_is_not_a_point(self, manifold):
        for value in (np.eye(3), AmbientPair(np.eye(3), np.eye(3)), None):
            with pytest.raises(TypeError, match="^point must be of type EuclideanPoint, got "):
                manifold.check_point(value)

    def test_flat_operands_follow_the_rule_of_project_tangent(self):
        # Both manifolds raise the same type, with the same message, for the same misuse.
        for m in (BiorthogonalManifold(3), EuclideanManifold(3)):
            p = m.identity()
            for op, what in ((m.project, "ambient pair"), (m.retract, "tangent")):
                with pytest.raises(TypeError, match=f"^{what} must be of type AmbientPair, "
                                                    "got ndarray$"):
                    op(p, np.eye(3))
                with pytest.raises(DimensionError, match=f"^{what} has n=4, expected n=3$"):
                    op(p, AmbientPair(np.eye(4), np.eye(4)))

    def test_euclidean_feasibility_is_diagnostic(self):
        m = EuclideanManifold(3)
        p = m.retract(m.identity(), AmbientPair(np.eye(3), np.zeros((3, 3))))
        # x = 2I, y = I: the reported violation is |2I - I| = sqrt(3)
        assert p.feasibility_error() == pytest.approx(np.sqrt(3.0), rel=1e-12)

    @pytest.mark.parametrize("n", [2.5, np.float64(3.0), "3", None, 0, -1, np.int64(0)],
                             ids=["2.5", "float64", "str", "None", "0", "-1", "int64-0"])
    def test_size_must_be_an_integer_of_at_least_one(self, n):
        for build in (BiorthogonalManifold, EuclideanManifold, lambda n: random_point(1, n, 0.3)):
            with pytest.raises(DimensionError, match=r"^n must be an integer >= 1, got "):
                build(n)

    def test_members_are_the_solver_interface_and_identity(self):
        members = {"n", "check_point", "identity", "project", "retract",
                   "ray_velocity", "ray_acceleration"}
        for m in (BiorthogonalManifold(3), EuclideanManifold(3)):
            assert {name for name in dir(m) if not name.startswith("_")} == members

    def test_a_biorth_point_is_a_flat_point(self):
        assert issubclass(BiorthPoint, EuclideanPoint)
        assert "n" not in BiorthPoint.__dict__ and "__repr__" not in BiorthPoint.__dict__
        p = random_point(5, 3, 0.4)
        assert repr(p) == f"BiorthPoint(n=3, feas_err={p.feasibility_error():.2e})"
        assert repr(EuclideanPoint(2.0 * np.eye(3), np.eye(3))) == \
            "EuclideanPoint(n=3, feas_err=1.73e+00)"

    def test_overflowing_flat_point_reports_an_infinite_error_without_warning(self):
        p = EuclideanPoint(np.full((2, 2), 1e200), np.full((2, 2), 1e200))
        assert p.feasibility_error() == math.inf
        assert repr(p) == "EuclideanPoint(n=2, feas_err=inf)"

    def test_integer_sizes_of_any_integer_type_are_python_ints(self):
        for m in (BiorthogonalManifold(np.int64(3)), EuclideanManifold(np.int32(3))):
            assert type(m.n) is int
        assert random_point(1, np.int64(3), 0.3).n == 3


class TestTangentArithmeticBound:
    """Tangent arithmetic measures no residual: it stays tangent by linearity."""

    def test_stored_measurements_match_a_fresh_one(self):
        p = seeded_point(250, 6)
        assert p.feasibility_error() == fro_norm(p.x @ p.y - np.eye(6))

    def test_small_residual_arithmetic_runs_no_matmul_check(self, residual_checks):
        p = seeded_point(252, 6)
        a = random_tangent(253, p, 1.0)
        b = random_tangent(254, p, 2.0)
        del residual_checks[:]
        c = -(a + 3.0 * b) - 0.5 * a
        for _ in range(10):
            c = c + a * 0.1
        assert residual_checks == []
        assert fro_norm(p.x @ c.v + c.u @ p.y) <= default_tan_tol(6)
        with pytest.raises(ValueError):
            c.u[0, 0] = 1.0

    def test_non_finite_arithmetic_raises(self, residual_checks):
        # Arithmetic measures no residual and scans no array, so the scalar
        # factor is the one value it checks. Overflow of a product with a
        # finite scalar is not checked.
        p = identity_point(3)
        u = 4.0 * np.eye(3)
        t = TangentPair(u, -u, p)
        a = AmbientPair(u, -u)
        del residual_checks[:]
        for value in (t, a):
            for s in (np.nan, np.inf, -np.inf):
                with pytest.raises(NumericalError, match="not finite"):
                    value * s
                with pytest.raises(NumericalError, match="not finite"):
                    s * value
        assert residual_checks == []


@pytest.fixture
def matrix_scans(monkeypatch):
    """Count the as_matrix finiteness scans, also through a name imported into manifold."""
    calls = []
    scan = biorth.linalg.as_matrix

    def counted(a, name="matrix"):
        calls.append(name)
        return scan(a, name)

    for module in (biorth.linalg, biorth.manifold):
        if hasattr(module, "as_matrix"):
            monkeypatch.setattr(module, "as_matrix", counted)
    return calls


class TestTangentIsAnAmbientPair:
    """A tangent is an ambient pair with a base point: one arithmetic, one inner product."""

    def test_legs_are_the_ambient_slots(self):
        t = random_tangent(270, seeded_point(271, 4), 1.0)
        assert isinstance(t, AmbientPair)
        assert t.u is t.phi and t.v is t.psi
        assert t.n == 4
        with pytest.raises(AttributeError):
            t.u = np.eye(4)

    def test_arithmetic_keeps_the_base(self):
        p = seeded_point(272, 4)
        t = random_tangent(273, p, 1.0)
        for r in (-t, 2.0 * t, t * 2.0, t + t, t - t):
            assert type(r) is TangentPair and r.base is p
            assert r._w is None
            assert r.u is r.phi and not r.u.flags.writeable
        assert np.array_equal((t + t).u, 2.0 * t.u)
        assert t._w is None
        w = t.generator()
        assert t._w is w
        # A cached generator is not carried either: a trial step scales W
        # in retract(p, t, s).
        for r in (-t, 2.0 * t, t * 2.0, t + t, t - t):
            assert r._w is None

    def test_ambient_plus_tangent_is_ambient(self):
        p = seeded_point(274, 4)
        t = random_tangent(275, p, 1.0)
        a = AmbientPair(*make_rng(276).standard_normal((2, 4, 4)))
        for r in (a + t, a - t):
            assert type(r) is AmbientPair
        assert np.array_equal((a + t).phi, a.phi + t.u)
        assert np.array_equal((a - t).psi, a.psi - t.v)

    def test_ambient_operand_of_another_size_or_kind_is_a_typed_error(self):
        a = AmbientPair(np.eye(3), np.eye(3))
        b = AmbientPair(np.eye(4), np.eye(4))
        r = random_tangent(277, seeded_point(278, 4), 1.0)
        # `inner` pairs tangents at any bases, so a tangent's runs the ambient check too.
        t = random_tangent(282, seeded_point(283, 3), 1.0)
        for call in (lambda: a + b, lambda: a - b, lambda: a + r, lambda: a - r,
                     lambda: a.inner(b), lambda: a.inner(r), lambda: t.inner(b),
                     lambda: t.inner(r)):
            with pytest.raises(DimensionError, match="^operand has n=4, expected n=3$"):
                call()
        for operand in (3, np.eye(3), None):
            for call in (lambda: a + operand, lambda: a - operand, lambda: a.inner(operand),
                         lambda: t.inner(operand)):
                with pytest.raises(TypeError, match="^operand must be of type AmbientPair, got "
                                                    r"(int|ndarray|NoneType)$"):
                    call()

    def test_repr_names_the_kind_size_and_norm(self):
        a = AmbientPair(np.eye(3), np.zeros((3, 3)))
        assert repr(a) == "AmbientPair(n=3, norm=1.73e+00)"
        t = random_tangent(287, seeded_point(288, 4), 2.0)
        assert repr(t) == f"TangentPair(n=4, norm={t.norm():.2e})"

    def test_projection_takes_a_tangent(self):
        p = seeded_point(279, 5)
        t = random_tangent(280, seeded_point(281, 5), 1.0)
        got = project_tangent(p, t)
        expected = project_tangent(p, AmbientPair(t.u, t.v))
        assert got.base is p
        assert np.array_equal(got.u, expected.u) and np.array_equal(got.v, expected.v)


class TestPackageBuiltValues:
    """Values the package computes are frozen in place without a scan."""

    def test_arithmetic_runs_no_scan(self, matrix_scans):
        p = seeded_point(260, 5)
        a = random_tangent(261, p, 1.0)
        b = random_tangent(262, p, 2.0)
        g = AmbientPair(*make_rng(263).standard_normal((2, 5, 5)))
        del matrix_scans[:]
        c = -(a + 3.0 * b) - a * 0.5
        h = 2.0 * (-(g + g) - g * 0.5)
        amb = g + c
        assert matrix_scans == []
        for value, arrays in ((c, (c.u, c.v)), (h, (h.phi, h.psi)), (amb, (amb.phi, amb.psi))):
            for arr in arrays:
                assert not arr.flags.writeable
            with pytest.raises(AttributeError, match="immutable"):
                value.extra = 1

    def test_projection_and_flat_retraction_run_no_scan(self, matrix_scans):
        p = seeded_point(266, 5)
        p.projector()
        a = AmbientPair(*make_rng(267).standard_normal((2, 5, 5)))
        flat = EuclideanManifold(5)
        q = flat.identity()
        del matrix_scans[:]
        t = project_tangent(p, a)
        r = flat.retract(q, a)
        assert matrix_scans == []
        assert not t.u.flags.writeable and not r.x.flags.writeable
        assert isinstance(r, EuclideanPoint)

    def test_constructors_still_copy_and_check_caller_data(self):
        u = np.eye(3)
        a = AmbientPair(u, u)
        assert a.phi is not u and u.flags.writeable
        with pytest.raises(NumericalError):
            AmbientPair(np.full((3, 3), np.inf), u)
        with pytest.raises(NumericalError):
            EuclideanPoint(u, np.full((3, 3), np.nan))


def _point_operand_cases():
    """(operation, operand name, call taking the value put in the point's place)."""
    p, a = identity_point(3), AmbientPair(np.eye(3), np.eye(3))
    t = random_tangent(1, p, 1.0)
    m, flat = BiorthogonalManifold(3), EuclideanManifold(3)
    return [
        ("project_tangent", "point", lambda bad: project_tangent(bad, a)),
        ("retract", "point", lambda bad: retract(bad, t)),
        ("ray_velocity", "point", lambda bad: ray_velocity(bad, t)),
        ("ray_acceleration", "point", lambda bad: ray_acceleration(bad, t)),
        ("pair_product", "point", lambda bad: pair_product(bad, p)),
        ("pair_product", "point", lambda bad: pair_product(p, bad)),
        ("pair_inverse", "point", pair_inverse),
        ("random_tangent", "point", lambda bad: random_tangent(1, bad, 1.0)),
        ("TangentPair.__init__", "base", lambda bad: TangentPair(t.u, t.v, bad)),
        ("BiorthogonalManifold.check_point", "point", m.check_point),
        ("BiorthogonalManifold.project", "point", lambda bad: m.project(bad, a)),
        ("BiorthogonalManifold.retract", "point", lambda bad: m.retract(bad, t)),
        ("BiorthogonalManifold.ray_velocity", "point", lambda bad: m.ray_velocity(bad, t)),
        ("BiorthogonalManifold.ray_acceleration", "point",
         lambda bad: m.ray_acceleration(bad, t)),
        ("EuclideanManifold.check_point", "point", flat.check_point),
        ("EuclideanManifold.retract", "point", lambda bad: flat.retract(bad, a)),
    ]


POINT_OPERAND_CASES = _point_operand_cases()

# The flat projection is the identity and the flat ray is a straight line:
# these members use their tangent alone and never read the point.
READS_NO_POINT = {"EuclideanManifold.project", "EuclideanManifold.ray_velocity",
                  "EuclideanManifold.ray_acceleration"}


class TestPointOperandRule:
    """Every public operation of the manifold module that reads a point checks its kind."""

    @pytest.mark.parametrize("name, what, call", POINT_OPERAND_CASES,
                             ids=[name for name, _, _ in POINT_OPERAND_CASES])
    def test_an_array_in_place_of_a_point_is_a_type_error(self, name, what, call):
        with pytest.raises(TypeError, match=rf"^{what} must be of type \w+Point, got ndarray$"):
            call(np.eye(3))

    def test_every_operation_taking_a_point_is_a_case(self):
        # An operation has a point operand if a parameter is named `p` or
        # `base` or is annotated as a point; a new one must join the cases.
        readers = set()
        for name, obj in vars(biorth.manifold).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != "biorth.manifold":
                continue
            if inspect.isfunction(obj):
                members = [(name, obj)]
            else:
                members = [(f"{name}.{attr}", f) for attr, f in vars(obj).items()
                           if inspect.isfunction(f) and (attr == "__init__"
                                                         or not attr.startswith("_"))]
            for qualname, f in members:
                if any(q.name in ("p", "base") or "Point" in str(q.annotation)
                       for q in inspect.signature(f).parameters.values()):
                    readers.add(qualname)
        assert readers == {name for name, _, _ in POINT_OPERAND_CASES} | READS_NO_POINT
