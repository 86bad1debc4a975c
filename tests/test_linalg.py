import math
import threading
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

import biorth.linalg
from biorth.errors import DimensionError, NumericalError
from biorth.linalg import as_matrix, fro_norm, mat_exp, require_same_shape, svd
from biorth.rng import make_rng


class TestAsMatrix:
    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            as_matrix(np.zeros(3))
        with pytest.raises(DimensionError):
            as_matrix(np.zeros((2, 2, 2)))

    def test_rejects_an_empty_dimension(self):
        with pytest.raises(DimensionError, match=r"positive dimensions, got \(0, 3\)"):
            as_matrix(np.zeros((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(NumericalError):
            as_matrix(np.array([[1.0, np.nan]]))
        with pytest.raises(NumericalError):
            as_matrix(np.array([[np.inf], [0.0]]))

    def test_converts_to_float64(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(3))
        assert np.allclose(res.s, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        res = svd(np.diag([3.0, 1.0]))
        assert np.allclose(res.s, [3.0, 1.0])
        # factors of a diagonal matrix are signed permutations
        assert np.allclose(np.abs(res.u) @ np.abs(res.u).T, np.eye(2), atol=1e-12)

    def test_seeded_reconstruction(self):
        m = make_rng(42).standard_normal((5, 5))
        res = svd(m)
        assert fro_norm((res.u * res.s) @ res.v.T - m) <= 5e-12 * fro_norm(m)

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            svd(np.zeros((2, 3)))

    def test_invariants_on_seeded_matrices(self):
        # orthogonality, reconstruction, ordering over a spread of sizes
        count = 0
        for n in range(2, 51, 4):
            for trial in range(8):
                rng = make_rng(1000 * n + trial)
                m = rng.standard_normal((n, n)) * float(rng.uniform(0.1, 10.0))
                res = svd(m)
                eye = np.eye(n)
                assert fro_norm(res.u.T @ res.u - eye) <= n * 1e-12
                assert fro_norm(res.v.T @ res.v - eye) <= n * 1e-12
                recon_tol = n * 1e-12 * max(1.0, fro_norm(m))
                assert fro_norm((res.u * res.s) @ res.v.T - m) <= recon_tol
                assert np.all(res.s >= 0)
                assert np.all(np.diff(res.s) <= 0)
                count += 1
        assert count >= 100

    @staticmethod
    def conditioned(seed, n, kappa):
        """Q1 diag(s) Q2^T with singular values log-spaced from 1 down to 1/kappa."""
        rng = make_rng(seed)
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (q1 * np.geomspace(1.0, 1.0 / kappa, n)) @ q2.T

    @pytest.mark.parametrize("n", [20, 100])
    @pytest.mark.parametrize("kappa", [10.0, 1e2, 1e3, 9.9e3])
    def test_gram_route_below_the_limit(self, n, kappa, monkeypatch):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK's SVD ran below the Gram limit")

        m = self.conditioned(1100 + n, n, kappa)
        monkeypatch.setattr(np.linalg, "svd", no_lapack)
        res = svd(m)
        eps = np.finfo(np.float64).eps
        eye = np.eye(n)
        # measured: at most 0.031 n eps kappa |m|_F over these cases
        assert fro_norm((res.u * res.s) @ res.v.T - m) <= 0.1 * n * eps * kappa * fro_norm(m)
        assert fro_norm(res.u.T @ res.u - eye) <= n * 2e-15
        assert fro_norm(res.v.T @ res.v - eye) <= n * 2e-15
        assert np.all(np.diff(res.s) <= 0)
        for a in (res.u, res.s, res.v):
            assert a.flags.c_contiguous

    @pytest.mark.parametrize(
        "case", ["kappa-1e5", "rank-deficient", "zero", "overflow", "underflow", "subnormal"]
    )
    def test_lapack_route_is_bit_identical(self, case):
        # pytest turns a RuntimeWarning, such as one from the Gram's
        # overflow or underflow, into an error.
        n = 12
        m = {
            "kappa-1e5": lambda: self.conditioned(1200, n, 1e5),
            "rank-deficient": lambda: np.outer(*make_rng(1201).standard_normal((2, n))),
            "zero": lambda: np.zeros((n, n)),
            "overflow": lambda: 1e160 * make_rng(1202).standard_normal((n, n)),
            "underflow": lambda: 1e-170 * make_rng(1203).standard_normal((n, n)),
            # a Gram of subnormal entries, whose eigenvalues have lost bits
            "subnormal": lambda: 1e-158 * make_rng(1204).standard_normal((n, n)),
        }[case]()
        res = svd(m)
        u, s, vh = np.linalg.svd(m)
        assert np.array_equal(res.u, u) and np.array_equal(res.s, s)
        assert np.array_equal(res.v, vh.T)

    def test_eigh_failure_raises_numerical_error(self, monkeypatch):
        def fails(g):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fails)
        with pytest.raises(NumericalError, match="did not converge"):
            svd(np.eye(3) + 0.1 * make_rng(1205).standard_normal((3, 3)))


def reference_exp(g):
    """e^g from mpmath at 30 significant digits, rounded to float64."""
    with mpmath.workdps(30):
        return np.array(mpmath.expm(mpmath.matrix(g.tolist())).tolist(), dtype=np.float64)


@pytest.fixture
def degrees_used(monkeypatch):
    """The Taylor degrees that mat_exp evaluates while the test runs, in call order."""
    used = []

    class Recording(dict):
        def __getitem__(self, degree):
            used.append(degree)
            return super().__getitem__(degree)

    monkeypatch.setattr(biorth.linalg, "_CHUNKS", Recording(biorth.linalg._CHUNKS))
    return used


class TestMatExp:
    # 1-norms on both sides of each degree's theta. A diagonal matrix has
    # alpha = |A|_1, so from 0.35 on its degree follows the norm: 13, 17, 21,
    # then 21 after one and two squarings. A Gaussian one has alpha below
    # its norm, so it takes lower degrees and fewer squarings.
    NORMS = (1e-8, 1e-5, 1e-3, 2e-2, 8e-2, 0.35, 0.9, 1.5, 3.0, 6.0)

    @staticmethod
    def sweep(sizes):
        for n in sizes:
            gauss = make_rng(600 + n).standard_normal((n, n))
            diag = np.diag(np.linspace(1.0, -0.5, n))
            for base in (gauss, diag):
                base = base / np.abs(base).sum(axis=0).max()
                for norm in TestMatExp.NORMS:
                    yield norm * base

    def test_both_legs_match_a_30_digit_reference(self, degrees_used):
        for g in self.sweep((1, 2, 5, 8)):
            for leg, ref in zip(mat_exp(g), (reference_exp(g), reference_exp(-g))):
                assert fro_norm(leg - ref) <= 1e-14 * fro_norm(ref)
        assert set(degrees_used) == {row[0] for row in biorth.linalg._TAYLOR}

    def test_second_leg_inverts_the_first_at_every_degree_and_scaling(self, degrees_used):
        # Up to |G|_1 = 96 the diagonal inputs take six squarings.
        for g in self.sweep((3, 8, 30)):
            for scaled in (g, 16.0 * g):
                n = g.shape[0]
                e, f = mat_exp(scaled)
                err = fro_norm(e @ f - np.eye(n))
                assert err <= 1e-15 * fro_norm(e) * fro_norm(f)
        assert set(degrees_used) == {row[0] for row in biorth.linalg._TAYLOR}

    def test_alpha_takes_squarings_off(self):
        # A = [[1, c], [0, -1]] has A^2 = I, so |A|_1 = 1 + c asks for 10
        # squarings and alpha = (1 + c)^(1/5) for two; e^A = [[e, c sinh 1],
        # [0, 1/e]] and e^-A is the same with -c and e and 1/e swapped.
        c = 1e3
        e, f = mat_exp(np.array([[1.0, c], [0.0, -1.0]]))
        expected = ([[math.e, c * math.sinh(1.0)], [0.0, 1.0 / math.e]],
                    [[1.0 / math.e, -c * math.sinh(1.0)], [0.0, math.e]])
        for leg, want in zip((e, f), expected):
            assert np.allclose(leg, want, rtol=1e-14, atol=0.0)

    def test_zero_matrix(self):
        # Signed zeros included, e^0 is the identity bit for bit in both
        # legs: no -0.0 entry.
        signed = np.zeros((4, 4))
        signed[::2, 1::2] = -0.0
        for m in (np.zeros((4, 4)), -np.zeros((4, 4)), signed):
            for leg in mat_exp(m):
                assert leg.tobytes() == np.eye(4).tobytes()

    def test_nilpotent(self):
        # e^N = I + N exactly, also at a norm whose 20 squarings alpha = 0
        # takes off.
        for c in (1.0, 1e6):
            e, f = mat_exp(np.array([[0.0, c], [0.0, 0.0]]))
            assert np.allclose(e, [[1.0, c], [0.0, 1.0]], rtol=0.0, atol=1e-15)
            assert np.allclose(f, [[1.0, -c], [0.0, 1.0]], rtol=0.0, atol=1e-15)

    def test_diagonal(self):
        m = np.diag([math.log(2.0), math.log(3.0)])
        e, f = mat_exp(m)
        assert np.allclose(e, np.diag([2.0, 3.0]), rtol=1e-14)
        assert np.allclose(f, np.diag([1 / 2.0, 1 / 3.0]), rtol=1e-14)

    def test_commuting_product_rule(self):
        # a matrix commutes with its own polynomials
        for seed in range(10):
            rng = make_rng(seed)
            a = 0.5 * rng.standard_normal((6, 6))
            b = 0.3 * a @ a + 0.7 * a
            lhs = mat_exp(a + b)[0]
            rhs = mat_exp(a)[0] @ mat_exp(b)[0]
            assert fro_norm(lhs - rhs) <= 1e-10 * fro_norm(lhs)

    def test_inverse_identity(self):
        # Both the second leg and the first leg of mat_exp(-g) invert e^g.
        for seed in range(10):
            rng = make_rng(100 + seed)
            n = int(rng.integers(2, 30))
            g = rng.standard_normal((n, n))
            nrm = fro_norm(g)
            if nrm > 10.0:
                g *= 10.0 / nrm
            e, f = mat_exp(g)
            e_inv = mat_exp(-g)[0]
            inv = np.linalg.inv(e)
            assert fro_norm(e_inv - inv) <= 1e-10 * fro_norm(e_inv)
            assert fro_norm(f - inv) <= 1e-10 * fro_norm(f)

    def test_overflow_reports_numerical_error(self):
        # e^2000 overflows; so does the 1-norm of the second input, whose
        # entries are finite. Neither is reported as a warning.
        for m in ([[2000.0]], [[1e308, 1e308], [1e308, 1e308]]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalError, match="^matrix exponential overflowed"):
                    mat_exp(np.array(m))

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            mat_exp(np.zeros((2, 3)))


def in_new_thread(fn, *args):
    """fn(*args) on a thread of its own."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn(*args)))
    worker.start()
    worker.join()
    return out[0]


def exp_bytes(g):
    e, f = mat_exp(g)
    return e.tobytes() + f.tobytes()


class TestExpWorkspace:
    """mat_exp keeps no workspace: each call allocates its own buffers and keeps none."""

    @staticmethod
    def inputs(n, seed=0):
        # Without squarings, with squarings cut by alpha, and with squarings.
        g = make_rng(700 + n + seed).standard_normal((n, n))
        g /= np.abs(g).sum(axis=0).max()
        diag = np.diag(np.linspace(1.0, -0.5, n))
        return [0.3 * g, 0.8 * g, 20.0 * g, 6.0 * diag, 40.0 * diag]

    def test_a_later_call_leaves_an_earlier_pair_unchanged(self):
        first, second = self.inputs(30)[2:4]
        e, f = mat_exp(first)
        kept = e.tobytes() + f.tobytes()
        mat_exp(second)
        assert e.tobytes() + f.tobytes() == kept

    def test_alternating_sizes_match_fresh_calls(self):
        for n in (5, 100, 5, 100, 5):
            for g in self.inputs(n):
                assert exp_bytes(g) == in_new_thread(exp_bytes, g)

    def test_concurrent_threads_match_serial_runs(self):
        work = [self.inputs(n, seed) for n, seed in ((40, 1), (40, 2), (7, 3))]

        def run(gs):
            return [exp_bytes(g) for _ in range(3) for g in gs]

        serial = [run(gs) for gs in work]
        barrier = threading.Barrier(len(work))
        results = [None] * len(work)

        def worker(i):
            barrier.wait()
            results[i] = run(work[i])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(work))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == serial

    @pytest.mark.parametrize("scale", [0.3, 6.0], ids=["no-squaring", "squarings"])
    def test_a_call_keeps_no_memory_once_its_pair_is_dropped(self, scale):
        # A workspace kept for the thread would hold 15 n^2 doubles; a size
        # no other test uses rules out any buffer kept for an earlier call.
        n = 61
        g = scale * np.diag(np.linspace(1.0, -0.5, n))

        def held():
            before = tracemalloc.get_traced_memory()[0]
            pair = mat_exp(g)
            del pair
            return tracemalloc.get_traced_memory()[0] - before

        tracemalloc.start()
        try:
            kept = in_new_thread(held)
        finally:
            tracemalloc.stop()
        assert kept < 8 * n * n


class TestFroInner:
    """The Frobenius inner product as the metrics compute it: np.vdot of two matrices."""

    def test_identity_pair(self):
        for n in (1, 3, 7):
            assert float(np.vdot(np.eye(n), np.eye(n))) == float(n)

    def test_zero(self):
        a = make_rng(0).standard_normal((4, 4))
        assert float(np.vdot(a, np.zeros((4, 4)))) == 0.0

    def test_matches_double_loop(self):
        rng = make_rng(3)
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        expected = sum(a[i, j] * b[i, j] for i in range(6) for j in range(6))
        assert abs(float(np.vdot(a, b)) - expected) <= 1e-14 * abs(expected)

    def test_symmetric_bilinear(self):
        rng = make_rng(4)
        a, b, c = (rng.standard_normal((5, 5)) for _ in range(3))
        assert float(np.vdot(a, b)) == pytest.approx(float(np.vdot(b, a)), rel=1e-15)
        lhs = float(np.vdot(a, 2.0 * b + c))
        rhs = 2.0 * float(np.vdot(a, b)) + float(np.vdot(a, c))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_cauchy_schwarz(self):
        for seed in range(20):
            rng = make_rng(200 + seed)
            a = rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4))
            lhs = abs(float(np.vdot(a, b)))
            rhs = fro_norm(a) * fro_norm(b)
            assert lhs <= rhs * (1.0 + 1e-12)

    def test_norm_consistency(self):
        a = make_rng(5).standard_normal((4, 4))
        assert fro_norm(a) == pytest.approx(math.sqrt(float(np.vdot(a, a))), rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            require_same_shape(np.zeros((2, 2)), np.zeros((3, 3)))

