import numpy as np
import pytest

from oqrisk.errors import (
    MissingTailBound,
    NotHurwitz,
    NotPsd,
)
from oqrisk.matfun import (
    QuadratureSpec,
    TailHint,
    eig_basis,
    expm,
    expm_ladder,
    integrate_line,
    integrate_realline,
    lyap_solve,
    opnorm2,
    sqrt_psd,
)

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def kron_lyap(a, q):
    """Reference oracle: the Lyapunov equation as a dense n^2 x n^2 system."""
    n = a.shape[0]
    kron = np.kron(np.eye(n), a) + np.kron(a, np.eye(n))
    return np.linalg.solve(kron, -q.flatten(order="F")).reshape((n, n), order="F")


def random_hurwitz(rng, n):
    a = rng.standard_normal((n, n))
    return a - (np.linalg.eigvals(a).real.max() + rng.uniform(0.2, 2.0)) * np.eye(n)


class TestExpm:
    def test_zero_time_is_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(expm(a, 0.0), np.eye(2))

    def test_diagonal(self):
        out = expm(-np.eye(2), 1.0)
        assert np.allclose(out, np.exp(-1.0) * np.eye(2), atol=1e-14)

    def test_rotation_quarter_turn(self):
        # e^{tau J2} = [[cos, sin], [-sin, cos]]
        out = expm(J2, np.pi / 2)
        assert np.abs(out - np.array([[0.0, 1.0], [-1.0, 0.0]])).max() < 1e-12

    def test_semigroup_on_random_stable(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.standard_normal((4, 4)) - 3.0 * np.eye(4)
            s, t = rng.uniform(0.1, 2.0, 2)
            lhs = expm(a, s + t)
            rhs = expm(a, s) @ expm(a, t)
            assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(lhs).max()

    def test_overflow_guard(self):
        from oqrisk.errors import Overflow

        with pytest.raises(Overflow):
            expm(np.diag([1000.0, -1.0]), 1.0)

    def test_expm_multi_matches_pointwise(self):
        # batched lag ladder against pointwise expm: a diagonalizable drift
        # (eigenvector route) and a Jordan block (stepping fallback)
        rng = np.random.default_rng(3)
        jordan = np.array([[-1.0, 1.0], [0.0, -1.0]])
        for a in (rng.standard_normal((3, 3)) - 2.0 * np.eye(3), jordan):
            basis = eig_basis(a)
            assert (basis.inverse is None) == (a is jordan)
            batch = expm_ladder(a, basis, 0.3, 7)
            assert batch.shape == (7, len(a), len(a)) and not np.iscomplexobj(batch)
            for k in range(7):
                assert np.abs(batch[k] - expm(a, 0.3 * k)).max() < 1e-11

    def test_ladder_factors_and_chunks(self, monkeypatch):
        import oqrisk.matfun as matfun

        monkeypatch.setattr(matfun, "LADDER_CHUNK", 3)
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
        left = rng.standard_normal((2, 3))
        right = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sizes = []
        batch = expm_ladder(a, eig_basis(a), 0.2, 8, left=left, right=right,
                            reduce=lambda block: sizes.append(len(block)) or block)
        assert sizes == [3, 3, 2]
        for k in range(8):
            assert np.abs(batch[k] - left @ expm(a, 0.2 * k) @ right).max() < 1e-11


class TestLyap:
    def test_closed_form_diagonal(self):
        x = lyap_solve(-np.eye(2), 2.0 * np.eye(2))
        assert np.allclose(x, np.eye(2), atol=1e-13)

    def test_tiny_gramian(self):
        x = lyap_solve(-np.eye(2), J2 @ J2.T)
        assert np.allclose(x, 0.5 * np.eye(2), atol=1e-13)

    def test_residual_on_random_hurwitz(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            a = random_hurwitz(rng, n)
            q = rng.standard_normal((n, n))
            q = q @ q.T
            x = lyap_solve(a, q)
            res = np.linalg.norm(a @ x + x @ a.T + q)
            scale = np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q)
            assert res <= 1e-10 * scale

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(12)
        for n in (2, 4, 6, 8):
            for _ in range(20):
                a = random_hurwitz(rng, n)
                q = rng.standard_normal((n, n))
                x, ref = lyap_solve(a, q), kron_lyap(a, q)
                assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_residual_certified_at_n48(self):
        rng = np.random.default_rng(13)
        a = random_hurwitz(rng, 48)
        q = rng.standard_normal((48, 48))
        q = q @ q.T
        x = lyap_solve(a, q)
        res = np.linalg.norm(a @ x + x @ a.T + q)
        assert res <= 1e-10 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q))

    def test_symmetry_inherited(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
        q = rng.standard_normal((3, 3))
        qs = q + q.T
        x = lyap_solve(a, qs)
        assert np.abs(x - x.T).max() < 1e-12 * np.abs(x).max()

    def test_rejects_non_hurwitz(self):
        with pytest.raises(NotHurwitz):
            lyap_solve(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(NotHurwitz):
            lyap_solve(np.diag([-1.0, 1e-12]), np.eye(2))


class TestOpnorm:
    def test_rotation_norm_one(self):
        assert opnorm2(J2) == pytest.approx(1.0, abs=1e-12)

    def test_projector(self):
        k = 0.5 * (np.eye(2) + 1j * J2)  # Hermitian with eigenvalues {0, 1}
        assert opnorm2(k) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        assert opnorm2(np.zeros((3, 3))) == 0.0


class TestSqrtPsd:
    def test_identity(self):
        assert np.array_equal(sqrt_psd(np.eye(3)), np.eye(3))

    def test_scaled_identity(self):
        assert np.allclose(sqrt_psd(4.0 * np.eye(2)), 2.0 * np.eye(2))

    def test_round_trip_random(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            b = rng.standard_normal((n, n))
            k = b @ b.T
            root = sqrt_psd(k)
            assert np.abs(root @ root - k).max() <= 1e-10 * max(1.0, np.abs(k).max())

    def test_clips_rounding_band(self):
        k = np.diag([1.0, -1e-14])
        root = sqrt_psd(k)
        assert root[1, 1] == 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsd):
            sqrt_psd(np.diag([1.0, -0.5]))


class TestQuadrature:
    def test_unit_interval(self):
        assert integrate_line(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_truncated_exponential(self):
        val = integrate_line(np.exp, -40.0, 0.0)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_lorentzian_over_line(self):
        spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11,
                              tail_decay_hint=TailHint(c=1.0, rate=2.0))
        val = integrate_realline(lambda x: 1.0 / (1.0 + x * x), spec)
        assert val == pytest.approx(np.pi, abs=1e-10)

    def test_lorentzian_heuristic_tail(self):
        val = integrate_realline(lambda x: 2.0 / (1.0 + x * x))
        assert val == pytest.approx(2.0 * np.pi, abs=1e-9)

    def test_zero_integrand(self):
        assert integrate_realline(lambda x: 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_even_integrand_halves(self):
        spec = QuadratureSpec(tail_decay_hint=TailHint(c=2.0, rate=4.0))
        full = integrate_realline(lambda x: 1.0 / (1.0 + x**4), spec)
        half = integrate_line(lambda x: 1.0 / (1.0 + x**4), 0.0, 1e3)
        assert full == pytest.approx(2.0 * half, rel=1e-9)

    def test_slow_decay_rejected(self):
        with pytest.raises(MissingTailBound):
            integrate_realline(lambda x: 1.0 / (1.0 + abs(x)))

    def test_matrix_valued(self):
        out = integrate_line(lambda x: np.array([[np.cos(x), 0.0], [0.0, np.sin(x)]]),
                             0.0, np.pi / 2)
        assert np.allclose(out, np.eye(2), atol=1e-11)

