import numpy as np
import pytest

from conftest import make_models, random_sym
from oqrisk.deviations import (
    DeviationAnalysis,
    closed_theta_star,
    cramer_bound_closed,
    envelope_log_integral,
    envelope_log_integral_closed,
    envelope_params,
)
from oqrisk.errors import EpsilonTooSmall, NotPsd, ThetaOutOfRange

PAPER_GAMMA = np.array([
    [1.4750, -0.4852, -1.4090, -0.2636],
    [-0.4852, 0.6271, 0.2354, 0.1475],
    [-1.4090, 0.2354, 1.6303, 0.3569],
    [-0.2636, 0.1475, 0.3569, 0.2676],
])


class TestNKernel:
    def test_zero_lag_threshold_constant(self, tiny_deviation):
        # N(0) = ||sqrt(Pi)(P + i Theta) sqrt(Pi)||
        assert tiny_deviation.n0 == pytest.approx(1.0, abs=1e-12)
        assert tiny_deviation.n_kernel(0.0) == pytest.approx(tiny_deviation.n0)

    def test_tiny_exponential(self, tiny_deviation):
        for tau in (-2.0, -0.5, 0.7, 3.0):
            assert tiny_deviation.n_kernel(tau) == pytest.approx(
                np.exp(-abs(tau)), rel=1e-12
            )

    def test_zero_weight(self, tiny):
        da = DeviationAnalysis(tiny, np.zeros((2, 2)))
        assert da.n_kernel(1.3) == 0.0

    def test_evenness(self, paper_deviation):
        for tau in (0.4, 1.9):
            assert paper_deviation.n_kernel(-tau) == pytest.approx(
                paper_deviation.n_kernel(tau), rel=1e-12
            )

    def test_envelope_dominates(self, paper_deviation):
        env = paper_deviation.envelope
        taus = np.linspace(0.0, 30.0 / env.mu, 200)
        for tau in taus:
            assert paper_deviation.n_kernel(tau) <= env.alpha * np.exp(
                -env.mu * tau
            ) * (1.0 + 1e-9)

    def test_indefinite_weight_rejected(self, tiny):
        with pytest.raises(NotPsd):
            DeviationAnalysis(tiny, np.diag([1.0, -1.0])).n_kernel(0.5)


class TestFTransform:
    def test_tiny_lorentzian(self, tiny_deviation):
        for lam in (0.0, 0.5, 1.0, 4.0):
            assert tiny_deviation.f_transform(lam) == pytest.approx(
                2.0 / (1.0 + lam * lam), abs=1e-8
            )

    def test_tiny_infnorm_matches_envelope_formula(self, tiny_deviation):
        # F(0) = 2 alpha / mu for an exactly exponential kernel
        env = tiny_deviation.envelope
        assert tiny_deviation.f_infnorm() == pytest.approx(
            2.0 * env.alpha / env.mu, rel=1e-8
        )

    def test_zero_weight(self, tiny):
        da = DeviationAnalysis(tiny, np.zeros((2, 2)))
        assert da.f_transform(0.7) == 0.0

    def test_peak_at_zero_sampled(self, paper_deviation):
        f0 = paper_deviation.f_infnorm()
        for lam in np.linspace(0.1, 40.0, 25):
            assert abs(paper_deviation.f_transform(lam)) <= f0 * (1.0 + 1e-9)


class TestQefUpperRate:
    def test_zero_theta(self, paper_deviation):
        assert paper_deviation.qef_upper_rate(0.0) == 0.0

    def test_tiny_closed_value(self, tiny_deviation):
        assert tiny_deviation.qef_upper_rate(3.0 / 16.0) == pytest.approx(
            0.5, abs=1e-8
        )

    def test_tiny_boundary_limit(self, tiny_deviation):
        theta_max = 1.0 / (2.0 * tiny_deviation.f_infnorm())
        val = tiny_deviation.qef_upper_rate(theta_max * (1.0 - 1e-10))
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_range_guard(self, tiny_deviation):
        theta_max = 1.0 / (2.0 * tiny_deviation.f_infnorm())
        with pytest.raises(ThetaOutOfRange):
            tiny_deviation.qef_upper_rate(theta_max * 1.01)
        with pytest.raises(ThetaOutOfRange):
            tiny_deviation.qef_upper_rate(-0.1)

    def test_convex_increasing(self, tiny_deviation):
        theta_max = 1.0 / (2.0 * tiny_deviation.f_infnorm())
        grid = np.linspace(0.05, 0.85, 9) * theta_max
        vals = np.array([tiny_deviation.qef_upper_rate(t) for t in grid])
        assert np.all(np.diff(vals) > 0)
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-8)


class TestCramerNumeric:
    def test_tiny_closed_case(self, tiny_deviation):
        bound, theta_star = tiny_deviation.cramer_bound_numeric(4.0)
        assert bound == pytest.approx(-0.25, abs=1e-6)
        assert theta_star == pytest.approx(3.0 / 16.0, abs=1e-6)

    def test_zero_slack_boundary(self, tiny_deviation):
        eps0 = tiny_deviation.model.n * tiny_deviation.n0
        bound, theta_star = tiny_deviation.cramer_bound_numeric(eps0)
        assert bound == 0.0
        assert theta_star == 0.0

    def test_epsilon_guard(self, tiny_deviation):
        with pytest.raises(EpsilonTooSmall):
            tiny_deviation.cramer_bound_numeric(1.0)

    def test_degenerate_weight_sentinel(self, tiny):
        da = DeviationAnalysis(tiny, np.zeros((2, 2)))
        bound, theta_star = da.cramer_bound_numeric(1.0)
        assert bound == -np.inf and theta_star == np.inf
        assert da.cramer_bound_numeric(0.0) == (0.0, 0.0)

    def test_never_above_closed_form(self, paper_deviation):
        # the true kernel sits below its envelope, so the optimized numeric
        # bound can only improve on the closed form
        env = paper_deviation.envelope
        n = paper_deviation.model.n
        for eps in np.array([1.01, 1.5, 2.5]) * n * env.alpha:
            numeric, _ = paper_deviation.cramer_bound_numeric(eps)
            closed = cramer_bound_closed(env.mu, env.alpha, n, eps)
            assert numeric <= closed + 1e-8

    def test_deriv_increases_toward_theta_max(self, paper_deviation):
        # the peak of 1 / (1 - 2 theta F) at lam = 0 narrows like
        # sqrt(1 - theta / theta_max); a rule that misses it reads a
        # derivative below its theta = 0 value n N(0)
        theta_max = 1.0 / (2.0 * paper_deviation.f_infnorm())
        derivs = [paper_deviation._deriv(theta_max * (1.0 - 10.0**-k)) for k in range(1, 10)]
        assert np.all(np.diff(derivs) > 0)
        assert derivs[0] > paper_deviation.model.n * paper_deviation.n0

    def test_bound_near_theta_max(self, paper_deviation):
        # eps = 1e6 puts theta* within 1e-6 of theta_max
        eps = 1e6
        n = paper_deviation.model.n
        env = paper_deviation.envelope
        bound, theta_star = paper_deviation.cramer_bound_numeric(eps)
        assert theta_star * (n * paper_deviation.n0 - eps) <= bound
        assert bound <= cramer_bound_closed(env.mu, env.alpha, n, eps) + 1e-8


class TestEnvelopeParams:
    def test_paper_values(self, paper_deviation):
        env = paper_deviation.envelope
        assert env.mu == pytest.approx(0.5532, abs=1e-3)
        assert env.alpha == pytest.approx(69.6784, rel=1e-2)
        assert np.abs(env.gamma - PAPER_GAMMA).max() < 5e-3 * np.abs(PAPER_GAMMA).max()

    def test_tiny_identity(self, tiny_deviation):
        env = tiny_deviation.envelope
        assert env.mu == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(env.gamma, np.eye(2), atol=1e-12)
        assert env.alpha == pytest.approx(1.0, abs=1e-10)

    def test_scalar_drift(self):
        from oqrisk.model import model_from_matrices

        c = 3.0
        # A = -cI arises from R = 0 with coupling sqrt(c/2) * I2 rotated:
        # easier to check through the generic constructor on TINY scaled
        model = model_from_matrices(
            0.5 * np.array([[0.0, 1.0], [-1.0, 0.0]]),
            np.zeros((2, 2)),
            np.sqrt(c) * np.eye(2),
        )
        assert np.allclose(model.a, -c * np.eye(2), atol=1e-12)
        env = envelope_params(model, np.eye(2))
        assert env.mu == pytest.approx(c, abs=1e-10)
        assert np.allclose(env.gamma, np.eye(2), atol=1e-10)

    def test_lyapunov_inequality_random(self):
        for model, rng in make_models(seed=83, count=10):
            env = envelope_params(model, random_sym(rng, model.n, psd=True))
            ali = model.a @ env.gamma + env.gamma @ model.a.T + 2 * env.mu * env.gamma
            assert np.linalg.eigvalsh(ali).max() <= 1e-8 * np.linalg.norm(env.gamma, 2)

    def test_alpha_reproducible(self, paper_deviation):
        from oqrisk.matfun import inv_sqrt_psd, opnorm2, sqrt_psd

        env = paper_deviation.envelope
        root_pi = sqrt_psd(paper_deviation.pi)
        alpha = opnorm2(root_pi @ sqrt_psd(env.gamma)) * opnorm2(
            inv_sqrt_psd(env.gamma) @ paper_deviation.quantum @ root_pi
        )
        assert env.alpha == pytest.approx(alpha, rel=1e-12)


class TestClosedBound:
    def test_zero_at_threshold(self):
        assert cramer_bound_closed(1.0, 1.0, 2, 2.0) == 0.0

    def test_tiny_arithmetic(self):
        assert cramer_bound_closed(1.0, 1.0, 2, 4.0) == pytest.approx(-0.25)
        assert closed_theta_star(1.0, 1.0, 2, 4.0) == pytest.approx(3.0 / 16.0)

    def test_epsilon_guard(self):
        with pytest.raises(EpsilonTooSmall):
            cramer_bound_closed(1.0, 1.0, 2, 1.9)

    def test_paper_curve_shape(self, paper_deviation):
        env = paper_deviation.envelope
        n = 4
        scale = n * env.alpha
        eps = np.linspace(scale, 5.0 * scale, 30)
        vals = np.array([cramer_bound_closed(env.mu, env.alpha, n, e) for e in eps])
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(vals[1:] < 0)
        assert np.all(np.diff(vals) < 0)  # decreasing past the zero


class TestBoundCurve:
    def test_tiny_three_points(self, tiny):
        curves = DeviationAnalysis(tiny, np.eye(2)).bound_curve([2.0, 3.0, 4.0])
        closed = next(c for c in curves if c.method == "closed_form")
        # (n mu / 4)(2 - n a/eps - eps/(n a)) at eps = 2, 3, 4 with n = 2,
        # mu = alpha = 1
        assert closed.bound == pytest.approx([0.0, -1.0 / 12.0, -0.25], abs=1e-12)
        numeric = next(c for c in curves if c.method == "numeric")
        assert numeric.bound[2] == pytest.approx(-0.25, abs=1e-6)

    def test_empty_grid(self, tiny):
        curves = DeviationAnalysis(tiny, np.eye(2)).bound_curve([])
        assert all(c.epsilon.size == 0 for c in curves)

    def test_paper_zero_at_threshold(self, paper_deviation):
        env = paper_deviation.envelope
        eps0 = 4.0 * env.alpha
        curves = paper_deviation.bound_curve([eps0])
        closed = next(c for c in curves if c.method == "closed_form")
        assert abs(closed.bound[0]) < 1e-6


class TestEnvelopeCrosscheck:
    def test_numeric_matches_closed_form(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            alpha = rng.uniform(0.2, 60.0)
            mu = rng.uniform(0.1, 4.0)
            theta = rng.uniform(0.05, 0.95) * 0.25 * mu / alpha
            num = envelope_log_integral(alpha, mu, theta)
            closed = envelope_log_integral_closed(alpha, mu, theta)
            assert num == pytest.approx(closed, rel=1e-6)
