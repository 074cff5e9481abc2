import numpy as np
import pytest
from scipy.integrate import quad_vec

from conftest import make_models, random_sym
from oqrisk.errors import InvalidArgument, NotSymmetric, NumericalDefect, ThetaOutOfRange
from oqrisk.gaussian import gramian_steady
from oqrisk.matfun import expm
from oqrisk.model import WeightMatrix
from oqrisk.quartic import (
    mean_rate,
    quartic_rate,
    quartic_report,
    theta_threshold,
    variance_finite,
    variance_rate,
)

PAPER_T = np.array([
    [131.5431, -108.9564, -138.4442, -58.4033],
    [-108.9564, 138.7545, 60.4808, 21.2105],
    [-138.4442, 60.4808, 204.6153, 91.4998],
    [-58.4033, 21.2105, 91.4998, 41.2158],
])


class TestMeanRate:
    def test_paper_value(self, paper):
        assert mean_rate(*paper) == pytest.approx(74.9147, rel=2e-3)

    def test_tiny_identity_weight(self, tiny):
        assert mean_rate(tiny, np.eye(2)) == pytest.approx(1.0, abs=1e-13)

    def test_zero_weight(self, paper):
        assert mean_rate(paper[0], np.zeros((4, 4))) == 0.0

    def test_rejects_asymmetric(self, paper):
        with pytest.raises(NotSymmetric):
            mean_rate(paper[0], np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestVarianceFinite:
    def test_zero_horizon(self, paper):
        assert variance_finite(*paper, t=0.0) == 0.0

    def test_negative_time(self, paper):
        with pytest.raises(InvalidArgument):
            variance_finite(*paper, t=-1.0)

    def test_tiny_vacuum_eigenstate(self, tiny):
        # P Pi P + Theta Pi Theta = I/4 - I/4 = 0: the cost observable is
        # deterministic in the invariant state
        for t in (0.5, 2.0, 10.0):
            assert abs(variance_finite(tiny, np.eye(2), t)) < 1e-12

    def test_paper_t50_near_rate(self, paper):
        rate, _, _ = variance_rate(*paper)
        val = variance_finite(*paper, t=50.0)
        assert abs(val / 50.0 - rate) / rate < 0.02


class TestVarianceRate:
    def test_paper_values(self, paper):
        rate, t_mat, _ = variance_rate(*paper)
        assert rate == pytest.approx(8.9399e3, rel=2e-3)
        assert np.abs(t_mat - PAPER_T).max() < 5e-3 * np.abs(PAPER_T).max()

    def test_tiny_zero(self, tiny):
        rate, t_mat, _ = variance_rate(tiny, np.eye(2))
        assert abs(rate) < 1e-12
        assert np.abs(t_mat).max() < 1e-12

    def test_zero_weight(self, paper):
        rate, t_mat, q_mat = variance_rate(paper[0], np.zeros((4, 4)))
        assert rate == 0.0
        assert not np.any(t_mat)
        assert not np.any(q_mat)

    def test_duality_random(self):
        # certified inside variance_rate; 60 mixed-size draws here, the
        # full 200-model sweep lives in the acceptance suite
        for model, rng in make_models(seed=53, count=60):
            variance_rate(model, random_sym(rng, model.n))

    def test_matches_direct_quadrature(self, paper):
        model, pi = paper
        rate, _, _ = variance_rate(model, pi)
        p = gramian_steady(model).p
        seed = p @ pi @ p + model.theta @ pi @ model.theta
        horizon = 40.0 / -model.spectral_abscissa

        def integrand(tau):
            e = expm(model.a, tau)
            return 4.0 * np.sum(pi * (e @ seed @ e.T))

        direct, _ = quad_vec(integrand, 0.0, horizon, epsabs=1e-10, epsrel=1e-10, limit=2000)
        assert direct == pytest.approx(rate, rel=1e-6)

    def test_homogeneity(self, paper):
        model, pi = paper
        base, _, _ = variance_rate(model, pi)
        scaled, _, _ = variance_rate(model, 3.0 * pi)
        assert scaled == pytest.approx(9.0 * base, rel=1e-12, abs=0.0)
        assert mean_rate(model, 3.0 * pi) == pytest.approx(
            3.0 * mean_rate(model, pi), rel=1e-12, abs=0.0
        )

    def test_psd_weight_nonnegative(self):
        for model, rng in make_models(seed=59, count=20):
            pi = random_sym(rng, model.n, psd=True)
            rate, _, _ = variance_rate(model, pi)
            assert rate >= -1e-10 * max(1.0, abs(rate))


class TestThetaThreshold:
    def test_paper_value(self, paper):
        assert theta_threshold(*paper) == pytest.approx(0.0168, abs=5e-4)

    def test_tiny_infinite(self, tiny):
        assert theta_threshold(tiny, np.eye(2)) == np.inf

    def test_weight_scaling(self, paper):
        model, pi = paper
        assert theta_threshold(model, 2.0 * pi) == pytest.approx(
            0.5 * theta_threshold(model, pi), rel=1e-12, abs=0.0
        )


class TestQuarticRate:
    def test_zero_theta(self, paper):
        assert quartic_rate(*paper, theta=0.0) == 0.0

    def test_negative_theta(self, paper):
        with pytest.raises(ThetaOutOfRange):
            quartic_rate(*paper, theta=-0.1)

    def test_paper_composition(self, paper):
        # rate = theta * mean + theta^2/2 * variance with the printed values
        theta = 0.0168
        target = theta * (74.9147 + 2.0 * theta * 8.9399e3 / 4.0)
        assert quartic_rate(*paper, theta=theta) == pytest.approx(target, rel=1e-2)

    def test_tiny_linear(self, tiny):
        assert quartic_rate(tiny, np.eye(2), 0.1) == pytest.approx(0.1, abs=1e-13)

    def test_decomposition_identity(self, paper):
        model, pi = paper
        theta = 0.01
        rate, _, _ = variance_rate(model, pi)
        expected = theta * mean_rate(model, pi) + 0.5 * theta**2 * rate
        assert quartic_rate(model, pi, theta) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_report_bundle(paper):
    rep = quartic_report(*paper, theta=0.01)
    assert rep.assumes_invariant_state
    assert rep.theta == 0.01
    assert rep.mean_rate == pytest.approx(74.9147, rel=2e-3)
    assert rep.variance_rate == pytest.approx(8.9399e3, rel=2e-3)
    assert rep.quartic_rate > 0


def test_weight_matrix_validation():
    WeightMatrix(np.eye(2))
    with pytest.raises(NotSymmetric):
        WeightMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_every_reader_keeps_the_duality_certificate():
    # T is certified once, in WeightFacts.variance_rate; a T that misses its
    # Lyapunov dual 4 <Q, P Pi P + Theta Pi Theta> by 1e-6 relative must be
    # refused by each reader, not read past the certificate
    from oqrisk import paper_example_model

    model, pi = paper_example_model()
    facts = model.weight_facts(pi)
    facts.__dict__["t"] = facts.t * (1.0 + 1e-6)
    for reader in (variance_rate, theta_threshold, lambda m, w: quartic_rate(m, w, 0.01),
                   lambda m, w: quartic_report(m, w, 0.01)):
        with pytest.raises(NumericalDefect):
            reader(model, pi)


def test_lyapunov_solves_once_per_fact(monkeypatch):
    # P, T and Q are each solved once for a fresh model, however many
    # analyses read them
    import oqrisk.matfun as matfun
    from oqrisk import DeviationAnalysis, paper_example_model

    calls = []
    solve = matfun.lyap_solve
    monkeypatch.setattr(matfun, "lyap_solve", lambda a, q: calls.append(1) or solve(a, q))
    model, pi = paper_example_model()
    quartic_report(model, pi, 0.01)
    DeviationAnalysis(model, pi)
    quartic_rate(model, pi, 0.005)
    quartic_rate(model, pi, 0.01)
    assert len(calls) <= 3
