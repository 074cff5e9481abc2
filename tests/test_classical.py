import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import J2, random_sym
from oqrisk import classical, report
from oqrisk.classical import (
    AugmentedStepper,
    rs_theta_max,
    augmented_invariant_cov,
    classical_quadform_variance,
    classical_rate_series,
    classical_rs_rate_paper,
    classical_rs_rate_sde,
    invariant_classical_cov,
    mc_quadform_variance,
    mc_rs_rate,
    mc_stationary_stats,
    simulate,
    zeta_view,
)
from oqrisk.errors import InsufficientPaths, ThetaOutOfRange
from oqrisk.gaussian import gramian_steady
from oqrisk.matfun import expm, sqrt_psd
from oqrisk.quartic import mean_rate


class TestInvariantCov:
    def test_tiny_blocks(self, tiny):
        inv = invariant_classical_cov(tiny)
        target = 0.25 * np.block([[np.eye(2), -J2], [J2, np.eye(2)]])
        assert np.allclose(inv.aug, target, atol=1e-13)
        assert np.allclose(inv.complex_cov, 0.5 * (np.eye(2) + 1j * J2), atol=1e-13)

    def test_paper_blocks(self, paper):
        model = paper[0]
        steady = gramian_steady(model)
        inv = invariant_classical_cov(model)
        assert np.allclose(inv.aug[:4, :4], 0.5 * steady.p, atol=1e-12)
        assert np.allclose(inv.aug[:4, 4:], -0.5 * model.theta, atol=1e-12)
        assert np.linalg.eigvalsh(inv.aug).min() >= -1e-12

    def test_commutative_limit_block_diagonal(self):
        # Theta -> 0 in the assembly formula: equal diagonal blocks, no
        # cross-covariance
        p = np.diag([2.0, 3.0])
        aug = augmented_invariant_cov(p, np.zeros((2, 2)))
        assert np.array_equal(aug[:2, 2:], np.zeros((2, 2)))
        assert np.array_equal(aug[:2, :2], aug[2:, 2:])


class TestStepper:
    def test_exact_semigroup(self, paper):
        # one 2h step must equal two composed h steps in distribution
        model = paper[0]
        s1 = AugmentedStepper.build(model, 0.15)
        s2 = AugmentedStepper.build(model, 0.30)
        assert np.abs(s1.phi_aug @ s1.phi_aug - s2.phi_aug).max() < 1e-12
        composed = s1.phi_aug @ s1.sigma_aug @ s1.phi_aug.T + s1.sigma_aug
        assert np.abs(composed - s2.sigma_aug).max() < 1e-12

    def test_stationarity_preserved(self, tiny):
        stepper = AugmentedStepper.build(tiny, 0.4)
        p_aug = invariant_classical_cov(tiny).aug
        pushed = stepper.phi_aug @ p_aug @ stepper.phi_aug.T + stepper.sigma_aug
        assert np.abs(pushed - p_aug).max() < 1e-13


class TestSimulate:
    def test_deterministic_given_seed(self, tiny):
        b1 = simulate(tiny, 0.1, 5, 64, seed=42)
        b2 = simulate(tiny, 0.1, 5, 64, seed=42)
        assert np.array_equal(b1.thetas, b2.thetas)

    def test_zero_dispersion_decays_deterministically(self, tiny):
        silent = dataclasses.replace(tiny, b=np.zeros((2, 2)))
        batch = simulate(silent, 0.5, 4, 200, seed=1, initial="zero")
        assert not np.any(batch.thetas)
        cov0, covlag = mc_stationary_stats(batch, 2)
        assert not np.any(cov0.value) and not np.any(covlag.value)

    def test_zero_dispersion_nonzero_start_is_flow(self, tiny):
        silent = dataclasses.replace(tiny, b=np.zeros((2, 2)))
        stepper = AugmentedStepper.build(silent, 0.5)
        assert not np.any(stepper.sigma_aug)
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(4)
        batch_like = x0.copy()
        for _ in range(3):
            batch_like = stepper.phi_aug @ batch_like
        flow = np.kron(np.eye(2), expm(tiny.a, 1.5)) @ x0
        assert np.allclose(batch_like, flow, atol=1e-12)

    def test_tiny_sample_covariance(self, tiny):
        batch = simulate(tiny, 0.1, 10, 10_000, seed=7)
        cov0, _ = mc_stationary_stats(batch, 0)
        target = 0.5 * (np.eye(2) + 1j * J2)
        dev = np.abs(cov0.value - target) / cov0.stderr
        assert dev.max() < 5.0

    def test_lagged_covariance_tiny(self, tiny):
        batch = simulate(tiny, 0.1, 10, 20_000, seed=11)
        _, covlag = mc_stationary_stats(batch, 10)
        target = np.exp(-1.0) * 0.5 * (np.eye(2) + 1j * J2)
        dev = np.abs(covlag.value - target) / covlag.stderr
        assert dev.max() < 5.0

    def test_one_ulp_change_of_b_keeps_paths(self, paper):
        # the augmented covariances have doubly degenerate eigenvalues; the
        # principal square root, unlike an eigenbasis factor, moves with B
        model = paper[0]
        nudged = dataclasses.replace(model, b=model.b * (1 + 2**-52))
        base = simulate(model, 0.05, 20, 200, seed=5).thetas
        moved = simulate(nudged, 0.05, 20, 200, seed=5).thetas
        assert np.abs(moved - base).max() <= 1e-10 * np.abs(base).max()

    def test_matches_reference_recursion(self, paper):
        # the stepper reuses its buffers; a reference with fresh arrays every
        # step must agree bit for bit, and no two slices may share memory
        model = paper[0]
        stepper = AugmentedStepper.build(model, 0.05)
        rng = classical._rng(3)
        state = rng.standard_normal((64, 8)) @ sqrt_psd(stepper.p_aug).T
        ref = [state]
        for _ in range(6):
            state = (state @ stepper.phi_aug.T
                     + rng.standard_normal((64, 8)) @ stepper.noise_chol.T)
            ref.append(state)
        slices = list(simulate(model, 0.05, 6, 64, seed=3).thetas)
        assert np.array_equal(np.stack(slices), np.stack(ref))
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(slices) for b in slices[i + 1:])

    def test_classical_block_memory_independent_of_steps(self, tiny):
        # mc.steps sets only the rate horizon; the covariances need lag + 1
        # slices of the stationary chain
        def peak(steps):
            mc = report.McSettings(h=0.01, steps=steps, paths=1000, seed=1, lag=5,
                                   theta=0.01)
            tracemalloc.start()
            try:
                report._classical_block(tiny, np.eye(2), mc)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2000) <= 1.1 * peak(100)

    def test_insufficient_paths(self, tiny):
        batch = simulate(tiny, 0.1, 2, 50, seed=3)
        with pytest.raises(InsufficientPaths):
            mc_stationary_stats(batch, 1)


class TestQuadformVariance:
    def test_tiny_quantum_classical_gap(self, tiny):
        # classical variance 1 against quantum one-point variance 0: the
        # moment mismatch shows up from the fourth moments onward
        p = gramian_steady(tiny).p
        quantum = 2.0 * np.sum(np.eye(2) * (p @ p + tiny.theta @ tiny.theta))
        assert classical_quadform_variance(tiny, np.eye(2)) == pytest.approx(1.0)
        assert quantum == pytest.approx(0.0, abs=1e-14)

    def test_commutative_limit_matches_quantum(self):
        # with Theta = 0 both reduce to <Pi, P Pi P>
        rng = np.random.default_rng(4)
        p = random_sym(rng, 4, psd=True)
        pi = random_sym(rng, 4)
        classical = np.sum(pi * (p @ pi @ p))
        quantum_half = np.sum(pi * (p @ pi @ p))
        assert classical == pytest.approx(quantum_half)

    def test_zero_weight(self, paper):
        assert classical_quadform_variance(paper[0], np.zeros((4, 4))) == 0.0

    def test_real_form_matches_complex_form(self, paper):
        model, pi = paper
        states = simulate(model, 0.05, 0, 50, seed=4).thetas[0]
        z = zeta_view(states)
        ref = np.einsum("pi,ij,pj->p", z.conj(), pi, z).real
        scale = np.linalg.norm(pi, 2) * (states**2).sum(axis=1).max()
        assert np.abs(classical._quadform(states, pi) - ref).max() <= 1e-13 * scale

    def test_mc_validator(self, tiny):
        batch = simulate(tiny, 0.1, 3, 30_000, seed=13)
        est = mc_quadform_variance(batch, np.eye(2))
        assert abs(est.value - 1.0) < 5.0 * est.stderr


class TestRateVariants:
    def test_zero_theta(self, paper):
        assert classical_rs_rate_paper(*paper, theta=0.0) == 0.0
        assert classical_rs_rate_sde(*paper, theta=0.0) == 0.0

    def test_tiny_closed_forms(self, tiny):
        # det(I - theta Pi D) = 1 - 2 theta/(1 + lam^2) integrates to
        # 2 pi (sqrt(1 - 2 theta) - 1)
        theta = 3.0 / 8.0
        assert classical_rs_rate_paper(tiny, np.eye(2), theta) == pytest.approx(
            0.25, abs=1e-9
        )
        assert classical_rs_rate_sde(tiny, np.eye(2), theta) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_sde_is_twice_paper(self, tiny, paper):
        for model, pi in ((tiny, np.eye(2)), paper):
            theta_max = rs_theta_max(model, pi)
            for frac in (0.1, 0.36, 0.7):
                theta = frac * theta_max
                sde = classical_rs_rate_sde(model, pi, theta)
                paper_v = classical_rs_rate_paper(model, pi, theta)
                assert abs(sde - 2.0 * paper_v) <= 1e-10 * max(1.0, abs(sde))

    def test_small_theta_slopes(self, tiny, paper):
        # the quadratic series term enters the finite-difference slope at
        # relative size theta * kappa2 / kappa1, so theta must sit well
        # inside the finiteness interval for a 1e-3 comparison
        assert classical_rs_rate_sde(tiny, np.eye(2), 1e-4) / 1e-4 == pytest.approx(
            mean_rate(tiny, np.eye(2)), rel=1e-3
        )
        model, pi = paper
        mean = mean_rate(model, pi)
        theta = 1e-5
        sde_slope = classical_rs_rate_sde(model, pi, theta) / theta
        paper_slope = classical_rs_rate_paper(model, pi, theta) / theta
        assert sde_slope == pytest.approx(mean, rel=1e-3)
        assert paper_slope == pytest.approx(0.5 * mean, rel=1e-3)

    def test_series_crosscheck(self, paper):
        model, pi = paper
        theta = 0.05 * rs_theta_max(model, pi)
        exact = classical_rs_rate_paper(model, pi, theta)
        series = classical_rate_series(model, pi, theta, orders=6)
        # remainder is geometric with ratio theta * peak = 0.05
        assert exact == pytest.approx(series, rel=1e-6)

    def test_theta_guard(self, tiny):
        with pytest.raises(ThetaOutOfRange):
            classical_rs_rate_paper(tiny, np.eye(2), 0.51)
        with pytest.raises(ThetaOutOfRange):
            classical_rs_rate_sde(tiny, np.eye(2), -0.01)

    def test_raises_past_the_two_sided_peak(self, paper):
        # the peak scan covers lam >= 0 only and finds 117.76; the density
        # peaks at 132.96 near lam = -2.525, so theta = 1/125 passes the
        # scan but makes 1 - theta * eig(Pi D) negative on the real line
        for rate in (classical_rs_rate_paper, classical_rs_rate_sde):
            with pytest.raises(ThetaOutOfRange):
                rate(*paper, theta=1.0 / 125.0)


class TestMcRate:
    def test_zero_cases(self, tiny):
        assert mc_rs_rate(tiny, np.eye(2), 0.0, 5.0, 100, 1).value == 0.0
        assert mc_rs_rate(tiny, np.zeros((2, 2)), 0.1, 5.0, 100, 1).value == 0.0

    def test_tiny_matches_sde_variant(self, tiny):
        target = classical_rs_rate_sde(tiny, np.eye(2), 0.1)
        est = mc_rs_rate(tiny, np.eye(2), 0.1, 20.0, 30_000, seed=2024)
        assert abs(est.value - target) < 4.0 * est.stderr

    def test_theta_guard(self, tiny):
        with pytest.raises(ThetaOutOfRange):
            mc_rs_rate(tiny, np.eye(2), 0.2, 5.0, 200, 1)

    def test_deterministic(self, tiny):
        a = mc_rs_rate(tiny, np.eye(2), 0.05, 5.0, 500, seed=9)
        b = mc_rs_rate(tiny, np.eye(2), 0.05, 5.0, 500, seed=9)
        assert a.value == b.value and a.stderr == b.stderr


def test_zeta_view_roundtrip():
    states = np.arange(8.0).reshape(2, 4)
    z = zeta_view(states)
    assert np.array_equal(z.real, states[:, :2])
    assert np.array_equal(z.imag, states[:, 2:])
