import dataclasses
import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import J2, by_blocks, congruent_oscillators, damped_mode, make_models, random_sym
from oqrisk import classical, matfun, model_from_matrices, paper_example_model, report
from oqrisk.classical import (
    AugmentedStepper,
    augmented_invariant_cov,
    classical_quadform_variance,
    classical_rs_rate_paper,
    classical_rs_rate_sde,
    finite_horizon_rate,
    mc_quadform_variance,
    mc_rs_rate,
    mc_stationary_stats,
    simulate,
)
from oqrisk.errors import (
    DimensionMismatch,
    InvalidArgument,
    NumericalDefect,
    ThetaOutOfRange,
    VarianceBlowup,
)
from oqrisk.gaussian import gramian_steady
from oqrisk.matfun import expm, integrate_frequency, lyap_solve, sqrt_psd
from oqrisk.quartic import mean_rate


def _invariant_aug(model):
    steady = gramian_steady(model)
    return augmented_invariant_cov(steady.p, model.theta), steady.quantum_cov


def _aug(model, h):
    """``(phi_aug, p_aug, sigma_aug)`` in the ``2n`` augmented coordinates, an
    oracle for ``AugmentedStepper.build``: ``e^{h (I2 (x) A)}``, ``p_aug`` solved
    from the augmented Lyapunov equation ``(I2 (x) A) P + P (I2 (x) A)' + [[BB',
    -BJB'], [BJB', BB']] / 2 = 0`` (the stepper reads it from the model's ``P +
    i Theta`` instead) and the exact one-step noise covariance ``p_aug - phi_aug
    p_aug phi_aug'``."""
    b = model.b
    p = lyap_solve(np.kron(np.eye(2), model.a), augmented_invariant_cov(b @ b.T, b @ model.j @ b.T))
    p = 0.5 * (p + p.T)
    phi = np.kron(np.eye(2), expm(model.a, h))
    sigma = p - phi @ p @ phi.T
    return phi, p, 0.5 * (sigma + sigma.T)


class TestInvariantCov:
    def test_tiny_blocks(self, tiny):
        aug, complex_cov = _invariant_aug(tiny)
        target = 0.25 * np.block([[np.eye(2), -J2], [J2, np.eye(2)]])
        assert np.allclose(aug, target, atol=1e-13)
        assert np.allclose(complex_cov, 0.5 * (np.eye(2) + 1j * J2), atol=1e-13)

    def test_paper_blocks(self, paper):
        model = paper[0]
        steady = gramian_steady(model)
        aug, _ = _invariant_aug(model)
        assert np.allclose(aug[:4, :4], 0.5 * steady.p, atol=1e-12)
        assert np.allclose(aug[:4, 4:], -0.5 * model.theta, atol=1e-12)
        assert np.linalg.eigvalsh(aug).min() >= -1e-12

    def test_commutative_limit_block_diagonal(self):
        # Theta -> 0 in the assembly formula: equal diagonal blocks, no
        # cross-covariance
        p = np.diag([2.0, 3.0])
        aug = augmented_invariant_cov(p, np.zeros((2, 2)))
        assert np.array_equal(aug[:2, 2:], np.zeros((2, 2)))
        assert np.array_equal(aug[:2, :2], aug[2:, 2:])


class TestStepper:
    def test_exact_semigroup(self, paper):
        # one 2h step must equal two composed h steps in distribution; the
        # paper fixture's mixed law runs in the 2n coordinates
        model = paper[0]
        s1 = AugmentedStepper.build(model, 0.15)
        s2 = AugmentedStepper.build(model, 0.30)
        noise1, noise2 = (s.noise_chol @ s.noise_chol.T for s in (s1, s2))
        assert np.abs(s1.phi_frame @ s1.phi_frame - s2.phi_frame).max() < 1e-12
        composed = s1.phi_frame @ noise1 @ s1.phi_frame.T + noise1
        assert np.abs(composed - noise2).max() < 1e-12

    def test_stationarity_preserved(self, tiny):
        # one step with the stepper's noise, lifted out of its frame, keeps the
        # oracle's augmented Lyapunov solution invariant
        stepper = AugmentedStepper.build(tiny, 0.4)
        phi, p_aug, _ = _aug(tiny, 0.4)
        noise = stepper.frame @ stepper.noise_chol
        pushed = phi @ p_aug @ phi.T + noise @ noise.T
        assert np.abs(pushed - p_aug).max() < 1e-13

    @pytest.mark.parametrize("name", ["tiny", "paper", "damped", "congruent8"])
    def test_invariant_law_matches_the_lyapunov_oracle(self, name, tiny, paper):
        # p_frame comes from the model's P + i Theta, the oracle from the 2n
        # augmented Lyapunov equation: they differ by at most 2.3e-15 of
        # max |P_aug| here (congruent8; 5.1e-15 on generated models up to n = 32)
        model = paper[0] if name == "paper" else _pure_models()[name](tiny)[0]
        stepper = AugmentedStepper.build(model, 0.05)
        p_aug = _aug(model, 0.05)[1]
        gap = np.abs(stepper.p_frame - stepper.frame.T @ p_aug @ stepper.frame).max()
        assert gap <= 1e-14 * np.abs(p_aug).max()
        assert np.array_equal(stepper.p_root, sqrt_psd(stepper.p_frame))

    def test_zero_dispersion_has_no_stepper(self, tiny):
        # B = 0 leaves P = 0, so P + i Theta = i Theta is no state: the twin has
        # no invariant law to step from, and the stepper is refused
        silent = dataclasses.replace(tiny, b=np.zeros((2, 2)))
        for h in (0.05, 0.5):
            with pytest.raises(NumericalDefect, match="uncertainty constraint"):
                AugmentedStepper.build(silent, h)

    def test_noise_covariance_that_is_not_psd_is_refused(self, paper, monkeypatch):
        # a stepping matrix that expands the invariant law leaves P - Phi P Phi'
        # indefinite: the root's NotPsd comes back as a NumericalDefect
        monkeypatch.setattr(classical, "expm", lambda a, t: 2.0 * expm(a, t))
        with pytest.raises(NumericalDefect, match="eigenvalue .* below"):
            AugmentedStepper.build(paper[0], 0.05)

    def test_twin_makes_no_lyapunov_solve(self, tiny, paper, monkeypatch):
        # the twin reads P + i Theta from the model's certified steady state
        # and has no Lyapunov solver of its own: with matfun.lyap_solve
        # raising, only the Riccati rate's Kleinman step (matfun._care) fails,
        # and every stepper, path and finite-horizon rate still runs
        def refuse(*args):
            raise AssertionError("matfun.lyap_solve called")

        assert not hasattr(classical, "lyap_solve") and not hasattr(classical, "scipy")
        for model, pi in (tiny, np.eye(2)), paper:  # the model's own facts solve first
            assert model.steady.thin.size and model.weight_facts(pi).density_peak > 0.0
        monkeypatch.setattr(matfun, "lyap_solve", refuse)
        for model, pi, theta in ((tiny, np.eye(2), 0.05), (*paper, 0.001)):
            assert AugmentedStepper.build(model, 0.05).p_frame.shape[0] in (model.n, 2 * model.n)
            assert np.all(np.isfinite(simulate(model, 0.05, 4, 100, seed=1).thetas))
            assert math.isfinite(finite_horizon_rate(model, pi, theta, 2.0, 0.05))
            assert math.isfinite(classical._continuous_rate(model, pi, theta, 2.0))
            assert mc_rs_rate(model, pi, theta, 2.0, 2000, seed=1).target is not None
            with pytest.raises(AssertionError, match="lyap_solve called"):
                classical_rs_rate_sde(model, pi, theta)
            with pytest.raises(AssertionError, match="lyap_solve called"):
                matfun._care(model.weight_facts(pi)._hamiltonian(theta))


class TestSimulate:
    def test_deterministic_given_seed(self, tiny):
        b1 = simulate(tiny, 0.1, 5, 64, seed=42)
        b2 = simulate(tiny, 0.1, 5, 64, seed=42)
        assert np.array_equal(b1.thetas, b2.thetas)

    def test_zero_dispersion_is_refused(self, tiny):
        # B = 0 has no certified invariant state (P + i Theta = i Theta), so
        # there are no paths and no finite-horizon rate to draw them for
        silent = dataclasses.replace(tiny, b=np.zeros((2, 2)))
        with pytest.raises(NumericalDefect, match="uncertainty constraint"):
            simulate(silent, 0.5, 4, 200, seed=1)
        with pytest.raises(NumericalDefect, match="uncertainty constraint"):
            finite_horizon_rate(silent, np.eye(2), 0.05, 2.0, 0.5)

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
        # each of the MC_BLOCKS blocks of paths runs on its own spawned stream
        # and reuses its buffers; per-block references with fresh arrays every
        # step must agree bit for bit, and no two slices may share memory; the
        # paper fixture's frame is the identity
        model = paper[0]
        steps, paths = 6, 67  # uneven blocks of 9 and 8 paths
        stepper = AugmentedStepper.build(model, 0.05)
        init = sqrt_psd(stepper.p_frame)
        blocks = []
        for seq, rows in zip(np.random.SeedSequence(3).spawn(classical.MC_BLOCKS),
                             np.array_split(np.arange(paths), classical.MC_BLOCKS)):
            rng = np.random.Generator(np.random.SFC64(seq))
            state = rng.standard_normal((rows.size, 8)) @ init.T
            ref = [state]
            for _ in range(steps):
                state = (state @ stepper.phi_frame.T
                         + rng.standard_normal((rows.size, 8)) @ stepper.noise_chol.T)
                ref.append(state)
            blocks.append(np.stack(ref))
        slices = list(simulate(model, 0.05, steps, paths, seed=3).thetas)
        assert np.array_equal(np.stack(slices), np.concatenate(blocks, axis=1))
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(slices) for b in slices[i + 1:])

    def test_worker_count_changes_no_value(self, paper, monkeypatch):
        # the blocks and their streams are fixed; the pool size sets the speed
        # only.  Eight workers on a one-microsecond switch interval interleave
        # as much as they can, so a block that wrote another block's rows or
        # drew from another block's stream would change the output.
        model, pi = paper
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, classical.MC_BLOCKS):
                monkeypatch.setattr(classical, "_mc_workers", lambda w=workers: w)
                runs.append((simulate(model, 0.05, 6, 1001, seed=3).thetas,
                             mc_rs_rate(model, pi, 0.001, 2.0, 1001, seed=3, h=0.05)))
        finally:
            sys.setswitchinterval(interval)
        (sim_one, est_one), *pooled = runs
        for sim, est in pooled:
            assert np.array_equal(sim_one, sim)
            assert est_one.value == est.value and est_one.stderr == est.stderr

    def test_stats_match_einsum_oracle(self, paper):
        batch = simulate(paper[0], 0.05, 4, 500, seed=8)
        z_now, z_lag = (x[:, :4] + 1j * x[:, 4:] for x in batch.thetas[[-1, 0]])
        for est, z_then in zip(mc_stationary_stats(batch, 4), (z_now, z_lag)):
            samples = np.einsum("pi,pj->pij", z_now, z_then.conj())
            mean = samples.mean(axis=0)
            stderr = np.sqrt((np.abs(samples - mean) ** 2).mean(axis=0) / batch.paths)
            assert np.abs(est.value - mean).max() <= 1e-13 * np.abs(mean).max()
            assert np.abs(est.stderr - stderr).max() <= 1e-13 * stderr.max()

    def test_stats_memory_is_a_few_slices(self, paper):
        # two n x n products: the working set is a few (paths, n) arrays, not
        # (paths, n, n) stacks of per-path products
        batch = simulate(paper[0], 0.05, 4, 4000, seed=8)
        tracemalloc.start()
        try:
            mc_stationary_stats(batch, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * batch.thetas[-1].nbytes

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

    def test_classical_block_memory_independent_of_lag(self, tiny):
        # the lag pair is one exact step of tau = lag h: two slices at any lag
        def peak(lag):
            mc = report.McSettings(h=0.01, paths=4000, seed=1, lag=lag)
            tracemalloc.start()
            try:
                report._classical_block(tiny, np.eye(2), mc)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(500) <= 1.1 * peak(5)

    def test_classical_block_is_one_step_of_the_lag(self, paper):
        # the block's statistics are those of the pair (x(0), x(tau)) drawn
        # by one exact step of tau = lag h, to the bit
        model, pi = paper
        out = report._classical_block(model, pi, report.McSettings(h=0.05, paths=500, seed=3, lag=10))
        batch = simulate(model, 10 * 0.05, 1, 500, seed=3)
        cov0, covlag = mc_stationary_stats(batch, 1)
        var = mc_quadform_variance(batch, pi)
        assert out["cov0_mc"] == report._cmatrix(cov0.value)
        assert out["cov0_stderr"] == report._matrix(cov0.stderr)
        assert out["covlag_mc"] == report._cmatrix(covlag.value)
        assert out["covlag_stderr"] == report._matrix(covlag.stderr)
        assert out["quadform_var_mc"] == {"value": var.value, "stderr": var.stderr}

    def test_classical_block_lag_zero(self, paper):
        # one slice: the lagged covariance is the one-point covariance
        out = report._classical_block(*paper, report.McSettings(h=0.05, paths=500, seed=3, lag=0))
        assert out["covlag_mc"] == out["cov0_mc"]
        assert out["covlag_stderr"] == out["cov0_stderr"]
        assert out["covlag_target"] == out["cov0_target"]

    def test_classical_block_is_simulate_on_a_pure_state(self, tiny):
        # the vacuum mode's chain runs in the 2-dimensional frame of its
        # support; the block maps each kept state back to x as simulate does
        mc = report.McSettings(h=0.05, paths=500, seed=3, lag=10)
        out = report._classical_block(tiny, np.eye(2), mc)
        batch = simulate(tiny, 10 * 0.05, 1, 500, seed=3)
        cov0, covlag = mc_stationary_stats(batch, 1)
        var = mc_quadform_variance(batch, np.eye(2))
        keys = "cov0_mc", "cov0_stderr", "covlag_mc", "covlag_stderr", "quadform_var_mc"
        assert [out[key] for key in keys] == [
            report._cmatrix(cov0.value), report._matrix(cov0.stderr), report._cmatrix(covlag.value),
            report._matrix(covlag.stderr), {"value": var.value, "stderr": var.stderr}]

    def test_classical_block_worker_count_changes_no_value(self, paper, tiny, monkeypatch):
        # the lag pair runs on the calling thread and the rate's chain on the
        # pool; each adds its blocks in block order, so no value of the block
        # moves with the worker count, on the identity frame and on a pure
        # state's
        mc = report.McSettings(h=0.05, steps=20, paths=1001, seed=3, lag=10, theta=0.001)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, classical.MC_BLOCKS):
                monkeypatch.setattr(classical, "_mc_workers", lambda w=workers: w)
                runs.append([report._classical_block(model, pi, mc)
                             for model, pi in (paper, (tiny, np.eye(2)))])
        finally:
            sys.setswitchinterval(interval)
        assert "rs_rate" in runs[0][0] and runs[0] == runs[1] == runs[2]

    def test_classical_block_memory_is_the_chunk_buffers(self, paper, monkeypatch):
        # no (2, paths, 2n) pair: at 200,000 paths the block holds one set
        # of chunk buffers (~5 MB here), one block's pair and one
        # quadratic-form value per path; drawing the pair whole peaked at
        # 67.1 MiB.  The one-step chain runs on the calling thread, so the
        # peak does not grow with the worker count (12.4, 20.9 and 69.4 MiB
        # at 1, 2 and 8 workers when each worker held its own set)
        mc = report.McSettings(h=0.05, paths=200_000, seed=1, lag=10, theta=None)
        report._classical_block(*paper, mc)  # the model's own facts first
        peaks = []
        for workers in (1, 2, classical.MC_BLOCKS):
            monkeypatch.setattr(classical, "_mc_workers", lambda w=workers: w)
            tracemalloc.start()
            try:
                report._classical_block(*paper, mc)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 32 * 2**20
        assert max(peaks) <= 1.05 * min(peaks)

    def test_one_step_chain_starts_no_thread(self, paper, monkeypatch):
        # a one-step block is two draws and a few products: the lag pair and
        # a one-step simulate run on the calling thread, a longer chain on
        # the pool
        def no_pool(*args, **kwargs):
            raise RuntimeError("thread pool started")

        monkeypatch.setattr(classical, "_mc_workers", lambda: 2)
        monkeypatch.setattr(classical, "ThreadPoolExecutor", no_pool)
        model, pi = paper
        report._classical_block(model, pi, report.McSettings(h=0.05, paths=500, seed=3, lag=10,
                                                             theta=None))
        simulate(model, 0.05, 1, 500, seed=3)
        with pytest.raises(RuntimeError, match="thread pool started"):
            simulate(model, 0.05, 2, 500, seed=3)

    def test_insufficient_paths(self, tiny):
        batch = simulate(tiny, 0.1, 2, 50, seed=3)
        with pytest.raises(InvalidArgument):
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
        z = states[:, :4] + 1j * states[:, 4:]
        ref = np.einsum("pi,ij,pj->p", z.conj(), pi, z).real
        scale = np.linalg.norm(pi, 2) * (states**2).sum(axis=1).max()
        got = classical._quadform(states, np.kron(np.eye(2), pi))
        assert np.abs(got - ref).max() <= 1e-13 * scale

    def test_mc_validator(self, tiny):
        batch = simulate(tiny, 0.1, 3, 30_000, seed=13)
        est = mc_quadform_variance(batch, np.eye(2))
        assert abs(est.value - 1.0) < 5.0 * est.stderr

    def test_mc_validator_weight_shape(self, paper):
        batch = simulate(paper[0], 0.05, 2, 200, 1)
        with pytest.raises(DimensionMismatch):
            mc_quadform_variance(batch, np.eye(2))


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
            theta_max = 1.0 / model.weight_facts(pi).density_peak
            for frac in (0.1, 0.36, 0.7):
                theta = frac * theta_max
                sde = classical_rs_rate_sde(model, pi, theta)
                paper_v = classical_rs_rate_paper(model, pi, theta)
                assert sde == 2.0 * paper_v

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

    def test_sde_rate_near_the_peak(self, paper):
        # theta * peak = 0.997: 1 - theta eig(Pi D) nearly vanishes near
        # lam = -2.525
        assert classical_rs_rate_sde(*paper, theta=0.0075) == pytest.approx(
            0.9521188359007796, rel=1e-10, abs=0.0)

    def test_theta_guard(self, tiny):
        with pytest.raises(ThetaOutOfRange):
            classical_rs_rate_paper(tiny, np.eye(2), 0.51)
        with pytest.raises(ThetaOutOfRange):
            classical_rs_rate_sde(tiny, np.eye(2), -0.01)

    def test_raises_past_the_two_sided_peak(self, paper):
        # the density peaks at 132.96 near lam = -2.526, on the negative
        # side of the axis: theta = 1/125 makes 1 - theta * eig(Pi D)
        # negative there, so the certified peak refuses it
        for rate in (classical_rs_rate_paper, classical_rs_rate_sde):
            with pytest.raises(ThetaOutOfRange):
                rate(*paper, theta=1.0 / 125.0)


def _logdet_oracle(model, pi, theta):
    """The printed rate by quadrature, ``-(1/4 pi) integral ln det(I - theta
    Pi D) dlam`` on the frequency rule: independent of the Riccati route.
    The integrand is not even in lam, so it is folded onto the half line as
    ``f(lam) + f(-lam)``; ``sqrt(Pi) D(-lam) sqrt(Pi)`` is the conjugate of
    ``sqrt(Pi) D(-lam)' sqrt(Pi)``, with the same eigenvalues, so one
    ``density_pair`` call serves both signs."""
    root = model.weight_facts(pi).root

    def folded(lams):
        return sum(np.log1p(-theta * np.linalg.eigvalsh(root @ d @ root)).sum(axis=-1)
                   for d in model.density_pair(lams))

    val = integrate_frequency(by_blocks(folded), model.eig.values)
    return -float(val) / (4.0 * np.pi)


def _rate_models():
    """The paper fixture, the damped mode and two random models, each with
    the fractions of ``1 / density_peak`` to test at."""
    random = [(mm, np.eye(mm.n)) for mm, _ in make_models(5, 2)]
    return ([("paper", paper_example_model(), (0.13, 0.5, 0.9, 0.997)),
             ("damped", (damped_mode(), np.diag([1.0, 2.0])), (0.1, 0.5, 0.9, 0.999))]
            + [(f"random-n{mm.n}", (mm, pi), (0.3, 0.9)) for mm, pi in random])


class TestRiccatiRate:
    """The rates as ``(1/2) tr(X F)`` of the stabilising Riccati solution."""

    @pytest.mark.parametrize("case, frac", [
        pytest.param(case, frac, id=f"{name}-{frac}")
        for name, case, fracs in _rate_models() for frac in fracs])
    def test_matches_logdet_oracle(self, case, frac):
        model, pi = case
        theta = frac / model.weight_facts(pi).density_peak
        oracle = _logdet_oracle(model, pi, theta)
        assert classical_rs_rate_paper(model, pi, theta) == pytest.approx(
            oracle, rel=1e-12, abs=0.0)
        assert classical_rs_rate_sde(model, pi, theta) == pytest.approx(
            2.0 * oracle, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("case", [pytest.param(case, id=name)
                                      for name, case, _ in _rate_models()[:2]])
    def test_certified_up_to_the_guard(self, case):
        # the rate grows with theta and stays finite up to theta * peak = 1 - 1e-8,
        # where the log-det integrand is too sharp for the frequency rule
        model, pi = case
        rates = [classical_rs_rate_paper(model, pi, frac / model.weight_facts(pi).density_peak)
                 for frac in (0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-8)]
        assert np.all(np.isfinite(rates)) and np.all(np.diff(rates) > 0.0)


def _spy_rungs(monkeypatch):
    """Lists that record the step of each ``AugmentedStepper.build`` and the
    ``(thetas, horizon, h)`` of each stacked recursion from here on."""
    built, build = [], AugmentedStepper.build
    monkeypatch.setattr(AugmentedStepper, "build",
                        staticmethod(lambda m, h: built.append(h) or build(m, h)))
    recursions, rates = [], classical._exponent_rates
    monkeypatch.setattr(classical, "_exponent_rates",
                        lambda *args: recursions.append(args[2:5]) or rates(*args))
    return built, recursions


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

    def test_explicit_step_is_unchanged(self, tiny):
        # an explicit step runs no recursion, carries no target or ratio and
        # runs the paths asked for; the tiny model's law is pure, so its chain
        # draws 2 normals per step in the frame of the law's support, and the
        # control-variate estimate sits within 4 stderr of the exact rate at
        # that step
        est = mc_rs_rate(tiny, np.eye(2), 0.05, 5.0, 500, seed=9, h=0.02)
        assert est.value == 0.05119100343855478
        assert est.stderr == 0.000104306994378995
        assert est.h == 0.02 and est.target is None and est.variance_ratio is None
        assert est.paths == 500
        exact = finite_horizon_rate(tiny, np.eye(2), 0.05, 5.0, 0.02)
        assert abs(est.value - exact) <= 4.0 * est.stderr

    def test_certified_step_on_paper_fixture(self, paper):
        model, pi = paper
        theta, horizon, paths = 0.001, 20.0, 20_000
        est = mc_rs_rate(model, pi, theta, horizon, paths, seed=7)
        # the top rung 2 / (1 + ||A||_2), twenty times the floor 0.1 / (1 + ||A||_2)
        assert round(horizon / est.h) == 102
        assert est.target == finite_horizon_rate(model, pi, theta, horizon, est.h)
        assert abs(est.value - est.target) <= 4.0 * est.stderr
        # the control variate cuts the variance ~16-fold, so the floor of
        # 2000 paths is more precise than 20000 plain ones
        assert est.paths == 2000
        rho_2 = finite_horizon_rate(model, pi, 2.0 * theta, horizon, est.h)
        plain = np.expm1(horizon * (rho_2 - 2.0 * est.target))
        predicted = np.sqrt(plain / (est.paths * est.variance_ratio)) / horizon
        assert predicted == pytest.approx(est.stderr, rel=0.1)
        # the bias against a sixteenth of the floor is within a tenth of the stderr
        assert abs(est.target - _fine_rate("paper")) <= 0.1 * predicted

    @pytest.mark.parametrize("case", ["tiny", "paper", "damped"])
    def test_stacked_recursion_matches_separate_rates(self, case, tiny, paper):
        # theta and 2 theta in one stacked recursion: each is its own
        # finite_horizon_rate to the bit
        model, pi, theta = {
            "tiny": (tiny, np.eye(2), 0.2),
            "paper": (*paper, 0.005),
            "damped": (damped_mode(), np.diag([1.0, 2.0]), 0.01),
        }[case]
        stepper = AugmentedStepper.build(model, 0.05)
        got = classical._exponent_rates(model, pi, [theta, 2.0 * theta], 2.0, 0.05, stepper)[1]
        want = [finite_horizon_rate(model, pi, th, 2.0, 0.05) for th in (theta, 2.0 * theta)]
        assert [float(g).hex() for g in got] == [w.hex() for w in want]

    def test_certified_step_builds_one_stepper_per_rung(self, paper, monkeypatch):
        # 1e15 paths admit no bias, so the walk runs down to its floor: each
        # distinct step count is built once and runs one stacked six-theta
        # recursion, and rho is finite_horizon_rate's
        model, pi = paper
        built, recursions = _spy_rungs(monkeypatch)
        horizon, scale = 2.0, 1.0 + np.linalg.norm(model.a, 2)
        floor, ladder = min(0.02, 0.1 / scale), [2.0 / scale]
        while ladder[-1] / 2.0 > floor:
            ladder.append(ladder[-1] / 2.0)
        ladder.append(floor)
        stepper, rho, _, _ = classical._rate_plan(model, pi, 0.001, horizon, 10**15)
        assert built == [horizon / round(horizon / h) for h in ladder]
        assert len(set(built)) == len(built)
        eps = 1e-3 * 0.001
        thetas = (0.001, 0.002, 0.001 + eps, 0.001 - eps, eps, -eps)
        assert recursions == [(thetas, horizon, h) for h in built]
        assert stepper.h == built[-1]
        assert rho == finite_horizon_rate(model, pi, 0.001, horizon, floor)
        # a rung accepted at once, the top one: one stepper, one recursion,
        # and that stepper runs the paths
        built.clear()
        recursions.clear()
        est = mc_rs_rate(model, pi, 0.001, horizon, 2000, seed=1)
        assert est.h == horizon / round(horizon / (2.0 / scale))
        assert built == [est.h]
        assert recursions == [(thetas, horizon, est.h)]

    def test_short_horizon_builds_each_step_count_once(self, paper, monkeypatch):
        # over T = 0.05 the six rungs down to the floor round to the step
        # counts 2, 2, 2, 2, 4 and 5; each distinct count is built and
        # evaluated once
        model, pi = paper
        built, recursions = _spy_rungs(monkeypatch)
        classical._rate_plan(model, pi, 0.001, 0.05, 10**15)
        assert [round(0.05 / h) for h in built] == [2, 4, 5]
        assert [h for _, _, h in recursions] == built

    def test_refuses_infinite_variance_before_simulating(self, monkeypatch):
        # the damped mode's resonance at lam = -10 puts its density peak at
        # 1000, so the 0.3/peak guard refuses theta = 0.01 before any path
        # (the 2 theta refusal is covered by the finite-horizon tests)
        def no_paths(*args, **kwargs):
            raise AssertionError("simulated a refused rate")

        monkeypatch.setattr(classical, "_chain", no_paths)
        with pytest.raises(ThetaOutOfRange):
            mc_rs_rate(damped_mode(), np.diag([1.0, 2.0]), 0.01, 200.0, 200, 1)

    def test_short_horizon_past_the_peak_is_refused(self):
        # over T = 2 every exponential moment is finite, so only the
        # certified 0.3/peak guard stands between theta = 0.01 and a
        # Monte Carlo estimate far outside the finiteness interval
        with pytest.raises(ThetaOutOfRange, match="0.3/peak"):
            mc_rs_rate(damped_mode(), np.diag([1.0, 2.0]), 0.01, 2.0, 2000, 1)

    def test_tiny_theta_is_refused_before_simulating(self, paper, monkeypatch):
        # at theta = 1e-20, T (rho_2theta - 2 rho) = theta^2 Var S ~ 1e-35 on
        # the paper fixture lies below the rounding of T rho ~ 1.5e-17, so the
        # relative variance expm1(T (rho_2theta - 2 rho)) of a path's weight
        # rounds to 0 and the certified step has no budget: a typed refusal,
        # not a math domain error, and no path drawn; an explicit step still runs
        def no_paths(*args, **kwargs):
            raise AssertionError("simulated a refused rate")

        model, pi = paper
        with monkeypatch.context() as patch:
            patch.setattr(classical, "_chain", no_paths)
            with pytest.raises(ThetaOutOfRange, match="relative variance"):
                mc_rs_rate(model, pi, 1e-20, 20.0, 2000, 1)
        est = mc_rs_rate(model, pi, 1e-20, 1.0, 200, 1, h=0.05)
        assert est.paths == 200 and est.target is None

    @pytest.mark.parametrize("theta", [1e-13, 1e-12, 1e-9, 1e-18])
    def test_small_theta_runs_on_target_or_is_refused(self, paper, theta):
        # the recursion's log-det keeps the relative accuracy of a small
        # exponent, so the certified rate runs on its exact target down to
        # theta = 1e-16 on the paper fixture (|z| <= 0.17 here); at 1e-18 the
        # relative variance of a path's weight is below the rounding of its
        # rates and the rate is refused
        model, pi = paper
        if theta < 1e-17:
            with pytest.raises(ThetaOutOfRange, match="relative variance"):
                mc_rs_rate(model, pi, theta, 20.0, 2000, 1)
            return
        est = mc_rs_rate(model, pi, theta, 20.0, 2000, 1)
        assert est.target > 0.0 and est.stderr > 0.0
        assert abs(est.value - est.target) <= 4.0 * est.stderr

    def test_zero_density_has_zero_rate_and_no_monte_carlo(self, tiny):
        # B = 0 makes the density vanish identically: its peak is the certified
        # 0 and the printed integral is exactly 0, while the twin has no
        # invariant law (P + i Theta = i Theta) for the Monte Carlo to start from
        silent, pi = dataclasses.replace(tiny, b=np.zeros((2, 2))), np.eye(2)
        assert silent.weight_facts(pi).density_peak == 0.0
        assert classical_rs_rate_sde(silent, pi, 0.05) == 0.0
        assert classical_rs_rate_paper(silent, pi, 0.05) == 0.0
        with pytest.raises(NumericalDefect, match="uncertainty constraint"):
            mc_rs_rate(silent, pi, 0.05, 5.0, 2000, 1)


@functools.cache
def _fine_rate(name):
    """``finite_horizon_rate`` of a certified-step case at a sixteenth of
    the step's floor ``min(0.02, 0.1 / (1 + ||A||_2))``."""
    model, pi, theta, horizon, _ = _certified_case(name)
    floor = min(0.02, 0.1 / (1.0 + np.linalg.norm(model.a, 2)))
    return finite_horizon_rate(model, pi, theta, horizon, floor / 16.0)


def _certified_case(name):
    """``(model, Pi, theta, horizon, paths)`` of the certified-step sweep:
    ``random-<seed>-<k>`` is the k-th of ``make_models(seed, 3)``,
    ``congruent-<seed>-<n>`` an order-n congruent-oscillator model."""
    if name == "paper":
        return (*paper_example_model(), 0.001, 20.0, 20_000)
    if name.startswith("tiny"):
        tiny = model_from_matrices(0.5 * J2, np.zeros((2, 2)), np.eye(2))
        return (tiny, np.eye(2), 0.1, 20.0, 30_000) if name == "tiny" else (tiny, np.eye(2), 0.05, 5.0, 500)
    if name == "damped":
        model, pi = damped_mode(), np.diag([1.0, 2.0])
        return model, pi, 0.1 / model.weight_facts(pi).density_peak, 5.0, 20_000
    kind, seed, k = name.split("-")
    rng = np.random.default_rng(int(seed) + int(k))
    if kind == "random":
        model = make_models(int(seed), 3)[int(k)][0]
        pi = random_sym(rng, model.n, psd=True)
        return model, pi, 0.1 / model.weight_facts(pi).density_peak, 5.0, 20_000
    # the n-sweep's kind of model: damped oscillators under a symplectic
    # congruence, over its horizon T = 2 with its 2000 paths
    model = congruent_oscillators(rng, int(k))
    pi = random_sym(rng, model.n, psd=True)
    return model, pi, 0.25 / model.weight_facts(pi).density_peak, 2.0, 2000


class TestCertifiedStep:
    """The walk accepts the first rung whose exact bias against the
    continuous-time rate fits a tenth of the rung's predicted stderr."""

    @pytest.mark.parametrize("name", [
        "paper", "tiny", "tiny-short", "damped",
        "random-5-0", "random-5-1", "random-5-2", "random-11-0", "random-11-1", "random-11-2",
        "congruent-0-4", "congruent-0-8", "congruent-0-16", "congruent-1-8",
    ])
    def test_accepted_step_bias_within_a_tenth_of_the_stderr(self, name):
        # against a sixteenth of the floor, the accepted rate's bias is at
        # most 0.1 of the predicted stderr at the accepted step of the
        # control-variate estimator at the rung's run, `run * ratio` plain paths
        model, pi, theta, horizon, paths = _certified_case(name)
        stepper, rho, run, ratio = classical._rate_plan(model, pi, theta, horizon, paths)
        assert rho == finite_horizon_rate(model, pi, theta, horizon, stepper.h)
        rho_2 = finite_horizon_rate(model, pi, 2.0 * theta, horizon, stepper.h)
        stderr = np.sqrt(np.expm1(horizon * (rho_2 - 2.0 * rho)) / (run * ratio)) / horizon
        assert abs(rho - _fine_rate(name)) <= 0.1 * stderr


def _cv_case(name):
    """``(model, Pi, theta, horizon, paths, h)`` of the control-variate
    coverage cases: certified steps on the paper fixture and the one-mode
    vacuum model, and an explicit step on an n = 8 congruent model."""
    if name == "paper":
        return (*paper_example_model(), 0.001, 20.0, 20_000, None)
    if name == "tiny":
        return model_from_matrices(0.5 * J2, np.zeros((2, 2)), np.eye(2)), np.eye(2), 0.05, 5.0, 20_000, None
    rng = np.random.default_rng(8)
    model = congruent_oscillators(rng, 8)
    pi = random_sym(rng, 8, psd=True)
    return model, pi, 0.25 / model.weight_facts(pi).density_peak, 2.0, 2000, 0.05


@functools.cache
def _seed_runs(name):
    """``mc_rs_rate`` of a :func:`_cv_case` over seeds 1..20, each with the
    path costs its estimator saw."""
    model, pi, theta, horizon, paths, h = _cv_case(name)
    costs, estimate = [], classical._cv_rate
    classical._cv_rate = lambda cost, *args: costs.append(cost.copy()) or estimate(cost, *args)
    try:
        runs = [mc_rs_rate(model, pi, theta, horizon, paths, seed, h=h) for seed in range(1, 21)]
    finally:
        classical._cv_rate = estimate
    return list(zip(runs, costs))


def _realized_ratio(name):
    """Mean over the seeds of ``1 / (1 - r^2)``, ``r`` the sample correlation
    of ``e^{theta S}`` with the path cost ``S``: the variance of the plain
    estimator over the control-variate one."""
    theta = _cv_case(name)[2]
    ratios = []
    for _, cost in _seed_runs(name):
        r = np.corrcoef(np.exp(theta * (cost - cost.max())), cost)[0, 1]
        ratios.append(1.0 / (1.0 - r * r))
    return float(np.mean(ratios))


class TestControlVariate:
    """``mc_rs_rate`` subtracts ``beta (S - E S)`` and runs the paths its precision needs."""

    @pytest.mark.parametrize("name", ["paper", "tiny", "congruent8"])
    def test_coverage_over_twenty_seeds(self, name):
        # z against the exact rate at the step that ran: its sample variance
        # is near 1 and no |z| reaches 4, so the jackknife stderr is honest
        model, pi, theta, horizon, _, h = _cv_case(name)
        runs = _seed_runs(name)
        target = runs[0][0].target if h is None else finite_horizon_rate(model, pi, theta, horizon, h)
        z = np.array([(est.value - target) / est.stderr for est, _ in runs])
        assert 0.5 <= z.var(ddof=1) <= 2.0
        assert np.abs(z).max() <= 4.0

    @pytest.mark.parametrize("name", ["paper", "tiny"])
    def test_predicted_ratio_matches_the_realized_one(self, name):
        # the prediction reads the accepted rung's own recursion: 16.44
        # against 17.2 realized on the paper fixture (102 steps), 100.35
        # against 107.2 on the vacuum mode (80 steps)
        predicted = _seed_runs(name)[0][0].variance_ratio
        assert predicted == pytest.approx(_realized_ratio(name), rel=0.1)

    @pytest.mark.parametrize("paths, run", [(500, 500), (2000, 2000), (20_000, 2000), (500_000, 4983)])
    def test_path_rule(self, tiny, paths, run, monkeypatch):
        # the run is min(paths, max(RATE_PATHS_MIN, ceil(paths / ratio))) at
        # the accepted rung's ratio of ~100: paths below the floor run as
        # asked, the run never exceeds paths, and McEstimate.paths is what
        # the blocks drew
        drawn, run_blocks = [], classical._run_blocks
        monkeypatch.setattr(classical, "_run_blocks",
                            lambda stepper, steps, n, *args: drawn.append(n) or run_blocks(stepper, steps, n, *args))
        est = mc_rs_rate(tiny, np.eye(2), 0.05, 5.0, paths, seed=3)
        assert drawn == [est.paths] and est.paths == run <= paths
        assert run == min(paths, max(classical.RATE_PATHS_MIN, math.ceil(paths / est.variance_ratio)))

    def test_worker_count_changes_no_value(self, paper, monkeypatch):
        # beta is fitted from all paths in block order: the pool size sets
        # the speed only
        model, pi = paper
        runs = []
        for workers in (1, classical.MC_BLOCKS):
            monkeypatch.setattr(classical, "_mc_workers", lambda w=workers: w)
            runs.append(mc_rs_rate(model, pi, 0.001, 2.0, 20_000, seed=3))
        assert runs[0] == runs[1]

    def test_constant_cost_gives_the_plain_estimate(self):
        # no sample variance of S: beta = 0, even against a wrong E S, and
        # value and stderr are the plain log-mean-exp and its delete-one
        # jackknife (0 up to the rounding of a mean of equal values)
        cost, theta, horizon = np.full(1000, 3.0), 0.1, 5.0
        rate, stderr = classical._cv_rate(cost, 2.5, theta, horizon)
        peak = (theta * cost).max()
        weights = np.exp(theta * cost - peak)
        loo = (np.log((weights.sum() - weights) / 999) + peak) / horizon
        assert rate == (np.log(weights.sum() / 1000) + peak) / horizon
        assert stderr == np.sqrt(999 / 1000 * ((loo - loo.mean()) ** 2).sum()) < 1e-15

    def test_nonpositive_mean_is_refused(self):
        # a mean of S - E S far above 0 with beta > 0 drives the estimate of
        # E e^{theta S} below 0; the plain weights alone pass the ESS guard
        cost = np.linspace(0.0, 1.0, 1000)
        with pytest.raises(VarianceBlowup, match="not positive"):
            classical._cv_rate(cost, -1e6, 0.1, 5.0)

    def test_degenerate_weights_are_refused(self):
        # one path's weight e^{theta S} outweighs the 99 others by e^1000:
        # the plain weights' effective sample size is 1, below the floor of 50
        with pytest.raises(VarianceBlowup, match="effective sample size"):
            classical._cv_rate(np.r_[np.zeros(99), 1e4], 0.0, 0.1, 5.0)


def _dense_rate(model, pi, theta, horizon, steps):
    """``-(1/2T) sum log1p(-2 theta eig(W C W))`` over the stacked path
    ``(x_0 .. x_N)``: ``C`` has blocks ``phi^(j-k) P_aug`` and ``W = diag(sqrt
    w) (x) I2 (x) sqrt(Pi)`` with the trapezoid weights ``w``, so ``W C W`` is
    symmetric and its rank deficiency needs no root of ``C``."""
    h = horizon / steps
    phi, p_aug, _ = _aug(model, h)
    d = p_aug.shape[0]
    powers = [np.eye(d)]
    for _ in range(steps):
        powers.append(phi @ powers[-1])
    cov = np.zeros(((steps + 1) * d,) * 2)
    for j in range(steps + 1):
        for k in range(j + 1):
            block = powers[j - k] @ p_aug
            cov[j * d:(j + 1) * d, k * d:(k + 1) * d] = block
            cov[k * d:(k + 1) * d, j * d:(j + 1) * d] = block.T
    weights = np.full(steps + 1, h)
    weights[[0, -1]] = 0.5 * h
    vals, vecs = np.linalg.eigh(pi)
    root_pi = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    w = np.kron(np.diag(np.sqrt(weights)), np.kron(np.eye(2), root_pi))
    x = w @ cov @ w
    eigs = np.linalg.eigvalsh(0.5 * (x + x.T))
    assert 2.0 * theta * eigs.max() < 1.0
    return -np.log1p(-2.0 * theta * eigs).sum() / (2.0 * horizon)


class TestFiniteHorizonRate:
    @pytest.mark.parametrize("case", ["tiny", "paper", "damped"])
    def test_matches_dense_oracle(self, case, tiny, paper):
        model, pi, theta = {
            "tiny": (tiny, np.eye(2), 0.2),
            "paper": (*paper, 0.005),
            "damped": (damped_mode(), np.diag([1.0, 2.0]), 0.01),
        }[case]
        got = finite_horizon_rate(model, pi, theta, 2.0, 0.05)
        assert got == pytest.approx(_dense_rate(model, pi, theta, 2.0, 40), rel=1e-12, abs=0.0)

    def test_damped_mode_fine_step_matches_dense_oracle(self):
        # theta = 0.3/peak over T = 2 at 176 steps: the oracle is 1.6e-16 off a
        # 40-digit reference of the same chain; a log-det from logged Cholesky
        # diagonals drifted to 8.5e-13 here
        model, pi = damped_mode(), np.diag([1.0, 2.0])
        theta = 0.3 / model.weight_facts(pi).density_peak
        got = finite_horizon_rate(model, pi, theta, 2.0, 2.0 / 176)
        assert got == pytest.approx(_dense_rate(model, pi, theta, 2.0, 176), rel=2e-14, abs=0.0)

    def test_damped_mode_long_horizon_is_refused(self):
        # the resonance at lam = -10 puts theta = 0.01 past the two-sided
        # peak; over T = 200 the exponential moment is infinite
        with pytest.raises(ThetaOutOfRange):
            finite_horizon_rate(damped_mode(), np.diag([1.0, 2.0]), 0.01, 200.0, 0.05)


def _continuous_case(name):
    """``(model, Pi, theta)`` of the continuous-rate checks: the paper fixture,
    the one-mode vacuum model at criterion 10's theta and the damped mode at
    0.3/peak."""
    if name == "paper":
        return (*paper_example_model(), 0.001)
    if name == "tiny":
        return model_from_matrices(0.5 * J2, np.zeros((2, 2)), np.eye(2)), np.eye(2), 0.1
    model, pi = damped_mode(), np.diag([1.0, 2.0])
    return model, pi, 0.3 / model.weight_facts(pi).density_peak


def _real_continuous_rate(model, pi, theta, horizon, chunks=64):
    """``rho_c(T)`` from the real ``2n`` augmented state, ``dx = A2 x dt + dw``
    with ``A2 = I2 (x) A`` and ``E dw dw' = Q dt``: the exponent ``K = Z Y^-1``
    of ``E exp(x'Kx)`` follows ``d/dtau [Y; Z] = [[-A2, -2Q], [theta I2 (x) Pi,
    A2']] [Y; Z]`` over ``chunks`` equal steps, each restarting from ``Y =
    I``, and ``T rho_c = -(ln det Y + T tr A2) / 2 - ln det(I - 2 P_aug K) / 2``."""
    d, a2 = 2 * model.n, np.kron(np.eye(2), model.a)
    q = augmented_invariant_cov(model.b @ model.b.T, model.b @ model.j @ model.b.T)
    p_aug = scipy.linalg.solve_continuous_lyapunov(a2, -q)
    ham = np.block([[-a2, -2.0 * q], [theta * np.kron(np.eye(2), pi), a2.T]])
    flow = scipy.linalg.expm(horizon / chunks * ham)
    k, log_y = np.zeros((d, d)), 0.0
    for _ in range(chunks):
        yz = flow @ np.vstack([np.eye(d), k])
        k = np.linalg.solve(yz[:d].T, yz[d:].T).T
        log_y += np.linalg.slogdet(yz[:d])[1]
    return (-0.5 * (log_y + horizon * np.trace(a2))
            - 0.5 * np.linalg.slogdet(np.eye(d) - 2.0 * p_aug @ k)[1]) / horizon


class TestContinuousRate:
    """The twin's exact continuous-time rate, the target of the certified step."""

    @pytest.mark.parametrize("name, tol", [("paper", 1e-12), ("tiny", 1e-12), ("damped", 1e-11)])
    def test_matches_richardson_at_fine_steps(self, name, tol):
        # rho(h/2) + (rho(h/2) - rho(h)) / 3 from 400 and 800 steps over T =
        # 2 agrees to 1.9e-14 (paper), 2.7e-13 (tiny) and 2.5e-12 (damped)
        # relative; a log-det from logged Cholesky diagonals put 5.1e-11 of
        # rounding into the damped mode's fine steps
        model, pi, theta = _continuous_case(name)
        coarse, fine = (finite_horizon_rate(model, pi, theta, 2.0, 2.0 / steps) for steps in (400, 800))
        exact = classical._continuous_rate(model, pi, theta, 2.0)
        assert fine + (fine - coarse) / 3.0 == pytest.approx(exact, rel=tol, abs=0.0)

    @pytest.mark.parametrize("name, horizons, term", [
        ("paper", (20.0, 80.0, 320.0), -0.0022878),
        ("tiny", (20.0, 80.0, 320.0), -0.0031105),
        ("damped", (4000.0, 8000.0), -0.0079405),
    ])
    def test_boundary_term_settles(self, name, horizons, term):
        # T (rho_c(T) - sde) is a boundary term that settles once T spans many
        # relaxation times (1/0.003 on the damped mode): its values over the
        # horizons spread by 2.0e-11 (paper), 3.2e-13 (tiny) and 1.5e-11 (damped)
        model, pi, theta = _continuous_case(name)
        sde = classical_rs_rate_sde(model, pi, theta)
        terms = [t * (classical._continuous_rate(model, pi, theta, t) - sde) for t in horizons]
        assert np.ptp(terms) <= 1e-10
        assert terms[0] == pytest.approx(term, abs=1e-7)

    @pytest.mark.parametrize("name, tol", [("paper", 1e-12), ("tiny", 1e-12), ("damped", 5e-11)])
    def test_matches_the_real_augmented_form(self, name, tol):
        # the n x n complex flow against the 2n real one over T = 2 and 20:
        # at most 1.1e-13 (paper), 3.2e-14 (tiny) and 5.5e-12 (damped) relative
        model, pi, theta = _continuous_case(name)
        for horizon in (2.0, 20.0):
            assert classical._continuous_rate(model, pi, theta, horizon) == pytest.approx(
                _real_continuous_rate(model, pi, theta, horizon), rel=tol, abs=0.0)

    @pytest.mark.parametrize("name, tol", [("paper", 2e-13), ("tiny", 2e-13), ("damped", 1e-11)])
    def test_chunk_count_changes_nothing(self, name, tol, monkeypatch):
        # the chunk count is ceil(T ||H||_2 / 4), read through opnorm2: scaling
        # the norm by 4 and 16 runs 4 and 16 times the chunks, which moves the
        # rate by at most 7.3e-14 (paper), 2.4e-14 (tiny) and 2.4e-12 (damped)
        model, pi, theta = _continuous_case(name)
        norm = classical.opnorm2
        for horizon in (2.0, 20.0):
            rates = []
            for factor in (1.0, 4.0, 16.0):
                monkeypatch.setattr(classical, "opnorm2", lambda k, f=factor: f * norm(k))
                rates.append(classical._continuous_rate(model, pi, theta, horizon))
            assert rates[1:] == pytest.approx([rates[0]] * 2, rel=tol, abs=0.0)


def _pure_models():
    """Models whose invariant state is pure, ``rank(P + i Theta) = n/2``, with
    a weight: the tiny model, the damped mode and an n = 8 congruent-oscillator
    model."""
    rng = np.random.default_rng(8)
    return {
        "tiny": lambda tiny: (tiny, np.eye(2)),
        "damped": lambda tiny: (damped_mode(), np.diag([1.0, 2.0])),
        "congruent8": lambda tiny: (congruent_oscillators(rng, 8), random_sym(rng, 8, psd=True)),
    }


class TestSupportFrame:
    """A pure law's chain runs in the ``n``-dimensional frame of its support."""

    @pytest.fixture(params=list(_pure_models()))
    def pure(self, request, tiny):
        model, pi = _pure_models()[request.param](tiny)
        assert AugmentedStepper.build(model, 0.05).frame.shape == (2 * model.n, model.n)
        return model, pi

    def test_states_lie_on_the_support(self, pure):
        # the null space of P_aug = [[P, -Theta], [Theta, P]] / 2, from its own
        # eigenbasis: the n smallest eigenvalues vanish for a pure state
        model = pure[0]
        _, vecs = np.linalg.eigh(augmented_invariant_cov(model.steady.p, model.theta))
        states = simulate(model, 0.05, 50, 400, seed=2).thetas
        off = np.linalg.norm(states @ vecs[:, :model.n], axis=(1, 2))
        assert np.all(off <= 1e-13 * np.linalg.norm(states, axis=(1, 2)))

    def test_one_ulp_change_of_b_keeps_paths(self, pure):
        # the frame is a polar factor, continuous in the model; an eigenbasis
        # of the doubly degenerate P_aug would move the paths by O(1)
        model = pure[0]
        nudged = dataclasses.replace(model, b=model.b * (1 + 2**-52))
        base = simulate(model, 0.05, 20, 200, seed=5).thetas
        moved = simulate(nudged, 0.05, 20, 200, seed=5).thetas
        assert np.abs(moved - base).max() <= 1e-12 * np.abs(base).max()

    def test_matches_reference_recursion(self, pure, monkeypatch):
        # per-block references in frame coordinates (rank normals per path
        # and step), with fresh arrays every step and mapped back as y U',
        # agree bit for bit with simulate at 1 and at MC_BLOCKS workers
        model = pure[0]
        steps, paths = 6, 67
        stepper = AugmentedStepper.build(model, 0.05)
        frame, rank = stepper.frame, stepper.frame.shape[1]
        init = sqrt_psd(stepper.p_frame)
        blocks = []
        for seq, rows in zip(np.random.SeedSequence(3).spawn(classical.MC_BLOCKS),
                             np.array_split(np.arange(paths), classical.MC_BLOCKS)):
            rng = np.random.Generator(np.random.SFC64(seq))
            state = rng.standard_normal((rows.size, rank)) @ init.T
            ref = [state @ frame.T]
            for _ in range(steps):
                state = (state @ stepper.phi_frame.T
                         + rng.standard_normal((rows.size, rank)) @ stepper.noise_chol.T)
                ref.append(state @ frame.T)
            blocks.append(np.stack(ref))
        for workers in (1, classical.MC_BLOCKS):
            monkeypatch.setattr(classical, "_mc_workers", lambda w=workers: w)
            got = simulate(model, 0.05, steps, paths, seed=3).thetas
            assert np.array_equal(got, np.concatenate(blocks, axis=1))

    def test_batch_keeps_the_frame_coordinates(self, pure):
        # a pure law's batch stores its rank = n frame columns; thetas maps
        # them back to the 2n augmented ones bit for bit as a chunk-by-chunk
        # map of the chain (one product per chunk and block of paths) does
        model = pure[0]
        steps, paths = 40, 301
        stepper = AugmentedStepper.build(model, 0.05)
        want = np.empty((steps + 1, paths, 2 * model.n))

        def fill(lo, hi, chain):
            for k, states, *_ in chain:
                np.matmul(states, stepper.frame.T, out=want[k:k + len(states), lo:hi])

        classical._run_blocks(stepper, steps, paths, 3, fill)
        batch = simulate(model, 0.05, steps, paths, seed=3)
        assert batch.states.shape == (steps + 1, paths, model.n)
        assert np.array_equal(batch.frame, stepper.frame)
        assert (batch.steps, batch.paths) == (steps, paths)
        assert np.array_equal(batch.thetas, want)

    def test_stats_map_two_slices(self, pure):
        # the statistics map only the two slices they read to x, block by
        # block of paths: a few (paths, 2n) slices where the whole batch
        # mapped back holds 21
        model, pi = pure
        batch = simulate(model, 0.05, 20, 4000, seed=8)
        slice_bytes = batch.paths * 2 * model.n * 8
        tracemalloc.start()
        try:
            mc_stationary_stats(batch, 4)
            mc_quadform_variance(batch, pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * slice_bytes

    def test_finite_horizon_rate_matches_dense_oracle(self, pure):
        # the frame recursion against the oracle in full 2n coordinates
        model, pi = pure
        theta = 0.2 / model.weight_facts(pi).density_peak
        got = finite_horizon_rate(model, pi, theta, 2.0, 0.05)
        assert got == pytest.approx(_dense_rate(model, pi, theta, 2.0, 40), rel=1e-12, abs=0.0)

    def test_other_laws_take_the_identity_frame(self, tiny, paper):
        # the paper fixture's mixed law runs the chain in the 2n original
        # coordinates, where every frame product is exact, and its batch
        # stores them once as its thetas; B = 0 (P + i Theta = i Theta is
        # no state) has no law and no stepper
        model = paper[0]
        stepper = AugmentedStepper.build(model, 0.05)
        phi = np.kron(np.eye(2), expm(model.a, 0.05))
        p_aug, _ = _invariant_aug(model)
        sigma = p_aug - phi @ p_aug @ phi.T
        assert np.array_equal(stepper.frame, np.eye(2 * model.n))
        assert np.array_equal(stepper.phi_frame, phi)
        assert np.array_equal(stepper.p_frame, p_aug)
        assert np.array_equal(stepper.noise_chol, sqrt_psd(0.5 * (sigma + sigma.T)))
        batch = simulate(model, 0.05, 5, 64, seed=42)
        assert batch.states.shape == (6, 64, 8) and batch.thetas is batch.states
        with pytest.raises(NumericalDefect):
            AugmentedStepper.build(dataclasses.replace(tiny, b=np.zeros((2, 2))), 0.05)


class TestChainChunks:
    """The chain draws and steps its states in chunks sized by bytes."""

    @pytest.mark.parametrize("case", ["paper", "tiny"])
    def test_chunk_size_changes_no_bit(self, case, tiny, paper, monkeypatch):
        # one state per chunk, the default, and one chunk for the whole
        # horizon: the paper fixture's mixed law runs in the 2n coordinates,
        # the tiny model's pure law in the n-dimensional frame of its support
        model, pi, theta, horizon, paths, h = {
            "paper": (*paper, 0.001, 2.0, 1001, 0.05),
            "tiny": (tiny, np.eye(2), 0.05, 5.0, 500, 0.02),
        }[case]
        steps = max(round(horizon / h), 37)
        whole = 8 * 2 * model.n * -(-paths // classical.MC_BLOCKS) * steps
        runs = []
        for budget in (1, classical._CHAIN_BYTES, whole):
            monkeypatch.setattr(classical, "_CHAIN_BYTES", budget)
            runs.append((simulate(model, 0.05, 37, paths, seed=3).thetas,
                         mc_rs_rate(model, pi, theta, horizon, paths, seed=3, h=h),
                         mc_rs_rate(model, pi, theta, horizon, paths, seed=3)))
        assert round(horizon / runs[0][2].h) <= steps
        for sim, explicit, certified in runs[1:]:
            assert np.array_equal(sim, runs[0][0])
            assert explicit == runs[0][1] and certified == runs[0][2]
