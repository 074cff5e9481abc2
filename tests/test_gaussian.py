import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad_vec

from conftest import J2, make_models
from oqrisk.errors import DimensionMismatch, InvalidArgument, NotHurwitz
from oqrisk.gaussian import (
    gramian_finite,
    gramian_steady,
    qcf_multipoint_steady,
    spectral_identity_residual,
)
from oqrisk.matfun import expm

PAPER_P = np.array([
    [3.7981, -2.5143, -3.8716, -1.6214],
    [-2.5143, 4.9443, 0.5356, 0.4305],
    [-3.8716, 0.5356, 6.7086, 2.8509],
    [-1.6214, 0.4305, 2.8509, 1.4473],
])


class TestSteady:
    def test_tiny_closed_form(self, tiny):
        steady = gramian_steady(tiny)
        assert np.allclose(steady.p, 0.5 * np.eye(2), atol=1e-13)
        w = np.linalg.eigvalsh(steady.quantum_cov)
        assert np.allclose(w, [0.0, 1.0], atol=1e-13)

    def test_paper_matches_printed(self, paper):
        steady = gramian_steady(paper[0])
        tol = 5e-3 * np.abs(PAPER_P).max()
        assert np.abs(steady.p - PAPER_P).max() < tol

    def test_zero_dispersion_gramian(self, tiny):
        # B = 0 zeroes the Gramian at the solver level; the certified path
        # must then reject the state, since a zero P cannot dominate Theta
        from oqrisk.errors import NumericalDefect
        from oqrisk.matfun import lyap_solve

        assert np.allclose(lyap_solve(tiny.a, np.zeros((2, 2))), 0.0, atol=1e-15)
        silent = dataclasses.replace(tiny, b=np.zeros((2, 2)))
        with pytest.raises(NumericalDefect):
            gramian_steady(silent)

    def test_refuses_marginal(self, tiny):
        marginal = dataclasses.replace(tiny, spectral_abscissa=0.0)
        with pytest.raises(NotHurwitz):
            gramian_steady(marginal)


class TestFiniteGramian:
    def test_zero_horizon(self, paper):
        assert np.array_equal(gramian_finite(paper[0], 0.0), np.zeros((4, 4)))

    def test_tiny_closed_form(self, tiny):
        for t in (0.3, 1.0, 2.5):
            target = 0.5 * (1.0 - np.exp(-2.0 * t)) * np.eye(2)
            assert np.allclose(gramian_finite(tiny, t), target, atol=1e-12)

    def test_paper_long_horizon_saturates(self, paper):
        model = paper[0]
        p = gramian_steady(model).p
        sig = gramian_finite(model, 20.0)
        assert np.abs(sig - p).max() <= 1e-6 * np.abs(p).max()

    def test_monotone_psd(self, paper):
        model = paper[0]
        prev = gramian_finite(model, 0.5)
        for t in (1.0, 2.0, 4.0):
            cur = gramian_finite(model, t)
            assert np.linalg.eigvalsh(cur - prev).min() > -1e-10
            prev = cur

    def test_negative_time(self, tiny):
        with pytest.raises(InvalidArgument):
            gramian_finite(tiny, -0.1)

    def test_matches_quadrature(self, paper):
        model = paper[0]
        t = 1.3

        def integrand(s):
            e = expm(model.a, s)
            return e @ model.b @ model.b.T @ e.T

        direct, _ = quad_vec(integrand, 0.0, t, epsabs=1e-10, epsrel=1e-10, limit=2000)
        assert np.abs(gramian_finite(model, t) - direct).max() < 1e-8


class TestKernels:
    def test_zero_lag(self, paper):
        model = paper[0]
        steady = gramian_steady(model)
        s = model.kernel(0.0)
        v, lam = s.real, s.imag
        assert np.allclose(v, steady.p, atol=1e-12)
        assert np.allclose(lam, model.theta, atol=1e-12)
        assert np.allclose(s, steady.quantum_cov, atol=1e-12)

    def test_tiny_unit_lag(self, tiny):
        s = tiny.kernel(1.0)
        target = np.exp(-1.0) * 0.5 * (np.eye(2) + 1j * J2)
        assert np.abs(s - target).max() < 1e-13

    def test_lag_symmetries(self):
        for model, rng in make_models(seed=23, count=5):
            for tau in rng.uniform(0.1, 3.0, 3):
                s_neg, s_pos = model.kernel(-tau), model.kernel(tau)
                assert np.abs(s_neg - s_pos.conj().T).max() < 1e-12
                assert np.abs(s_neg.real - s_pos.real.T).max() < 1e-12
                assert np.abs(s_neg.imag + s_pos.imag.T).max() < 1e-12

    def test_hermitian_kernel_positivity(self):
        for model, rng in make_models(seed=29, count=50):
            taus = np.sort(rng.uniform(0.0, 4.0, 5))
            n = model.n
            block = np.empty((5 * n, 5 * n), dtype=complex)
            for j in range(5):
                for k in range(5):
                    block[j * n:(j + 1) * n, k * n:(k + 1) * n] = model.kernel(taus[j] - taus[k])
            wmin = np.linalg.eigvalsh(block).min()
            scale = np.abs(block).max()
            assert wmin >= -1e-8 * scale


class TestSpectralDensity:
    """``OqhoModel.density_pair``: ``(D(lam), D(-lam)')`` stacked over
    frequencies."""

    def test_tiny_closed_form(self, tiny):
        omega = np.eye(2) + 1j * J2
        lams = (0.0, 0.7, 3.0)
        for lam, d in zip(lams, tiny.density_pair(lams)[0]):
            target = omega / (1.0 + lam * lam)
            assert np.abs(d - target).max() < 1e-13

    def test_hermitian_psd(self):
        for model, rng in make_models(seed=31, count=10):
            for d in model.density_pair(rng.uniform(-20.0, 20.0, 4))[0]:
                assert np.abs(d - d.conj().T).max() < 1e-12
                assert np.linalg.eigvalsh(d).min() >= -1e-10 * max(np.abs(d).max(), 1e-300)

    def test_resolvent_decay(self, paper):
        lams = (1e2, 1e3, 1e4)
        vals = [np.linalg.norm(d, 2) * lam**2
                for lam, d in zip(lams, paper[0].density_pair(lams)[0])]
        assert max(vals) < 10.0 * np.linalg.norm(paper[0].b @ paper[0].b.T, 2)

    def test_flip_identity(self, paper):
        lams = np.array([0.4, 2.2])
        _, flips = paper[0].density_pair(lams)
        for flip, d in zip(flips, paper[0].density_pair(-lams)[0]):
            assert np.abs(flip - d.T).max() < 1e-13

    def test_stacked_matches_single_frequency(self, paper):
        lams = np.array([-2.525, 0.0, 0.4, 17.0, 1e3])
        d, flip = paper[0].density_pair(lams)
        for k, lam in enumerate(lams):
            d1, flip1 = paper[0].density_pair([lam])
            scale = np.abs(d1).max()
            assert np.abs(d[k] - d1[0]).max() <= 1e-14 * scale
            assert np.abs(flip[k] - flip1[0]).max() <= 1e-14 * scale

    def test_inverse_transform_paper(self, paper):
        assert spectral_identity_residual(paper[0]) < 1e-6

    def test_inverse_transform_tiny(self, tiny):
        assert spectral_identity_residual(tiny) < 1e-6


@pytest.mark.parametrize("times", [
    pytest.param(np.linspace(0.0, 2.0, 9), id="sorted"),
    pytest.param(np.array([1.3, 0.2, 2.9, 0.7, 0.0]), id="unsorted"),
    pytest.param(np.array([0.5, 1.5, 1.5, 0.5, 2.25]), id="repeated"),
])
def test_multipoint_cov_matches_per_pair(paper, times):
    # S on the lag matrix, one expm per distinct |t_i - t_j|: bit for bit
    # the per-pair e^{|tau| A} (P + i Theta), conjugate-transposed below zero
    model = paper[0]
    quantum = gramian_steady(model).quantum_cov

    def s_pair(tau):
        s = expm(model.a, abs(tau)) @ quantum
        return s.conj().T if tau < 0 else s

    want = np.array([[s_pair(a - b) for b in times] for a in times])
    got = model.kernel(np.subtract.outer(times, times))
    assert np.array_equal(got, want)


class TestMultiPointQcf:
    def test_zero_vectors(self, paper):
        times = np.array([0.0, 1.0, 2.0])
        assert qcf_multipoint_steady(paper[0], times, np.zeros((3, 4))) == 1.0

    def test_single_point_reduction(self, paper):
        model = paper[0]
        p = gramian_steady(model).p
        v = np.array([0.3, 0.1, -0.2, 0.4])
        val = qcf_multipoint_steady(model, [1.7], [v])
        assert val == pytest.approx(np.exp(-0.5 * v @ p @ v), rel=1e-12, abs=0.0)

    def test_modulus_bounded(self):
        for model, rng in make_models(seed=37, count=20):
            times = np.sort(rng.uniform(0.0, 5.0, 4))
            vecs = rng.standard_normal((4, model.n))
            assert abs(qcf_multipoint_steady(model, times, vecs)) <= 1.0 + 1e-15

    def test_recurrence_identity(self):
        # last point folds into the previous one through the propagator and
        # a finite-horizon Gaussian factor
        for model, rng in make_models(seed=41, count=25):
            times = np.sort(rng.uniform(0.0, 4.0, 4))
            vecs = rng.standard_normal((4, model.n))
            full = qcf_multipoint_steady(model, times, vecs)
            dt = times[3] - times[2]
            folded = vecs[:3].copy()
            folded[2] = folded[2] + expm(model.a, dt).T @ vecs[3]
            reduced = qcf_multipoint_steady(model, times[:3], folded)
            factor = np.exp(-0.5 * vecs[3] @ gramian_finite(model, dt) @ vecs[3])
            assert abs(full - reduced * factor) <= 1e-10 * abs(full) + 1e-14

    def test_equal_times_merge(self, paper):
        model = paper[0]
        rng = np.random.default_rng(5)
        vecs = rng.standard_normal((3, 4))
        times = np.array([0.5, 1.5, 1.5])
        merged = np.stack([vecs[0], vecs[1] + vecs[2]])
        lhs = qcf_multipoint_steady(model, times, vecs)
        rhs = qcf_multipoint_steady(model, times[:2], merged)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)

    def test_shift_invariance(self, paper):
        model = paper[0]
        rng = np.random.default_rng(9)
        times = np.sort(rng.uniform(0.0, 3.0, 3))
        vecs = rng.standard_normal((3, 4))
        base = qcf_multipoint_steady(model, times, vecs)
        shifted = qcf_multipoint_steady(model, times + 7.3, vecs)
        assert shifted == pytest.approx(base, rel=1e-12, abs=0.0)

    def test_unsorted_rejected(self, paper):
        with pytest.raises(InvalidArgument):
            qcf_multipoint_steady(paper[0], [1.0, 0.5], np.zeros((2, 4)))


NAN = float("nan")


@pytest.mark.parametrize("call, expected", [
    (lambda m, p: qcf_multipoint_steady(m, [0.0, 1.0], np.full((2, m.n), NAN)),
     InvalidArgument),
    (lambda m, p: m.density_factor([NAN]), InvalidArgument),
    (lambda m, p: m.density_factor(np.zeros((2, 2))), DimensionMismatch),
    (lambda m, p: m.weight_facts(np.eye(m.n)).density_eigs([NAN]), InvalidArgument),
], ids=["qcf-multipoint-nan-vectors", "density-factor-nan", "density-factor-2d",
        "density-eigs-nan"])
def test_second_order_inputs_raise_typed_errors(paper, call, expected):
    # refused before any arithmetic, so no NaN and no bare numpy error escapes
    model = paper[0]
    with pytest.raises(expected):
        call(model, gramian_steady(model).p)
