import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import oqrisk

from conftest import by_blocks, congruent_n32, damped_mode, paper_example_model
from oqrisk import model_from_matrices
from oqrisk.deviations import GRADE_DEPTH, DeviationAnalysis
from oqrisk.errors import (
    NoConvergence,
    NotHurwitz,
    NotPsd,
    NumericalDefect,
    ThetaOutOfRange,
)
from oqrisk.matfun import (
    DIAG_COND,
    RULE_ORDER,
    _frequency_rule,
    _kronrod,
    _care,
    _care_from,
    _legendre,
    _logdet_i_minus,
    _panels,
    _resonance_edges,
    _rule_layout,
    eig_basis,
    expm,
    expm_ladder,
    integrate_frequency,
    lyap_solve,
    opnorm2,
    sqrt_psd,
)
from oqrisk.model import canonical_ccr

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def kron_lyap(a, q):
    """Reference oracle: the Lyapunov equation as a dense n^2 x n^2 system."""
    n = a.shape[0]
    kron = np.kron(np.eye(n), a) + np.kron(a, np.eye(n))
    return np.linalg.solve(kron, -q.flatten(order="F")).reshape((n, n), order="F")


def random_hurwitz(rng, n):
    a = rng.standard_normal((n, n))
    return a - (np.linalg.eigvals(a).real.max() + rng.uniform(0.2, 2.0)) * np.eye(n)


def defective_drift(r2=0.0):
    """``test_defective_drift``'s model, ``A = [[-0.5, 0], [-1, -0.5]]`` (a
    defective double eigenvalue) at ``R = diag(1, 0)``; ``R = diag(1, 10^-k)``
    gives the near-defective drift at ``k``."""
    return model_from_matrices(canonical_ccr(2).theta, np.diag([1.0, r2]),
                               np.sqrt(0.5) * np.eye(2))


def count_calls(monkeypatch, name):
    """A list that gains an entry at each call of ``scipy.linalg.<name>``, the
    SciPy fallbacks ``matfun`` imports lazily, from here on."""
    calls, func = [], getattr(scipy.linalg, name)
    monkeypatch.setattr(scipy.linalg, name, lambda *a, **k: calls.append(1) or func(*a, **k))
    return calls


def _n32_step(top):
    """The n = 32 congruent-oscillator drift and the top rung ``2 / (1 + ||A||)``
    or the floor ``min(0.02, 0.1 / (1 + ||A||))`` of the certified Monte Carlo step."""
    a = congruent_n32()[0].a
    scale = 1.0 + opnorm2(a)
    return a, (2.0 / scale if top else min(0.02, 0.1 / scale))


def _paper_flow_chunk():
    """``-H`` and one chunk of the paper fixture's continuous-rate flow at theta 0.001."""
    model, pi = paper_example_model()
    flow = -model.weight_facts(pi)._hamiltonian(0.001)
    return flow, 2.0 / np.ceil(2.0 * opnorm2(flow) / 4.0)


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
        from oqrisk.errors import NumericalDefect

        with pytest.raises(NumericalDefect):
            expm(np.diag([1000.0, -1.0]), 1.0)

    @pytest.mark.parametrize("case, tol", [
        (lambda: (paper_example_model()[0].a, 2.0), 1e-14),
        (lambda: (paper_example_model()[0].a, 100.0), 2e-13),
        (lambda: (damped_mode().a, 100.0), 3e-11),
        (lambda: (damped_mode().a, 831.0), 3e-10),
        (lambda: (-np.eye(4) + np.eye(4, k=1), 1.0), 1e-15),
        (lambda: (-np.eye(4) + np.eye(4, k=1), 30.0), 1e-14),
        (lambda: _n32_step(top=False), 1e-15),
        (lambda: _n32_step(top=True), 2e-15),
        (_paper_flow_chunk, 2e-15),
    ], ids=["paper-2", "paper-100", "damped-100", "damped-831", "jordan4-1", "jordan4-30",
            "n32-floor-step", "n32-top-step", "paper-flow-chunk"])
    def test_matches_scipy_on_the_librarys_calls(self, case, tol):
        # the largest entry error over the largest entry against SciPy's expm,
        # measured at one BLAS thread and at OpenBLAS's default: 4.0e-15 and
        # 6.8e-14 (paper fixture, the kernel's lags), 9.8e-12 and 1.2e-10 (the
        # damped mode; SciPy's own error, 9.7e-12 and 1.2e-10 against a
        # 40-digit mpmath expm, where this one is 4.0e-14 and 3.3e-13), 1.5e-16
        # and 1.8e-15 (a 4 x 4 Jordan block), 1.1e-16 and 5.5e-16 (the n = 32
        # model at the Monte Carlo step's floor and top rung) and 6.5e-16 (a
        # chunk of the paper fixture's continuous-rate flow, complex)
        a, t = case()
        ref = scipy.linalg.expm(t * a)
        assert np.abs(expm(a, t) - ref).max() <= tol * np.abs(ref).max()

    def test_expm_multi_matches_pointwise(self):
        # batched lag ladder against pointwise expm: a diagonalizable drift
        # (eigenvector route) and a Jordan block (stepping fallback)
        rng = np.random.default_rng(3)
        jordan = np.array([[-1.0, 1.0], [0.0, -1.0]])
        for a in (rng.standard_normal((3, 3)) - 2.0 * np.eye(3), jordan):
            basis = eig_basis(a)
            assert (basis.inverse is None) == (a is jordan)
            eye = np.eye(len(a))
            batch = expm_ladder(a, basis, 0.3, 7, left=eye, right=eye, reduce=lambda b: b)
            assert batch.shape == (7, len(a), len(a))
            for k in range(7):
                assert np.abs(batch[k] - expm(a, 0.3 * k)).max() < 1e-11
            # a later start: the eigenvector phases, or the stepping from expm(1.1 a)
            late = expm_ladder(a, basis, 0.3, 7, left=eye, right=eye, reduce=lambda b: b,
                               start=1.1)
            for k in range(7):
                assert np.abs(late[k] - expm(a, 1.1 + 0.3 * k)).max() < 1e-11

    def test_ladder_factors_and_chunks(self, monkeypatch):
        import oqrisk.matfun as matfun

        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
        left = rng.standard_normal((2, 3))
        right = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        # a budget of exactly three complex 2 x 3 lags
        monkeypatch.setattr(matfun, "_STACK_BYTES", 3 * 2 * 3 * 16)
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

    def test_complex_drift(self):
        # the shape of the classical rates' closed loop A + F X: the damped
        # mode (-0.003 +- 10i) with a complex Hermitian feedback F; the
        # equation is AX + XA^H + Q = 0 and a Hermitian Q gives a Hermitian X
        model = damped_mode()
        a = model.a - model.b @ model.omega @ model.b.T @ np.diag([1.0, 2.0])
        assert np.linalg.eigvals(a).real.max() < -1e-3
        q = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
        x = lyap_solve(a, q)
        res = np.linalg.norm(a @ x + x @ a.conj().T + q)
        assert res <= 1e-12 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q))
        assert np.abs(x - x.conj().T).max() <= 1e-15 * np.abs(x).max()
        kron = np.kron(np.eye(2), a) + np.kron(a.conj(), np.eye(2))
        ref = np.linalg.solve(kron, -q.flatten(order="F")).reshape((2, 2), order="F")
        assert np.abs(x - ref).max() <= 1e-11 * np.abs(ref).max()

    def test_real_drift_with_complex_q(self):
        # the twin's Gramian theta Sigma: a real A with the complex Hermitian
        # Q = theta B Omega B' of the paper fixture solves as its complex cast
        model, _ = paper_example_model()
        a, q = model.a, 0.001 * model.b @ model.omega @ model.b.T
        x = lyap_solve(a, q)
        assert np.array_equal(x, lyap_solve(a.astype(complex), q))
        res = np.linalg.norm(a @ x + x @ a.T + q)
        assert res <= 1e-12 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q))

    def test_rejects_non_hurwitz(self):
        with pytest.raises(NotHurwitz):
            lyap_solve(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(NotHurwitz):
            lyap_solve(np.diag([-1.0, 1e-12]), np.eye(2))

    def test_defective_drift_takes_the_scipy_fallback(self, monkeypatch):
        # cond(V) is 9e15 at A = [[-0.5, 0], [-1, -0.5]], past DIAG_COND: the
        # eigenbasis is refused and Bartels-Stewart solves
        model = defective_drift()
        assert model.eig.cond >= DIAG_COND
        a, q = model.a, model.b @ model.b.T
        ref = scipy.linalg.solve_continuous_lyapunov(a, -q)
        calls = count_calls(monkeypatch, "solve_continuous_lyapunov")
        assert np.array_equal(lyap_solve(a, q), ref) and len(calls) == 1

    def test_near_defective_drifts_certify_or_fall_back(self, monkeypatch):
        # at R = diag(1, 10^-k), cond(V) ~ 10^(k/2) stays below DIAG_COND up to
        # k = 13, and the eigenbasis solve's error grows like cond(V)^2 eps.
        # Measured: the eigen route passes its certificate at k = 2..6, 11 and
        # 13, at most 3.0e-11 off SciPy (k = 6; 1.1e-15 at k = 2, 2.6e-13 at
        # k = 13), and fails it at k = 7 (residual 1.1e-10), 8, 9, 10 (1.4e-10)
        # and 12, where Bartels-Stewart solves
        solve = scipy.linalg.solve_continuous_lyapunov
        calls = count_calls(monkeypatch, "solve_continuous_lyapunov")
        fell = set()
        for k in range(2, 14):
            model = defective_drift(10.0 ** -k)
            a, q = model.a, model.b @ model.b.T
            assert model.eig.cond < DIAG_COND
            before, x = len(calls), lyap_solve(a, q)
            ref = solve(a, -q)
            res = np.linalg.norm(a @ x + x @ a.T + q)
            assert res <= 1e-10 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q))
            if len(calls) > before:
                fell.add(k)
                assert np.array_equal(x, ref)
            else:
                assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()
        assert {7, 10} <= fell and not fell & {2, 3, 4, 5}

    def test_well_conditioned_drifts_stay_on_numpy(self, monkeypatch):
        calls = count_calls(monkeypatch, "solve_continuous_lyapunov")
        rng = np.random.default_rng(14)
        for n in (2, 8, 32):
            a = random_hurwitz(rng, n)
            lyap_solve(a, np.eye(n))
        model, pi = paper_example_model()
        lyap_solve(model.a, model.b @ model.b.T)
        lyap_solve(model.a.T, pi)
        assert calls == []


class TestCare:
    """The stabilising Riccati solution: stable eigenvectors of ``H``, else an
    ordered Schur form."""

    @staticmethod
    def schur_route(ham):
        z = scipy.linalg.schur(ham, output="complex", sort="lhp")[1]
        return _care_from(ham, z[:, :len(ham) // 2])

    def test_defective_drift_takes_the_schur_fallback(self, monkeypatch):
        # at theta = 0, H = [[A, 0], [-Pi, -A']] has A's defective eigenvalue:
        # its eigenvectors are refused (cond >= DIAG_COND), the ordered Schur
        # form gives the subspace, and X is the Lyapunov solution Q of
        # A'Q + QA + Pi = 0
        facts = defective_drift().weight_facts(np.diag([1.0, 2.0]))
        ham = facts._hamiltonian(0.0)
        assert eig_basis(ham).inverse is None
        ref = self.schur_route(ham)
        calls = count_calls(monkeypatch, "schur")
        x = _care(ham)
        assert len(calls) == 1 and np.array_equal(x, ref)
        assert np.abs(x - facts.q).max() <= 1e-14 * np.abs(facts.q).max()

    @pytest.mark.parametrize("name", ["defective", "paper"])
    def test_eigen_route_matches_the_schur_route(self, name, monkeypatch):
        # below the peak H's eigenvectors are well conditioned (cond 44 to 360
        # on the defective drift, 120 to 1400 on the paper fixture); measured
        # against the Schur route: at most 8.8e-17 and 9.3e-15 relative
        model, pi = (defective_drift(), np.diag([1.0, 2.0])) if name == "defective" \
            else paper_example_model()
        facts = model.weight_facts(pi)
        hams = [facts._hamiltonian(frac / facts.density_peak) for frac in (0.01, 0.3, 0.9, 0.999)]
        refs = [self.schur_route(ham) for ham in hams]
        calls = count_calls(monkeypatch, "schur")
        for ham, ref in zip(hams, refs):
            assert np.abs(_care(ham) - ref).max() <= 3e-14 * np.abs(ref).max()
        assert calls == []


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


def _stacked_psd(rng, count, n, complex_):
    """``count`` random PSD ``n x n`` matrices of unit operator norm, real or
    Hermitian, stacked."""
    g = rng.standard_normal((count, n, n))
    if complex_:
        g = g + 1j * rng.standard_normal((count, n, n))
    w = g @ g.conj().swapaxes(-1, -2)
    return w / np.linalg.norm(w, 2, axis=(-2, -1))[:, None, None]


class TestLogdetIMinus:
    """``_logdet_i_minus``: ``ln det(I - X)`` as ``sum log1p(-s_j)`` with its
    Cholesky factor, accurate to the last digits however small ``X`` is."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("scale", [1e-14, 1e-9, 1e-4, 0.5])
    def test_matches_log1p_of_the_eigenvalues(self, complex_, scale):
        # one sign per stack: the eigenvalues' terms do not cancel, so the
        # relative gap is the two forms' rounding (a few eps each)
        rng = np.random.default_rng(3)
        for sign in (1.0, -1.0):
            x = sign * scale * _stacked_psd(rng, 5, 6, complex_)
            got, chol = _logdet_i_minus(x)
            ref = np.log1p(-np.linalg.eigvalsh(x)).sum(-1)
            assert got.shape == (5,)
            assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))
            eye = np.eye(6)
            assert np.abs(chol @ chol.conj().swapaxes(-1, -2) - (eye - x)).max() <= 1e-15
            assert np.array_equal(chol, np.linalg.cholesky(eye - x))

    def test_diagonal_closed_form(self):
        # a diagonal X has s_j = x_jj exactly, down to 1e-300
        d = np.array([[1e-300, 1e-14, -3e-9, 0.25], [0.0, 0.0, 0.0, 0.0]])
        got, _ = _logdet_i_minus(d[:, :, None] * np.eye(4))
        assert np.array_equal(got, np.log1p(-d).sum(-1))
        assert got[0] != 0.0 and got[1] == 0.0

    @pytest.mark.parametrize("off", [3e-8, 2e-8 - 1e-8j])
    def test_two_by_two_closed_form(self, off):
        # det(I - X) = (1 - a)(1 - c) - |b|^2 for X = [[a, conj b], [b, c]]
        a, c = 1e-9, -4e-10
        x = np.array([[a, np.conj(off)], [off, c]])
        got, _ = _logdet_i_minus(x)
        exact = np.log1p(-a) + np.log1p(-c) + np.log1p(-abs(off) ** 2 / ((1 - a) * (1 - c)))
        assert got == pytest.approx(exact, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("top", [1.0, 1.5])
    def test_refuses_a_non_positive_i_minus_x(self, top):
        x = np.stack([np.diag([0.5, 1e-3]), np.diag([top, 0.0])])
        with pytest.raises(ThetaOutOfRange):
            _logdet_i_minus(x)
        with pytest.raises(ThetaOutOfRange):
            _logdet_i_minus(1j * 0.0 + x[1])

    def test_refuses_a_nan(self):
        x = np.diag([0.1, np.nan])
        with pytest.raises(NumericalDefect):
            _logdet_i_minus(x)
        with pytest.raises(NumericalDefect):
            _logdet_i_minus(np.stack([np.eye(2) * 0.1, x]))


def lorentzian(lam, centre, width):
    return width / np.pi / ((lam - centre) ** 2 + width**2)


class TestQuadrature:
    """The frequency rule, integrate_frequency."""

    def test_lorentzian_over_line(self):
        # widths 1 and 1e-3 at +-10, each of unit mass over the line: the
        # sum is even, so the half line carries half of the mass 4
        def f(lam):
            return sum(lorentzian(lam, c, w) for c in (-10.0, 10.0) for w in (1.0, 1e-3))

        poles = [-1.0 + 10j, -1.0 - 10j, -1e-3 + 10j, -1e-3 - 10j]
        assert integrate_frequency(by_blocks(f), poles) == pytest.approx(2.0, rel=1e-12, abs=0.0)

    def test_matrix_valued(self):
        def f(lam):
            lam = lam[:, None, None]
            one, two = 1.0 + lam**2, 4.0 + lam**2
            return np.block([[1.0 / one, 1.0 / one**2], [lam**2 / one**2, 2.0 / two]])

        out = integrate_frequency(by_blocks(f), [-1.0, -2.0])
        assert out.shape == (2, 2)
        assert np.abs(out - np.pi / 2 * np.array([[1.0, 0.5], [0.5, 1.0]])).max() < 1e-12

    def test_zero_integrand(self):
        assert integrate_frequency(by_blocks(np.zeros_like), [-1.0 + 3j, -1.0 - 3j]) == 0.0

    def test_slow_decay_rejected(self):
        # 1/|lam| tails are not integrable: the tail panels never settle
        with pytest.raises(NoConvergence):
            integrate_frequency(by_blocks(lambda lam: 1.0 / (1.0 + np.abs(lam))), [-1.0])

    def test_missing_narrow_pole_is_refused(self):
        # the rule is graded for width-1 resonances only: halving cannot
        # resolve the width-1e-3 one within the fixed depth
        def f(lam):
            return lorentzian(lam, 10.0, 1.0) + lorentzian(lam, 10.0, 1e-3)

        with pytest.raises(NoConvergence):
            integrate_frequency(by_blocks(f), [-1.0 + 10j, -1.0 - 10j])

    def test_table_is_the_gauss_half_of_the_rule(self, paper):
        # the tail bounds' table keeps the Gauss nodes of the rule's Kronrod
        # panels: 16-point Legendre panels on the resonance edges of the pair
        # poles and the pseudo-pole at 0, then the mapped tail, bit for bit
        da = DeviationAnalysis(*paper)
        base, mu = da._lam_base(), da.model.eig.values
        poles = np.append(np.add.outer(mu, mu.conj()), -base * 2.0**-GRADE_DEPTH)
        edges = _resonance_edges(poles, base)
        x, w = np.polynomial.legendre.leggauss(16)
        half, s = 0.5 * np.diff(edges)[:, None], 0.5 * (1.0 + x)
        assert np.array_equal(da._table.nodes, np.concatenate(
            [(edges[:-1, None] + half * (1.0 + x)).ravel(), base / s]))
        assert np.array_equal(da._table.weights, np.concatenate(
            [(half * w).ravel(), 0.5 * w * base / s**2]))
        # the Legendre nodes are computed once per order and shared read-only
        cached = _legendre(16)
        assert _legendre(16) is cached
        with pytest.raises(ValueError):
            cached[0][0] = 0.0

    def test_kronrod_extends_the_gauss_rule(self):
        # the 33-node Kronrod rule keeps the 16 Gauss nodes, has positive
        # weights, integrates x^k exactly for k <= 3 * 16 + 1 and embeds the
        # Gauss weights at the Gauss nodes
        x, wk, wg = _kronrod(16)
        xg, w16 = _legendre(16)
        assert x.size == wk.size == wg.size == 33
        assert np.abs(np.subtract.outer(xg, x)).min(axis=1).max() <= 1e-15
        assert np.all(wk > 0.0) and np.all(np.abs(x) < 1.0)
        assert np.array_equal(wg[np.isin(x, xg)], w16) and np.count_nonzero(wg) == 16
        for k in range(50):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(wk @ x**k - exact) <= 1e-14, k
            assert abs(wg @ x**k - exact) <= 1e-14 or k >= 32, k

    def test_kronrod_rule_cached_read_only(self):
        cached = _kronrod(16)
        assert _kronrod(16) is cached
        for a in cached:
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_layout_cached_per_pole_set(self):
        # the rule's panels lie on the fresh _resonance_edges, bit for bit, its
        # nodes are read-only, and each pole set and upper end has its own
        layouts = []
        for poles in (paper_example_model()[0].eig.values, damped_mode().eig.values):
            span = 2.0 * np.abs(poles).max() + 1.0
            nodes = _frequency_rule(poles, span, 0)[0]
            mid = _panels(_resonance_edges(poles, span), *_kronrod(RULE_ORDER))[0]
            assert np.array_equal(nodes[:mid.size], mid)
            with pytest.raises(ValueError):
                nodes[0] = 1.0
            assert _frequency_rule(poles, span, 0)[0] is nodes
            assert not np.array_equal(_frequency_rule(poles, 2.0 * span, 0)[0][:mid.size], mid)
            layouts.append(nodes)
        assert layouts[0].size != layouts[1].size or not np.array_equal(*layouts)

    def test_rule_cached_per_pole_set_and_level(self):
        # nodes and weights are built once per pole set, upper end and level,
        # read-only, and equal a fresh build bit for bit
        poles = paper_example_model()[0].eig.values
        span = 2.0 * np.abs(poles).max() + 1.0
        for level in (0, 1):
            nodes, weights = _frequency_rule(poles, span, level)
            assert _frequency_rule(list(poles), span, level)[0] is nodes
            fresh = _rule_layout.__wrapped__(poles.tobytes(), span, level)
            assert np.array_equal(nodes, fresh[0]) and np.array_equal(weights, fresh[1])
            for a in (nodes, weights):
                with pytest.raises(ValueError):
                    a[0] = 0.0

    def test_panels_no_wider_than_pole_distance(self):
        poles = np.array([-0.003 + 10j, -0.003 - 10j, -2.0])
        span = 2.0 * np.abs(poles).max() + 1.0  # integrate_frequency's upper end
        edges = _resonance_edges(poles, span)
        assert edges[0] == 0.0 and edges[-1] == span
        centres = np.concatenate([poles.imag, -poles.imag])
        depths = np.abs(np.concatenate([poles.real, poles.real]))
        for a, b in zip(edges[:-1], edges[1:]):
            gap = np.maximum(np.maximum(a - centres, centres - b), 0.0)
            assert b - a <= np.hypot(gap, depths).min()

    def test_array_ladder_matches_per_centre_ladders(self):
        # a spectrum like the n = 32 benchmark model's (frequencies 0.5..3,
        # dampings 0.45..1, randomly paired) and its pair poles mu_i +
        # conj(mu_j), Im >= 0, with the tail-bound table's pseudo-pole at 0
        rng = np.random.default_rng(32)
        freqs, damps = np.linspace(0.5, 3.0, 16), rng.permutation(np.linspace(0.45, 1.0, 16))
        mu = np.concatenate([-damps + 1j * freqs, -damps - 1j * freqs])
        pairs = np.add.outer(mu, mu.conj()).ravel()
        pairs = np.append(pairs[pairs.imag >= 0.0], -70.0 * 2.0**-40)
        for poles, upper in ((mu, 2.0 * np.abs(mu).max() + 1.0), (pairs, 70.0 * 2.0**3)):
            assert np.array_equal(_resonance_edges(poles, upper),
                                  _per_centre_edges(poles, upper))


def _per_centre_edges(poles, upper):
    """The frequency rule's edges with each centre's dyadic ladder built in a
    loop of its own, to its own first rung past ``2 upper``."""
    centres = np.concatenate([poles.imag, -poles.imag])
    depths = np.abs(np.concatenate([poles.real, poles.real]))
    cands = [np.array([0.0, upper])]
    for c, d in zip(centres, depths):
        steps = d / 8.0 * 2.0 ** np.arange(int(np.ceil(np.log2(16.0 * upper / d))) + 1)
        cands.append(c + np.concatenate(([0.0], steps, -steps)))
    cands = np.unique(np.concatenate(cands))
    cands = cands[(cands >= 0.0) & (cands <= upper)]
    picked = [0]
    while picked[-1] < cands.size - 1:
        # scan ahead in blocks of 256 candidates to the first that does not fit
        a, lo = cands[picked[-1]], picked[-1] + 1
        while lo < cands.size:
            b = cands[lo:lo + 256]
            gap = np.maximum(np.maximum(a - centres[:, None], centres[:, None] - b), 0.0)
            misfit = np.flatnonzero(b - a > np.hypot(gap, depths[:, None]).min(axis=0))
            if misfit.size:
                lo += misfit[0]
                break
            lo += b.size
        picked.append(max(lo - 1, picked[-1] + 1))  # a panel spans at least one step
    return cands[picked]


def test_import_and_analyze_leave_scipy_out():
    # SciPy is a lazy fallback for hard cases: import oqrisk and an analyze of
    # the paper fixture (the baseline config: perfbench's paper-analyze one at
    # Monte Carlo seed 7) run on numpy alone
    env = dict(os.environ, PYTHONPATH=str(Path(oqrisk.__file__).parents[1]))
    code = (
        "import sys, oqrisk\n"
        "from oqrisk import report\n"
        "doc = {'theta_list': [0.005, 0.01], 'orders': [2, 3, 4, 6],\n"
        "       'eps_grid': {'min': 280.0, 'max': 900.0, 'steps': 8},\n"
        "       'mc': {'h': 0.05, 'steps': 400, 'paths': 20000, 'lag': 10,\n"
        "              'theta': 0.001, 'seed': 7}}\n"
        "_, failed = report.analyze(report.parse_config(doc, fixture='paper-example'))\n"
        "print(failed, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.strip() == "False []"


def test_import_leaves_scipy_integrate_out():
    # every frequency integral goes through integrate_frequency; a second
    # integration path would pull scipy.integrate in
    env = dict(os.environ, PYTHONPATH=str(Path(oqrisk.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, oqrisk; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
